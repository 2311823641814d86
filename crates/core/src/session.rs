//! Per-connection protocol sessions: OT extension and Yao state.
//!
//! ABNN² uses two OT sessions with opposite roles:
//!
//! * the **fragment-OT** session for linear layers, where the *server*
//!   (model holder) is the chooser — its weight fragments are the choice
//!   symbols — and the *client* is the sender. The backend is the
//!   negotiated [`OfflineMode`]: KK13 extension or silent (LPN) expansion;
//! * the **IKNP** session inside Yao's protocol for activations, where the
//!   client garbles and the server evaluates (so the server is the OT
//!   receiver for its input labels).
//!
//! Both are seeded once per connection by base OTs over the Edwards curve.
//! A session is what setup returns and no more: it is split at the
//! offline→online edge, the fragment-OT half going to the offline phase
//! ([`crate::graph::server_offline_with`]) and ending with it, the Yao half
//! going on into [`crate::inference::ServerOffline`] /
//! [`crate::inference::ClientOffline`].

use crate::ProtocolError;
use abnn2_gc::{YaoEvaluator, YaoGarbler};
use abnn2_net::Transport;
use abnn2_ot::{FragmentChooser, FragmentSender, OfflineMode};
use rand::Rng;

/// Server-side session state (model holder).
#[derive(Debug, Clone)]
pub struct ServerSession {
    /// 1-out-of-N OT chooser used by the matmul triplet protocol.
    pub kk: FragmentChooser,
    /// Garbled-circuit evaluator used by activation layers.
    pub yao: YaoEvaluator,
}

/// Client-side session state (data owner).
#[derive(Debug)]
pub struct ClientSession {
    /// 1-out-of-N OT sender used by the matmul triplet protocol.
    pub kk: FragmentSender,
    /// Garbled-circuit garbler used by activation layers.
    pub yao: YaoGarbler,
}

impl ServerSession {
    /// Runs both base-OT setups with the portable KK13 backend; must pair
    /// with [`ClientSession::setup`] on the other endpoint.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        rng: &mut R,
    ) -> Result<Self, ProtocolError> {
        Self::setup_with(ch, OfflineMode::Iknp, rng)
    }

    /// Runs both base-OT setups with an explicit offline mode; must pair
    /// with [`ClientSession::setup_with`] using the *same* mode.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup_with<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        mode: OfflineMode,
        rng: &mut R,
    ) -> Result<Self, ProtocolError> {
        let kk = FragmentChooser::setup(ch, mode, rng)?;
        let yao = YaoEvaluator::setup(ch, rng)?;
        Ok(ServerSession { kk, yao })
    }

    /// The offline mode this session was established with.
    #[must_use]
    pub fn mode(&self) -> OfflineMode {
        self.kk.mode()
    }
}

impl ClientSession {
    /// Runs both base-OT setups with the portable KK13 backend; must pair
    /// with [`ServerSession::setup`].
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        rng: &mut R,
    ) -> Result<Self, ProtocolError> {
        Self::setup_with(ch, OfflineMode::Iknp, rng)
    }

    /// Runs both base-OT setups with an explicit offline mode; must pair
    /// with [`ServerSession::setup_with`] using the *same* mode.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup_with<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        mode: OfflineMode,
        rng: &mut R,
    ) -> Result<Self, ProtocolError> {
        let kk = FragmentSender::setup(ch, mode, rng)?;
        let yao = YaoGarbler::setup(ch, rng)?;
        Ok(ClientSession { kk, yao })
    }

    /// The offline mode this session was established with.
    #[must_use]
    pub fn mode(&self) -> OfflineMode {
        self.kk.mode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_crypto::sha256::sha256;
    use abnn2_net::{run_pair, NetworkModel};
    use rand::SeedableRng;

    #[test]
    fn sessions_establish() {
        let (s, c, report) = run_pair(
            NetworkModel::instant(),
            |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(1);
                ServerSession::setup(ch, &mut rng).is_ok()
            },
            |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(2);
                ClientSession::setup(ch, &mut rng).is_ok()
            },
        );
        assert!(s && c);
        // 2κ + κ base OTs worth of points crossed the wire.
        assert_eq!(report.total_bytes(), 36_998);
        assert_eq!(report.server.messages_sent + report.client.messages_sent, 6);
    }

    /// Hashes every frame the wrapped party sends and receives, in the
    /// order that party sees them.
    struct Tap<'a, T> {
        inner: &'a mut T,
        log: Vec<u8>,
    }

    impl<T: Transport> Transport for Tap<'_, T> {
        fn send(&mut self, payload: &[u8]) -> Result<(), abnn2_net::TransportError> {
            self.log.push(b'>');
            self.log.extend_from_slice(&sha256(payload));
            self.inner.send(payload)
        }
        fn recv(&mut self) -> Result<Vec<u8>, abnn2_net::TransportError> {
            let frame = self.inner.recv()?;
            self.log.push(b'<');
            self.log.extend_from_slice(&sha256(&frame));
            Ok(frame)
        }
        fn snapshot(&self) -> abnn2_net::CommSnapshot {
            self.inner.snapshot()
        }
    }

    /// The seeded setup transcript of both offline modes, pinned on the
    /// commit before the base-OT curve kernels were rebuilt: the kernels
    /// may change how points are computed, never which bytes cross the
    /// wire.
    #[test]
    fn seeded_setup_transcripts_are_pinned() {
        for (mode, pin) in [
            (OfflineMode::Iknp, "89c0a01493f3d238adac70127c63295b1598aa76b6440ef01eafbfd68bef2e6d"),
            (
                OfflineMode::Silent,
                "0aff02881d869072c332e5bdf922b7f39c2c18e8fc0b978cd29bc9b7ff5dce66",
            ),
        ] {
            let (log, _, _) = run_pair(
                NetworkModel::instant(),
                |ch| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5E7);
                    let mut tap = Tap { inner: ch, log: Vec::new() };
                    ServerSession::setup_with(&mut tap, mode, &mut rng).expect("server setup");
                    tap.log
                },
                |ch| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5E8);
                    ClientSession::setup_with(ch, mode, &mut rng).expect("client setup");
                },
            );
            assert_eq!(log.len(), 6 * 33, "two batches of A, R batch, ciphertext batch");
            let hex: String = sha256(&log).iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, pin, "{mode:?} setup transcript changed");
        }
    }

    #[test]
    fn silent_sessions_establish() {
        let (s, c, _) = run_pair(
            NetworkModel::instant(),
            |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(3);
                ServerSession::setup_with(ch, OfflineMode::Silent, &mut rng)
                    .map(|s| s.mode())
                    .expect("server setup")
            },
            |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(4);
                ClientSession::setup_with(ch, OfflineMode::Silent, &mut rng)
                    .map(|c| c.mode())
                    .expect("client setup")
            },
        );
        assert_eq!(s, OfflineMode::Silent);
        assert_eq!(c, OfflineMode::Silent);
    }
}
