//! OT-extension state as a value: what setup produces, what a session
//! advances, and what a clean end leaves behind for the next one.
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
//! Each is seeded by one batch of base OTs over the Edwards curve and then
//! only extended: the PRG, tweak and COT-pool positions inside move forward
//! with every extension and never back. A **lineage** is one party's pair
//! of halves, [`ServerLineage`] or [`ClientLineage`]. Base OTs run once per
//! lineage, not once per connection: [`complete`](ServerLineage::complete)
//! runs a batch only for a half that is absent *and* that the session's
//! path uses, so a fresh session sets up what it needs, a session
//! continuing a parked lineage sets up nothing, and a warm or resumed one
//! never sets up the fragment half. During a session the fragment half
//! drives the offline phase ([`crate::graph::server_offline_with`]) and the
//! Yao half crosses into [`crate::inference::ServerOffline`] /
//! [`crate::inference::ClientOffline`]; after a clean end both are parked
//! ([`park`](ServerLineage::park)) for exactly one successor (§6 of
//! DESIGN.md has the rules that make that sound).

use crate::handshake::Halves;
use crate::ProtocolError;
use abnn2_gc::{YaoEvaluator, YaoGarbler};
use abnn2_net::Transport;
use abnn2_ot::{FragmentChooser, FragmentSender, OfflineMode};
use rand::Rng;

/// Server-side OT-extension state (model holder). `Clone` because the
/// session driver runs each step on a copy; a copy that is not kept is
/// dropped unused, so positions still only move forward.
#[derive(Debug, Clone, Default)]
pub struct ServerLineage {
    /// 1-out-of-N OT chooser used by the matmul triplet protocol.
    pub kk: Option<FragmentChooser>,
    /// Garbled-circuit evaluator used by activation layers.
    pub yao: Option<YaoEvaluator>,
}

/// Client-side OT-extension state (data owner). Deliberately not `Clone`:
/// two copies of a sender would derive the same pads twice.
#[derive(Debug, Default)]
pub struct ClientLineage {
    /// 1-out-of-N OT sender used by the matmul triplet protocol.
    pub kk: Option<FragmentSender>,
    /// Garbled-circuit garbler used by activation layers.
    pub yao: Option<YaoGarbler>,
}

/// The two parties' lineages share everything but the half types, so the
/// rules are written once.
macro_rules! lineage_impl {
    ($lineage:ident, $kk:ident, $yao:ident) => {
        impl $lineage {
            /// A fresh lineage with both halves over the portable KK13
            /// backend; must pair with the peer's `setup`.
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

            /// A fresh lineage with both halves, the fragment half in
            /// `mode`; must pair with the peer's `setup_with` in the *same*
            /// mode.
            ///
            /// # Errors
            ///
            /// Propagates base-OT failures.
            pub fn setup_with<T: Transport, R: Rng + ?Sized>(
                ch: &mut T,
                mode: OfflineMode,
                rng: &mut R,
            ) -> Result<Self, ProtocolError> {
                let mut lineage = Self::default();
                lineage.complete(ch, Some(mode), rng)?;
                Ok(lineage)
            }

            /// The setup phase of every session, fresh or continued: runs
            /// the fragment batch iff the session runs the interactive
            /// offline phase (`offline` names its mode) and holds no
            /// fragment half, then the Yao batch iff it holds no Yao half.
            /// Must pair with the peer's `complete`, given the same `offline`
            /// by a peer holding the same halves.
            ///
            /// # Errors
            ///
            /// Propagates base-OT failures.
            pub fn complete<T: Transport, R: Rng + ?Sized>(
                &mut self,
                ch: &mut T,
                offline: Option<OfflineMode>,
                rng: &mut R,
            ) -> Result<(), ProtocolError> {
                if let Some(mode) = offline {
                    self.ensure_kk(ch, mode, rng)?;
                }
                self.ensure_yao(ch, rng)
            }

            /// Runs the fragment base-OT batch unless the half is held.
            pub(crate) fn ensure_kk<T: Transport, R: Rng + ?Sized>(
                &mut self,
                ch: &mut T,
                mode: OfflineMode,
                rng: &mut R,
            ) -> Result<(), ProtocolError> {
                if self.kk.is_none() {
                    self.kk = Some($kk::setup(ch, mode, rng)?);
                }
                Ok(())
            }

            /// Runs the Yao base-OT batch unless the half is held.
            pub(crate) fn ensure_yao<T: Transport, R: Rng + ?Sized>(
                &mut self,
                ch: &mut T,
                rng: &mut R,
            ) -> Result<(), ProtocolError> {
                if self.yao.is_none() {
                    self.yao = Some($yao::setup(ch, rng)?);
                }
                Ok(())
            }

            /// Which halves are held.
            #[must_use]
            pub fn halves(&self) -> Halves {
                Halves { kk: self.kk.is_some(), yao: self.yao.is_some() }
            }

            /// Drops every half not in `keep`: what the peer does not
            /// continue is of no use to this party either.
            pub fn retain(&mut self, keep: Halves) {
                if !keep.kk {
                    self.kk = None;
                }
                if !keep.yao {
                    self.yao = None;
                }
            }

            /// Readies the lineage to outlive its session; both parties
            /// call this at the session's clean end.
            pub fn park(&mut self) {
                if let Some(kk) = &mut self.kk {
                    kk.park();
                }
            }

            /// The offline mode of the fragment half, if held.
            #[must_use]
            pub fn mode(&self) -> Option<OfflineMode> {
                self.kk.as_ref().map(|kk| kk.mode())
            }
        }
    };
}

lineage_impl!(ServerLineage, FragmentChooser, YaoEvaluator);
lineage_impl!(ClientLineage, FragmentSender, YaoGarbler);

impl ServerLineage {
    /// Bytes a store holds while this lineage is parked.
    #[must_use]
    pub fn parked_bytes(&self) -> usize {
        self.kk.as_ref().map_or(0, FragmentChooser::parked_bytes)
            + self.yao.as_ref().map_or(0, YaoEvaluator::parked_bytes)
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
                ServerLineage::setup(ch, &mut rng).is_ok()
            },
            |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(2);
                ClientLineage::setup(ch, &mut rng).is_ok()
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
                    ServerLineage::setup_with(&mut tap, mode, &mut rng).expect("server setup");
                    tap.log
                },
                |ch| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5E8);
                    ClientLineage::setup_with(ch, mode, &mut rng).expect("client setup");
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
                ServerLineage::setup_with(ch, OfflineMode::Silent, &mut rng)
                    .expect("server setup")
                    .mode()
            },
            |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(4);
                ClientLineage::setup_with(ch, OfflineMode::Silent, &mut rng)
                    .expect("client setup")
                    .mode()
            },
        );
        assert_eq!(s, Some(OfflineMode::Silent));
        assert_eq!(c, Some(OfflineMode::Silent));
    }

    /// `complete` runs a batch only for a half that is absent and needed:
    /// a lineage with no offline phase ahead sets up Yao alone (half the
    /// KK13 bytes, three frames), a second `complete` moves nothing, and
    /// asking for the fragment half later adds exactly its batch.
    #[test]
    fn complete_runs_only_what_is_missing_and_needed() {
        let (s, c, report) = run_pair(
            NetworkModel::instant(),
            |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(5);
                let mut lineage = ServerLineage::default();
                lineage.complete(ch, None, &mut rng).expect("yao only");
                let yao_only = (lineage.halves(), ch.snapshot().messages_sent);
                lineage.complete(ch, None, &mut rng).expect("nothing to do");
                assert_eq!(ch.snapshot().messages_sent, yao_only.1);
                lineage.complete(ch, Some(OfflineMode::Iknp), &mut rng).expect("kk added");
                (yao_only.0, lineage.halves())
            },
            |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(6);
                let mut lineage = ClientLineage::default();
                lineage.complete(ch, None, &mut rng).expect("yao only");
                lineage.complete(ch, None, &mut rng).expect("nothing to do");
                lineage.complete(ch, Some(OfflineMode::Iknp), &mut rng).expect("kk added");
                lineage.halves()
            },
        );
        assert_eq!(s.0, Halves { kk: false, yao: true });
        assert_eq!(s.1, Halves { kk: true, yao: true });
        assert_eq!(c, s.1);
        // The same two batches as a fresh full setup, in the other order.
        assert_eq!(report.total_bytes(), 36_998);
        assert_eq!(report.server.messages_sent + report.client.messages_sent, 6);
    }
}
