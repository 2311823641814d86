//! Mode-dispatched fragment OT: one API over the KK13 and silent backends.
//!
//! ABNN²'s triplet protocol only needs the key-handle contract — sender
//! derives the mask of *every* symbol, chooser derives the mask of *its*
//! symbol — so the backends are interchangeable behind these enums. Which
//! one a session uses is the negotiated [`OfflineMode`]: KK13 is the
//! portable fallback and correctness oracle, silent OT the low-bandwidth
//! default for capable peers.

use crate::base::{self, PendingSend};
use crate::kk13::{KkChooser, KkChooserKeys, KkSender, KkSenderKeys};
use crate::silent::{
    PendingRefill, SilentChooserKeys, SilentKkChooser, SilentKkSender, SilentSenderKeys,
};
use abnn2_net::{Transport, TransportError};
use rand::Rng;
use std::ops::Range;

/// Which OT machinery drives the offline phase — negotiated at handshake,
/// baked into bundle keys so pools never cross-serve modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OfflineMode {
    /// IKNP/KK13 extension: Θ(κ) wire bits per OT, no LPN assumption.
    #[default]
    Iknp,
    /// Silent (LPN) expansion: near-zero wire bytes per OT.
    Silent,
}

/// Fragment-OT sender dispatched over the negotiated mode (ABNN² client).
#[derive(Debug)]
pub enum FragmentSender {
    /// KK13 Walsh–Hadamard extension.
    Kk(KkSender),
    /// Silent COTs plus the derandomization adapter (boxed: the COT
    /// expander's buffers dwarf the KK13 state).
    Silent(Box<SilentKkSender>),
}

/// Fragment-OT chooser dispatched over the negotiated mode (ABNN² server).
#[derive(Debug)]
pub enum FragmentChooser {
    /// KK13 Walsh–Hadamard extension.
    Kk(KkChooser),
    /// Silent COTs plus the derandomization adapter (boxed: the COT
    /// expander's buffers dwarf the KK13 state).
    Silent(Box<SilentKkChooser>),
}

/// Sender key material from one `extend` call, either backend.
#[derive(Debug)]
pub enum FragmentSenderKeys {
    /// KK13 keys.
    Kk(KkSenderKeys),
    /// Silent keys.
    Silent(SilentSenderKeys),
}

/// Chooser key material from one `extend` call, either backend.
#[derive(Debug)]
pub enum FragmentChooserKeys {
    /// KK13 keys.
    Kk(KkChooserKeys),
    /// Silent keys.
    Silent(SilentChooserKeys),
}

impl FragmentSender {
    /// One-time setup of the selected backend.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        mode: OfflineMode,
        rng: &mut R,
    ) -> Result<Self, TransportError> {
        Ok(match mode {
            OfflineMode::Iknp => FragmentSender::Kk(KkSender::setup(ch, rng)?),
            OfflineMode::Silent => {
                FragmentSender::Silent(Box::new(SilentKkSender::setup(ch, rng)?))
            }
        })
    }

    /// The mode this sender was set up with.
    #[must_use]
    pub fn mode(&self) -> OfflineMode {
        match self {
            FragmentSender::Kk(_) => OfflineMode::Iknp,
            FragmentSender::Silent(_) => OfflineMode::Silent,
        }
    }

    /// Accepted and ignored: nothing below `core::matmul::run_sharded` is
    /// threaded. Exists for `bench/`, which still calls it; to be dropped
    /// by the next `[benchmark]` PR.
    pub fn set_threads(&mut self, threads: usize) {
        let _ = threads;
    }

    /// Readies the state to outlive its session; pairs with
    /// [`FragmentChooser::park`], called at the same point.
    pub fn park(&mut self) {
        if let FragmentSender::Silent(s) = self {
            s.park();
        }
    }

    /// Extends to `m` fresh 1-out-of-`n` fragment OTs.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed peer messages.
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside `2..=256`.
    pub fn extend<T: Transport>(
        &mut self,
        ch: &mut T,
        m: usize,
        n: u64,
    ) -> Result<FragmentSenderKeys, TransportError> {
        Ok(match self {
            FragmentSender::Kk(s) => FragmentSenderKeys::Kk(s.extend(ch, m)?),
            FragmentSender::Silent(s) => FragmentSenderKeys::Silent(s.extend(ch, m, n)?),
        })
    }
}

impl FragmentChooser {
    /// One-time setup of the selected backend.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        mode: OfflineMode,
        rng: &mut R,
    ) -> Result<Self, TransportError> {
        base::finished(Self::setup_start(ch, mode, rng)?, ch)
    }

    /// [`setup`](Self::setup) up to its wait: the chooser, and the base-OT
    /// batch whose [`finish`](PendingSend::finish) completes the transfer
    /// before the first extension.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup_start<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        mode: OfflineMode,
        rng: &mut R,
    ) -> Result<(Self, PendingSend), TransportError> {
        Ok(match mode {
            OfflineMode::Iknp => {
                let (c, pending) = KkChooser::setup_start(ch, rng)?;
                (FragmentChooser::Kk(c), pending)
            }
            OfflineMode::Silent => {
                let (c, pending) = SilentKkChooser::setup_start(ch, rng)?;
                (FragmentChooser::Silent(Box::new(c)), pending)
            }
        })
    }

    /// The mode this chooser was set up with.
    #[must_use]
    pub fn mode(&self) -> OfflineMode {
        match self {
            FragmentChooser::Kk(_) => OfflineMode::Iknp,
            FragmentChooser::Silent(_) => OfflineMode::Silent,
        }
    }

    /// Accepted and ignored: nothing below `core::matmul::run_sharded` is
    /// threaded. Exists for `bench/`, which still calls it; to be dropped
    /// by the next `[benchmark]` PR.
    pub fn set_threads(&mut self, threads: usize) {
        let _ = threads;
    }

    /// Readies the state to outlive its session: the silent backend drops
    /// the COTs it pooled and no extension took, so the next session
    /// starts from the refill reserve alone and every continued session
    /// runs the same refills, moves the same bytes and parks the same
    /// size. Both parties call this at the clean end of a session. KK13
    /// holds nothing between extensions but its PRG positions.
    pub fn park(&mut self) {
        if let FragmentChooser::Silent(c) = self {
            c.park();
        }
    }

    /// Bytes this chooser holds between extensions: what parking it costs
    /// a store.
    #[must_use]
    pub fn parked_bytes(&self) -> usize {
        match self {
            FragmentChooser::Kk(c) => c.parked_bytes(),
            FragmentChooser::Silent(c) => c.parked_bytes(),
        }
    }

    /// Starts the one wait on the peer that an [`extend`](Self::extend) of
    /// `m` OTs at radix `n` would otherwise run inline — a silent-OT
    /// refill; KK13 never waits — or `None` once that `extend` will send
    /// without receiving. A resumable caller finishes each refill
    /// ([`refill_finish`](Self::refill_finish)) as a step of its own and
    /// asks again.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection.
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside `2..=256`.
    pub fn refill_start<T: Transport>(
        &mut self,
        ch: &mut T,
        m: usize,
        n: u64,
    ) -> Result<Option<PendingRefill>, TransportError> {
        match self {
            FragmentChooser::Kk(_) => Ok(None),
            FragmentChooser::Silent(c) => c.refill_start(ch, m, n),
        }
    }

    /// Finishes a refill [`refill_start`](Self::refill_start) began.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed refill messages.
    ///
    /// # Panics
    ///
    /// Panics on a KK13 chooser, which never starts one.
    pub fn refill_finish<T: Transport>(
        &mut self,
        ch: &mut T,
        refill: PendingRefill,
    ) -> Result<(), TransportError> {
        match self {
            FragmentChooser::Kk(_) => unreachable!("KK13 never refills"),
            FragmentChooser::Silent(c) => c.refill_finish(ch, refill),
        }
    }

    /// Extends with one choice symbol per OT; all symbols must be below `n`.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed peer messages.
    ///
    /// # Panics
    ///
    /// Panics if any choice is ≥ `n` or `n` is outside `2..=256`.
    pub fn extend<T: Transport>(
        &mut self,
        ch: &mut T,
        choices: &[u64],
        n: u64,
    ) -> Result<FragmentChooserKeys, TransportError> {
        Ok(match self {
            FragmentChooser::Kk(c) => FragmentChooserKeys::Kk(c.extend(ch, choices, n)?),
            FragmentChooser::Silent(c) => FragmentChooserKeys::Silent(c.extend(ch, choices, n)?),
        })
    }
}

impl FragmentSenderKeys {
    /// Number of OTs in this batch.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            FragmentSenderKeys::Kk(k) => k.len(),
            FragmentSenderKeys::Silent(k) => k.len(),
        }
    }

    /// True if the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `len`-byte masks of the symbols in `symbols` for the OTs in
    /// `ots`, back to back in `out`: the mask of symbol `v` in OT `j` at
    /// `((j − ots.start) · symbols.len() + v − symbols.start) · len`. One
    /// oracle batch for the whole range, so callers bound their memory by
    /// the ranges they ask for.
    ///
    /// # Panics
    ///
    /// Panics if a range is out of bounds or `out` is not
    /// `ots.len() · symbols.len() · len` bytes.
    pub fn masks(&self, ots: Range<usize>, symbols: Range<u64>, len: usize, out: &mut [u8]) {
        match self {
            FragmentSenderKeys::Kk(k) => k.masks(ots, symbols, len, out),
            FragmentSenderKeys::Silent(k) => k.masks(ots, symbols, len, out),
        }
    }
}

impl FragmentChooserKeys {
    /// Number of OTs in this batch.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            FragmentChooserKeys::Kk(k) => k.len(),
            FragmentChooserKeys::Silent(k) => k.len(),
        }
    }

    /// True if the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `len`-byte masks of the symbols this chooser selected in the
    /// OTs in `ots`, back to back in `out`. One oracle batch for the whole
    /// range.
    ///
    /// # Panics
    ///
    /// Panics if `ots` is out of range or `out` is not `ots.len() · len`
    /// bytes.
    pub fn masks(&self, ots: Range<usize>, len: usize, out: &mut [u8]) {
        match self {
            FragmentChooserKeys::Kk(k) => k.masks(ots, len, out),
            FragmentChooserKeys::Silent(k) => k.masks(ots, len, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_net::{run_pair, NetworkModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_mode_is_the_portable_fallback() {
        assert_eq!(OfflineMode::default(), OfflineMode::Iknp);
    }

    #[test]
    fn both_backends_agree_through_the_enum() {
        for mode in [OfflineMode::Iknp, OfflineMode::Silent] {
            let n = 4u64;
            let choices = vec![0u64, 3, 1, 2, 2];
            let choices2 = choices.clone();
            let m = choices.len();
            let (sender_out, ck, _) = run_pair(
                NetworkModel::instant(),
                move |ch| {
                    let mut rng = StdRng::seed_from_u64(41);
                    let mut s = FragmentSender::setup(ch, mode, &mut rng).expect("setup");
                    (s.extend(ch, m, n).expect("extend"), s.mode())
                },
                move |ch| {
                    let mut rng = StdRng::seed_from_u64(42);
                    let mut c = FragmentChooser::setup(ch, mode, &mut rng).expect("setup");
                    c.extend(ch, &choices2, n).expect("extend")
                },
            );
            let (sk, smode) = sender_out;
            assert_eq!(smode, mode);
            assert_eq!(sk.len(), m);
            assert_eq!(ck.len(), m);
            // Every sender mask at symbols 1 and 2, every chooser mask: the
            // chooser's equals the sender's at its choice and no other.
            let (mut s_all, mut c_all) = (vec![0u8; m * 2 * 24], vec![0u8; m * 24]);
            sk.masks(0..m, 1..3, 24, &mut s_all);
            ck.masks(0..m, 24, &mut c_all);
            for (j, &w) in choices.iter().enumerate() {
                for v in 1..3 {
                    let sender = &s_all[(j * 2 + v - 1) * 24..][..24];
                    assert_eq!(sender == &c_all[j * 24..][..24], v as u64 == w, "{mode:?} {j} {v}");
                }
            }
            // A sub-range call is the matching slice of the whole.
            let (mut s_part, mut c_part) = (vec![0u8; 3 * 24], vec![0u8; 3 * 24]);
            sk.masks(1..4, 2..3, 24, &mut s_part);
            ck.masks(1..4, 24, &mut c_part);
            let want: Vec<u8> =
                (1..4).flat_map(|j| s_all[(j * 2 + 1) * 24..][..24].to_vec()).collect();
            assert_eq!((s_part, &c_part[..]), (want, &c_all[24..4 * 24]), "mode={mode:?}");
        }
    }
}
