//! Silent OT: LPN-based correlation expansion (Ferret-style).
//!
//! The IKNP/KK13 extensions pay Θ(κ) wire bits per OT — the offline phase's
//! dominant cost. Silent OT replaces that with a *pseudorandom correlation
//! generator*: a tiny seed exchange expands locally into a long vector of
//! random correlated OTs (COTs), after which only derandomization bits cross
//! the wire. The pipeline, bottom to top:
//!
//! 1. **Bootstrap** — one raw IKNP COT extension ([`IknpSender::extend_cot`])
//!    seeds the first refill with [`RESERVE`] base COTs; the IKNP
//!    sender's global secret `s` becomes the silent correlation Δ. Every
//!    later refill reseeds itself from its own output (self-bootstrapping),
//!    so the IKNP column matrix is paid exactly once per session.
//! 2. **SPCOT** (single-point COT) — per tree, the sender GGM-expands a
//!    random root to `2^d` leaves and transfers, per level, the XOR of all
//!    left / all right children masked under one consumed base COT. The
//!    receiver derandomizes its base-COT choice bit toward the *complement*
//!    of its secret path bit, unmasks exactly one sum per level, and
//!    reconstructs every leaf except its secret index α. A final correction
//!    `c* = Δ ⊕ ⊕ᵥ vⱼ` gives it `v_α ⊕ Δ` at the punctured point: a COT
//!    vector whose choice vector is the weight-1 indicator of α.
//! 3. **MPCOT** — `t` independent trees, one secret point per
//!    `2^d`-leaf block (regular noise), concatenate to a weight-`t`
//!    sparse COT of length `n`.
//! 4. **Primal LPN** — a public `D`-local linear code (fixed PRG seed)
//!    compresses `k` reserved base COTs with the sparse vector:
//!    `x_j = (⊕_{i∈S_j} u_i) ⊕ e_j` is pseudorandom under LPN with regular
//!    noise, and the blocks combine linearly so the COT correlation is
//!    preserved.
//!
//! On top sits a **derandomization adapter** ([`SilentKkSender`] /
//! [`SilentKkChooser`]) that converts `⌈log₂ N⌉` random COTs into one
//! chosen-input 1-of-N fragment OT with the same key-handle API as KK13 —
//! so ABNN²'s γ(N−1) masked-triplet protocol runs unchanged on top.
//!
//! # Parameters
//!
//! The sizes are constants, so both parties derive the same refill
//! schedule and every frame size from the code alone: `K = 512`,
//! `TREES = 16`, [`N`] `= 8192`, depth 9, `D = 8`. This is a *toy*
//! instantiation sized for tests and the repo's CI budget, not a
//! production-hardened LPN choice; see DESIGN.md §3i for the wire-cost
//! accounting, the security discussion and the Ferret-regime sizes a
//! deployment would set here. Per refill, each side consumes [`RESERVE`]
//! `= K + TREES·depth` of its own outputs and nets [`REFILL_YIELD`] fresh
//! COTs for ≈ 4.9 KB on the wire — two orders of magnitude below the
//! 16 B/COT an IKNP extension would move.
//!
//! [`IknpSender::extend_cot`]: crate::iknp::IknpSender::extend_cot

mod cot;
mod frag;
mod spcot;

pub use cot::{PendingRefill, SilentCotReceiver, SilentCotSender};
pub use frag::{SilentChooserKeys, SilentKkChooser, SilentKkSender, SilentSenderKeys};

/// LPN dimension: base COTs the local code compresses per refill.
const K: usize = 512;
/// Regular-noise weight: SPCOT trees (= secret points) per refill.
const TREES: usize = 16;
/// GGM tree depth: each tree covers `2^TREE_DEPTH = N / TREES` leaves.
const TREE_DEPTH: usize = 9;
/// Code locality: base positions XORed into each LPN output.
const D: usize = 8;

/// LPN output length: COTs one refill produces, reserve included.
pub const N: usize = 8192;

/// Base COTs one refill consumes: `K` for the code plus one per tree level
/// for the SPCOT masks, reserved out of the previous refill's output.
pub const RESERVE: usize = K + TREES * TREE_DEPTH;

/// Net fresh COTs one refill adds to the consumable pool.
pub const REFILL_YIELD: usize = N - RESERVE;

const _: () = {
    assert!(TREES << TREE_DEPTH == N, "trees must tile the output");
    assert!(
        K.is_power_of_two() && K <= 1 << 16,
        "unbiased u16 index sampling needs K = 2^j ≤ 2^16"
    );
    assert!(N > RESERVE, "a refill must net a positive yield");
    assert!(D >= 1, "the code must touch at least one base position");
};

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_net::wire::tags;
    use abnn2_net::{CommSnapshot, Endpoint, NetworkModel, Transport, TransportError};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::mpsc;
    use std::time::Duration;

    /// The refill schedule the pinned silent transcripts were taken on.
    #[test]
    fn ci_parameters_are_consistent() {
        assert_eq!((K, TREES, N, TREE_DEPTH, D), (512, 16, 8192, 9, 8));
        assert_eq!((RESERVE, REFILL_YIELD), (656, 7536));
    }

    /// Resizes the `skip`-th frame tagged `tag` its party sends (counting
    /// from 0) by `by` bytes: a whole number of the frame's units, so the
    /// frame layer accepts it and only the protocol's length check is left.
    struct Resize {
        inner: Endpoint,
        tag: u8,
        skip: Option<usize>,
        by: isize,
    }

    impl Transport for Resize {
        fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
            let mut frame = payload.to_vec();
            if frame[0] == self.tag {
                if self.skip == Some(0) {
                    frame.resize(frame.len().saturating_add_signed(self.by), 0);
                }
                self.skip = self.skip.and_then(|n| n.checked_sub(1));
            }
            self.inner.send(&frame)
        }
        fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
            self.inner.recv()
        }
        fn snapshot(&self) -> CommSnapshot {
            self.inner.snapshot()
        }
    }

    /// Which party sends the frame a test resizes.
    #[derive(Clone, Copy, PartialEq)]
    enum Side {
        Sender,
        Chooser,
    }

    /// Sets up a silent fragment-OT pair and runs one extension of 16
    /// radix-4 OTs (one refill) with one frame resized, and returns what
    /// the sender and the chooser report, under a watchdog: neither may
    /// panic or hang.
    fn extend_with(
        from: Side,
        tag: u8,
        skip: usize,
        by: isize,
    ) -> (Result<(), TransportError>, Result<(), TransportError>) {
        let (a, b) = Endpoint::pair(NetworkModel::instant());
        let tap = move |inner: Endpoint, who: Side| Resize {
            inner,
            tag,
            skip: (who == from).then_some(skip),
            by,
        };
        let (tx, rx) = mpsc::channel();
        let pair = std::thread::spawn(move || {
            std::thread::scope(|s| {
                let sender = s.spawn(move || {
                    let mut ch = tap(a, Side::Sender);
                    let mut s = SilentKkSender::setup(&mut ch, &mut StdRng::seed_from_u64(41))?;
                    s.extend(&mut ch, 16, 4).map(drop)
                });
                let chooser = s.spawn(move || {
                    let mut ch = tap(b, Side::Chooser);
                    let mut c = SilentKkChooser::setup(&mut ch, &mut StdRng::seed_from_u64(42))?;
                    c.extend(&mut ch, &[3; 16], 4).map(drop)
                });
                let sender = sender.join().expect("the sender must not panic");
                let chooser = chooser.join().expect("the chooser must not panic");
                tx.send((sender, chooser)).expect("report");
            });
        });
        let reports = rx.recv_timeout(Duration::from_secs(60)).expect("a party panicked or hung");
        pair.join().expect("both parties finished");
        reports
    }

    /// The frame `from` sends as its `skip`-th `tag`, one `unit` short and
    /// one long, is refused by the other party as `Malformed(what)`.
    fn assert_length_checked(from: Side, tag: u8, skip: usize, unit: isize, what: &'static str) {
        for by in [-unit, unit] {
            let (sender, chooser) = extend_with(from, tag, skip, by);
            let reader = if from == Side::Sender { chooser } else { sender };
            assert_eq!(reader, Err(TransportError::Malformed(what)), "resized by {by}");
        }
    }

    #[test]
    fn spcot_derandomization_batch_length_is_checked() {
        let what = "SPCOT derandomization batch has wrong length";
        assert_length_checked(Side::Chooser, tags::SILENT_DERAND, 0, 1, what);
    }

    #[test]
    fn spcot_mask_batch_length_is_checked() {
        let what = "SPCOT mask batch has wrong length";
        assert_length_checked(Side::Sender, tags::SILENT_SPCOT_MASKS, 0, 32, what);
    }

    #[test]
    fn spcot_correction_batch_length_is_checked() {
        let what = "SPCOT correction batch has wrong length";
        assert_length_checked(Side::Sender, tags::SILENT_SPCOT_SUMS, 0, 16, what);
    }

    #[test]
    fn fragment_derandomization_batch_length_is_checked() {
        // The chooser's first derandomization frame is the refill's, its
        // second the fragment choices'.
        let what = "fragment derandomization batch has wrong length";
        assert_length_checked(Side::Chooser, tags::SILENT_DERAND, 1, 1, what);
    }
}
