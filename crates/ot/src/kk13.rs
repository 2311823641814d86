//! KK13 1-out-of-N OT extension (Kolesnikov–Kumaresan, CRYPTO 2013).
//!
//! The generalization of IKNP that ABNN² builds on: the receiver's choice is
//! a *symbol* `w ∈ [N]` rather than a bit, encoded with a binary code of
//! minimum distance κ. We use the 256-bit Walsh–Hadamard code (codeword
//! `c(w)ᵢ = ⟨w, i⟩ mod 2`), whose pairwise distance is exactly 128 for any
//! two distinct symbols below 256 — so a single instantiation covers every
//! radix the paper uses (N ≤ 16) with the `2κ` column cost that appears in
//! Table 1.
//!
//! The API hands out *key handles* instead of performing message transfer:
//! ABNN²'s matrix-multiplication protocol needs direct access to the per-
//! symbol masks to implement the one-batch "N−1 messages" optimization
//! (§4.1.3), where the mask for symbol 0 is itself the sender's share.

use crate::frames::KkColumns;
use crate::{ext, OtError};
use abnn2_crypto::RoHash;
use abnn2_net::Transport;
use rand::Rng;
use std::ops::Range;

/// Code length 2κ = 256: the column count of the extension matrix.
pub const CODE_LEN: usize = 256;

/// Maximum supported radix (limited by the Walsh–Hadamard code length).
pub const MAX_N: u64 = 256;

/// The Walsh–Hadamard codeword of symbol `v`: bit `i` is `parity(v & i)`.
///
/// # Panics
///
/// Panics if `v >= 256`.
#[must_use]
pub fn codeword(v: u64) -> [u8; 32] {
    assert!(v < MAX_N, "symbol {v} exceeds the WH code domain");
    // Bit 8b + k is parity(v & 8b) ⊕ parity(v & k): byte b is the byte of
    // the eight low parities, complemented where the high parity is odd.
    let parity = |x: u64| (x.count_ones() & 1) as u8;
    let low = (0..8).fold(0u8, |byte, k| byte | parity(v & k) << k);
    std::array::from_fn(|b| if parity((v >> 3) & b as u64) == 1 { !low } else { low })
}

/// The codewords of `symbols`, each ANDed with `and`: the chooser's code
/// table (`and` all ones) and the sender's `c(v) ∧ s`.
fn codewords(symbols: Range<u64>, and: &[u8; 32]) -> Vec<[u8; 32]> {
    let masked = |v| {
        let c = codeword(v);
        std::array::from_fn(|i| c[i] & and[i])
    };
    symbols.map(masked).collect()
}

/// OT-extension **sender**: after `extend`, can derive the mask for *every*
/// symbol of every OT. In ABNN² this is the client (data owner).
pub struct KkSender {
    ext: ext::Sender<{ CODE_LEN / 8 }>,
    tweak: u64,
}

impl std::fmt::Debug for KkSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KkSender").field("tweak", &self.tweak).finish()
    }
}

/// OT-extension **chooser**: learns only the mask of its chosen symbol per
/// OT. In ABNN² this is the server (model owner) choosing weight fragments.
#[derive(Clone)]
pub struct KkChooser {
    ext: ext::Receiver,
    tweak: u64,
}

impl std::fmt::Debug for KkChooser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KkChooser").field("tweak", &self.tweak).finish()
    }
}

/// Key material the sender obtains from one `extend` call.
#[derive(Debug)]
pub struct KkSenderKeys {
    rows: Vec<[u8; 32]>,
    s: [u8; 32],
    base_tweak: u64,
}

/// Key material the chooser obtains from one `extend` call.
#[derive(Debug)]
pub struct KkChooserKeys {
    rows: Vec<[u8; 32]>,
    base_tweak: u64,
}

impl KkSender {
    /// One-time setup: 2κ base OTs with this party as base-OT chooser
    /// holding the correlation secret `s`.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup<T: Transport, R: Rng + ?Sized>(ch: &mut T, rng: &mut R) -> Result<Self, OtError> {
        Ok(KkSender { ext: ext::Sender::setup(ch, rng)?, tweak: 0 })
    }

    /// Extends to `m` fresh 1-out-of-N OTs (any N ≤ 256 at mask time),
    /// consuming the chooser's column message.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed chooser messages.
    pub fn extend<T: Transport>(&mut self, ch: &mut T, m: usize) -> Result<KkSenderKeys, OtError> {
        let KkColumns(u) = ch.recv_frame()?;
        let rows = self.ext.rows(&u, m)?;
        let base_tweak = self.tweak;
        self.tweak += m as u64;
        Ok(KkSenderKeys { rows, s: self.ext.s, base_tweak })
    }
}

impl KkSenderKeys {
    /// Number of OTs in this batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `len`-byte masks of the symbols in `symbols` for the OTs in
    /// `ots`, OT-major, back to back in `out` — XOR a plaintext with one
    /// before sending; only a chooser that picked that symbol can remove
    /// it. One oracle batch for the whole range.
    ///
    /// # Panics
    ///
    /// Panics if a range is out of bounds or `out` is not
    /// `ots.len() · symbols.len() · len` bytes.
    pub fn masks(&self, ots: Range<usize>, symbols: Range<u64>, len: usize, out: &mut [u8]) {
        let codewords = codewords(symbols, &self.s);
        let mut rows = Vec::with_capacity(ots.len() * codewords.len() * 32);
        for j in ots.clone() {
            // Sender key for symbol v: H(j, q_j ⊕ (c(v) ∧ s)). For the
            // chooser's actual symbol this cancels to its t0 row.
            for c in &codewords {
                rows.extend(self.rows[j].iter().zip(c).map(|(q, c)| q ^ c));
            }
        }
        let tweak = |i| u128::from(self.base_tweak + (ots.start + i / codewords.len()) as u64);
        RoHash::shared().hash_expand_rows(&rows, 32, tweak, len, out);
    }

    /// [`masks`](Self::masks) of one symbol in one OT.
    #[must_use]
    pub fn mask(&self, j: usize, v: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.masks(j..j + 1, v..v + 1, len, &mut out);
        out
    }
}

impl KkChooserKeys {
    /// Number of OTs in this batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
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
        let rows = self.rows[ots.clone()].as_flattened();
        let tweak = |i| u128::from(self.base_tweak + (ots.start + i) as u64);
        RoHash::shared().hash_expand_rows(rows, 32, tweak, len, out);
    }

    /// [`masks`](Self::masks) of one OT.
    #[must_use]
    pub fn mask(&self, j: usize, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.masks(j..j + 1, len, &mut out);
        out
    }
}

impl KkChooser {
    /// Bytes this chooser holds between extensions: what parking it costs
    /// a store.
    #[must_use]
    pub fn parked_bytes(&self) -> usize {
        self.ext.parked_bytes()
    }

    /// One-time setup: 2κ base OTs with this party as base-OT sender holding
    /// random seed pairs.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup<T: Transport, R: Rng + ?Sized>(ch: &mut T, rng: &mut R) -> Result<Self, OtError> {
        Ok(KkChooser { ext: ext::Receiver::setup(ch, CODE_LEN, rng)?, tweak: 0 })
    }

    /// Extends with one choice symbol per OT; all symbols must be below `n`.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection.
    ///
    /// # Panics
    ///
    /// Panics if any choice is ≥ `n` or `n` exceeds [`MAX_N`].
    pub fn extend<T: Transport>(
        &mut self,
        ch: &mut T,
        choices: &[u64],
        n: u64,
    ) -> Result<KkChooserKeys, OtError> {
        assert!((2..=MAX_N).contains(&n), "radix {n} out of range");
        assert!(choices.iter().all(|&c| c < n), "choice symbol out of range");
        let m = choices.len();

        // D matrix: row j is codeword(w_j); the extension wants its columns.
        let codewords = codewords(0..n, &[0xff; 32]);
        let d: Vec<[u8; 32]> = choices.iter().map(|&w| codewords[w as usize]).collect();
        let (u, t_cols) = self.ext.columns(&ext::columns(&d), m);
        ch.send_frame(&KkColumns(u))?;

        let rows = ext::rows(&t_cols, m);
        let base_tweak = self.tweak;
        self.tweak += m as u64;
        Ok(KkChooserKeys { rows, base_tweak })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_net::{run_pair, Endpoint, NetworkModel};
    use rand::SeedableRng;

    fn run_kk<A: Send, B: Send>(
        f_s: impl FnOnce(&mut KkSender, &mut Endpoint) -> A + Send,
        f_c: impl FnOnce(&mut KkChooser, &mut Endpoint) -> B + Send,
    ) -> (A, B) {
        let (a, b, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(11);
                let mut s = KkSender::setup(ch, &mut rng).expect("sender setup");
                f_s(&mut s, ch)
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(12);
                let mut c = KkChooser::setup(ch, &mut rng).expect("chooser setup");
                f_c(&mut c, ch)
            },
        );
        (a, b)
    }

    #[test]
    fn codeword_bits_are_inner_product_parities() {
        for v in 0..MAX_N {
            let c = codeword(v);
            for i in 0..CODE_LEN {
                let want = (v & i as u64).count_ones() % 2 == 1;
                assert_eq!(crate::bits::get_bit(&c, i), want, "symbol {v} bit {i}");
            }
        }
    }

    #[test]
    fn codeword_distance_is_kappa() {
        for v1 in 0..16u64 {
            for v2 in 0..16u64 {
                let (c1, c2) = (codeword(v1), codeword(v2));
                let dist: u32 = c1.iter().zip(&c2).map(|(a, b)| (a ^ b).count_ones()).sum();
                if v1 == v2 {
                    assert_eq!(dist, 0);
                } else {
                    assert_eq!(dist, 128, "v1={v1} v2={v2}");
                }
            }
        }
    }

    #[test]
    fn chooser_mask_matches_sender_mask_at_choice() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let n = 16u64;
        let m = 50;
        let choices: Vec<u64> = (0..m).map(|_| rng.gen_range(0..n)).collect();
        let choices2 = choices.clone();
        let (sender_keys, chooser_keys) = run_kk(
            move |s, ch| s.extend(ch, m).expect("extend"),
            move |c, ch| c.extend(ch, &choices2, n).expect("extend"),
        );
        for (j, &choice) in choices.iter().enumerate() {
            let want = sender_keys.mask(j, choice, 24);
            assert_eq!(chooser_keys.mask(j, 24), want, "ot {j}");
            // Masks for other symbols must differ.
            for v in 0..n {
                if v != choice {
                    assert_ne!(sender_keys.mask(j, v, 24), chooser_keys.mask(j, 24));
                }
            }
        }
    }

    #[test]
    fn binary_and_ternary_radix() {
        for n in [2u64, 3, 4] {
            let m = 17;
            let choices: Vec<u64> = (0..m as u64).map(|j| j % n).collect();
            let choices2 = choices.clone();
            let (sk, ck) = run_kk(
                move |s, ch| s.extend(ch, m).expect("extend"),
                move |c, ch| c.extend(ch, &choices2, n).expect("extend"),
            );
            for (j, &choice) in choices.iter().enumerate() {
                assert_eq!(ck.mask(j, 8), sk.mask(j, choice, 8), "n={n} ot={j}");
            }
        }
    }

    #[test]
    fn sequential_extends_are_independent() {
        let (masks_s, masks_c) = run_kk(
            |s, ch| {
                let k1 = s.extend(ch, 4).expect("extend 1");
                let k2 = s.extend(ch, 4).expect("extend 2");
                (k1.mask(0, 1, 16), k2.mask(0, 1, 16))
            },
            |c, ch| {
                let k1 = c.extend(ch, &[1, 0, 1, 0], 2).expect("extend 1");
                let k2 = c.extend(ch, &[1, 1, 1, 1], 2).expect("extend 2");
                (k1.mask(0, 16), k2.mask(0, 16))
            },
        );
        assert_eq!(masks_s.0, masks_c.0);
        assert_eq!(masks_s.1, masks_c.1);
        assert_ne!(masks_s.0, masks_s.1, "tweaks must separate batches");
    }

    #[test]
    #[should_panic(expected = "choice symbol out of range")]
    fn oversized_choice_rejected() {
        let (mut a, mut b) = Endpoint::pair(NetworkModel::instant());
        // The chooser runs on this thread so its panic is the test's; the
        // scope joins the peer, then resumes it.
        std::thread::scope(|scope| {
            scope.spawn(move || {
                KkSender::setup(&mut b, &mut rand::rngs::StdRng::seed_from_u64(11)).expect("setup")
            });
            let mut rng = rand::rngs::StdRng::seed_from_u64(12);
            let mut chooser = KkChooser::setup(&mut a, &mut rng).expect("chooser setup");
            let _ = chooser.extend(&mut a, &[4], 4);
        });
    }

    #[test]
    fn variable_mask_lengths_are_prefix_consistent() {
        let (sk, ck) = run_kk(
            |s, ch| s.extend(ch, 1).expect("extend"),
            |c, ch| c.extend(ch, &[2], 4).expect("extend"),
        );
        let long = sk.mask(0, 2, 64);
        let short = ck.mask(0, 32);
        assert_eq!(&long[..32], &short[..]);
    }
}
