//! Derandomization adapter: chosen-input 1-of-N fragment OTs from random
//! COTs.
//!
//! One fragment OT over radix `n` consumes `B = ⌈log₂ n⌉` pooled COTs. The
//! chooser sends `d_b = x_b ⊕ v_b` per bit of its choice symbol `v` (random
//! `x_b` makes this uniform), after which the per-bit key for value `u` at
//! position `b` is `κ_{b,u} = H(y_b ⊕ (u ⊕ d_b)·Δ)`: the sender can derive
//! it for every `u`, while the chooser's COT block `z_b = y_b ⊕ x_b·Δ`
//! *is* the key for its own bit — and for `u ≠ v_b` the key hides behind
//! the correlation-robust hash of an unknown `Δ`-shifted block. The symbol
//! mask is the oracle expansion of the concatenated per-bit keys, mirroring
//! the KK13 key-handle API so the γ(N−1) triplet protocol is oblivious to
//! which extension produced its masks.

use super::{SilentCotReceiver, SilentCotSender};
use crate::bits::{get_bit, pack_bits};
use crate::frames::SilentDerand;
use crate::kk13::MAX_N;
use crate::OtError;
use abnn2_crypto::{Block, RoHash};
use abnn2_net::Transport;
use rand::Rng;
use std::ops::Range;

/// Tweak domain for per-bit keys: bit 126 set, bit 127 clear.
const BIT_TWEAK: u128 = 1 << 126;

/// Tweak domain for the symbol-mask expansion: bits 127 and 126 set.
const MASK_TWEAK: u128 = (1 << 127) | (1 << 126);

/// Choice bits per fragment OT of radix `n`.
///
/// # Panics
///
/// Panics if `n` is outside `2..=MAX_N`.
#[must_use]
pub fn choice_bits(n: u64) -> usize {
    assert!((2..=MAX_N).contains(&n), "radix {n} out of range");
    (64 - (n - 1).leading_zeros()) as usize
}

/// The key tweak of COT `at` in a batch that spends `bits` COTs per OT
/// and whose first OT is number `base`: (OT number, bit position).
fn bit_tweak(base: u64, bits: usize, at: usize) -> Block {
    Block::from(BIT_TWEAK | (u128::from(base + (at / bits) as u64) << 8) | (at % bits) as u128)
}

/// Fragment-OT **sender** over silent COTs (the ABNN² client).
#[derive(Debug)]
pub struct SilentKkSender {
    cot: SilentCotSender,
    tweak: u64,
}

/// Fragment-OT **chooser** over silent COTs (the ABNN² server).
#[derive(Debug, Clone)]
pub struct SilentKkChooser {
    cot: SilentCotReceiver,
    tweak: u64,
}

/// Key material the sender obtains from one `extend` call.
#[derive(Debug)]
pub struct SilentSenderKeys {
    ys: Vec<Block>,
    derand: Vec<u8>,
    delta: Block,
    bits: usize,
    base_tweak: u64,
}

/// Key material the chooser obtains from one `extend` call.
#[derive(Debug)]
pub struct SilentChooserKeys {
    zs: Vec<Block>,
    bits: usize,
    base_tweak: u64,
}

impl SilentKkSender {
    /// One-time setup: bootstraps the silent COT generator.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup<T: Transport, R: Rng + ?Sized>(ch: &mut T, rng: &mut R) -> Result<Self, OtError> {
        Ok(SilentKkSender { cot: SilentCotSender::setup(ch, rng)?, tweak: 0 })
    }

    /// Drops the pooled COTs no extension took; the chooser does the same
    /// at the same point ([`SilentKkChooser::park`]).
    pub fn park(&mut self) {
        self.cot.drop_pool();
    }

    /// Extends to `m` fresh 1-out-of-`n` fragment OTs, consuming pooled
    /// COTs and the chooser's derandomization bits.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed chooser messages.
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside `2..=256`.
    pub fn extend<T: Transport>(
        &mut self,
        ch: &mut T,
        m: usize,
        n: u64,
    ) -> Result<SilentSenderKeys, OtError> {
        let bits = choice_bits(n);
        let ys = self.cot.take(ch, m * bits)?;
        let SilentDerand(derand) = ch.recv_frame()?;
        if derand.len() != (m * bits).div_ceil(8) {
            return Err(OtError::Malformed("fragment derandomization batch has wrong length"));
        }
        let base_tweak = self.tweak;
        self.tweak += m as u64;
        Ok(SilentSenderKeys { ys, derand, delta: self.cot.delta(), bits, base_tweak })
    }
}

impl SilentKkChooser {
    /// One-time setup: bootstraps the silent COT generator with an internal
    /// replay-deterministic RNG.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup<T: Transport, R: Rng + ?Sized>(ch: &mut T, rng: &mut R) -> Result<Self, OtError> {
        Ok(SilentKkChooser { cot: SilentCotReceiver::setup(ch, rng)?, tweak: 0 })
    }

    /// Drops the pooled COTs no extension took; the sender does the same
    /// at the same point ([`SilentKkSender::park`]).
    pub fn park(&mut self) {
        self.cot.drop_pool();
    }

    /// Bytes this chooser holds between extensions.
    #[must_use]
    pub fn parked_bytes(&self) -> usize {
        self.cot.parked_bytes()
    }

    /// Runs at most one COT refill toward an [`extend`](Self::extend) of
    /// `m` OTs at radix `n` and returns whether that `extend` will now run
    /// without waiting on the peer.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed refill messages.
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside `2..=256`.
    pub fn prepare<T: Transport>(&mut self, ch: &mut T, m: usize, n: u64) -> Result<bool, OtError> {
        self.cot.refill_toward(ch, m * choice_bits(n))
    }

    /// Extends with one choice symbol per OT; all symbols must be below `n`.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed refill messages.
    ///
    /// # Panics
    ///
    /// Panics if any choice is ≥ `n` or `n` is outside `2..=256`.
    pub fn extend<T: Transport>(
        &mut self,
        ch: &mut T,
        choices: &[u64],
        n: u64,
    ) -> Result<SilentChooserKeys, OtError> {
        let bits = choice_bits(n);
        assert!(choices.iter().all(|&c| c < n), "choice symbol out of range");
        let m = choices.len();
        let xz = self.cot.take(ch, m * bits)?;
        let mut derand = vec![false; m * bits];
        for (j, &w) in choices.iter().enumerate() {
            for b in 0..bits {
                derand[j * bits + b] = xz[j * bits + b].0 ^ ((w >> b) & 1 == 1);
            }
        }
        ch.send_frame(&SilentDerand(pack_bits(&derand)))?;
        let base_tweak = self.tweak;
        self.tweak += m as u64;
        Ok(SilentChooserKeys { zs: xz.into_iter().map(|(_, z)| z).collect(), bits, base_tweak })
    }
}

impl SilentSenderKeys {
    /// Number of OTs in this batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ys.len().checked_div(self.bits).unwrap_or(0)
    }

    /// True if the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ys.is_empty()
    }

    /// The `len`-byte masks of the symbols in `symbols` for the OTs in
    /// `ots`, OT-major, back to back in `out`: both per-bit keys of every
    /// choice bit in one hash batch, then one oracle batch over each
    /// symbol's concatenation of them.
    ///
    /// # Panics
    ///
    /// Panics if a range is out of bounds or `out` is not
    /// `ots.len() · symbols.len() · len` bytes.
    pub fn masks(&self, ots: Range<usize>, symbols: Range<u64>, len: usize, out: &mut [u8]) {
        let bits = self.bits;
        assert!(symbols.end <= 1 << bits, "symbol range exceeds the fragment radix");
        // κ_{b,0} then κ_{b,1} for every choice bit b of every OT.
        let mut keys = Vec::with_capacity(ots.len() * bits * 2);
        for at in ots.start * bits..ots.end * bits {
            let tweak = bit_tweak(self.base_tweak, bits, at);
            let zero =
                if get_bit(&self.derand, at) { self.ys[at] ^ self.delta } else { self.ys[at] };
            keys.extend([zero ^ tweak, zero ^ self.delta ^ tweak]);
        }
        RoHash::shared().hash_blocks(&mut keys);
        let nsym = (symbols.end - symbols.start) as usize;
        let mut rows = Vec::with_capacity(ots.len() * nsym * bits * 16);
        for keys in keys.chunks_exact(bits * 2) {
            for v in symbols.clone() {
                for (b, pair) in keys.chunks_exact(2).enumerate() {
                    rows.extend_from_slice(&pair[(v >> b) as usize & 1].to_bytes());
                }
            }
        }
        let tweak = |i| MASK_TWEAK | u128::from(self.base_tweak + (ots.start + i / nsym) as u64);
        RoHash::shared().hash_expand_rows(&rows, bits * 16, tweak, len, out);
    }

    /// [`masks`](Self::masks) of one symbol in one OT.
    #[must_use]
    pub fn mask(&self, j: usize, v: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.masks(j..j + 1, v..v + 1, len, &mut out);
        out
    }
}

impl SilentChooserKeys {
    /// Number of OTs in this batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.zs.len().checked_div(self.bits).unwrap_or(0)
    }

    /// True if the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.zs.is_empty()
    }

    /// The `len`-byte masks of the symbols this chooser selected in the
    /// OTs in `ots`, back to back in `out`: every per-bit key in one hash
    /// batch, then one oracle batch over each OT's concatenation of them.
    ///
    /// # Panics
    ///
    /// Panics if `ots` is out of range or `out` is not `ots.len() · len`
    /// bytes.
    pub fn masks(&self, ots: Range<usize>, len: usize, out: &mut [u8]) {
        let bits = self.bits;
        let mut keys: Vec<Block> = (ots.start * bits..ots.end * bits)
            .map(|at| self.zs[at] ^ bit_tweak(self.base_tweak, bits, at))
            .collect();
        RoHash::shared().hash_blocks(&mut keys);
        let rows = keys.iter().map(|k| k.to_bytes()).collect::<Vec<_>>();
        let tweak = |i| MASK_TWEAK | u128::from(self.base_tweak + (ots.start + i) as u64);
        RoHash::shared().hash_expand_rows(rows.as_flattened(), bits * 16, tweak, len, out);
    }

    /// [`masks`](Self::masks) of one OT.
    #[must_use]
    pub fn mask(&self, j: usize, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.masks(j..j + 1, len, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_net::{run_pair, Endpoint, NetworkModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_frag<A: Send, B: Send>(
        f_s: impl FnOnce(&mut SilentKkSender, &mut Endpoint) -> A + Send,
        f_c: impl FnOnce(&mut SilentKkChooser, &mut Endpoint) -> B + Send,
    ) -> (A, B) {
        let (a, b, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = StdRng::seed_from_u64(31);
                let mut s = SilentKkSender::setup(ch, &mut rng).expect("sender setup");
                f_s(&mut s, ch)
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(32);
                let mut c = SilentKkChooser::setup(ch, &mut rng).expect("chooser setup");
                f_c(&mut c, ch)
            },
        );
        (a, b)
    }

    #[test]
    fn choice_bits_covers_paper_radices() {
        assert_eq!(choice_bits(2), 1);
        assert_eq!(choice_bits(3), 2);
        assert_eq!(choice_bits(4), 2);
        assert_eq!(choice_bits(16), 4);
        assert_eq!(choice_bits(256), 8);
    }

    #[test]
    fn chooser_mask_matches_sender_mask_at_choice() {
        let mut rng = StdRng::seed_from_u64(33);
        let n = 16u64;
        let m = 50;
        let choices: Vec<u64> = (0..m).map(|_| rng.gen_range(0..n)).collect();
        let choices2 = choices.clone();
        let (sender_keys, chooser_keys) = run_frag(
            move |s, ch| s.extend(ch, m, n).expect("extend"),
            move |c, ch| c.extend(ch, &choices2, n).expect("extend"),
        );
        assert_eq!(sender_keys.len(), m);
        assert_eq!(chooser_keys.len(), m);
        for (j, &choice) in choices.iter().enumerate() {
            let want = sender_keys.mask(j, choice, 24);
            assert_eq!(chooser_keys.mask(j, 24), want, "ot {j}");
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
            let (sk, ck) = run_frag(
                move |s, ch| s.extend(ch, m, n).expect("extend"),
                move |c, ch| c.extend(ch, &choices2, n).expect("extend"),
            );
            for (j, &choice) in choices.iter().enumerate() {
                assert_eq!(ck.mask(j, 8), sk.mask(j, choice, 8), "n={n} ot={j}");
            }
        }
    }

    #[test]
    fn sequential_extends_are_independent() {
        let (masks_s, masks_c) = run_frag(
            |s, ch| {
                let k1 = s.extend(ch, 4, 2).expect("extend 1");
                let k2 = s.extend(ch, 4, 2).expect("extend 2");
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
    fn variable_mask_lengths_are_prefix_consistent() {
        let (sk, ck) = run_frag(
            |s, ch| s.extend(ch, 1, 4).expect("extend"),
            |c, ch| c.extend(ch, &[2], 4).expect("extend"),
        );
        let long = sk.mask(0, 2, 64);
        let short = ck.mask(0, 32);
        assert_eq!(&long[..32], &short[..]);
    }
}
