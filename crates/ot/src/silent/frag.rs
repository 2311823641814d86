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

use super::{PendingRefill, SilentCotReceiver, SilentCotSender};
use crate::base::{self, PendingSend};
use crate::bits::get_bit;
use crate::frames::SilentDerand;
use crate::kk13::MAX_N;
use abnn2_crypto::{Block, RoHash};
use abnn2_net::{Transport, TransportError};
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

/// The key tweak of bit `b` of OT number `ot`: (OT number, bit position).
fn bit_tweak(ot: u64, b: usize) -> Block {
    Block::from(BIT_TWEAK | (u128::from(ot) << 8) | b as u128)
}

/// Fragment-OT **sender** over silent COTs (the ABNN² client).
#[derive(Debug)]
pub struct SilentKkSender {
    cot: SilentCotSender,
    tweak: u64,
}

/// Fragment-OT **chooser** over silent COTs (the ABNN² server).
#[derive(Debug)]
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
    pub fn setup<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        rng: &mut R,
    ) -> Result<Self, TransportError> {
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
    ) -> Result<SilentSenderKeys, TransportError> {
        let bits = choice_bits(n);
        let ys = self.cot.take(ch, m * bits)?;
        let SilentDerand(derand) = ch.recv_frame()?;
        if derand.len() != (m * bits).div_ceil(8) {
            return Err(TransportError::Malformed(
                "fragment derandomization batch has wrong length",
            ));
        }
        let base_tweak = self.tweak;
        self.tweak += m as u64;
        Ok(SilentSenderKeys { ys, derand, delta: self.cot.delta(), bits, base_tweak })
    }
}

impl SilentKkChooser {
    /// One-time setup: bootstraps the silent COT generator with an internal
    /// seeded RNG.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        rng: &mut R,
    ) -> Result<Self, TransportError> {
        base::finished(Self::setup_start(ch, rng)?, ch)
    }

    /// [`setup`](Self::setup) up to its wait, as
    /// [`IknpReceiver::setup_start`](crate::IknpReceiver::setup_start).
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup_start<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        rng: &mut R,
    ) -> Result<(Self, PendingSend), TransportError> {
        let (cot, pending) = SilentCotReceiver::setup_start(ch, rng)?;
        Ok((SilentKkChooser { cot, tweak: 0 }, pending))
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

    /// Starts a COT refill if an [`extend`](Self::extend) of `m` OTs at
    /// radix `n` would otherwise wait on the peer; `None` once it would
    /// not.
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
        self.cot.refill_start(ch, m * choice_bits(n))
    }

    /// Finishes a refill [`refill_start`](Self::refill_start) began.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed refill messages.
    pub fn refill_finish<T: Transport>(
        &mut self,
        ch: &mut T,
        refill: PendingRefill,
    ) -> Result<(), TransportError> {
        self.cot.refill_finish(ch, refill)
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
    ) -> Result<SilentChooserKeys, TransportError> {
        let bits = choice_bits(n);
        assert!(choices.iter().all(|&c| c < n), "choice symbol out of range");
        let m = choices.len();
        let cots = self.cot.take(ch, m * bits)?;
        // d = x ⊕ v bit for bit: the symbols' bits packed as the choice
        // bits are, OT-major, then XORed a word at a time.
        let mut words = cots.choices;
        for (j, &w) in choices.iter().enumerate() {
            let (i, s) = (j * bits / 64, j * bits % 64);
            words[i] ^= w << s;
            if s + bits > 64 {
                words[i + 1] ^= w >> (64 - s);
            }
        }
        let derand = words.iter().flat_map(|w| w.to_le_bytes()).take((m * bits).div_ceil(8));
        ch.send_frame(&SilentDerand(derand.collect()))?;
        let base_tweak = self.tweak;
        self.tweak += m as u64;
        Ok(SilentChooserKeys { zs: cots.blocks, bits, base_tweak })
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
    /// choice bit in one hash batch, then the chain over each symbol's
    /// concatenation of them, `κ_{0,v_0} ‖ … ‖ κ_{B−1,v_{B−1}}`, on the key
    /// blocks themselves. Its state after column `b` depends on `v mod
    /// 2^{b+1}` alone, so column `b` hashes `2^{b+1}` states an OT, one
    /// batch for all OTs: `2^{B+1} − 2` chain hashes an OT where a chain
    /// per symbol takes `B·2^B`. A radix below `2^B` or a sub-range of
    /// symbols still chains all `2^B` and keeps the ones asked for.
    ///
    /// # Panics
    ///
    /// Panics if a range is out of bounds or `out` is not
    /// `ots.len() · symbols.len() · len` bytes.
    pub fn masks(&self, ots: Range<usize>, symbols: Range<u64>, len: usize, out: &mut [u8]) {
        let (bits, hash) = (self.bits, RoHash::shared());
        assert!(symbols.end <= 1 << bits, "symbol range exceeds the fragment radix");
        // κ_{b,0} then κ_{b,1} for every choice bit b of every OT.
        let mut keys = Vec::with_capacity(ots.len() * bits * 2);
        for j in ots.clone() {
            let ot = self.base_tweak + j as u64;
            for (b, at) in (j * bits..(j + 1) * bits).enumerate() {
                let tweak = bit_tweak(ot, b);
                let y = self.ys[at];
                let zero = if get_bit(&self.derand, at) { y ^ self.delta } else { y };
                keys.extend([zero ^ tweak, zero ^ self.delta ^ tweak]);
            }
        }
        hash.hash_blocks(&mut keys);
        // States of column b sit `2^{b+1}` an OT at the front of `states`:
        // the state of prefix v of OT j at `j·2^{b+1} + v`, written from the
        // top index down over column b−1's so none is overwritten unread.
        let full = 1usize << bits;
        let mut states = vec![Block::ZERO; ots.len() * full];
        for b in 0..bits {
            let half = 1 << b;
            for (j, keys) in keys.chunks_exact(2 * bits).enumerate().rev() {
                let (k0, k1) = (keys[2 * b], keys[2 * b + 1]);
                for v in (0..half).rev() {
                    let s = states[j * half + v];
                    states[2 * j * half + half + v] = s ^ k1;
                    states[2 * j * half + v] = s ^ k0;
                }
            }
            hash.hash_blocks(&mut states[..ots.len() * 2 * half]);
        }
        let nsym = (symbols.end - symbols.start) as usize;
        if nsym < full {
            for i in 0..ots.len() * nsym {
                states[i] = states[i / nsym * full + symbols.start as usize + i % nsym];
            }
            states.truncate(ots.len() * nsym);
        }
        let tweak = |i| MASK_TWEAK | u128::from(self.base_tweak + (ots.start + i / nsym) as u64);
        hash.finish_chains(&mut states, bits * 16, tweak);
        hash.expand_digests(&states, len, out);
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
    /// batch, then the chain over each OT's keys on the key blocks, one
    /// batch per column for all OTs.
    ///
    /// # Panics
    ///
    /// Panics if `ots` is out of range or `out` is not `ots.len() · len`
    /// bytes.
    pub fn masks(&self, ots: Range<usize>, len: usize, out: &mut [u8]) {
        let (bits, hash) = (self.bits, RoHash::shared());
        let mut keys = Vec::with_capacity(ots.len() * bits);
        for j in ots.clone() {
            let ot = self.base_tweak + j as u64;
            let zs = &self.zs[j * bits..(j + 1) * bits];
            keys.extend(zs.iter().enumerate().map(|(b, &z)| z ^ bit_tweak(ot, b)));
        }
        hash.hash_blocks(&mut keys);
        let mut states = vec![Block::ZERO; ots.len()];
        for b in 0..bits {
            for (s, keys) in states.iter_mut().zip(keys.chunks_exact(bits)) {
                *s ^= keys[b];
            }
            hash.hash_blocks(&mut states);
        }
        let tweak = |i| MASK_TWEAK | u128::from(self.base_tweak + (ots.start + i) as u64);
        hash.finish_chains(&mut states, bits * 16, tweak);
        hash.expand_digests(&states, len, out);
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

    /// The key tweak of COT `at` as the byte-row path derived it.
    fn row_bit_tweak(base: u64, bits: usize, at: usize) -> Block {
        Block::from(BIT_TWEAK | (u128::from(base + (at / bits) as u64) << 8) | (at % bits) as u128)
    }

    /// The sender's masks by their definition: each symbol's row of key
    /// bytes, `κ_{0,v_0} ‖ … ‖ κ_{B−1,v_{B−1}}`, through `hash_expand_rows`.
    fn sender_masks_by_rows(
        k: &SilentSenderKeys,
        ots: Range<usize>,
        symbols: Range<u64>,
        len: usize,
    ) -> Vec<u8> {
        let bits = k.bits;
        let mut keys = Vec::new();
        for at in ots.start * bits..ots.end * bits {
            let tweak = row_bit_tweak(k.base_tweak, bits, at);
            let zero = if get_bit(&k.derand, at) { k.ys[at] ^ k.delta } else { k.ys[at] };
            keys.extend([zero ^ tweak, zero ^ k.delta ^ tweak]);
        }
        RoHash::shared().hash_blocks(&mut keys);
        let nsym = (symbols.end - symbols.start) as usize;
        let mut rows = Vec::new();
        for keys in keys.chunks_exact(bits * 2) {
            for v in symbols.clone() {
                for (b, pair) in keys.chunks_exact(2).enumerate() {
                    rows.extend_from_slice(&pair[(v >> b) as usize & 1].to_bytes());
                }
            }
        }
        let tweak = |i| MASK_TWEAK | u128::from(k.base_tweak + (ots.start + i / nsym) as u64);
        let mut out = vec![0u8; ots.len() * nsym * len];
        RoHash::shared().hash_expand_rows(&rows, bits * 16, tweak, len, &mut out);
        out
    }

    /// The chooser's masks by their definition: its row of key bytes
    /// through `hash_expand_rows`.
    fn chooser_masks_by_rows(k: &SilentChooserKeys, ots: Range<usize>, len: usize) -> Vec<u8> {
        let bits = k.bits;
        let mut keys: Vec<Block> = (ots.start * bits..ots.end * bits)
            .map(|at| k.zs[at] ^ row_bit_tweak(k.base_tweak, bits, at))
            .collect();
        RoHash::shared().hash_blocks(&mut keys);
        let rows: Vec<u8> = keys.iter().flat_map(|k| k.to_bytes()).collect();
        let tweak = |i| MASK_TWEAK | u128::from(k.base_tweak + (ots.start + i) as u64);
        let mut out = vec![0u8; ots.len() * len];
        RoHash::shared().hash_expand_rows(&rows, bits * 16, tweak, len, &mut out);
        out
    }

    /// Prefix-shared chains against one row per symbol, at every radix
    /// (3, 5 and 200 among them), full and partial symbol and OT ranges,
    /// and mask lengths around a block.
    #[test]
    fn chained_masks_match_the_byte_rows() {
        let mut rng = StdRng::seed_from_u64(34);
        for n in 2..=MAX_N {
            let bits = choice_bits(n);
            let m = 3;
            let ys: Vec<Block> = (0..m * bits).map(|_| Block::random(&mut rng)).collect();
            let derand: Vec<u8> = (0..(m * bits).div_ceil(8)).map(|_| rng.gen()).collect();
            let base_tweak = rng.gen_range(0..1u64 << 40);
            let delta = Block::random(&mut rng);
            let sk = SilentSenderKeys { ys: ys.clone(), derand, delta, bits, base_tweak };
            let ck = SilentChooserKeys { zs: ys, bits, base_tweak };
            for len in [0, 1, 4, 16, 17, 64] {
                for (ots, symbols) in [(0..m, 0..n), (1..3, n / 3..n - n / 4), (2..3, n - 1..n)] {
                    let mut got =
                        vec![0u8; ots.len() * (symbols.end - symbols.start) as usize * len];
                    sk.masks(ots.clone(), symbols.clone(), len, &mut got);
                    let want = sender_masks_by_rows(&sk, ots.clone(), symbols.clone(), len);
                    assert_eq!(got, want, "sender n={n} len={len} {ots:?} {symbols:?}");
                    let mut got = vec![0u8; ots.len() * len];
                    ck.masks(ots.clone(), len, &mut got);
                    let want = chooser_masks_by_rows(&ck, ots.clone(), len);
                    assert_eq!(got, want, "chooser n={n} len={len} {ots:?}");
                }
            }
        }
    }
}
