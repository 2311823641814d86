//! Backend-dispatched batched crypto primitives.
//!
//! Every hot loop in the OT and garbling stacks bottoms out in one of four
//! AES shapes: raw block encryption (label encryption), the MMO compression
//! `π(σ) ⊕ σ` under the fixed key (random-oracle hashing, every fragment-OT
//! mask included), CTR-mode stream expansion under one key (the column
//! PRGs), and the half-gates AND gate over one row of lanes, garbled (four
//! MMO hashes a lane) or evaluated (two). [`CryptoBackend`] exposes exactly
//! those four as slice-batched operations so one implementation choice
//! accelerates all of them:
//!
//! * [`Portable`] — the T-table software AES that has always been here. It
//!   is the test oracle: every other backend must be bit-identical to it.
//!   Its AND gate is the σ loop: whitened hash inputs of up to 64 lanes
//!   written out, one [`mmo_hash_blocks`](CryptoBackend::mmo_hash_blocks)
//!   pass, then the half-gate algebra.
//! * [`AesNi`] — hardware AES via `aesenc`/`aesenclast`, 8 blocks in
//!   flight per iteration to cover the instruction latency. Its AND gate is
//!   one fused kernel: 16 blocks in flight (4 lanes garbled or 8
//!   evaluated), the colour bits as lane masks, and one store per output
//!   label and table row; σ never leaves the registers, and evaluation
//!   prefetches each lane's table rows a few gates ahead. Only constructed
//!   after `is_x86_feature_detected!("aes")` succeeds.
//!
//! The process-wide backend is chosen once, on first use, by [`backend`]:
//! AES-NI when the CPU has it, otherwise portable. The `ABNN2_CRYPTO_BACKEND`
//! environment variable (`portable` | `aesni`) overrides detection — CI runs
//! the whole suite under `portable` so the fallback path cannot rot.
//!
//! Both backends compute the *same function* (AES-128 is deterministic), so
//! the choice can never change protocol transcripts — only wall-clock time.

use crate::{Aes128, Block};
use std::sync::OnceLock;

/// One half-gates AND gate (Zahur–Rosulek–Evans) over a row of lanes, for
/// [`CryptoBackend::garble_and`] and [`CryptoBackend::eval_and`]: where its
/// label rows start in a label matrix, how many lanes they hold, and where
/// each lane's table rows sit in the table stream.
///
/// Lane `l` reads labels `a + l` and `b + l` and writes label `out + l`;
/// the output row may be an operand's row (an output takes a dying
/// operand's slot) but must not partly overlap one. Lane `l` is gate
/// `g = gate + l · stride` of the stream: its generator row is the 16 bytes
/// at `32 · g`, its evaluator row the 16 after them, each in
/// [`Block::to_bytes`] order, and its two hashes are tweaked by `2g` and
/// `2g + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AndGate {
    /// First label of the row of operand `a`.
    pub a: usize,
    /// First label of the row of operand `b`.
    pub b: usize,
    /// First label of the output row.
    pub out: usize,
    /// Lanes in each row.
    pub width: usize,
    /// Stream index of lane 0's instance of the gate.
    pub gate: usize,
    /// Stream indices between two consecutive lanes' instances.
    pub stride: usize,
}

impl AndGate {
    /// Checks every row against a matrix of `labels` labels and a stream of
    /// `table_bytes` bytes, before any backend touches them.
    ///
    /// # Panics
    ///
    /// Panics if a label row or a lane's table rows fall outside them, or
    /// the output row partly overlaps an operand row.
    pub fn check(&self, labels: usize, table_bytes: usize) {
        let w = self.width;
        for row in [self.a, self.b, self.out] {
            assert!(row.checked_add(w).is_some_and(|end| end <= labels), "AND label row {row}+{w}");
        }
        let apart = |row: usize| row == self.out || row + w <= self.out || self.out + w <= row;
        assert!(apart(self.a) && apart(self.b), "AND output row overlaps an operand row");
        if w > 0 {
            let end = (w - 1)
                .checked_mul(self.stride)
                .and_then(|s| s.checked_add(self.gate)?.checked_add(1)?.checked_mul(32));
            assert!(end.is_some_and(|end| end <= table_bytes), "AND table rows of {self:?}");
        }
    }

    /// The stream index of lane `l`'s instance.
    fn index(&self, l: usize) -> usize {
        self.gate + l * self.stride
    }

    /// The two hash tweaks of lane `l`.
    fn tweaks(&self, l: usize) -> (Block, Block) {
        let t = 2 * self.index(l) as u128;
        (Block::from(t), Block::from(t + 1))
    }
}

/// Lanes per σ batch of [`Portable`]'s AND gate: four hash inputs a lane
/// stay in L1.
const PORTABLE_AND_LANES: usize = 64;

/// Slice-batched fixed-key-AES primitives.
///
/// All methods operate in place and must be bit-identical across backends;
/// [`Portable`] is the defining implementation.
pub trait CryptoBackend: Send + Sync {
    /// Short stable identifier (`"portable"`, `"aesni"`) for logs/benches.
    fn name(&self) -> &'static str;

    /// Encrypts every block in place under `aes`.
    fn aes_encrypt_blocks(&self, aes: &Aes128, blocks: &mut [Block]);

    /// Batched Matyas–Meyer–Oseas compression: each `sigmas[i]` holds the
    /// whitened input σᵢ on entry and `π(σᵢ) ⊕ σᵢ` on return.
    fn mmo_hash_blocks(&self, pi: &Aes128, sigmas: &mut [Block]);

    /// Garbles one AND gate over a row of lanes with the free-XOR offset
    /// `delta` (low bit set): from the zero labels of its operands in
    /// `labels`, writes each lane's output zero label into `labels` and its
    /// generator and evaluator rows into `tables`. A lane hashes
    /// `H(2g, a)`, `H(2g, a ⊕ Δ)`, `H(2g + 1, b)` and `H(2g + 1, b ⊕ Δ)`
    /// with `H(t, x) = π(x ⊕ t) ⊕ x ⊕ t` under `pi`.
    ///
    /// # Panics
    ///
    /// Panics if `gate` fails [`AndGate::check`] against `labels` and
    /// `tables`.
    fn garble_and(
        &self,
        pi: &Aes128,
        labels: &mut [Block],
        gate: AndGate,
        delta: Block,
        tables: &mut [u8],
    );

    /// Evaluates one AND gate over a row of lanes: from the active labels
    /// of its operands in `labels` and each lane's table rows in `tables`,
    /// writes the output labels into `labels`. A lane hashes `H(2g, a)` and
    /// `H(2g + 1, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `gate` fails [`AndGate::check`] against `labels` and
    /// `tables`.
    fn eval_and(&self, pi: &Aes128, labels: &mut [Block], gate: AndGate, tables: &[u8]);

    /// CTR-mode fill: `out[i] = AES_key(counter + i)` (wrapping).
    fn prg_fill(&self, aes: &Aes128, counter: u128, out: &mut [Block]) {
        for (i, b) in out.iter_mut().enumerate() {
            *b = Block::from(counter.wrapping_add(i as u128));
        }
        self.aes_encrypt_blocks(aes, out);
    }
}

/// The software T-table backend — always available, and the oracle the
/// accelerated backends are tested against.
#[derive(Debug)]
pub struct Portable;

impl CryptoBackend for Portable {
    fn name(&self) -> &'static str {
        "portable"
    }

    fn aes_encrypt_blocks(&self, aes: &Aes128, blocks: &mut [Block]) {
        for b in blocks {
            *b = aes.encrypt_block(*b);
        }
    }

    fn mmo_hash_blocks(&self, pi: &Aes128, sigmas: &mut [Block]) {
        for s in sigmas {
            *s = pi.encrypt_block(*s) ^ *s;
        }
    }

    fn garble_and(
        &self,
        pi: &Aes128,
        labels: &mut [Block],
        gate: AndGate,
        delta: Block,
        tables: &mut [u8],
    ) {
        gate.check(labels.len(), tables.len());
        let mut sigma = [Block::ZERO; 4 * PORTABLE_AND_LANES];
        for first in (0..gate.width).step_by(PORTABLE_AND_LANES) {
            let lanes = first..gate.width.min(first + PORTABLE_AND_LANES);
            let sigma = &mut sigma[..4 * lanes.len()];
            for (l, s) in lanes.clone().zip(sigma.chunks_exact_mut(4)) {
                let (za, zb) = (labels[gate.a + l], labels[gate.b + l]);
                let (t0, t1) = gate.tweaks(l);
                s.copy_from_slice(&[za ^ t0, za ^ delta ^ t0, zb ^ t1, zb ^ delta ^ t1]);
            }
            self.mmo_hash_blocks(pi, sigma);
            for (l, h) in lanes.zip(sigma.chunks_exact(4)) {
                let (za, zb) = (labels[gate.a + l], labels[gate.b + l]);
                let (pa, pb) = (za.lsb(), zb.lsb());
                let (ha0, ha1, hb0, hb1) = (h[0], h[1], h[2], h[3]);
                // Generator half gate.
                let tg = ha0 ^ ha1 ^ if pb { delta } else { Block::ZERO };
                let wg = ha0 ^ if pa { tg } else { Block::ZERO };
                // Evaluator half gate.
                let te = hb0 ^ hb1 ^ za;
                let we = hb0 ^ if pb { te ^ za } else { Block::ZERO };
                labels[gate.out + l] = wg ^ we;
                let rows = &mut tables[32 * gate.index(l)..][..32];
                rows[..16].copy_from_slice(&tg.to_bytes());
                rows[16..].copy_from_slice(&te.to_bytes());
            }
        }
    }

    fn eval_and(&self, pi: &Aes128, labels: &mut [Block], gate: AndGate, tables: &[u8]) {
        gate.check(labels.len(), tables.len());
        let mut sigma = [Block::ZERO; 2 * PORTABLE_AND_LANES];
        for first in (0..gate.width).step_by(PORTABLE_AND_LANES) {
            let lanes = first..gate.width.min(first + PORTABLE_AND_LANES);
            let sigma = &mut sigma[..2 * lanes.len()];
            for (l, s) in lanes.clone().zip(sigma.chunks_exact_mut(2)) {
                let (t0, t1) = gate.tweaks(l);
                s.copy_from_slice(&[labels[gate.a + l] ^ t0, labels[gate.b + l] ^ t1]);
            }
            self.mmo_hash_blocks(pi, sigma);
            for (l, h) in lanes.zip(sigma.chunks_exact(2)) {
                let (wa, wb) = (labels[gate.a + l], labels[gate.b + l]);
                let rows = &tables[32 * gate.index(l)..][..32];
                let row = |at: usize| Block::from_bytes(rows[at..at + 16].try_into().expect("16"));
                let (tg, te) = (row(0), row(16));
                let wg = h[0] ^ if wa.lsb() { tg } else { Block::ZERO };
                let we = h[1] ^ if wb.lsb() { te ^ wa } else { Block::ZERO };
                labels[gate.out + l] = wg ^ we;
            }
        }
    }
}

/// Hardware AES-NI backend. Not publicly constructible: the only instance
/// is handed out by [`backend`]/[`choose_backend`] after CPU-feature
/// detection, so its `unsafe` intrinsic calls are always sound.
#[cfg(target_arch = "x86_64")]
#[derive(Debug)]
pub struct AesNi(());

#[cfg(target_arch = "x86_64")]
mod aesni {
    use super::{Aes128, AndGate, Block};
    use core::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_and_si128, _mm_cvtsi64_si128,
        _mm_loadu_si128, _mm_prefetch, _mm_setzero_si128, _mm_shuffle_epi32, _mm_storeu_si128,
        _mm_sub_epi64, _mm_xor_si128, _MM_HINT_T0,
    };

    /// Blocks kept in flight per main-loop iteration: enough independent
    /// chains to hide `aesenc` latency on every µarch that has the
    /// instruction.
    const LANES: usize = 8;

    /// AND gates garbled per iteration of the fused kernel: four hashes
    /// each, 16 blocks in flight.
    const GARBLE_LANES: usize = 4;

    /// AND gates evaluated per iteration of the fused kernel: two hashes
    /// each, 16 blocks in flight.
    const EVAL_LANES: usize = 8;

    #[inline]
    #[target_feature(enable = "aes,sse2")]
    unsafe fn load_round_keys(aes: &Aes128) -> [__m128i; 11] {
        let mut rk = [_mm_setzero_si128(); 11];
        for (r, key) in aes.round_keys().iter().enumerate() {
            rk[r] = _mm_loadu_si128(key.as_ptr().cast());
        }
        rk
    }

    /// Runs the 10 AES rounds over `N` independent states.
    #[inline]
    #[target_feature(enable = "aes,sse2")]
    unsafe fn rounds<const N: usize>(rk: &[__m128i; 11], s: &mut [__m128i; N]) {
        for x in s.iter_mut() {
            *x = _mm_xor_si128(*x, rk[0]);
        }
        for r in rk.iter().take(10).skip(1) {
            for x in s.iter_mut() {
                *x = _mm_aesenc_si128(*x, *r);
            }
        }
        for x in s.iter_mut() {
            *x = _mm_aesenclast_si128(*x, rk[10]);
        }
    }

    #[inline]
    #[target_feature(enable = "aes,sse2")]
    unsafe fn rounds_one(rk: &[__m128i; 11], mut x: __m128i) -> __m128i {
        x = _mm_xor_si128(x, rk[0]);
        for r in rk.iter().take(10).skip(1) {
            x = _mm_aesenc_si128(x, *r);
        }
        _mm_aesenclast_si128(x, rk[10])
    }

    /// # Safety
    ///
    /// Requires the `aes` and `sse2` CPU features.
    #[target_feature(enable = "aes,sse2")]
    pub unsafe fn encrypt_blocks(aes: &Aes128, blocks: &mut [Block]) {
        let rk = load_round_keys(aes);
        // Block is repr(transparent) over u128; on x86-64 its in-memory
        // bytes are exactly the AES state byte order (`Block::to_bytes`).
        let ptr = blocks.as_mut_ptr().cast::<__m128i>();
        let n = blocks.len();
        let mut i = 0;
        while i + LANES <= n {
            let mut s = [_mm_setzero_si128(); LANES];
            for (j, x) in s.iter_mut().enumerate() {
                *x = _mm_loadu_si128(ptr.add(i + j));
            }
            rounds(&rk, &mut s);
            for (j, x) in s.iter().enumerate() {
                _mm_storeu_si128(ptr.add(i + j), *x);
            }
            i += LANES;
        }
        while i < n {
            let x = rounds_one(&rk, _mm_loadu_si128(ptr.add(i)));
            _mm_storeu_si128(ptr.add(i), x);
            i += 1;
        }
    }

    /// A label's colour bit as a lane mask: all ones if its low bit is set,
    /// else zero.
    ///
    /// # Safety
    ///
    /// Requires the `sse2` CPU feature.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn colour(x: __m128i) -> __m128i {
        let bit = _mm_and_si128(x, _mm_cvtsi64_si128(1));
        _mm_shuffle_epi32::<0x44>(_mm_sub_epi64(_mm_setzero_si128(), bit))
    }

    /// The two hash tweaks of stream index `g`: `2g` and `2g + 1`.
    ///
    /// # Safety
    ///
    /// Requires the `sse2` CPU feature.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn tweaks(g: usize) -> (__m128i, __m128i) {
        // `AndGate::check` bounds 32·(g + 1) by a slice length, so 2g + 1
        // fits an i64.
        let t = 2 * g as i64;
        (_mm_cvtsi64_si128(t), _mm_cvtsi64_si128(t + 1))
    }

    /// Garbles lanes `first .. first + L` of `gate`; `S` is `4 · L`, the
    /// blocks in flight.
    ///
    /// # Safety
    ///
    /// Requires the `aes` and `sse2` CPU features; `labels` and `tables`
    /// must point at a matrix and a stream `gate` passed
    /// [`AndGate::check`] against, and `first + L <= gate.width`.
    #[inline]
    #[target_feature(enable = "aes,sse2")]
    unsafe fn garble_lanes<const L: usize, const S: usize>(
        rk: &[__m128i; 11],
        labels: *mut __m128i,
        tables: *mut __m128i,
        gate: AndGate,
        delta: __m128i,
        first: usize,
    ) {
        const { assert!(S == 4 * L) };
        let mut za = [_mm_setzero_si128(); L];
        let mut zb = [_mm_setzero_si128(); L];
        let mut sigma = [_mm_setzero_si128(); S];
        for j in 0..L {
            let (t0, t1) = tweaks(gate.index(first + j));
            za[j] = _mm_loadu_si128(labels.add(gate.a + first + j));
            zb[j] = _mm_loadu_si128(labels.add(gate.b + first + j));
            let (sa, sb) = (_mm_xor_si128(za[j], t0), _mm_xor_si128(zb[j], t1));
            sigma[4 * j] = sa;
            sigma[4 * j + 1] = _mm_xor_si128(sa, delta);
            sigma[4 * j + 2] = sb;
            sigma[4 * j + 3] = _mm_xor_si128(sb, delta);
        }
        let mut h = sigma;
        rounds(rk, &mut h);
        for (h, s) in h.iter_mut().zip(&sigma) {
            *h = _mm_xor_si128(*h, *s);
        }
        for j in 0..L {
            let (ha0, ha1, hb0, hb1) = (h[4 * j], h[4 * j + 1], h[4 * j + 2], h[4 * j + 3]);
            let (pa, pb) = (colour(za[j]), colour(zb[j]));
            // Generator half gate.
            let tg = _mm_xor_si128(_mm_xor_si128(ha0, ha1), _mm_and_si128(delta, pb));
            let wg = _mm_xor_si128(ha0, _mm_and_si128(tg, pa));
            // Evaluator half gate: te ⊕ a is hb0 ⊕ hb1.
            let hb = _mm_xor_si128(hb0, hb1);
            let te = _mm_xor_si128(hb, za[j]);
            let we = _mm_xor_si128(hb0, _mm_and_si128(hb, pb));
            _mm_storeu_si128(labels.add(gate.out + first + j), _mm_xor_si128(wg, we));
            let row = tables.add(2 * gate.index(first + j));
            _mm_storeu_si128(row, tg);
            _mm_storeu_si128(row.add(1), te);
        }
    }

    /// Evaluates lanes `first .. first + L` of `gate`; `S` is `2 · L`, the
    /// blocks in flight.
    ///
    /// # Safety
    ///
    /// As [`garble_lanes`].
    #[inline]
    #[target_feature(enable = "aes,sse2")]
    unsafe fn eval_lanes<const L: usize, const S: usize>(
        rk: &[__m128i; 11],
        labels: *mut __m128i,
        tables: *const __m128i,
        gate: AndGate,
        first: usize,
    ) {
        const { assert!(S == 2 * L) };
        let mut wa = [_mm_setzero_si128(); L];
        let mut wb = [_mm_setzero_si128(); L];
        let mut sigma = [_mm_setzero_si128(); S];
        for j in 0..L {
            let (t0, t1) = tweaks(gate.index(first + j));
            wa[j] = _mm_loadu_si128(labels.add(gate.a + first + j));
            wb[j] = _mm_loadu_si128(labels.add(gate.b + first + j));
            sigma[2 * j] = _mm_xor_si128(wa[j], t0);
            sigma[2 * j + 1] = _mm_xor_si128(wb[j], t1);
        }
        let mut h = sigma;
        rounds(rk, &mut h);
        for j in 0..L {
            let row = tables.add(2 * gate.index(first + j));
            // This lane's rows four ANDs on. A pass of 64 lanes reads 64
            // table streams a body's tables apart, more than the hardware
            // prefetcher follows. A prefetch never faults, so past the end
            // of the stream it is harmless (`wrapping_add`: no bounds
            // requirement).
            _mm_prefetch::<_MM_HINT_T0>(row.wrapping_add(8).cast());
            let (tg, te) = (_mm_loadu_si128(row), _mm_loadu_si128(row.add(1)));
            let ha = _mm_xor_si128(h[2 * j], sigma[2 * j]);
            let hb = _mm_xor_si128(h[2 * j + 1], sigma[2 * j + 1]);
            let wg = _mm_xor_si128(ha, _mm_and_si128(tg, colour(wa[j])));
            let we = _mm_xor_si128(hb, _mm_and_si128(_mm_xor_si128(te, wa[j]), colour(wb[j])));
            _mm_storeu_si128(labels.add(gate.out + first + j), _mm_xor_si128(wg, we));
        }
    }

    /// # Safety
    ///
    /// Requires the `aes` and `sse2` CPU features, and `gate` must have
    /// passed [`AndGate::check`] against `labels` and `tables`.
    #[target_feature(enable = "aes,sse2")]
    pub unsafe fn garble_and(
        pi: &Aes128,
        labels: &mut [Block],
        gate: AndGate,
        delta: Block,
        tables: &mut [u8],
    ) {
        let rk = load_round_keys(pi);
        // Block is repr(transparent) over u128, whose in-memory bytes are
        // `Block::to_bytes`: a table row is stored as the wire carries it.
        let delta = _mm_loadu_si128(std::ptr::from_ref(&delta).cast());
        let (labels, tables) = (labels.as_mut_ptr().cast(), tables.as_mut_ptr().cast());
        let mut l = 0;
        while l + GARBLE_LANES <= gate.width {
            garble_lanes::<GARBLE_LANES, { 4 * GARBLE_LANES }>(&rk, labels, tables, gate, delta, l);
            l += GARBLE_LANES;
        }
        while l < gate.width {
            garble_lanes::<1, 4>(&rk, labels, tables, gate, delta, l);
            l += 1;
        }
    }

    /// # Safety
    ///
    /// As [`garble_and`].
    #[target_feature(enable = "aes,sse2")]
    pub unsafe fn eval_and(pi: &Aes128, labels: &mut [Block], gate: AndGate, tables: &[u8]) {
        let rk = load_round_keys(pi);
        let (labels, tables) = (labels.as_mut_ptr().cast(), tables.as_ptr().cast());
        let mut l = 0;
        while l + EVAL_LANES <= gate.width {
            eval_lanes::<EVAL_LANES, { 2 * EVAL_LANES }>(&rk, labels, tables, gate, l);
            l += EVAL_LANES;
        }
        while l < gate.width {
            eval_lanes::<1, 2>(&rk, labels, tables, gate, l);
            l += 1;
        }
    }

    /// # Safety
    ///
    /// Requires the `aes` and `sse2` CPU features.
    #[target_feature(enable = "aes,sse2")]
    pub unsafe fn mmo_hash_blocks(pi: &Aes128, sigmas: &mut [Block]) {
        let rk = load_round_keys(pi);
        let ptr = sigmas.as_mut_ptr().cast::<__m128i>();
        let n = sigmas.len();
        let mut i = 0;
        while i + LANES <= n {
            let mut inp = [_mm_setzero_si128(); LANES];
            for (j, x) in inp.iter_mut().enumerate() {
                *x = _mm_loadu_si128(ptr.add(i + j));
            }
            let mut s = inp;
            rounds(&rk, &mut s);
            for (j, x) in s.iter().enumerate() {
                _mm_storeu_si128(ptr.add(i + j), _mm_xor_si128(*x, inp[j]));
            }
            i += LANES;
        }
        while i < n {
            let inp = _mm_loadu_si128(ptr.add(i));
            let x = rounds_one(&rk, inp);
            _mm_storeu_si128(ptr.add(i), _mm_xor_si128(x, inp));
            i += 1;
        }
    }
}

#[cfg(target_arch = "x86_64")]
impl CryptoBackend for AesNi {
    fn name(&self) -> &'static str {
        "aesni"
    }

    fn aes_encrypt_blocks(&self, aes: &Aes128, blocks: &mut [Block]) {
        // SAFETY: AesNi is only handed out after `aes_ni_available()`.
        unsafe { aesni::encrypt_blocks(aes, blocks) }
    }

    fn mmo_hash_blocks(&self, pi: &Aes128, sigmas: &mut [Block]) {
        // SAFETY: AesNi is only handed out after `aes_ni_available()`.
        unsafe { aesni::mmo_hash_blocks(pi, sigmas) }
    }

    fn garble_and(
        &self,
        pi: &Aes128,
        labels: &mut [Block],
        gate: AndGate,
        delta: Block,
        tables: &mut [u8],
    ) {
        gate.check(labels.len(), tables.len());
        // SAFETY: AesNi is only handed out after `aes_ni_available()`, and
        // the check above keeps every label and table access of the kernel
        // inside `labels` and `tables`.
        unsafe { aesni::garble_and(pi, labels, gate, delta, tables) }
    }

    fn eval_and(&self, pi: &Aes128, labels: &mut [Block], gate: AndGate, tables: &[u8]) {
        gate.check(labels.len(), tables.len());
        // SAFETY: as in `garble_and`: the CPU has AES-NI and the check
        // bounds every access.
        unsafe { aesni::eval_and(pi, labels, gate, tables) }
    }
}

static PORTABLE: Portable = Portable;
#[cfg(target_arch = "x86_64")]
static AES_NI: AesNi = AesNi(());

/// Whether the running CPU supports the AES-NI backend.
#[must_use]
pub fn aes_ni_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("aes") && std::arch::is_x86_feature_detected!("sse2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Resolves a backend from an explicit request (the value of
/// `ABNN2_CRYPTO_BACKEND`) or, with `None`, from CPU-feature detection.
///
/// Pure and side-effect free — tests use it to obtain both backends
/// simultaneously for parity checks regardless of what [`backend`] chose.
///
/// # Panics
///
/// Panics if `requested` names an unknown backend, or `"aesni"` on a CPU
/// without AES-NI.
#[must_use]
pub fn choose_backend(requested: Option<&str>) -> &'static dyn CryptoBackend {
    match requested {
        Some("portable") => &PORTABLE,
        Some("aesni") => {
            assert!(
                aes_ni_available(),
                "ABNN2_CRYPTO_BACKEND=aesni but this CPU has no AES-NI support"
            );
            #[cfg(target_arch = "x86_64")]
            {
                &AES_NI
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                unreachable!("aes_ni_available() is false off x86_64")
            }
        }
        Some(other) => {
            panic!(
                "unknown ABNN2_CRYPTO_BACKEND value {other:?} (expected \"portable\" or \"aesni\")"
            )
        }
        None => {
            #[cfg(target_arch = "x86_64")]
            if aes_ni_available() {
                return &AES_NI;
            }
            &PORTABLE
        }
    }
}

/// The process-wide backend: chosen on first call from
/// `ABNN2_CRYPTO_BACKEND` (if set) or CPU-feature detection, then cached
/// for the lifetime of the process.
#[must_use]
pub fn backend() -> &'static dyn CryptoBackend {
    static CHOSEN: OnceLock<&'static dyn CryptoBackend> = OnceLock::new();
    *CHOSEN.get_or_init(|| choose_backend(std::env::var("ABNN2_CRYPTO_BACKEND").ok().as_deref()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn portable_batch_matches_scalar() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let aes = Aes128::new(Block::random(&mut rng));
        let inputs: Vec<Block> = (0..37).map(|_| Block::random(&mut rng)).collect();
        let mut batch = inputs.clone();
        Portable.aes_encrypt_blocks(&aes, &mut batch);
        for (inp, out) in inputs.iter().zip(&batch) {
            assert_eq!(*out, aes.encrypt_block(*inp));
        }
    }

    #[test]
    fn portable_mmo_matches_definition() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let pi = Aes128::new(Block::random(&mut rng));
        let sigma = Block::random(&mut rng);
        let mut batch = [sigma];
        Portable.mmo_hash_blocks(&pi, &mut batch);
        assert_eq!(batch[0], pi.encrypt_block(sigma) ^ sigma);
    }

    #[test]
    fn prg_fill_is_ctr_mode() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let aes = Aes128::new(Block::random(&mut rng));
        let mut out = [Block::ZERO; 5];
        Portable.prg_fill(&aes, 40, &mut out);
        for (i, b) in out.iter().enumerate() {
            assert_eq!(*b, aes.encrypt_block(Block::from(40 + i as u128)));
        }
    }

    #[test]
    fn prg_fill_counter_wraps() {
        let aes = Aes128::new(Block::from(7u128));
        let mut out = [Block::ZERO; 2];
        Portable.prg_fill(&aes, u128::MAX, &mut out);
        assert_eq!(out[0], aes.encrypt_block(Block::from(u128::MAX)));
        assert_eq!(out[1], aes.encrypt_block(Block::ZERO));
    }

    #[test]
    fn requested_portable_is_portable() {
        assert_eq!(choose_backend(Some("portable")).name(), "portable");
    }

    #[test]
    #[should_panic(expected = "unknown ABNN2_CRYPTO_BACKEND")]
    fn unknown_backend_rejected() {
        let _ = choose_backend(Some("vaes512"));
    }

    #[test]
    fn detection_choice_is_consistent() {
        let chosen = choose_backend(None);
        if aes_ni_available() {
            assert_eq!(chosen.name(), "aesni");
        } else {
            assert_eq!(chosen.name(), "portable");
        }
    }

    #[test]
    fn aesni_bit_equals_portable_when_available() {
        if !aes_ni_available() {
            return;
        }
        let ni = choose_backend(Some("aesni"));
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        // Odd length exercises both the 8-wide main loop and the remainder.
        for len in [0usize, 1, 7, 8, 9, 64, 203] {
            let aes = Aes128::new(Block::random(&mut rng));
            let inputs: Vec<Block> = (0..len).map(|_| Block::random(&mut rng)).collect();
            let (mut a, mut b) = (inputs.clone(), inputs.clone());
            Portable.aes_encrypt_blocks(&aes, &mut a);
            ni.aes_encrypt_blocks(&aes, &mut b);
            assert_eq!(a, b, "aes len={len}");
            let (mut a, mut b) = (inputs.clone(), inputs.clone());
            Portable.mmo_hash_blocks(&aes, &mut a);
            ni.mmo_hash_blocks(&aes, &mut b);
            assert_eq!(a, b, "mmo len={len}");
            let ctr: u128 = rng.gen();
            let mut a = vec![Block::ZERO; len];
            let mut b = vec![Block::ZERO; len];
            Portable.prg_fill(&aes, ctr, &mut a);
            ni.prg_fill(&aes, ctr, &mut b);
            assert_eq!(a, b, "prg len={len}");
        }
    }
}
