//! Backend-dispatched batched crypto primitives.
//!
//! Every hot loop in the OT and garbling stacks bottoms out in one of three
//! AES shapes: raw block encryption (label encryption), the MMO compression
//! `π(σ) ⊕ σ` under the fixed key (random-oracle hashing, every fragment-OT
//! mask included), and CTR-mode stream expansion under one key (the column
//! PRGs). [`CryptoBackend`] exposes exactly those three as slice-batched
//! operations so one implementation choice accelerates all of them:
//!
//! * [`Portable`] — the T-table software AES that has always been here. It
//!   is the test oracle: every other backend must be bit-identical to it.
//! * [`AesNi`] — hardware AES via `aesenc`/`aesenclast`, 8 blocks in
//!   flight per iteration to cover the instruction latency. Only
//!   constructed after `is_x86_feature_detected!("aes")` succeeds.
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
}

/// Hardware AES-NI backend. Not publicly constructible: the only instance
/// is handed out by [`backend`]/[`choose_backend`] after CPU-feature
/// detection, so its `unsafe` intrinsic calls are always sound.
#[cfg(target_arch = "x86_64")]
#[derive(Debug)]
pub struct AesNi(());

#[cfg(target_arch = "x86_64")]
mod aesni {
    use super::{Aes128, Block};
    use core::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_setzero_si128,
        _mm_storeu_si128, _mm_xor_si128,
    };

    /// Blocks kept in flight per main-loop iteration: enough independent
    /// chains to hide `aesenc` latency on every µarch that has the
    /// instruction.
    const LANES: usize = 8;

    #[inline]
    #[target_feature(enable = "aes,sse2")]
    unsafe fn load_round_keys(aes: &Aes128) -> [__m128i; 11] {
        let mut rk = [_mm_setzero_si128(); 11];
        for (r, key) in aes.round_keys().iter().enumerate() {
            rk[r] = _mm_loadu_si128(key.as_ptr().cast());
        }
        rk
    }

    /// Runs the 10 AES rounds over `LANES` independent states.
    #[inline]
    #[target_feature(enable = "aes,sse2")]
    unsafe fn rounds(rk: &[__m128i; 11], s: &mut [__m128i; LANES]) {
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
