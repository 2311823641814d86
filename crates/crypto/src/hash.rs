//! Fixed-key AES random-oracle instantiation.
//!
//! OT extension and half-gates garbling both model their hash `H(i, x)` as a
//! (tweakable, correlation-robust) random oracle. We instantiate it the way
//! practical MPC systems do: a Matyas–Meyer–Oseas compression function over
//! a fixed-key AES permutation π,
//!
//! ```text
//! H(tweak, x) = π(x ⊕ tweak) ⊕ (x ⊕ tweak)
//! ```
//!
//! with a Merkle–Damgård chain for inputs longer than one block and a
//! length/tweak finalization. The permutation key is a nothing-up-my-sleeve
//! constant. This is *heuristically* a random oracle (as in the paper's RO
//! model); see the crate-level security note.

use crate::{Aes128, Block};
use std::sync::OnceLock;

/// Tweakable hash with 128-bit output backed by fixed-key AES.
///
/// ```
/// use abnn2_crypto::RoHash;
/// let h = RoHash::new();
/// let a = h.hash_block(0, 7u128.into());
/// let b = h.hash_block(1, 7u128.into());
/// assert_ne!(a, b); // tweak separates instances
/// ```
#[derive(Debug, Clone)]
pub struct RoHash {
    pi: Aes128,
}

impl RoHash {
    /// Creates the oracle with the standard fixed key.
    #[must_use]
    pub fn new() -> Self {
        // "ABNN2 fixed key!" as bytes — an arbitrary public constant.
        let key = Block::from_bytes(*b"ABNN2 fixed key!");
        RoHash { pi: Aes128::new(key) }
    }

    /// The process-wide oracle: the fixed key is public, so every caller
    /// can share one expanded schedule instead of running [`new`](Self::new)
    /// per batch.
    #[must_use]
    pub fn shared() -> &'static RoHash {
        static SHARED: OnceLock<RoHash> = OnceLock::new();
        SHARED.get_or_init(RoHash::new)
    }

    /// One-block hash `H(tweak, x)` (MMO with tweak).
    #[must_use]
    pub fn hash_block(&self, tweak: u128, x: Block) -> Block {
        let sigma = x ^ Block::from(tweak);
        self.pi.encrypt_block(sigma) ^ sigma
    }

    /// Batched MMO hashing through the selected
    /// [`crate::backend::CryptoBackend`]: each `sigmas[i]` must hold the
    /// whitened input `xᵢ ⊕ tweakᵢ` on entry and holds
    /// `H(tweakᵢ, xᵢ) = π(σᵢ) ⊕ σᵢ` on return.
    ///
    /// Callers build the σ array (the tweak XOR is free next to the hash
    /// cost) so one flat slice drives the whole batch. Bit-identical to
    /// per-call [`hash_block`](Self::hash_block) on every backend.
    pub fn hash_blocks(&self, sigmas: &mut [Block]) {
        crate::backend::backend().mmo_hash_blocks(&self.pi, sigmas);
    }

    /// The Merkle–Damgård digest of `n` rows of `width` bytes back to back
    /// in `rows`, row `i` under `tweak(i)`, chained column by column — one
    /// [`hash_blocks`](Self::hash_blocks) pass over all rows per 16-byte
    /// column (the last zero-padded), then the finalization pass that
    /// mixes in each row's tweak and the width, so padding cannot collide.
    fn digests(
        &self,
        rows: &[u8],
        width: usize,
        n: usize,
        tweak: impl Fn(usize) -> u128,
    ) -> Vec<Block> {
        assert_eq!(rows.len(), width * n, "n rows of width bytes");
        let mut h = vec![Block::ZERO; n];
        for col in (0..width).step_by(16) {
            let take = (width - col).min(16);
            for (h, row) in h.iter_mut().zip(rows.chunks_exact(width)) {
                let mut buf = [0u8; 16];
                buf[..take].copy_from_slice(&row[col..col + take]);
                *h ^= Block::from_bytes(buf);
            }
            self.hash_blocks(&mut h);
        }
        let length = ((width as u128) << 64).rotate_left(32);
        for (i, h) in h.iter_mut().enumerate() {
            *h ^= Block::from(tweak(i) ^ length);
        }
        self.hash_blocks(&mut h);
        h
    }

    /// Hashes an arbitrary byte string to one block under a tweak: the
    /// one-row case of the chain under
    /// [`hash_expand_rows`](Self::hash_expand_rows).
    #[must_use]
    pub fn hash_bytes(&self, tweak: u128, data: &[u8]) -> Block {
        self.digests(data, data.len(), 1, |_| tweak)[0]
    }

    /// Hashes every `width`-byte row of `rows`, row `i` under `tweak(i)`,
    /// and expands each digest to a `len`-byte mask via AES-CTR keyed by
    /// the digest: mask `i` lands in `out[i·len..(i+1)·len]`.
    ///
    /// This is the "output of the random oracle can pack multiple
    /// multiplications" packing from SecureML/§4.1.3 — one oracle call
    /// yields a mask of arbitrary width — for a whole batch of OT keys at
    /// once: `2 + ⌈width/16⌉` backend calls however many rows there are.
    ///
    /// # Panics
    ///
    /// Panics unless `width` is positive, `rows` a whole number of
    /// `width`-byte rows and `out` as many masks of `len` bytes.
    pub fn hash_expand_rows(
        &self,
        rows: &[u8],
        width: usize,
        tweak: impl Fn(usize) -> u128,
        len: usize,
        out: &mut [u8],
    ) {
        let seeds = self.digests(rows, width, rows.len() / width, tweak);
        crate::backend::backend().expand_seeds(&seeds, len, out);
    }

    /// [`hash_expand_rows`](Self::hash_expand_rows) of one row of any
    /// length, the empty one included.
    #[must_use]
    pub fn hash_expand(&self, tweak: u128, data: &[u8], out_len: usize) -> Vec<u8> {
        let seed = self.hash_bytes(tweak, data);
        let mut out = vec![0u8; out_len];
        crate::backend::backend().expand_seeds(&[seed], out_len, &mut out);
        out
    }
}

impl Default for RoHash {
    fn default() -> Self {
        RoHash::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_hash_is_tweak_and_input_sensitive() {
        let h = RoHash::new();
        let x = Block::from(99u128);
        assert_eq!(h.hash_block(5, x), h.hash_block(5, x));
        assert_ne!(h.hash_block(5, x), h.hash_block(6, x));
        assert_ne!(h.hash_block(5, x), h.hash_block(5, Block::from(100u128)));
    }

    #[test]
    fn byte_hash_distinguishes_lengths() {
        let h = RoHash::new();
        // Same prefix, different zero padding lengths must not collide.
        assert_ne!(h.hash_bytes(0, &[1, 2, 3]), h.hash_bytes(0, &[1, 2, 3, 0]));
        assert_ne!(h.hash_bytes(0, &[]), h.hash_bytes(0, &[0u8; 16]));
    }

    #[test]
    fn byte_hash_matches_block_hash_semantics() {
        let h = RoHash::new();
        let a = h.hash_bytes(7, b"hello world, this is more than 16 bytes");
        let b = h.hash_bytes(7, b"hello world, this is more than 16 bytes");
        assert_eq!(a, b);
    }

    #[test]
    fn expand_produces_requested_length_and_is_deterministic() {
        let h = RoHash::new();
        let a = h.hash_expand(1, b"seed", 100);
        let b = h.hash_expand(1, b"seed", 100);
        assert_eq!(a.len(), 100);
        assert_eq!(a, b);
        let c = h.hash_expand(2, b"seed", 100);
        assert_ne!(a, c);
    }

    #[test]
    fn expand_prefix_consistency() {
        let h = RoHash::new();
        let long = h.hash_expand(1, b"seed", 64);
        let short = h.hash_expand(1, b"seed", 32);
        assert_eq!(&long[..32], &short[..]);
    }
}
