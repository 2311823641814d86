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
//! length/tweak finalization, and outputs longer than one block taken as
//! `H(0, d), H(1, d), …` of that digest `d` under the same permutation, so
//! no output pays a key schedule. The permutation key is a nothing-up-my-sleeve
//! constant. This is *heuristically* a random oracle (as in the paper's RO
//! model); see the crate-level security note.

use crate::backend::AndGate;
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

    /// Garbles one half-gates AND gate over a row of lanes under this
    /// oracle, through the selected backend's fused kernel: see
    /// [`CryptoBackend::garble_and`](crate::CryptoBackend::garble_and).
    ///
    /// # Panics
    ///
    /// Panics if `gate` fails [`AndGate::check`] against `labels` and
    /// `tables`.
    pub fn garble_and(&self, labels: &mut [Block], gate: AndGate, delta: Block, tables: &mut [u8]) {
        crate::backend::backend().garble_and(&self.pi, labels, gate, delta, tables);
    }

    /// Evaluates one half-gates AND gate over a row of lanes under this
    /// oracle: see [`CryptoBackend::eval_and`](crate::CryptoBackend::eval_and).
    ///
    /// # Panics
    ///
    /// Panics if `gate` fails [`AndGate::check`] against `labels` and
    /// `tables`.
    pub fn eval_and(&self, labels: &mut [Block], gate: AndGate, tables: &[u8]) {
        crate::backend::backend().eval_and(&self.pi, labels, gate, tables);
    }

    /// The Merkle–Damgård chain states of `n` rows of `width` bytes back
    /// to back in `rows`, chained column by column: one
    /// [`hash_blocks`](Self::hash_blocks) pass over all rows per 16-byte
    /// column, the last zero-padded. State `i` after column `c` is
    /// `H(state ⊕ column c of row i)` from a zero state.
    fn chains(&self, rows: &[u8], width: usize, n: usize) -> Vec<Block> {
        assert_eq!(rows.len(), width * n, "n rows of width bytes");
        let mut h = vec![Block::ZERO; n];
        for col in (0..width).step_by(16) {
            let take = (width - col).min(16);
            for (h, row) in h.iter_mut().zip(rows.chunks_exact(width)) {
                *h ^= match row[col..col + take].try_into() {
                    Ok(whole) => Block::from_bytes(whole),
                    Err(_) => {
                        let mut buf = [0u8; 16];
                        buf[..take].copy_from_slice(&row[col..]);
                        Block::from_bytes(buf)
                    }
                };
            }
            self.hash_blocks(&mut h);
        }
        h
    }

    /// Finalizes chain states over `width`-byte inputs into digests, in
    /// place: state `i` takes `tweak(i)` and the width, so padding cannot
    /// collide, then one [`hash_blocks`](Self::hash_blocks) pass.
    ///
    /// A caller that chains 16-byte blocks itself (state `H(state ⊕ x)`
    /// per block from a zero state) gets the digest
    /// [`hash_expand_rows`](Self::hash_expand_rows) computes for the row of
    /// those blocks' bytes.
    pub fn finish_chains(&self, states: &mut [Block], width: usize, tweak: impl Fn(usize) -> u128) {
        let length = ((width as u128) << 64).rotate_left(32);
        for (i, h) in states.iter_mut().enumerate() {
            *h ^= Block::from(tweak(i) ^ length);
        }
        self.hash_blocks(states);
    }

    /// Hashes an arbitrary byte string to one block under a tweak: the
    /// one-row case of the chain under
    /// [`hash_expand_rows`](Self::hash_expand_rows).
    #[must_use]
    pub fn hash_bytes(&self, tweak: u128, data: &[u8]) -> Block {
        let mut h = self.chains(data, data.len(), 1);
        self.finish_chains(&mut h, data.len(), |_| tweak);
        h[0]
    }

    /// Hashes every `width`-byte row of `rows`, row `i` under `tweak(i)`,
    /// and expands each digest `d` to a `len`-byte mask whose block `k` is
    /// `H(k, d)`, the same fixed-key oracle again: mask `i` lands in
    /// `out[i·len..(i+1)·len]`.
    ///
    /// This is the "output of the random oracle can pack multiple
    /// multiplications" packing from SecureML/§4.1.3 — one oracle call
    /// yields a mask of arbitrary width — for a whole batch of OT keys at
    /// once, with no key schedule per digest: `⌈width/16⌉ + 1` backend
    /// calls for the digests and one per 128 mask blocks. It is the byte-row
    /// front end of [`finish_chains`](Self::finish_chains) and
    /// [`expand_digests`](Self::expand_digests).
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
        let mut digests = self.chains(rows, width, rows.len() / width);
        self.finish_chains(&mut digests, width, tweak);
        self.expand_digests(&digests, len, out);
    }

    /// Expands each digest `d` to a `len`-byte mask whose block `k` is
    /// `H(k, d)`: mask `i` lands in `out[i·len..(i+1)·len]`.
    ///
    /// # Panics
    ///
    /// Panics unless `out` holds one `len`-byte mask per digest.
    pub fn expand_digests(&self, digests: &[Block], len: usize, out: &mut [u8]) {
        assert_eq!(out.len(), digests.len() * len, "one len-byte mask per digest");
        if len == 0 {
            return;
        }
        // Mask blocks in output order, a stack buffer of them per backend
        // call: block k of digest d hashes σ = d ⊕ k, and the last block of
        // a mask keeps only the bytes the mask has room for.
        let mut sigmas = digests
            .iter()
            .flat_map(|&d| (0..len.div_ceil(16) as u128).map(move |k| d ^ Block::from(k)));
        let mut pieces = out.chunks_mut(len).flat_map(|mask| mask.chunks_mut(16));
        let mut buf = [Block::ZERO; EXPAND_CHUNK];
        loop {
            let mut filled = 0;
            for (x, sigma) in buf.iter_mut().zip(&mut sigmas) {
                *x = sigma;
                filled += 1;
            }
            if filled == 0 {
                break;
            }
            self.hash_blocks(&mut buf[..filled]);
            for (x, piece) in buf[..filled].iter().zip(&mut pieces) {
                piece.copy_from_slice(&x.to_bytes()[..piece.len()]);
            }
        }
    }
}

/// Mask blocks [`RoHash::hash_expand_rows`] hashes per backend call.
const EXPAND_CHUNK: usize = 128;

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

    /// One row through the batched expansion.
    fn expand(h: &RoHash, tweak: u128, row: &[u8], len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        h.hash_expand_rows(row, row.len(), |_| tweak, len, &mut out);
        out
    }

    #[test]
    fn expand_produces_requested_length_and_is_deterministic() {
        let h = RoHash::new();
        let a = expand(&h, 1, b"seed", 100);
        let b = expand(&h, 1, b"seed", 100);
        assert_eq!(a.len(), 100);
        assert_eq!(a, b);
        let c = expand(&h, 2, b"seed", 100);
        assert_ne!(a, c);
    }

    /// Chaining 16-byte blocks directly, then finishing and expanding the
    /// states, is the byte-row path over those blocks' bytes.
    #[test]
    fn block_chains_finish_to_the_row_digests() {
        let h = RoHash::new();
        let blocks = [Block::from(3u128), Block::ONES, Block::from(7u128 << 90)];
        let row: Vec<u8> = blocks.iter().flat_map(|b| b.to_bytes()).collect();
        let mut state = [Block::ZERO];
        for &b in &blocks {
            state[0] ^= b;
            h.hash_blocks(&mut state);
        }
        h.finish_chains(&mut state, row.len(), |_| 9);
        assert_eq!(state[0], h.hash_bytes(9, &row));
        let (mut got, mut want) = (vec![0u8; 40], vec![0u8; 40]);
        h.expand_digests(&state, 40, &mut got);
        h.hash_expand_rows(&row, row.len(), |_| 9, 40, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn expand_prefix_consistency() {
        let h = RoHash::new();
        let long = expand(&h, 1, b"seed", 64);
        let short = expand(&h, 1, b"seed", 32);
        assert_eq!(&long[..32], &short[..]);
        // Block k of a mask is the fixed-key oracle at tweak k on the digest.
        let digest = h.hash_bytes(1, b"seed");
        for (k, block) in long.chunks_exact(16).enumerate() {
            assert_eq!(block, h.hash_block(k as u128, digest).to_bytes(), "block {k}");
        }
    }
}
