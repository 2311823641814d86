//! AES-CTR pseudorandom generator.
//!
//! OT extension stretches the κ base-OT seeds into long pseudorandom
//! columns; garbling and the protocols use the same PRG for mask expansion.

use crate::{Aes128, Block};
use std::sync::Arc;

/// A deterministic PRG: the byte stream `AES_seed(0), AES_seed(1), …`.
///
/// ```
/// use abnn2_crypto::{Block, Prg};
/// let mut a = Prg::from_seed(Block::from(5u128));
/// let mut b = Prg::from_seed(Block::from(5u128));
/// assert_eq!(a.next_block(), b.next_block());
/// ```
///
/// A clone shares the key schedule and copies the position: OT-extension
/// state is hundreds of these, and the session driver copies it once per
/// protocol step.
#[derive(Debug, Clone)]
pub struct Prg {
    aes: Arc<Aes128>,
    counter: u128,
}

impl Prg {
    /// Bytes one generator holds: its position and the key schedule it
    /// shares with its clones.
    pub const HELD_BYTES: usize = std::mem::size_of::<Prg>() + std::mem::size_of::<Aes128>();

    /// Creates a PRG keyed by `seed` starting at counter zero.
    #[must_use]
    pub fn from_seed(seed: Block) -> Self {
        Prg { aes: Arc::new(Aes128::new(seed)), counter: 0 }
    }

    /// Next 128 pseudorandom bits.
    #[must_use = "the generated block should be used"]
    pub fn next_block(&mut self) -> Block {
        let out = self.aes.encrypt_block(Block::from(self.counter));
        self.counter = self.counter.wrapping_add(1);
        out
    }

    /// Fills `out` with the next `out.len()` stream blocks in one batched
    /// [`crate::backend::CryptoBackend::prg_fill`] call.
    pub fn fill_blocks(&mut self, out: &mut [Block]) {
        crate::backend::backend().prg_fill(&self.aes, self.counter, out);
        self.counter = self.counter.wrapping_add(out.len() as u128);
    }

    /// Overwrites `out` with the next `out.len()` pseudorandom bytes, in
    /// place: what [`bytes`](Self::bytes) returns, without the `Vec`.
    ///
    /// Generates whole blocks, batched through the backend, and discards
    /// the partial tail block's remainder as the stream always has: the
    /// position advances by `⌈out.len()/16⌉` blocks.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        let mut blocks = [Block::ZERO; 64];
        for chunk in out.chunks_mut(16 * blocks.len()) {
            let blocks = &mut blocks[..chunk.len().div_ceil(16)];
            self.fill_blocks(blocks);
            for (bytes, block) in chunk.chunks_mut(16).zip(blocks.iter()) {
                bytes.copy_from_slice(&block.to_bytes()[..bytes.len()]);
            }
        }
    }

    /// Next `n` pseudorandom bytes.
    #[must_use = "the generated bytes should be used"]
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        self.fill_bytes(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = Prg::from_seed(Block::from(1u128));
        let mut b = Prg::from_seed(Block::from(1u128));
        assert_eq!(a.bytes(100), b.bytes(100));
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prg::from_seed(Block::from(1u128));
        let mut b = Prg::from_seed(Block::from(2u128));
        assert_ne!(a.bytes(32), b.bytes(32));
    }

    #[test]
    fn byte_lengths_exact() {
        let mut p = Prg::from_seed(Block::ZERO);
        assert_eq!(p.bytes(0).len(), 0);
        assert_eq!(p.bytes(15).len(), 15);
        assert_eq!(p.bytes(17).len(), 17);
    }

    /// `fill_bytes` is `bytes` in place, and both are the block stream cut
    /// to length: the same bytes at every length around the 1 024-byte
    /// chunk of one backend call, over successive calls, each advancing the
    /// position by ⌈n/16⌉ blocks (a 392-byte KK13 column ends mid-block).
    #[test]
    fn fill_bytes_is_bytes_in_place() {
        let seed = Block::from(3u128);
        let (mut a, mut b, mut stream) =
            (Prg::from_seed(seed), Prg::from_seed(seed), Prg::from_seed(seed));
        for n in [0usize, 15, 16, 1023, 1024, 1025, 392, 1, 17] {
            let mut out = vec![0xA5u8; n];
            a.fill_bytes(&mut out);
            let want: Vec<u8> =
                (0..n.div_ceil(16)).flat_map(|_| stream.next_block().to_bytes()).take(n).collect();
            assert_eq!(out, want, "{n} bytes");
            assert_eq!(b.bytes(n), want, "{n} bytes");
        }
        let next = stream.next_block();
        assert_eq!((a.next_block(), b.next_block()), (next, next));
    }

    /// A clone is a position, not a key schedule: it costs two words and a
    /// counter to make, continues where the original stood, and the two
    /// advance apart.
    #[test]
    fn a_clone_shares_the_schedule_and_keeps_its_own_position() {
        assert!(std::mem::size_of::<Prg>() <= 32, "a clone copies the key schedule again");
        let mut a = Prg::from_seed(Block::from(6u128));
        let _ = a.bytes(40);
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.aes, &b.aes));
        let next = a.bytes(64);
        assert_eq!(b.bytes(64), next);
        assert_ne!(a.bytes(16), next[..16]);
    }

    #[test]
    fn stream_continues_across_calls() {
        let mut a = Prg::from_seed(Block::from(9u128));
        let mut b = Prg::from_seed(Block::from(9u128));
        let joined = a.bytes(48);
        let mut split = b.bytes(16);
        split.extend(b.bytes(32));
        assert_eq!(joined, split);
    }
}
