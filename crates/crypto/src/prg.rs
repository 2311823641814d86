//! AES-CTR pseudorandom generator.
//!
//! OT extension stretches the κ base-OT seeds into long pseudorandom
//! columns; garbling and the protocols use the same PRG for mask expansion.

use crate::{Aes128, Block};

/// A deterministic PRG: the byte stream `AES_seed(0), AES_seed(1), …`.
///
/// ```
/// use abnn2_crypto::{Block, Prg};
/// let mut a = Prg::from_seed(Block::from(5u128));
/// let mut b = Prg::from_seed(Block::from(5u128));
/// assert_eq!(a.next_block(), b.next_block());
/// ```
///
/// Not `Clone`: a copy would hand out the same stream a second time, and
/// OT-extension keys derived from it twice are no longer secret.
///
/// ```compile_fail
/// use abnn2_crypto::{Block, Prg};
/// let a = Prg::from_seed(Block::from(5u128));
/// let b = a.clone();
/// ```
#[derive(Debug)]
pub struct Prg {
    aes: Aes128,
    counter: u128,
}

impl Prg {
    /// Bytes one generator holds: its key schedule and its position.
    pub const HELD_BYTES: usize = std::mem::size_of::<Prg>();

    /// Creates a PRG keyed by `seed` starting at counter zero.
    #[must_use]
    pub fn from_seed(seed: Block) -> Self {
        Prg { aes: Aes128::new(seed), counter: 0 }
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
    /// Generates whole blocks, batched through the backend, copies them 16
    /// bytes at a time and discards the partial tail block's remainder as
    /// the stream always has: the position advances by `⌈out.len()/16⌉`
    /// blocks.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        let mut blocks = [Block::ZERO; 64];
        for chunk in out.chunks_mut(16 * blocks.len()) {
            let blocks = &mut blocks[..chunk.len().div_ceil(16)];
            self.fill_blocks(blocks);
            let mut whole = chunk.chunks_exact_mut(16);
            for (bytes, block) in (&mut whole).zip(blocks.iter()) {
                bytes.copy_from_slice(&block.to_bytes());
            }
            let tail = whole.into_remainder();
            if let Some(last) = blocks.last().filter(|_| !tail.is_empty()) {
                tail.copy_from_slice(&last.to_bytes()[..tail.len()]);
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
