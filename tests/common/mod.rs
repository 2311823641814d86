//! The scalar definition of the batched oracle expansion, shared by the
//! two crypto-backend test binaries (`crypto_backend_env.rs` must stay a
//! process of its own, so it cannot simply live beside the other tests).

use abnn2::crypto::{Aes128, Block, RoHash};

/// What `hash_expand_rows` must produce for one row, from scalar calls
/// only: the zero-padded Merkle–Damgård chain over `hash_block`, the
/// finalization that mixes in tweak and length, then AES-CTR under the
/// digest through `Aes128::new` + `encrypt_block`.
pub fn scalar_hash_expand(hash: &RoHash, tweak: u128, row: &[u8], len: usize) -> Vec<u8> {
    let mut h = Block::ZERO;
    for chunk in row.chunks(16) {
        let mut buf = [0u8; 16];
        buf[..chunk.len()].copy_from_slice(chunk);
        h = hash.hash_block(0, h ^ Block::from_bytes(buf));
    }
    let seed = hash.hash_block(tweak ^ ((row.len() as u128) << 64).rotate_left(32), h);
    let aes = Aes128::new(seed);
    let stream =
        (0..len.div_ceil(16)).flat_map(|c| aes.encrypt_block(Block::from(c as u128)).to_bytes());
    stream.take(len).collect()
}

/// Row widths (one to eight chain columns), mask lengths (none, partial,
/// exact and several blocks) and batch sizes (around the 8-lane boundary
/// and one long batch) of the expansion sweep.
pub const WIDTHS: [usize; 4] = [16, 32, 48, 128];
pub const MASK_LENS: [usize; 6] = [0, 1, 4, 16, 17, 64];
pub const BATCHES: [usize; 6] = [0, 1, 7, 8, 9, 1000];
