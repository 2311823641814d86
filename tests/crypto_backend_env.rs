//! The `ABNN2_CRYPTO_BACKEND` override knob.
//!
//! The process-wide backend is resolved once, on the first `backend()`
//! call, from this environment variable (falling back to CPU detection).
//! This file is its own integration-test binary — hence its own process —
//! so the single test below can set the variable *before* anything
//! touches the `OnceLock` and observe the forced choice end to end. It
//! deliberately contains exactly one `#[test]`: a sibling test running
//! first on another thread could resolve the backend early and turn the
//! override into a no-op.

mod common;

use abnn2::crypto::{backend, Aes128, Block, RoHash};
use common::{scalar_hash_expand, BATCHES, MASK_LENS, WIDTHS};

#[test]
fn env_knob_forces_the_portable_backend() {
    std::env::set_var("ABNN2_CRYPTO_BACKEND", "portable");
    assert_eq!(
        backend().name(),
        "portable",
        "ABNN2_CRYPTO_BACKEND=portable must win over CPU detection"
    );

    // The forced backend must produce the canonical outputs: batched ops
    // agree with the scalar T-table oracle, so a session pinned to the
    // fallback path emits the same transcript bytes as any other.
    let aes = Aes128::new(Block::from(0xA5A5u128));
    let inputs: Vec<Block> = (0..37u128).map(|i| Block::from(i * i + 1)).collect();
    let mut batch = inputs.clone();
    backend().aes_encrypt_blocks(&aes, &mut batch);
    for (x, y) in inputs.iter().zip(&batch) {
        assert_eq!(*y, aes.encrypt_block(*x));
    }

    let hash = RoHash::new();
    let mut sigmas = inputs.clone();
    hash.hash_blocks(&mut sigmas);
    for (x, y) in inputs.iter().zip(&sigmas) {
        assert_eq!(*y, hash.hash_block(0, *x));
    }

    // The same for the oracle expansion under every fragment-OT mask: the
    // batch equals the scalar chain, row by row.
    for width in WIDTHS {
        for n in BATCHES {
            let rows: Vec<u8> = (0..n * width).map(|i| (i * i + 7 * width + n) as u8).collect();
            let tweaks: Vec<u128> = (0..n as u128).map(|j| (j << 70) ^ (j * j + 5)).collect();
            for len in MASK_LENS {
                let mut out = vec![0u8; n * len];
                hash.hash_expand_rows(&rows, width, |i| tweaks[i], len, &mut out);
                let want: Vec<u8> = (rows.chunks_exact(width).zip(&tweaks))
                    .flat_map(|(row, &tweak)| scalar_hash_expand(&hash, tweak, row, len))
                    .collect();
                assert_eq!(out, want, "{n} rows of {width} bytes to {len}");
            }
        }
    }
}
