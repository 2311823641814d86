//! Backend parity: every [`CryptoBackend`] method must be bit-identical
//! to the portable oracle for random inputs, across batch lengths that
//! exercise the AES-NI 8-lane main loop, its scalar remainder, and the
//! empty batch; and the batched oracle expansion on top of them must
//! equal its scalar definition, written out here block by block. Run it
//! under `ABNN2_CRYPTO_BACKEND=portable` too: the expansion sweep then
//! checks the software path.

mod common;

use abnn2::crypto::{aes_ni_available, backend, choose_backend, Aes128, Block, RoHash};
use common::{scalar_hash_expand, BATCHES, MASK_LENS, WIDTHS};
use rand::{Rng, SeedableRng};

/// Batch lengths around the 8-lane boundary, plus two long batches.
const LENS: [usize; 10] = [0, 1, 7, 8, 9, 16, 63, 257, 4096, 4099];

#[test]
fn aesni_bit_equals_portable_for_every_trait_method() {
    if !aes_ni_available() {
        eprintln!("skipping: CPU has no AES-NI");
        return;
    }
    let portable = choose_backend(Some("portable"));
    let aesni = choose_backend(Some("aesni"));
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE);
    for trial in 0..8 {
        let aes = Aes128::new(Block::random(&mut rng));
        for len in LENS {
            let inputs: Vec<Block> = (0..len).map(|_| Block::random(&mut rng)).collect();

            let (mut a, mut b) = (inputs.clone(), inputs.clone());
            portable.aes_encrypt_blocks(&aes, &mut a);
            aesni.aes_encrypt_blocks(&aes, &mut b);
            assert_eq!(a, b, "aes_encrypt_blocks trial {trial} len {len}");

            let (mut a, mut b) = (inputs.clone(), inputs.clone());
            portable.mmo_hash_blocks(&aes, &mut a);
            aesni.mmo_hash_blocks(&aes, &mut b);
            assert_eq!(a, b, "mmo_hash_blocks trial {trial} len {len}");

            let ctr: u128 = rng.gen();
            let mut a = vec![Block::ZERO; len];
            let mut b = vec![Block::ZERO; len];
            portable.prg_fill(&aes, ctr, &mut a);
            aesni.prg_fill(&aes, ctr, &mut b);
            assert_eq!(a, b, "prg_fill trial {trial} len {len}");
        }
    }
}

#[test]
fn batched_expansion_matches_the_scalar_chain_under_process_backend() {
    let hash = RoHash::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFEED);
    for width in WIDTHS {
        for n in BATCHES {
            let rows: Vec<u8> = (0..n * width).map(|_| rng.gen()).collect();
            let tweaks: Vec<u128> = (0..n).map(|_| rng.gen()).collect();
            for len in MASK_LENS {
                let mut out = vec![0u8; n * len];
                hash.hash_expand_rows(&rows, width, |i| tweaks[i], len, &mut out);
                let want: Vec<u8> = (rows.chunks_exact(width).zip(&tweaks))
                    .flat_map(|(row, &tweak)| scalar_hash_expand(&hash, tweak, row, len))
                    .collect();
                assert_eq!(out, want, "{n} rows of {width} to {len} under {}", backend().name());
            }
        }
    }
    // One row is the one-row case of the same chain, at any input length,
    // and a mask's first block is the oracle on the digest at tweak 0.
    for data_len in [3usize, 16, 40] {
        let data: Vec<u8> = (0..data_len).map(|_| rng.gen()).collect();
        let mut out = [0u8; 24];
        hash.hash_expand_rows(&data, data_len, |_| 9, 24, &mut out);
        assert_eq!(out[..], scalar_hash_expand(&hash, 9, &data, 24));
        assert_eq!(out[..16], hash.hash_block(0, hash.hash_bytes(9, &data)).to_bytes());
    }
}

#[test]
fn batched_mmo_matches_scalar_oracle_under_process_backend() {
    // Whatever backend() resolved to on this machine, the batched hash
    // must agree with the scalar T-table definition block for block.
    // `hash_blocks` consumes pre-whitened sigmas, so the scalar oracle is
    // `hash_block` with a zero tweak.
    let hash = RoHash::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEEF);
    for len in LENS {
        let sigmas: Vec<Block> = (0..len).map(|_| Block::random(&mut rng)).collect();
        let mut batch = sigmas.clone();
        hash.hash_blocks(&mut batch);
        for (i, (s, h)) in sigmas.iter().zip(&batch).enumerate() {
            assert_eq!(*h, hash.hash_block(0, *s), "block {i} of {len} under {}", backend().name());
        }
    }
}
