//! Backend parity: every [`CryptoBackend`] method must be bit-identical
//! to the portable oracle for random inputs, across batch lengths that
//! exercise the AES-NI 8-lane main loop, its scalar remainder, and the
//! empty batch; and the batched oracle expansion on top of them must
//! equal the scalar chain it replaced, written out here block by block.

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
    // The fourth shape: a fresh key per output. Seed 0 is the FIPS-197
    // Appendix A.1 key, so the first mask is that schedule's keystream.
    let mut seeds = vec![Block::from_bytes([
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ])];
    seeds.extend((1..1000).map(|_| Block::random(&mut rng)));
    for n in BATCHES {
        for len in MASK_LENS {
            let (mut a, mut b) = (vec![0u8; n * len], vec![0u8; n * len]);
            portable.expand_seeds(&seeds[..n], len, &mut a);
            aesni.expand_seeds(&seeds[..n], len, &mut b);
            assert_eq!(a, b, "expand_seeds of {n} seeds to {len} bytes");
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
    // The scalar entry points are the one-row case, at any input length.
    for data_len in [0usize, 3, 16, 40] {
        let data: Vec<u8> = (0..data_len).map(|_| rng.gen()).collect();
        assert_eq!(hash.hash_expand(9, &data, 24), scalar_hash_expand(&hash, 9, &data, 24));
        let digest = hash.hash_bytes(9, &data);
        assert_eq!(
            Aes128::new(digest).encrypt_block(Block::ZERO).to_bytes()[..],
            hash.hash_expand(9, &data, 16)
        );
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
