//! Backend parity: every [`CryptoBackend`] method must be bit-identical
//! to the portable oracle for random inputs, across batch lengths that
//! exercise the AES-NI 8-lane main loop, its scalar remainder, and the
//! empty batch; and the batched oracle expansion on top of them must
//! equal its scalar definition, written out here block by block; and the
//! half-gates AND kernels of every backend must equal the portable σ loop
//! and compute the AND. Run it under `ABNN2_CRYPTO_BACKEND=portable` too:
//! the expansion sweep then checks the software path.

mod common;

use abnn2::crypto::{aes_ni_available, backend, choose_backend, Aes128, AndGate, Block, RoHash};
use common::{scalar_hash_expand, BATCHES, MASK_LENS, WIDTHS};
use proptest::prelude::*;
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

/// Row widths of the AND-gate parity: the fused kernels' one-lane tail,
/// around a 4-lane garbling and an 8-lane evaluation group, and a whole
/// 64-lane pass.
const AND_WIDTHS: [usize; 7] = [1, 3, 4, 5, 8, 9, 64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every backend garbles an AND gate to the same output labels and
    /// table rows as the portable oracle, and leaves the rest of the
    /// matrix and the stream alone; every backend evaluates the garbling
    /// to the same labels; and each evaluated label is the output's zero
    /// label plus `(x ∧ y)·Δ`, so it decodes to the AND of the operands'
    /// colour bits. The output row is its own slot, operand `a`'s or
    /// operand `b`'s; the table stride is odd.
    #[test]
    fn and_kernels_match_the_portable_oracle_and_compute_the_and(seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pi = Aes128::new(Block::random(&mut rng));
        let mut backends = vec![choose_backend(Some("portable"))];
        if aes_ni_available() {
            backends.push(choose_backend(Some("aesni")));
        }
        for width in AND_WIDTHS {
            for out in [2 * width, 0, width] {
                let delta = Block::random(&mut rng).with_lsb(true);
                let stride = 2 * rng.gen_range(0..4usize) + 1;
                let gate = AndGate { a: 0, b: width, out, width, gate: rng.gen_range(0..5), stride };
                let zeros: Vec<Block> = (0..3 * width).map(|_| Block::random(&mut rng)).collect();
                let stream: Vec<u8> =
                    (0..32 * (gate.gate + (width - 1) * stride + 2)).map(|_| rng.gen()).collect();
                let garbled: Vec<(Vec<Block>, Vec<u8>)> = backends
                    .iter()
                    .map(|be| {
                        let (mut labels, mut tables) = (zeros.clone(), stream.clone());
                        be.garble_and(&pi, &mut labels, gate, delta, &mut tables);
                        (labels, tables)
                    })
                    .collect();
                for (be, g) in backends.iter().zip(&garbled) {
                    prop_assert_eq!(g, &garbled[0], "garble_and {} width {} out {}", be.name(), width, out);
                }
                let (garbled_zeros, tables) = &garbled[0];
                let outside = |i: usize| i < out || i >= out + width;
                for (i, (after, before)) in garbled_zeros.iter().zip(&zeros).enumerate() {
                    if outside(i) {
                        prop_assert_eq!(after, before, "label {} outside the output row", i);
                    }
                }
                for k in 0..stream.len() / 32 {
                    let lane = (k >= gate.gate && (k - gate.gate).is_multiple_of(stride))
                        .then(|| (k - gate.gate) / stride)
                        .filter(|&l| l < width);
                    if lane.is_none() {
                        prop_assert_eq!(&tables[32 * k..][..32], &stream[32 * k..][..32]);
                    }
                }

                let bits: Vec<(bool, bool)> = (0..width).map(|_| (rng.gen(), rng.gen())).collect();
                let mut active = zeros.clone();
                for (l, &(x, y)) in bits.iter().enumerate() {
                    active[l] ^= if x { delta } else { Block::ZERO };
                    active[width + l] ^= if y { delta } else { Block::ZERO };
                }
                let evaluated: Vec<Vec<Block>> = backends
                    .iter()
                    .map(|be| {
                        let mut labels = active.clone();
                        be.eval_and(&pi, &mut labels, gate, tables);
                        labels
                    })
                    .collect();
                for (be, e) in backends.iter().zip(&evaluated) {
                    prop_assert_eq!(e, &evaluated[0], "eval_and {} width {} out {}", be.name(), width, out);
                }
                for (l, &(x, y)) in bits.iter().enumerate() {
                    let (a, b) = (active[l].lsb() ^ zeros[l].lsb(), active[width + l].lsb() ^ zeros[width + l].lsb());
                    prop_assert_eq!((a, b), (x, y));
                    let (zero, got) = (garbled_zeros[out + l], evaluated[0][out + l]);
                    prop_assert_eq!(got, zero ^ if x && y { delta } else { Block::ZERO });
                    prop_assert_eq!(got.lsb() ^ zero.lsb(), a && b, "lane {} decodes to a ∧ b", l);
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "AND table rows")]
fn and_gate_rows_are_checked_before_any_backend_runs() {
    let gate = AndGate { a: 0, b: 4, out: 8, width: 4, gate: 1, stride: 3 };
    let mut labels = vec![Block::ZERO; 12];
    // Lane 3 is gate 10: its rows end at byte 352.
    backend().garble_and(&Aes128::new(Block::ZERO), &mut labels, gate, Block::ONES, &mut [0; 351]);
}
