//! Machine-readable benchmark emitter: writes a `BENCH_*.json` with one
//! entry per table workload (offline/online bytes plus wall-clock), and —
//! as the **first entry** — the silent-vs-IKNP offline comparison, with
//! the ≥10× OT-extension reduction enforced at generation time so a
//! regression can never be committed inside a fresh benchmark file.
//!
//! Run via `scripts/check.sh --bench`, or directly:
//!
//! ```text
//! cargo run --release -p abnn2-bench --bin bench_json -- BENCH_foo.json
//! ```
//!
//! The output path is the first non-flag argument (default
//! `BENCH_latest.json` in the current directory). The JSON is
//! hand-serialized — the workspace deliberately carries no serde
//! dependency.
//!
//! With `--transformer` the file instead carries the quantized-encoder
//! workload: cold (interactive matrix-triple) and warm (dealer-bundle)
//! offline costs plus the online phase of one transformer prediction,
//! bit-exactness against the plaintext oracle asserted at generation
//! time.
//!
//! With `--crypto` the file carries the primitive-layer microbench:
//! blocks/sec per [`CryptoBackend`] for raw
//! AES, MMO hashing, and CTR-mode PRG fill, plus the IKNP bit-matrix
//! transpose wall time, plus the `curve`
//! group: the scalar-multiplication and encoding kernels under base-OT
//! setup and a 128-OT batch, each a median of 11 runs, plus what sits
//! between OT extension and a triplet: the `fragment_masks` group (ns per
//! (OT, symbol) mask for sender and chooser, KK13 and silent, the batched
//! call beside a loop of one-row calls) and `triplet_attribution` (one
//! 128×128 o=1 triplet split into extension, masks and pack+decode per
//! offline mode). When the CPU has AES-NI the ≥ 4× speedup over the
//! portable backend on AES and MMO and the ≥ 3× of every batched mask
//! derivation over its one-row loop are asserted at generation time, so a
//! regression in the accelerated path can never be committed inside a
//! fresh benchmark file.
//! `scripts/check.sh --bench` writes all three files.

use abnn2_bench::{paper_quantized, run_abnn2_e2e, run_offline_triplets_with, run_quotient_e2e};
use abnn2_core::bundle::dealer_bundle_for;
use abnn2_core::complexity;
use abnn2_core::graph::{SecureGraph, ServedModel};
use abnn2_core::inference::{SecureClient, SecureServer};
use abnn2_core::matmul::{
    triplet_client, triplet_client_with, triplet_server, triplet_server_with, TripletConfig,
    TripletMode, MASKS_PER_CHUNK,
};
use abnn2_core::relu::ReluVariant;
use abnn2_crypto::curve::{EdwardsPoint, PointTable};
use abnn2_crypto::{aes_ni_available, choose_backend, Aes128, Block, CryptoBackend};
use abnn2_math::{FragmentScheme, Matrix, Ring};
use abnn2_net::wire::tags;
use abnn2_net::{run_pair, Endpoint, InstrumentedTransport, NetworkModel, PhaseStats};
use abnn2_nn::quant::QuantConfig;
use abnn2_nn::transformer::QuantizedTransformer;
use abnn2_ot::{
    FragmentChooser, FragmentChooserKeys, FragmentSender, FragmentSenderKeys, OfflineMode,
};
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// Formats a metric value: integers stay integers, everything else gets
/// four decimals (enough for seconds and reduction factors).
fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// One JSON entry; `metrics` keys are emitted in order.
fn entry(name: &str, workload: &str, kind: &str, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> =
        metrics.iter().map(|(k, v)| format!("      \"{k}\": {}", num(*v))).collect();
    format!(
        "    {{\n      \"name\": \"{name}\",\n      \"workload\": \"{workload}\",\n      \
         \"kind\": \"{kind}\",\n{}\n    }}",
        body.join(",\n")
    )
}

/// Per-tag traffic of one triplet generation on a single `m×n` layer
/// (batch `o`) under `ot`: (extension bytes, total bytes).
fn triplet_tagged(ot: OfflineMode, m: usize, n: usize, o: usize) -> (u64, u64) {
    let scheme = FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]);
    let ring = Ring::new(32);
    let weights = {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let (lo, hi) = scheme.weight_range();
        (0..m * n).map(|_| rng.gen_range(lo..=hi)).collect::<Vec<i64>>()
    };
    let (server_ep, client_ep) = Endpoint::pair(NetworkModel::instant());
    let mut client_ch = InstrumentedTransport::new(client_ep);
    let handle = client_ch.handle();
    let (s1, s2) = (scheme.clone(), scheme);
    let mode = TripletMode::for_batch(o);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut ch = server_ep;
            let mut rng = rand::rngs::StdRng::seed_from_u64(42);
            let mut kk = FragmentChooser::setup(&mut ch, ot, &mut rng).expect("setup");
            triplet_server(&mut ch, &mut kk, &weights, m, n, o, &s1, ring, mode).expect("server");
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let mut kk = FragmentSender::setup(&mut client_ch, ot, &mut rng).expect("setup");
        let r = Matrix::random(n, o, &ring, &mut rng);
        triplet_client(&mut client_ch, &mut kk, &r, m, &s2, ring, mode, &mut rng).expect("client");
    });
    let ext = match ot {
        OfflineMode::Iknp => handle.tag(tags::KK_COLUMNS).total_bytes(),
        OfflineMode::Silent => [
            tags::SILENT_BASE_COLUMNS,
            tags::SILENT_DERAND,
            tags::SILENT_SPCOT_MASKS,
            tags::SILENT_SPCOT_SUMS,
        ]
        .iter()
        .map(|&t| handle.tag(t).total_bytes())
        .sum(),
    };
    (ext, handle.total().total_bytes())
}

/// The transformer workload: one quantized encoder block (4 tokens of
/// width 4, feed-forward 8, 3 classes) predicted end to end, measured
/// cold (interactive Gilboa matrix triples) and warm (dealer bundle).
fn transformer_entries(entries: &mut Vec<String>) {
    let config = QuantConfig {
        ring: Ring::new(16),
        frac_bits: 6,
        weight_frac_bits: 2,
        scheme: FragmentScheme::optimal(4),
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(81);
    let model = QuantizedTransformer::random(4, 4, 8, 3, config, &mut rng).expect("transformer");
    let x: Vec<u64> = (0..model.seq * model.d)
        .map(|_| model.config.ring.reduce(rng.gen_range(-64i64..64) as u64))
        .collect();
    let expected = model.forward_exact(&x);
    let workload = "encoder block seq 4, d 4, d_ff 8, 3 classes, eta 4, ring 2^16, batch 1";

    // Cold path: interactive offline (matrix Beaver triples over Gilboa
    // cross-products) then the online phase, instrumented client-side.
    let (server_ep, client_ep) = Endpoint::pair(NetworkModel::instant());
    let mut cch = InstrumentedTransport::new(client_ep);
    let handle = cch.handle();
    let server = SecureServer::for_model(model.clone());
    let client = SecureClient::for_model(&model);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut ch = server_ep;
            let mut rng = rand::rngs::StdRng::seed_from_u64(82);
            server.run(&mut ch, 1, &mut rng).expect("bench server");
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(83);
        let state = client.offline(&mut cch, 1, &mut rng).expect("bench offline");
        let y = client
            .online_raw(&mut cch, state, std::slice::from_ref(&x), &mut rng)
            .expect("bench online");
        assert_eq!(y.col(0), expected, "bench transformer must be bit-exact");
    });
    let wall = t0.elapsed();
    // The executors mark per-op sub-phases (`offline:op3/matmulss`, …);
    // each headline phase is the sum over its own.
    let phases = handle.phases();
    let offline = PhaseStats::sum_named(&phases, "offline").total_bytes();
    let online = PhaseStats::sum_named(&phases, "online").total_bytes();
    let openings = handle.tag(tags::MATMUL_OPENINGS).total_bytes();
    eprintln!(
        "[transformer_e2e_cold] offline {offline} B + online {online} B \
         (matmul openings {openings} B)"
    );
    entries.push(entry(
        "transformer_e2e_cold",
        workload,
        "measured",
        &[
            ("offline_bytes", offline as f64),
            ("online_bytes", online as f64),
            ("matmul_opening_bytes", openings as f64),
            ("wall_secs", wall.as_secs_f64()),
        ],
    ));

    // Warm path: the dealer bundle a precompute pool would hand over in
    // place of the whole interactive offline phase.
    let served = ServedModel::from(model.clone());
    let sg = SecureGraph::new(model.graph().clone(), 1).expect("secure graph");
    let t1 = Instant::now();
    let (_, cb) = dealer_bundle_for(&served, &sg, &mut rng);
    let deal_wall = t1.elapsed();
    let bundle_bytes = cb.encode(model.config.ring).len() as u64;
    eprintln!("[transformer_warm_bundle] bundle {bundle_bytes} B vs cold offline {offline} B");
    entries.push(entry(
        "transformer_warm_bundle",
        workload,
        "measured",
        &[
            ("bundle_bytes", bundle_bytes as f64),
            ("cold_offline_bytes", offline as f64),
            ("offline_reduction", offline as f64 / bundle_bytes as f64),
            ("deal_wall_secs", deal_wall.as_secs_f64()),
        ],
    ));
}

/// Blocks per primitive-microbench batch: large enough that the 8-lane
/// AES-NI main loop dominates, small enough to stay L2-resident.
const CRYPTO_BATCH: usize = 1 << 14;

/// Runs `op` on a fresh `CRYPTO_BATCH`-block buffer, doubling the
/// repetition count until the timed region exceeds 50 ms, and returns
/// blocks/sec from the final (longest, least noisy) run.
fn blocks_per_sec(mut op: impl FnMut(&mut [Block])) -> f64 {
    let mut reps = 1usize;
    loop {
        let mut buf: Vec<Block> = (0..CRYPTO_BATCH)
            .map(|i| Block::from(0x9e37_79b9_7f4a_7c15u128.wrapping_mul(i as u128 + 1)))
            .collect();
        let t0 = Instant::now();
        for _ in 0..reps {
            op(&mut buf);
        }
        let secs = t0.elapsed().as_secs_f64();
        if secs >= 0.05 || reps >= 1 << 20 {
            return (reps * CRYPTO_BATCH) as f64 / secs;
        }
        reps *= 2;
    }
}

/// Times one IKNP-shaped bit-matrix transpose (κ = 128 columns of `m`
/// bits), returning seconds per transpose.
fn transpose_secs(m: usize) -> f64 {
    let cols: Vec<Vec<u8>> = (0..abnn2_ot::KAPPA)
        .map(|i| (0..m.div_ceil(8)).map(|j| (i * 31 + j * 7) as u8).collect())
        .collect();
    let mut reps = 1usize;
    loop {
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(abnn2_ot::bits::transpose_columns_par(
                std::hint::black_box(&cols),
                m,
                1,
            ));
        }
        let secs = t0.elapsed().as_secs_f64();
        if secs >= 0.05 || reps >= 1 << 20 {
            return secs / reps as f64;
        }
        reps *= 2;
    }
}

/// Timed repetitions behind every `curve`, `fragment_masks` and
/// `triplet_attribution` row: the median is reported with the min and max
/// beside it.
const CURVE_RUNS: usize = 11;

/// Runs `sample` [`CURVE_RUNS`] times and records them with
/// [`push_runs`].
fn push_spread(
    metrics: &mut Vec<(String, f64)>,
    name: &str,
    mut sample: impl FnMut() -> f64,
) -> f64 {
    push_runs(metrics, name, (0..CURVE_RUNS).map(|_| sample()).collect())
}

/// Appends `name` (the median of `runs`), `name_min` and `name_max` to
/// `metrics` and returns the median.
fn push_runs(metrics: &mut Vec<(String, f64)>, name: &str, mut runs: Vec<f64>) -> f64 {
    runs.sort_by(f64::total_cmp);
    let (median, min, max) = (runs[runs.len() / 2], runs[0], runs[runs.len() - 1]);
    eprintln!("[spread] {name} {median:.2} (min {min:.2}, max {max:.2})");
    metrics.push((name.to_owned(), median));
    metrics.push((format!("{name}_min"), min));
    metrics.push((format!("{name}_max"), max));
    median
}

/// Runs both parties of a fragment-OT session on their own threads over
/// an in-memory channel — setup, a barrier, then the timed part — and
/// returns what each timed part returned with the seconds the slower took.
fn fragment_duet<A: Send, B: Send>(
    ot: OfflineMode,
    chooser: impl FnOnce(&mut Endpoint, &mut FragmentChooser) -> A + Send,
    sender: impl FnOnce(&mut Endpoint, &mut FragmentSender) -> B + Send,
) -> (A, B, f64) {
    let (mut server_ep, mut client_ep) = Endpoint::pair(NetworkModel::instant());
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(42);
            let mut kk = FragmentChooser::setup(&mut server_ep, ot, &mut rng).expect("setup");
            start.wait();
            let t0 = Instant::now();
            (chooser(&mut server_ep, &mut kk), t0.elapsed().as_secs_f64())
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let mut kk = FragmentSender::setup(&mut client_ep, ot, &mut rng).expect("setup");
        start.wait();
        let t0 = Instant::now();
        let b = sender(&mut client_ep, &mut kk);
        let client_secs = t0.elapsed().as_secs_f64();
        let (a, server_secs) = server.join().expect("chooser thread");
        (a, b, server_secs.max(client_secs))
    })
}

/// Derives every sender mask of `keys` at radix `n` the way a triplet
/// does — bounded batches — and returns the seconds it took.
fn time_sender_masks(keys: &FragmentSenderKeys, n: u64, len: usize) -> f64 {
    let per_chunk = MASKS_PER_CHUNK / n as usize;
    let mut out = vec![0u8; MASKS_PER_CHUNK * len];
    let t0 = Instant::now();
    for at in (0..keys.len()).step_by(per_chunk) {
        let ots = at..(at + per_chunk).min(keys.len());
        let out = &mut out[..ots.len() * n as usize * len];
        keys.masks(ots, 0..n, len, black_box(out));
    }
    t0.elapsed().as_secs_f64()
}

/// [`time_sender_masks`] for the chooser's one mask per OT.
fn time_chooser_masks(keys: &FragmentChooserKeys, len: usize) -> f64 {
    let mut out = vec![0u8; MASKS_PER_CHUNK * len];
    let t0 = Instant::now();
    for at in (0..keys.len()).step_by(MASKS_PER_CHUNK) {
        let ots = at..(at + MASKS_PER_CHUNK).min(keys.len());
        let out = &mut out[..ots.len() * len];
        keys.masks(ots, len, black_box(out));
    }
    t0.elapsed().as_secs_f64()
}

/// The `fragment_masks` group of `--crypto`: what one (OT, symbol) mask
/// costs each party under each OT mode, derived in bounded batches as
/// `core::matmul` does and, beside it, by one call per (OT, symbol).
/// With AES-NI present, asserts the ≥ 3× the batch exists to deliver.
fn fragment_masks_entry() -> String {
    const OTS: usize = 4096;
    let mut metrics = Vec::new();
    for (ot, ot_name) in [(OfflineMode::Iknp, "kk13"), (OfflineMode::Silent, "silent")] {
        for n in [4u64, 16] {
            let symbols: Vec<u64> = {
                let mut rng = rand::rngs::StdRng::seed_from_u64(44);
                (0..OTS).map(|_| rng.gen_range(0..n)).collect()
            };
            let (ck, sk, _) = fragment_duet(
                ot,
                |ch, kk| kk.extend(ch, &symbols, n).expect("chooser extend"),
                |ch, kk| kk.extend(ch, OTS, n).expect("sender extend"),
            );
            for len in [4usize, 32] {
                let per_mask = |secs: f64, masks: usize| secs * 1e9 / masks as f64;
                let mut one = vec![0u8; len];
                let row = format!("{ot_name}_n{n}_len{len}");
                let pairs = [
                    (
                        push_spread(&mut metrics, &format!("{row}_sender_batched_ns"), || {
                            per_mask(time_sender_masks(&sk, n, len), OTS * n as usize)
                        }),
                        push_spread(&mut metrics, &format!("{row}_sender_one_row_ns"), || {
                            let t0 = Instant::now();
                            for j in 0..OTS {
                                for v in 0..n {
                                    sk.masks(j..j + 1, v..v + 1, len, black_box(&mut one));
                                }
                            }
                            per_mask(t0.elapsed().as_secs_f64(), OTS * n as usize)
                        }),
                    ),
                    (
                        push_spread(&mut metrics, &format!("{row}_chooser_batched_ns"), || {
                            per_mask(time_chooser_masks(&ck, len), OTS)
                        }),
                        push_spread(&mut metrics, &format!("{row}_chooser_one_row_ns"), || {
                            let t0 = Instant::now();
                            for j in 0..OTS {
                                ck.masks(j..j + 1, len, black_box(&mut one));
                            }
                            per_mask(t0.elapsed().as_secs_f64(), OTS)
                        }),
                    ),
                ];
                for (batched, one_row) in pairs {
                    assert!(
                        !aes_ni_available() || one_row >= 3.0 * batched,
                        "{row}: batched masks must be >= 3x the one-row loop with AES-NI: \
                         {batched:.1} vs {one_row:.1} ns"
                    );
                }
            }
        }
    }
    let metrics: Vec<(&str, f64)> = metrics.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    entry(
        "fragment_masks",
        &format!(
            "ns per (OT, symbol) mask over {OTS} OTs, batches of {MASKS_PER_CHUNK} masks beside \
             one call per mask, median of {CURVE_RUNS} runs with min/max, single core"
        ),
        "measured",
        &metrics,
    )
}

/// The `triplet_attribution` row of `--crypto`: one 128×128 triplet at
/// o = 1 over the served (2,2) scheme per offline mode, beside the same
/// session running only its two fragment-OT extensions and the mask
/// derivation of both parties on the keys those return. Both are on the
/// triplet's critical path (the parties alternate), so what is left —
/// `pack_decode_ms`, from the medians — is message packing, decoding and
/// the hand-off of the two ciphertext frames.
fn triplet_attribution_entry() -> String {
    let (m, n) = (128usize, 128usize);
    let scheme = FragmentScheme::signed_bit_fields(&[2, 2]);
    let ring = Ring::new(32);
    let cfg = TripletConfig::new(TripletMode::OneBatch);
    let weights: Vec<i64> = {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let (lo, hi) = scheme.weight_range();
        (0..m * n).map(|_| rng.gen_range(lo..=hi)).collect()
    };
    let digits: Vec<Vec<u64>> = weights.iter().map(|&w| scheme.decompose(w)).collect();
    let r = Matrix::random(n, 1, &ring, &mut rand::rngs::StdRng::seed_from_u64(45));
    let ms = |secs: f64| secs * 1e3;

    let mut metrics = Vec::new();
    for (ot, ot_name) in [(OfflineMode::Iknp, "iknp"), (OfflineMode::Silent, "silent")] {
        let total = push_spread(&mut metrics, &format!("{ot_name}_total_ms"), || {
            let (.., secs) = fragment_duet(
                ot,
                |ch, kk| {
                    triplet_server_with(ch, kk, &weights, m, n, 1, &scheme, ring, cfg)
                        .expect("triplet server")
                },
                |ch, kk| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(46);
                    triplet_client_with(ch, kk, &r, m, &scheme, ring, cfg, &mut rng)
                        .expect("triplet client")
                },
            );
            ms(secs)
        });
        // Each run times the two extensions, then mask derivation on the
        // keys they returned.
        let run = |_| {
            let (chooser_keys, sender_keys, secs) = fragment_duet(
                ot,
                |ch, kk| {
                    (scheme.fragments().iter().enumerate())
                        .map(|(g, frag)| {
                            let choices: Vec<u64> = digits.iter().map(|d| d[g]).collect();
                            kk.extend(ch, &choices, frag.n).expect("chooser extend")
                        })
                        .collect::<Vec<_>>()
                },
                |ch, kk| {
                    (scheme.fragments().iter())
                        .map(|frag| kk.extend(ch, m * n, frag.n).expect("sender extend"))
                        .collect::<Vec<_>>()
                },
            );
            let len = ring.byte_len();
            let sender: f64 = (sender_keys.iter().zip(scheme.fragments()))
                .map(|(keys, frag)| time_sender_masks(keys, frag.n, len))
                .sum();
            let chooser: f64 = chooser_keys.iter().map(|keys| time_chooser_masks(keys, len)).sum();
            (ms(secs), ms(sender + chooser))
        };
        let (extension, masks): (Vec<f64>, Vec<f64>) = (0..CURVE_RUNS).map(run).unzip();
        let extension = push_runs(&mut metrics, &format!("{ot_name}_extension_ms"), extension);
        let masks = push_runs(&mut metrics, &format!("{ot_name}_masks_ms"), masks);
        metrics.push((format!("{ot_name}_pack_decode_ms"), total - extension - masks));
    }
    let metrics: Vec<(&str, f64)> = metrics.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    entry(
        "triplet_attribution",
        &format!(
            "128x128 triplet, o=1, (2,2), ring 2^32, one thread a party, setup excluded; \
             median of {CURVE_RUNS} runs with min/max, pack_decode = total - extension - masks"
        ),
        "measured",
        &metrics,
    )
}

/// The `curve` group of `--crypto`: the three kernels under base-OT setup
/// (variable-base windowed multiplication, fixed-base table multiplication,
/// batch-normalised point encoding) and the 128-OT batch they add up to.
fn curve_entry() -> String {
    const OPS: usize = 64;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC25519);
    let scalars: Vec<[u8; 32]> = (0..OPS)
        .map(|_| {
            let mut s = [0u8; 32];
            rng.fill(&mut s);
            s
        })
        .collect();
    let points: Vec<EdwardsPoint> = scalars.iter().map(|s| PointTable::base().mul(s)).collect();
    let us_per_op = |t0: Instant| t0.elapsed().as_secs_f64() * 1e6 / OPS as f64;

    let mut metrics = Vec::new();
    push_spread(&mut metrics, "scalar_mul_var_us", || {
        let t0 = Instant::now();
        for s in &scalars {
            black_box(black_box(&points[0]).scalar_mul(black_box(s)));
        }
        us_per_op(t0)
    });
    push_spread(&mut metrics, "scalar_mul_table_us", || {
        let t0 = Instant::now();
        for s in &scalars {
            black_box(PointTable::base().mul(black_box(s)));
        }
        us_per_op(t0)
    });
    push_spread(&mut metrics, "point_encode_us", || {
        let t0 = Instant::now();
        black_box(EdwardsPoint::batch_to_bytes(black_box(&points)));
        us_per_op(t0)
    });
    push_spread(&mut metrics, "base_ot_128_ms", || {
        let pairs = vec![(Block::from(1u128), Block::from(2u128)); abnn2_ot::KAPPA];
        let choices: Vec<bool> = (0..abnn2_ot::KAPPA).map(|i| i % 3 == 0).collect();
        let (_, _, report) = run_pair(
            NetworkModel::instant(),
            |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(1);
                abnn2_ot::base::send(ch, &pairs, &mut rng).expect("base-OT sender");
            },
            |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(2);
                abnn2_ot::base::recv(ch, &choices, &mut rng).expect("base-OT chooser");
            },
        );
        report.wall.as_secs_f64() * 1e3
    });
    let metrics: Vec<(&str, f64)> = metrics.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    entry(
        "curve",
        &format!("{OPS} ops per run, median of {CURVE_RUNS} runs with min/max, single core"),
        "measured",
        &metrics,
    )
}

/// The `--crypto` workload: per-backend blocks/sec for the three
/// fixed-key [`CryptoBackend`] primitives, the IKNP transpose wall time,
/// the curve kernels, and the mask derivation between OT extension and a
/// triplet. With AES-NI present, asserts the ≥ 4× AES/MMO speedup the
/// backend exists to deliver.
fn crypto_entries(entries: &mut Vec<String>) {
    let workload = format!("{CRYPTO_BATCH} blocks/batch, fixed key, single core per backend");
    let mut throughput = Vec::new(); // (backend name, aes, mmo, prg)
    let mut backends: Vec<&'static dyn CryptoBackend> = vec![choose_backend(Some("portable"))];
    if aes_ni_available() {
        backends.push(choose_backend(Some("aesni")));
    }
    for be in backends {
        let aes = Aes128::new(Block::from(0x2b7e_1516_28ae_d2a6_abf7_1588_09cf_4f3cu128));
        let aes_bps = blocks_per_sec(|buf| be.aes_encrypt_blocks(&aes, buf));
        let mmo_bps = blocks_per_sec(|buf| be.mmo_hash_blocks(&aes, buf));
        let prg_bps = blocks_per_sec(|buf| be.prg_fill(&aes, 7, buf));
        eprintln!(
            "[crypto_backend_{}] aes {:.1} Mblk/s, mmo {:.1} Mblk/s, prg {:.1} Mblk/s",
            be.name(),
            aes_bps / 1e6,
            mmo_bps / 1e6,
            prg_bps / 1e6
        );
        entries.push(entry(
            &format!("crypto_backend_{}", be.name()),
            &workload,
            "measured",
            &[
                ("aes_blocks_per_sec", aes_bps),
                ("mmo_blocks_per_sec", mmo_bps),
                ("prg_blocks_per_sec", prg_bps),
            ],
        ));
        throughput.push((be.name(), aes_bps, mmo_bps, prg_bps));
    }

    if let [(_, p_aes, p_mmo, _), (_, n_aes, n_mmo, _)] = throughput[..] {
        let (aes_x, mmo_x) = (n_aes / p_aes, n_mmo / p_mmo);
        assert!(
            aes_x >= 4.0 && mmo_x >= 4.0,
            "AES-NI backend must be >= 4x portable: aes {aes_x:.2}x, mmo {mmo_x:.2}x"
        );
        entries.push(entry(
            "crypto_backend_speedup",
            &workload,
            "pinned",
            &[("aes_speedup", aes_x), ("mmo_speedup", mmo_x)],
        ));
    } else {
        eprintln!("[crypto_backend_speedup] skipped: CPU has no AES-NI");
    }

    // The other half of the offline hot path: the KAPPA-column bit-matrix
    // transpose, at the silent-OT refill size.
    let m = 1 << 13;
    let us = transpose_secs(m) * 1e6;
    eprintln!("[iknp_transpose] {m} OTs: {us:.1} us");
    entries.push(entry(
        "iknp_transpose",
        &format!("128 columns x {m} bits to {m} heap rows, one thread"),
        "measured",
        &[("wall_us", us)],
    ));

    entries.push(curve_entry());
    entries.push(fragment_masks_entry());
    entries.push(triplet_attribution_entry());
}

fn main() {
    let transformer = std::env::args().any(|a| a == "--transformer");
    let crypto = std::env::args().any(|a| a == "--crypto");
    let out_path = std::env::args().skip(1).find(|a| !a.starts_with("--")).unwrap_or_else(|| {
        if transformer {
            "BENCH_transformer.json"
        } else if crypto {
            "BENCH_crypto.json"
        } else {
            "BENCH_latest.json"
        }
        .to_owned()
    });
    let mut entries = Vec::new();

    if transformer || crypto {
        if transformer {
            transformer_entries(&mut entries);
        } else {
            crypto_entries(&mut entries);
        }
        let json = format!(
            "{{\n  \"schema\": \"abnn2-bench/v1\",\n  \"entries\": [\n{}\n  ]\n}}\n",
            entries.join(",\n")
        );
        std::fs::write(&out_path, &json).expect("write BENCH json");
        println!("wrote {out_path}");
        return;
    }

    // First entry: the silent subsystem's headline, on the Fig-4 first
    // layer (128×784) at η = 8. The ≥10× extension-bytes reduction is
    // asserted here so every generated BENCH file re-proves the claim.
    {
        let (m, n, o) = (128usize, 784usize, 1usize);
        let t0 = Instant::now();
        let (iknp_ext, iknp_total) = triplet_tagged(OfflineMode::Iknp, m, n, o);
        let iknp_wall = t0.elapsed();
        let t1 = Instant::now();
        let (silent_ext, silent_total) = triplet_tagged(OfflineMode::Silent, m, n, o);
        let silent_wall = t1.elapsed();
        let ext_reduction = iknp_ext as f64 / silent_ext as f64;
        assert!(
            silent_ext * 10 <= iknp_ext,
            "silent extension bytes regressed below 10x: {silent_ext} vs {iknp_ext}"
        );
        eprintln!(
            "[silent_vs_iknp_offline] extension {iknp_ext} -> {silent_ext} B ({ext_reduction:.1}x), \
             offline total {iknp_total} -> {silent_total} B"
        );
        entries.push(entry(
            "silent_vs_iknp_offline",
            "Fig-4 layer 1 (128x784), eta 8 (2,2,2,2), ring 2^32, batch 1",
            "pinned",
            &[
                ("iknp_extension_bytes", iknp_ext as f64),
                ("silent_extension_bytes", silent_ext as f64),
                ("extension_reduction", ext_reduction),
                ("iknp_offline_bytes", iknp_total as f64),
                ("silent_offline_bytes", silent_total as f64),
                ("offline_reduction", iknp_total as f64 / silent_total as f64),
                ("iknp_wall_secs", iknp_wall.as_secs_f64()),
                ("silent_wall_secs", silent_wall.as_secs_f64()),
            ],
        ));
    }

    // Table 1: analytic OT complexity — no wire traffic to measure.
    {
        let (m, n, l) = (128usize, 784usize, 32u32);
        let sml = complexity::secureml(m, n, 1, l);
        let ours = complexity::ours_one_batch(m, n, l, 4, 4);
        entries.push(entry(
            "table1_analytic_complexity",
            "128x784 matrix-vector, ring 2^32, eta 8 (gamma=4, N=4)",
            "analytic",
            &[
                ("secureml_comm_bytes", sml.comm_bits / 8.0),
                ("ours_comm_bytes", ours.comm_bits / 8.0),
                ("secureml_ot_count", sml.ot_count),
                ("ours_ot_count", ours.ot_count),
            ],
        ));
    }

    // Table 2: offline triplet generation for the whole Fig-4 network.
    {
        let net = paper_quantized(FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]), 32);
        let t0 = Instant::now();
        let iknp =
            run_offline_triplets_with(&net, 1, NetworkModel::instant(), OfflineMode::Iknp, 51);
        let iknp_wall = t0.elapsed();
        let t1 = Instant::now();
        let silent =
            run_offline_triplets_with(&net, 1, NetworkModel::instant(), OfflineMode::Silent, 51);
        let silent_wall = t1.elapsed();
        eprintln!("[table2_offline_triplets] iknp {} B, silent {} B", iknp.bytes, silent.bytes);
        entries.push(entry(
            "table2_offline_triplets",
            "Fig-4 network (784-128-128-10), eta 8 (2,2,2,2), ring 2^32, batch 1",
            "measured",
            &[
                ("iknp_offline_bytes", iknp.bytes as f64),
                ("silent_offline_bytes", silent.bytes as f64),
                ("iknp_simulated_secs", iknp.time.as_secs_f64()),
                ("silent_simulated_secs", silent.time.as_secs_f64()),
                ("iknp_wall_secs", iknp_wall.as_secs_f64()),
                ("silent_wall_secs", silent_wall.as_secs_f64()),
            ],
        ));
    }

    // Table 3: single-layer matmul microbenchmark (quick shape d=100).
    {
        let t0 = Instant::now();
        let (_, bytes) = triplet_tagged(OfflineMode::Iknp, 128, 100, 1);
        let wall = t0.elapsed();
        entries.push(entry(
            "table3_matmul_microbench",
            "128x100 matrix-vector triplet, eta 8 (2,2,2,2), ring 2^32",
            "measured",
            &[("offline_bytes", bytes as f64), ("wall_secs", wall.as_secs_f64())],
        ));
    }

    // Table 4: end-to-end secure prediction (quick shape: batch 1, LAN).
    {
        let net = paper_quantized(FragmentScheme::signed_bit_fields(&[2, 2]), 32);
        let t0 = Instant::now();
        let st = run_abnn2_e2e(&net, 1, NetworkModel::lan(), ReluVariant::Oblivious, 61);
        let wall = t0.elapsed();
        eprintln!(
            "[table4_e2e] offline {} B + online {} B, simulated {:.2}s",
            st.offline_bytes,
            st.online_bytes,
            st.total().as_secs_f64()
        );
        entries.push(entry(
            "table4_e2e_prediction",
            "Fig-4 network, eta 4 (2,2), ring 2^32, batch 1, LAN",
            "measured",
            &[
                ("offline_bytes", st.offline_bytes as f64),
                ("online_bytes", st.online_bytes as f64),
                ("total_bytes", st.bytes as f64),
                ("offline_simulated_secs", st.offline.as_secs_f64()),
                ("online_simulated_secs", st.online.as_secs_f64()),
                ("wall_secs", wall.as_secs_f64()),
            ],
        ));
    }

    // Table 5: QUOTIENT comparison at ternary weights (quick shape).
    {
        let net = paper_quantized(FragmentScheme::ternary(), 32);
        let t0 = Instant::now();
        let ours = run_abnn2_e2e(&net, 1, NetworkModel::lan(), ReluVariant::Oblivious, 71);
        let quo = run_quotient_e2e(&net, 1, NetworkModel::lan(), 72);
        let wall = t0.elapsed();
        entries.push(entry(
            "table5_quotient_comparison",
            "Fig-4 network, ternary, ring 2^32, batch 1, LAN",
            "measured",
            &[
                ("ours_offline_bytes", ours.offline_bytes as f64),
                ("ours_online_bytes", ours.online_bytes as f64),
                ("ours_simulated_secs", ours.total().as_secs_f64()),
                ("quotient_total_bytes", quo.bytes as f64),
                ("quotient_simulated_secs", quo.total().as_secs_f64()),
                ("wall_secs", wall.as_secs_f64()),
            ],
        ));
    }

    let json = format!(
        "{{\n  \"schema\": \"abnn2-bench/v1\",\n  \"entries\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write BENCH json");
    println!("wrote {out_path}");
}
