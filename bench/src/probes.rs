//! Per-layer probes: each crate's public functions timed from outside,
//! median of `reps` repetitions, calibrated like the served requests.
//! Two-party probes run the server half on a second thread over an
//! in-memory `Endpoint`, set-up outside the timed region.

use crate::calib::{self, Calibrator};
use crate::json::Metrics;
use crate::stats::median;
use crate::workloads::{Model, Workload};
use abnn2_core::bundle::dealer_bundle_for;
use abnn2_core::driver::{DriverStep, NullHost, SessionDriver};
use abnn2_core::matbeaver::{generate_matrix_p0, generate_matrix_p1};
use abnn2_core::matmul::{triplet_client_with, triplet_server_with, TripletConfig, TripletMode};
use abnn2_core::nonlinear::{
    gelu_client, gelu_server, layernorm_client, layernorm_server, softmax_client, softmax_server,
};
use abnn2_core::relu::{relu_client, relu_server};
use abnn2_core::{
    OfflineMode, ReluVariant, SecureClient, SecureGraph, SecureServer, SessionParams,
};
use abnn2_crypto::curve::EdwardsPoint;
use abnn2_crypto::{Aes128, Block};
use abnn2_gc::yao::{YaoEvaluator, YaoGarbler};
use abnn2_gc::{circuits, garble};
use abnn2_math::{FragmentScheme, Matrix, Ring};
use abnn2_net::wire::tags;
use abnn2_net::{Endpoint, FrameBuffer, NetworkModel, TcpTransport, Transport, TransportError};
use abnn2_nn::graph::LayerOp;
use abnn2_ot::{
    FragmentChooser, FragmentSender, IknpReceiver, IknpSender, KkChooser, KkSender,
    SilentCotReceiver, SilentCotSender,
};
use abnn2_serve::Server;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Blocks per crypto slice: the 8-lane AES-NI loop dominates, the slice
/// stays in L2.
const CRYPTO_BLOCKS: usize = 1 << 14;
/// OTs per extension probe.
const OTS: usize = 1 << 16;
/// Rows of the IKNP-shaped bit matrix (the silent-OT refill size).
const TRANSPOSE_ROWS: usize = 1 << 13;
/// Fig-4 layer 2: 16 384 OTs per fragment, past the 4 096-OT threshold
/// of the parallel schedule. (Layer 1, 128 × 784, costs 1.5 s a go.)
const TRIPLET_M: usize = 128;
const TRIPLET_N: usize = 128;
const MIB: usize = 1 << 20;
const ACK: [u8; 1] = [0xA5];

pub struct Probes<'a> {
    pub calib: &'a mut Calibrator,
    pub reps: usize,
    pub out: &'a mut Metrics,
}

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn random_bits(n: usize, rng: &mut StdRng) -> Vec<bool> {
    (0..n).map(|_| rng.gen()).collect()
}

fn random_words(n: usize, ring: Ring, rng: &mut StdRng) -> Vec<u64> {
    (0..n).map(|_| ring.reduce(rng.gen())).collect()
}

fn traffic<T: Transport>(ch: &T) -> u64 {
    let s = ch.snapshot();
    s.bytes_sent + s.bytes_received
}

impl Probes<'_> {
    /// Median calibrated milliseconds of `op` over the repetitions.
    fn time_ms(&mut self, mut op: impl FnMut()) -> f64 {
        let samples: Vec<f64> =
            (0..self.reps).map(|_| calib::timed(self.calib, &mut op).1.calibrated()).collect();
        median(&samples)
    }

    /// A two-party probe. Each side sets up once, then runs its half
    /// `reps` times; a repetition ends when the server's half has too
    /// (it acknowledges). Returns the median calibrated milliseconds and
    /// the bytes one repetition moves in both directions.
    fn duet<S, C>(
        &mut self,
        server_setup: impl FnOnce(&mut Endpoint) -> S + Send,
        server_op: impl Fn(&mut Endpoint, &mut S) + Send,
        client_setup: impl FnOnce(&mut Endpoint) -> C,
        mut client_op: impl FnMut(&mut Endpoint, &mut C),
    ) -> (f64, u64) {
        let (mut sch, mut cch) = Endpoint::pair(NetworkModel::instant());
        let reps = self.reps;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut state = server_setup(&mut sch);
                for _ in 0..reps {
                    server_op(&mut sch, &mut state);
                    sch.send(&ACK).expect("probe ack");
                }
            });
            let mut state = client_setup(&mut cch);
            let mut samples = Vec::with_capacity(reps);
            let mut bytes = 0;
            for _ in 0..reps {
                let before = traffic(&cch);
                let ((), sample) = calib::timed(self.calib, || {
                    client_op(&mut cch, &mut state);
                    cch.recv().expect("probe ack");
                });
                bytes = traffic(&cch) - before - ACK.len() as u64;
                samples.push(sample.calibrated());
            }
            (median(&samples), bytes)
        })
    }

    /// A `duet` between a Yao evaluator (the server) and a garbler.
    fn yao_duet(
        &mut self,
        server_op: impl Fn(&mut Endpoint, &mut YaoEvaluator) + Send,
        mut client_op: impl FnMut(&mut Endpoint, &mut YaoGarbler, &mut StdRng),
    ) -> (f64, u64) {
        self.duet(
            |ch| YaoEvaluator::setup(ch, &mut rng(32)).expect("setup"),
            server_op,
            |ch| (YaoGarbler::setup(ch, &mut rng(33)).expect("setup"), rng(34)),
            |ch, (yao, r)| client_op(ch, yao, r),
        )
    }

    pub fn run_all(&mut self) {
        self.crypto();
        self.math_and_nn();
        self.ot();
        self.gc();
        self.core_triplets();
        self.core_nonlinear();
        self.core_driver();
        self.net();
        self.serve();
    }

    fn crypto(&mut self) {
        let backend = abnn2_crypto::backend();
        let aes = Aes128::new(Block::from(0x2b7e_1516_28ae_d2a6_abf7_1588_09cf_4f3cu128));
        let mut buf: Vec<Block> = (0..CRYPTO_BLOCKS)
            .map(|i| Block::from(0x9e37_79b9_7f4a_7c15u128.wrapping_mul(i as u128 + 1)))
            .collect();
        // 64 slices per repetition: about a millisecond with AES-NI.
        const SLICES: usize = 64;
        let mblk_per_s = |ms: f64| (SLICES * CRYPTO_BLOCKS) as f64 / (ms * 1e3);
        let ms = self.time_ms(|| {
            for _ in 0..SLICES {
                backend.aes_encrypt_blocks(&aes, black_box(&mut buf));
            }
        });
        self.out.put("crypto.aes_mblk_per_s", mblk_per_s(ms), "Mblk/s");
        let ms = self.time_ms(|| {
            for _ in 0..SLICES {
                backend.mmo_hash_blocks(&aes, black_box(&mut buf));
            }
        });
        self.out.put("crypto.mmo_mblk_per_s", mblk_per_s(ms), "Mblk/s");
        let ms = self.time_ms(|| {
            for i in 0..SLICES {
                backend.prg_fill(&aes, i as u128, black_box(&mut buf));
            }
        });
        self.out.put("crypto.prg_mblk_per_s", mblk_per_s(ms), "Mblk/s");

        const MULS: usize = 32;
        let base = EdwardsPoint::base();
        let ms = self.time_ms(|| {
            for i in 0..MULS {
                black_box(base.scalar_mul(black_box(&[0x5A ^ i as u8; 32])));
            }
        });
        self.out.put("crypto.curve_scalar_mul_us", ms * 1e3 / MULS as f64, "us");
    }

    fn math_and_nn(&mut self) {
        let ring = Ring::new(32);
        let mut r = rng(11);
        let w = Matrix::random(128, 784, &ring, &mut r);
        let x = Matrix::random(784, 8, &ring, &mut r);
        let ms = self.time_ms(|| {
            black_box(black_box(&w).mul(black_box(&x), &ring));
        });
        self.out.put("math.matmul_128x784x8_us", ms * 1e3, "us");

        let fig4 = Workload::build("fig4_warm").expect("fig4").model;
        let input = fig4.input(&mut r);
        let ms = self.time_ms(|| {
            black_box(fig4.forward_exact(black_box(&input)));
        });
        self.out.put("nn.fig4_forward_exact_us", ms * 1e3, "us");
    }

    fn ot(&mut self) {
        let (ms, _) = self.duet(
            |_| rng(21),
            |ch, r| {
                IknpSender::setup(ch, r).expect("base OT");
            },
            |_| rng(22),
            |ch, r| {
                IknpReceiver::setup(ch, r).expect("base OT");
            },
        );
        self.out.put("ot.base_setup_ms", ms, "ms");

        let choices = random_bits(OTS, &mut rng(23));
        let (ms, bytes) = self.duet(
            |ch| IknpSender::setup(ch, &mut rng(24)).expect("setup"),
            |ch, s| {
                black_box(s.extend_cot(ch, OTS).expect("extend"));
            },
            |ch| IknpReceiver::setup(ch, &mut rng(25)).expect("setup"),
            |ch, r| {
                black_box(r.extend_cot(ch, &choices).expect("extend"));
            },
        );
        self.out.put("ot.iknp_ns_per_cot", ms * 1e6 / OTS as f64, "ns");
        self.out.put("ot.iknp_bytes_per_cot", bytes as f64 / OTS as f64, "bytes");

        // 1-of-4, the radix of the served (2,2) fragment scheme.
        let symbols: Vec<u64> = {
            let mut r = rng(26);
            (0..OTS).map(|_| r.gen_range(0..4u64)).collect()
        };
        let (ms, bytes) = self.duet(
            |ch| KkSender::setup(ch, &mut rng(27)).expect("setup"),
            |ch, s| {
                black_box(s.extend(ch, OTS).expect("extend"));
            },
            |ch| KkChooser::setup(ch, &mut rng(28)).expect("setup"),
            |ch, c| {
                black_box(c.extend(ch, &symbols, 4).expect("extend"));
            },
        );
        self.out.put("ot.kk13_ns_per_ot", ms * 1e6 / OTS as f64, "ns");
        self.out.put("ot.kk13_bytes_per_ot", bytes as f64 / OTS as f64, "bytes");

        let (ms, bytes) = self.duet(
            |ch| SilentCotSender::setup(ch, &mut rng(29)).expect("setup"),
            |ch, s| {
                black_box(s.take(ch, OTS).expect("take"));
            },
            |ch| SilentCotReceiver::setup(ch, &mut rng(30)).expect("setup"),
            |ch, r| {
                black_box(r.take(ch, OTS).expect("take"));
            },
        );
        self.out.put("ot.silent_ns_per_cot", ms * 1e6 / OTS as f64, "ns");
        self.out.put("ot.silent_bytes_per_cot", bytes as f64 / OTS as f64, "bytes");

        let cols: Vec<Vec<u8>> = (0..abnn2_ot::KAPPA)
            .map(|i| (0..TRANSPOSE_ROWS / 8).map(|j| (i * 31 + j * 7) as u8).collect())
            .collect();
        for (threads, name) in [(1, "ot.transpose_8192_us_t1"), (2, "ot.transpose_8192_us_t2")] {
            const ROUNDS: usize = 8;
            let ms = self.time_ms(|| {
                for _ in 0..ROUNDS {
                    black_box(abnn2_ot::bits::transpose_columns_par(
                        black_box(&cols),
                        TRANSPOSE_ROWS,
                        threads,
                    ));
                }
            });
            self.out.put(name, ms * 1e3 / ROUNDS as f64, "us");
        }
    }

    fn gc(&mut self) {
        // The Fig-4 hidden activation: 128 neurons, ring 2^32, shift 4.
        let (bits, n, shift) = (32, 128, 4);
        let ms = self.time_ms(|| {
            black_box(circuits::relu_trunc_reshare_vec_circuit(bits, n, shift));
        });
        self.out.put("gc.relu_circuit_build_us", ms * 1e3, "us");

        let circuit = circuits::relu_trunc_reshare_vec_circuit(bits, n, shift);
        let ands = circuit.and_count() as f64;
        self.out.put("gc.relu_ands_per_elem", ands / n as f64, "count");
        let mut r = rng(31);
        let ms = self.time_ms(|| {
            black_box(garble::garble(&circuit, &mut r));
        });
        self.out.put("gc.garble_ns_per_and", ms * 1e6 / ands, "ns");

        let (garbled, labels) = garble::garble(&circuit, &mut r);
        let gbits = random_bits(circuit.garbler_inputs().len(), &mut r);
        let ebits = random_bits(circuit.evaluator_inputs().len(), &mut r);
        let glabels = labels.select_garbler(&gbits);
        let elabels: Vec<Block> = ebits
            .iter()
            .zip(&labels.evaluator_inputs)
            .map(|(&b, &(zero, one))| if b { one } else { zero })
            .collect();
        let ms = self.time_ms(|| {
            black_box(garble::evaluate(&circuit, &garbled, &glabels, &elabels).expect("evaluate"));
        });
        self.out.put("gc.eval_ns_per_and", ms * 1e6 / ands, "ns");

        let (ms, bytes) = self.yao_duet(
            |ch, yao| {
                black_box(yao.run(ch, &circuit, &ebits).expect("evaluate"));
            },
            |ch, yao, r| yao.run(ch, &circuit, &gbits, r).expect("garble"),
        );
        self.out.put("gc.yao_relu128_ms", ms, "ms");
        self.out.put("gc.yao_relu128_bytes", bytes as f64, "bytes");
    }

    /// One `128 × 128` triplet with `o` input columns under `mode` and
    /// `threads`: median calibrated milliseconds and bytes.
    fn triplet(&mut self, mode: OfflineMode, o: usize, threads: usize) -> (f64, u64) {
        let scheme = FragmentScheme::signed_bit_fields(&[2, 2]);
        let ring = Ring::new(32);
        let (lo, hi) = scheme.weight_range();
        let mut r = rng(41);
        let weights: Vec<i64> = (0..TRIPLET_M * TRIPLET_N).map(|_| r.gen_range(lo..=hi)).collect();
        let masks = Matrix::random(TRIPLET_N, o, &ring, &mut r);
        let cfg = TripletConfig::new(TripletMode::for_batch(o)).with_threads(threads);
        let (s1, s2) = (scheme.clone(), scheme);
        self.duet(
            |ch| {
                let mut kk = FragmentChooser::setup(ch, mode, &mut rng(42)).expect("setup");
                kk.set_threads(threads);
                kk
            },
            |ch, kk| {
                black_box(
                    triplet_server_with(ch, kk, &weights, TRIPLET_M, TRIPLET_N, o, &s1, ring, cfg)
                        .expect("triplet server"),
                );
            },
            |ch| {
                let mut kk = FragmentSender::setup(ch, mode, &mut rng(43)).expect("setup");
                kk.set_threads(threads);
                (kk, rng(44))
            },
            |ch, (kk, r)| {
                black_box(
                    triplet_client_with(ch, kk, &masks, TRIPLET_M, &s2, ring, cfg, r)
                        .expect("triplet client"),
                );
            },
        )
    }

    fn core_triplets(&mut self) {
        let (t1_ms, bytes) = self.triplet(OfflineMode::Iknp, 1, 1);
        self.out.put("core.triplet_128x128_o1_iknp_ms", t1_ms, "ms");
        self.out.put("core.triplet_128x128_o1_iknp_bytes", bytes as f64, "bytes");
        let (ms, bytes) = self.triplet(OfflineMode::Silent, 1, 1);
        self.out.put("core.triplet_128x128_o1_silent_ms", ms, "ms");
        self.out.put("core.triplet_128x128_o1_silent_bytes", bytes as f64, "bytes");
        let (ms, bytes) = self.triplet(OfflineMode::Iknp, 8, 1);
        self.out.put("core.triplet_128x128_o8_iknp_ms", ms, "ms");
        self.out.put("core.triplet_128x128_o8_iknp_bytes", bytes as f64, "bytes");
        let (t2_ms, _) = self.triplet(OfflineMode::Iknp, 1, 2);
        self.out.put("core.triplet_t2_speedup", t1_ms / t2_ms, "ratio");
    }

    fn core_nonlinear(&mut self) {
        let variant = ReluVariant::Oblivious;
        let ring32 = Ring::new(32);
        let mut r = rng(51);
        let (y0, y1, z1) = (
            random_words(128, ring32, &mut r),
            random_words(128, ring32, &mut r),
            random_words(128, ring32, &mut r),
        );
        let (ms, _) = self.yao_duet(
            |ch, yao| {
                black_box(relu_server(ch, yao, &y0, ring32, 4, variant).expect("relu"));
            },
            |ch, yao, r| relu_client(ch, yao, &y1, &z1, ring32, 4, variant, r).expect("relu"),
        );
        self.out.put("core.relu128_ms", ms, "ms");

        // The encoder's own nonlinear ops, at its shapes and shifts.
        let Model::Encoder(encoder) = Workload::build("encoder_warm").expect("encoder").model
        else {
            unreachable!("encoder_warm serves the encoder")
        };
        let (ring, f) = (encoder.config.ring, encoder.config.frac_bits);
        let bits = ring.bits() as usize;
        let ops = &encoder.graph().ops;
        let mut shares = |n: usize| random_words(n, ring, &mut r);

        let Some(&LayerOp::Softmax { rows, cols, shift }) =
            ops.iter().find(|op| matches!(op, LayerOp::Softmax { .. }))
        else {
            unreachable!("the encoder has a softmax")
        };
        let n = rows * cols;
        let (a0, a1, z1) = (shares(n), shares(n), shares(n));
        let circuit =
            circuits::softmax_reshare_vec_circuit(bits, rows, cols, shift as usize, f as usize);
        self.out.put("gc.softmax_ands", circuit.and_count() as f64, "count");
        let (ms, _) = self.yao_duet(
            |ch, yao| {
                black_box(softmax_server(ch, yao, &a0, rows, cols, ring, shift, f).expect("op"));
            },
            |ch, yao, r| {
                softmax_client(ch, yao, &a1, &z1, rows, cols, ring, shift, f, r).expect("op");
            },
        );
        self.out.put("core.softmax_8x8_ms", ms, "ms");

        let Some(&LayerOp::Gelu { dim, shift }) =
            ops.iter().find(|op| matches!(op, LayerOp::Gelu { .. }))
        else {
            unreachable!("the encoder has a GELU")
        };
        let (a0, a1, z1) = (shares(dim), shares(dim), shares(dim));
        let circuit =
            circuits::gelu_trunc_reshare_vec_circuit(bits, dim, shift as usize, f as usize);
        self.out.put("gc.gelu_ands", circuit.and_count() as f64, "count");
        let (ms, _) = self.yao_duet(
            |ch, yao| {
                black_box(gelu_server(ch, yao, &a0, ring, shift, f).expect("op"));
            },
            |ch, yao, r| gelu_client(ch, yao, &a1, &z1, ring, shift, f, r).expect("op"),
        );
        self.out.put("core.gelu_128_ms", ms, "ms");

        let Some(&LayerOp::LayerNorm { tokens, dim, shift_a, shift_b, .. }) =
            ops.iter().find(|op| matches!(op, LayerOp::LayerNorm { .. }))
        else {
            unreachable!("the encoder has a LayerNorm")
        };
        let n = tokens * dim;
        let (a0, b0, a1, b1, z1) = (shares(n), shares(n), shares(n), shares(n), shares(n));
        let circuit = circuits::layernorm_reshare_vec_circuit(
            bits,
            tokens,
            dim,
            shift_a as usize,
            shift_b as usize,
            f as usize,
        );
        self.out.put("gc.layernorm_ands", circuit.and_count() as f64, "count");
        let (ms, _) = self.yao_duet(
            |ch, yao| {
                black_box(
                    layernorm_server(ch, yao, &a0, &b0, tokens, dim, ring, shift_a, shift_b, f)
                        .expect("op"),
                );
            },
            |ch, yao, r| {
                layernorm_client(ch, yao, &a1, &b1, &z1, tokens, dim, ring, shift_a, shift_b, f, r)
                    .expect("op");
            },
        );
        self.out.put("core.layernorm_8x8_ms", ms, "ms");

        let (m, k, n) = (8, 8, 8);
        let (ms, _) = self.duet(
            |ch| {
                let mut r = rng(64);
                let ot_r = IknpReceiver::setup(ch, &mut r).expect("setup");
                let ot_s = IknpSender::setup(ch, &mut r).expect("setup");
                (ot_r, ot_s, r)
            },
            |ch, (ot_r, ot_s, r)| {
                black_box(generate_matrix_p0(ch, ot_r, ot_s, m, k, n, ring, r).expect("triple"));
            },
            |ch| {
                let mut r = rng(65);
                let ot_s = IknpSender::setup(ch, &mut r).expect("setup");
                let ot_r = IknpReceiver::setup(ch, &mut r).expect("setup");
                (ot_s, ot_r, r)
            },
            |ch, (ot_s, ot_r, r)| {
                black_box(generate_matrix_p1(ch, ot_s, ot_r, m, k, n, ring, r).expect("triple"));
            },
        );
        self.out.put("core.matbeaver_8x8x8_gen_ms", ms, "ms");

        let fig4 = Workload::build("fig4_warm").expect("fig4").model.served();
        let sg = SecureGraph::new(fig4.graph(), 1).expect("fig4 graph");
        let mut r = rng(66);
        let ms = self.time_ms(|| {
            black_box(dealer_bundle_for(&fig4, &sg, &mut r));
        });
        self.out.put("core.dealer_bundle_fig4_ms", ms, "ms");
    }

    /// ROADMAP item 2's replay amplification, seen from outside. One cold
    /// slim session is run live through `drive_frames` (which feeds one
    /// frame per suspension, as `SecureServer::run` does) with the
    /// server's inbound frames recorded. The same driver, same seed, is
    /// then run with no peer twice: every recorded frame already in its
    /// inbox (no suspension, the straight-line cost), and one frame fed
    /// per suspension (each park replays the phase from its start).
    fn core_driver(&mut self) {
        let slim = Workload::build("slim_cold_iknp").expect("slim");
        let server = Arc::new(SecureServer::for_model(slim.model.served()));
        let public = server.public_model();
        let ours = SessionParams::for_public(&public, ReluVariant::Oblivious, 1);
        let driver_seed = 71;
        let new_driver =
            || SessionDriver::new(Arc::clone(&server), NullHost { ours }, rng(driver_seed));

        let input = slim.model.input(&mut rng(72));
        let expected = slim.model.forward_exact(&input);
        let (sch, mut cch) = Endpoint::pair(NetworkModel::instant());
        let (stats, inbox) = std::thread::scope(|scope| {
            let served = scope.spawn(|| {
                let mut ch = Recording { inner: sch, inbox: Vec::new() };
                let stats = abnn2_core::driver::drive_frames(&mut ch, &mut new_driver(), |_| {});
                (stats, ch.inbox)
            });
            let client = SecureClient::for_model(public.clone());
            let mut r = rng(73);
            let state = client.offline(&mut cch, 1, &mut r).expect("offline");
            let y = client.online_raw(&mut cch, state, &[input], &mut r).expect("online");
            assert_eq!(y.col(0), expected, "driver probe session must be bit-exact");
            served.join().expect("driver thread")
        });
        let stats = stats.expect("live driver session");
        self.out.put("core.driver_suspensions_slim_cold", f64::from(stats.suspensions), "count");

        let straight_ms = self.time_ms(|| {
            let mut driver = new_driver();
            for frame in &inbox {
                driver.feed(frame.clone());
            }
            assert_eq!(driver.step(), DriverStep::Done, "a full inbox must run to the end");
        });
        let fed_ms = self.time_ms(|| {
            let mut driver = new_driver();
            let mut frames = inbox.iter();
            while driver.step() == DriverStep::NeedRecv {
                driver.feed(frames.next().expect("recorded inbox covers the session").clone());
                black_box(driver.take_effects());
            }
            assert_eq!(driver.step(), DriverStep::Done, "frame-at-a-time replay must finish");
        });
        self.out.put("core.driver_overhead_ratio", fed_ms / straight_ms, "ratio");
    }

    fn net(&mut self) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        const PINGS: usize = 200;
        const FRAMES: usize = 16;
        let mut big = vec![0x5Au8; MIB];
        // A registered tag whose ceiling admits a 1 MiB payload.
        big[0] = tags::MATMUL_OPENINGS;
        let reps = self.reps;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let (stream, _) = listener.accept().expect("accept");
                let mut ch = TcpTransport::from_stream(stream).expect("transport");
                for _ in 0..reps * PINGS {
                    let ping = ch.recv().expect("ping");
                    ch.send_owned(ping).expect("pong");
                    ch.flush().expect("flush");
                }
                for _ in 0..reps {
                    for _ in 0..FRAMES {
                        black_box(ch.recv().expect("bulk frame"));
                    }
                    ch.send(&ACK).expect("ack");
                    ch.flush().expect("flush");
                }
            });
            let mut ch = TcpTransport::connect(addr).expect("connect");
            let ping = [0x7Fu8; 64];
            let ms = self.time_ms(|| {
                for _ in 0..PINGS {
                    ch.send(&ping).expect("ping");
                    ch.flush().expect("flush");
                    black_box(ch.recv().expect("pong"));
                }
            });
            self.out.put("net.tcp_rtt_us", ms * 1e3 / PINGS as f64, "us");
            let ms = self.time_ms(|| {
                for _ in 0..FRAMES {
                    ch.send(&big).expect("bulk frame");
                }
                ch.flush().expect("flush");
                ch.recv().expect("ack");
            });
            self.out.put("net.tcp_mb_per_s", (FRAMES * MIB) as f64 / 1e6 / (ms / 1e3), "MB/s");
        });

        // The event loop's frame pump, both ends on this thread.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let dial = TcpStream::connect(listener.local_addr().expect("local addr")).expect("dial");
        let (accepted, _) = listener.accept().expect("accept");
        let mut tx = FrameBuffer::new(dial).expect("pump");
        let mut rx = FrameBuffer::new(accepted).expect("pump");
        let ms = self.time_ms(|| {
            for _ in 0..FRAMES {
                tx.queue_send(&big);
                loop {
                    tx.poll_write().expect("pump write");
                    if let Some(frame) = rx.poll_read().expect("pump read") {
                        black_box(frame);
                        break;
                    }
                }
            }
        });
        self.out.put("net.pump_mb_per_s", (FRAMES * MIB) as f64 / 1e6 / (ms / 1e3), "MB/s");
    }

    /// Start-up costs of the frontend on the Fig-4 model: `Server::start`
    /// alone, and filling one worker's pool shard, per bundle.
    fn serve(&mut self) {
        let fig4 = Workload::build("fig4_warm").expect("fig4");
        let depth = fig4.pool_depth();
        let (mut starts, mut fills) = (Vec::new(), Vec::new());
        for _ in 0..self.reps {
            let before_ms = self.calib.run();
            let t0 = Instant::now();
            let server = Server::start(fig4.model.served(), "127.0.0.1:0", fig4.serve_config())
                .expect("start");
            let start_ms = t0.elapsed().as_secs_f64() * 1e3;
            assert!(server.warm_up(1, depth, Duration::from_secs(60)), "pool fill");
            let fill_ms = t0.elapsed().as_secs_f64() * 1e3;
            let calib_ms = (before_ms + self.calib.run()) / 2.0;
            starts.push(calib::scale(start_ms, calib_ms));
            fills.push(calib::scale(fill_ms, calib_ms) / depth as f64);
        }
        self.out.put("serve.start_ms", median(&starts), "ms");
        self.out.put("serve.pool_fill_ms_per_bundle", median(&fills), "ms");
    }
}

/// Keeps a copy of every frame the wrapped transport receives.
struct Recording<T> {
    inner: T,
    inbox: Vec<Vec<u8>>,
}

impl<T: Transport> Transport for Recording<T> {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.inner.send(payload)
    }

    fn send_owned(&mut self, payload: Vec<u8>) -> Result<(), TransportError> {
        self.inner.send_owned(payload)
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        let frame = self.inner.recv()?;
        self.inbox.push(frame.clone());
        Ok(frame)
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        self.inner.flush()
    }

    fn snapshot(&self) -> abnn2_net::CommSnapshot {
        self.inner.snapshot()
    }
}
