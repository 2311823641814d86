//! Resilient-session integration tests: silent peers must surface as
//! `TimedOut` (never hang) at every protocol entry point, configuration
//! mismatches must fail negotiation at connect time on both sides, and a
//! mid-online connection loss must be survivable with bit-identical
//! logits via reconnect-and-resume (`ServeClient::run_with` against
//! `ResilientServer` over in-process links), even when the checkpoint is
//! evicted before the reconnect.

use abnn2::core::handshake::{
    handshake_client_ext, handshake_server_ext, Halves, HelloRequest, SessionParams,
};
use abnn2::core::inference::{SecureClient, SecureServer};
use abnn2::core::resilient::{CheckpointStore, ResilientServer};
use abnn2::core::{ProtocolError, PublicModel, ReluVariant, ServerBundle, SessionDeadlines};
use abnn2::gc::{GcError, YaoGarbler};
use abnn2::math::{FragmentScheme, Matrix, Ring};
use abnn2::net::{
    run_pair, sim_link, Endpoint, Fault, FaultyTransport, NetworkModel, RetryPolicy, TcpTransport,
    Transport, TransportError,
};
use abnn2::nn::quant::{QuantConfig, QuantizedDense, QuantizedNetwork};
use abnn2::nn::{ConvShape, Network, QuantizedCnn, QuantizedConv};
use abnn2::ot::{KkChooser, OtError};
use abnn2::serve::ServeClient;
use rand::{Rng, SeedableRng};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connects to a freshly spawned peer that accepts and then stays silent
/// (socket held open, no bytes sent), with a short read timeout applied.
fn silent_peer_transport(read_timeout: Duration) -> TcpTransport {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        if let Ok((sock, _)) = listener.accept() {
            // Hold the connection open, silently, long past any deadline
            // the test uses. The detached thread dies with the process.
            std::thread::sleep(Duration::from_secs(30));
            drop(sock);
        }
    });
    let mut ch = TcpTransport::connect(addr).expect("connect");
    ch.set_read_timeout(Some(read_timeout)).expect("read timeout");
    ch
}

// Two hidden (ReLU) layers so the online phase has server→client traffic
// spread across several messages — a mid-online cut then lands between
// them instead of after the last one.
fn tiny_model(seed: u64) -> QuantizedNetwork {
    let net = Network::new(&[12, 8, 6, 4], seed);
    QuantizedNetwork::quantize(
        &net,
        QuantConfig {
            ring: Ring::new(32),
            frac_bits: 8,
            weight_frac_bits: 2,
            scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
        },
    )
}

const READ_TIMEOUT: Duration = Duration::from_millis(150);
const HARD_CAP: Duration = Duration::from_secs(10);

#[test]
fn silent_peer_times_out_base_ot() {
    let mut ch = silent_peer_transport(READ_TIMEOUT);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let start = Instant::now();
    let err = abnn2::ot::base::recv(&mut ch, &[true], &mut rng).unwrap_err();
    assert_eq!(err, OtError::TimedOut);
    assert!(start.elapsed() < HARD_CAP, "must fail fast, took {:?}", start.elapsed());
}

#[test]
fn silent_peer_times_out_kk13_session() {
    let mut ch = silent_peer_transport(READ_TIMEOUT);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let start = Instant::now();
    let err = KkChooser::setup(&mut ch, &mut rng).unwrap_err();
    assert_eq!(err, OtError::TimedOut);
    assert!(start.elapsed() < HARD_CAP, "must fail fast, took {:?}", start.elapsed());
}

#[test]
fn silent_peer_times_out_yao_session() {
    let mut ch = silent_peer_transport(READ_TIMEOUT);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let start = Instant::now();
    let err = YaoGarbler::setup(&mut ch, &mut rng).unwrap_err();
    assert!(matches!(err, GcError::TimedOut | GcError::Ot(OtError::TimedOut)), "got {err:?}");
    assert!(start.elapsed() < HARD_CAP, "must fail fast, took {:?}", start.elapsed());
}

#[test]
fn silent_peer_times_out_full_inference() {
    let q = tiny_model(4);
    let client = SecureClient::for_model(&q);
    let mut ch = silent_peer_transport(READ_TIMEOUT);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let start = Instant::now();
    let err = client.offline(&mut ch, 1, &mut rng).unwrap_err();
    assert_eq!(err, ProtocolError::TimedOut);
    assert!(start.elapsed() < HARD_CAP, "must fail fast, took {:?}", start.elapsed());
}

#[test]
fn variant_mismatch_fails_negotiation_on_both_sides() {
    let q = tiny_model(6);
    let server = SecureServer::for_model(q.clone()).with_variant(ReluVariant::Oblivious);
    let client =
        SecureClient::for_model(server.public_model()).with_variant(ReluVariant::Optimized);
    let (server_result, client_result, _) = run_pair(
        NetworkModel::instant(),
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            server.offline(ch, 1, &mut rng).map(|_| ())
        },
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(8);
            client.offline(ch, 1, &mut rng).map(|_| ())
        },
    );
    match (server_result.unwrap_err(), client_result.unwrap_err()) {
        (
            ProtocolError::Negotiation { ours: so, theirs: st },
            ProtocolError::Negotiation { ours: co, theirs: ct },
        ) => {
            assert_eq!(so, ct, "server's view must be the client's peer view");
            assert_eq!(co, st, "client's view must be the server's peer view");
            assert_ne!(so.variant, co.variant);
        }
        other => panic!("expected symmetric Negotiation, got {other:?}"),
    }
}

#[test]
fn batch_mismatch_fails_negotiation() {
    let q = tiny_model(9);
    let server = SecureServer::for_model(q.clone());
    let client = SecureClient::for_model(server.public_model());
    let (server_result, client_result, _) = run_pair(
        NetworkModel::instant(),
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(10);
            server.offline(ch, 2, &mut rng).map(|_| ())
        },
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(11);
            client.offline(ch, 1, &mut rng).map(|_| ())
        },
    );
    assert!(matches!(server_result, Err(ProtocolError::Negotiation { .. })));
    assert!(matches!(client_result, Err(ProtocolError::Negotiation { .. })));
}

#[test]
fn non_protocol_peer_is_handshake_error() {
    let q = tiny_model(12);
    let server = SecureServer::for_model(q);
    let (server_result, (), _) = run_pair(
        NetworkModel::instant(),
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(13);
            server.offline(ch, 1, &mut rng).map(|_| ())
        },
        move |ch| {
            ch.send(b"GET / HTTP/1.1\r\nHost: example\r\n\r\n").unwrap();
            let _ = ch.recv();
        },
    );
    assert!(matches!(server_result, Err(ProtocolError::Handshake(_))), "got {server_result:?}");
}

#[test]
fn handshake_rejects_stale_resume_token() {
    // A client presenting a resume token the server has never seen must be
    // answered with "fresh run", not an error.
    let q = tiny_model(14);
    let info = PublicModel::from(&q);
    let ours = SessionParams::for_public(&info, ReluVariant::Oblivious, 1);
    let (mut c, mut s) = abnn2::net::Endpoint::pair(NetworkModel::instant());
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let no_lineage = |_: &_, _| Halves::default();
            handshake_server_ext(&mut s, |_| ours, |_| false, |_, _| false, false, no_lineage)
                .unwrap();
        });
        let request = HelloRequest { resume: true, ..HelloRequest::default() };
        let reply = handshake_client_ext(&mut c, ours, &[9; 16], request).unwrap();
        assert!(!reply.resume, "unknown token must downgrade to a fresh run");
    });
}

/// The headline property: cut the link mid-online-phase, reconnect, resume
/// from the checkpointed offline state, and get logits bit-identical to
/// `forward_exact` — end to end over the dialer/listener reconnect path,
/// at batch 1 and batch 2.
#[test]
fn reconnect_resume_is_bit_identical() {
    let batches: [Vec<Vec<u64>>; 2] = [
        vec![vec![3 << 8, 1 << 8, 7, 250, 0, 9, 1 << 7, 40, 2, 5, 6, 80]],
        vec![
            vec![1 << 8, 4, 3 << 7, 60, 11, 0, 200, 1 << 9, 8, 70, 2, 33],
            vec![0, 90, 5, 1 << 8, 17, 3 << 8, 44, 6, 1 << 7, 12, 250, 1],
        ],
    ];
    for (round, inputs) in (0u64..).zip(&batches) {
        let q = tiny_model(15);
        let expected: Vec<Vec<u64>> = inputs.iter().map(|x| q.forward_exact(x)).collect();

        let deadlines = SessionDeadlines::uniform(Duration::from_secs(2));
        let (dialer, listener) = sim_link(NetworkModel::instant());
        let server = ResilientServer::new(SecureServer::for_model(q))
            .with_policy(RetryPolicy::no_delay(3))
            .with_deadlines(deadlines);
        let client_info = {
            let q2 = tiny_model(15);
            PublicModel::from(&q2)
        };
        let client = ServeClient::for_model(client_info)
            .with_bundles(false)
            .with_policy(RetryPolicy::no_delay(3))
            .with_deadlines(deadlines);

        std::thread::scope(|scope| {
            let srv = scope.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(16 + 10 * round);
                server.serve_one_with(
                    |_| {
                        listener
                            .accept_timeout(Duration::from_secs(5))
                            .map(|ep| FaultyTransport::new(ep, Fault::None))
                    },
                    |ch, attempt| {
                        if attempt == 0 {
                            ch.set_fault(Fault::CutAfterMessages(ch.sends() + 2));
                        }
                    },
                    &mut rng,
                )
            });
            let mut rng = rand::rngs::StdRng::seed_from_u64(17 + 10 * round);
            let (y, report) = client.run_with(|_| dialer.dial(), inputs, &mut rng).unwrap();
            for (k, want) in expected.iter().enumerate() {
                assert_eq!(&y.col(k), want, "batch {}: resumed sample {k}", inputs.len());
            }
            assert!(report.attempts >= 2 && report.resumed, "got {report:?}");
            let srv_report = srv.join().unwrap().unwrap();
            assert!(srv_report.resumed);
        });
    }
}

/// A small conv→pool→dense CNN: conv out 2×4×4 → pool 2 → 2×2×2 = 8 →
/// dense 8→5→3.
fn tiny_cnn(seed: u64) -> QuantizedCnn {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let scheme = FragmentScheme::signed_bit_fields(&[2, 2]);
    let (lo, hi) = scheme.weight_range();
    let in_shape = ConvShape { channels: 1, height: 6, width: 6 };
    let conv = QuantizedConv {
        out_channels: 2,
        in_shape,
        kh: 3,
        kw: 3,
        stride: 1,
        weights: (0..2 * 9).map(|_| rng.gen_range(lo..=hi)).collect(),
        bias: vec![7, 2],
    };
    let mk_dense = |out_dim: usize, in_dim: usize, rng: &mut rand::rngs::StdRng| QuantizedDense {
        out_dim,
        in_dim,
        weights: (0..out_dim * in_dim).map(|_| rng.gen_range(lo..=hi)).collect(),
        bias: (0..out_dim as u64).collect(),
    };
    let d1 = mk_dense(5, 8, &mut rng);
    let d2 = mk_dense(3, 5, &mut rng);
    QuantizedCnn {
        config: QuantConfig { ring: Ring::new(32), frac_bits: 6, weight_frac_bits: 3, scheme },
        conv,
        pool_window: 2,
        dense: vec![d1, d2],
    }
}

/// The same mid-online cut-and-resume property for a CNN session — new in
/// the graph-executor refactor, which runs CNNs through the same
/// handshake, checkpoint, and resume machinery as MLPs.
#[test]
fn cnn_reconnect_resume_is_bit_identical() {
    let cnn = tiny_cnn(40);
    let ring = cnn.config.ring;
    let mut img_rng = rand::rngs::StdRng::seed_from_u64(41);
    let image: Vec<u64> = (0..cnn.conv.in_shape.len())
        .map(|_| ring.reduce(img_rng.gen_range(0..1u64 << cnn.config.frac_bits)))
        .collect();
    let expected = cnn.forward_exact(&image);

    let deadlines = SessionDeadlines::uniform(Duration::from_secs(2));
    let (dialer, listener) = sim_link(NetworkModel::instant());
    let server = ResilientServer::new(SecureServer::for_model(cnn.clone()))
        .with_policy(RetryPolicy::no_delay(3))
        .with_deadlines(deadlines);
    let client = ServeClient::for_model(&cnn)
        .with_bundles(false)
        .with_policy(RetryPolicy::no_delay(3))
        .with_deadlines(deadlines);

    std::thread::scope(|scope| {
        let srv = scope.spawn(move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(42);
            server.serve_one_with(
                |_| {
                    listener
                        .accept_timeout(Duration::from_secs(5))
                        .map(|ep| FaultyTransport::new(ep, Fault::None))
                },
                |ch, attempt| {
                    if attempt == 0 {
                        ch.set_fault(Fault::CutAfterMessages(ch.sends() + 2));
                    }
                },
                &mut rng,
            )
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let inputs = vec![image.clone()];
        let (y, report) = client.run_with(|_| dialer.dial(), &inputs, &mut rng).unwrap();
        assert_eq!(y.col(0), expected, "resumed CNN logits must equal forward_exact");
        assert!(report.attempts >= 2 && report.resumed, "got {report:?}");
        let srv_report = srv.join().unwrap().unwrap();
        assert!(srv_report.resumed);
    });
}

/// A run whose every attempt fails reports the last attempt's error,
/// typed: a silent peer times out, a dialer that never connects is a
/// channel error.
#[test]
fn retry_exhaustion_is_typed_not_a_hang() {
    let q = tiny_model(18);
    let client = ServeClient::for_model(&q)
        .with_bundles(false)
        .with_policy(RetryPolicy::no_delay(3))
        .with_deadlines(SessionDeadlines::uniform(READ_TIMEOUT));
    let mut rng = rand::rngs::StdRng::seed_from_u64(19);
    let start = Instant::now();
    let err = client
        .run_with(|_| Ok(silent_peer_transport(READ_TIMEOUT)), &[vec![0; 12]], &mut rng)
        .unwrap_err();
    assert_eq!(err, ProtocolError::TimedOut);
    assert!(start.elapsed() < HARD_CAP, "took {:?}", start.elapsed());

    let err = client
        .run_with(|_| Err::<Endpoint, _>(TransportError::Closed), &[vec![0; 12]], &mut rng)
        .unwrap_err();
    assert_eq!(err, ProtocolError::Channel);
}

/// A checkpoint evicted between the cut and the reconnect downgrades the
/// resume to a fresh offline run on the same connection — still bit-exact,
/// never an error.
#[test]
fn resume_after_eviction_downgrades_to_fresh_run() {
    let q = tiny_model(102);
    let inputs: Vec<Vec<u64>> = vec![vec![5, 1 << 8, 90, 3 << 7, 0, 41, 7, 1 << 9, 13, 2, 66, 8]];
    let expected = q.forward_exact(&inputs[0]);

    let deadlines = SessionDeadlines::uniform(Duration::from_secs(2));
    let (dialer, listener) = sim_link(NetworkModel::instant());
    // Capacity-1 store: a rogue insert between the cut and the
    // reconnect evicts the job's own checkpoint.
    let store = Arc::new(CheckpointStore::new(1));
    let client = ServeClient::for_model(&q)
        .with_bundles(false)
        .with_policy(RetryPolicy {
            // A real backoff (≥150ms after jitter) gives the watcher thread
            // below time to evict before the reconnect presents the token.
            max_attempts: 3,
            base_delay: Duration::from_millis(300),
            max_delay: Duration::from_millis(300),
            jitter_seed: 1,
        })
        .with_deadlines(deadlines);
    let server = ResilientServer::new(SecureServer::for_model(q))
        .with_policy(RetryPolicy::no_delay(3))
        .with_deadlines(deadlines)
        .with_checkpoint_store(Arc::clone(&store));

    std::thread::scope(|scope| {
        let srv = scope.spawn(move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(104);
            server.serve_one_with(
                |_| {
                    listener
                        .accept_timeout(Duration::from_secs(5))
                        .map(|ep| FaultyTransport::new(ep, Fault::None))
                },
                |ch, attempt| {
                    if attempt == 0 {
                        // Die two messages into the online phase; the
                        // server then checkpoints the job under the
                        // client's token.
                        ch.set_fault(Fault::CutAfterMessages(ch.sends() + 2));
                    }
                },
                &mut rng,
            )
        });
        // Watcher: the moment the failure checkpoint appears, shove a
        // rogue entry into the capacity-1 store to evict it.
        let evict_store = Arc::clone(&store);
        let watcher = scope.spawn(move || {
            for _ in 0..5000 {
                if evict_store.len() == 1 {
                    let us = vec![Matrix::new(1, 1, vec![0])];
                    let rogue = ServerBundle { us, mats: Vec::new(), batch: 1 };
                    evict_store.insert([0xEE; 16], rogue);
                    return true;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            false
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(105);
        let (y, report) = client.run_with(|_| dialer.dial(), &inputs, &mut rng).unwrap();
        assert_eq!(y.col(0), expected, "downgraded fresh run must stay bit-exact");
        assert!(report.attempts >= 2, "client must have reconnected");
        assert!(watcher.join().unwrap(), "watcher must have seen the checkpoint");
        let srv_report = srv.join().unwrap().unwrap();
        assert!(
            !srv_report.resumed,
            "evicted token must downgrade to a fresh offline run, not resume"
        );
    });
}
