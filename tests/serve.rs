//! Serving-layer integration tests: many concurrent TCP clients must get
//! bit-identical logits, warm (pooled-bundle) requests must move zero
//! offline-phase bytes, admission control must reject with a typed error
//! — never a hang — and duplicate resume tokens must never share offline
//! state across sessions.

use abnn2::core::bundle::{dealer_bundle, ClientBundle};
use abnn2::core::handshake::{handshake_client_ext, HelloRequest, SessionParams};
use abnn2::core::inference::ClientOffline;
use abnn2::core::session::ClientLineage;
use abnn2::core::{
    ClientJob, ExecConfig, ProtocolError, PublicModel, SecureClient, SessionDeadlines,
};
use abnn2::math::{FragmentScheme, Ring};
use abnn2::net::{CommSnapshot, RetryPolicy, TcpTransport, Transport, TransportError};
use abnn2::nn::quant::{QuantConfig, QuantizedDense, QuantizedNetwork};
use abnn2::nn::{ConvShape, Network, QuantizedCnn, QuantizedConv};
use abnn2::serve::{GovernorConfig, ServeClient, ServeConfig, Server};
use rand::{Rng, SeedableRng};
use std::net::TcpStream;
use std::time::{Duration, Instant};

// Two hidden layers → several online messages, so resume and drain tests
// have protocol structure to land in; small dims keep OT costs low.
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

fn sample_input(dim: usize, seed: u64) -> Vec<u64> {
    // Arbitrary ring-encoded fixed-point input; exactness is judged
    // against forward_exact on the same values.
    (0..dim).map(|j| (seed.wrapping_mul(31).wrapping_add(j as u64 * 7)) & 0xFFFF).collect()
}

fn fast_deadlines() -> SessionDeadlines {
    SessionDeadlines::uniform(Duration::from_secs(5))
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn eight_concurrent_clients_get_bit_identical_logits() {
    let q = tiny_model(200);
    let expected_for = |x: &Vec<u64>| q.forward_exact(x);
    let info = PublicModel::from(&q);
    let config = ServeConfig {
        workers: 4,
        queue_capacity: 16,
        pool_depth: 4,
        deadlines: fast_deadlines(),
        ..ServeConfig::default()
    };
    let server = Server::start(q.clone(), "127.0.0.1:0", config).expect("start server");
    let addr = server.addr();

    let inputs: Vec<Vec<u64>> = (0..8).map(|i| sample_input(12, 1000 + i)).collect();
    let results: Vec<(Vec<u64>, Vec<u64>)> = std::thread::scope(|scope| {
        inputs
            .iter()
            .enumerate()
            .map(|(i, x)| {
                let client = ServeClient::for_model(info.clone()).with_deadlines(fast_deadlines());
                let x = x.clone();
                scope.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(300 + i as u64);
                    let (y, _report) =
                        client.run(addr, std::slice::from_ref(&x), &mut rng).expect("request");
                    (x, y.col(0))
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    for (x, y) in &results {
        assert_eq!(y, &expected_for(x), "served logits must equal forward_exact");
    }

    // Clients return on their last recv; the worker's bookkeeping
    // (completed/active) lands a beat later.
    wait_until("all sessions to finish server-side", || server.metrics().completed == 8);
    let metrics = server.metrics();
    assert_eq!(metrics.failed, 0);
    assert_eq!(metrics.active, 0);
    assert!(metrics.accepted >= 8);
}

#[test]
fn warm_pool_skips_offline_phase_entirely() {
    let q = tiny_model(210);
    let x = sample_input(12, 211);
    let expected = q.forward_exact(&x);
    let info = PublicModel::from(&q);
    let config = ServeConfig {
        workers: 2,
        pool_depth: 2,
        deadlines: fast_deadlines(),
        ..ServeConfig::default()
    };
    let server = Server::start(q, "127.0.0.1:0", config).expect("start server");
    assert!(
        server.warm_up(1, 1, Duration::from_secs(30)),
        "pool must produce a bundle for batch 1"
    );

    // Warm request: zero offline-phase bytes, nonzero bundle-phase bytes.
    let client = ServeClient::for_model(info.clone()).with_deadlines(fast_deadlines());
    let mut rng = rand::rngs::StdRng::seed_from_u64(212);
    let (y, report) =
        client.run(server.addr(), std::slice::from_ref(&x), &mut rng).expect("warm request");
    assert_eq!(y.col(0), expected);
    assert!(report.warm, "pool was warmed, request must ride a bundle");
    assert!(!report.resumed);
    assert_eq!(
        report.phase("offline").total_bytes(),
        0,
        "warm path must move zero offline-phase bytes, got {:?}",
        report.phase("offline")
    );
    assert!(report.phase("bundle").bytes_received > 0, "client must receive its bundle half");
    assert!(report.phase("online").total_bytes() > 0);

    // Cold request (bundles declined): the interactive offline phase runs
    // and dwarfs the warm path's bundle transfer.
    let cold_client =
        ServeClient::for_model(info).with_deadlines(fast_deadlines()).with_bundles(false);
    let (y2, cold) = cold_client.run(server.addr(), &[x], &mut rng).expect("cold request");
    assert_eq!(y2.col(0), expected, "cold and warm paths must agree bit-for-bit");
    assert!(!cold.warm);
    assert!(cold.phase("offline").total_bytes() > 0);
    assert_eq!(cold.phase("bundle").total_bytes(), 0);
    assert!(
        cold.phase("offline").total_bytes() > report.phase("bundle").total_bytes(),
        "interactive offline ({} B) should cost more than a bundle handoff ({} B)",
        cold.phase("offline").total_bytes(),
        report.phase("bundle").total_bytes()
    );

    // Server-side mirror of the same accounting.
    let metrics = server.metrics();
    assert!(metrics.pool.hits >= 1, "pool must record the warm hit");
    assert_eq!(metrics.phase("offline").total_bytes(), cold.phase("offline").total_bytes());
    assert_eq!(metrics.phase("bundle").total_bytes(), report.phase("bundle").total_bytes());
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

/// A CNN rides the same pool: the dealer thread manufactures graph-keyed
/// conv bundles, and a warm request skips the interactive offline phase
/// entirely — new in the graph-executor refactor.
#[test]
fn warm_pool_serves_cnn_with_zero_offline_bytes() {
    let cnn = tiny_cnn(260);
    let ring = cnn.config.ring;
    let mut rng = rand::rngs::StdRng::seed_from_u64(261);
    let image: Vec<u64> = (0..cnn.conv.in_shape.len())
        .map(|_| ring.reduce(rng.gen_range(0..1u64 << cnn.config.frac_bits)))
        .collect();
    let expected = cnn.forward_exact(&image);
    let config = ServeConfig {
        workers: 2,
        pool_depth: 2,
        pool_batches: vec![1],
        deadlines: fast_deadlines(),
        ..ServeConfig::default()
    };
    let server = Server::start(cnn.clone(), "127.0.0.1:0", config).expect("start server");
    assert!(
        server.warm_up(1, 1, Duration::from_secs(30)),
        "pool must produce a CNN bundle for batch 1"
    );

    let client = ServeClient::for_model(&cnn).with_deadlines(fast_deadlines());
    let (y, report) =
        client.run(server.addr(), std::slice::from_ref(&image), &mut rng).expect("warm request");
    assert_eq!(y.col(0), expected, "served CNN logits must equal forward_exact");
    assert!(report.warm, "pool was warmed, request must ride a bundle");
    assert_eq!(
        report.phase("offline").total_bytes(),
        0,
        "warm CNN path must move zero offline-phase bytes, got {:?}",
        report.phase("offline")
    );
    assert!(report.phase("bundle").bytes_received > 0, "client must receive its bundle half");
    assert!(report.phase("online").total_bytes() > 0);
    assert!(server.metrics().pool.hits >= 1, "pool must record the warm hit");
}

/// The dead-worker path: the only worker's loop dies with a connection in
/// the queue and no lock held, the restarted loop claims that connection
/// and serves it, and the drain still finds every thread.
#[test]
fn a_dead_worker_is_respawned_and_its_queued_connection_is_served() {
    let q = tiny_model(260);
    let x = sample_input(12, 261);
    let expected = q.forward_exact(&x);
    let config = ServeConfig {
        workers: 1,
        pool_depth: 0,
        deadlines: fast_deadlines(),
        governor: GovernorConfig { inject_worker_panic: Some(0), ..GovernorConfig::default() },
        ..ServeConfig::default()
    };
    let mut server = Server::start(q.clone(), "127.0.0.1:0", config).expect("start server");

    let client = ServeClient::for_model(PublicModel::from(&q))
        .with_deadlines(fast_deadlines())
        .with_policy(RetryPolicy::no_delay(1));
    let mut rng = rand::rngs::StdRng::seed_from_u64(262);
    let (y, report) =
        client.run(server.addr(), std::slice::from_ref(&x), &mut rng).expect("request");
    assert_eq!(y.col(0), expected, "the replacement worker's logits must equal forward_exact");
    assert_eq!(report.attempts, 1, "the queued connection survived the crash");

    wait_until("the session to finish server-side", || server.metrics().completed == 1);
    let metrics = server.metrics();
    assert_eq!(metrics.worker_respawns, 1);
    assert_eq!((metrics.failed, metrics.panicked, metrics.active), (0, 0, 0));

    // Joins the acceptor and the worker, whose thread outlived its loop.
    server.shutdown();
}

/// Keeps every frame the server sends, in order.
struct Recording {
    inner: TcpTransport,
    received: Vec<Vec<u8>>,
}

impl Transport for Recording {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.inner.send(payload)
    }
    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        let frame = self.inner.recv()?;
        self.received.push(frame.clone());
        Ok(frame)
    }
    fn flush(&mut self) -> Result<(), TransportError> {
        self.inner.flush()
    }
    fn snapshot(&self) -> CommSnapshot {
        self.inner.snapshot()
    }
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_read_timeout(timeout)
    }
    fn set_phase_budget(&mut self, budget: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_phase_budget(budget)
    }
}

/// A restarted worker loop is seeded afresh: one cold session from one
/// seeded client reads the same server frames from two one-worker servers
/// of one `seed` and different ones from a third whose worker died with
/// the connection queued, so the restart did not replay the randomness
/// its predecessor was seeded with.
#[test]
fn a_restarted_worker_never_replays_its_predecessors_randomness() {
    let q = tiny_model(270);
    let x = sample_input(12, 271);
    let expected = q.forward_exact(&x);
    let server_frames = |inject_worker_panic| {
        let config = ServeConfig {
            workers: 1,
            pool_depth: 0,
            deadlines: fast_deadlines(),
            governor: GovernorConfig { inject_worker_panic, ..GovernorConfig::default() },
            ..ServeConfig::default()
        };
        let server = Server::start(q.clone(), "127.0.0.1:0", config).expect("start server");
        let inner = TcpTransport::connect(server.addr()).expect("connect");
        let mut ch = Recording { inner, received: Vec::new() };
        ch.set_read_timeout(fast_deadlines().read_timeout).expect("read timeout");
        let mut job = ClientJob::new([0x7E; 16], false, fast_deadlines());
        let mut rng = rand::rngs::StdRng::seed_from_u64(272);
        let y = SecureClient::for_model(PublicModel::from(&q))
            .run_job(&mut ch, std::slice::from_ref(&x), &mut job, &mut rng)
            .expect("cold session");
        assert_eq!(y.col(0), expected);
        (ch.received, server.metrics().worker_respawns)
    };
    let (a, restarts_a) = server_frames(None);
    let (b, restarts_b) = server_frames(Some(0));
    let (c, _) = server_frames(None);
    assert_eq!((restarts_a, restarts_b), (0, 1));
    assert!(a.len() > 3, "a cold session reads its setup and offline frames");
    assert!(a == c, "one seed, one client: the same server frames");
    assert!(a != b, "the restarted loop drew the frames of its predecessor's seed");
}

#[test]
fn overloaded_server_rejects_with_typed_error() {
    let q = tiny_model(220);
    let info = PublicModel::from(&q);
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        pool_depth: 0, // no warm path; the stalls hold the worker
        deadlines: fast_deadlines(),
        ..ServeConfig::default()
    };
    let server = Server::start(q, "127.0.0.1:0", config).expect("start server");
    let addr = server.addr();

    // Occupy the single worker and the single queue slot with connections
    // that never speak.
    let _stall_worker = TcpStream::connect(addr).expect("stall 1");
    wait_until("worker to pick up the first stall", || server.metrics().active >= 1);
    let _stall_queue = TcpStream::connect(addr).expect("stall 2");
    wait_until("second stall to be queued", || server.metrics().accepted >= 2);

    // A real client must now be refused in protocol, quickly and typed.
    let client = ServeClient::for_model(info)
        .with_deadlines(fast_deadlines())
        .with_policy(RetryPolicy::no_delay(1));
    let mut rng = rand::rngs::StdRng::seed_from_u64(221);
    let x = sample_input(12, 222);
    let start = Instant::now();
    let err = client.run(addr, &[x], &mut rng).unwrap_err();
    assert!(
        matches!(err, ProtocolError::Overloaded { retry_after_ms } if retry_after_ms >= 25),
        "busy rejection must carry a load-derived backoff hint, got {err:?}"
    );
    assert!(start.elapsed() < Duration::from_secs(5), "rejection must be prompt");
    assert!(server.metrics().rejected >= 1);
}

/// Satellite of the governor PR: the busy frame's `retry_after_ms` hint
/// must round-trip to the client, and a client with retries left must
/// honor it — sleeping between dials instead of hot-looping against a
/// full queue.
#[test]
fn client_honors_retry_after_hint_instead_of_hot_looping() {
    let q = tiny_model(225);
    let info = PublicModel::from(&q);
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        pool_depth: 0,
        deadlines: fast_deadlines(),
        ..ServeConfig::default()
    };
    let server = Server::start(q, "127.0.0.1:0", config).expect("start server");
    let addr = server.addr();

    // Hold the worker and the queue slot for the whole test, so every
    // admission attempt is shed with a hint.
    let _stall_worker = TcpStream::connect(addr).expect("stall 1");
    wait_until("worker to pick up the first stall", || server.metrics().active >= 1);
    let _stall_queue = TcpStream::connect(addr).expect("stall 2");
    wait_until("second stall to be queued", || server.metrics().accepted >= 2);

    // Zero client-side base delay: any spacing between dials comes from
    // the server's hint, not the policy.
    let client = ServeClient::for_model(info)
        .with_deadlines(fast_deadlines())
        .with_policy(RetryPolicy::no_delay(4));
    let mut rng = rand::rngs::StdRng::seed_from_u64(226);
    let x = sample_input(12, 227);
    let start = Instant::now();
    let err = client.run(addr, &[x], &mut rng).unwrap_err();
    let elapsed = start.elapsed();

    // active=1 + queued=1 + self → hint ≥ 75 ms per shed; three waits
    // precede the final (returned) rejection.
    assert!(
        matches!(err, ProtocolError::Overloaded { retry_after_ms } if retry_after_ms >= 75),
        "hint must survive the wire round-trip, got {err:?}"
    );
    assert!(
        elapsed >= Duration::from_millis(3 * 75),
        "client must sleep the hinted backoff between dials, only waited {elapsed:?}"
    );
    assert!(server.metrics().rejected >= 4, "all four admission attempts must be shed");
}

#[test]
fn graceful_drain_completes_in_flight_and_rejects_new() {
    let q = tiny_model(230);
    let x = sample_input(12, 231);
    let expected = q.forward_exact(&x);
    let info = PublicModel::from(&q);
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 4,
        pool_depth: 0, // cold offline gives the in-flight session real duration
        deadlines: fast_deadlines(),
        ..ServeConfig::default()
    };
    let mut server = Server::start(q, "127.0.0.1:0", config).expect("start server");
    let addr = server.addr();

    let (in_flight, rejected_err) = std::thread::scope(|scope| {
        let in_flight_client =
            ServeClient::for_model(info.clone()).with_deadlines(fast_deadlines());
        let xa = x.clone();
        let in_flight = scope.spawn(move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(232);
            in_flight_client.run(addr, &[xa], &mut rng)
        });
        wait_until("the in-flight session to start", || {
            let m = server.metrics();
            m.active >= 1 || m.completed >= 1 // don't hang if it already finished
        });

        server.begin_drain();

        // New connections are now turned away in protocol.
        let late_client = ServeClient::for_model(info.clone())
            .with_deadlines(fast_deadlines())
            .with_policy(RetryPolicy::no_delay(1));
        let mut rng = rand::rngs::StdRng::seed_from_u64(233);
        let xb = x.clone();
        let rejected_err = late_client.run(addr, &[xb], &mut rng).unwrap_err();

        (in_flight.join().expect("in-flight thread"), rejected_err)
    });

    let (y, report) = in_flight.expect("in-flight session must complete through the drain");
    assert_eq!(y.col(0), expected, "drained-through session must stay bit-exact");
    assert_eq!(report.attempts, 1, "drain must not sever the in-flight session");
    assert!(
        matches!(rejected_err, ProtocolError::Overloaded { .. }),
        "drain rejection must stay typed, got {rejected_err:?}"
    );

    // Shutdown joins every thread: bounded, no hang.
    let start = Instant::now();
    server.shutdown();
    assert!(start.elapsed() < Duration::from_secs(10));
    let metrics = server.metrics();
    assert!(metrics.completed >= 1);
    assert!(metrics.rejected >= 1);
    assert_eq!(metrics.active, 0);
}

/// Drives one manual session that presents `token` with a resume request
/// and `bundle` as its local offline state, falling back to a fresh
/// offline phase when the server declines. Returns (logits, resumed).
fn manual_resume_request(
    addr: std::net::SocketAddr,
    info: &PublicModel,
    token: [u8; 16],
    bundle: ClientBundle,
    x: &[u64],
    seed: u64,
) -> Result<(Vec<u64>, bool), ProtocolError> {
    let client = SecureClient::for_model(info.clone());
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut ch = TcpTransport::connect(addr)?;
    ch.set_read_timeout(Some(Duration::from_secs(5)))?;
    let ours = SessionParams::for_public(info, ExecConfig::new().variant, 1);
    let reply = handshake_client_ext(
        &mut ch,
        ours,
        &token,
        HelloRequest { resume: true, silent: false, ..HelloRequest::default() },
    )?;
    // Setup runs what the reply's path needs: the Yao batch alone for a
    // resumed session, the fragment batch first for a cold one.
    let mut session = ClientLineage::default();
    session.complete(&mut ch, reply.offline(), &mut rng)?;
    let state = if reply.resume {
        ClientOffline::from_bundle(session.yao.expect("Yao half"), bundle)
    } else {
        client.offline_with(&mut ch, session, 1, &mut rng)?
    };
    let y = client.online_raw(&mut ch, state, std::slice::from_ref(&x.to_vec()), &mut rng)?;
    Ok((y.col(0), reply.resume))
}

#[test]
fn duplicate_resume_tokens_never_share_offline_state() {
    let q = tiny_model(240);
    let x = sample_input(12, 241);
    let expected = q.forward_exact(&x);
    let info = PublicModel::from(&q);
    let config = ServeConfig {
        workers: 2,
        pool_depth: 0,
        deadlines: fast_deadlines(),
        ..ServeConfig::default()
    };
    let server = Server::start(q.clone(), "127.0.0.1:0", config).expect("start server");

    // Plant one matched checkpoint pair under a known token, as if a
    // previous connection had died mid-online.
    let token = [0xAB; 16];
    let mut rng = rand::rngs::StdRng::seed_from_u64(242);
    let (sb, cb) = dealer_bundle(&q, 1, &mut rng);
    server.checkpoint_store().insert(token, sb);

    // Two concurrent connections present the same token with the same
    // client-side state. Claim-on-use must let at most one resume; the
    // other downgrades to a fresh offline phase. Both must end bit-exact.
    let outcomes: Vec<(Vec<u64>, bool)> = std::thread::scope(|scope| {
        [243u64, 244]
            .map(|seed| {
                let info = info.clone();
                let cb = cb.clone();
                let x = x.clone();
                let addr = server.addr();
                scope.spawn(move || {
                    manual_resume_request(addr, &info, token, cb, &x, seed)
                        .expect("duplicate-token session")
                })
            })
            .map(|h| h.join().expect("client thread"))
            .into_iter()
            .collect()
    });

    let resumed_count = outcomes.iter().filter(|(_, resumed)| *resumed).count();
    assert_eq!(resumed_count, 1, "exactly one duplicate may claim the checkpoint");
    for (y, _) in &outcomes {
        assert_eq!(y, &expected, "every duplicate must still get exact logits");
    }
}

#[test]
fn resume_against_evicted_checkpoint_downgrades_to_fresh() {
    let q = tiny_model(250);
    let x = sample_input(12, 251);
    let expected = q.forward_exact(&x);
    let info = PublicModel::from(&q);
    let config = ServeConfig {
        workers: 1,
        pool_depth: 0,
        checkpoint_capacity: 1,
        deadlines: fast_deadlines(),
        ..ServeConfig::default()
    };
    let server = Server::start(q.clone(), "127.0.0.1:0", config).expect("start server");

    // Plant a checkpoint, then evict it through the capacity-1 store.
    let token = [0xCD; 16];
    let mut rng = rand::rngs::StdRng::seed_from_u64(252);
    let (sb, cb) = dealer_bundle(&q, 1, &mut rng);
    server.checkpoint_store().insert(token, sb);
    let (rogue_sb, _) = dealer_bundle(&q, 1, &mut rng);
    server.checkpoint_store().insert([0xEF; 16], rogue_sb);
    assert!(!server.checkpoint_store().contains(&token), "capacity 1 must evict");

    let (y, resumed) = manual_resume_request(server.addr(), &info, token, cb, &x, 253)
        .expect("evicted-token session");
    assert!(!resumed, "evicted checkpoint must downgrade, not resume");
    assert_eq!(y, expected, "downgraded session must still be bit-exact");
}
