//! The rules that make an OT-extension lineage outlive its session
//! soundly, under test on both pumps (a blocking `drive_blocking` loop
//! over a store-backed host, and the event-loop `Server`) and on every
//! path (warm bundle, cold KK13, cold silent):
//!
//! * **base OTs once per client** — five predictions from one
//!   `ServeClient` are bit-exact, the first sets up exactly the halves its
//!   path uses, the rest move zero `setup`-phase bytes;
//! * **single writer** — a claim removes: of two sessions presenting one
//!   lineage token exactly one continues, and a token that was continued
//!   once names nothing afterwards;
//! * **forward only** — a session that does not end cleanly (cut, panic)
//!   forfeits the lineage on both sides; the retry sets up afresh;
//! * **graceful absence** — another mode's fragment half, a busy server, a
//!   host that parks nothing: a fresh setup inside the same connection,
//!   never an error, and a busy reply consumes nothing.

use abnn2::core::bundle::{dealer_bundle_for, ClientBundle, ServerBundle};
use abnn2::core::driver::{drive_blocking, SessionDriver, SessionHost};
use abnn2::core::handshake::{handshake_client_ext, Halves, HelloRequest};
use abnn2::core::{
    CheckpointStore, ClientLineage, LineageStats, OfflineMode, ProtocolError, ResumeToken,
    SecureClient, SecureServer, ServedModel, SessionDeadlines, SessionParams,
};
use abnn2::math::{FragmentScheme, Ring};
use abnn2::net::{Fault, FaultyTransport, RetryPolicy, TcpTransport, Transport};
use abnn2::nn::quant::{QuantConfig, QuantizedNetwork};
use abnn2::nn::Network;
use abnn2::serve::{GovernorConfig, ServeClient, ServeConfig, ServeReport, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Wire bytes of one base-OT batch of 128 OTs (Yao's, and the silent
/// bootstrap's) and of 256 (KK13's): setup point, point batch, ciphertext
/// batch, a tag byte each.
const BATCH_128: u64 = 65 + (128 * 64 + 1) + (128 * 32 + 1);
const BATCH_256: u64 = 65 + (256 * 64 + 1) + (256 * 32 + 1);

fn tiny_model() -> QuantizedNetwork {
    let net = Network::new(&[12, 8, 6, 4], 0x11EA);
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

fn input(seed: u64) -> Vec<u64> {
    (0..12).map(|j| (seed.wrapping_mul(31).wrapping_add(j * 7)) & 0xFFFF).collect()
}

fn deadlines() -> SessionDeadlines {
    SessionDeadlines::uniform(Duration::from_secs(5))
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Warm,
    Cold(OfflineMode),
}

const PATHS: [Path; 3] =
    [Path::Warm, Path::Cold(OfflineMode::Iknp), Path::Cold(OfflineMode::Silent)];

impl Path {
    fn client(self, q: &QuantizedNetwork) -> ServeClient {
        ServeClient::for_model(q)
            .with_deadlines(deadlines())
            .with_bundles(self == Path::Warm)
            .with_silent(self == Path::Cold(OfflineMode::Silent))
    }

    /// `setup`-phase bytes of a session on this path that continues
    /// nothing: Yao's batch, behind the fragment batch of the offline mode
    /// if the path has an offline phase.
    fn fresh_setup_bytes(self) -> u64 {
        match self {
            Path::Warm => BATCH_128,
            Path::Cold(OfflineMode::Iknp) => BATCH_256 + BATCH_128,
            Path::Cold(OfflineMode::Silent) => BATCH_128 + BATCH_128,
        }
    }
}

/// A host over one checkpoint store that resumes, parks lineages and, for
/// the warm path, deals a bundle to whoever asks: what a worker of the
/// serving frontend is to its session, without the frontend.
struct StoreHost<'a> {
    server: &'a SecureServer,
    store: &'a CheckpointStore,
    dealer: Option<&'a Mutex<StdRng>>,
}

impl SessionHost for StoreHost<'_> {
    fn params_for(&self, batch: usize) -> SessionParams {
        self.server.params_for(batch)
    }
    fn take_bundle(
        &self,
        params: &SessionParams,
        _mode: OfflineMode,
    ) -> Option<(ServerBundle, ClientBundle)> {
        let mut rng = self.dealer?.lock().unwrap();
        let sg = self.server.model().secure_graph(params.batch as usize).ok()?;
        Some(dealer_bundle_for(self.server.model(), &sg, &mut *rng))
    }
    fn store(&self) -> Option<&CheckpointStore> {
        Some(self.store)
    }
}

/// The blocking pump: one thread that accepts a connection at a time and
/// runs a `SessionDriver` over it to completion with blocking reads.
/// `fault_for(n)` is applied to the server's end of connection `n`.
struct Blocking {
    addr: SocketAddr,
    store: Arc<CheckpointStore>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Blocking {
    fn start(q: &QuantizedNetwork, path: Path, fault_for: fn(u64) -> Fault) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let store = Arc::new(CheckpointStore::new(8));
        let stop = Arc::new(AtomicBool::new(false));
        let server = Arc::new(SecureServer::for_model(q.clone()));
        let (store2, stop2) = (Arc::clone(&store), Arc::clone(&stop));
        let thread = std::thread::spawn(move || {
            let dealer = Mutex::new(StdRng::seed_from_u64(0xDEA1));
            for conn in 0u64.. {
                let (stream, _) = listener.accept().expect("accept");
                if stop2.load(Ordering::SeqCst) {
                    return;
                }
                let tcp = TcpTransport::from_stream(stream).expect("transport");
                let mut ch = FaultyTransport::new(tcp, fault_for(conn));
                ch.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
                let host = StoreHost {
                    server: &server,
                    store: &store2,
                    dealer: (path == Path::Warm).then_some(&dealer),
                };
                let mut driver = SessionDriver::new(
                    Arc::clone(&server),
                    host,
                    StdRng::seed_from_u64(0xB10C + conn),
                );
                let outcome = drive_blocking(&mut ch, &mut driver);
                driver.settle(outcome.as_ref().err());
            }
        });
        Blocking { addr, store, stop, thread: Some(thread) }
    }
}

impl Drop for Blocking {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Either pump behind one face.
enum Service {
    Blocking(Blocking),
    EventLoop(Server),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pump {
    Blocking,
    EventLoop,
}

const PUMPS: [Pump; 2] = [Pump::Blocking, Pump::EventLoop];

impl Service {
    fn start(pump: Pump, q: &QuantizedNetwork, path: Path) -> Self {
        match pump {
            Pump::Blocking => Service::Blocking(Blocking::start(q, path, |_| Fault::None)),
            Pump::EventLoop => Service::event_loop(q, path, GovernorConfig::default()),
        }
    }

    fn event_loop(q: &QuantizedNetwork, path: Path, governor: GovernorConfig) -> Self {
        let config = ServeConfig {
            workers: 2,
            pool_depth: if path == Path::Warm { 2 } else { 0 },
            pool_modes: vec![OfflineMode::Iknp, OfflineMode::Silent],
            deadlines: deadlines(),
            governor,
            ..ServeConfig::default()
        };
        let server = Server::start(q.clone(), "127.0.0.1:0", config).expect("start server");
        if path == Path::Warm {
            assert!(server.warm_up(1, 2, Duration::from_secs(30)), "pool never filled");
        }
        Service::EventLoop(server)
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Service::Blocking(b) => b.addr,
            Service::EventLoop(s) => s.addr(),
        }
    }

    fn store(&self) -> &CheckpointStore {
        match self {
            Service::Blocking(b) => &b.store,
            Service::EventLoop(s) => s.checkpoint_store(),
        }
    }

    fn lineages(&self) -> LineageStats {
        self.store().lineage_stats()
    }

    /// Blocks until the pool can serve the next warm request (a miss
    /// would turn it cold, which is a different path, not a failure).
    fn refill(&self, path: Path) {
        if let (Service::EventLoop(server), Path::Warm) = (self, path) {
            assert!(server.warm_up(1, 1, Duration::from_secs(30)), "pool never refilled");
        }
    }
}

/// One prediction, checked against the plaintext oracle.
fn predict(
    client: &ServeClient,
    addr: SocketAddr,
    q: &QuantizedNetwork,
    rng: &mut StdRng,
) -> ServeReport {
    let x = input(rng.gen());
    let (y, report) = client.run(addr, std::slice::from_ref(&x), rng).expect("prediction");
    assert_eq!(y.col(0), q.forward_exact(&x), "logits must equal forward_exact");
    report
}

/// The token the next [`predict`] on `rng` will name its session by, and
/// so park its lineage under: `predict` draws the input's seed, then
/// `ServeClient::run` draws the token.
fn next_token(rng: &StdRng) -> ResumeToken {
    let mut ahead = rng.clone();
    let _: u64 = ahead.gen();
    let mut token = [0; 16];
    ahead.fill(&mut token);
    token
}

fn setup_bytes(report: &ServeReport) -> u64 {
    report.phase("setup").total_bytes()
}

#[test]
fn base_ots_run_once_per_client_on_every_path_and_pump() {
    let q = tiny_model();
    for pump in PUMPS {
        for path in PATHS {
            let what = format!("{pump:?} {path:?}");
            let service = Service::start(pump, &q, path);
            let client = path.client(&q);
            let mut rng = StdRng::seed_from_u64(0xC11E);
            for i in 0..5 {
                service.refill(path);
                let report = predict(&client, service.addr(), &q, &mut rng);
                assert_eq!(report.attempts, 1, "{what} #{i}");
                assert_eq!(report.warm, path == Path::Warm, "{what} #{i}");
                assert_eq!(report.continued, i > 0, "{what} #{i}");
                let want = if i == 0 { path.fresh_setup_bytes() } else { 0 };
                assert_eq!(setup_bytes(&report), want, "{what} #{i}: setup-phase bytes");
                // The mark is emitted whatever the phase moves, so a trace
                // has one shape.
                assert!(report.phases.iter().any(|(name, _)| name == "setup"), "{what} #{i}");
            }
            wait_until("the last session to park", || service.lineages().parked == 5);
            let stats = service.lineages();
            assert_eq!((stats.claimed, stats.missed, stats.evicted), (4, 0, 0), "{what}");
            // One lineage is parked at a time: the Yao half, and the
            // fragment half on the paths that extend one.
            assert_eq!(service.store().len(), 1, "{what}");
            assert!(stats.parked_bytes > 0 && stats.parked_bytes < 300 << 10, "{what}: {stats:?}");
            // A clone shares the configuration, not the lineage.
            let report = predict(&client.clone(), service.addr(), &q, &mut rng);
            assert!(!report.continued, "{what}: a cloned client starts its own lineage");
            assert_eq!(setup_bytes(&report), path.fresh_setup_bytes(), "{what}");
        }
    }
}

/// A client that presents a lineage token it holds nothing under: a
/// hello by hand, and a cold KK13 session behind it if the server
/// continued nothing. Returns whether the server did continue (at which
/// point this client, holding no state, can only hang up).
fn forged_offer(addr: SocketAddr, q: &QuantizedNetwork, lineage: ResumeToken, seed: u64) -> bool {
    let client = SecureClient::for_model(q);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ch = TcpTransport::connect(addr).expect("connect");
    ch.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let ours = SessionParams::for_public(client.public_model(), Default::default(), 1);
    let request =
        HelloRequest { lineage, held: Halves { kk: true, yao: true }, ..HelloRequest::default() };
    let reply = handshake_client_ext(&mut ch, ours, &[0xF0; 16], request).expect("hello");
    if reply.continued.any() {
        return true;
    }
    let mut fresh = ClientLineage::default();
    fresh.complete(&mut ch, reply.offline(), &mut rng).expect("setup");
    let state = client.offline_with(&mut ch, fresh, 1, &mut rng).expect("offline");
    let x = input(seed);
    let y = client.online_raw(&mut ch, state, std::slice::from_ref(&x), &mut rng).expect("online");
    assert_eq!(y.col(0), q.forward_exact(&x), "the loser's fresh session is exact too");
    false
}

#[test]
fn one_lineage_token_continues_exactly_one_of_two_concurrent_sessions() {
    let q = tiny_model();
    let path = Path::Cold(OfflineMode::Iknp);
    for pump in PUMPS {
        let service = Service::start(pump, &q, path);
        let addr = service.addr();
        let client = path.client(&q);
        let mut rng = StdRng::seed_from_u64(0x2C11);
        let token = next_token(&rng);
        assert!(!predict(&client, addr, &q, &mut rng).continued);
        wait_until("the lineage to be parked", || service.store().contains(&token));

        // The holder and a second session presenting the same token, let
        // go together. Whoever's hello is read first claims; the other
        // finds nothing and sets up afresh inside its connection.
        let barrier = Barrier::new(2);
        let (holder, forged_won) = std::thread::scope(|scope| {
            let forger = scope.spawn(|| {
                barrier.wait();
                forged_offer(addr, &q, token, 77)
            });
            barrier.wait();
            let report = predict(&client, addr, &q, &mut rng);
            (report, forger.join().expect("forger thread"))
        });
        assert_ne!(holder.continued, forged_won, "{pump:?}: exactly one continues");
        let want = if holder.continued { 0 } else { path.fresh_setup_bytes() };
        assert_eq!(setup_bytes(&holder), want, "{pump:?}");
        wait_until("both sessions to settle", || {
            let stats = service.lineages();
            stats.claimed + stats.missed == 2
        });
        let stats = service.lineages();
        assert_eq!((stats.claimed, stats.missed), (1, 1), "{pump:?}: one claim, one miss");

        // Single use, sequentially too: the token the holder's second
        // session continued (or lost) names nothing any more.
        assert!(!forged_offer(addr, &q, token, 78), "{pump:?}: a spent token continues nothing");
        // The holder's own lineage moved on under its latest token.
        assert!(predict(&client, addr, &q, &mut rng).continued, "{pump:?}");
    }
}

/// Blocking pump, the server's end cut mid-online on the second
/// connection: send 0 is the hello reply, 1-6 the six KK13 column frames
/// of a continued cold session, 7 the first ReLU's IKNP columns; send 8
/// fails.
fn cut_second_connection_mid_online(conn: u64) -> Fault {
    if conn == 1 {
        Fault::CutAfterMessages(8)
    } else {
        Fault::None
    }
}

#[test]
fn a_cut_session_forfeits_the_lineage_and_the_retry_sets_up_yao_afresh() {
    let q = tiny_model();
    let path = Path::Cold(OfflineMode::Iknp);
    let blocking = Blocking::start(&q, path, cut_second_connection_mid_online);
    let client = path.client(&q).with_policy(RetryPolicy::no_delay(3));
    let mut rng = StdRng::seed_from_u64(0xC07);
    let first = next_token(&rng);
    assert!(!predict(&client, blocking.addr, &q, &mut rng).continued);
    wait_until("the first lineage to be parked", || blocking.store.contains(&first));

    // Attempt 1 continues the lineage (no setup bytes) and dies after its
    // offline phase; attempt 2 resumes that checkpoint and, holding no
    // lineage any more, runs the Yao batch — alone: a resumed session
    // extends no fragment half.
    let report = predict(&client, blocking.addr, &q, &mut rng);
    assert_eq!((report.attempts, report.resumed), (2, true), "got {report:?}");
    assert!(!report.continued, "the retry offered nothing");
    assert_eq!(setup_bytes(&report), BATCH_128, "one fresh Yao batch over both attempts");
    let stats = blocking.store.lineage_stats();
    assert_eq!((stats.claimed, stats.missed), (1, 0), "only attempt 1 named a lineage");
    // The dead session's lineage is nowhere: claimed out from under the
    // first token, dropped with the driver, and what sits under the second
    // token is what the *retry* parked at its clean end.
    assert!(blocking.store.claim_lineage(&first).is_none());
    assert_eq!((blocking.store.len(), stats.parked), (1, 2));

    // Which the next prediction continues: Yao half only, so a cold
    // session sets up its fragment half again, once.
    let report = predict(&client, blocking.addr, &q, &mut rng);
    assert!(report.continued && report.attempts == 1);
    assert_eq!(setup_bytes(&report), BATCH_256);
    let report = predict(&client, blocking.addr, &q, &mut rng);
    assert_eq!((report.continued, setup_bytes(&report)), (true, 0));
}

#[test]
fn a_panicked_session_forfeits_the_lineage_on_the_event_loop() {
    let q = tiny_model();
    let path = Path::Cold(OfflineMode::Iknp);
    // The second admitted session panics at the top of its online phase.
    let governor = GovernorConfig { inject_panic_session: Some(1), ..GovernorConfig::default() };
    let service = Service::event_loop(&q, path, governor);
    let client = path.client(&q).with_policy(RetryPolicy::no_delay(3));
    let mut rng = StdRng::seed_from_u64(0xFA11);
    let first = next_token(&rng);
    assert!(!predict(&client, service.addr(), &q, &mut rng).continued);
    wait_until("the first lineage to be parked", || service.store().contains(&first));

    // Attempt 1 claims the lineage and is quarantined (its checkpoint is
    // discarded, so nothing resumes); attempt 2 is a whole fresh session.
    let report = predict(&client, service.addr(), &q, &mut rng);
    assert_eq!((report.attempts, report.resumed, report.continued), (2, false, false));
    assert_eq!(setup_bytes(&report), path.fresh_setup_bytes());
    let Service::EventLoop(server) = &service else { unreachable!() };
    assert_eq!(server.metrics().panicked, 1);
    assert!(service.store().claim_lineage(&first).is_none(), "claimed, then dropped");
    wait_until("the retry to park", || service.lineages().parked == 2);
    assert_eq!(service.store().len(), 1, "only the retry's lineage is parked");

    let report = predict(&client, service.addr(), &q, &mut rng);
    assert_eq!((report.continued, setup_bytes(&report)), (true, 0));
}

#[test]
fn a_mode_switch_continues_yao_and_sets_up_the_fragment_half_afresh() {
    let q = tiny_model();
    for pump in PUMPS {
        let service = Service::start(pump, &q, Path::Cold(OfflineMode::Iknp));
        let mut rng = StdRng::seed_from_u64(0x5117);
        let client = Path::Cold(OfflineMode::Iknp).client(&q);
        assert!(!predict(&client, service.addr(), &q, &mut rng).continued);
        // The builder moves the client, lineage and all.
        let client = client.with_silent(true);
        let report = predict(&client, service.addr(), &q, &mut rng);
        assert!(report.continued, "{pump:?}: the Yao half carries over");
        assert_eq!(setup_bytes(&report), BATCH_128, "{pump:?}: the silent bootstrap's batch only");
        let report = predict(&client, service.addr(), &q, &mut rng);
        assert_eq!((report.continued, setup_bytes(&report)), (true, 0), "{pump:?}");
        // And back: the silent half is of no use to a KK13 session.
        let client = client.with_silent(false);
        let report = predict(&client, service.addr(), &q, &mut rng);
        assert_eq!((report.continued, setup_bytes(&report)), (true, BATCH_256), "{pump:?}");
    }
}

#[test]
fn a_busy_rejection_leaves_both_halves_claimable() {
    let q = tiny_model();
    let path = Path::Cold(OfflineMode::Iknp);
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        pool_depth: 0,
        deadlines: deadlines(),
        ..ServeConfig::default()
    };
    let server = Server::start(q.clone(), "127.0.0.1:0", config).expect("start server");
    let client = path.client(&q).with_policy(RetryPolicy::no_delay(1));
    let mut rng = StdRng::seed_from_u64(0xB5);
    assert!(!predict(&client, server.addr(), &q, &mut rng).continued);
    wait_until("the first session to leave", || server.metrics().active == 0);

    // The worker and the queue slot held by peers that never speak: the
    // acceptor answers busy without reading a hello.
    let stalls = {
        let worker = TcpStream::connect(server.addr()).expect("stall 1");
        wait_until("the worker to take the first stall", || server.metrics().active >= 1);
        let queue = TcpStream::connect(server.addr()).expect("stall 2");
        wait_until("the second stall to queue", || server.metrics().accepted >= 3);
        (worker, queue)
    };
    let x = input(1);
    let err = client.run(server.addr(), std::slice::from_ref(&x), &mut rng).unwrap_err();
    assert!(matches!(err, ProtocolError::Overloaded { .. }), "got {err:?}");
    assert_eq!(server.metrics().lineage.claimed, 0, "a busy reply consumes nothing");
    drop(stalls);
    wait_until("the stalls to clear", || server.metrics().active == 0);

    let report = predict(&client, server.addr(), &q, &mut rng);
    assert_eq!((report.continued, setup_bytes(&report)), (true, 0), "both halves still there");
    assert_eq!(server.metrics().lineage.missed, 0);
}

#[test]
fn a_host_that_parks_nothing_says_so_and_the_client_keeps_nothing() {
    let q = tiny_model();
    let path = Path::Cold(OfflineMode::Iknp);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = SecureServer::for_model(ServedModel::from(q.clone()));
    std::thread::scope(|scope| {
        // `SecureServer::run` drives a session over `NullHost`, which has
        // no store.
        scope.spawn(|| {
            for seed in 0..2 {
                let (stream, _) = listener.accept().expect("accept");
                let mut ch = TcpTransport::from_stream(stream).expect("transport");
                server.run(&mut ch, 1, &mut StdRng::seed_from_u64(seed)).expect("server");
            }
        });
        let client = path.client(&q);
        let mut rng = StdRng::seed_from_u64(0x9011);
        for _ in 0..2 {
            let report = predict(&client, addr, &q, &mut rng);
            assert!(!report.continued);
            assert_eq!(setup_bytes(&report), path.fresh_setup_bytes(), "every session sets up");
        }
    });
}
