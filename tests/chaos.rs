//! Seeded chaos harness: randomized fault plans on both sides of a
//! resilient inference session.
//!
//! For every seed, both parties run under [`FaultPlan::seeded`] — random
//! combinations of connection cuts (either direction), truncations,
//! corruptions and delays — while the resilient drivers reconnect and
//! resume. The property under test is the robustness contract:
//!
//! * every seed **terminates** before its watchdog deadline (no hangs),
//! * no thread **panics**,
//! * an `Ok` outcome carries logits **bit-identical** to
//!   [`QuantizedNetwork::forward_exact`] — a fault may abort a run but
//!   must never corrupt an answer,
//! * an `Err` outcome is a **typed** [`ProtocolError`].
//!
//! One carve-out: the protocol is semi-honest and carries no message
//! MACs, so a seed whose plan drew a *payload corruption* fault may
//! produce wrong logits undetected (a corrupted channel is outside the
//! paper's threat model — real TCP provides integrity). For those seeds
//! the suite still enforces no-hang/no-panic/typed-errors; corruption of
//! *structured* material (curve points, GC tables) is separately asserted
//! to be detected in `failure_injection.rs`.
//!
//! The seed count defaults to 64 and can be raised without recompiling:
//!
//! ```sh
//! CHAOS_SEEDS=256 cargo test --test chaos
//! ```

use abnn2::core::handshake::{handshake_client_ext, HelloRequest, SessionParams};
use abnn2::core::inference::{ClientOffline, SecureClient, SecureServer};
use abnn2::core::resilient::{ResilientClient, ResilientServer};
use abnn2::core::session::ClientLineage;
use abnn2::core::{ExecConfig, ProtocolError, PublicModel, SessionDeadlines};
use abnn2::math::{FragmentScheme, Ring};
use abnn2::net::{
    sim_link, Endpoint, Fault, FaultPlan, FaultyTransport, NetworkModel, RetryPolicy, TcpTransport,
    Transport,
};
use abnn2::nn::quant::{QuantConfig, QuantizedNetwork};
use abnn2::nn::transformer::QuantizedTransformer;
use abnn2::nn::Network;
use abnn2::serve::{GovernorConfig, ServeClient, ServeConfig, Server};
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn chaos_seed_count() -> u64 {
    std::env::var("CHAOS_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
}

fn tiny_model() -> QuantizedNetwork {
    let net = Network::new(&[10, 5, 4], 1234);
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

/// Expected protocol message count per attempt, the horizon for seeded
/// fault indices: large enough to land faults in every phase, small
/// enough that most plans actually fire.
const FAULT_HORIZON: u64 = 48;

/// Derives the fault plan for one (seed, attempt, side) triple. Attempts
/// 0 and 1 draw from the seeded catalogue; attempt 2+ runs clean so a
/// session that survives to the last attempt can actually finish — the
/// contract under test is "exact answer or typed error", not liveness
/// under unbounded adversarial faults.
fn plan_for(seed: u64, attempt: u32, side: u64) -> FaultPlan {
    if attempt >= 2 {
        return FaultPlan::none();
    }
    let mix = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(attempt))
        .wrapping_mul(2)
        .wrapping_add(side);
    FaultPlan::seeded(mix, FAULT_HORIZON)
}

/// True when any of the seed's fault plans (either side, either faulty
/// attempt) drew a payload-corruption fault — the one class that can
/// silently alter logits in the semi-honest model (see module docs).
fn corruption_drawn(seed: u64) -> bool {
    (0..2u32).any(|attempt| {
        (0..2u64).any(|side| {
            plan_for(seed, attempt, side)
                .faults()
                .iter()
                .any(|f| matches!(f, abnn2::net::Fault::CorruptMessage { .. }))
        })
    })
}

/// Runs one full chaos trial; returns the client outcome and both
/// parties' error (if any) for the final assertion.
fn run_seed(
    seed: u64,
    q: &QuantizedNetwork,
    inputs: &[Vec<u64>],
    expected: &[u64],
    silent: bool,
) -> Result<(), String> {
    let deadlines = SessionDeadlines::uniform(Duration::from_secs(2));
    let policy = RetryPolicy::no_delay(3);
    let (dialer, listener) = sim_link(NetworkModel::instant());

    let server = ResilientServer::new(SecureServer::for_model(q.clone()))
        .with_policy(policy)
        .with_deadlines(deadlines);
    let client = ResilientClient::new(SecureClient::for_model(q).with_silent(silent))
        .with_policy(policy)
        .with_deadlines(deadlines);

    std::thread::scope(|scope| {
        let srv = scope.spawn(move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(1000));
            server.serve_one(
                |attempt| {
                    listener
                        .accept_timeout(Duration::from_secs(2))
                        .map(|ep| FaultyTransport::with_plan(ep, plan_for(seed, attempt, 0)))
                },
                &mut rng,
            )
        });

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(2000));
        let client_result = client.run_raw(
            |attempt| {
                dialer.dial().map(|ep| FaultyTransport::with_plan(ep, plan_for(seed, attempt, 1)))
            },
            inputs,
            &mut rng,
        );
        let server_result = srv.join().expect("server thread must not panic");

        match client_result {
            Ok((y, _report)) => {
                if y.col(0) != expected && !corruption_drawn(seed) {
                    return Err(format!(
                        "seed {seed}: WRONG ANSWER — got {:?}, want {expected:?}",
                        y.col(0)
                    ));
                }
            }
            Err(e) => {
                // Typed by construction; exercise Display to catch panics
                // in the formatting path too.
                let _ = e.to_string();
                if let ProtocolError::Dimension(_) = e {
                    return Err(format!("seed {seed}: fault mapped to a caller bug: {e}"));
                }
            }
        }
        if let Err(e) = server_result {
            let _ = e.to_string();
        }
        Ok(())
    })
}

/// Per-seed watchdog: the whole trial must finish well before this.
const SEED_DEADLINE: Duration = Duration::from_secs(30);

/// Runs `n` seeds starting at `offset` under a per-seed watchdog,
/// collecting contract violations.
fn chaos_batch(offset: u64, n: u64, silent: bool) -> Vec<String> {
    let q = tiny_model();
    let inputs: Vec<Vec<u64>> = vec![vec![700, 1 << 8, 3, 90, 0, 5, 2 << 7, 33, 12, 256]];
    let expected = q.forward_exact(&inputs[0]);

    let mut failures = Vec::new();
    for seed in offset..offset + n {
        // Watchdog: run the trial on a helper thread; a hang turns into a
        // typed test failure instead of a stuck CI job.
        let (tx, rx) = mpsc::channel();
        let q2 = q.clone();
        let inputs2 = inputs.clone();
        let expected2 = expected.clone();
        let trial = std::thread::spawn(move || {
            let outcome = run_seed(seed, &q2, &inputs2, &expected2, silent);
            let _ = tx.send(outcome);
        });
        match rx.recv_timeout(SEED_DEADLINE) {
            Ok(Ok(())) => {
                trial.join().expect("trial thread");
            }
            Ok(Err(msg)) => {
                trial.join().expect("trial thread");
                failures.push(msg);
            }
            Err(_) => {
                // Leak the hung thread; the process will be torn down at
                // test exit. Report which seed wedged.
                failures.push(format!("seed {seed}: HANG (no result within {SEED_DEADLINE:?})"));
            }
        }
    }
    failures
}

#[test]
fn chaos_seeds_complete_exactly_or_fail_typed() {
    let n = chaos_seed_count();
    let failures = chaos_batch(0, n, false);
    assert!(
        failures.is_empty(),
        "{} of {n} chaos seeds violated the contract:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The same seeded cut/corrupt/truncate/delay catalogue over sessions
/// negotiated onto the **silent** offline backend — faults now land on
/// SILENT_* frames (base columns, SPCOT masks/sums, derandomization bits)
/// as well as the shared ones. The contract is unchanged: exact answer or
/// typed error, no hangs, no panics.
#[test]
fn silent_chaos_seeds_complete_exactly_or_fail_typed() {
    let n = chaos_seed_count().div_ceil(2);
    let failures = chaos_batch(10_000, n, true);
    assert!(
        failures.is_empty(),
        "{} of {n} silent chaos seeds violated the contract:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// A flipped frame tag at *any* point in the session — swept over every
/// send index on both sides — must surface as a typed error whose message
/// names the frame the victim expected (`"… frame tag"`), never as a hang,
/// a panic, or a wrong answer. This is the typed-wire-layer guarantee the
/// one-byte tag buys: a desynchronized or corrupted stream is caught at the
/// first mis-tagged frame, at whichever protocol entry point receives it.
#[test]
fn tag_flip_at_every_entry_point_names_the_expected_frame() {
    flip_sweep(false, 20);
}

/// The same sweep over a silent session: the first twenty send indices on
/// either side cover the hello, base-OT bootstrap (SILENT_BASE_COLUMNS),
/// SPCOT mask/sum refills and derandomization frames, so a flipped tag on
/// any of the new 0x40–0x43 frames must also die typed, naming the frame.
#[test]
fn silent_tag_flip_at_every_entry_point_names_the_expected_frame() {
    flip_sweep(true, 26);
}

/// `sweep` send indices must reach past the end of the session on either
/// side, so the suite also witnesses clean completions.
fn flip_sweep(silent: bool, sweep: u64) {
    let q = tiny_model();
    let inputs: Vec<Vec<u64>> = vec![vec![700, 1 << 8, 3, 90, 0, 5, 2 << 7, 33, 12, 256]];
    let expected = q.forward_exact(&inputs[0]);

    let names_frame = |e: &ProtocolError| e.to_string().contains("frame tag");

    for side in 0..2u64 {
        let mut landed = 0u32;
        let mut clean = 0u32;
        for index in 0..sweep {
            let (a, b) = Endpoint::pair(NetworkModel::instant());
            let flip = Fault::FlipTag { index };
            let mut sch = FaultyTransport::new(a, if side == 0 { flip } else { Fault::None });
            let mut cch = FaultyTransport::new(b, if side == 1 { flip } else { Fault::None });
            let server = SecureServer::for_model(q.clone());
            let client = SecureClient::for_model(&q).with_silent(silent);
            let inputs2 = inputs.clone();
            let (sres, cres) = std::thread::scope(|scope| {
                let srv = scope.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(index + 9);
                    server.run(&mut sch, 1, &mut rng)
                });
                let mut rng = rand::rngs::StdRng::seed_from_u64(index + 77);
                let cres = client
                    .offline(&mut cch, 1, &mut rng)
                    .and_then(|state| client.online_raw(&mut cch, state, &inputs2, &mut rng));
                // Close the client's endpoint before joining: a server
                // still waiting on a client that already errored out must
                // see `Closed`, not block forever.
                drop(cch);
                (srv.join().expect("server thread must not panic"), cres)
            });
            match (&sres, &cres) {
                (Ok(()), Ok(y)) => {
                    clean += 1;
                    assert_eq!(y.col(0), expected, "side {side} index {index}: wrong logits");
                }
                _ => {
                    landed += 1;
                    // The victim of the flipped tag must report a typed
                    // error naming the expected frame; the flipping side
                    // may only see the resulting disconnection.
                    let named = sres.as_ref().err().is_some_and(names_frame)
                        || cres.as_ref().err().is_some_and(names_frame);
                    assert!(
                        named,
                        "side {side} index {index}: no typed frame-tag error \
                         (server: {sres:?}, client: {cres:?})"
                    );
                }
            }
        }
        assert!(landed >= 5, "side {side}: only {landed} flips landed — sweep too short?");
        assert!(clean >= 1, "side {side}: no clean run — raise the sweep to cover the session");
    }
}

/// A client that completes the offline phase and then vanishes leaves the
/// serving frontend's session driver **suspended in the event loop** at
/// the first online recv. The cut must surface as a retryable failure
/// that parks the offline state in the checkpoint store, and a reconnect
/// with the same token must resume to logits bit-identical to an
/// uninterrupted blocking run — the suspended-state path may not diverge
/// from the thread-per-session path it replaced.
#[test]
fn event_loop_cut_while_parked_checkpoints_and_resumes_bit_exact() {
    let q = tiny_model();
    let x: Vec<u64> = vec![700, 1 << 8, 3, 90, 0, 5, 2 << 7, 33, 12, 256];
    let expected = q.forward_exact(&x);
    let info = PublicModel::from(&q);
    let server = Server::start(
        q.clone(),
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            sessions_per_worker: 4,
            pool_depth: 0,
            deadlines: SessionDeadlines::uniform(Duration::from_secs(5)),
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let addr = server.addr();
    let client = SecureClient::for_model(info.clone());
    let mut rng = rand::rngs::StdRng::seed_from_u64(31337);
    let token: [u8; 16] = [0x5A; 16];
    let ours = SessionParams::for_public(&info, ExecConfig::new().variant, 1);

    // Attempt 1: run through the offline phase, then cut the connection
    // while the server's driver is parked awaiting the first online frame.
    let checkpoint = {
        let mut ch = TcpTransport::connect(addr).expect("connect");
        ch.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let reply = handshake_client_ext(
            &mut ch,
            ours,
            &token,
            HelloRequest { resume: false, silent: false, ..HelloRequest::default() },
        )
        .expect("handshake");
        assert!(!reply.resume && !reply.bundle);
        let session = ClientLineage::setup(&mut ch, &mut rng).expect("setup");
        let state = client.offline_with(&mut ch, session, 1, &mut rng).expect("offline");
        // Flush the coalesced tail of the offline exchange so the server
        // finishes its offline phase and parks at the first online recv;
        // TCP orders the data ahead of the EOF from the drop below.
        ch.flush().expect("flush");
        state.to_bundle()
        // `ch` drops here: mid-session cut.
    };

    // The parked driver observes the cut, fails retryably, and parks its
    // connection-independent state in the sharded checkpoint store.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !server.checkpoint_store().contains(&token) {
        assert!(Instant::now() < deadline, "server never checkpointed the cut session");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.metrics().failed, 1, "the cut session must count as failed");

    // Attempt 2: reconnect with the same token and resume.
    let mut ch = TcpTransport::connect(addr).expect("reconnect");
    ch.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let reply = handshake_client_ext(
        &mut ch,
        ours,
        &token,
        HelloRequest { resume: true, silent: false, ..HelloRequest::default() },
    )
    .expect("resume handshake");
    assert!(reply.resume, "server must offer to resume the checkpointed session");
    // A resumed session has no offline phase: setup runs the Yao batch alone.
    let mut session = ClientLineage::default();
    session.complete(&mut ch, reply.offline(), &mut rng).expect("setup");
    assert!(session.kk.is_none());
    let state = ClientOffline::from_bundle(session.yao.expect("Yao half"), checkpoint);
    let y = client.online_raw(&mut ch, state, std::slice::from_ref(&x), &mut rng).expect("online");
    assert_eq!(y.col(0), expected, "resumed logits diverge from forward_exact");
}

/// Delay faults on the client side stall individual frames while the
/// server's driver sits suspended in the event loop. As long as every
/// stall stays under the read timeout, the dribbling session must
/// complete bit-exact — repeated park/resume cycles may not perturb the
/// protocol stream.
#[test]
fn event_loop_rides_out_delayed_frames_while_parked() {
    let q = tiny_model();
    let x: Vec<u64> = vec![9, 200, 31, 4, 1 << 9, 55, 6, 77, 801, 12];
    let expected = q.forward_exact(&x);
    let info = PublicModel::from(&q);
    let server = Server::start(
        q.clone(),
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            sessions_per_worker: 2,
            pool_depth: 0,
            deadlines: SessionDeadlines::uniform(Duration::from_secs(5)),
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let addr = server.addr();
    let client = SecureClient::for_model(info.clone());
    let mut rng = rand::rngs::StdRng::seed_from_u64(4711);
    let token: [u8; 16] = [0x77; 16];
    let ours = SessionParams::for_public(&info, ExecConfig::new().variant, 1);

    // Stall a spread of frames in both directions: the hello (driver parks
    // before any protocol state), mid-setup, and deep in the offline phase.
    let plan = FaultPlan::of(vec![
        Fault::DelaySend { index: 0, millis: 200 },
        Fault::DelaySend { index: 2, millis: 150 },
        Fault::DelaySend { index: 5, millis: 150 },
        Fault::DelayRecv { index: 3, millis: 150 },
    ]);
    let mut ch = FaultyTransport::with_plan(TcpTransport::connect(addr).expect("connect"), plan);
    ch.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let reply = handshake_client_ext(
        &mut ch,
        ours,
        &token,
        HelloRequest { resume: false, silent: false, ..HelloRequest::default() },
    )
    .expect("handshake");
    assert!(!reply.resume && !reply.bundle);
    let session = ClientLineage::setup(&mut ch, &mut rng).expect("setup");
    let state = client.offline_with(&mut ch, session, 1, &mut rng).expect("offline");
    let y = client.online_raw(&mut ch, state, std::slice::from_ref(&x), &mut rng).expect("online");
    assert_eq!(y.col(0), expected, "delayed session diverges from forward_exact");

    // Bookkeeping settles after the client's last recv; wait briefly.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.metrics().completed < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let m = server.metrics();
    assert_eq!(m.completed, 1);
    assert_eq!(m.failed, 0, "delays under the read timeout must not fail the session");
}

/// The same contract under a latency-bearing network model: virtual-clock
/// phase budgets interact with simulated latency rather than wall time.
#[test]
fn chaos_smoke_on_lan_model() {
    let q = tiny_model();
    let inputs: Vec<Vec<u64>> = vec![vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]];
    let expected = q.forward_exact(&inputs[0]);

    for seed in 0..4u64 {
        let deadlines = SessionDeadlines::uniform(Duration::from_secs(2));
        let (dialer, listener) = sim_link(NetworkModel::lan());
        let server = ResilientServer::new(SecureServer::for_model(q.clone()))
            .with_policy(RetryPolicy::no_delay(3))
            .with_deadlines(deadlines);
        let client = ResilientClient::new(SecureClient::for_model(&q))
            .with_policy(RetryPolicy::no_delay(3))
            .with_deadlines(deadlines);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 50);
                let _ = server.serve_one(
                    |attempt| {
                        listener
                            .accept_timeout(Duration::from_secs(2))
                            .map(|ep| FaultyTransport::with_plan(ep, plan_for(seed, attempt, 0)))
                    },
                    &mut rng,
                );
            });
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 60);
            if let Ok((y, _)) = client.run_raw(
                |attempt| {
                    dialer
                        .dial()
                        .map(|ep| FaultyTransport::with_plan(ep, plan_for(seed, attempt, 1)))
                },
                &inputs,
                &mut rng,
            ) {
                if !corruption_drawn(seed) {
                    assert_eq!(y.col(0), expected, "seed {seed} returned wrong logits");
                }
            }
        });
    }
}

/// A seeded slowloris — a peer dribbling one byte at a time, never
/// completing a frame — must be evicted by the governor's idle budget
/// while a warm sibling multiplexed on the *same worker* rides a pooled
/// bundle to bit-exact logits with zero offline-phase bytes. The
/// transport deadlines are deliberately generous: the eviction under test
/// is the multiplexing budget, not the blocking read timeout.
#[test]
fn governor_evicts_slowloris_while_warm_sibling_completes() {
    let q = tiny_model();
    let x: Vec<u64> = vec![700, 1 << 8, 3, 90, 0, 5, 2 << 7, 33, 12, 256];
    let expected = q.forward_exact(&x);
    let info = PublicModel::from(&q);
    let server = Server::start(
        q.clone(),
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            sessions_per_worker: 2,
            pool_depth: 1,
            pool_batches: vec![1],
            deadlines: SessionDeadlines::uniform(Duration::from_secs(60)),
            governor: GovernorConfig {
                idle_timeout: Some(Duration::from_millis(300)),
                ..GovernorConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let addr = server.addr();
    assert!(server.warm_up(1, 1, Duration::from_secs(30)), "pool must warm");

    let server = &server;
    std::thread::scope(|scope| {
        // Slowloris: seeded dribble, one byte per 40 ms, never a complete
        // frame — `last_inbound` never advances, so the idle budget fires
        // however busily the bytes trickle.
        scope.spawn(move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x510_1035);
            let mut sock = std::net::TcpStream::connect(addr).expect("slowloris connect");
            // A plausible hello-sized header so the dribble is not
            // rejected as malformed, then garbage it never finishes.
            let mut bytes = vec![57u8, 0, 0, 0];
            bytes.extend((0..24).map(|_| rng.gen::<u8>()));
            for b in bytes {
                if server.metrics().evicted >= 1 {
                    break;
                }
                if sock.write_all(&[b]).is_err() {
                    break; // evicted server-side: the socket is gone
                }
                std::thread::sleep(Duration::from_millis(40));
            }
        });

        // Wait until the slowloris occupies a session slot, then run a
        // real warm request on the same single worker.
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.metrics().active < 1 {
            assert!(Instant::now() < deadline, "slowloris never admitted");
            std::thread::sleep(Duration::from_millis(2));
        }
        let client = ServeClient::for_model(info.clone())
            .with_deadlines(SessionDeadlines::uniform(Duration::from_secs(60)));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x51B_1146);
        let (y, report) =
            client.run(addr, std::slice::from_ref(&x), &mut rng).expect("warm sibling");
        assert_eq!(y.col(0), expected, "sibling logits diverge");
        assert!(report.warm, "sibling must ride the pooled bundle");
        assert_eq!(
            report.phase("offline").total_bytes(),
            0,
            "warm sibling must move zero offline-phase bytes"
        );

        // The governor must reclaim the slot within its budget.
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.metrics().evicted < 1 {
            assert!(Instant::now() < deadline, "slowloris never evicted");
            std::thread::sleep(Duration::from_millis(5));
        }
    });

    let m = server.metrics();
    assert!(m.evicted >= 1, "idle budget must evict the slowloris");
    assert_eq!(m.panicked, 0);
    let prom = m.render_prometheus();
    assert!(prom.contains("abnn2_serve_sessions_evicted_total"), "eviction family must render");
}

/// A peer that completes the handshake and base-OT setup, then never
/// drains its socket while the server pushes the offline phase, must be
/// evicted by the governor's outbound-queue byte cap — the frame buffer
/// must not absorb the whole offline phase for a dead reader. The model
/// is sized so the server's offline send volume dwarfs anything the
/// kernel's socket buffers can hide.
#[test]
fn governor_evicts_never_draining_reader_on_outbound_cap() {
    let net = Network::new(&[1024, 256, 4], 777);
    let q = QuantizedNetwork::quantize(
        &net,
        QuantConfig {
            ring: Ring::new(32),
            frac_bits: 8,
            weight_frac_bits: 2,
            scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
        },
    );
    let info = PublicModel::from(&q);
    let server = Server::start(
        q,
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            sessions_per_worker: 2,
            pool_depth: 0,
            deadlines: SessionDeadlines::uniform(Duration::from_secs(60)),
            governor: GovernorConfig {
                max_outbound_bytes: Some(64 * 1024),
                ..GovernorConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("start server");

    // Handshake + setup, then go silent: the server's driver queues the
    // offline OT-extension columns, the socket stops draining, and the
    // frame buffer's backlog crosses the cap.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xDEAD_BEEF);
    let token: [u8; 16] = [0x44; 16];
    let ours = SessionParams::for_public(&info, ExecConfig::new().variant, 1);
    let ch = {
        let mut ch = TcpTransport::connect(server.addr()).expect("connect");
        ch.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
        let reply = handshake_client_ext(
            &mut ch,
            ours,
            &token,
            HelloRequest { resume: false, silent: false, ..HelloRequest::default() },
        )
        .expect("handshake");
        assert!(!reply.resume && !reply.bundle);
        let _session = ClientLineage::setup(&mut ch, &mut rng).expect("setup");
        ch // hold the connection open, never read again
    };

    let deadline = Instant::now() + Duration::from_secs(30);
    while server.metrics().evicted < 1 {
        assert!(
            Instant::now() < deadline,
            "server never evicted the non-draining peer: {:?}",
            server.metrics()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(ch);
    let m = server.metrics();
    assert!(m.evicted >= 1, "outbound cap must evict the dead reader");
    assert_eq!(m.completed, 0);
    assert_eq!(m.panicked, 0);
}

/// The bug this pins: a failed session used to get the same bounded
/// courtesy flush as a finished one, five seconds of waiting for `POLLOUT`
/// on everything queued. A peer that completes the hello and setup of a
/// cold session, never reads the offline phase the server then queues
/// (megabytes, more than the socket buffers take), and sends one stray
/// frame fails its session with all of that still queued — and the wait
/// held the worker thread, and the honest session multiplexed on it, for
/// the whole five seconds. A failure waits only for a negotiation reply.
#[test]
fn a_failed_never_draining_peer_does_not_stall_its_sibling() {
    let net = Network::new(&[1024, 256, 4], 778);
    let q = QuantizedNetwork::quantize(
        &net,
        QuantConfig {
            ring: Ring::new(32),
            frac_bits: 8,
            weight_frac_bits: 2,
            scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
        },
    );
    let x: Vec<u64> = (0..1024).map(|j| (j * 37 + 5) & 0xFFF).collect();
    let expected = q.forward_exact(&x);
    let info = PublicModel::from(&q);
    let deadlines = SessionDeadlines::uniform(Duration::from_secs(60));
    let server = Server::start(
        q,
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            sessions_per_worker: 2,
            pool_depth: 1,
            pool_batches: vec![1],
            deadlines,
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    assert!(server.warm_up(1, 1, Duration::from_secs(30)), "pool must warm");

    // Hello and setup of a cold session, then nothing is ever read.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBAD_F1A5);
    let ours = SessionParams::for_public(&info, ExecConfig::new().variant, 1);
    let mut hostile = TcpTransport::connect(server.addr()).expect("connect");
    hostile.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
    let reply = handshake_client_ext(&mut hostile, ours, &[0x45; 16], HelloRequest::default())
        .expect("handshake");
    assert!(!reply.resume && !reply.bundle);
    let _halves = ClientLineage::setup(&mut hostile, &mut rng).expect("setup");
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.metrics().phase("offline").bytes_sent < 4 << 20 {
        assert!(Instant::now() < deadline, "the server never queued its column frame");
        std::thread::sleep(Duration::from_millis(2));
    }

    // One frame the fragment sender would never send fails the session.
    hostile.send(&[0xEE, 1, 2]).expect("stray frame");
    hostile.flush().expect("flush");
    let started = Instant::now();
    let client = ServeClient::for_model(info).with_deadlines(deadlines);
    let (y, report) =
        client.run(server.addr(), std::slice::from_ref(&x), &mut rng).expect("honest sibling");
    let took = started.elapsed();
    assert_eq!(y.col(0), expected, "sibling logits diverge");
    assert!(report.warm, "the sibling rides the pooled bundle");
    assert!(took < Duration::from_secs(1), "the sibling waited {took:?} behind a failed peer");

    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().completed < 1 || server.metrics().active > 0 {
        assert!(Instant::now() < deadline, "bookkeeping never settled: {:?}", server.metrics());
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(hostile);
    let m = server.metrics();
    assert_eq!((m.completed, m.failed, m.evicted, m.panicked), (1, 1, 0, 0));
}

/// A session that panics mid-online must be quarantined: its worker and
/// the sibling sessions multiplexed on it keep running, the poisoned
/// checkpoint is discarded, and every client — including the one whose
/// session was killed, via its resilient retry — still ends bit-exact.
/// No worker respawn may occur: quarantine is per-session.
#[test]
fn mid_online_panic_quarantines_session_but_siblings_finish_bit_exact() {
    let q = tiny_model();
    let info = PublicModel::from(&q);
    let server = Server::start(
        q.clone(),
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            sessions_per_worker: 4,
            queue_capacity: 8,
            pool_depth: 0,
            deadlines: SessionDeadlines::uniform(Duration::from_secs(30)),
            governor: GovernorConfig {
                // The second admitted session dies at the top of its first
                // online-phase sweep.
                inject_panic_session: Some(1),
                ..GovernorConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let addr = server.addr();

    let exact: usize = std::thread::scope(|scope| {
        (0..3u64)
            .map(|c| {
                let client = ServeClient::for_model(info.clone())
                    .with_bundles(false)
                    .with_deadlines(SessionDeadlines::uniform(Duration::from_secs(30)))
                    .with_policy(RetryPolicy::no_delay(3));
                let q = &q;
                scope.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(9_000 + c);
                    let input: Vec<u64> = (0..10).map(|j| (c * 31 + j * 7) & 0xFFFF).collect();
                    let expected = q.forward_exact(&input);
                    let (y, _report) = client
                        .run(addr, std::slice::from_ref(&input), &mut rng)
                        .expect("client must survive the injected panic via retry");
                    assert_eq!(y.col(0), expected, "client {c}: logits diverge");
                    1usize
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .sum()
    });
    assert_eq!(exact, 3, "every client must end bit-exact");

    // Settle the worker-side bookkeeping, then pin the quarantine story:
    // exactly one panic, zero worker deaths, and the victim's retry
    // reconnected fresh (its checkpoint was discarded as poisoned).
    let deadline = Instant::now() + Duration::from_secs(5);
    while (server.metrics().completed < 3 || server.metrics().active > 0)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let m = server.metrics();
    assert_eq!(m.panicked, 1, "exactly the injected session may panic");
    assert_eq!(m.worker_respawns, 0, "quarantine must not cost a worker");
    assert_eq!(m.completed, 3);
    assert_eq!(m.failed, 1, "the quarantined session counts as failed");
    assert_eq!(m.active, 0, "the worker must still be sweeping, not wedged");
    let prom = m.render_prometheus();
    assert!(prom.contains("abnn2_serve_sessions_panicked_total 1"), "panic family must render");
    assert!(prom.contains("abnn2_serve_sessions_evicted_total 0"), "eviction family must render");
}

/// A silent session cut after its offline phase — the LPN expansion has
/// run, the client parked its state — must checkpoint server-side like an
/// IKNP session does, and a reconnect **renegotiating silent** must
/// resume to bit-exact logits. The resumed setup re-runs the base-OT
/// bootstrap in the negotiated mode on both sides, so the replayed
/// driver's transcript stays aligned.
#[test]
fn silent_cut_after_expansion_checkpoints_and_resumes_bit_exact() {
    let q = tiny_model();
    let x: Vec<u64> = vec![700, 1 << 8, 3, 90, 0, 5, 2 << 7, 33, 12, 256];
    let expected = q.forward_exact(&x);
    let info = PublicModel::from(&q);
    let server = Server::start(
        q.clone(),
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            sessions_per_worker: 4,
            pool_depth: 0,
            deadlines: SessionDeadlines::uniform(Duration::from_secs(5)),
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let addr = server.addr();
    let client = SecureClient::for_model(info.clone());
    let mut rng = rand::rngs::StdRng::seed_from_u64(41337);
    let token: [u8; 16] = [0xA5; 16];
    let ours = SessionParams::for_public(&info, ExecConfig::new().variant, 1);

    // Attempt 1: negotiate silent, run the offline phase (base-OT
    // bootstrap + SPCOT/LPN expansion), then cut while the server's
    // driver is parked at the first online frame.
    let checkpoint = {
        let mut ch = TcpTransport::connect(addr).expect("connect");
        ch.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let reply = handshake_client_ext(
            &mut ch,
            ours,
            &token,
            HelloRequest { resume: false, silent: true, ..HelloRequest::default() },
        )
        .expect("handshake");
        assert!(reply.silent, "server must grant silent capability");
        let session = ClientLineage::setup_with(&mut ch, reply.mode(), &mut rng).expect("setup");
        let state = client.offline_with(&mut ch, session, 1, &mut rng).expect("offline");
        ch.flush().expect("flush");
        state.to_bundle()
        // `ch` drops here: mid-session cut.
    };

    let deadline = Instant::now() + Duration::from_secs(10);
    while !server.checkpoint_store().contains(&token) {
        assert!(Instant::now() < deadline, "server never checkpointed the cut silent session");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Attempt 2: reconnect, renegotiate silent, resume.
    let mut ch = TcpTransport::connect(addr).expect("reconnect");
    ch.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let reply = handshake_client_ext(
        &mut ch,
        ours,
        &token,
        HelloRequest { resume: true, silent: true, ..HelloRequest::default() },
    )
    .expect("resume handshake");
    assert!(reply.resume, "server must offer to resume the checkpointed session");
    assert!(reply.silent, "resumed session must stay on the silent backend");
    // A resumed session has no offline phase: setup runs the Yao batch alone.
    let mut session = ClientLineage::default();
    session.complete(&mut ch, reply.offline(), &mut rng).expect("setup");
    assert!(session.kk.is_none());
    let state = ClientOffline::from_bundle(session.yao.expect("Yao half"), checkpoint);
    let y = client.online_raw(&mut ch, state, std::slice::from_ref(&x), &mut rng).expect("online");
    assert_eq!(y.col(0), expected, "resumed silent logits diverge from forward_exact");
}

/// A tiny but complete transformer encoder for the extended-op chaos
/// suite: every new frame kind (matrix-triple Gilboa traffic, matmul
/// openings, softmax/GELU/layer-norm GC exchanges) is on the session's
/// wire path.
fn tiny_chaos_transformer() -> (QuantizedTransformer, Vec<u64>) {
    let config = QuantConfig {
        ring: Ring::new(16),
        frac_bits: 6,
        weight_frac_bits: 2,
        scheme: FragmentScheme::optimal(2),
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7F0);
    let model = QuantizedTransformer::random(4, 4, 8, 3, config, &mut rng).expect("transformer");
    let x: Vec<u64> = (0..model.seq * model.d)
        .map(|_| model.config.ring.reduce(rng.gen_range(-64i64..64) as u64))
        .collect();
    (model, x)
}

/// Runs one interactive transformer session with an optional flipped tag
/// on one side, returning both parties' send counts and outcomes.
#[allow(clippy::type_complexity)]
fn transformer_trial(
    model: &QuantizedTransformer,
    x: &[u64],
    flip: Option<(u64, u64)>,
    seed: u64,
) -> ((u64, u64), Result<(), ProtocolError>, Result<abnn2::math::Matrix, ProtocolError>) {
    let (a, b) = Endpoint::pair(NetworkModel::instant());
    let fault = |s: u64| match flip {
        Some((side, index)) if side == s => Fault::FlipTag { index },
        _ => Fault::None,
    };
    let mut sch = FaultyTransport::new(a, fault(0));
    let mut cch = FaultyTransport::new(b, fault(1));
    let server = SecureServer::for_model(model.clone());
    let client = SecureClient::for_model(model);
    let input = x.to_vec();
    std::thread::scope(|scope| {
        let srv = scope.spawn(move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 9);
            let res = server.run(&mut sch, 1, &mut rng);
            (res, sch.sends())
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 77);
        let cres = client.offline(&mut cch, 1, &mut rng).and_then(|state| {
            client.online_raw(&mut cch, state, std::slice::from_ref(&input), &mut rng)
        });
        let csends = cch.sends();
        // Close the client's endpoint before joining (see `flip_sweep`).
        drop(cch);
        let (sres, ssends) = srv.join().expect("server thread must not panic");
        ((ssends, csends), sres, cres)
    })
}

/// The tag-flip guarantee extends to every frame kind the op-pipeline
/// generalization added: a clean probe run measures each side's send
/// count, then the sweep flips a strided sample of indices across the
/// whole session — Gilboa matrix-triple traffic in the offline phase —
/// plus the final stretch exhaustively, which covers both
/// `MATMUL_OPENINGS` exchanges and the softmax/GELU/layer-norm GC frames
/// at the session's tail. Every landed flip must die as a typed error
/// naming a frame, never a hang, panic, or wrong logits.
#[test]
fn transformer_tag_flip_sweep_names_the_expected_frame() {
    let (model, x) = tiny_chaos_transformer();
    let expected = model.forward_exact(&x);

    let (sends, sres, cres) = transformer_trial(&model, &x, None, 0xC1EA);
    sres.expect("clean probe: server");
    let y = cres.expect("clean probe: client");
    assert_eq!(y.col(0), expected, "clean probe diverges from forward_exact");

    let names_frame = |e: &ProtocolError| e.to_string().contains("frame tag");
    for side in 0..2u64 {
        let total = if side == 0 { sends.0 } else { sends.1 };
        assert!(total > 8, "side {side}: probe counted only {total} sends");
        let stride = (total / 10).max(1);
        let indices: std::collections::BTreeSet<u64> =
            (0..total).step_by(stride as usize).chain(total.saturating_sub(4)..total).collect();
        for index in indices {
            let (_, sres, cres) = transformer_trial(&model, &x, Some((side, index)), index + 31);
            match (&sres, &cres) {
                (Ok(()), Ok(y)) => {
                    // Send counts vary slightly with RNG-dependent GC
                    // sizes; a flip past this run's end is a clean run.
                    assert_eq!(y.col(0), expected, "side {side} index {index}: wrong logits");
                }
                _ => {
                    let named = sres.as_ref().err().is_some_and(names_frame)
                        || cres.as_ref().err().is_some_and(names_frame);
                    assert!(
                        named,
                        "side {side} index {index}: no typed frame-tag error \
                         (server: {sres:?}, client: {cres:?})"
                    );
                }
            }
        }
    }
}

/// A client cut **during the secret×secret matmul opening** — the first
/// online `MATMUL_OPENINGS` frame dies on the wire — must leave the
/// serving frontend with a parked matrix-triple checkpoint, and a
/// reconnect with the same token must replay the online phase from that
/// checkpoint to logits bit-identical to the plaintext oracle. Matrix
/// triples survive the cut exactly like scalar triplets and masks do.
#[test]
fn cut_during_matmul_opening_checkpoints_and_resumes_bit_exact() {
    let (model, x) = tiny_chaos_transformer();
    let expected = model.forward_exact(&x);
    let info = PublicModel::from(&model);
    let server = Server::start(
        model.clone(),
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            sessions_per_worker: 4,
            pool_depth: 0,
            deadlines: SessionDeadlines::uniform(Duration::from_secs(5)),
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let addr = server.addr();
    let client = SecureClient::for_model(info.clone());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xAB1E);
    let token: [u8; 16] = [0x3C; 16];
    let ours = SessionParams::for_graph(&model.graph().clone(), ExecConfig::new().variant, 1);

    // Attempt 1: interactive offline (matrix triples included), then start
    // the online phase and cut on the client's second online send — the
    // blinded input goes through, the QKᵀ opening frame does not.
    let checkpoint = {
        let mut ch = TcpTransport::connect(addr).expect("connect");
        ch.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let reply = handshake_client_ext(
            &mut ch,
            ours,
            &token,
            HelloRequest { resume: false, silent: false, ..HelloRequest::default() },
        )
        .expect("handshake");
        assert!(!reply.resume && !reply.bundle);
        let session = ClientLineage::setup(&mut ch, &mut rng).expect("setup");
        let state = client.offline_with(&mut ch, session, 1, &mut rng).expect("offline");
        let checkpoint = state.to_bundle();
        let mut fch = FaultyTransport::new(ch, Fault::CutAfterMessages(1));
        client
            .online_raw(&mut fch, state, std::slice::from_ref(&x), &mut rng)
            .expect_err("the cut opening must abort the online attempt");
        checkpoint
        // `fch` drops here: the server sees the disconnection.
    };

    let deadline = Instant::now() + Duration::from_secs(10);
    while !server.checkpoint_store().contains(&token) {
        assert!(Instant::now() < deadline, "server never checkpointed the cut session");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Attempt 2: reconnect with the same token and replay the online
    // phase from the checkpointed masks and matrix triples.
    let mut ch = TcpTransport::connect(addr).expect("reconnect");
    ch.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let reply = handshake_client_ext(
        &mut ch,
        ours,
        &token,
        HelloRequest { resume: true, silent: false, ..HelloRequest::default() },
    )
    .expect("resume handshake");
    assert!(reply.resume, "server must offer to resume the checkpointed session");
    // A resumed session has no offline phase: setup runs the Yao batch alone.
    let mut session = ClientLineage::default();
    session.complete(&mut ch, reply.offline(), &mut rng).expect("setup");
    assert!(session.kk.is_none());
    let state = ClientOffline::from_bundle(session.yao.expect("Yao half"), checkpoint);
    let y = client.online_raw(&mut ch, state, std::slice::from_ref(&x), &mut rng).expect("online");
    assert_eq!(y.col(0), expected, "resumed transformer logits diverge from forward_exact");
}

/// A mixed fleet on one server: silent-capable and legacy IKNP clients
/// interleaved against the same event-loop workers, every session cold
/// (no pool), every answer bit-exact. Capability is per-connection — one
/// client's mode may not leak into a sibling session multiplexed on the
/// same worker.
#[test]
fn mixed_fleet_silent_and_iknp_clients_one_server() {
    let q = tiny_model();
    let info = PublicModel::from(&q);
    let server = Server::start(
        q.clone(),
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            sessions_per_worker: 3,
            queue_capacity: 8,
            pool_depth: 0,
            deadlines: SessionDeadlines::uniform(Duration::from_secs(30)),
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let addr = server.addr();

    let exact: usize = std::thread::scope(|scope| {
        (0..6u64)
            .map(|c| {
                let silent = c % 2 == 0;
                let client = ServeClient::for_model(info.clone())
                    .with_bundles(false)
                    .with_silent(silent)
                    .with_deadlines(SessionDeadlines::uniform(Duration::from_secs(30)))
                    .with_policy(RetryPolicy::no_delay(3));
                let q = &q;
                scope.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(17_000 + c);
                    let input: Vec<u64> = (0..10).map(|j| (c * 37 + j * 11) & 0xFFFF).collect();
                    let expected = q.forward_exact(&input);
                    let (y, _report) = client
                        .run(addr, std::slice::from_ref(&input), &mut rng)
                        .expect("mixed-fleet client");
                    assert_eq!(y.col(0), expected, "client {c} (silent={silent}): logits diverge");
                    1usize
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .sum()
    });
    assert_eq!(exact, 6, "every client in the mixed fleet must end bit-exact");
    let m = server.metrics();
    assert_eq!(m.panicked, 0);
    assert_eq!(m.failed, 0, "no mixed-fleet session may fail: {m:?}");
}
