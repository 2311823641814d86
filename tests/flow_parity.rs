//! Flow parity: the plain, resilient and serving entry points are callers
//! of one session flow per party (`SecureClient::run_job` on the client,
//! `SessionDriver` on the server), so for one model and one input they
//! must put the same frames on the wire — same count and same payload
//! bytes under every frame tag — and the protocol points the server-side
//! hooks key off must fire once per attempt no matter how often the
//! driver replays a phase.

use abnn2::core::driver::{drive_frames, DriverEffect, NullHost, SessionDriver};
use abnn2::core::resilient::{ResilientClient, ResilientServer, RunReport};
use abnn2::core::{SecureClient, SecureServer, SessionDeadlines};
use abnn2::math::{FragmentScheme, Ring};
use abnn2::net::wire::tags;
use abnn2::net::{
    sim_link, Endpoint, Fault, FaultyTransport, InstrumentHandle, InstrumentedTransport,
    NetworkModel, RetryPolicy, TagStats,
};
use abnn2::nn::quant::{QuantConfig, QuantizedNetwork};
use abnn2::nn::Network;
use abnn2::serve::{ServeClient, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn tiny_model() -> QuantizedNetwork {
    let net = Network::new(&[12, 8, 6, 4], 900);
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

fn sample_input() -> Vec<u64> {
    (0..12).map(|j| (j * 37 + 5) & 0xFFF).collect()
}

fn deadlines() -> SessionDeadlines {
    SessionDeadlines::uniform(Duration::from_secs(5))
}

/// Server-side per-tag traffic of one `SecureClient::run_job` session
/// against `SecureServer::run`.
fn plain_tags(q: &QuantizedNetwork, x: &[u64]) -> Vec<(u8, TagStats)> {
    let server = SecureServer::for_model(q.clone());
    let client = SecureClient::for_model(q);
    let (server_ep, mut client_ep) = Endpoint::pair(NetworkModel::instant());
    let mut server_ch = InstrumentedTransport::new(server_ep);
    let handle = server_ch.handle();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            server.run(&mut server_ch, 1, &mut StdRng::seed_from_u64(1)).expect("server");
        });
        let y = client
            .run_job(
                &mut client_ep,
                &[x.to_vec()],
                &mut Default::default(),
                &mut StdRng::seed_from_u64(2),
            )
            .expect("client");
        assert_eq!(y.col(0), q.forward_exact(x));
    });
    handle.tags()
}

/// Server-side per-tag traffic of a zero-fault `ResilientClient` job
/// against `ResilientServer`.
fn resilient_tags(q: &QuantizedNetwork, x: &[u64]) -> Vec<(u8, TagStats)> {
    let (dialer, listener) = sim_link(NetworkModel::instant());
    let server = ResilientServer::new(SecureServer::for_model(q.clone()))
        .with_policy(RetryPolicy::no_delay(1))
        .with_deadlines(deadlines());
    let client = ResilientClient::new(SecureClient::for_model(q))
        .with_policy(RetryPolicy::no_delay(1))
        .with_deadlines(deadlines());
    let handle: Mutex<Option<InstrumentHandle>> = Mutex::new(None);
    let handle_slot = &handle;
    std::thread::scope(|scope| {
        let srv = scope.spawn(move || {
            server.serve_one(
                |_| {
                    let ch = InstrumentedTransport::new(
                        listener.accept_timeout(Duration::from_secs(5))?,
                    );
                    *handle_slot.lock().unwrap() = Some(ch.handle());
                    Ok(ch)
                },
                &mut StdRng::seed_from_u64(3),
            )
        });
        let (y, report) = client
            .run_raw(|_| dialer.dial(), &[x.to_vec()], &mut StdRng::seed_from_u64(4))
            .expect("client");
        assert_eq!(y.col(0), q.forward_exact(x));
        assert_eq!(report, RunReport { attempts: 1, resumed: false });
        assert_eq!(srv.join().unwrap().expect("server"), report);
    });
    let tags = handle.lock().unwrap().take().expect("one connection").tags();
    tags
}

/// Server-side per-tag traffic of one cold `ServeClient` request against
/// the event-loop `Server`.
fn served_tags(q: &QuantizedNetwork, x: &[u64]) -> Vec<(u8, TagStats)> {
    let config =
        ServeConfig { workers: 1, pool_depth: 0, deadlines: deadlines(), ..ServeConfig::default() };
    let server = Server::start(q.clone(), "127.0.0.1:0", config).expect("start server");
    let client = ServeClient::for_model(q).with_deadlines(deadlines()).with_bundles(false);
    let (y, report) = client
        .run(server.addr(), &[x.to_vec()], &mut StdRng::seed_from_u64(5))
        .expect("served request");
    assert_eq!(y.col(0), q.forward_exact(x));
    assert!(!report.warm && !report.resumed && report.attempts == 1, "got {report:?}");
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().completed < 1 {
        assert!(Instant::now() < deadline, "server never counted the session complete");
        std::thread::sleep(Duration::from_millis(2));
    }
    server.metrics().tags
}

#[test]
fn every_entry_point_moves_the_same_frames() {
    let q = tiny_model();
    let x = sample_input();
    let plain = plain_tags(&q, &x);
    assert!(plain.len() >= 10, "a cold session crosses many frame types, got {plain:?}");
    assert_eq!(resilient_tags(&q, &x), plain, "resilient flow diverges from the plain flow");
    assert_eq!(served_tags(&q, &x), plain, "served flow diverges from the plain flow");
}

/// `drive_frames` feeds one inbound frame per suspension, so the driver
/// replays its offline phase once per frame — and still externalizes each
/// phase mark exactly once. Setup is two driver states, one per base-OT
/// batch, that share the one `setup` mark: each batch's frames go out
/// once, in order, under it.
#[test]
fn phase_marks_survive_replay_exactly_once() {
    let q = tiny_model();
    let x = sample_input();
    let server = Arc::new(SecureServer::for_model(q.clone()));
    let client = SecureClient::for_model(&q);
    let (mut server_ep, mut client_ep) = Endpoint::pair(NetworkModel::instant());
    let mut marks: Vec<String> = Vec::new();
    let mut setup_sends: Vec<u8> = Vec::new();
    let stats = std::thread::scope(|scope| {
        scope.spawn(move || {
            client
                .run_job(
                    &mut client_ep,
                    &[x],
                    &mut Default::default(),
                    &mut StdRng::seed_from_u64(7),
                )
                .expect("client");
        });
        let mut driver = SessionDriver::new(
            Arc::clone(&server),
            NullHost { ours: server.params_for(1) },
            StdRng::seed_from_u64(6),
        );
        drive_frames(&mut server_ep, &mut driver, |effect| match effect {
            DriverEffect::Mark(label) if !label.contains(':') => marks.push(label.clone()),
            DriverEffect::Send(frame) if marks.last().is_some_and(|m| m == "setup") => {
                setup_sends.push(frame[0]);
            }
            _ => {}
        })
        .expect("server")
    });
    assert!(stats.suspensions >= 8, "expected many replays, got {}", stats.suspensions);
    assert_eq!(marks, ["handshake", "setup", "offline", "online"]);
    assert_eq!(
        setup_sends,
        [tags::BASE_POINT, tags::BASE_CT_BATCH, tags::BASE_POINT, tags::BASE_CT_BATCH],
        "fragment-OT batch, then Yao batch, each externalized once"
    );
}

/// The `after_offline` hook rides the externalized `online` mark: once per
/// attempt, on the fresh attempt and on the resumed one alike.
#[test]
fn after_offline_hook_fires_once_per_attempt() {
    let q = tiny_model();
    let x = sample_input();
    let (dialer, listener) = sim_link(NetworkModel::instant());
    let server = ResilientServer::new(SecureServer::for_model(q.clone()))
        .with_policy(RetryPolicy::no_delay(3))
        .with_deadlines(deadlines());
    let client = ResilientClient::new(SecureClient::for_model(&q))
        .with_policy(RetryPolicy::no_delay(3))
        .with_deadlines(deadlines());
    let fired = std::thread::scope(|scope| {
        let srv = scope.spawn(move || {
            let mut fired: Vec<u32> = Vec::new();
            let report = server.serve_one_with(
                |_| {
                    listener
                        .accept_timeout(Duration::from_secs(5))
                        .map(|ep| FaultyTransport::new(ep, Fault::None))
                },
                |ch, attempt| {
                    fired.push(attempt);
                    if attempt == 0 {
                        ch.set_fault(Fault::CutAfterMessages(ch.sends() + 2));
                    }
                },
                &mut StdRng::seed_from_u64(8),
            );
            (report, fired)
        });
        let (y, report) = client
            .run_raw(|_| dialer.dial(), std::slice::from_ref(&x), &mut StdRng::seed_from_u64(9))
            .expect("client");
        assert_eq!(y.col(0), q.forward_exact(&x));
        assert_eq!(report, RunReport { attempts: 2, resumed: true });
        let (srv_report, fired) = srv.join().unwrap();
        assert_eq!(srv_report.expect("server"), report);
        fired
    });
    assert_eq!(fired, [0, 1]);
}
