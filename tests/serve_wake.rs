//! The event-loop worker sleeps in `poll(2)`, not on a timer: what has to
//! reach it while it sleeps — a queued connection, a drain — must wake it.
//!
//! The state under test is a worker blocked in `poll` on one parked
//! session (a peer that connected and never spoke) with a free slot. A
//! lost wake would not hang anything — the worker's sleep is capped at a
//! 100 ms slice — so the test is about latency: the wake must beat the
//! slice by a wide margin.

use abnn2::core::SessionDeadlines;
use abnn2::math::{FragmentScheme, Ring};
use abnn2::nn::quant::{QuantConfig, QuantizedNetwork};
use abnn2::nn::Network;
use abnn2::serve::{ServeClient, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Half the worker's 100 ms sleep slice.
const WELL_INSIDE_THE_SLICE: Duration = Duration::from_millis(50);

fn tiny_model() -> QuantizedNetwork {
    let config = QuantConfig {
        ring: Ring::new(32),
        frac_bits: 8,
        weight_frac_bits: 2,
        scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
    };
    QuantizedNetwork::quantize(&Network::new(&[12, 8, 6, 4], 910), config)
}

/// Spins (no sleep: the latency of this loop is part of what is measured)
/// until the server reports `n` active sessions.
fn wait_for_active(server: &Server, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().active != n {
        assert!(Instant::now() < deadline, "never saw {n} active sessions");
        std::thread::yield_now();
    }
}

#[test]
fn a_worker_asleep_on_a_parked_session_wakes_for_the_queue_and_for_a_drain() {
    let q = tiny_model();
    let deadlines = SessionDeadlines::uniform(Duration::from_secs(20));
    let config = ServeConfig {
        workers: 1,
        sessions_per_worker: 2,
        pool_depth: 0,
        deadlines,
        ..ServeConfig::default()
    };
    let mut server = Server::start(q.clone(), "127.0.0.1:0", config).expect("start server");

    // The silent first peer: claimed, parked on its hello. From here the
    // worker has nothing to do and a fresh 100 ms to sleep.
    let silent = TcpStream::connect(server.addr()).expect("silent peer");
    wait_for_active(&server, 1);

    // A second connection queued now is claimed at once, not at the end of
    // the slice.
    let queued = Instant::now();
    let second = TcpStream::connect(server.addr()).expect("second peer");
    wait_for_active(&server, 2);
    let claimed_after = queued.elapsed();
    assert!(
        claimed_after < WELL_INSIDE_THE_SLICE,
        "the queued connection waited {claimed_after:?} for a worker asleep in poll"
    );
    // ... and its close is a socket event, which wakes the worker too.
    drop(second);
    wait_for_active(&server, 1);

    // A real client in the same state is served to completion.
    let x: Vec<u64> = (0..12).map(|j| (j * 29 + 3) & 0xFFF).collect();
    let client = ServeClient::for_model(&q).with_deadlines(deadlines).with_bundles(false);
    let (y, report) = client
        .run(server.addr(), std::slice::from_ref(&x), &mut StdRng::seed_from_u64(911))
        .expect("served beside the parked session");
    assert_eq!(y.col(0), q.forward_exact(&x));
    assert_eq!(report.attempts, 1);
    wait_for_active(&server, 1);

    // A drain requested in that state returns as soon as the parked
    // session ends: nothing is left waiting out a timer.
    server.begin_drain();
    drop(silent);
    let draining = Instant::now();
    server.shutdown();
    assert!(draining.elapsed() < Duration::from_secs(5), "drain took {:?}", draining.elapsed());
    let m = server.metrics();
    assert_eq!((m.completed, m.failed, m.active), (1, 2, 0), "one served, two closed peers");
}
