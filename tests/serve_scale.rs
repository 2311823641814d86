//! Sessions-per-worker scaling: many more concurrent clients than worker
//! threads, served by event-loop workers each multiplexing a batch of
//! suspendable sessions. Every logit must stay bit-exact, and the
//! server's peak protocol-thread count must scale with `workers`, not
//! with the number of connected clients — the point of the readiness
//! driven session engine.

use abnn2::core::PublicModel;
use abnn2::core::SessionDeadlines;
use abnn2::math::{FragmentScheme, Ring};
use abnn2::nn::quant::{QuantConfig, QuantizedNetwork};
use abnn2::nn::Network;
use abnn2::serve::{ServeClient, ServeConfig, Server};
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

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
    (0..dim).map(|j| (seed.wrapping_mul(31).wrapping_add(j as u64 * 7)) & 0xFFFF).collect()
}

/// Counts live threads of this process whose name starts with `abnn2-`
/// (acceptor, supervisor, workers, pool producers). `None` when the
/// platform has no
/// readable `/proc/self/task`, in which case the thread-scaling assertion
/// is skipped — the bit-exactness half of the test still runs everywhere.
fn protocol_threads() -> Option<usize> {
    let dir = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        dir.filter_map(Result::ok)
            .filter(|t| {
                std::fs::read_to_string(t.path().join("comm"))
                    .is_ok_and(|comm| comm.trim_end().starts_with("abnn2-"))
            })
            .count(),
    )
}

#[test]
fn sixty_four_clients_multiplex_over_four_workers() {
    const CLIENTS: usize = 64;
    const WORKERS: usize = 4;

    let q = tiny_model(4242);
    let info = PublicModel::from(&q);
    // 64 cold sessions time-share 4 CPUs: a session can legitimately wait
    // well past the 10 s LAN default for its worker's attention, so both
    // sides get deadlines sized for the load — this test is about thread
    // scaling, not deadline enforcement.
    let generous = SessionDeadlines::uniform(Duration::from_secs(120));
    let server = Server::start(
        q.clone(),
        "127.0.0.1:0",
        ServeConfig {
            workers: WORKERS,
            sessions_per_worker: CLIENTS / WORKERS,
            queue_capacity: CLIENTS,
            pool_depth: 0,
            deadlines: generous,
            ..ServeConfig::default()
        },
    )
    .expect("server start");
    let addr = server.addr();

    // Sample the protocol-thread population while the fleet is in flight.
    let done = AtomicBool::new(false);
    let peak_threads = AtomicUsize::new(0);
    let peak_active = AtomicUsize::new(0);

    let exact: usize = std::thread::scope(|scope| {
        let monitor = scope.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                if let Some(n) = protocol_threads() {
                    peak_threads.fetch_max(n, Ordering::Relaxed);
                }
                let active = server.metrics().active as usize;
                peak_active.fetch_max(active, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
            }
        });

        let total = (0..CLIENTS)
            .map(|c| {
                let client = ServeClient::for_model(info.clone())
                    .with_bundles(false)
                    .with_deadlines(generous);
                let q = &q;
                scope.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(7000 + c as u64);
                    let input = sample_input(12, c as u64);
                    let expected = q.forward_exact(&input);
                    let (y, _report) = client
                        .run(addr, std::slice::from_ref(&input), &mut rng)
                        .expect("request failed");
                    assert_eq!(y.col(0), expected, "client {c}: logits diverge");
                    1usize
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .sum();
        done.store(true, Ordering::Relaxed);
        monitor.join().expect("monitor thread");
        total
    });
    assert_eq!(exact, CLIENTS, "every client must complete bit-exact");

    // All sessions really were concurrent on the server — far more live
    // sessions than worker threads at the peak.
    assert!(
        peak_active.load(Ordering::Relaxed) > WORKERS,
        "expected more concurrent sessions than workers, saw {}",
        peak_active.load(Ordering::Relaxed)
    );

    // The multiplexing claim: server-side protocol threads are one
    // acceptor, one supervisor, plus `workers` event loops (no pool at
    // depth 0) — O(workers) even with 64 clients connected at once.
    if let Some(_probe) = protocol_threads() {
        let peak = peak_threads.load(Ordering::Relaxed);
        assert!(peak > 0, "monitor never sampled the thread population");
        assert!(
            peak <= WORKERS + 2,
            "protocol threads must scale with workers, not clients: peak {peak} > {}",
            WORKERS + 2
        );
    }

    // The last client unblocks while its worker is still flushing; give
    // the bookkeeping a moment to settle before asserting on it.
    let settle = std::time::Instant::now();
    while (server.metrics().completed < CLIENTS as u64 || server.metrics().active > 0)
        && settle.elapsed() < Duration::from_secs(5)
    {
        std::thread::sleep(Duration::from_millis(2));
    }

    let m = server.metrics();
    assert_eq!(m.completed, CLIENTS as u64);
    assert_eq!(m.failed, 0);
    assert_eq!(m.rejected, 0, "queue was sized for the whole fleet");
    assert_eq!(m.active, 0);
}
