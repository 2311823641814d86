//! Sessions-per-worker scaling: many more concurrent clients than worker
//! threads, served by event-loop workers each multiplexing a batch of
//! suspendable sessions. Every logit must stay bit-exact, and the
//! server's peak protocol-thread count must scale with `workers`, not
//! with the number of connected clients — the point of the readiness
//! driven session engine. A pool adds one producer thread to that count,
//! whatever the worker count, and still serves a first wave of one
//! request per worker warm.

use abnn2::core::PublicModel;
use abnn2::core::SessionDeadlines;
use abnn2::math::{FragmentScheme, Ring};
use abnn2::nn::quant::{QuantConfig, QuantizedNetwork};
use abnn2::nn::Network;
use abnn2::serve::{ServeClient, ServeConfig, Server};
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Thread names are counted per process, so the tests of this file take
/// turns.
static ONE_SERVER_AT_A_TIME: Mutex<()> = Mutex::new(());

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

/// Counts live threads of this process whose name starts with `prefix`
/// (`abnn2-`: acceptor, workers, pool producer). `None` when
/// the platform has no readable `/proc/self/task`, in which case the
/// thread-count assertions are skipped — the bit-exactness half of each
/// test still runs everywhere.
fn threads_named(prefix: &str) -> Option<usize> {
    let dir = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        dir.filter_map(Result::ok)
            .filter(|t| {
                std::fs::read_to_string(t.path().join("comm"))
                    .is_ok_and(|comm| comm.trim_end().starts_with(prefix))
            })
            .count(),
    )
}

#[test]
fn sixty_four_clients_multiplex_over_four_workers() {
    const CLIENTS: usize = 64;
    const WORKERS: usize = 4;
    let _turn = ONE_SERVER_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());

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
                if let Some(n) = threads_named("abnn2-") {
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
    // acceptor plus `workers` event loops (no pool at depth 0) —
    // O(workers) even with 64 clients connected at once.
    if let Some(_probe) = threads_named("abnn2-") {
        let peak = peak_threads.load(Ordering::Relaxed);
        assert!(peak > 0, "monitor never sampled the thread population");
        assert!(
            peak <= WORKERS + 1,
            "protocol threads must scale with workers, not clients: peak {peak} > {}",
            WORKERS + 1
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

/// One pool beside the one store: four workers share a single producer
/// thread, `warm_up(batch, 1, ..)` returns once a pair per worker is
/// ready, and a first wave of one request on every worker at once rides
/// pooled bundles without a miss.
#[test]
fn four_workers_share_one_pool_producer_and_serve_a_first_wave_warm() {
    const WORKERS: usize = 4;
    let _turn = ONE_SERVER_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());

    let q = tiny_model(4343);
    let info = PublicModel::from(&q);
    let server = Server::start(
        q.clone(),
        "127.0.0.1:0",
        ServeConfig { workers: WORKERS, pool_depth: 2, ..ServeConfig::default() },
    )
    .expect("server start");
    let addr = server.addr();

    assert!(server.warm_up(1, 1, Duration::from_secs(30)), "pool must warm");
    assert!(server.metrics().pool.ready >= WORKERS, "a pair per worker: {:?}", server.metrics());
    // Past its capacity the target is the capacity.
    assert!(server.warm_up(1, 100, Duration::from_secs(30)));
    assert_eq!(server.metrics().pool.ready, 2 * WORKERS);

    std::thread::scope(|scope| {
        for c in 0..WORKERS {
            let (client, q) = (ServeClient::for_model(info.clone()), &q);
            scope.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(8000 + c as u64);
                let input = sample_input(12, 100 + c as u64);
                let (y, report) =
                    client.run(addr, std::slice::from_ref(&input), &mut rng).expect("request");
                assert_eq!(y.col(0), q.forward_exact(&input), "client {c}: logits diverge");
                assert!(report.warm, "client {c} must ride a pooled bundle");
                assert_eq!(report.phase("offline").total_bytes(), 0);
            });
        }
    });
    let pool = server.metrics().pool;
    assert_eq!((pool.hits, pool.misses), (WORKERS as u64, 0));

    // A thread names itself as it starts; by now every one has.
    if threads_named("abnn2-").is_some() {
        assert_eq!(threads_named("abnn2-pool"), Some(1), "one producer, not one per worker");
        // Acceptor, producer, and the event loops.
        assert_eq!(threads_named("abnn2-"), Some(WORKERS + 2));
    }
}
