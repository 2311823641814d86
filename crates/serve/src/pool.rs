//! Background precompute pool for offline-triplet bundles.
//!
//! A dedicated producer thread manufactures dealer-mode bundle pairs
//! ([`abnn2_core::bundle::dealer_bundle_for`]) and parks them in a bounded
//! per-key buffer. The serving path consumes pairs with a non-blocking
//! [`take`](PrecomputePool::take): a hit means the session skips the
//! interactive offline phase. A taker that finds the buffer empty — the
//! producer fell behind, or its thread lost its core for a few request
//! times — deals one pair itself, which costs a fraction of what the cold
//! path it would otherwise fall back to costs. Only a key the pool does
//! not produce is a miss, and a miss simply runs the cold path — the pool
//! can only make requests faster, never wrong, because warm and cold
//! bundles satisfy the same triplet invariant `U + V = W·R`.
//!
//! A server has one pool, whatever its worker count: a session takes from
//! it once, in its hello, against milliseconds of protocol, so there is no
//! contention for shards to relieve, and one producer deals a Fig-4 pair in
//! under half a millisecond against ~6 ms a warm session — about thirteen
//! workers' worth, past which takers deal for themselves.

use abnn2_core::bundle::{dealer_bundle_for, BundleKey, ClientBundle, ServerBundle};
use abnn2_core::OfflineMode;
use abnn2_core::{SecureGraph, ServedModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Point-in-time view of the pool's counters and buffer fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolSnapshot {
    /// Bundle pairs manufactured since start.
    pub produced: u64,
    /// Warm sessions: [`take`](PrecomputePool::take) calls that returned
    /// a pair, buffered or dealt on the spot.
    pub hits: u64,
    /// Bundle requests the pool could not serve (a key it does not
    /// produce, or after shutdown): sessions that ran cold.
    pub misses: u64,
    /// Bundle pairs currently buffered across all keys.
    pub ready: usize,
}

struct PoolState {
    buffers: HashMap<BundleKey, Vec<(ServerBundle, ClientBundle)>>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signaled on every take (producer refills) and on every push
    /// (warm-up waiters).
    changed: Condvar,
    produced: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Bounded buffer of ready offline-triplet bundle pairs, filled by a
/// background thread. See the module docs.
pub struct PrecomputePool {
    shared: Arc<PoolShared>,
    producer: Mutex<Option<JoinHandle<()>>>,
    model: Arc<ServedModel>,
    /// What the pool produces: each key with the graph to deal it from.
    entries: Arc<[(BundleKey, SecureGraph)]>,
    depth: usize,
    /// The RNG a taker deals with, apart from the producer's.
    dealer: Mutex<StdRng>,
}

impl std::fmt::Debug for PrecomputePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrecomputePool")
            .field("depth", &self.depth)
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl PrecomputePool {
    /// Starts a pool keeping up to `depth` ready pairs for each batch size
    /// in `batches` under each offline mode in `modes` (their cross
    /// product), producing from `model` (MLP or CNN) with a deterministic
    /// RNG seeded by `seed`. The dealer bundle *content* is
    /// mode-independent — only the key differs — but keying per mode means
    /// a session can only ever drain a bundle pooled for its own
    /// negotiated mode.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero, `batches` or `modes` is empty, or a batch
    /// size does not fit the model's graph (spatial graphs run with batch
    /// one): a pool that can hold nothing is a configuration bug, not a
    /// runtime condition.
    #[must_use]
    pub fn start_with_modes(
        model: Arc<ServedModel>,
        batches: &[usize],
        modes: &[OfflineMode],
        depth: usize,
        seed: u64,
    ) -> Self {
        assert!(depth > 0, "pool depth must be positive");
        assert!(!batches.is_empty(), "pool needs at least one batch size");
        assert!(!modes.is_empty(), "pool needs at least one offline mode");
        let entries: Arc<[(BundleKey, SecureGraph)]> = batches
            .iter()
            .flat_map(|&b| {
                let sg = model.secure_graph(b).expect("pool batch size must fit the served graph");
                let key = BundleKey::for_graph(sg.graph(), b);
                modes.iter().map(move |&m| (key.with_mode(m), sg.clone()))
            })
            .collect();
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState { buffers: HashMap::new(), shutdown: false }),
            changed: Condvar::new(),
            produced: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        });

        let producer = {
            let (shared, model, entries) =
                (Arc::clone(&shared), Arc::clone(&model), Arc::clone(&entries));
            std::thread::Builder::new()
                .name("abnn2-pool".into())
                .spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    producer_loop(&shared, &model, &entries, depth, &mut rng);
                })
                .expect("spawn pool producer")
        };

        PrecomputePool {
            shared,
            producer: Mutex::new(Some(producer)),
            model,
            entries,
            depth,
            // A stream of its own, whatever the producer has drawn.
            dealer: Mutex::new(StdRng::seed_from_u64(seed ^ 0x6465_616C)),
        }
    }

    /// A pair for `key`: a buffered one if the producer has kept up, else
    /// one dealt here, on the calling thread. Never blocks on the producer.
    /// A dealt bundle is plaintext arithmetic (0.3 ms for the paper's Fig-4
    /// MLP) where the cold path the session would otherwise take is an OT
    /// per weight, so a producer that fell behind, or whose thread lost its
    /// core for a few request times, costs one session a fraction of a
    /// millisecond and not its warm path. Either way a hit (a dealt pair
    /// also counts as produced). `None`, counted as a miss, for a key this
    /// pool does not produce and, once what was buffered is gone, after
    /// shutdown.
    #[must_use]
    pub fn take(&self, key: &BundleKey) -> Option<(ServerBundle, ClientBundle)> {
        let (buffered, live) = {
            let mut state = self.shared.state.lock().expect("pool lock");
            (state.buffers.get_mut(key).and_then(Vec::pop), !state.shutdown)
        };
        if buffered.is_some() {
            // The producer may be parked on a full pool; wake it to refill.
            self.shared.changed.notify_all();
        }
        let pair = buffered.or_else(|| {
            let (_, sg) = self.entries.iter().find(|(k, _)| k == key).filter(|_| live)?;
            let mut rng = self.dealer.lock().expect("dealer lock");
            self.shared.produced.fetch_add(1, Ordering::Relaxed);
            Some(dealer_bundle_for(&self.model, sg, &mut *rng))
        });
        let outcome = if pair.is_some() { &self.shared.hits } else { &self.shared.misses };
        outcome.fetch_add(1, Ordering::Relaxed);
        pair
    }

    /// Blocks until at least `count` pairs are buffered for `key`, or
    /// `timeout` elapses. Returns whether the target was reached. Lets
    /// deployments (and tests) warm the pool before opening the doors.
    #[must_use]
    pub fn wait_ready(&self, key: &BundleKey, count: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock().expect("pool lock");
        loop {
            let ready = state.buffers.get(key).map_or(0, Vec::len);
            if ready >= count {
                return true;
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (s, timed_out) = self.shared.changed.wait_timeout(state, left).expect("pool lock");
            state = s;
            if timed_out.timed_out() {
                return state.buffers.get(key).map_or(0, Vec::len) >= count;
            }
        }
    }

    /// Current counters and buffer fill.
    #[must_use]
    pub fn snapshot(&self) -> PoolSnapshot {
        let ready =
            self.shared.state.lock().expect("pool lock").buffers.values().map(Vec::len).sum();
        PoolSnapshot {
            produced: self.shared.produced.load(Ordering::Relaxed),
            hits: self.shared.hits.load(Ordering::Relaxed),
            misses: self.shared.misses.load(Ordering::Relaxed),
            ready,
        }
    }

    /// Stops the producer thread and joins it. Idempotent; also run by
    /// `Drop`.
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            state.shutdown = true;
        }
        self.shared.changed.notify_all();
        if let Some(handle) = self.producer.lock().expect("producer lock").take() {
            let _ = handle.join();
        }
    }
}

impl Drop for PrecomputePool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn producer_loop(
    shared: &PoolShared,
    model: &ServedModel,
    entries: &[(BundleKey, SecureGraph)],
    depth: usize,
    rng: &mut StdRng,
) {
    loop {
        // Find the emptiest buffer below target depth, or park until a
        // take (or shutdown) changes the picture.
        let todo = {
            let mut state = shared.state.lock().expect("pool lock");
            loop {
                if state.shutdown {
                    return;
                }
                let next = entries
                    .iter()
                    .map(|(k, sg)| (state.buffers.get(k).map_or(0, Vec::len), k, sg))
                    .filter(|&(len, _, _)| len < depth)
                    .min_by_key(|&(len, _, _)| len);
                match next {
                    Some((_, key, sg)) => break (*key, sg),
                    None => state = shared.changed.wait(state).expect("pool lock"),
                }
            }
        };

        // Generate outside the lock: dealer bundles are pure local compute
        // and must not block takers.
        let (key, sg) = todo;
        let pair = dealer_bundle_for(model, sg, rng);
        let mut state = shared.state.lock().expect("pool lock");
        if state.shutdown {
            return;
        }
        state.buffers.entry(key).or_default().push(pair);
        drop(state);
        shared.produced.fetch_add(1, Ordering::Relaxed);
        shared.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_math::{FragmentScheme, Ring};
    use abnn2_nn::quant::{QuantConfig, QuantizedNetwork};
    use abnn2_nn::Network;

    fn tiny() -> QuantizedNetwork {
        let net = Network::new(&[6, 5, 3], 21);
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

    #[test]
    fn pool_fills_serves_hits_and_refills() {
        let model = Arc::new(ServedModel::from(tiny()));
        let graph = model.graph();
        let pool = PrecomputePool::start_with_modes(
            Arc::clone(&model),
            &[1, 2],
            &[OfflineMode::Iknp],
            2,
            99,
        );
        let k1 = BundleKey::for_graph(&graph, 1);
        let k2 = BundleKey::for_graph(&graph, 2);

        assert!(pool.wait_ready(&k1, 2, Duration::from_secs(10)), "pool must fill");
        assert!(pool.wait_ready(&k2, 2, Duration::from_secs(10)), "pool must fill");

        let (sb, cb) = pool.take(&k1).expect("warm take");
        assert_eq!(sb.batch, 1);
        assert_eq!(cb.batch, 1);

        // A key the pool does not produce is a miss, not a block.
        let other = BundleKey { batch: 77, ..k1 };
        assert!(pool.take(&other).is_none());

        // The taken slot refills.
        assert!(pool.wait_ready(&k1, 2, Duration::from_secs(10)), "pool must refill");

        let snap = pool.snapshot();
        assert_eq!(snap.hits, 1);
        assert_eq!(snap.misses, 1);
        assert!(snap.produced >= 5, "4 initial + 1 refill, got {}", snap.produced);

        pool.shutdown();
        pool.shutdown(); // idempotent
    }

    #[test]
    fn shutdown_unblocks_promptly() {
        let model = Arc::new(ServedModel::from(tiny()));
        let key = BundleKey::for_graph(&model.graph(), 1);
        let pool =
            PrecomputePool::start_with_modes(Arc::clone(&model), &[1], &[OfflineMode::Iknp], 1, 7);
        assert!(pool.wait_ready(&key, 1, Duration::from_secs(10)));
        pool.shutdown();
        // Post-shutdown takes drain what is buffered, then miss.
        assert!(pool.take(&key).is_some());
        assert!(pool.take(&key).is_none());
        assert_eq!(pool.snapshot().misses, 1);
    }

    /// The bug this pins: with sessions down to a few milliseconds, four
    /// of them fit in one scheduling hiccup of the producer thread, and a
    /// taker that found the buffer empty sent its session down the cold
    /// path (one in 20 000 under load). It deals the pair itself instead.
    #[test]
    fn a_drained_pool_deals_on_the_takers_thread_instead_of_missing() {
        let model = Arc::new(ServedModel::from(tiny()));
        let key = BundleKey::for_graph(&model.graph(), 1);
        let pool =
            PrecomputePool::start_with_modes(Arc::clone(&model), &[1], &[OfflineMode::Iknp], 1, 7);
        // Faster than any producer: every empty buffer is dealt for.
        for _ in 0..50 {
            let (sb, cb) = pool.take(&key).expect("a produced key is always served");
            assert_eq!((sb.batch, cb.batch), (1, 1));
        }
        let snap = pool.snapshot();
        assert_eq!((snap.hits, snap.misses), (50, 0));
        assert!(snap.produced >= snap.hits);
    }
}
