//! Reconnect-and-resume: [`ResilientServer`] and the [`CheckpointStore`].
//!
//! The offline phase is by far the expensive part of an ABNN² prediction
//! (per-layer dot-product triplets via 1-out-of-N OT). When a connection
//! dies mid-protocol, both parties keep the *triplet shares* — plain ring
//! elements with no connection-bound state — the client reconnects under a
//! capped-backoff [`RetryPolicy`] presenting a session-resume token, both
//! set up a fresh Yao half (the dead session's lineage is forfeit: its
//! positions may have moved on one side only, and a rewound position is a
//! reused pad), and they replay the online phase. Its outputs are a
//! deterministic function of the triplets and the input (GC label
//! randomness never reaches the opened shares), so the resumed logits are
//! bit-identical to an uninterrupted run's.
//!
//! [`ResilientServer`] is a [`ResilientDriver`] retry loop around a
//! [`SessionDriver`] whose host is its [`CheckpointStore`]. The client half
//! is `abnn2_serve::ServeClient`, the same loop around
//! [`SecureClient::run_job`](crate::SecureClient::run_job) over any dialer.
//!
//! Failure handling is strictly typed: transient errors
//! ([`ProtocolError::is_retryable`]) trigger reconnection until the policy
//! is exhausted; fatal ones ([`ProtocolError::Negotiation`],
//! [`ProtocolError::Malformed`], …) abort immediately. A resume token the
//! store no longer holds is not an error: the session downgrades to a
//! fresh offline phase on the same connection.

use crate::bundle::{ClientBundle, ServerBundle};
use crate::config::SessionDeadlines;
use crate::driver::{drive_frames_with, DriverEffect, SessionDriver, SessionHost};
use crate::handshake::{ResumeToken, SessionParams};
use crate::inference::SecureServer;
use crate::session::ServerLineage;
use crate::ProtocolError;
use abnn2_net::{ResilientDriver, RetryPolicy, Transport, TransportError};
use abnn2_ot::OfflineMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Outcome summary of a [`ResilientServer`] job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Connection attempts consumed (1 = no failure).
    pub attempts: u32,
    /// Whether any attempt resumed from a checkpoint instead of running a
    /// fresh offline phase.
    pub resumed: bool,
}

/// Default entry capacity for a [`ResilientServer`]'s store.
pub const DEFAULT_CHECKPOINT_CAPACITY: usize = 256;

/// Byte bound of every [`CheckpointStore`]: 128 KiB an entry at the
/// default capacity, 32 MiB in all. A parked lineage weighs 92 KiB with
/// the Yao half alone, 205 KiB with the silent fragment half beside it and
/// 276 KiB with the KK13 one (two AES key schedules and a counter, 736
/// bytes, per extension column: 128 columns of IKNP, 256 of KK13), so the
/// entry bound alone would let a store grow to 72 MB; under this one a
/// store of full KK13 lineages holds 118 of them.
pub const CHECKPOINT_BYTE_CAPACITY: usize = DEFAULT_CHECKPOINT_CAPACITY * (128 << 10);

/// What a [`CheckpointStore`] has seen of lineages so far, plus what it
/// holds of them now.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineageStats {
    /// Lineages parked by sessions that ended cleanly.
    pub parked: u64,
    /// Lineage claims that found the entry.
    pub claimed: u64,
    /// Lineage claims for a token the store held no lineage under.
    pub missed: u64,
    /// Parked lineages dropped unclaimed: pushed out by the entry or byte
    /// bound, or overwritten by a later entry under the same token.
    pub evicted: u64,
    /// Bytes of lineages parked right now.
    pub parked_bytes: u64,
}

/// What a token's entry holds: a dead session's offline state, or a
/// finished session's OT-extension state. Never both — a session parks a
/// lineage only by ending cleanly, a checkpoint only by dying — so a token
/// needs one slot.
#[derive(Debug)]
enum Parked {
    Checkpoint(ServerBundle),
    Lineage(ServerLineage),
}

impl Parked {
    fn bytes(&self) -> usize {
        match self {
            Parked::Checkpoint(bundle) => bundle.parked_bytes(),
            Parked::Lineage(lineage) => lineage.parked_bytes(),
        }
    }
}

/// Bounded, thread-safe store of what sessions leave behind on the server,
/// keyed by the session's token: the offline checkpoint of a session that
/// died retryably, for its reconnecting client to resume, or the lineage
/// ([`crate::session`]) of a session that ended cleanly, for that client's
/// next session to continue.
///
/// A long-running server accumulates entries from every session; without a
/// bound that is an unbounded memory leak driven by remote behavior. The
/// store enforces a hard `capacity` in entries and
/// [`CHECKPOINT_BYTE_CAPACITY`] in bytes, each entry reporting its own
/// size: inserting beyond either evicts least-recently-used entries. An
/// evicted token simply downgrades the client's next attempt to a fresh
/// offline run or a fresh setup — exactly the path a stale token already
/// takes — so eviction is always safe, never an error.
///
/// Claims are **single-use and atomic**: [`claim`](Self::claim) and
/// [`claim_lineage`](Self::claim_lineage) remove the entry, so two
/// concurrent connections presenting the same token can never both resume
/// from the same checkpointed triplets or both extend the same lineage —
/// the loser of the race runs a fresh offline phase, or a fresh setup. A
/// checkpoint is re-inserted only when the session later fails *retryably*
/// (the client will be back); a lineage only, advanced, when the session
/// that claimed it ends cleanly. While a session is live its entry is out
/// of the store, which is what closes the duplicate window.
#[derive(Debug)]
pub struct CheckpointStore {
    inner: Mutex<StoreInner>,
}

#[derive(Debug)]
struct StoreInner {
    /// token → (recency stamp, size in bytes, what is parked).
    entries: HashMap<ResumeToken, (u64, usize, Parked)>,
    /// Monotonic recency counter.
    clock: u64,
    capacity: usize,
    byte_capacity: usize,
    /// Sum of the entries' sizes.
    bytes: usize,
    lineages: LineageStats,
}

impl StoreInner {
    /// Takes `token`'s entry out, keeping the byte totals true.
    fn take(&mut self, token: &ResumeToken) -> Option<Parked> {
        let (_, bytes, parked) = self.entries.remove(token)?;
        self.bytes -= bytes;
        if matches!(parked, Parked::Lineage(_)) {
            self.lineages.parked_bytes -= bytes as u64;
        }
        Some(parked)
    }

    /// Takes `token`'s entry out if it is of the kind asked for.
    fn take_kind(&mut self, token: &ResumeToken, lineage: bool) -> Option<Parked> {
        let (_, _, parked) = self.entries.get(token)?;
        if matches!(parked, Parked::Lineage(_)) != lineage {
            return None;
        }
        self.take(token)
    }

    /// Takes `token`'s entry out unclaimed.
    fn evict(&mut self, token: &ResumeToken) {
        if let Some(Parked::Lineage(_)) = self.take(token) {
            self.lineages.evicted += 1;
        }
    }

    /// Inserts (or replaces) `token`'s entry, then evicts least-recently
    /// used entries until both bounds hold — the new one too, if it alone
    /// is over the byte bound.
    fn put(&mut self, token: ResumeToken, parked: Parked) {
        self.evict(&token);
        self.clock += 1;
        let bytes = parked.bytes();
        self.bytes += bytes;
        if matches!(parked, Parked::Lineage(_)) {
            self.lineages.parked_bytes += bytes as u64;
        }
        self.entries.insert(token, (self.clock, bytes, parked));
        while self.entries.len() > self.capacity || self.bytes > self.byte_capacity {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _, _))| *stamp)
                .map(|(t, _)| *t)
                .expect("non-empty over capacity");
            self.evict(&oldest);
        }
    }
}

impl CheckpointStore {
    /// Creates a store holding at most `capacity` entries and
    /// [`CHECKPOINT_BYTE_CAPACITY`] bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_byte_capacity(capacity, CHECKPOINT_BYTE_CAPACITY)
    }

    fn with_byte_capacity(capacity: usize, byte_capacity: usize) -> Self {
        assert!(capacity > 0, "checkpoint capacity must be positive");
        CheckpointStore {
            inner: Mutex::new(StoreInner {
                entries: HashMap::new(),
                clock: 0,
                capacity,
                byte_capacity,
                bytes: 0,
                lineages: LineageStats::default(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        self.inner.lock().expect("no store operation panics while holding the lock")
    }

    /// Inserts (or replaces) the checkpoint for `token`, evicting
    /// least-recently-used entries while the store is over a bound.
    pub fn insert(&self, token: ResumeToken, bundle: ServerBundle) {
        self.lock().put(token, Parked::Checkpoint(bundle));
    }

    /// Atomically removes and returns the checkpoint for `token`, if the
    /// store still holds one. At most one of any number of concurrent
    /// claimants succeeds. A lineage under the token stays where it is.
    #[must_use]
    pub fn claim(&self, token: &ResumeToken) -> Option<ServerBundle> {
        match self.lock().take_kind(token, false) {
            Some(Parked::Checkpoint(bundle)) => Some(bundle),
            _ => None,
        }
    }

    /// Parks the lineage a cleanly ended session leaves under its token,
    /// replacing whatever sat there.
    pub fn park_lineage(&self, token: ResumeToken, lineage: ServerLineage) {
        let mut inner = self.lock();
        inner.lineages.parked += 1;
        inner.put(token, Parked::Lineage(lineage));
    }

    /// Atomically removes and returns the lineage parked under `token`, if
    /// the store still holds one. At most one of any number of concurrent
    /// claimants succeeds. A checkpoint under the token stays where it is.
    #[must_use]
    pub fn claim_lineage(&self, token: &ResumeToken) -> Option<ServerLineage> {
        let mut inner = self.lock();
        match inner.take_kind(token, true) {
            Some(Parked::Lineage(lineage)) => {
                inner.lineages.claimed += 1;
                Some(lineage)
            }
            _ => {
                inner.lineages.missed += 1;
                None
            }
        }
    }

    /// Drops the checkpoint for `token`, if present: what a session that
    /// ended cleanly, or panicked, leaves of it. A lineage under the token
    /// is not a checkpoint and stays.
    pub fn remove(&self, token: &ResumeToken) {
        let _ = self.claim(token);
    }

    /// Whether the store currently holds `token` (refreshes its recency).
    #[must_use]
    pub fn contains(&self, token: &ResumeToken) -> bool {
        let mut inner = self.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        match inner.entries.get_mut(token) {
            Some(entry) => {
                entry.0 = stamp;
                true
            }
            None => false,
        }
    }

    /// Number of entries currently held, checkpoints and lineages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently held, checkpoints and lineages.
    #[cfg(test)]
    fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// The lineage counters and the parked-bytes gauge.
    #[must_use]
    pub fn lineage_stats(&self) -> LineageStats {
        self.lock().lineages
    }
}

/// Server-side resilient driver: accepts reconnections for one logical
/// prediction job, checkpointing its triplet shares between attempts in a
/// bounded, shareable [`CheckpointStore`].
///
/// This is the one server that takes its connections from any acceptor: a
/// `FnMut(u32) -> Result<T, _>` over any [`Transport`]. The chaos, resume
/// and pin suites hand it `FaultyTransport`s over in-process endpoints
/// (seeded two-sided fault plans, latency models on a virtual clock, a cut
/// armed from the `after_offline` hook), metering or plain endpoints, and
/// faulty TCP streams; `abnn2_serve::Server`'s event loop only pumps TCP
/// sockets through a frame buffer, so it cannot stand in here.
#[derive(Debug)]
pub struct ResilientServer {
    server: Arc<SecureServer>,
    policy: RetryPolicy,
    deadlines: SessionDeadlines,
    store: Arc<CheckpointStore>,
}

impl ResilientServer {
    /// Wraps `server` with the default retry policy, LAN deadlines, and a
    /// private checkpoint store of [`DEFAULT_CHECKPOINT_CAPACITY`] entries.
    #[must_use]
    pub fn new(server: SecureServer) -> Self {
        ResilientServer {
            server: Arc::new(server),
            policy: RetryPolicy::default(),
            deadlines: SessionDeadlines::lan(),
            store: Arc::new(CheckpointStore::new(DEFAULT_CHECKPOINT_CAPACITY)),
        }
    }

    /// Replaces the retry policy.
    #[must_use]
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the deadline budget.
    #[must_use]
    pub fn with_deadlines(mut self, deadlines: SessionDeadlines) -> Self {
        self.deadlines = deadlines;
        self
    }

    /// Replaces the checkpoint store. Multiple `ResilientServer`s (e.g. the
    /// workers of a serving frontend) can share one store so a client may
    /// reconnect to any worker and still find its checkpoint.
    #[must_use]
    pub fn with_checkpoint_store(mut self, store: Arc<CheckpointStore>) -> Self {
        self.store = store;
        self
    }

    /// The checkpoint store backing this driver.
    #[must_use]
    pub fn checkpoint_store(&self) -> &Arc<CheckpointStore> {
        &self.store
    }

    /// Serves one prediction job to completion across reconnections minted
    /// by `accept`.
    ///
    /// # Errors
    ///
    /// The first fatal [`ProtocolError`], or the last transient one once
    /// the retry policy is exhausted.
    pub fn serve_one<T, C, R>(&self, accept: C, rng: &mut R) -> Result<RunReport, ProtocolError>
    where
        T: Transport,
        C: FnMut(u32) -> Result<T, TransportError>,
        R: Rng + ?Sized,
    {
        self.serve_one_with(accept, |_ch: &mut T, _attempt| {}, rng)
    }

    /// [`serve_one`](Self::serve_one) with a hook invoked after the offline
    /// phase of each attempt, before the online phase begins. Chaos and
    /// resume tests use the hook to arm transport faults at a protocol
    /// point that cannot be addressed by a hardcoded message index.
    ///
    /// # Errors
    ///
    /// The first fatal [`ProtocolError`], or the last transient one once
    /// the retry policy is exhausted.
    pub fn serve_one_with<T, C, H, R>(
        &self,
        accept: C,
        mut after_offline: H,
        rng: &mut R,
    ) -> Result<RunReport, ProtocolError>
    where
        T: Transport,
        C: FnMut(u32) -> Result<T, TransportError>,
        H: FnMut(&mut T, u32),
        R: Rng + ?Sized,
    {
        // Checkpoints live in the shared bounded store, keyed by the
        // client's resume token, so any driver holding the same store can
        // pick the job up. Claims are single-use: the bundle leaves the
        // store while its session is live (a concurrently presented
        // duplicate token therefore downgrades to a fresh run) and
        // `SessionDriver::settle` decides whether it goes back.
        let mut attempts = 0u32;
        let mut resumed = false;

        ResilientDriver::new(self.policy).run(accept, |ch, attempt| {
            attempts = attempt + 1;
            ch.set_read_timeout(self.deadlines.read_timeout)?;
            let mut driver = SessionDriver::new(
                Arc::clone(&self.server),
                self,
                StdRng::seed_from_u64(rng.next_u64()),
            );
            // The driver's phase marks are the protocol points the
            // budgets and the hook key off: `setup` follows the hello
            // exchange, `online` follows the last offline frame.
            let outcome = drive_frames_with(ch, &mut driver, |ch, effect| {
                if let DriverEffect::Mark(label) = effect {
                    if label == "online" {
                        after_offline(ch, attempt);
                    }
                    self.deadlines.arm(ch, label)?;
                }
                Ok(())
            })
            .and_then(|_| Ok(self.deadlines.arm(ch, "done")?));
            driver.settle(outcome.as_ref().err());
            resumed |= driver.resumed();
            outcome
        })?;
        Ok(RunReport { attempts, resumed })
    }
}

/// The host of each attempt: adopts the client's announced batch (a
/// prediction service has no a-priori batch expectation), resumes from the
/// store and parks lineages in it, never deals bundles.
impl SessionHost for &ResilientServer {
    fn params_for(&self, batch: usize) -> SessionParams {
        self.server.params_for(batch)
    }

    fn take_bundle(
        &self,
        _params: &SessionParams,
        _mode: OfflineMode,
    ) -> Option<(ServerBundle, ClientBundle)> {
        None
    }

    fn store(&self) -> Option<&CheckpointStore> {
        Some(&self.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::{ClientJob, SecureClient};
    use abnn2_math::{FragmentScheme, Matrix, Ring};
    use abnn2_net::{sim_link, Endpoint, Fault, FaultyTransport, NetworkModel};
    use abnn2_nn::quant::{QuantConfig, QuantizedNetwork};
    use abnn2_nn::{Network, SyntheticMnist};
    use std::time::Duration;

    fn tiny_model(seed: u64) -> QuantizedNetwork {
        let data = SyntheticMnist::generate(40, 0, seed);
        let mut net = Network::new(&[784, 6, 4, 10], seed);
        net.train_epoch(&data.train, 0.05);
        let config = QuantConfig {
            ring: Ring::new(32),
            frac_bits: 8,
            weight_frac_bits: 4,
            scheme: FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]),
        };
        QuantizedNetwork::quantize(&net, config)
    }

    fn sample_inputs(q: &QuantizedNetwork, batch: usize, seed: u64) -> Vec<Vec<u64>> {
        let data = SyntheticMnist::generate(batch, 0, seed);
        let codec = q.config.activation_codec();
        data.train.iter().take(batch).map(|s| codec.encode_vec(&s.pixels)).collect()
    }

    fn fast_deadlines() -> SessionDeadlines {
        SessionDeadlines::uniform(Duration::from_secs(2))
    }

    /// The server half of a resume, against the client primitives the
    /// networked client composes: one [`ClientJob`] carried across the
    /// attempts of a bare [`ResilientDriver`] loop around
    /// [`SecureClient::run_job`].
    #[test]
    fn mid_online_cut_resumes_with_identical_logits() {
        let q = tiny_model(94);
        let inputs = sample_inputs(&q, 2, 95);
        let expected: Vec<Vec<u64>> = inputs.iter().map(|x| q.forward_exact(x)).collect();
        let client = SecureClient::for_model(&q);

        let (dialer, listener) = sim_link(NetworkModel::instant());
        let server = ResilientServer::new(SecureServer::for_model(q))
            .with_policy(RetryPolicy::no_delay(3))
            .with_deadlines(fast_deadlines());

        std::thread::scope(|scope| {
            let srv = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(96);
                server.serve_one_with(
                    |_| {
                        listener
                            .accept_timeout(Duration::from_secs(5))
                            .map(|ep| FaultyTransport::new(ep, Fault::None))
                    },
                    |ch, attempt| {
                        if attempt == 0 {
                            // Cut the connection two messages into the
                            // online phase of the first attempt only.
                            ch.set_fault(Fault::CutAfterMessages(ch.sends() + 2));
                        }
                    },
                    &mut rng,
                )
            });
            let mut rng = StdRng::seed_from_u64(97);
            let mut job = ClientJob::new([0x5A; 16], false, fast_deadlines());
            let mut attempts = 0u32;
            let y: Matrix = ResilientDriver::new(RetryPolicy::no_delay(3))
                .run(
                    |_| dialer.dial(),
                    |ch, attempt| {
                        attempts = attempt + 1;
                        ch.set_read_timeout(fast_deadlines().read_timeout)?;
                        client.run_job(ch, &inputs, &mut job, &mut rng)
                    },
                )
                .unwrap();
            for (k, exp) in expected.iter().enumerate() {
                assert_eq!(&y.col(k), exp, "sample {k} must match forward_exact after resume");
            }
            assert!(attempts >= 2, "client must have reconnected");
            assert!(job.resumed(), "client must have resumed from checkpoint");
            let srv_report = srv.join().unwrap().unwrap();
            assert!(srv_report.attempts >= 2, "server must have accepted a reconnection");
            assert!(srv_report.resumed, "server must have accepted the resume token");
        });
    }

    /// An acceptor that never yields a connection spends the whole budget
    /// and reports its last error, typed.
    #[test]
    fn retry_budget_exhaustion_reports_last_error() {
        let server = ResilientServer::new(SecureServer::for_model(tiny_model(98)))
            .with_policy(RetryPolicy::no_delay(2))
            .with_deadlines(fast_deadlines());
        let mut accepts = 0u32;
        let mut rng = StdRng::seed_from_u64(100);
        let err = server
            .serve_one(
                |_| {
                    accepts += 1;
                    Err::<Endpoint, _>(TransportError::Closed)
                },
                &mut rng,
            )
            .unwrap_err();
        assert_eq!(err, ProtocolError::Channel);
        assert_eq!(accepts, 2, "every attempt of the budget must be spent");
    }

    fn dummy_bundle(tag: u64) -> ServerBundle {
        ServerBundle { us: vec![Matrix::new(1, 1, vec![tag])], mats: Vec::new(), batch: 1 }
    }

    #[test]
    fn checkpoint_store_evicts_least_recently_used() {
        let store = CheckpointStore::new(2);
        let (t1, t2, t3) = ([1u8; 16], [2u8; 16], [3u8; 16]);
        store.insert(t1, dummy_bundle(1));
        store.insert(t2, dummy_bundle(2));
        assert!(store.contains(&t1)); // refresh t1 → t2 is now oldest
        store.insert(t3, dummy_bundle(3));
        assert_eq!(store.len(), 2);
        assert!(store.contains(&t1));
        assert!(!store.contains(&t2), "t2 was least recently used");
        assert!(store.contains(&t3));
    }

    #[test]
    fn checkpoint_store_claim_is_single_use() {
        let store = CheckpointStore::new(4);
        let t = [7u8; 16];
        store.insert(t, dummy_bundle(7));
        assert_eq!(store.claim(&t), Some(dummy_bundle(7)));
        assert_eq!(store.claim(&t), None, "second claim must miss");
        assert!(store.is_empty());
    }

    #[test]
    fn checkpoint_store_concurrent_claims_yield_one_winner() {
        let store = Arc::new(CheckpointStore::new(4));
        let t = [9u8; 16];
        store.insert(t, dummy_bundle(9));
        let winners: usize = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let store = Arc::clone(&store);
                    scope.spawn(move || usize::from(store.claim(&t).is_some()))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(winners, 1, "exactly one concurrent claim may succeed");
    }

    /// A bundle of `elements` ring elements: `8 · elements` parked bytes.
    fn bundle_of(elements: usize) -> ServerBundle {
        ServerBundle {
            us: vec![Matrix::new(elements, 1, vec![0; elements])],
            mats: Vec::new(),
            batch: 1,
        }
    }

    /// A real lineage's server half: the Yao half alone, or both.
    fn lineage(kk: bool) -> ServerLineage {
        let offline = kk.then_some(OfflineMode::Iknp);
        let (server, _, _) = abnn2_net::run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut lineage = ServerLineage::default();
                lineage.complete(ch, offline, &mut StdRng::seed_from_u64(1)).expect("server");
                lineage
            },
            move |ch| {
                let mut lineage = crate::session::ClientLineage::default();
                lineage.complete(ch, offline, &mut StdRng::seed_from_u64(2)).expect("client");
            },
        );
        server
    }

    #[test]
    fn checkpoint_store_is_bounded_in_bytes_under_the_same_lru() {
        // Room for 2 000 bytes, and entries to spare.
        let store = CheckpointStore::with_byte_capacity(16, 2_000);
        let (t1, t2, t3, t4) = ([1u8; 16], [2u8; 16], [3u8; 16], [4u8; 16]);
        store.insert(t1, bundle_of(100));
        store.insert(t2, bundle_of(100));
        assert_eq!((store.len(), store.bytes()), (2, 1_600));
        assert!(store.contains(&t1)); // refresh t1 → t2 is now oldest
        store.insert(t3, bundle_of(100));
        assert_eq!((store.len(), store.bytes()), (2, 1_600));
        assert!(store.contains(&t1) && store.contains(&t3));
        assert!(!store.contains(&t2), "t2 was least recently used");
        // Replacing an entry counts its new size, not both.
        store.insert(t1, bundle_of(50));
        assert_eq!((store.len(), store.bytes()), (2, 1_200));
        // Claims give the bytes back.
        assert!(store.claim(&t3).is_some());
        assert_eq!((store.len(), store.bytes()), (1, 400));
        // An entry that alone is over the bound is not kept, and costs the
        // others their place on its way through.
        store.insert(t4, bundle_of(300));
        assert_eq!((store.len(), store.bytes()), (0, 0));
    }

    #[test]
    fn lineages_report_their_own_size_and_the_byte_bound_evicts_them() {
        let yao_only = lineage(false);
        let full = lineage(true);
        let (small, big) = (yao_only.parked_bytes(), full.parked_bytes());
        // Two PRG key schedules a column: 128 columns of IKNP, 256 more of
        // KK13.
        assert!((64 << 10..128 << 10).contains(&small), "Yao half parks {small} B");
        assert_eq!(big, 3 * small, "KK13 holds twice IKNP's columns");
        assert!(
            CHECKPOINT_BYTE_CAPACITY / big < DEFAULT_CHECKPOINT_CAPACITY,
            "the byte bound, not the entry bound, is what limits full lineages"
        );

        let store = CheckpointStore::with_byte_capacity(16, big + small);
        store.park_lineage([1; 16], yao_only);
        store.park_lineage([2; 16], full);
        assert_eq!(store.bytes(), big + small);
        assert_eq!(store.lineage_stats().parked_bytes, (big + small) as u64);
        // One more Yao half does not fit beside both: the oldest goes.
        store.park_lineage([3; 16], lineage(false));
        assert!(!store.contains(&[1; 16]) && store.contains(&[2; 16]) && store.contains(&[3; 16]));
        let stats = store.lineage_stats();
        assert_eq!((stats.parked, stats.evicted, stats.parked_bytes), (3, 1, (big + small) as u64));
        // A checkpoint pushes lineages out under the same LRU.
        store.insert([4; 16], bundle_of(small / 8));
        assert!(!store.contains(&[2; 16]), "the KK13 lineage was least recently used");
        assert_eq!(store.lineage_stats().evicted, 2);
        assert_eq!(store.lineage_stats().parked_bytes, small as u64);
    }

    /// The bug this pins: a completed session settles with `remove(token)`,
    /// which used to remove whatever sat under the token — the lineage the
    /// same session had parked a moment earlier.
    #[test]
    fn a_clean_end_forgets_a_checkpoint_but_not_the_lineage_it_parked() {
        let store = CheckpointStore::new(4);
        let t = [7u8; 16];
        store.insert(t, dummy_bundle(7));
        store.remove(&t);
        assert!(store.is_empty(), "a checkpoint under a finished session's token goes");

        store.park_lineage(t, ServerLineage::default());
        store.remove(&t);
        assert!(store.contains(&t), "the lineage parked at the clean end stays");
        assert_eq!(store.claim(&t), None, "a lineage is not a checkpoint");
        assert!(store.claim_lineage(&t).is_some());
        assert!(store.claim_lineage(&t).is_none(), "and claims once");

        // A session that dies after parking (its last write failed) parks
        // its checkpoint over the lineage: forfeited, not kept beside it.
        store.park_lineage(t, ServerLineage::default());
        store.insert(t, dummy_bundle(8));
        assert!(store.claim_lineage(&t).is_none());
        assert_eq!(store.claim(&t), Some(dummy_bundle(8)));
        let stats = store.lineage_stats();
        assert_eq!(
            (stats.parked, stats.claimed, stats.missed, stats.evicted, stats.parked_bytes),
            (2, 1, 2, 1, 0)
        );
    }

    #[test]
    fn lineage_store_concurrent_claims_yield_one_winner() {
        let store = Arc::new(CheckpointStore::new(4));
        let t = [9u8; 16];
        store.park_lineage(t, ServerLineage::default());
        let winners: usize = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let store = Arc::clone(&store);
                    scope.spawn(move || usize::from(store.claim_lineage(&t).is_some()))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(winners, 1, "exactly one concurrent claim may succeed");
        let stats = store.lineage_stats();
        assert_eq!((stats.claimed, stats.missed), (1, 7));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn checkpoint_store_rejects_zero_capacity() {
        let _ = CheckpointStore::new(0);
    }
}
