//! The TCP serving frontend: bounded accept queue, event-loop workers
//! multiplexing suspendable sessions, admission control, and graceful
//! drain.
//!
//! Life of a connection:
//!
//! 1. The acceptor thread takes it off the (blocking) listener. If the
//!    server is draining or the accept queue is full, it answers with a
//!    busy hello frame ([`abnn2_core::handshake::reject_busy_with`]) and closes
//!    — the client surfaces [`ProtocolError::Overloaded`]. Otherwise the
//!    raw stream is queued.
//! 2. An **event-loop worker** claims it, wraps the socket in a
//!    non-blocking [`FrameBuffer`], and hosts one
//!    [`SessionDriver`] — the server-side protocol as a resumable state
//!    machine. Each worker sweeps up to `sessions_per_worker` live
//!    drivers: complete inbound frames are fed in, the driver advances as
//!    far as it can — one protocol step at a time, each run once (§3g of
//!    DESIGN.md) — and its effects (sends, phase marks) are applied to
//!    the socket and the metrics meter. A driver waiting on the peer
//!    costs no thread: it is parked, and the worker sleeps in one
//!    `poll(2)` ([`abnn2_net::ready`]) over every parked session's socket
//!    and its own [`Waker`], which the acceptor signals after queueing a
//!    connection. Peak thread count scales with *workers*, not clients,
//!    and an idle worker wakes for work, not on a timer.
//! 3. Warm bundles come from one [`PrecomputePool`], resume checkpoints
//!    and parked lineages live in one [`CheckpointStore`], both shared by
//!    every worker: a session touches the pool once, in its hello, and the
//!    store at its hello, at its last step and when it settles, against
//!    milliseconds of protocol in between, so neither is sharded. Any
//!    worker can resume a session that died on another, or continue the
//!    lineage of one that finished on another.
//! 4. [`Server::begin_drain`] flips admission off while in-flight
//!    sessions run to completion and wakes every worker to see it; the
//!    acceptor is woken by a throwaway self-connection when the drain
//!    completes — no sleep-polling — and [`Server::shutdown`]
//!    additionally joins every thread.
//! 5. A **governor** ([`GovernorConfig`]) budgets every sweep: idle-parked
//!    sessions, non-draining peers, and inbound-quota violators are
//!    checkpointed (when resumable) and evicted, so one bad peer cannot
//!    pin a slot its warm siblings need. The read and idle clocks measure
//!    the *peer's* silence: they start when a sweep leaves the session
//!    parked, never while the worker is computing for it or a sibling.
//!    Each session sweep runs under
//!    `catch_unwind`: a panicking session is quarantined — torn down, its
//!    possibly-poisoned checkpoint discarded — while the worker and its
//!    sibling sessions keep running. A panic that escapes a worker's loop
//!    is caught on the worker's own thread, which **restarts** the loop
//!    after a short pause at the same index (its waker) with a freshly
//!    salted seed; there is no supervisor thread. Busy rejections carry a
//!    `retry_after_ms` hint derived from queue depth and occupancy.
//!
//! A server with W workers runs W + 1 threads, W + 2 with a pool.
//!
//! Byte accounting is preserved exactly: every driver effect is counted
//! into a per-session [`InstrumentHandle`] meter, so per-phase and per-tag
//! counters equal the pre-event-loop blocking server's.
//!
//! [`CheckpointStore`]: abnn2_core::CheckpointStore

use crate::governor::{GovernorConfig, PRE_HANDSHAKE_BYTES, PRE_HANDSHAKE_FRAMES};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::pool::PrecomputePool;
use abnn2_core::bundle::{BundleKey, ClientBundle, ServerBundle};
use abnn2_core::driver::{DriverEffect, DriverStep, SessionDriver, SessionHost};
use abnn2_core::handshake::{reject_busy_with, SessionParams};
use abnn2_core::resilient::DEFAULT_CHECKPOINT_CAPACITY;
use abnn2_core::OfflineMode;
use abnn2_core::{
    CheckpointStore, CommCeiling, ExecConfig, ProtocolError, SecureServer, ServedModel,
    SessionDeadlines,
};
use abnn2_net::ready::{self, Interest, Waker};
use abnn2_net::{FrameBuffer, InstrumentHandle, TcpTransport, TransportError};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Event-loop worker threads running protocol sessions.
    pub workers: usize,
    /// Accepted-but-unclaimed connections allowed to wait; beyond this the
    /// acceptor busy-rejects.
    pub queue_capacity: usize,
    /// Live sessions each worker multiplexes concurrently. Total session
    /// capacity is `workers * sessions_per_worker`; the default of 1
    /// reproduces the classic one-session-per-worker admission behaviour.
    pub sessions_per_worker: usize,
    /// Ready bundle pairs to keep per batch size *per worker* (the one
    /// pool holds `pool_depth × workers` per key); zero disables the
    /// precompute pool (every session pays the interactive offline phase).
    pub pool_depth: usize,
    /// Batch sizes the pool precomputes for.
    pub pool_batches: Vec<usize>,
    /// Offline modes the pool keys bundles under. Dealer bundles are
    /// mode-independent *content*, but a session may only consume a
    /// bundle pooled under its own negotiated mode, so a deployment
    /// expecting silent-capable clients lists [`OfflineMode::Silent`]
    /// here too.
    pub pool_modes: Vec<OfflineMode>,
    /// Per-session transport deadlines.
    pub deadlines: SessionDeadlines,
    /// Entry capacity of the checkpoint store: one LRU bound over every
    /// parked checkpoint and lineage, whichever worker parked it (its byte
    /// bound is `abnn2_core::resilient::CHECKPOINT_BYTE_CAPACITY`).
    pub checkpoint_capacity: usize,
    /// Execution options (activation variant must match the clients').
    pub exec: ExecConfig,
    /// Per-session resource budgets and chaos knobs.
    pub governor: GovernorConfig,
    /// Seed for the per-worker and pool RNGs.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 8,
            sessions_per_worker: 1,
            pool_depth: 2,
            pool_batches: vec![1],
            pool_modes: vec![OfflineMode::Iknp],
            deadlines: SessionDeadlines::lan(),
            checkpoint_capacity: DEFAULT_CHECKPOINT_CAPACITY,
            exec: ExecConfig::new(),
            governor: GovernorConfig::default(),
            seed: 0xAB22_5E21,
        }
    }
}

struct QueueState {
    conns: VecDeque<TcpStream>,
    draining: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    /// One per worker, by index (a restarted loop keeps its worker's):
    /// signalled when the queue or the drain flag changed.
    wakers: Vec<Waker>,
    server: Arc<SecureServer>,
    config: ServeConfig,
    store: CheckpointStore,
    /// `None` when `pool_depth` is zero.
    pool: Option<PrecomputePool>,
    metrics: MetricsRegistry,
    /// The bound listen address, used for the drain-complete wake dial.
    addr: SocketAddr,
    /// Admission ordinal assigned to each live session, keyed by the
    /// governor's chaos knobs.
    session_seq: AtomicU64,
    /// Latch so a chaos injection (session or worker panic) fires once.
    chaos_fired: AtomicBool,
}

impl Shared {
    fn wake_workers(&self) {
        self.wakers.iter().for_each(Waker::wake);
    }
}

/// The longest one `poll(2)` of a worker lasts when no session deadline
/// is nearer, so a lost wake costs a bounded delay, never a hang.
const MAX_POLL_WAIT: Duration = Duration::from_millis(100);

/// How long a worker whose loop panicked waits before re-entering it, so
/// a worker that dies on every pass cannot spin a core.
const RESTART_PAUSE: Duration = Duration::from_millis(25);

/// A running multi-client inference service. Dropping the handle drains
/// and joins all threads.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the acceptor, event-loop worker, and pool threads. Accepts
    /// any served topology (anything that converts into a
    /// [`ServedModel`]).
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener or creating the workers'
    /// wake channels.
    ///
    /// # Panics
    ///
    /// Panics when `config.pool_batches` holds a batch size the model's
    /// graph rejects (spatial graphs run with batch 1).
    pub fn start(
        model: impl Into<ServedModel>,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> std::io::Result<Self> {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.queue_capacity > 0, "need a positive accept queue");
        assert!(config.sessions_per_worker > 0, "need at least one session per worker");
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let wakers = (0..config.workers).map(|_| Waker::new()).collect::<Result<_, _>>()?;

        let server = Arc::new(SecureServer::for_model(model).with_exec(config.exec));
        let pool = (config.pool_depth > 0).then(|| {
            PrecomputePool::start_with_modes(
                Arc::clone(server.model()),
                &config.pool_batches,
                &config.pool_modes,
                config.pool_depth * config.workers,
                // Distinct stream from the workers.
                config.seed ^ 0x706F_6F6C,
            )
        });
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState { conns: VecDeque::new(), draining: false }),
            wakers,
            server,
            config: config.clone(),
            store: CheckpointStore::new(config.checkpoint_capacity),
            pool,
            metrics: MetricsRegistry::new(),
            addr: bound,
            session_seq: AtomicU64::new(0),
            chaos_fired: AtomicBool::new(false),
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("abnn2-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &shared))
                .expect("spawn acceptor")
        };
        let workers = (0..config.workers).map(|i| spawn_worker(&shared, i)).collect();

        Ok(Server { addr: bound, shared, acceptor: Some(acceptor), workers })
    }

    /// The bound listen address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live metrics.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let pool = self.shared.pool.as_ref().map(PrecomputePool::snapshot).unwrap_or_default();
        self.shared.metrics.snapshot(pool, self.shared.store.lineage_stats())
    }

    /// The resume-checkpoint store shared by all workers.
    #[must_use]
    pub fn checkpoint_store(&self) -> &CheckpointStore {
        &self.shared.store
    }

    /// Blocks until the pool holds `count` ready pairs **per worker**
    /// (`count × workers`, capped at its capacity) for batch size `batch`
    /// under every configured offline mode, or `timeout` passes. Returns
    /// false when no pool is attached or the target was not reached —
    /// callers use this to guarantee a warm first wave, one request on
    /// every worker at once.
    #[must_use]
    pub fn warm_up(&self, batch: usize, count: usize, timeout: Duration) -> bool {
        let Some(pool) = &self.shared.pool else { return false };
        let config = &self.shared.config;
        let count = count.min(config.pool_depth) * config.workers;
        let base = BundleKey::from_params(&self.shared.server.params_for(batch));
        let deadline = Instant::now() + timeout;
        config.pool_modes.iter().all(|&mode| {
            let remaining = deadline.saturating_duration_since(Instant::now());
            pool.wait_ready(&base.with_mode(mode), count, remaining)
        })
    }

    /// Stops admitting connections (new arrivals get a busy rejection)
    /// while in-flight and queued sessions run to completion. Idempotent,
    /// non-blocking.
    pub fn begin_drain(&self) {
        {
            let mut q = self.shared.queue.lock().expect("queue lock");
            q.draining = true;
        }
        self.shared.wake_workers();
        if let Some(pool) = &self.shared.pool {
            pool.shutdown();
        }
        // If nothing is in flight the drain is already complete; wake the
        // acceptor so it can observe that and exit without polling.
        if drain_complete(&self.shared) {
            wake_acceptor(&self.shared);
        }
    }

    /// Drains and joins every thread: in-flight sessions finish, new
    /// connections are rejected, and the call returns once the last worker
    /// exits. Idempotent; also run on drop.
    pub fn shutdown(&mut self) {
        self.begin_drain();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Whether the acceptor may stop listening: draining was requested AND
/// every queued and in-flight session has finished. Exiting any earlier
/// would close the listener while sessions are still running, turning a
/// late dialer's typed busy rejection into a raw connection reset.
fn drain_complete(shared: &Shared) -> bool {
    let queued = {
        let q = shared.queue.lock().expect("queue lock");
        if !q.draining {
            return false;
        }
        q.conns.len()
    };
    queued == 0 && shared.metrics.active() == 0
}

/// Unblocks the acceptor's blocking `accept` with a throwaway
/// self-connection so it re-checks the drain state event-driven instead
/// of sleep-polling. Failures are ignored: if the listener is already
/// gone, there is nothing left to wake.
fn wake_acceptor(shared: &Shared) {
    let _ = TcpStream::connect(shared.addr);
}

fn acceptor_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Drain-complete wake (or a final straggler): stop
                // listening. The wake connection is simply dropped.
                if drain_complete(shared) {
                    return;
                }
                let rejected = {
                    let mut q = shared.queue.lock().expect("queue lock");
                    if q.draining || q.conns.len() >= shared.config.queue_capacity {
                        Some(stream)
                    } else {
                        q.conns.push_back(stream);
                        None
                    }
                };
                match rejected {
                    None => {
                        shared.metrics.connection_accepted();
                        // Every worker, not one: only the workers know
                        // which of them has a free slot.
                        shared.wake_workers();
                    }
                    Some(stream) => {
                        shared.metrics.connection_rejected();
                        send_busy(shared, stream);
                    }
                }
            }
            Err(_) => {
                // Transient accept failure (aborted handshake, fd
                // pressure): back off briefly; drain wake-ups arrive as
                // successful accepts, not errors.
                if drain_complete(shared) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Answers a connection the server will not serve with an in-protocol
/// busy frame, so the peer sees a typed `Overloaded` instead of a reset.
/// The frame carries a `retry_after_ms` hint sized to how loaded the
/// server actually is, so turned-away clients spread their retries
/// instead of hammering a full queue in lockstep. Failures are ignored —
/// the peer is being turned away either way.
fn send_busy(shared: &Shared, stream: TcpStream) {
    let hint = retry_after_hint(shared);
    let _ = stream.set_nonblocking(false);
    if let Ok(mut ch) = TcpTransport::from_stream(stream) {
        let _ = reject_busy_with(&mut ch, shared.server.params_for(0), hint);
    }
}

/// Load-derived backoff hint: roughly one session-service quantum (25 ms)
/// per connection ahead of the rejected peer, plus a cold-pool penalty,
/// capped so a hint can never park a client for more than five seconds.
fn retry_after_hint(shared: &Shared) -> u32 {
    let active = shared.metrics.active();
    let queued = shared.queue.lock().expect("queue lock").conns.len() as u64;
    let mut hint = 25 * (active + queued + 1);
    if shared.pool.as_ref().is_some_and(|pool| pool.snapshot().ready == 0) {
        hint += 100;
    }
    u32::try_from(hint.min(5_000)).expect("capped at 5000")
}

/// The workers' [`SessionHost`]: parameters from the shared server, the
/// shared store, warm bundles from the shared pool.
struct WorkerHost<'a>(&'a Shared);

impl SessionHost for WorkerHost<'_> {
    fn params_for(&self, batch: usize) -> SessionParams {
        self.0.server.params_for(batch)
    }

    fn take_bundle(
        &self,
        params: &SessionParams,
        mode: OfflineMode,
    ) -> Option<(ServerBundle, ClientBundle)> {
        // Keyed on the negotiated offline mode: an IKNP session can never
        // drain a silent-keyed bundle (or vice versa), so per-mode pool
        // accounting stays truthful under a mixed fleet.
        self.0.pool.as_ref()?.take(&BundleKey::from_params(params).with_mode(mode))
    }

    fn store(&self) -> Option<&CheckpointStore> {
        Some(&self.0.store)
    }
}

/// Outcome of one sweep of one live session.
enum Sweep {
    /// Still live, parked until its socket is ready again.
    Parked,
    /// The session ended (`true` = completed successfully).
    Finished(bool),
}

/// Why a parked session's time is up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expiry {
    /// A phase budget or the read timeout ran out: the session fails with
    /// [`ProtocolError::TimedOut`], as it would on the blocking path.
    TimedOut,
    /// The governor's idle-park budget ran out: the session is evicted.
    Evict,
}

/// The instants at which a parked session's time is up, as a value, so
/// the decision is made without reading a clock (and is tested that way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ParkClocks {
    timed_out_at: Option<Instant>,
    evict_at: Option<Instant>,
}

impl ParkClocks {
    /// The phase budget runs from the phase's mark; the read timeout and
    /// the idle-park budget from `waiting_since`, the moment the session
    /// was last left waiting on its peer.
    fn new(
        waiting_since: Instant,
        phase_deadline: Option<Instant>,
        read_timeout: Option<Duration>,
        idle_timeout: Option<Duration>,
    ) -> Self {
        let read_deadline = read_timeout.map(|rt| waiting_since + rt);
        ParkClocks {
            timed_out_at: phase_deadline.into_iter().chain(read_deadline).min(),
            evict_at: idle_timeout.map(|it| waiting_since + it),
        }
    }

    fn expired(&self, now: Instant) -> Option<Expiry> {
        if self.timed_out_at.is_some_and(|at| now >= at) {
            Some(Expiry::TimedOut)
        } else if self.evict_at.is_some_and(|at| now >= at) {
            Some(Expiry::Evict)
        } else {
            None
        }
    }

    /// The first instant at which [`expired`](Self::expired) can turn
    /// `Some`: how long the worker may sleep on this session's account.
    fn next(&self) -> Option<Instant> {
        self.timed_out_at.into_iter().chain(self.evict_at).min()
    }
}

/// Starts worker `worker` on a thread that is also its own restarter. A
/// panic that escapes [`worker_loop`] (an injected chaos panic, or a bug
/// outside every session's guarded sweep) is caught here and counted, and
/// after [`RESTART_PAUSE`] the loop re-enters at the same index — the same
/// waker — with the next generation's seed, so a restart never replays
/// the randomness its predecessor was seeded with. It restarts during a
/// drain too, so a connection queued when the loop died is still claimed.
/// The loop's live sessions carry over: each was swept under its own
/// guard, and dropping them would leave them counted active forever.
fn spawn_worker(shared: &Arc<Shared>, worker: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("abnn2-worker-{worker}"))
        .spawn(move || {
            let seed = shared.config.seed.wrapping_add(1 + worker as u64);
            let mut sessions = Vec::new();
            for generation in 0u64.. {
                let seed = seed.wrapping_add(0x5750_0000_0000_0000_u64.wrapping_mul(generation));
                let run = || worker_loop(&shared, worker, seed, &mut sessions);
                if catch_unwind(AssertUnwindSafe(run)).is_ok() {
                    return;
                }
                shared.metrics.worker_respawned();
                std::thread::sleep(RESTART_PAUSE);
            }
        })
        .expect("spawn worker")
}

/// One multiplexed session: a suspendable driver, its non-blocking frame
/// pump, and the metrics meter that mirrors the driver's effects.
struct LiveSession<'a> {
    driver: SessionDriver<WorkerHost<'a>>,
    fb: FrameBuffer,
    meter: InstrumentHandle,
    /// When the session last started waiting on its peer: the end of the
    /// latest sweep in which the driver produced an effect (every frame it
    /// is fed and reads is one). The read and
    /// idle timeouts run from here, so they measure the peer's silence
    /// and not the worker's own compute (this session's or a sibling's)
    /// — what `SO_RCVTIMEO` measures on the blocking path.
    waiting_since: Instant,
    /// Deadline of the current phase budget, armed off the driver's marks
    /// by [`SessionDeadlines::budget_from`], the blocking server's rule.
    phase_deadline: Option<Instant>,
    /// Admission ordinal, keyed by the governor's chaos knobs.
    ordinal: u64,
    /// Inbound frames accepted so far, against the governor quota.
    inbound_frames: u64,
    /// Inbound bytes accepted so far, against the governor quota.
    inbound_bytes: u64,
    /// Plan-keyed inbound ceiling, computed once the handshake fixes the
    /// batch; `None` until then (the pre-handshake allowance applies).
    quota: Option<CommCeiling>,
}

impl<'a> LiveSession<'a> {
    fn new(
        shared: &'a Shared,
        stream: TcpStream,
        rng: &mut StdRng,
    ) -> Result<Self, TransportError> {
        let fb = FrameBuffer::new(stream)?;
        let meter = InstrumentHandle::new();
        shared.metrics.register(meter.clone());
        let driver = SessionDriver::new(
            Arc::clone(&shared.server),
            WorkerHost(shared),
            StdRng::seed_from_u64(rng.next_u64()),
        );
        Ok(LiveSession {
            driver,
            fb,
            meter,
            waiting_since: Instant::now(),
            phase_deadline: None,
            ordinal: shared.session_seq.fetch_add(1, Ordering::Relaxed),
            inbound_frames: 0,
            inbound_bytes: 0,
            quota: None,
        })
    }

    /// Feeds readable frames, advances the driver, applies its effects,
    /// and enforces deadlines and governor budgets. Returns what happened.
    fn sweep(&mut self, shared: &Shared) -> Sweep {
        // Chaos: the governed session panics at the top of its first
        // online-phase sweep, exercising the worker's quarantine path.
        if shared.config.governor.inject_panic_session == Some(self.ordinal)
            && self.driver.phase() == "online"
            && !shared.chaos_fired.swap(true, Ordering::SeqCst)
        {
            panic!("governor chaos: injected session panic in online phase");
        }

        // Pull every complete inbound frame the kernel has for us. A read
        // error (EOF, reset) is noted but NOT acted on yet: the final
        // frames of a session routinely arrive in the same sweep as the
        // peer's close, and the driver must consume them before the error
        // is allowed to matter — exactly when the blocking path would have
        // seen it, at the next starved recv.
        let mut read_err: Option<ProtocolError> = None;
        loop {
            match self.fb.poll_read() {
                Ok(Some(frame)) => {
                    self.inbound_frames += 1;
                    self.inbound_bytes += frame.len() as u64;
                    self.driver.feed(frame);
                }
                Ok(None) => break,
                Err(e) => {
                    read_err = Some(e.into());
                    break;
                }
            }
        }

        let step = self.driver.step();
        let emitted = self.apply_effects(shared);
        // Push freshly queued (and any previously unfinished) output.
        let write_err: Option<ProtocolError> = self.fb.poll_write().err().map(Into::into);

        match step {
            // A post-completion read error is moot — the protocol never
            // reads again after the output shares — but a failed final
            // write is a failed session, as it was on the blocking path.
            DriverStep::Done => match write_err {
                Some(e) => self.finish_err(e),
                None => self.finish_ok(),
            },
            DriverStep::Failed(e) => self.finish_err(e),
            DriverStep::NeedRecv => {
                if let Some(e) = read_err.or(write_err) {
                    return self.finish_err(e);
                }
                // Whatever this sweep took, the peer has had nothing new
                // to answer until now.
                let now = Instant::now();
                if emitted {
                    self.waiting_since = now;
                }
                match self.park_clocks(shared).expired(now) {
                    Some(Expiry::TimedOut) => return self.finish_err(ProtocolError::TimedOut),
                    Some(Expiry::Evict) => return self.finish_evict(shared),
                    None => {}
                }
                // Outbound cap: the peer is not draining its socket and
                // the frame buffer is absorbing the difference.
                let over_outbound = shared
                    .config
                    .governor
                    .max_outbound_bytes
                    .is_some_and(|cap| self.fb.pending_write_bytes() as u64 > cap);
                if over_outbound || self.over_inbound_quota(shared) {
                    return self.finish_evict(shared);
                }
                Sweep::Parked
            }
        }
    }

    /// Whether the session has received more than the planner says a
    /// well-formed peer could ever send. Before the handshake fixes the
    /// batch a small fixed allowance applies; after it, the plan-keyed
    /// [`CommCeiling`] (computed once and cached).
    fn over_inbound_quota(&mut self, shared: &Shared) -> bool {
        if self.quota.is_none() {
            if let Some(batch) = self.driver.batch() {
                self.quota = shared.server.inbound_ceiling(batch).ok();
            }
        }
        match self.quota {
            Some(q) => self.inbound_frames > q.frames || self.inbound_bytes > q.bytes,
            None => {
                self.inbound_frames > PRE_HANDSHAKE_FRAMES
                    || self.inbound_bytes > PRE_HANDSHAKE_BYTES
            }
        }
    }

    fn park_clocks(&self, shared: &Shared) -> ParkClocks {
        ParkClocks::new(
            self.waiting_since,
            self.phase_deadline,
            shared.config.deadlines.read_timeout,
            shared.config.governor.idle_timeout,
        )
    }

    /// What the worker's `poll` watches for this session: its socket, for
    /// input and — while output is queued — for room to write.
    fn interest(&self) -> Interest {
        Interest::new(self.fb.stream(), true, self.fb.has_pending_write())
    }

    /// Mirrors the driver's effects onto the socket (sends) and the
    /// metrics meter (everything), and arms phase budgets off the marks.
    /// Returns whether there were any.
    fn apply_effects(&mut self, shared: &Shared) -> bool {
        let effects = self.driver.take_effects();
        let any = !effects.is_empty();
        for effect in effects {
            match effect {
                DriverEffect::Send(bytes) => {
                    self.fb.queue_send(&bytes);
                    self.meter.record_send(bytes.first().copied().unwrap_or(0), bytes.len());
                }
                DriverEffect::Flush => {}
                DriverEffect::Recv { tag, len } => self.meter.record_recv(tag, len),
                DriverEffect::Mark(label) => {
                    self.meter.enter_phase(&label);
                    if let Some(budget) = shared.config.deadlines.budget_from(&label) {
                        self.phase_deadline = budget.map(|b| Instant::now() + b);
                    }
                }
            }
        }
        any
    }

    fn finish_ok(&mut self) -> Sweep {
        self.driver.settle(None);
        self.flush_outbound();
        Sweep::Finished(true)
    }

    /// A failed session waits only for what a failure itself has to say:
    /// the hello reply of a failed negotiation, the first bytes this
    /// connection was ever sent. Anything else queued is protocol output
    /// to a peer no longer following it and got its one `poll_write` in
    /// the sweep that ended here — a peer that reads nothing (the first
    /// KK13 column frame is megabytes) and then sends a stray frame must
    /// not hold this worker, and every sibling on it, for a courtesy flush.
    fn finish_err(&mut self, e: ProtocolError) -> Sweep {
        // A retryably dead session parks its connection-independent
        // offline state for a future resume.
        self.driver.settle(Some(&e));
        if matches!(e, ProtocolError::Negotiation { .. }) {
            self.flush_outbound();
        }
        Sweep::Finished(false)
    }

    /// Governor eviction: park the resumable offline state for a future
    /// resume (an evicted peer is a timed-out peer), count the eviction,
    /// and give the slot back without waiting on the socket — the peer
    /// being evicted is by definition not draining.
    fn finish_evict(&mut self, shared: &Shared) -> Sweep {
        self.driver.settle(Some(&ProtocolError::TimedOut));
        shared.metrics.session_evicted();
        Sweep::Finished(false)
    }

    /// Best-effort bounded drain of queued output (the final logit shares,
    /// a negotiation reply) before the socket closes.
    fn flush_outbound(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while let Ok(false) = self.fb.poll_write() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            // Room to write only: input the session will never read must
            // not turn this wait into a spin.
            ready::wait(None, &[Interest::new(self.fb.stream(), false, true)], left);
        }
    }
}

fn worker_loop<'a>(
    shared: &'a Shared,
    worker: usize,
    seed: u64,
    sessions: &mut Vec<LiveSession<'a>>,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    loop {
        // Chaos: die right before claiming, while the queue is non-empty
        // and no lock is held — the queued connection must survive the
        // crash and be served by the restarted loop.
        if shared.config.governor.inject_worker_panic == Some(worker) {
            let armed = !shared.queue.lock().expect("queue lock").conns.is_empty();
            if armed && !shared.chaos_fired.swap(true, Ordering::SeqCst) {
                panic!("governor chaos: injected worker panic");
            }
        }

        // Claim queued connections up to the multiplexing cap.
        {
            let mut q = shared.queue.lock().expect("queue lock");
            while sessions.len() < shared.config.sessions_per_worker {
                let Some(stream) = q.conns.pop_front() else {
                    break;
                };
                // Counted before the lock drops so `drain_complete`
                // never sees an empty queue with the pop unaccounted.
                shared.metrics.session_started();
                match LiveSession::new(shared, stream, &mut rng) {
                    Ok(live) => sessions.push(live),
                    Err(_) => shared.metrics.session_ended(false),
                }
            }
            if sessions.is_empty() && q.draining {
                drop(q);
                if drain_complete(shared) {
                    wake_acceptor(shared);
                }
                return;
            }
        }

        // Sweep every live session once, each under its own unwind guard:
        // a panicking session is quarantined — its possibly-poisoned
        // checkpoint discarded so a resume can never replay the state
        // that panicked — while this worker and the sibling sessions in
        // this very Vec keep running.
        let mut ended = 0usize;
        sessions.retain_mut(|live| {
            let ok = match catch_unwind(AssertUnwindSafe(|| live.sweep(shared))) {
                Ok(Sweep::Parked) => return true,
                Ok(Sweep::Finished(ok)) => ok,
                Err(_) => {
                    if let Some(token) = live.driver.token() {
                        shared.store.remove(&token);
                    }
                    shared.metrics.session_panicked();
                    false
                }
            };
            shared.metrics.driver_finished(live.driver.replay_counters());
            shared.metrics.session_ended(ok);
            ended += 1;
            false
        });
        if ended > 0 {
            if drain_complete(shared) {
                wake_acceptor(shared);
            }
            // A slot came free: look at the queue before sleeping, since
            // the wake for a connection queued while this worker was full
            // has already been consumed.
            continue;
        }

        // Every session is parked: sleep until a socket is ready, the
        // acceptor or a drain wakes us, or the nearest session deadline —
        // and at most `MAX_POLL_WAIT`, in case a wake was lost.
        let now = Instant::now();
        let timeout = sessions
            .iter()
            .filter_map(|live| live.park_clocks(shared).next())
            .map(|at| at.saturating_duration_since(now))
            .fold(MAX_POLL_WAIT, Duration::min);
        let interests: Vec<Interest> = sessions.iter().map(LiveSession::interest).collect();
        ready::wait(Some(&shared.wakers[worker]), &interests, timeout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    /// The bug this pins: the clocks used to run from the last inbound
    /// frame, so a server step (or sibling sweeps) longer than the timeout
    /// expired a peer that had not yet been sent anything to answer.
    #[test]
    fn read_and_idle_clocks_start_when_the_session_parks_not_when_the_frame_arrived() {
        let frame_arrived = Instant::now();
        // The step that consumed the frame took 80 ms; both timeouts are
        // shorter than that.
        let parked = frame_arrived + 80 * MS;
        let clocks = ParkClocks::new(parked, None, Some(20 * MS), Some(30 * MS));
        assert_eq!(clocks.expired(parked), None, "the peer has had no time to answer yet");
        assert_eq!(clocks.expired(parked + 19 * MS), None);
        assert_eq!(clocks.expired(parked + 20 * MS), Some(Expiry::TimedOut));
        assert_eq!(clocks.next(), Some(parked + 20 * MS));
    }

    #[test]
    fn idle_budget_evicts_when_it_is_the_tighter_one() {
        let parked = Instant::now();
        let clocks = ParkClocks::new(parked, None, Some(50 * MS), Some(10 * MS));
        assert_eq!(clocks.expired(parked + 9 * MS), None);
        assert_eq!(clocks.expired(parked + 10 * MS), Some(Expiry::Evict));
        // Once both have passed, the timeout wins, as on the blocking path.
        assert_eq!(clocks.expired(parked + 50 * MS), Some(Expiry::TimedOut));
        assert_eq!(clocks.next(), Some(parked + 10 * MS));
    }

    #[test]
    fn phase_budget_runs_from_its_mark_whatever_the_park_time() {
        let marked = Instant::now();
        let deadline = marked + 100 * MS;
        // Parked late in the phase: the budget does not restart.
        let clocks = ParkClocks::new(marked + 95 * MS, Some(deadline), Some(50 * MS), None);
        assert_eq!(clocks.expired(marked + 99 * MS), None);
        assert_eq!(clocks.expired(deadline), Some(Expiry::TimedOut));
        assert_eq!(clocks.next(), Some(deadline));
    }

    #[test]
    fn no_budgets_means_no_deadline() {
        let clocks = ParkClocks::new(Instant::now(), None, None, None);
        assert_eq!(clocks.expired(Instant::now() + Duration::from_secs(3600)), None);
        assert_eq!(clocks.next(), None);
    }
}
