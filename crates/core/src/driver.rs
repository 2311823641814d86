//! Suspendable server-side session engine (§3g of DESIGN.md).
//!
//! [`SessionDriver`] re-expresses the server side of the protocol —
//! hello/handshake → base OT (for whichever lineage half is missing and
//! needed) → IKNP/KK13 offline → blinded-input/online → output, lineage
//! parked — as a resumable state machine whose only I/O is a stream of
//! [`DriverEffect`]s: frames to send, flushes, and phase marks. Inbound
//! frames are [`fed`](SessionDriver::feed) in whole; when the driver needs
//! a frame that has not arrived it parks with [`DriverStep::NeedRecv`]
//! instead of blocking a thread, which lets one event-loop worker
//! multiplex many live sessions over readiness-based I/O.
//!
//! # How suspension works
//!
//! The protocol stack (base OT, IKNP, KK13, garbled circuits) is written
//! as straight-line blocking code against the [`Transport`] trait, and
//! rewriting it in continuation-passing style would fork every
//! cryptographic code path. The driver instead cuts the server side into
//! **steps** — the hello, each base-OT batch, each unit of the offline and
//! online walks in [`crate::graph`] (one fragment group of a linear op, one
//! matrix triple, the blinded input, one tape op) — and exploits three
//! properties of a step:
//!
//! 1. it is a **deterministic** function of the state it starts from, the
//!    RNG stream, and the few inbound frames it consumes;
//! 2. the state it starts from is a plain value that is cheap to copy: the
//!    OT state its phase writes (the fragment chooser offline, the Yao
//!    evaluator online — each walk owns that and nothing of the other),
//!    the tape and the partial triplet share; the offline bundle and the
//!    pending op's circuit are shared, not copied, and the evaluator waits
//!    beside the offline walk until the edge;
//! 3. the cuts sit where the server starts waiting, so nearly every step
//!    receives first and computes afterwards.
//!
//! Each [`step`](SessionDriver::step) call runs the current step on a
//! *trial copy* of that state against the buffered inbox. A recv past the
//! end of the inbox raises [`TransportError::WouldBlock`], marks the
//! attempt starved, discards the copy and parks the driver; effects
//! performed before the starvation point are externalized once and
//! suppressed by count when the step is attempted again. When the step
//! returns `Ok`, the copy becomes the state, the frames it consumed leave
//! the inbox, and the machine goes on to the next step — so an inbox that
//! already holds the whole session runs to `Done` in one call, and a
//! starved attempt repeats at most the part of one step that precedes its
//! last receive (inside a re-share op: parsing the small frames and the
//! IKNP column PRG; the garbled tables are re-read where they lie, not
//! copied). [`ReplayCounters`] measures exactly that repetition. The
//! transcript is byte-identical to the blocking path —
//! `tests/graph_parity.rs` pins that equivalence against pre-refactor
//! goldens — and [`drive_blocking`] is the blocking flow as a thin adapter
//! over the driver.

use crate::bundle::{ClientBundle, ServerBundle};
use crate::frames::Bundle;
use crate::graph::{ServerOfflineWalk, ServerOnlineWalk};
use crate::handshake::{handshake_server_ext, HelloReply, ResumeToken, SessionParams};
use crate::inference::{SecureServer, ServerOffline};
use crate::resilient::CheckpointStore;
use crate::session::ServerLineage;
use crate::ProtocolError;
use abnn2_gc::YaoEvaluator;
use abnn2_net::{CommSnapshot, Frame, Transport, TransportError};
use abnn2_ot::{FragmentChooser, OfflineMode};
use rand::rngs::StdRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a session's side data comes from: its parameters, a warm bundle,
/// and the one [`CheckpointStore`] in which sessions leave what outlives
/// them. The serving layer implements this over its shared store and pool,
/// [`ResilientServer`](crate::ResilientServer) over its store;
/// [`NullHost`] declines everything for the plain blocking flow.
///
/// What goes into the store and when is the driver's business, not the
/// host's: it claims a resume checkpoint and a parked lineage at the hello,
/// parks the lineage in the `Done` step and settles the checkpoint in
/// [`SessionDriver::settle`]. A host says only which store, if any.
///
/// The driver consults each of the lookups at most once per
/// session, during the handshake phase, and only for a parameter-matched
/// peer — so a claim or take may have side effects (removal from a store)
/// without risking double consumption on replay.
pub trait SessionHost {
    /// Our session parameters for the batch size the client announced.
    fn params_for(&self, batch: usize) -> SessionParams;

    /// Claims (removes) the resume checkpoint for `token`, if held: from
    /// [`store`](Self::store), unless the host keeps checkpoints elsewhere.
    fn claim_checkpoint(&self, token: &ResumeToken) -> Option<ServerBundle> {
        self.store()?.claim(token)
    }

    /// Takes a warm precomputed bundle pair matching the negotiated
    /// parameters *and offline mode*, if one is ready. Answering `Some`
    /// commits the session to sending the client half right after base-OT
    /// setup. Bundles pooled for silent sessions must never be handed to
    /// IKNP sessions (the pool keys on [`crate::bundle::BundleKey`], which
    /// includes the mode).
    fn take_bundle(
        &self,
        params: &SessionParams,
        mode: OfflineMode,
    ) -> Option<(ServerBundle, ClientBundle)>;

    /// The store this host's sessions park in: the checkpoint of one that
    /// died retryably, for its client to resume, and the lineage of one
    /// that ended cleanly, for that client's next session to continue. The
    /// hello reply tells the client whether there is one, and the client
    /// keeps its own halves only then. Hosts without a store keep the
    /// default: nothing resumes and every session sets up afresh.
    fn store(&self) -> Option<&CheckpointStore> {
        None
    }
}

/// A host that never resumes and never deals bundles: the
/// [`SecureServer::run`] flow, where the server announces fixed
/// parameters regardless of the client's batch (a mismatch is a
/// negotiation failure, not something to adopt).
#[derive(Debug, Clone)]
pub struct NullHost {
    /// The parameters announced to every client.
    pub ours: SessionParams,
}

impl SessionHost for NullHost {
    fn params_for(&self, _batch: usize) -> SessionParams {
        self.ours
    }
    fn take_bundle(
        &self,
        _params: &SessionParams,
        _mode: OfflineMode,
    ) -> Option<(ServerBundle, ClientBundle)> {
        None
    }
}

/// One externally visible I/O action of a driver step, in execution
/// order. `Send` and `Flush` must be performed against the peer
/// connection; `Recv` and `Mark` are bookkeeping mirrors (a frame was
/// consumed from the inbox / the session entered an instrumentation
/// phase) so an event loop can meter per-phase traffic and arm phase
/// budgets without looking inside the protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverEffect {
    /// Send this frame (tag byte + payload) to the peer.
    Send(Vec<u8>),
    /// Push any write-coalescing buffer down to the wire.
    Flush,
    /// The driver consumed one inbound frame with this leading tag byte
    /// and this total length (tag byte included).
    Recv {
        /// The frame's leading tag byte (0 for an empty frame).
        tag: u8,
        /// The frame's total length in bytes.
        len: usize,
    },
    /// The session entered the named instrumentation phase.
    Mark(String),
}

/// Outcome of one [`SessionDriver::step`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverStep {
    /// Parked: the driver needs at least one more inbound frame
    /// ([`SessionDriver::feed`]) before it can advance.
    NeedRecv,
    /// The session ran to completion.
    Done,
    /// The session failed. Pending effects (e.g. the hello reply of a
    /// failed negotiation) must still be externalized.
    Failed(ProtocolError),
}

/// What a driver has spent on running steps more than once, so far. The
/// three counts are deterministic for a given feed schedule; the two
/// clocks are wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayCounters {
    /// Step attempts: one per step, plus one per park inside it.
    pub attempts: u64,
    /// Inbound frames handed to protocol code, re-reads by later attempts
    /// of the same step included.
    pub frames_read: u64,
    /// Inbound frames consumed by completed steps.
    pub frames_consumed: u64,
    /// Time attempts spent re-running what an earlier attempt of the same
    /// step had already done: from the attempt's start until it has
    /// repeated every event its predecessors externalized. Zero for a
    /// step's first attempt.
    pub replayed_ns: u64,
    /// All other time inside attempts.
    pub step_ns: u64,
}

/// Deterministic replay channel: protocol code runs against the buffered
/// inbox; a recv past its end raises [`TransportError::WouldBlock`] and
/// flags starvation, and outbound traffic is captured as
/// [`DriverEffect`]s. Events performed by an earlier starved attempt of
/// the same step are suppressed by count on replay — sound because each
/// step is a deterministic function of the state it starts from and the
/// inbox prefix it reads.
#[derive(Debug, Default)]
struct ReplayTransport {
    /// Buffered inbound frames; consumed only when a step completes. Each
    /// is shared, so every attempt of a step that reads it with
    /// [`Transport::recv_shared`] reads the one allocation.
    inbox: Vec<Arc<Vec<u8>>>,
    /// Next inbox index the current attempt will read.
    cursor: usize,
    /// Events already externalized by earlier attempts of this step.
    committed: usize,
    /// Events performed so far by the current attempt.
    events: usize,
    /// Fresh effects from the current attempt, in order.
    effects: Vec<DriverEffect>,
    /// The current attempt read past the end of the inbox.
    starved: bool,
    sent: u64,
    received: u64,
    messages_sent: u64,
    counters: ReplayCounters,
    /// When the current attempt began, and how long it then took to catch
    /// up with `committed`.
    attempt_start: Option<Instant>,
    catch_up: Duration,
}

impl ReplayTransport {
    /// Reads the next buffered frame: its inbox index, counted and noted
    /// as one event. Past the end of the inbox the attempt is starved.
    fn read_next(&mut self) -> Result<usize, TransportError> {
        let at = self.cursor;
        let Some(frame) = self.inbox.get(at) else {
            self.starved = true;
            return Err(TransportError::WouldBlock);
        };
        let (tag, len) = (frame.first().copied().unwrap_or(0), frame.len());
        self.cursor += 1;
        self.counters.frames_read += 1;
        if self.note_event(|| DriverEffect::Recv { tag, len }) {
            self.received += len as u64;
        }
        Ok(at)
    }

    fn begin_attempt(&mut self) {
        debug_assert!(self.effects.is_empty(), "effects drained between attempts");
        self.cursor = 0;
        self.events = 0;
        self.starved = false;
        self.counters.attempts += 1;
        self.attempt_start = Some(Instant::now());
        self.catch_up = Duration::ZERO;
    }

    /// Closes the attempt's clocks; a completed step (`done`) releases the
    /// frames it consumed, a starved one remembers how far it got.
    fn end_attempt(&mut self, done: bool) {
        let elapsed = self.attempt_start.take().map_or(Duration::ZERO, |t| t.elapsed());
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.counters.replayed_ns += ns(self.catch_up);
        self.counters.step_ns += ns(elapsed.saturating_sub(self.catch_up));
        if done {
            self.inbox.drain(..self.cursor);
            self.counters.frames_consumed += self.cursor as u64;
            self.committed = 0;
        } else {
            self.committed = self.events;
        }
    }

    /// Counts one event; returns whether it is fresh (not yet
    /// externalized by an earlier attempt) and records its effect if so.
    fn note_event(&mut self, effect: impl FnOnce() -> DriverEffect) -> bool {
        let fresh = self.events >= self.committed;
        self.events += 1;
        if fresh {
            self.effects.push(effect());
        } else if self.events == self.committed {
            self.catch_up = self.attempt_start.map_or(Duration::ZERO, |t| t.elapsed());
        }
        fresh
    }
}

impl Transport for ReplayTransport {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        let len = payload.len() as u64;
        if self.note_event(|| DriverEffect::Send(payload.to_vec())) {
            self.sent += len;
            self.messages_sent += 1;
        }
        Ok(())
    }

    fn send_owned(&mut self, payload: Vec<u8>) -> Result<(), TransportError> {
        let len = payload.len() as u64;
        if self.note_event(|| DriverEffect::Send(payload)) {
            self.sent += len;
            self.messages_sent += 1;
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        let at = self.read_next()?;
        Ok(Vec::clone(&self.inbox[at]))
    }

    fn recv_shared(&mut self) -> Result<Arc<Vec<u8>>, TransportError> {
        let at = self.read_next()?;
        Ok(Arc::clone(&self.inbox[at]))
    }

    fn recv_frame<F: Frame>(&mut self) -> Result<F, TransportError> {
        let at = self.read_next()?;
        F::decode_tagged(&self.inbox[at]).map_err(TransportError::from)
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        self.note_event(|| DriverEffect::Flush);
        Ok(())
    }

    fn snapshot(&self) -> CommSnapshot {
        CommSnapshot {
            bytes_sent: self.sent,
            bytes_received: self.received,
            messages_sent: self.messages_sent,
            vtime: Duration::ZERO,
        }
    }

    fn mark_phase(&mut self, label: &str) {
        let label = label.to_string();
        self.note_event(|| DriverEffect::Mark(label));
    }
}

/// What the hello exchange settled, for the setup steps to act on.
#[derive(Default)]
struct Admitted {
    batch: usize,
    reply: HelloReply,
    claimed: Option<ServerBundle>,
    pooled: Option<(ServerBundle, ClientBundle)>,
    /// The halves this session continues; setup fills in the rest.
    lineage: ServerLineage,
}

/// The machine's position in the protocol. Each live variant holds the
/// state its next step starts from.
enum State {
    Handshake,
    /// The fragment base-OT batch, if the session runs the interactive
    /// offline phase and continues no fragment half.
    Setup(Admitted),
    /// The Yao base-OT batch, if the session continues no Yao half. A step
    /// of its own: the fragment batch's RNG draws are committed, so a park
    /// here re-runs only this batch.
    SetupYao(Admitted),
    /// The walk owns the fragment chooser; the evaluator waits beside it
    /// for the online phase, untouched and never copied with the walk.
    Offline {
        walk: Box<ServerOfflineWalk>,
        yao: Box<YaoEvaluator>,
    },
    /// The walk owns the evaluator; the fragment chooser (spent by the
    /// offline phase, or continued past a session that had no use for it)
    /// waits beside it to be parked.
    Online {
        walk: Box<ServerOnlineWalk>,
        kk: Option<FragmentChooser>,
    },
    Done,
    Failed(ProtocolError),
}

/// Resumable server-side protocol session. See the module docs for the
/// step mechanics; see [`drive_blocking`] for the synchronous adapter
/// and `abnn2-serve` for the event-loop host.
pub struct SessionDriver<H: SessionHost> {
    server: Arc<SecureServer>,
    host: H,
    rng: StdRng,
    replay: ReplayTransport,
    state: State,
    token: Option<ResumeToken>,
    batch: Option<usize>,
    checkpoint: Option<ServerBundle>,
    /// The hello reply accepted the client's resume token.
    resumed: bool,
    /// The hello reply promised to park this session's lineage.
    park: bool,
    pending: Vec<DriverEffect>,
    /// Inbox length at the last starvation, to skip no-progress attempts.
    parked_at: Option<usize>,
}

impl<H: SessionHost> std::fmt::Debug for SessionDriver<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionDriver")
            .field("phase", &self.phase())
            .field("inbox", &self.replay.inbox.len())
            .field("pending_effects", &self.pending.len())
            .finish()
    }
}

impl<H: SessionHost> SessionDriver<H> {
    /// A driver at the start of the handshake. `rng` feeds base-OT setup
    /// (the only server phase that consumes randomness).
    #[must_use]
    pub fn new(server: Arc<SecureServer>, host: H, rng: StdRng) -> Self {
        SessionDriver {
            server,
            host,
            rng,
            replay: ReplayTransport::default(),
            state: State::Handshake,
            token: None,
            batch: None,
            checkpoint: None,
            resumed: false,
            park: false,
            pending: Vec::new(),
            parked_at: None,
        }
    }

    /// Buffers one complete inbound frame for the next [`step`](Self::step).
    pub fn feed(&mut self, frame: Vec<u8>) {
        self.replay.inbox.push(Arc::new(frame));
    }

    /// Drains the effects produced so far, in execution order. `Send` and
    /// `Flush` effects must be applied to the peer connection — including
    /// after [`DriverStep::Failed`], which may leave a negotiation reply
    /// pending.
    pub fn take_effects(&mut self) -> Vec<DriverEffect> {
        std::mem::take(&mut self.pending)
    }

    /// The resume token the client presented (known once the handshake
    /// phase has completed).
    #[must_use]
    pub fn token(&self) -> Option<ResumeToken> {
        self.token
    }

    /// The batch size the client negotiated (known once the handshake
    /// phase has completed). Serving governors key per-session resource
    /// quotas off the plan this batch selects.
    #[must_use]
    pub fn batch(&self) -> Option<usize> {
        self.batch
    }

    /// Whether the session resumed from a checkpoint claimed under the
    /// client's token instead of running (or being dealt) an offline phase.
    #[must_use]
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// Settles the session's resume checkpoint with the host's store once
    /// the session has ended, however it was driven: a session that died
    /// retryably (`Some(e)` with [`ProtocolError::is_retryable`]) parks
    /// its connection-independent offline state under the client's token
    /// — the client will be back — while a completed one (`None`) forgets
    /// any checkpoint under the token. A fatal error leaves the store
    /// alone: a claimed checkpoint already left it, and nothing will
    /// resume this session.
    ///
    /// The lineage is not settled here. A session that reached `Done`
    /// parked it in that step, and forgetting the checkpoint leaves it be
    /// ([`CheckpointStore::remove`]); a session that ended any other way
    /// drops the halves it held with the driver, and a checkpoint parked
    /// under the token replaces what a late failure (the last write) left
    /// there. Either way no lineage survives a session that did not end
    /// cleanly.
    pub fn settle(&mut self, error: Option<&ProtocolError>) {
        let (Some(token), Some(store)) = (self.token, self.host.store()) else { return };
        match error {
            None => store.remove(&token),
            Some(e) if e.is_retryable() => {
                if let Some(bundle) = self.checkpoint.take() {
                    store.insert(token, bundle);
                }
            }
            Some(_) => {}
        }
    }

    /// What the session has spent on re-running starved steps so far.
    #[must_use]
    pub fn replay_counters(&self) -> ReplayCounters {
        self.replay.counters
    }

    /// The error a failed driver stopped with.
    #[must_use]
    pub fn error(&self) -> Option<ProtocolError> {
        match self.state {
            State::Failed(e) => Some(e),
            _ => None,
        }
    }

    /// The top-level phase the machine is in: `"handshake"`, `"setup"`,
    /// `"offline"`, `"online"`, `"done"`, or `"failed"`. Event loops key
    /// phase deadline budgets off this.
    #[must_use]
    pub fn phase(&self) -> &'static str {
        match self.state {
            State::Handshake => "handshake",
            State::Setup(_) | State::SetupYao(_) => "setup",
            State::Offline { .. } => "offline",
            State::Online { .. } => "online",
            State::Done => "done",
            State::Failed(_) => "failed",
        }
    }

    /// Advances the machine as far as the buffered inbox allows: steps
    /// complete and chain until one parks on a missing frame, fails, or
    /// the session finishes. Idempotent once `Done`/`Failed` is reached.
    pub fn step(&mut self) -> DriverStep {
        loop {
            match self.state {
                State::Done => return DriverStep::Done,
                State::Failed(e) => return DriverStep::Failed(e),
                _ => {}
            }
            // Another attempt with no new frames since the last starvation
            // cannot make progress; skip the wasted work.
            if let Some(n) = self.parked_at {
                if self.replay.inbox.len() == n {
                    return DriverStep::NeedRecv;
                }
            }
            self.parked_at = None;

            // Each attempt runs on a clone of the RNG so a starved
            // attempt leaves the stream untouched and the next one is
            // bit-reproducible.
            let mut rng = self.rng.clone();
            self.replay.begin_attempt();
            let outcome = self.run_step(&mut rng);
            self.replay.end_attempt(outcome.is_ok());
            self.pending.append(&mut self.replay.effects);
            match outcome {
                Ok(next) => {
                    self.rng = rng;
                    if let Some(next) = next {
                        self.state = next;
                    }
                }
                Err(_) if self.replay.starved => {
                    self.parked_at = Some(self.replay.inbox.len());
                    return DriverStep::NeedRecv;
                }
                Err(e) => {
                    self.state = State::Failed(e);
                }
            }
        }
    }

    /// Runs the current step over the replay channel, returning the state
    /// the next one starts from (`None`: the current state, advanced in
    /// place). A walk step runs on a copy of the walk and the other steps
    /// change driver fields only after their last recv, so a starved
    /// attempt leaves the driver unchanged.
    fn run_step(&mut self, rng: &mut StdRng) -> Result<Option<State>, ProtocolError> {
        let ch = &mut self.replay;
        let next = match &mut self.state {
            State::Handshake => {
                ch.mark_phase("handshake");
                let host = &self.host;
                let mut admitted = Admitted::default();
                // The host closures run exactly once: the handshake's
                // only suspension point is its initial recv, before they
                // are consulted, and everything after that recv is
                // non-blocking.
                let (batch, token, reply) = handshake_server_ext(
                    ch,
                    |b| host.params_for(b),
                    |t| {
                        admitted.claimed = host.claim_checkpoint(t);
                        admitted.claimed.is_some()
                    },
                    |p, mode| {
                        admitted.pooled = host.take_bundle(p, mode);
                        admitted.pooled.is_some()
                    },
                    host.store().is_some(),
                    |t, mode| {
                        let mut held =
                            host.store().and_then(|s| s.claim_lineage(t)).unwrap_or_default();
                        // A fragment half of the other mode is no use to a
                        // session in this one.
                        if held.mode().is_some_and(|m| m != mode) {
                            held.kk = None;
                        }
                        admitted.lineage = held;
                        admitted.lineage.halves()
                    },
                )?;
                // What the client did not offer it does not hold.
                admitted.lineage.retain(reply.continued);
                self.token = Some(token);
                self.batch = Some(batch);
                self.resumed = reply.resume;
                self.park = reply.park;
                State::Setup(Admitted { batch, reply, ..admitted })
            }
            State::Setup(admitted) => {
                ch.mark_phase("setup");
                if let Some(mode) = admitted.reply.offline() {
                    admitted.lineage.ensure_kk(ch, mode, rng)?;
                }
                State::SetupYao(std::mem::take(admitted))
            }
            State::SetupYao(admitted) => {
                admitted.lineage.ensure_yao(ch, rng)?;
                let Admitted { batch, reply, claimed, pooled, lineage } = std::mem::take(admitted);
                let ServerLineage { kk, yao } = lineage;
                let yao = yao.expect("the Yao half is continued or was just set up");
                // A resumed or dealt bundle goes straight to the edge, with
                // whatever fragment chooser the lineage carries riding along
                // unused.
                if reply.resume {
                    let bundle = claimed.expect("accepted resume implies a claimed checkpoint");
                    if bundle.batch != batch {
                        return Err(ProtocolError::Malformed("resumed checkpoint batch mismatch"));
                    }
                    self.checkpoint = Some(bundle.clone());
                    enter_online(ch, &self.server, ServerOffline::from_bundle(yao, bundle), kk)?
                } else if reply.bundle {
                    let (sb, cb) = pooled.expect("accepted bundle implies a pooled pair");
                    ch.mark_phase("bundle");
                    ch.send_frame(&Bundle(cb.encode(self.server.model.config().ring)))?;
                    ch.flush()?;
                    self.checkpoint = Some(sb.clone());
                    enter_online(ch, &self.server, ServerOffline::from_bundle(yao, sb), kk)?
                } else {
                    ch.mark_phase("offline");
                    let sg = self.server.model.secure_graph(batch)?;
                    let kk = kk.expect("the fragment half is continued or was just set up");
                    let walk = ServerOfflineWalk::new(kk, sg, self.server.exec);
                    State::Offline { walk: Box::new(walk), yao: Box::new(yao) }
                }
            }
            State::Offline { walk, yao } => {
                let mut trial = walk.clone();
                trial.step(ch, &self.server.model, rng)?;
                if !trial.done() {
                    *walk = trial;
                    return Ok(None);
                }
                // The edge: the walk's bundle and the evaluator cross into
                // the online walk, the chooser waits beside it.
                let (bundle, kk) = trial.finish();
                self.checkpoint = Some(bundle.clone());
                let yao = YaoEvaluator::clone(yao);
                enter_online(ch, &self.server, ServerOffline::from_bundle(yao, bundle), Some(kk))?
            }
            State::Online { walk, kk } => {
                let mut trial = walk.clone();
                trial.step(ch, &self.server.model)?;
                if !trial.done() {
                    *walk = trial;
                    return Ok(None);
                }
                let (yao, y0) = trial.finish();
                // Parked before the output shares are even queued: a client
                // that holds its logits finds the lineage in the store.
                if let (true, Some(token), Some(store)) = (self.park, self.token, self.host.store())
                {
                    let mut lineage = ServerLineage { kk: kk.take(), yao: Some(yao) };
                    lineage.park();
                    store.park_lineage(token, lineage);
                }
                self.server.open_logits(ch, &y0)?;
                ch.flush()?;
                State::Done
            }
            State::Done | State::Failed(_) => unreachable!("step() returns before run_step"),
        };
        Ok(Some(next))
    }
}

/// The Offline→Online edge (or Setup→Online for a resumed or dealt
/// bundle): marks the phase and starts the online walk over `state`, with
/// the lineage's fragment half kept for the park.
fn enter_online(
    ch: &mut ReplayTransport,
    server: &SecureServer,
    state: ServerOffline,
    kk: Option<FragmentChooser>,
) -> Result<State, ProtocolError> {
    ch.mark_phase("online");
    let sg = server.model.secure_graph(state.bundle.batch)?;
    Ok(State::Online { walk: Box::new(ServerOnlineWalk::new(state, sg, server.exec)?), kk })
}

/// What a completed [`drive_frames`] run observed about the driver's
/// suspension behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DriveStats {
    /// How many times the driver parked on a missing frame and was fed
    /// one from the transport.
    pub suspensions: u32,
    /// [`ReplayCounters::attempts`] of the finished session.
    pub attempts: u64,
    /// [`ReplayCounters::frames_read`] of the finished session.
    pub frames_read: u64,
    /// [`ReplayCounters::frames_consumed`] of the finished session.
    pub frames_consumed: u64,
}

/// Runs a [`SessionDriver`] to completion over a blocking transport,
/// applying every externalized effect and feeding every parked recv. A
/// peer fault — negotiation mismatch, malformed frame, disconnect —
/// surfaces as a typed [`ProtocolError`] return; this loop never panics
/// on peer behavior. `observe` sees each effect before it is applied
/// (pass `|_| {}` when the caller does not care).
///
/// # Errors
///
/// Returns the driver's [`ProtocolError`] or any transport failure. The
/// driver's pending effects — including a negotiation reply produced
/// *after* the failure — are applied before the error is returned, so
/// the peer observes the symmetric error instead of hanging.
pub fn drive_frames<T: Transport, H: SessionHost>(
    ch: &mut T,
    driver: &mut SessionDriver<H>,
    mut observe: impl FnMut(&DriverEffect),
) -> Result<DriveStats, ProtocolError> {
    drive_frames_with(ch, driver, |_, effect| {
        observe(effect);
        Ok(())
    })
}

/// [`drive_frames`] whose observer may also act on the transport — arm a
/// phase budget, inject a fault — at the exact protocol point an effect
/// marks, and fail the session by returning an error.
pub(crate) fn drive_frames_with<T: Transport, H: SessionHost>(
    ch: &mut T,
    driver: &mut SessionDriver<H>,
    mut observe: impl FnMut(&mut T, &DriverEffect) -> Result<(), ProtocolError>,
) -> Result<DriveStats, ProtocolError> {
    let mut suspensions = 0;
    loop {
        let step = driver.step();
        for effect in driver.take_effects() {
            observe(ch, &effect)?;
            match effect {
                DriverEffect::Send(bytes) => ch.send_owned(bytes)?,
                DriverEffect::Flush => ch.flush()?,
                DriverEffect::Mark(label) => ch.mark_phase(&label),
                DriverEffect::Recv { .. } => {}
            }
        }
        match step {
            DriverStep::Done => {
                let ReplayCounters { attempts, frames_read, frames_consumed, .. } =
                    driver.replay_counters();
                return Ok(DriveStats { suspensions, attempts, frames_read, frames_consumed });
            }
            DriverStep::Failed(e) => return Err(e),
            DriverStep::NeedRecv => {
                suspensions += 1;
                driver.feed(ch.recv()?);
            }
        }
    }
}

/// Runs a [`SessionDriver`] to completion over a blocking transport: the
/// pre-event-loop server flow, now a thin adapter over [`drive_frames`].
/// Effects map one-to-one onto transport calls, so the wire transcript is
/// byte-identical to the historical straight-line implementation.
///
/// # Errors
///
/// Returns the driver's [`ProtocolError`] or any transport failure.
pub fn drive_blocking<T: Transport, H: SessionHost>(
    ch: &mut T,
    driver: &mut SessionDriver<H>,
) -> Result<(), ProtocolError> {
    drive_frames(ch, driver, |_| {}).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handshake::{handshake_client_ext, HelloRequest};
    use crate::inference::SecureClient;
    use abnn2_math::{FragmentScheme, Ring};
    use abnn2_net::{wire, Endpoint, NetworkModel};
    use abnn2_nn::quant::{QuantConfig, QuantizedNetwork};
    use abnn2_nn::Network;
    use rand::SeedableRng;

    fn tiny_model() -> QuantizedNetwork {
        let net = Network::new(&[10, 6, 4], 77);
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

    fn driver_for(server: &Arc<SecureServer>, seed: u64) -> SessionDriver<NullHost> {
        let ours = server.params_for(1);
        SessionDriver::new(Arc::clone(server), NullHost { ours }, StdRng::seed_from_u64(seed))
    }

    /// A typed read decodes the buffered frame where it lies and is the
    /// same event as a raw one: one frame read, one `Recv` effect, the
    /// error the provided `recv_frame` reports for the same bytes, and
    /// starvation past the end of the inbox.
    #[test]
    fn typed_reads_decode_in_place_and_count_like_raw_ones() {
        use crate::frames::MaskedClass;
        let class = vec![wire::tags::MASKED_CLASS, 7];
        let stray = vec![0xEE, 1, 2];
        let mut ch = ReplayTransport {
            inbox: [&class, &stray, &class].map(|f| Arc::new(f.clone())).to_vec(),
            ..ReplayTransport::default()
        };
        ch.begin_attempt();
        assert_eq!(ch.recv_frame(), Ok(MaskedClass(vec![7])));
        let provided = MaskedClass::decode_tagged(&stray).map_err(TransportError::from);
        assert!(provided.is_err());
        assert_eq!(ch.recv_frame::<MaskedClass>(), provided);
        assert_eq!(ch.recv(), Ok(class));
        assert_eq!(ch.recv_frame::<MaskedClass>(), Err(TransportError::WouldBlock));
        assert!(ch.starved);
        assert_eq!((ch.cursor, ch.counters.frames_read, ch.received), (3, 3, 2 + 3 + 2));
        let recv = |tag, len| DriverEffect::Recv { tag, len };
        let class_tag = wire::tags::MASKED_CLASS;
        assert_eq!(ch.effects, vec![recv(class_tag, 2), recv(0xEE, 3), recv(class_tag, 2)]);
        assert_eq!(ch.inbox.len(), 3, "frames stay buffered until the step completes");
    }

    /// A shared read hands out the buffered frame itself: an attempt that
    /// starves after it and the attempt that replays the step read the
    /// same allocation, and the frame leaves the inbox only with the step.
    #[test]
    fn a_replayed_attempt_rereads_the_same_allocation() {
        let tables = vec![wire::tags::GC_TABLES; 64];
        let mut ch =
            ReplayTransport { inbox: vec![Arc::new(tables.clone())], ..ReplayTransport::default() };
        ch.begin_attempt();
        let first = ch.recv_shared().expect("buffered");
        assert_eq!(ch.recv_shared(), Err(TransportError::WouldBlock));
        ch.effects.clear();
        ch.end_attempt(false);
        ch.inbox.push(Arc::new(vec![wire::tags::U64; 9]));
        ch.begin_attempt();
        let replayed = ch.recv_shared().expect("still buffered");
        assert!(Arc::ptr_eq(&first, &replayed), "the replay reads the starved attempt's buffer");
        assert_eq!(*replayed, tables);
        assert_eq!(ch.recv_shared().map(|f| f.len()), Ok(9));
        ch.end_attempt(true);
        assert!(ch.inbox.is_empty(), "the completed step consumed both frames");
        assert_eq!(ch.counters.frames_read, 3);
        let fresh = DriverEffect::Recv { tag: wire::tags::U64, len: 9 };
        assert_eq!(ch.effects, vec![fresh], "the re-read frame is not a fresh event");
    }

    /// A fresh driver with nothing fed parks immediately, emitting only
    /// the handshake phase mark, and re-stepping without new frames
    /// neither loops nor duplicates effects.
    #[test]
    fn empty_driver_parks_on_the_hello() {
        let server = Arc::new(SecureServer::for_model(tiny_model()));
        let mut driver = driver_for(&server, 1);
        assert_eq!(driver.step(), DriverStep::NeedRecv);
        assert_eq!(driver.take_effects(), vec![DriverEffect::Mark("handshake".into())]);
        assert_eq!(driver.phase(), "handshake");
        assert_eq!(driver.step(), DriverStep::NeedRecv);
        assert!(driver.take_effects().is_empty());
    }

    /// Frame-at-a-time event pump: every inbound frame is fed
    /// individually, so the driver suspends at each protocol recv and
    /// attempts many steps more than once — yet the session produces
    /// bit-exact logits and sends the hello reply exactly once.
    #[test]
    fn suspension_at_every_recv_is_bit_exact() {
        let q = tiny_model();
        let x: Vec<u64> = (0..10).map(|j| (j * 37 + 5) & 0xFFF).collect();
        let expected = q.forward_exact(&x);
        let server = Arc::new(SecureServer::for_model(q));
        let client = SecureClient::for_model(server.public_model());
        let (mut sch, mut cch) = Endpoint::pair(NetworkModel::instant());

        let (stats, hello_replies, y) = std::thread::scope(|scope| {
            let x2 = x.clone();
            let cli = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(11);
                let state = client.offline(&mut cch, 1, &mut rng).expect("offline");
                client
                    .online_raw(&mut cch, state, std::slice::from_ref(&x2), &mut rng)
                    .expect("online")
            });
            let mut driver = driver_for(&server, 10);
            let mut hello_replies = 0u32;
            let stats = drive_frames(&mut sch, &mut driver, |effect| {
                if let DriverEffect::Send(bytes) = effect {
                    if bytes.first() == Some(&wire::tags::HELLO) {
                        hello_replies += 1;
                    }
                }
            })
            .expect("server");
            (stats, hello_replies, cli.join().expect("client thread"))
        });

        assert_eq!(y.col(0), expected, "driver-served logits must equal forward_exact");
        assert_eq!(hello_replies, 1, "replay must suppress duplicate hello replies");
        // The session has real protocol depth: hello, base OTs, KK13
        // extensions, GC rounds, blinded input — each a separate park.
        assert!(stats.suspensions >= 8, "expected many suspension points, got {stats:?}");
        // Every frame was parked for and consumed once; what was read
        // twice is bounded per step, not by the length of a phase.
        assert_eq!(u64::from(stats.suspensions), stats.frames_consumed);
        assert!(stats.frames_read <= 3 * stats.frames_consumed, "{stats:?}");
        assert!(stats.attempts > stats.frames_consumed, "parks mean repeated attempts");
    }

    /// `drive_blocking` replaces the old straight-line server flow.
    #[test]
    fn drive_blocking_completes_a_session() {
        let q = tiny_model();
        let x: Vec<u64> = (0..10).map(|j| (j * 13 + 1) & 0xFFF).collect();
        let expected = q.forward_exact(&x);
        let server = Arc::new(SecureServer::for_model(q));
        let client = SecureClient::for_model(server.public_model());
        let (mut sch, mut cch) = Endpoint::pair(NetworkModel::instant());
        let y = std::thread::scope(|scope| {
            let x2 = x.clone();
            let cli = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(21);
                let state = client.offline(&mut cch, 1, &mut rng).expect("offline");
                client
                    .online_raw(&mut cch, state, std::slice::from_ref(&x2), &mut rng)
                    .expect("online")
            });
            let mut driver = driver_for(&server, 20);
            drive_blocking(&mut sch, &mut driver).expect("server");
            cli.join().expect("client thread")
        });
        assert_eq!(y.col(0), expected);
    }

    /// Two sessions over one model, one blocking and one parked at every
    /// frame: the first lowers each re-share op into the model's slot, the
    /// second (and the client, whose `PublicModel` came from the server's)
    /// finds it there, and both produce the oracle's logits.
    #[test]
    fn sessions_of_one_model_lower_each_op_once() {
        use crate::relu::ReluVariant::Oblivious;
        let q = tiny_model();
        let x: Vec<u64> = (0..10).map(|j| (j * 29 + 3) & 0xFFF).collect();
        let expected = q.forward_exact(&x);
        let server = Arc::new(SecureServer::for_model(q));
        let client = SecureClient::for_model(server.public_model());
        let server_sg = server.model.secure_graph(1).expect("batch 1");
        let client_sg = client.model.secure_graph(1).expect("batch 1");
        let reshares: Vec<usize> = (0..server_sg.graph().ops.len())
            .filter(|&i| server_sg.graph().ops[i].is_reshare())
            .collect();
        assert!(!reshares.is_empty());
        assert!(reshares.iter().all(|&i| server_sg.lowered(i, Oblivious).is_none()));

        let session = |blocking: bool, seed: u64| {
            let (mut sch, mut cch) = Endpoint::pair(NetworkModel::instant());
            std::thread::scope(|scope| {
                let cli = scope.spawn(|| {
                    let mut rng = StdRng::seed_from_u64(seed + 1);
                    let state = client.offline(&mut cch, 1, &mut rng).expect("offline");
                    client
                        .online_raw(&mut cch, state, std::slice::from_ref(&x), &mut rng)
                        .expect("online")
                });
                let mut driver = driver_for(&server, seed);
                if blocking {
                    drive_blocking(&mut sch, &mut driver).expect("server");
                } else {
                    drive_frames(&mut sch, &mut driver, |_| {}).expect("server");
                }
                cli.join().expect("client thread")
            })
        };

        assert_eq!(session(true, 40).col(0), expected);
        let first: Vec<*const crate::nonlinear::Lowering> = reshares
            .iter()
            .map(|&i| std::ptr::from_ref(server_sg.lowered(i, Oblivious).expect("lowered")))
            .collect();
        assert_eq!(session(false, 50).col(0), expected);
        for (&i, &built) in reshares.iter().zip(&first) {
            let now = server_sg.lowered(i, Oblivious).expect("still lowered");
            assert!(std::ptr::eq(now, built), "op {i} was lowered again");
            let clients = client_sg.lowered(i, Oblivious).expect("the client read the same slot");
            assert!(std::ptr::eq(clients, built), "op {i}: the client lowered its own copy");
        }
    }

    /// A mismatched client fails negotiation on both sides: the drive
    /// loop returns the typed error — it never panics on a peer fault —
    /// and still externalizes the hello reply after `Failed` so the peer
    /// observes the symmetric error instead of hanging.
    #[test]
    fn negotiation_failure_externalizes_the_reply() {
        let server = Arc::new(SecureServer::for_model(tiny_model()));
        let other = SecureServer::for_model(QuantizedNetwork::quantize(
            &Network::new(&[10, 8, 4], 78),
            QuantConfig {
                ring: Ring::new(32),
                frac_bits: 8,
                weight_frac_bits: 2,
                scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
            },
        ));
        let theirs = other.params_for(1);
        let (mut sch, mut cch) = Endpoint::pair(NetworkModel::instant());
        std::thread::scope(|scope| {
            let cli = scope.spawn(move || {
                handshake_client_ext(&mut cch, theirs, &[0u8; 16], HelloRequest::default())
            });
            let mut driver = driver_for(&server, 30);
            let mut sent_reply = false;
            let err = drive_frames(&mut sch, &mut driver, |effect| {
                if matches!(effect, DriverEffect::Send(_)) {
                    sent_reply = true;
                }
            })
            .expect_err("mismatched session must fail, not complete");
            assert!(matches!(err, ProtocolError::Negotiation { .. }), "server got {err}");
            assert!(sent_reply, "failed negotiation must still send the hello reply");
            assert_eq!(driver.phase(), "failed");
            let cli_err = cli.join().expect("client thread").expect_err("client must fail too");
            assert!(matches!(cli_err, ProtocolError::Negotiation { .. }), "client got {cli_err}");
        });
    }
}
