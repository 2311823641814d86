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
//! # A step is a flight
//!
//! Each step — the hello, a flight of a base-OT batch, a unit of the walks
//! in [`crate::graph`] — emits its marks, takes the `k` frames it waits
//! for, computes and sends; its state declares `k`. A protocol function
//! that sends and then receives is a `start` half ending with the send and
//! a `finish` half taking the reply. [`step`](SessionDriver::step) runs a
//! step only once its frames are in the inbox, so no step runs twice and
//! each frame is read once. The transcript is the blocking path's
//! (`tests/graph_parity.rs`, `tests/driver_steps.rs`); [`drive_blocking`]
//! is that path as a thin adapter over the driver.

use crate::bundle::{ClientBundle, ServerBundle};
use crate::frames::Bundle;
use crate::graph::{ServerOfflineWalk, ServerOnlineWalk};
use crate::handshake::{handshake_server_ext, HelloReply, ResumeToken, SessionParams};
use crate::inference::{SecureServer, ServerOffline};
use crate::resilient::CheckpointStore;
use crate::session::ServerLineage;
use crate::ProtocolError;
use abnn2_gc::YaoEvaluator;
use abnn2_net::{CommSnapshot, Transport, TransportError};
use abnn2_ot::base::PendingSend;
use abnn2_ot::{FragmentChooser, OfflineMode};
use rand::rngs::StdRng;
use std::collections::VecDeque;
use std::sync::Arc;

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
/// The driver consults each lookup at most once per session, at the
/// hello and only for a parameter-matched peer, so a claim or take may
/// remove what it returns from a store.
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

/// A host that never resumes, deals or parks: the one
/// [`SecureServer::driver`] builds for [`SecureServer::run`] and for
/// callers that time the phases of a plain session apart. The server
/// announces fixed parameters regardless of the client's batch (a
/// mismatch is a negotiation failure, not something to adopt).
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

/// The driver's channel: the frames fed and not yet read, and the effects
/// not yet taken, which are its only account of the traffic.
#[derive(Debug, Default)]
struct Inbox {
    frames: VecDeque<Vec<u8>>,
    effects: Vec<DriverEffect>,
}

impl Transport for Inbox {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.send_owned(payload.to_vec())
    }

    fn send_owned(&mut self, payload: Vec<u8>) -> Result<(), TransportError> {
        self.effects.push(DriverEffect::Send(payload));
        Ok(())
    }

    /// The next frame; reading past the last is a step miscounting `k`.
    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        let frame = self
            .frames
            .pop_front()
            .ok_or(TransportError::Malformed("a step read past the frames it waits for"))?;
        let tag = frame.first().copied().unwrap_or(0);
        self.effects.push(DriverEffect::Recv { tag, len: frame.len() });
        Ok(frame)
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        self.effects.push(DriverEffect::Flush);
        Ok(())
    }

    fn snapshot(&self) -> CommSnapshot {
        CommSnapshot::default()
    }

    fn mark_phase(&mut self, label: &str) {
        self.effects.push(DriverEffect::Mark(label.to_string()));
    }
}

/// What the hello exchange settled, for the setup steps to act on.
#[derive(Default)]
struct Admitted {
    batch: usize,
    claimed: Option<ServerBundle>,
    pooled: Option<(ServerBundle, ClientBundle)>,
    /// The halves this session continues; setup fills in the rest.
    lineage: ServerLineage,
    /// The base-OT batch whose point `A` is out.
    transfer: Option<PendingSend>,
}

/// The machine's position in the protocol. Each live variant holds the
/// state its next step starts from.
enum State {
    /// The client's hello comes next.
    Handshake,
    /// The base-OT batches the session still needs, a flight at a time.
    Setup(Box<Admitted>),
    /// The evaluator waits beside the offline walk for the online phase,
    /// lending the walk its OT receiver for the matrix triples.
    Offline {
        walk: Box<ServerOfflineWalk>,
        yao: YaoEvaluator,
    },
    /// The fragment chooser (spent offline, or continued unused) waits
    /// beside the online walk to be parked.
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
    inbox: Inbox,
    state: State,
    token: Option<ResumeToken>,
    batch: Option<usize>,
    checkpoint: Option<ServerBundle>,
    /// What the hello reply promised: a resume, a park at the clean end.
    reply: HelloReply,
}

impl<H: SessionHost> std::fmt::Debug for SessionDriver<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionDriver")
            .field("phase", &self.phase())
            .field("inbox", &self.inbox.frames.len())
            .field("pending_effects", &self.inbox.effects.len())
            .finish()
    }
}

impl<H: SessionHost> SessionDriver<H> {
    /// A driver at the start of the handshake, its phase marked. `rng`
    /// feeds base-OT setup (the only server phase that consumes
    /// randomness).
    #[must_use]
    pub fn new(server: Arc<SecureServer>, host: H, rng: StdRng) -> Self {
        let mut inbox = Inbox::default();
        inbox.mark_phase("handshake");
        SessionDriver {
            server,
            host,
            rng,
            inbox,
            state: State::Handshake,
            token: None,
            batch: None,
            checkpoint: None,
            reply: HelloReply::default(),
        }
    }

    /// Buffers one complete inbound frame for the next [`step`](Self::step).
    pub fn feed(&mut self, frame: Vec<u8>) {
        self.inbox.frames.push_back(frame);
    }

    /// Drains the effects produced so far, in execution order. `Send` and
    /// `Flush` effects must be applied to the peer connection — including
    /// after [`DriverStep::Failed`], which may leave a negotiation reply
    /// pending.
    pub fn take_effects(&mut self) -> Vec<DriverEffect> {
        std::mem::take(&mut self.inbox.effects)
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
        self.reply.resume
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

    /// The top-level phase the machine is in: `"handshake"`, `"setup"`,
    /// `"offline"`, `"online"`, `"done"`, or `"failed"`. Event loops key
    /// phase deadline budgets off this.
    #[must_use]
    pub fn phase(&self) -> &'static str {
        match self.state {
            State::Handshake => "handshake",
            State::Setup(_) => "setup",
            State::Offline { .. } => "offline",
            State::Online { .. } => "online",
            State::Done => "done",
            State::Failed(_) => "failed",
        }
    }

    /// Advances the machine as far as the buffered inbox allows: each step
    /// runs once its frames are there, until one waits on a frame that has
    /// not arrived, fails, or the session finishes. Idempotent once
    /// `Done`/`Failed` is reached.
    pub fn step(&mut self) -> DriverStep {
        loop {
            // The frames the next step takes from the inbox.
            let needs = match &self.state {
                State::Handshake => 1,
                State::Setup(admitted) => usize::from(admitted.transfer.is_some()),
                State::Offline { walk, .. } => walk.needs(),
                State::Online { walk, .. } => walk.needs(),
                State::Done => return DriverStep::Done,
                State::Failed(e) => return DriverStep::Failed(*e),
            };
            let held = self.inbox.frames.len();
            if held < needs {
                return DriverStep::NeedRecv;
            }
            let state = std::mem::replace(&mut self.state, State::Done);
            self.state = self.run_step(state).unwrap_or_else(State::Failed);
            debug_assert!(
                matches!(self.state, State::Failed(_)) || held - self.inbox.frames.len() == needs,
                "a step takes exactly the frames it waits for"
            );
        }
    }

    /// Runs the step `state` starts from over the inbox, returning the
    /// state the next one starts from.
    fn run_step(&mut self, state: State) -> Result<State, ProtocolError> {
        let ch = &mut self.inbox;
        let rng = &mut self.rng;
        Ok(match state {
            State::Handshake => {
                let host = &self.host;
                let mut admitted = Admitted::default();
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
                self.reply = reply;
                ch.mark_phase("setup");
                State::Setup(Box::new(Admitted { batch, ..admitted }))
            }
            State::Setup(mut admitted) => {
                let lineage = &mut admitted.lineage;
                if let Some(transfer) = admitted.transfer.take() {
                    transfer.finish(ch)?;
                } else if let (Some(mode), None) = (self.reply.offline(), &lineage.kk) {
                    let (kk, transfer) = FragmentChooser::setup_start(ch, mode, rng)?;
                    (lineage.kk, admitted.transfer) = (Some(kk), Some(transfer));
                } else if lineage.yao.is_none() {
                    let (yao, transfer) = YaoEvaluator::setup_start(ch, rng)?;
                    (lineage.yao, admitted.transfer) = (Some(yao), Some(transfer));
                } else {
                    return self.admit(*admitted);
                }
                State::Setup(admitted)
            }
            State::Offline { mut walk, mut yao } => {
                walk.step(ch, &self.server.model, &mut yao, rng)?;
                if !walk.done() {
                    return Ok(State::Offline { walk, yao });
                }
                // The walk's bundle and the evaluator cross into the online
                // walk, the chooser waits beside it.
                let (bundle, kk) = walk.finish();
                self.enter_online(yao, bundle, Some(kk))?
            }
            State::Online { mut walk, kk } => {
                walk.step(ch, &self.server.model)?;
                if !walk.done() {
                    return Ok(State::Online { walk, kk });
                }
                let (yao, y0) = walk.finish();
                // Parked before the output shares are even queued: a client
                // that holds its logits finds the lineage in the store.
                if let (true, Some(token), Some(store)) =
                    (self.reply.park, self.token, self.host.store())
                {
                    let mut lineage = ServerLineage { kk, yao: Some(yao) };
                    lineage.park();
                    store.park_lineage(token, lineage);
                }
                self.server.open_logits(ch, &y0)?;
                ch.flush()?;
                State::Done
            }
            State::Done | State::Failed(_) => unreachable!("step() returns before run_step"),
        })
    }

    /// The end of setup: a resumed or dealt bundle goes straight online
    /// (any fragment chooser riding along unused), else the offline walk.
    fn admit(&mut self, admitted: Admitted) -> Result<State, ProtocolError> {
        let ch = &mut self.inbox;
        let Admitted { batch, claimed, pooled, lineage, .. } = admitted;
        let reply = self.reply;
        let ServerLineage { kk, yao } = lineage;
        let yao = yao.expect("the Yao half is continued or was just set up");
        let bundle = if reply.resume {
            let bundle = claimed.expect("accepted resume implies a claimed checkpoint");
            if bundle.batch != batch {
                return Err(ProtocolError::Malformed("resumed checkpoint batch mismatch"));
            }
            bundle
        } else if reply.bundle {
            let (sb, cb) = pooled.expect("accepted bundle implies a pooled pair");
            ch.mark_phase("bundle");
            ch.send_frame(&Bundle(cb.encode(self.server.model.config().ring)))?;
            ch.flush()?;
            sb
        } else {
            ch.mark_phase("offline");
            let sg = self.server.model.secure_graph(batch)?;
            let kk = kk.expect("the fragment half is continued or was just set up");
            let walk = ServerOfflineWalk::new(kk, sg, self.server.exec);
            return Ok(State::Offline { walk: Box::new(walk), yao });
        };
        self.enter_online(yao, bundle, kk)
    }

    /// The edge into the online phase: checkpoints `bundle`, marks the
    /// phase and starts the online walk, `kk` kept for the park.
    fn enter_online(
        &mut self,
        yao: YaoEvaluator,
        bundle: ServerBundle,
        kk: Option<FragmentChooser>,
    ) -> Result<State, ProtocolError> {
        self.checkpoint = Some(bundle.clone());
        self.inbox.mark_phase("online");
        let sg = self.server.model.secure_graph(bundle.batch)?;
        let state = ServerOffline::from_bundle(yao, bundle);
        let walk = ServerOnlineWalk::new(&mut self.inbox, state, sg, self.server.exec)?;
        Ok(State::Online { walk: Box::new(walk), kk })
    }
}

/// What a completed [`drive_frames`] run observed about the driver's
/// suspension behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DriveStats {
    /// How many times the driver parked on a missing frame and was fed
    /// one from the transport.
    pub suspensions: u32,
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
/// phase budget, inject a fault, snapshot the traffic at the `online` mark
/// — at the exact protocol point an effect marks, and fail the session by
/// returning an error.
///
/// # Errors
///
/// As [`drive_frames`], and whatever error `observe` returns.
pub fn drive_frames_with<T: Transport, H: SessionHost>(
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
            DriverStep::Done => return Ok(DriveStats { suspensions }),
            DriverStep::Failed(e) => return Err(e),
            DriverStep::NeedRecv => {
                suspensions += 1;
                driver.feed(ch.recv()?);
            }
        }
    }
}

/// Runs a [`SessionDriver`] to completion over a blocking transport: the
/// server flow of [`SecureServer::run`], a thin adapter over
/// [`drive_frames`]. Effects map one-to-one onto transport calls, so the
/// wire transcript is the event loop's.
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

    /// The inbox hands out each frame once, in order, moved out: a typed
    /// read is the same event as a raw one (one `Recv` effect, the error
    /// `recv_frame` reports for the same bytes), and a read past the last
    /// frame is an error, never a park.
    #[test]
    fn inbox_reads_move_each_frame_out() {
        use crate::frames::MaskedClass;
        use abnn2_net::Frame;
        let class = vec![wire::tags::MASKED_CLASS, 7];
        let stray = vec![0xEE, 1, 2];
        let mut ch = Inbox {
            frames: [&class, &stray, &class].map(|f| f.clone()).into(),
            ..Inbox::default()
        };
        assert_eq!(ch.recv_frame(), Ok(MaskedClass(vec![7])));
        let provided = MaskedClass::decode_tagged(&stray).map_err(TransportError::from);
        assert!(provided.is_err());
        assert_eq!(ch.recv_frame::<MaskedClass>(), provided);
        assert_eq!(ch.recv(), Ok(class));
        assert!(ch.frames.is_empty(), "every read moved its frame out");
        assert!(matches!(ch.recv(), Err(TransportError::Malformed(_))));
        let recv = |tag, len| DriverEffect::Recv { tag, len };
        let class_tag = wire::tags::MASKED_CLASS;
        assert_eq!(ch.effects, vec![recv(class_tag, 2), recv(0xEE, 3), recv(class_tag, 2)]);
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
    /// individually, so the driver parks once per frame — and the session
    /// produces bit-exact logits and sends the hello reply exactly once.
    #[test]
    fn suspension_at_every_recv_is_bit_exact() {
        let q = tiny_model();
        let x: Vec<u64> = (0..10).map(|j| (j * 37 + 5) & 0xFFF).collect();
        let expected = q.forward_exact(&x);
        let server = Arc::new(SecureServer::for_model(q));
        let client = SecureClient::for_model(server.public_model());
        let (mut sch, mut cch) = Endpoint::pair(NetworkModel::instant());

        let (stats, hello_replies, recvs, y) = std::thread::scope(|scope| {
            let x2 = x.clone();
            let cli = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(11);
                let state = client.offline(&mut cch, 1, &mut rng).expect("offline");
                client
                    .online_raw(&mut cch, state, std::slice::from_ref(&x2), &mut rng)
                    .expect("online")
            });
            let mut driver = driver_for(&server, 10);
            let (mut hello_replies, mut recvs) = (0u32, 0u32);
            let stats = drive_frames(&mut sch, &mut driver, |effect| match effect {
                DriverEffect::Send(bytes) if bytes.first() == Some(&wire::tags::HELLO) => {
                    hello_replies += 1;
                }
                DriverEffect::Recv { .. } => recvs += 1,
                _ => {}
            })
            .expect("server");
            (stats, hello_replies, recvs, cli.join().expect("client thread"))
        });

        assert_eq!(y.col(0), expected, "driver-served logits must equal forward_exact");
        assert_eq!(hello_replies, 1, "one hello reply");
        // The session has real protocol depth: hello, base OTs, KK13
        // extensions, GC rounds, blinded input — each a separate park.
        assert!(stats.suspensions >= 8, "expected many suspension points, got {stats:?}");
        // Every frame was parked for and read once.
        assert_eq!(stats.suspensions, recvs);
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
