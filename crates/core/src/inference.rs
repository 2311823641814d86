//! End-to-end secure inference (Fig 2 of the paper): the two parties and
//! the one session flow each of them runs over the [`crate::graph`]
//! planner/executor.
//!
//! The server holds a [`ServedModel`]; the client holds inputs and the
//! [`PublicModel`] (the layer graph — architecture plus fixed-point
//! hyper-parameters — never the weights). Every topology runs the same
//! pipeline:
//!
//! * **offline** — data-independent: the planner emits one dot-product
//!   triplet requirement `U + V = W·R` per linear op, generated from
//!   client-chosen randomness `R` via the §4.1 OT protocols;
//! * **online** — the client blinds its input with `R⁰`, each linear op
//!   costs one local matrix product plus the precomputed triplet, each
//!   re-sharing op runs a §4.2 garbled circuit whose fresh client share
//!   *is* the next linear op's `R`, and the graph's terminal `Output` op
//!   opens the final shares toward the client.
//!
//! The client's reconstructed outputs equal the model's `forward_exact`
//! bit for bit.
//!
//! A session is hello → setup (base OTs for whichever half of the lineage
//! is neither continued nor idle on this path, [`crate::session`]) →
//! {resume | dealt bundle | offline} → online → lineage kept. Each side of
//! that sequence is written once: the client's in
//! [`SecureClient::run_job`], the server's in [`SessionDriver`], which
//! [`SecureServer::run`], the resilient server and the serving frontend
//! step. A caller that times the two phases apart drives
//! [`SecureServer::driver`] and splits at its `online` mark.
//! [`SecureServer::online`] is the server's online phase alone, over
//! offline state the caller brings (a dealt bundle, another offline
//! protocol's). The plain, resilient and serving entry points differ only
//! in how they mint connections and in the [`ClientJob`] they carry across
//! them.

use crate::bundle::{ClientBundle, ServerBundle};
use crate::config::{ExecConfig, SessionDeadlines};
use crate::driver::{drive_blocking, NullHost, SessionDriver};
use crate::frames::{Bundle, OutputShares};
use crate::graph::{
    client_offline_with, client_online_to_logits, server_online_to_logits, CommCeiling,
    PublicModel, ServedModel,
};
use crate::handshake::{handshake_client_ext, HelloRequest, ResumeToken, SessionParams};
use crate::relu::ReluVariant;
use crate::session::ClientLineage;
use crate::ProtocolError;
use abnn2_gc::{YaoEvaluator, YaoGarbler};
use abnn2_math::Matrix;
use abnn2_net::Transport;
use abnn2_ot::FragmentSender;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// What crosses the server's offline→online edge, and all the online
/// phase takes: the connection's Yao evaluator plus the
/// connection-independent [`ServerBundle`] (one triplet share `U` per
/// linear op and one matrix triple per secret×secret matmul, in graph
/// order). The fragment-OT half of the session ends with the offline
/// phase. Triplets survive a connection loss; a lineage does not — so a
/// bundle checkpointed after a cut, manufactured ahead of time by a
/// precompute pool, or produced by another offline protocol altogether
/// (`abnn2-baselines`) pairs with any evaluator, fresh or continued.
#[derive(Debug)]
pub struct ServerOffline {
    pub(crate) yao: YaoEvaluator,
    pub(crate) bundle: ServerBundle,
}

impl ServerOffline {
    /// Pairs a Yao evaluator with an offline bundle.
    #[must_use]
    pub fn from_bundle(yao: YaoEvaluator, bundle: ServerBundle) -> Self {
        ServerOffline { yao, bundle }
    }

    /// Copies out the bundle (for checkpointing; the state itself is
    /// consumed by the online phase).
    #[must_use]
    pub fn to_bundle(&self) -> ServerBundle {
        self.bundle.clone()
    }
}

/// What crosses the client's offline→online edge: the connection's Yao
/// garbler plus the connection-independent [`ClientBundle`] (the masks `R`,
/// one triplet share `V` per linear op and one matrix triple per
/// secret×secret matmul, in graph order).
#[derive(Debug)]
pub struct ClientOffline {
    pub(crate) yao: YaoGarbler,
    pub(crate) bundle: ClientBundle,
}

impl ClientOffline {
    /// Pairs a Yao garbler with an offline bundle (the reconnect-and-resume
    /// path, a server-dealt bundle, or another offline protocol's output).
    #[must_use]
    pub fn from_bundle(yao: YaoGarbler, bundle: ClientBundle) -> Self {
        ClientOffline { yao, bundle }
    }

    /// Copies out the bundle.
    #[must_use]
    pub fn to_bundle(&self) -> ClientBundle {
        self.bundle.clone()
    }
}

/// The model-serving party, for any [`ServedModel`] topology. The model
/// sits behind an `Arc`, so cloning a server (as [`run`](Self::run) does
/// to hand the session driver its own handle) copies no weights.
#[derive(Debug, Clone)]
pub struct SecureServer {
    pub(crate) model: Arc<ServedModel>,
    pub(crate) exec: ExecConfig,
}

impl SecureServer {
    /// Serves a model with the default (fully oblivious) activation
    /// protocol.
    #[must_use]
    pub fn for_model(model: impl Into<ServedModel>) -> Self {
        SecureServer { model: Arc::new(model.into()), exec: ExecConfig::new() }
    }

    /// Replaces the whole execution configuration.
    #[must_use]
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Selects the activation variant (must match the client's).
    #[must_use]
    pub fn with_variant(mut self, variant: ReluVariant) -> Self {
        self.exec = self.exec.with_variant(variant);
        self
    }

    /// Enables multi-core triplet generation (the paper's future-work
    /// optimization; transcript-compatible with any client thread count).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.exec = self.exec.with_threads(threads);
        self
    }

    /// The served model (shared, so a precompute pool can deal bundles
    /// from the same weights the sessions use).
    #[must_use]
    pub fn model(&self) -> &Arc<ServedModel> {
        &self.model
    }

    /// The public description of the served model to hand to clients.
    #[must_use]
    pub fn public_model(&self) -> PublicModel {
        self.model.public()
    }

    /// The session parameters this server announces for a batch size.
    #[must_use]
    pub fn params_for(&self, batch: usize) -> SessionParams {
        SessionParams::for_public(&self.model.public, self.exec.variant, batch)
    }

    /// Per-session inbound traffic quota for a negotiated batch size —
    /// [`SecureGraph::inbound_ceiling`](crate::SecureGraph::inbound_ceiling)
    /// for this model's plan. Serving layers evict sessions that exceed it.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Dimension`] if `batch` is invalid for the model.
    pub fn inbound_ceiling(&self, batch: usize) -> Result<CommCeiling, ProtocolError> {
        Ok(self.model.secure_graph(batch)?.inbound_ceiling())
    }

    /// Online phase over offline state the caller brings — a dealt bundle,
    /// or another offline protocol's (the MiniONN and QUOTIENT baselines):
    /// processes one batch, opening the logit shares toward the client (the
    /// paper's Fig-2 flow), and flushes the last frame out.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on any subprotocol failure.
    pub fn online<T: Transport>(
        &self,
        ch: &mut T,
        state: ServerOffline,
    ) -> Result<(), ProtocolError> {
        let sg = self.model.secure_graph(state.bundle.batch)?;
        let (_, y0) = server_online_to_logits(ch, state, &self.model, &sg, self.exec)?;
        self.open_logits(ch, &y0)?;
        ch.flush()?;
        Ok(())
    }

    /// Opens the server's logit share `y0` toward the client: the last
    /// frame of the Fig-2 online phase.
    pub(crate) fn open_logits<T: Transport>(
        &self,
        ch: &mut T,
        y0: &Matrix,
    ) -> Result<(), ProtocolError> {
        let ring = self.model.config().ring;
        ch.send_frame(&OutputShares(ring.encode_slice(y0.as_slice())))?;
        Ok(())
    }

    /// Classification-only online phase (extension): instead of opening the
    /// logits, a masked-argmax circuit reveals *only the class index* to
    /// the client. Flushes the last frame out, like [`online`](Self::online).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on any subprotocol failure.
    pub fn online_classify<T: Transport>(
        &self,
        ch: &mut T,
        state: ServerOffline,
    ) -> Result<(), ProtocolError> {
        let ring = self.model.config().ring;
        let batch = state.bundle.batch;
        let sg = self.model.secure_graph(batch)?;
        let (mut yao, y0) = server_online_to_logits(ch, state, &self.model, &sg, self.exec)?;
        for k in 0..batch {
            crate::argmax::argmax_server(ch, &mut yao, &y0.col(k), ring)?;
        }
        ch.flush()?;
        Ok(())
    }

    /// A [`SessionDriver`] at the hello of one session for a batch of
    /// `batch` predictions: the whole server flow — hello → setup → offline
    /// → online — announcing [`params_for(batch)`](Self::params_for) to the
    /// client, whose different batch is a negotiation failure, not something
    /// to adopt. It never resumes, deals or parks. Drive it with
    /// [`drive_blocking`], or with
    /// [`drive_frames_with`](crate::driver::drive_frames_with) to act on its
    /// effects: a caller that times the two phases apart takes its split at
    /// the `online` [`Mark`](crate::DriverEffect::Mark).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Dimension`] if `batch` is invalid for the model.
    pub fn driver<R: Rng + ?Sized>(
        &self,
        batch: usize,
        rng: &mut R,
    ) -> Result<SessionDriver<NullHost>, ProtocolError> {
        self.model.secure_graph(batch)?;
        Ok(SessionDriver::new(
            Arc::new(self.clone()),
            NullHost { ours: self.params_for(batch) },
            StdRng::seed_from_u64(rng.next_u64()),
        ))
    }

    /// One whole session for a batch of `batch` predictions: the
    /// [`driver`](Self::driver) run to its end over a blocking transport
    /// (the wire transcript is pinned by `tests/graph_parity.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on any subprotocol failure.
    pub fn run<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        batch: usize,
        rng: &mut R,
    ) -> Result<(), ProtocolError> {
        drive_blocking(ch, &mut self.driver(batch, rng)?)
    }
}

/// A client's lineage together with the token of the session that left it:
/// what the server parked its half under.
pub type HeldLineage = (ResumeToken, ClientLineage);

/// What one logical prediction job carries across the connections it is
/// attempted over: the resume token it presents, what it asks the server
/// for, the offline state a reconnect resumes from, and the lineage it
/// continues and leaves. A plain single-connection run uses
/// [`ClientJob::default`].
#[derive(Debug, Default)]
pub struct ClientJob {
    token: ResumeToken,
    request_bundle: bool,
    deadlines: SessionDeadlines,
    resumed: bool,
    warm: bool,
    continued: bool,
    /// Offline state of the latest attempt that completed its offline
    /// half; triplets are connection-independent, so a reconnect resumes
    /// from here when the server still holds the matching half.
    checkpoint: Option<ClientBundle>,
    /// Before an attempt: the lineage it offers, which the attempt takes —
    /// so an attempt that fails forfeits it and the next one offers
    /// nothing. After a successful attempt: the lineage that one left.
    lineage: Option<HeldLineage>,
}

impl ClientJob {
    /// A job presenting `token` in every hello, asking for a server-dealt
    /// offline bundle (while it holds no checkpoint) iff `request_bundle`,
    /// with `deadlines`' budgets armed around the offline and online
    /// halves of each attempt.
    #[must_use]
    pub fn new(token: ResumeToken, request_bundle: bool, deadlines: SessionDeadlines) -> Self {
        ClientJob { token, request_bundle, deadlines, ..ClientJob::default() }
    }

    /// Whether any attempt resumed from the job's checkpoint.
    #[must_use]
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// Whether the latest attempt installed a server-dealt bundle instead
    /// of running the interactive offline phase.
    #[must_use]
    pub fn warm(&self) -> bool {
        self.warm
    }

    /// Whether the latest attempt continued at least one half of a lineage
    /// instead of running its base OTs.
    #[must_use]
    pub fn continued(&self) -> bool {
        self.continued
    }

    /// Has the job's first attempt offer `lineage`, the one an earlier job
    /// [left](Self::take_lineage).
    #[must_use]
    pub fn with_lineage(mut self, lineage: Option<HeldLineage>) -> Self {
        self.lineage = lineage;
        self
    }

    /// The lineage the job's successful attempt left, for the next job;
    /// `None` after a failure, or when the server parks none. Also `Some`
    /// for an offered lineage no attempt got to present (every dial
    /// failed, or the server refused admission): the server never saw it,
    /// so it is as claimable as before.
    pub fn take_lineage(&mut self) -> Option<HeldLineage> {
        self.lineage.take()
    }
}

/// What [`SecureClient::establish`] hands the online phase, and what of
/// the lineage waits beside it for the session's end.
struct Established {
    state: ClientOffline,
    /// The fragment half: spent by the offline phase, or continued past a
    /// session that had no use for it.
    kk: Option<FragmentSender>,
    /// The server parks its halves at the clean end, so ours are worth
    /// keeping.
    park: bool,
}

/// The data-owning party, for any [`PublicModel`] topology.
#[derive(Debug, Clone)]
pub struct SecureClient {
    pub(crate) model: PublicModel,
    pub(crate) exec: ExecConfig,
    pub(crate) silent: bool,
}

impl SecureClient {
    /// Creates a client for a served model.
    #[must_use]
    pub fn for_model(model: impl Into<PublicModel>) -> Self {
        SecureClient { model: model.into(), exec: ExecConfig::new(), silent: false }
    }

    /// Opts into the silent (LPN) OT extension for the offline phase. The
    /// session actually uses it only when the server is silent-capable
    /// too; otherwise it falls back to the portable IKNP/KK13 path. Off by
    /// default so existing transcripts stay byte-identical.
    #[must_use]
    pub fn with_silent(mut self, silent: bool) -> Self {
        self.silent = silent;
        self
    }

    /// Replaces the whole execution configuration.
    #[must_use]
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Selects the activation variant (must match the server's).
    #[must_use]
    pub fn with_variant(mut self, variant: ReluVariant) -> Self {
        self.exec = self.exec.with_variant(variant);
        self
    }

    /// Multi-core triplet generation.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.exec = self.exec.with_threads(threads);
        self
    }

    /// The public model description this client was built for.
    #[must_use]
    pub fn public_model(&self) -> &PublicModel {
        &self.model
    }

    /// The first half of a session: hello, setup, and then whichever
    /// source of offline state the server's reply selects — the job's
    /// checkpoint (resume), a server-dealt bundle, or the interactive
    /// offline phase. Setup runs base OTs only for a lineage half the reply
    /// did not continue and the selected path uses. Marks the
    /// `handshake`/`setup`/`bundle`/`offline` instrumentation phases and
    /// arms the offline budget.
    fn establish<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        batch: usize,
        job: &mut ClientJob,
        rng: &mut R,
    ) -> Result<Established, ProtocolError> {
        let sg = self.model.secure_graph(batch)?;
        let ours = SessionParams::for_graph(sg.graph(), self.exec.variant, batch);

        ch.mark_phase("handshake");
        // Taken, not borrowed: from the moment the hello leaves, the
        // server may have claimed its half, and only a session that ends
        // cleanly puts a lineage back.
        let (lineage_token, mut lineage) = job.lineage.take().unwrap_or_default();
        let request = HelloRequest {
            resume: job.checkpoint.is_some(),
            bundle: job.request_bundle && job.checkpoint.is_none(),
            silent: self.silent,
            lineage: lineage_token,
            held: lineage.halves(),
        };
        let reply = match handshake_client_ext(ch, ours, &job.token, request) {
            Ok(reply) => reply,
            Err(e) => {
                // A busy server answers without reading the hello.
                if matches!(e, ProtocolError::Overloaded { .. }) && request.held.any() {
                    job.lineage = Some((lineage_token, lineage));
                }
                return Err(e);
            }
        };
        lineage.retain(reply.continued);
        job.continued = reply.continued.any();

        job.deadlines.arm(ch, "setup")?;
        ch.mark_phase("setup");
        lineage.complete(ch, reply.offline(), rng)?;
        let ClientLineage { mut kk, yao } = lineage;
        let mut yao = yao.expect("complete() leaves a Yao half");

        let bundle = if reply.resume {
            job.resumed = true;
            job.checkpoint.clone().expect("resume is only requested with a checkpoint")
        } else {
            job.warm = reply.bundle;
            // The server holds neither our checkpoint nor (on the cold
            // path) a pooled bundle: whatever we held is useless to it.
            job.checkpoint = None;
            let bundle = if reply.bundle {
                ch.mark_phase("bundle");
                let Bundle(bytes) = ch.recv_frame()?;
                ClientBundle::decode(&bytes, &sg)?
            } else {
                ch.mark_phase("offline");
                let kk =
                    kk.as_mut().expect("complete() leaves the offline phase its fragment half");
                client_offline_with(ch, kk, &mut yao, &sg, self.exec, rng)?
            };
            job.checkpoint = Some(bundle.clone());
            bundle
        };
        Ok(Established { state: ClientOffline::from_bundle(yao, bundle), kk, park: reply.park })
    }

    /// One attempt at `job` over one connection — the client side of the
    /// whole session flow: hello → setup → {resume | bundle | offline}
    /// (the half [`offline`](Self::offline) runs), then the online phase
    /// under its own budget. Returns the raw logits (`out_dim × batch` ring elements at
    /// `f + f_w` fractional bits). On failure the job keeps whatever
    /// checkpoint the attempt reached, so the caller may retry it over a
    /// fresh connection, and loses the lineage it offered; on success it
    /// holds the lineage this session left, if the server parks them.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on any subprotocol failure or if the
    /// inputs do not match the model.
    pub fn run_job<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        inputs_fp: &[Vec<u64>],
        job: &mut ClientJob,
        rng: &mut R,
    ) -> Result<Matrix, ProtocolError> {
        // Reject inputs the model cannot take before any traffic flows.
        self.check_inputs(inputs_fp, inputs_fp.len())?;
        let Established { state, kk, park } = self.establish(ch, inputs_fp.len(), job, rng)?;
        ch.mark_phase("online");
        job.deadlines.arm(ch, "online")?;
        let (yao, y) = self.online_open(ch, state, inputs_fp, rng)?;
        job.deadlines.arm(ch, "done")?;
        if park {
            let mut lineage = ClientLineage { kk, yao: Some(yao) };
            lineage.park();
            job.lineage = Some((job.token, lineage));
        }
        Ok(y)
    }

    /// Offline phase: handshake, session setup, and per-op triplet
    /// generation — the first half of [`run_job`](Self::run_job) for a
    /// plain job. The handshake pins down protocol version, ring,
    /// fixed-point and fragmentation parameters, activation variant, batch
    /// size and model graph *before* any base OT flows, so a misconfigured
    /// pairing fails with [`ProtocolError::Negotiation`] at connect time.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on any subprotocol failure.
    pub fn offline<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        batch: usize,
        rng: &mut R,
    ) -> Result<ClientOffline, ProtocolError> {
        Ok(self.establish(ch, batch, &mut ClientJob::default(), rng)?.state)
    }

    /// Triplet generation over a lineage that holds both halves, with no
    /// hello before it: the client half of a hand-built session whose
    /// server runs [`server_offline_with`](crate::graph::server_offline_with)
    /// over the same lineage pair.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Dimension`] for a lineage without both halves;
    /// [`ProtocolError`] on any subprotocol failure.
    pub fn offline_with<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        lineage: ClientLineage,
        batch: usize,
        rng: &mut R,
    ) -> Result<ClientOffline, ProtocolError> {
        let sg = self.model.secure_graph(batch)?;
        let (Some(mut kk), Some(mut yao)) = (lineage.kk, lineage.yao) else {
            return Err(ProtocolError::Dimension("the offline phase needs both lineage halves"));
        };
        let bundle = client_offline_with(ch, &mut kk, &mut yao, &sg, self.exec, rng)?;
        Ok(ClientOffline::from_bundle(yao, bundle))
    }

    fn check_inputs(&self, inputs_fp: &[Vec<u64>], batch: usize) -> Result<(), ProtocolError> {
        if inputs_fp.len() != batch {
            return Err(ProtocolError::Dimension("input count must equal batch"));
        }
        if inputs_fp.iter().any(|x| x.len() != self.model.graph.input_len()) {
            return Err(ProtocolError::Dimension("input dimension mismatch"));
        }
        Ok(())
    }

    /// Runs the graph, returning the garbler and the client's share of the
    /// final-layer outputs.
    fn online_to_logits<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        state: ClientOffline,
        inputs_fp: &[Vec<u64>],
        rng: &mut R,
    ) -> Result<(YaoGarbler, Matrix), ProtocolError> {
        let batch = state.bundle.batch;
        let sg = self.model.secure_graph(batch)?;
        let ring = self.model.config().ring;
        let n0 = sg.graph().input_len();
        self.check_inputs(inputs_fp, batch)?;

        // x as a n0×batch matrix, one column per sample.
        let mut x = Matrix::zeros(n0, batch);
        for (k, sample) in inputs_fp.iter().enumerate() {
            for (j, &v) in sample.iter().enumerate() {
                x.set(j, k, ring.reduce(v));
            }
        }
        client_online_to_logits(ch, state, &sg, self.exec, &x, rng)
    }

    /// Online phase over ring-encoded inputs: returns the raw output shares
    /// reconstructed into ring elements (`out_dim × batch`, at
    /// `f + f_w` fractional bits).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on failure or if inputs mismatch the batch.
    pub fn online_raw<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        state: ClientOffline,
        inputs_fp: &[Vec<u64>],
        rng: &mut R,
    ) -> Result<Matrix, ProtocolError> {
        Ok(self.online_open(ch, state, inputs_fp, rng)?.1)
    }

    /// [`online_raw`](Self::online_raw), also returning the garbler the
    /// phase advanced.
    fn online_open<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        state: ClientOffline,
        inputs_fp: &[Vec<u64>],
        rng: &mut R,
    ) -> Result<(YaoGarbler, Matrix), ProtocolError> {
        let ring = self.model.config().ring;
        let batch = state.bundle.batch;
        let m = self.model.graph.output_len();
        let (yao, y1) = self.online_to_logits(ch, state, inputs_fp, rng)?;
        let OutputShares(y0_bytes) = ch.recv_frame()?;
        if y0_bytes.len() != m * batch * ring.byte_len() {
            return Err(ProtocolError::Malformed("output share length"));
        }
        let y0 = Matrix::new(m, batch, ring.decode_slice(&y0_bytes));
        Ok((yao, y0.add(&y1, &ring)))
    }

    /// Classification-only online phase (extension): returns just the
    /// predicted class per sample; neither party sees a logit.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on failure or if inputs mismatch the batch.
    pub fn online_classify<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        state: ClientOffline,
        inputs_fp: &[Vec<u64>],
        rng: &mut R,
    ) -> Result<Vec<usize>, ProtocolError> {
        let ring = self.model.config().ring;
        let batch = state.bundle.batch;
        let (mut yao, y1) = self.online_to_logits(ch, state, inputs_fp, rng)?;
        (0..batch)
            .map(|k| crate::argmax::argmax_client(ch, &mut yao, &y1.col(k), ring, rng))
            .collect()
    }

    /// Online phase over float inputs: returns per-sample logits.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on failure or mismatched inputs.
    pub fn online<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        state: ClientOffline,
        inputs: &[Vec<f64>],
        rng: &mut R,
    ) -> Result<Vec<Vec<f64>>, ProtocolError> {
        let y = self.online_raw(ch, state, &self.encode_inputs(inputs), rng)?;
        Ok(self.decode_logits(&y))
    }

    /// One whole session over float inputs on one connection:
    /// [`run_job`](Self::run_job) for a plain job.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on any subprotocol failure.
    pub fn run<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        inputs: &[Vec<f64>],
        rng: &mut R,
    ) -> Result<Vec<Vec<f64>>, ProtocolError> {
        let inputs_fp = self.encode_inputs(inputs);
        let y = self.run_job(ch, &inputs_fp, &mut ClientJob::default(), rng)?;
        Ok(self.decode_logits(&y))
    }

    fn encode_inputs(&self, inputs: &[Vec<f64>]) -> Vec<Vec<u64>> {
        let codec = self.model.config().activation_codec();
        inputs.iter().map(|x| codec.encode_vec(x)).collect()
    }

    fn decode_logits(&self, y: &Matrix) -> Vec<Vec<f64>> {
        let codec = self.model.config().output_codec();
        (0..y.cols()).map(|k| codec.decode_vec(&y.col(k))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::server_offline_with;
    use crate::session::ServerLineage;
    use abnn2_math::{FragmentScheme, Ring};
    use abnn2_net::{run_pair, Endpoint, NetworkModel};
    use abnn2_nn::conv::{ConvShape, QuantizedCnn, QuantizedConv};
    use abnn2_nn::quant::{QuantConfig, QuantizedDense, QuantizedNetwork};
    use abnn2_nn::{Network, SyntheticMnist};

    fn tiny_quantized(seed: u64, scheme: FragmentScheme, fw: u32) -> QuantizedNetwork {
        let data = SyntheticMnist::generate(120, 0, seed);
        let mut net = Network::new(&[784, 12, 8, 10], seed);
        net.train_epoch(&data.train, 0.05);
        let config =
            QuantConfig { ring: Ring::new(32), frac_bits: 8, weight_frac_bits: fw, scheme };
        QuantizedNetwork::quantize(&net, config)
    }

    fn secure_vs_plaintext(q: QuantizedNetwork, batch: usize, variant: ReluVariant, seed: u64) {
        let data = SyntheticMnist::generate(batch, 0, seed + 9);
        let inputs: Vec<Vec<f64>> =
            data.train.iter().take(batch).map(|s| s.pixels.clone()).collect();
        let codec = q.config.activation_codec();
        let inputs_fp: Vec<Vec<u64>> = inputs.iter().map(|x| codec.encode_vec(x)).collect();
        let expected: Vec<Vec<u64>> = inputs_fp.iter().map(|x| q.forward_exact(x)).collect();

        let server = SecureServer::for_model(q.clone()).with_variant(variant);
        let client = SecureClient::for_model(server.public_model()).with_variant(variant);
        let inputs_fp2 = inputs_fp.clone();
        let (srv, y, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
                server.run(ch, batch, &mut rng)
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 2);
                let state = client.offline(ch, batch, &mut rng).expect("offline");
                client.online_raw(ch, state, &inputs_fp2, &mut rng).expect("online")
            },
        );
        srv.expect("server");
        assert_eq!(expected.len(), batch);
        for (k, want) in expected.iter().enumerate() {
            assert_eq!(&y.col(k), want, "sample {k} must match forward_exact");
        }
    }

    #[test]
    fn secure_inference_matches_plaintext_8bit_single() {
        let q = tiny_quantized(50, FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]), 4);
        secure_vs_plaintext(q, 1, ReluVariant::Oblivious, 60);
    }

    #[test]
    fn secure_inference_matches_plaintext_8bit_batch() {
        let q = tiny_quantized(51, FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]), 4);
        secure_vs_plaintext(q, 3, ReluVariant::Oblivious, 61);
    }

    #[test]
    fn secure_inference_matches_plaintext_ternary() {
        let q = tiny_quantized(52, FragmentScheme::ternary(), 0);
        secure_vs_plaintext(q, 2, ReluVariant::Oblivious, 62);
    }

    #[test]
    fn secure_inference_optimized_relu() {
        let q = tiny_quantized(53, FragmentScheme::signed_bit_fields(&[3, 3, 2]), 4);
        secure_vs_plaintext(q, 2, ReluVariant::Optimized, 63);
    }

    #[test]
    fn float_logits_classify_like_plaintext() {
        let q = tiny_quantized(54, FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]), 4);
        let data = SyntheticMnist::generate(2, 0, 70);
        let inputs: Vec<Vec<f64>> = data.train.iter().map(|s| s.pixels.clone()).collect();
        let server = SecureServer::for_model(q.clone());
        let client = SecureClient::for_model(server.public_model());
        let inputs2 = inputs.clone();
        let (_, logits, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(71);
                server.run(ch, 2, &mut rng).expect("server");
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(72);
                client.run(ch, &inputs2, &mut rng).expect("client")
            },
        );
        for (k, input) in inputs.iter().enumerate() {
            let plain = q.forward(input);
            assert_eq!(abnn2_nn::model::argmax(&logits[k]), abnn2_nn::model::argmax(&plain));
        }
    }

    #[test]
    fn classify_reveals_only_the_class() {
        let q = tiny_quantized(56, FragmentScheme::signed_bit_fields(&[2, 2]), 2);
        let batch = 2;
        let data = SyntheticMnist::generate(batch, 0, 57);
        let inputs: Vec<Vec<f64>> = data.train.iter().map(|s| s.pixels.clone()).collect();
        let codec = q.config.activation_codec();
        let inputs_fp: Vec<Vec<u64>> = inputs.iter().map(|x| codec.encode_vec(x)).collect();
        let server = SecureServer::for_model(q.clone());
        let client = SecureClient::for_model(server.public_model());
        let inputs_fp2 = inputs_fp.clone();
        let (srv, classes, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(58);
                let ServerLineage { kk, yao } = ServerLineage::setup(ch, &mut rng)?;
                let (kk, mut yao) = (kk.expect("fragment half"), yao.expect("Yao half"));
                let (model, exec) = (&server.model, server.exec);
                let sg = model.secure_graph(batch)?;
                let (bundle, _) =
                    server_offline_with(ch, kk, &mut yao, model, &sg, exec, &mut rng)?;
                server.online_classify(ch, ServerOffline::from_bundle(yao, bundle))
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(59);
                let lineage = ClientLineage::setup(ch, &mut rng).expect("setup");
                let state = client.offline_with(ch, lineage, batch, &mut rng).expect("offline");
                client.online_classify(ch, state, &inputs_fp2, &mut rng).expect("online")
            },
        );
        srv.expect("server");
        for (k, input) in inputs.iter().enumerate() {
            assert_eq!(classes[k], q.predict(input), "sample {k}");
        }
    }

    #[test]
    fn zero_batch_rejected() {
        let q = tiny_quantized(55, FragmentScheme::binary(), 0);
        let server = SecureServer::for_model(q);
        let (mut a, _b) = Endpoint::pair(NetworkModel::instant());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert_eq!(
            server.run(&mut a, 0, &mut rng).err(),
            Some(ProtocolError::Dimension("batch must be positive"))
        );
        assert_eq!(a.snapshot().bytes_sent, 0, "no traffic before the check");
    }

    fn small_cnn(seed: u64, scheme: FragmentScheme) -> QuantizedCnn {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (lo, hi) = scheme.weight_range();
        let in_shape = ConvShape { channels: 1, height: 8, width: 8 };
        let conv = QuantizedConv {
            out_channels: 2,
            in_shape,
            kh: 3,
            kw: 3,
            stride: 1,
            weights: (0..2 * 9).map(|_| rng.gen_range(lo..=hi)).collect(),
            bias: vec![5, 3],
        };
        // conv out 2×6×6 → pool 2 → 2×3×3 = 18 → dense 18→6→4.
        let mk_dense =
            |out_dim: usize, in_dim: usize, rng: &mut rand::rngs::StdRng| QuantizedDense {
                out_dim,
                in_dim,
                weights: (0..out_dim * in_dim).map(|_| rng.gen_range(lo..=hi)).collect(),
                bias: (0..out_dim as u64).collect(),
            };
        let d1 = mk_dense(6, 18, &mut rng);
        let d2 = mk_dense(4, 6, &mut rng);
        let config = QuantConfig {
            ring: Ring::new(32),
            frac_bits: 6,
            weight_frac_bits: if scheme.eta() <= 2 { 0 } else { 3 },
            scheme,
        };
        QuantizedCnn { config, conv, pool_window: 2, dense: vec![d1, d2] }
    }

    fn check_cnn(scheme: FragmentScheme, seed: u64) {
        let cnn = small_cnn(seed, scheme);
        let ring = cnn.config.ring;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
        // A mildly-scaled fixed-point image.
        let image: Vec<u64> = (0..cnn.conv.in_shape.len())
            .map(|_| ring.reduce(rng.gen_range(0..1u64 << cnn.config.frac_bits)))
            .collect();
        let expect = cnn.forward_exact(&image);

        let server = SecureServer::for_model(cnn.clone());
        let client = SecureClient::for_model(server.public_model());
        let image2 = image.clone();
        let (srv, got, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 2);
                server.run(ch, 1, &mut rng)
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 3);
                client.run_job(ch, &[image2], &mut ClientJob::default(), &mut rng).expect("client")
            },
        );
        srv.expect("server");
        assert_eq!(got.col(0), expect, "secure CNN must equal forward_exact");
    }

    #[test]
    fn secure_cnn_matches_plaintext_8bit() {
        check_cnn(FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]), 200);
    }

    #[test]
    fn secure_cnn_matches_plaintext_ternary() {
        check_cnn(FragmentScheme::ternary(), 210);
    }

    #[test]
    fn wrong_image_length_rejected_before_any_io() {
        let cnn = small_cnn(240, FragmentScheme::ternary());
        let client = SecureClient::for_model(&cnn);
        let (mut a, _b) = abnn2_net::Endpoint::pair(NetworkModel::instant());
        let mut rng = rand::rngs::StdRng::seed_from_u64(241);
        assert_eq!(
            client.run_job(&mut a, &[vec![0u64; 3]], &mut ClientJob::default(), &mut rng).err(),
            Some(ProtocolError::Dimension("input dimension mismatch"))
        );
        assert_eq!(a.snapshot().bytes_sent, 0, "no traffic before the check");
    }
}
