//! Client driver for the serving frontend.
//!
//! [`ServeClient`] wraps a [`SecureClient`] with everything a caller
//! talking to a [`Server`](crate::Server) needs: TCP connection minting,
//! reconnect-and-resume under a [`RetryPolicy`], warm-bundle negotiation,
//! the lineage that spares every request after the first its base OTs,
//! and per-phase instrumentation. Each attempt is one
//! [`SecureClient::run_job`] — the same session flow every other client
//! entry point runs — over an instrumented TCP connection, whose phase
//! marks become the report's phases. The returned [`ServeReport`] carries the
//! merged phase stats across all attempts, so callers (and the acceptance
//! tests) can verify a warm request moved *zero* offline-phase bytes.

use abnn2_core::{
    ClientJob, HeldLineage, ProtocolError, PublicModel, ReluVariant, ResumeToken, SecureClient,
    SessionDeadlines,
};
use abnn2_math::Matrix;
use abnn2_net::{
    InstrumentHandle, InstrumentedTransport, PhaseStats, ResilientDriver, RetryPolicy,
    TcpTransport, Transport,
};
use rand::Rng;
use std::net::SocketAddr;
use std::sync::Mutex;

/// Outcome of one served request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// Connection attempts consumed (1 = no failure).
    pub attempts: u32,
    /// Whether any attempt resumed from a checkpoint.
    pub resumed: bool,
    /// Whether the final attempt ran warm (server-supplied bundle instead
    /// of an interactive offline phase).
    pub warm: bool,
    /// Whether the final attempt continued the lineage of this client's
    /// previous request (at least one half of it) instead of running base
    /// OTs; a fully continued session moves no `setup`-phase bytes.
    pub continued: bool,
    /// Per-phase traffic merged across all attempts, in first-seen order.
    pub phases: Vec<(String, PhaseStats)>,
}

impl ServeReport {
    /// Total traffic for the phase and its `"{name}:…"` sub-phases
    /// ([`PhaseStats::sum_named`]), zero if the phase never ran.
    #[must_use]
    pub fn phase(&self, name: &str) -> PhaseStats {
        PhaseStats::sum_named(&self.phases, name)
    }
}

/// A reconnecting, bundle-aware client for the serving frontend.
///
/// It keeps the OT-extension state its last successful request left (the
/// lineage, `abnn2_core::session`) and offers it to the next one, so base
/// OTs run on a client's first request only. [`run`](Self::run) takes the
/// lineage out for the length of the request: of two concurrent requests
/// one continues it and the other sets up afresh, and a request that fails
/// leaves nothing behind. A clone starts without one — extension state is
/// single-writer, and two holders would derive the same pads.
#[derive(Debug, Clone)]
pub struct ServeClient {
    client: SecureClient,
    policy: RetryPolicy,
    deadlines: SessionDeadlines,
    request_bundle: bool,
    lineage: LineageSlot,
}

/// Where a client keeps its lineage between requests. Cloning the slot
/// yields an empty one: the halves inside are not `Clone`, on purpose.
#[derive(Debug, Default)]
struct LineageSlot(Mutex<Option<HeldLineage>>);

impl Clone for LineageSlot {
    fn clone(&self) -> Self {
        LineageSlot::default()
    }
}

impl LineageSlot {
    fn swap(&self, held: Option<HeldLineage>) -> Option<HeldLineage> {
        std::mem::replace(&mut *self.0.lock().expect("the slot is only ever swapped"), held)
    }
}

impl ServeClient {
    /// Client for any served topology described by a [`PublicModel`],
    /// requesting warm bundles, with the default retry policy and LAN
    /// deadlines. A default client and a default server negotiate
    /// successfully out of the box: both start from
    /// [`ExecConfig::new`](abnn2_core::ExecConfig::new).
    #[must_use]
    pub fn for_model(model: impl Into<PublicModel>) -> Self {
        ServeClient {
            client: SecureClient::for_model(model),
            policy: RetryPolicy::default(),
            deadlines: SessionDeadlines::lan(),
            request_bundle: true,
            lineage: LineageSlot::default(),
        }
    }

    /// Selects the activation variant (must match the server's).
    #[must_use]
    pub fn with_variant(mut self, variant: ReluVariant) -> Self {
        self.client = self.client.with_variant(variant);
        self
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

    /// Whether to ask the server for a precomputed bundle (default true).
    /// With `false` every request pays the interactive offline phase.
    #[must_use]
    pub fn with_bundles(mut self, request: bool) -> Self {
        self.request_bundle = request;
        self
    }

    /// Whether to advertise silent-OT capability in the hello (default
    /// false). When the server grants it, the cold offline phase expands
    /// OT correlations locally from LPN instead of streaming IKNP columns;
    /// falls back to IKNP transparently against older servers.
    #[must_use]
    pub fn with_silent(mut self, silent: bool) -> Self {
        self.client = self.client.with_silent(silent);
        self
    }

    /// Runs one batch of predictions against the server at `addr`,
    /// reconnecting and resuming as needed. Returns the raw logits
    /// (`out_dim × batch`), bit-identical to
    /// `QuantizedNetwork::forward_exact`, plus a [`ServeReport`].
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Overloaded`] when the server refuses admission
    /// and the retry budget is exhausted. A busy rejection carries the
    /// server's `retry_after_ms` hint, which the retry loop honors —
    /// sleeping the hinted amount (or the policy's jittered backoff when
    /// the hint is zero) before re-dialing, each wait consuming one
    /// attempt of the retry policy — so turned-away clients back off
    /// instead of hot-looping against a full queue. Otherwise the first
    /// fatal error or the last transient one once the retry policy is
    /// exhausted.
    pub fn run<R: Rng + ?Sized>(
        &self,
        addr: SocketAddr,
        inputs_fp: &[Vec<u64>],
        rng: &mut R,
    ) -> Result<(Matrix, ServeReport), ProtocolError> {
        if inputs_fp.is_empty() {
            return Err(ProtocolError::Dimension("batch must be positive"));
        }
        let mut token: ResumeToken = [0; 16];
        rng.fill(&mut token);
        let mut job = ClientJob::new(token, self.request_bundle, self.deadlines)
            .with_lineage(self.lineage.swap(None));

        let mut attempts = 0u32;
        let mut handles: Vec<InstrumentHandle> = Vec::new();
        let result = ResilientDriver::new(self.policy).run(
            |_attempt| TcpTransport::connect(addr).map(InstrumentedTransport::new),
            |ch, attempt| {
                attempts = attempt + 1;
                handles.push(ch.handle());
                ch.set_read_timeout(self.deadlines.read_timeout)?;
                self.client.run_job(ch, inputs_fp, &mut job, rng)
            },
        );

        // What the job holds now is what is claimable now: the lineage a
        // successful attempt left, nothing after one that failed, the
        // offered one back if the server never read a hello.
        if let Some(left) = job.take_lineage() {
            self.lineage.swap(Some(left));
        }
        let phases = merge_handles(&handles);
        let logits = result?;
        let report = ServeReport {
            attempts,
            resumed: job.resumed(),
            warm: job.warm(),
            continued: job.continued(),
            phases,
        };
        Ok((logits, report))
    }
}

/// Folds per-attempt instrument handles into one phase list, first-seen
/// order preserved.
fn merge_handles(handles: &[InstrumentHandle]) -> Vec<(String, PhaseStats)> {
    let mut merged = Vec::new();
    for handle in handles {
        PhaseStats::merge_named(&mut merged, &handle.phases());
    }
    merged
}
