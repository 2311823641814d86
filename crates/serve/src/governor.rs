//! Per-session resource budgets and chaos-injection knobs.
//!
//! The [`Server`](crate::Server) event loop is cooperative: one slow,
//! stalled, or malicious peer must not be able to pin a worker slot or
//! grow an outbound queue without bound while warm siblings wait. The
//! governor gives every sweep a budget to enforce:
//!
//! * **idle parking** — a session parked in `NeedRecv` that has produced
//!   no inbound frame within [`idle_timeout`](GovernorConfig::idle_timeout)
//!   is checkpointed (when resumable) and evicted. This is independent of
//!   the protocol-level [`SessionDeadlines`](abnn2_core::SessionDeadlines):
//!   deadlines bound one *blocking* read, the governor bounds how long a
//!   *multiplexed* session may occupy a slot without progress.
//! * **outbound cap** — a peer that stops draining its socket leaves
//!   queued bytes in the worker's [`FrameBuffer`](abnn2_net::FrameBuffer).
//!   Past [`max_outbound_bytes`](GovernorConfig::max_outbound_bytes) the
//!   session is evicted instead of buffering the whole offline phase.
//! * **inbound quota** (always on) — once the handshake fixes the batch,
//!   the planner
//!   ([`SecureGraph::inbound_ceiling`](abnn2_core::SecureGraph::inbound_ceiling))
//!   knows an upper bound on what a well-formed client ever sends. A peer
//!   exceeding that ceiling (frames or bytes) is evicted; before the
//!   handshake [`PRE_HANDSHAKE_FRAMES`] / [`PRE_HANDSHAKE_BYTES`] apply.
//!
//! A panicking session is quarantined by its worker, and a worker whose
//! loop panics restarts it on its own thread (the `server` module docs).
//! The two `inject_*` knobs exercise those paths for chaos tests and the
//! `--governor-smoke` CI job; they default off.

use std::time::Duration;

/// Resource budgets enforced per sweep, plus chaos-injection knobs.
///
/// All limits are optional; `GovernorConfig::default()` enforces only the
/// outbound cap (256 MiB) — generous enough that no honest workload ever
/// hits it — beside the inbound quota, which is always on. Tests and
/// operators tighten from there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorConfig {
    /// Evict a `NeedRecv`-parked session that has received no inbound
    /// frame for this long. `None` disables idle eviction.
    pub idle_timeout: Option<Duration>,
    /// Evict a session whose outbound queue (bytes accepted by the frame
    /// buffer but not yet drained by the peer's socket) exceeds this.
    /// `None` disables the cap.
    pub max_outbound_bytes: Option<u64>,
    /// Chaos: panic inside the sweep of the Nth admitted session (0-based
    /// admission ordinal) once it reaches the online phase. Exercises the
    /// quarantine path; `None` in production.
    pub inject_panic_session: Option<u64>,
    /// Chaos: panic the given worker's loop once, while the accept queue
    /// is non-empty and before it claims a connection. Exercises the
    /// worker's restart path; `None` in production.
    pub inject_worker_panic: Option<usize>,
}

/// Inbound frames a session may receive before the handshake completes.
pub const PRE_HANDSHAKE_FRAMES: u64 = 8;
/// Inbound bytes a session may receive before the handshake completes.
pub const PRE_HANDSHAKE_BYTES: u64 = 16 * 1024;

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            idle_timeout: None,
            max_outbound_bytes: Some(256 * 1024 * 1024),
            inject_panic_session: None,
            inject_worker_panic: None,
        }
    }
}

impl GovernorConfig {
    /// Budgets for tests: tight idle/outbound limits so misbehaving peers
    /// are evicted within `idle`.
    #[must_use]
    pub fn strict(idle: Duration, max_outbound_bytes: u64) -> Self {
        GovernorConfig {
            idle_timeout: Some(idle),
            max_outbound_bytes: Some(max_outbound_bytes),
            ..GovernorConfig::default()
        }
    }
}
