//! Per-session resource budgets and chaos-injection knobs.
//!
//! The [`Server`](crate::Server) event loop is cooperative: one slow,
//! stalled, or malicious peer must not be able to pin a worker slot or
//! grow an outbound queue without bound while warm siblings wait. A peer
//! that goes silent is ended by the server's
//! [`SessionDeadlines`](abnn2_core::SessionDeadlines): its read timeout
//! runs while a session is parked waiting on the peer. The governor
//! checks what the peer does send, or fails to drain, every sweep:
//!
//! * **outbound cap** — a peer that stops draining its socket leaves
//!   queued bytes in the worker's [`FrameBuffer`](abnn2_net::FrameBuffer).
//!   The server sends every offline column frame ahead of the client's
//!   replies, so an honest cold session's queue may hold a whole offline
//!   phase's columns at once (3.2 MB a fragment group on the Fig-4 model's
//!   first layer). Past
//!   [`max_outbound_bytes`](GovernorConfig::max_outbound_bytes) the
//!   session is evicted.
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

/// Resource budgets enforced per sweep, plus chaos-injection knobs.
///
/// `GovernorConfig::default()` sets the outbound cap to 256 MiB — generous
/// enough that no honest workload ever hits it — beside the inbound quota,
/// which is always on. Tests and operators tighten from there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorConfig {
    /// Evict a session whose outbound queue (bytes accepted by the frame
    /// buffer but not yet drained by the peer's socket) exceeds this.
    /// Set it above the offline phase's column bytes, which a cold session
    /// queues all at once. `None` disables the cap.
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
            max_outbound_bytes: Some(256 * 1024 * 1024),
            inject_panic_session: None,
            inject_worker_panic: None,
        }
    }
}
