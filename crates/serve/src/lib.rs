//! `abnn2-serve`: a concurrent multi-client secure-inference service.
//!
//! The protocol crates answer "how do two parties run one prediction";
//! this crate answers "how does one model holder serve *many* clients at
//! once without paying the offline phase on the critical path". Four
//! pieces:
//!
//! * [`Server`] — a TCP frontend with a bounded accept queue and a fixed
//!   set of **event-loop workers**. Each worker multiplexes up to
//!   `sessions_per_worker` live sessions, each a suspendable
//!   [`SessionDriver`](abnn2_core::driver::SessionDriver) state machine
//!   (handshake → setup → offline-or-bundle → online; setup runs base
//!   OTs on a client's first session only, later ones continue the
//!   lineage the one before parked) fed by a
//!   non-blocking [`FrameBuffer`](abnn2_net::FrameBuffer), so peak thread
//!   count scales with workers, not connected clients; a worker whose
//!   sessions are all waiting sleeps in `poll(2)`
//!   ([`abnn2_net::ready`]) until a socket or the acceptor wakes it. When the queue is
//!   full or the server is draining, new connections are rejected *in
//!   protocol* (a busy hello frame) so clients see a typed
//!   [`ProtocolError::Overloaded`], never a hang. Resume checkpoints and
//!   parked lineages live in one
//!   [`CheckpointStore`](abnn2_core::CheckpointStore) reachable from any
//!   worker, LRU-bounded by `ServeConfig::checkpoint_capacity` entries and
//!   a fixed byte budget.
//! * [`PrecomputePool`] — a background producer thread that keeps a
//!   bounded buffer of ready offline-triplet bundle pairs per
//!   [`BundleKey`] (model digest, scheme digest, batch). The server runs
//!   one pool, `pool_depth × workers` pairs deep, for all its workers (so
//!   W workers and a pool are W + 2 threads with the acceptor); a worker
//!   that finds the buffer empty deals the pair itself. A client that
//!   asks for a bundle in its hello skips the interactive offline phase
//!   entirely: the server pops a pair, sends the client half in a
//!   dedicated `"bundle"` instrumentation phase, and proceeds straight to
//!   the online phase. The pool is a dealer inside the server process:
//!   it samples the client's input mask itself, so **a warm session does
//!   not hide the client's input from the server** (DESIGN.md §6); cold
//!   sessions ([`ServeClient::with_bundles`]`(false)`) keep the paper's
//!   guarantee.
//! * [`GovernorConfig`] — per-session resource budgets enforced by every
//!   worker sweep (idle-park eviction, outbound-queue byte cap, the
//!   always-on plan-keyed inbound quota). Each session step runs under
//!   `catch_unwind` so a panicking session is quarantined — torn down,
//!   its checkpoint discarded — while its worker and sibling sessions
//!   keep running; a panic that escapes a worker's loop restarts the loop
//!   on the worker's own thread. Overload rejections carry a
//!   `retry_after_ms` hint derived from queue depth and occupancy, which
//!   [`ServeClient`] waits out within its retry budget.
//! * [`MetricsRegistry`] — thread-safe serving metrics: admission
//!   counters, live session gauge, pool hit/miss counters, what the
//!   session drivers spent re-running parked steps
//!   ([`ReplayCounters`](abnn2_core::driver::ReplayCounters)), and
//!   per-phase traffic aggregated across every connection's
//!   [`InstrumentHandle`](abnn2_net::InstrumentHandle).
//! * [`ServeClient`] — the one reconnecting client, over TCP or any
//!   dialer: reconnect-and-resume, warm-bundle negotiation, and a
//!   per-request [`ServeReport`] with per-phase byte counts.
//!
//! Logits are bit-identical to
//! [`QuantizedNetwork::forward_exact`](abnn2_nn::quant::QuantizedNetwork::forward_exact)
//! on every path — cold, warm, resumed, or downgraded.
//!
//! [`ProtocolError::Overloaded`]: abnn2_core::ProtocolError::Overloaded

#[cfg(not(unix))]
compile_error!("abnn2-serve's workers wait in poll(2) (abnn2_net::ready): Unix only");

pub mod client;
pub mod governor;
pub mod metrics;
pub mod pool;
pub mod server;

pub use abnn2_core::bundle::BundleKey;
pub use client::{ServeClient, ServeReport};
pub use governor::GovernorConfig;
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use pool::{PoolSnapshot, PrecomputePool};
pub use server::{ServeConfig, Server};
