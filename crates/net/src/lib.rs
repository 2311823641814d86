//! Two-party communication substrate for the ABNN² reproduction.
//!
//! Every protocol layer is generic over the [`Transport`] trait — a
//! reliable, ordered, message-oriented duplex channel. This crate ships the
//! implementations:
//!
//! * [`Endpoint`] — the simulated in-process transport: one side of a duplex
//!   byte channel with exact application-byte accounting (the numbers
//!   reported in the paper's "Comm." columns) and a **virtual clock**: real
//!   compute time is measured between channel operations, and transfer time
//!   is charged per message as `bytes / bandwidth` at the sender plus
//!   one-way latency at the receiver (`arrival = max(local, departure +
//!   latency)`), which models pipelined streams the same way a shaped TCP
//!   link does,
//! * [`TcpTransport`] — a real socket with length-prefixed framing and a
//!   write-coalescing buffer, for genuine two-process runs,
//! * [`FaultyTransport`] — a decorator that cuts/truncates/corrupts/delays
//!   traffic in either direction under a composable, seedable [`FaultPlan`],
//!   the engine of the chaos test harness,
//! * [`InstrumentedTransport`] — a decorator attributing traffic to named
//!   protocol phases over any inner transport,
//! * [`FrameBuffer`] — incremental, non-blocking reassembly and draining
//!   of the same length-prefixed frames over a readiness-driven socket,
//!   for event-loop servers that multiplex many sessions per thread. It
//!   and [`TcpTransport`] are two faces of one crate-private codec
//!   (`framing.rs`): one parser with its length bounds, one write queue,
//!   one sticky error latch,
//! * [`ready`] (Unix) — one blocking `poll(2)` over those sockets plus a
//!   cross-thread [`ready::Waker`], so such a loop sleeps until there is
//!   something to sweep,
//! * [`NetworkModel`] — latency/bandwidth profiles ([`NetworkModel::lan`],
//!   [`NetworkModel::wan_secureml`], [`NetworkModel::wan_quotient`]) for the
//!   simulated endpoint,
//! * [`run_pair`] — spawns the two protocol parties on threads over an
//!   [`Endpoint`] pair and collects a [`TrafficReport`],
//! * [`sim_link`] — a dialer/listener factory minting fresh [`Endpoint`]
//!   pairs, so reconnect-and-resume flows can be exercised in-process,
//! * [`ResilientDriver`] — connect → run → reconnect cycles under a
//!   [`RetryPolicy`] (capped exponential backoff, jittered per run)
//!   for any error type implementing [`Retryable`].
//!
//! Deadlines are first-class: [`Transport::set_read_timeout`] bounds how
//! long a single `recv` may block, and [`Transport::set_phase_budget`]
//! bounds a whole protocol phase; both surface as
//! [`TransportError::TimedOut`], on the wall clock for TCP and on the
//! virtual clock for the simulator.
//!
//! Byte accounting is defined at the application framing layer for every
//! transport, so a protocol moves exactly the same counted bytes over the
//! simulator and over TCP.
//!
//! Protocol payloads themselves travel as typed, tagged frames through the
//! [`wire`] module ([`Frame`], [`Transport::send_frame`],
//! [`Transport::recv_frame`]); raw `send`/`recv` below the frame layer are
//! reserved for transport-internal traffic and tests in this crate. The
//! one exception is the garbled-table frame, which the garbler sends as
//! the buffer it garbled (tag byte included) and the evaluator evaluates
//! from the message [`Transport::recv`] returns, checked by its frame's
//! rules.
//!
//! ```
//! use abnn2_net::{run_pair, NetworkModel};
//! let (a, b, report) = run_pair(NetworkModel::lan(), |ch| {
//!     ch.send(b"ping").unwrap();
//!     ch.recv().unwrap()
//! }, |ch| {
//!     let m = ch.recv().unwrap();
//!     ch.send(b"pong").unwrap();
//!     m
//! });
//! assert_eq!(a, b"pong");
//! assert_eq!(b, b"ping");
//! assert_eq!(report.total_bytes(), 8);
//! ```

pub mod channel;
pub mod fault;
mod framing;
pub mod instrument;
pub mod model;
pub mod pump;
#[cfg(unix)]
pub mod ready;
pub mod runner;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use channel::{sim_link, CommSnapshot, Endpoint, SimDialer, SimListener};
pub use fault::{Fault, FaultPlan, FaultyTransport};
pub use instrument::{InstrumentHandle, InstrumentedTransport, PhaseStats, TagStats};
pub use model::NetworkModel;
pub use pump::FrameBuffer;
pub use runner::{run_pair, ResilientDriver, RetryPolicy, Retryable, TrafficReport};
pub use tcp::TcpTransport;
pub use transport::{Transport, TransportError};
pub use wire::{Frame, WireError, WireGot};
