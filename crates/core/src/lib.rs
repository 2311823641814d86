//! ABNN²: secure two-party arbitrary-bitwidth quantized NN predictions.
//!
//! This crate implements the paper's contribution on top of the substrate
//! crates (`abnn2-ot`, `abnn2-gc`, `abnn2-net`, `abnn2-nn`):
//!
//! * [`sharing`] — additive secret sharing over ℤ_{2^ℓ} (§2.3),
//! * [`matmul`] — the quantized matrix-multiplication triplet protocols of
//!   §4.1: the fragment-wise 1-out-of-N OT method, the **multi-batch**
//!   message packing (§4.1.2), and the **one-batch** correlated-OT trick
//!   that sends N−1 instead of N messages (§4.1.3),
//! * [`nonlinear`] — Algorithm 2 (§4.2) once: the re-share run for any
//!   circuit, and the one lowering from a graph op to its circuit,
//! * [`relu`] — the ReLU entry points: Algorithm 2 (fully oblivious) and
//!   the optimized comparison-first variant,
//! * [`graph`] — the secure planner and executor over the
//!   [`abnn2_nn::LayerGraph`] IR: one offline plan and one online walk
//!   shared by every served topology (MLP, CNN, encoder block), and the
//!   one model surface ([`PublicModel`] / [`ServedModel`]) both wrap,
//! * [`inference`] — the end-to-end offline/online pipeline of Fig 2: the
//!   two parties and the one client session flow
//!   ([`SecureClient::run_job`]),
//! * [`complexity`] — the closed-form OT/communication counts of Table 1,
//! * [`handshake`] — the versioned session hello exchanged before any base
//!   OT, turning configuration mismatches into typed
//!   [`ProtocolError::Negotiation`] errors at connect time,
//! * [`driver`] — the suspendable session engine: the one server session
//!   flow, expressed as a resumable state machine
//!   ([`driver::SessionDriver`]) whose only I/O is an effect stream, so
//!   one event-loop thread can multiplex many sessions over
//!   readiness-based I/O, with the blocking path a thin
//!   [`driver::drive_blocking`] adapter,
//! * [`resilient`] — [`ResilientServer`], a reconnect loop around the
//!   server flow over any acceptor that checkpoints the offline phase in a
//!   bounded [`CheckpointStore`] and replays the online phase after a
//!   connection loss, for logits bit-identical to an uninterrupted run,
//! * [`bundle`] — portable offline-phase state ([`ServerBundle`] /
//!   [`ClientBundle`]) keyed by [`BundleKey`], plus [`dealer_bundle`]
//!   dealer-mode generation — the substrate for `abnn2-serve`'s precompute
//!   pool and for cross-connection resume checkpoints.
//!
//! # Quick example
//!
//! See `examples/quickstart.rs` at the workspace root; the short version:
//! quantize a trained [`abnn2_nn::Network`], hand the quantized model to
//! [`inference::SecureServer`] and its
//! [`public_model`](inference::SecureServer::public_model) to
//! [`inference::SecureClient`], connect
//! them with [`abnn2_net::run_pair`], and the client learns exactly the
//! logits of [`abnn2_nn::QuantizedNetwork::forward_exact`] — while neither
//! party sees the other's data.

pub mod argmax;
pub mod bundle;
pub mod complexity;
pub mod config;
pub mod driver;
pub mod error;
pub mod frames;
pub mod graph;
pub mod handshake;
pub mod inference;
pub mod matbeaver;
pub mod matmul;
pub mod nonlinear;
pub mod relu;
pub mod resilient;
pub mod session;
pub mod sharing;

/// Offline OT-extension backend selection, re-exported for frontends
/// that key pools and negotiate capability without depending on
/// `abnn2-ot` directly.
pub use abnn2_ot::OfflineMode;
pub use bundle::{
    dealer_bundle, dealer_bundle_for, BundleKey, ClientBundle, ServerBundle, BUNDLE_LAYOUT_VERSION,
};
pub use config::{ExecConfig, SessionDeadlines};
pub use driver::{
    drive_blocking, drive_frames, DriveStats, DriverEffect, DriverStep, NullHost, ReplayCounters,
    SessionDriver, SessionHost,
};
pub use error::ProtocolError;
pub use graph::{CommCeiling, PublicModel, SecureGraph, ServedModel, TripletPlan};
pub use handshake::{
    Halves, HelloReply, HelloRequest, ResumeToken, SessionParams, PROTOCOL_VERSION,
};
pub use inference::{ClientJob, HeldLineage, SecureClient, SecureServer};
pub use matbeaver::MatrixTriple;
pub use matmul::TripletMode;
pub use relu::ReluVariant;
pub use resilient::{CheckpointStore, LineageStats, ResilientServer, RunReport};
pub use session::{ClientLineage, ServerLineage};
