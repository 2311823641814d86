//! Oblivious-transfer stack for the ABNN² reproduction.
//!
//! Three layers, mirroring what the paper gets from the ABY framework:
//!
//! 1. [`base`] — Chou–Orlandi "simplest OT" over our from-scratch Edwards
//!    curve; used only to seed the extensions (κ or 2κ instances).
//! 2. [`iknp`] — the classic IKNP 1-out-of-2 OT extension with chosen,
//!    correlated, and random message variants. Used by the garbled-circuit
//!    evaluator-input transfer and by the SecureML baseline.
//! 3. [`kk13`] — the Kolesnikov–Kumaresan 1-out-of-N OT extension
//!    \[KK13\], instantiated with the 256-bit Walsh–Hadamard code (distance
//!    κ = 128 for any N ≤ 256). This is the workhorse of ABNN²'s quantized
//!    matrix multiplication: the model holder plays the *chooser* with its
//!    weight fragment as the choice symbol.
//!
//! [`iknp`], [`kk13`] and the silent bootstrap share one extension matrix:
//! the crate-private `ext` module expands the base-OT PRGs into bit
//! columns, applies the correction column and transposes to one row per
//! OT, generic over the row width (16 bytes for IKNP, 32 for KK13),
//! through the one transpose kernel in [`bits`]. The protocol modules add
//! frames, tweaks and hashing. Nothing in this crate spawns threads.
//!
//! Party naming follows the OT literature: the **sender** holds the N
//! messages, the **chooser** (receiver) learns exactly one. Note the role
//! reversal in ABNN² itself: the *client* is the OT sender and the *server*
//! (model holder) is the chooser.
//!
//! A fourth layer, [`silent`], removes the per-OT wire cost entirely: an
//! LPN-based pseudorandom correlation generator (Ferret-style SPCOT/MPCOT
//! trees plus primal-LPN expansion) stretches one small seed exchange into
//! thousands of random COTs, and a derandomization adapter turns those into
//! the same chosen-input fragment OTs KK13 produces. The [`fragment`]
//! enums dispatch the triplet protocol over whichever backend the session
//! negotiated. Every fallible function reports [`abnn2_net::TransportError`]:
//! a wrong batch length or an off-curve base-OT point is `Malformed`.

pub mod base;
pub mod bits;
mod ext;
pub mod fragment;
pub mod frames;
pub mod iknp;
pub mod kk13;
pub mod silent;

pub use fragment::{
    FragmentChooser, FragmentChooserKeys, FragmentSender, FragmentSenderKeys, OfflineMode,
};
pub use iknp::{IknpReceiver, IknpSender};
pub use kk13::{KkChooser, KkSender};
pub use silent::{SilentCotReceiver, SilentCotSender, SilentKkChooser, SilentKkSender};

/// Computational security parameter κ (bits).
pub const KAPPA: usize = 128;
