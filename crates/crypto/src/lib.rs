//! Cryptographic substrate for the ABNN² reproduction.
//!
//! The original system leans on the ABY framework, which in turn uses AES-NI
//! based hashing, OT-friendly PRGs and an elliptic-curve base OT. This crate
//! rebuilds those primitives from scratch:
//!
//! * [`Block`] — the ubiquitous 128-bit label/seed type,
//! * [`Aes128`] — a portable AES-128 (encrypt-only, FIPS-197 tested),
//! * [`RoHash`] — a fixed-key Matyas–Meyer–Oseas random-oracle instantiation
//!   with tweaks, as used by OT extension and garbling,
//! * [`Prg`] — an AES-CTR pseudorandom generator,
//! * [`mod@backend`] — slice-batched AES/MMO/PRG primitives behind a
//!   runtime-selected [`CryptoBackend`] (portable T-tables everywhere,
//!   AES-NI where the CPU has it; `ABNN2_CRYPTO_BACKEND` overrides),
//! * [`sha256`] — SHA-256 (FIPS 180-4 tested) for base-OT key derivation,
//! * [`curve`] — Curve25519 in twisted-Edwards form for the Chou–Orlandi
//!   base OT.
//!
//! # Security note
//!
//! This is a research reproduction: the implementations are tested for
//! correctness against standard vectors but are **not** constant-time and
//! have not been audited. Do not reuse for production secrets. In
//! particular the T-table AES and the curve's windowed and fixed-base
//! scalar multiplications ([`curve`]) index tables by secret values, and
//! the latter also skip work on zero digits.

pub mod aes;
pub mod backend;
pub mod block;
pub mod curve;
pub mod hash;
pub mod prg;
pub mod sha256;

pub use aes::Aes128;
pub use backend::{aes_ni_available, backend, choose_backend, CryptoBackend};
pub use block::Block;
pub use hash::RoHash;
pub use prg::Prg;
