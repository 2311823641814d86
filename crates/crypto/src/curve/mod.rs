//! Curve25519 in twisted-Edwards form (the ed25519 curve), built from
//! scratch for the Chou–Orlandi base OT.
//!
//! The curve is `-x² + y² = 1 + d·x²·y²` over GF(2²⁵⁵ − 19) with
//! `d = -121665/121666`. We provide field arithmetic ([`field::Fe`]),
//! extended-coordinate points ([`EdwardsPoint`]) and scalar multiplication —
//! everything a Diffie-Hellman-style base OT needs. Points travel
//! uncompressed (64 bytes, validated on receipt) to avoid needing a field
//! square root; base OT bandwidth is negligible so the 2× size is harmless.
//!
//! # Kernels
//!
//! Base-OT setup is the largest fixed cost of a session, so the three
//! operations it is made of each have a dedicated kernel:
//!
//! * **Variable base** — [`EdwardsPoint::scalar_mul`]: signed radix-16
//!   fixed window over eight cached multiples `(Y+X, Y−X, Z, 2dT)` of the
//!   point; 256 doublings, three in four of which skip `T`, and at most 65
//!   additions, for any 256-bit scalar.
//! * **Fixed base** — [`PointTable`]: 64 × 8 cached multiples of `16ⁱ·P`
//!   (≈ 80 KB), so a multiplication is at most 65 additions and no
//!   doublings. [`PointTable::base`] is built once per process; the base
//!   OT builds one per batch for the sender's point.
//! * **Encoding** — [`EdwardsPoint::batch_to_bytes`]: Montgomery's trick
//!   normalises a whole slice with one field inversion, itself the
//!   254-squaring addition chain rather than a generic exponentiation.
//!
//! None of this is constant-time: window digits are skipped when zero and
//! table lookups are indexed by secret digits, as the bit-at-a-time
//! double-and-add they replace branched on secret bits. See the crate-level
//! security note.

pub mod edwards;
pub mod field;

pub use edwards::{EdwardsPoint, PointTable};
pub use field::Fe;

/// Parses a big-endian hex string into 32 little-endian bytes.
///
/// # Panics
///
/// Panics if the string is not 64 hex characters.
#[must_use]
pub fn hex_to_le_bytes(hex: &str) -> [u8; 32] {
    assert_eq!(hex.len(), 64, "expected 64 hex chars");
    let mut out = [0u8; 32];
    for i in 0..32 {
        let byte = u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("valid hex");
        out[31 - i] = byte;
    }
    out
}
