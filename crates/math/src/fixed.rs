//! Fixed-point encoding of real values into ℤ_{2^ℓ}.
//!
//! Activations in ABNN² "will be in float-point form and be encoded as
//! fixed-point to utilize the cryptographic protocol" (§2.2). We use the
//! standard two's-complement encoding with `frac_bits` fractional bits:
//! `encode(x) = round(x · 2^f) mod 2^ℓ`.

use crate::Ring;

/// A fixed-point codec over a [`Ring`].
///
/// ```
/// use abnn2_math::{FixedPoint, Ring};
/// let fp = FixedPoint::new(Ring::new(32), 8);
/// let e = fp.encode(-1.5);
/// assert_eq!(fp.decode(e), -1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixedPoint {
    ring: Ring,
    frac_bits: u32,
}

impl FixedPoint {
    /// Creates a codec with `frac_bits` fractional bits over `ring`.
    ///
    /// # Panics
    ///
    /// Panics if `frac_bits >= ring.bits()` (no integer part would remain).
    #[must_use]
    pub fn new(ring: Ring, frac_bits: u32) -> Self {
        assert!(
            frac_bits < ring.bits(),
            "frac_bits ({frac_bits}) must be smaller than the ring width ({})",
            ring.bits()
        );
        FixedPoint { ring, frac_bits }
    }

    /// The underlying ring.
    #[must_use]
    pub fn ring(self) -> Ring {
        self.ring
    }

    /// Number of fractional bits `f`.
    #[must_use]
    pub fn frac_bits(self) -> u32 {
        self.frac_bits
    }

    /// The representable resolution `2^{-f}`.
    #[must_use]
    pub fn resolution(self) -> f64 {
        (self.frac_bits as f64).exp2().recip()
    }

    /// Encodes a real value as `round(x · 2^f)` in the ring.
    ///
    /// Values outside the representable range wrap (two's complement), like
    /// the fixed-point arithmetic of the secure protocol itself.
    #[must_use]
    pub fn encode(self, x: f64) -> u64 {
        let scaled = (x * (self.frac_bits as f64).exp2()).round();
        self.ring.from_i64(scaled as i64)
    }

    /// Decodes a ring element via the signed lift.
    #[must_use]
    pub fn decode(self, e: u64) -> f64 {
        self.ring.to_i64(e) as f64 / (self.frac_bits as f64).exp2()
    }

    /// Encodes a slice of reals.
    #[must_use]
    pub fn encode_vec(self, xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|&x| self.encode(x)).collect()
    }

    /// Decodes a slice of ring elements.
    #[must_use]
    pub fn decode_vec(self, es: &[u64]) -> Vec<f64> {
        es.iter().map(|&e| self.decode(e)).collect()
    }

    /// Truncates a product back to `f` fractional bits.
    ///
    /// Multiplying two fixed-point values yields `2f` fractional bits; this
    /// performs the signed arithmetic right shift by `f` used after each
    /// linear layer (the standard local truncation of SecureML, which both
    /// parties apply to their shares — see `abnn2-core` for the shared
    /// variant and its off-by-one behaviour).
    #[must_use]
    pub fn truncate(self, e: u64) -> u64 {
        self.ring.from_i64(self.ring.to_i64(e) >> self.frac_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fp32() -> FixedPoint {
        FixedPoint::new(Ring::new(32), 12)
    }

    #[test]
    fn encode_decode_exact_values() {
        let fp = fp32();
        for x in [0.0, 1.0, -1.0, 0.5, -0.25, 123.0625] {
            assert_eq!(fp.decode(fp.encode(x)), x);
        }
    }

    #[test]
    #[should_panic(expected = "frac_bits")]
    fn frac_bits_must_leave_integer_part() {
        let _ = FixedPoint::new(Ring::new(16), 16);
    }

    #[test]
    fn addition_is_exact_in_encoding() {
        let fp = fp32();
        let r = fp.ring();
        let a = fp.encode(1.25);
        let b = fp.encode(-3.5);
        assert_eq!(fp.decode(r.add(a, b)), -2.25);
    }

    #[test]
    fn product_truncation() {
        let fp = fp32();
        let r = fp.ring();
        let a = fp.encode(1.5);
        let b = fp.encode(-2.0);
        let prod = r.mul(a, b); // 2f fractional bits
        assert_eq!(fp.decode(fp.truncate(prod)), -3.0);
    }

    #[test]
    fn resolution_matches_frac_bits() {
        assert_eq!(FixedPoint::new(Ring::new(32), 10).resolution(), 1.0 / 1024.0);
    }

    proptest! {
        #[test]
        fn round_trip_within_resolution(x in -1.0e4f64..1.0e4) {
            let fp = fp32();
            let err = (fp.decode(fp.encode(x)) - x).abs();
            prop_assert!(err <= fp.resolution() / 2.0 + 1e-12, "err = {err}");
        }

        #[test]
        fn encoding_is_additively_homomorphic(a in -1000.0f64..1000.0, b in -1000.0f64..1000.0) {
            // Exact on values already representable at resolution 2^-f.
            let fp = fp32();
            let r = fp.ring();
            let (a, b) = (fp.decode(fp.encode(a)), fp.decode(fp.encode(b)));
            prop_assert_eq!(fp.decode(r.add(fp.encode(a), fp.encode(b))), a + b);
        }

        #[test]
        // The double-width product carries 2f = 24 fractional bits, so the
        // product magnitude must stay below 2^{31-24} = 128 to avoid wrap.
        fn truncate_halves_scale(a in -8.0f64..8.0, b in -8.0f64..8.0) {
            let fp = fp32();
            let r = fp.ring();
            let (a, b) = (fp.decode(fp.encode(a)), fp.decode(fp.encode(b)));
            let got = fp.decode(fp.truncate(r.mul(fp.encode(a), fp.encode(b))));
            prop_assert!((got - a * b).abs() <= fp.resolution() + 1e-9);
        }
    }
}
