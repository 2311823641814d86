//! Arithmetic over the ring ℤ_{2^ℓ}.
//!
//! Elements are stored as `u64` values already reduced into `0..2^ℓ`. All
//! operations wrap modulo `2^ℓ`, matching the paper's choice of ring for both
//! shares and plaintext values.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// The ring ℤ_{2^ℓ} for a bit length `ℓ ∈ 1..=64`.
///
/// A `Ring` is a small value object describing the modulus; elements are
/// plain `u64` values reduced by [`Ring::reduce`]. Keeping elements untyped
/// keeps hot protocol loops allocation-free while the `Ring` parameter makes
/// the modulus explicit at every call site.
///
/// ```
/// use abnn2_math::Ring;
/// let r = Ring::new(8);
/// assert_eq!(r.add(200, 100), 44); // wraps mod 256
/// assert_eq!(r.neg(1), 255);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ring {
    bits: u32,
    mask: u64,
}

impl Ring {
    /// Creates the ring ℤ_{2^bits}.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 64.
    #[must_use]
    pub fn new(bits: u32) -> Self {
        assert!((1..=64).contains(&bits), "ring bit length must be 1..=64, got {bits}");
        let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
        Ring { bits, mask }
    }

    /// The bit length ℓ.
    #[must_use]
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// The value `2^ℓ - 1`, i.e. the largest element.
    #[must_use]
    pub fn mask(self) -> u64 {
        self.mask
    }

    /// Number of bytes needed to serialize one element (⌈ℓ/8⌉).
    #[must_use]
    pub fn byte_len(self) -> usize {
        self.bits.div_ceil(8) as usize
    }

    /// Reduces an arbitrary `u64` into the ring.
    #[must_use]
    pub fn reduce(self, x: u64) -> u64 {
        x & self.mask
    }

    /// Addition mod `2^ℓ`.
    #[must_use]
    pub fn add(self, a: u64, b: u64) -> u64 {
        a.wrapping_add(b) & self.mask
    }

    /// Subtraction mod `2^ℓ`.
    #[must_use]
    pub fn sub(self, a: u64, b: u64) -> u64 {
        a.wrapping_sub(b) & self.mask
    }

    /// Negation mod `2^ℓ`.
    #[must_use]
    pub fn neg(self, a: u64) -> u64 {
        a.wrapping_neg() & self.mask
    }

    /// Multiplication mod `2^ℓ`.
    #[must_use]
    pub fn mul(self, a: u64, b: u64) -> u64 {
        a.wrapping_mul(b) & self.mask
    }

    /// Multiplies by a signed factor (used for signed weight digits).
    #[must_use]
    pub fn mul_signed(self, a: u64, k: i64) -> u64 {
        a.wrapping_mul(k as u64) & self.mask
    }

    /// Embeds a signed integer by its two's-complement residue.
    ///
    /// ```
    /// use abnn2_math::Ring;
    /// let r = Ring::new(16);
    /// assert_eq!(r.from_i64(-1), 0xFFFF);
    /// ```
    #[must_use]
    pub fn from_i64(self, x: i64) -> u64 {
        (x as u64) & self.mask
    }

    /// Interprets an element as a signed integer in `[-2^{ℓ-1}, 2^{ℓ-1})`.
    ///
    /// This is the canonical "lift" used when decoding fixed-point results.
    #[must_use]
    pub fn to_i64(self, x: u64) -> i64 {
        let x = x & self.mask;
        if self.bits == 64 {
            x as i64
        } else if x >> (self.bits - 1) == 1 {
            (x as i64) - (1i64 << self.bits)
        } else {
            x as i64
        }
    }

    /// True if the element is negative under the signed interpretation,
    /// i.e. its most significant (ℓ-1) bit is set.
    #[must_use]
    pub fn is_negative(self, x: u64) -> bool {
        (x >> (self.bits - 1)) & 1 == 1
    }

    /// Samples a uniformly random element.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> u64 {
        rng.gen::<u64>() & self.mask
    }

    /// Samples a vector of uniformly random elements.
    #[must_use]
    pub fn sample_vec<R: Rng + ?Sized>(self, rng: &mut R, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Element-wise sum of two slices mod `2^ℓ`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    #[must_use]
    pub fn add_vec(self, a: &[u64], b: &[u64]) -> Vec<u64> {
        assert_eq!(a.len(), b.len(), "vector length mismatch");
        a.iter().zip(b).map(|(&x, &y)| self.add(x, y)).collect()
    }

    /// Element-wise difference of two slices mod `2^ℓ`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    #[must_use]
    pub fn sub_vec(self, a: &[u64], b: &[u64]) -> Vec<u64> {
        assert_eq!(a.len(), b.len(), "vector length mismatch");
        a.iter().zip(b).map(|(&x, &y)| self.sub(x, y)).collect()
    }

    /// Dot product of two slices mod `2^ℓ`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    #[must_use]
    pub fn dot(self, a: &[u64], b: &[u64]) -> u64 {
        assert_eq!(a.len(), b.len(), "vector length mismatch");
        let mut acc = 0u64;
        for (&x, &y) in a.iter().zip(b) {
            acc = acc.wrapping_add(x.wrapping_mul(y));
        }
        acc & self.mask
    }

    /// Serializes a slice of elements into `byte_len()`-wide little-endian
    /// chunks. This is the wire format used by all protocols so that
    /// communication costs reflect ⌈ℓ/8⌉ bytes per element.
    #[must_use]
    pub fn encode_slice(self, xs: &[u64]) -> Vec<u8> {
        let w = self.byte_len();
        let mut out = Vec::with_capacity(w * xs.len());
        for &x in xs {
            out.extend_from_slice(&x.to_le_bytes()[..w]);
        }
        out
    }

    /// Inverse of [`Ring::encode_slice`].
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len()` is not a multiple of `byte_len()`.
    #[must_use]
    pub fn decode_slice(self, bytes: &[u8]) -> Vec<u64> {
        let w = self.byte_len();
        assert_eq!(bytes.len() % w, 0, "byte buffer not a multiple of element width");
        bytes.chunks_exact(w).map(|c| self.decode(c)).collect()
    }

    /// One element from its little-endian wire bytes (at most eight).
    #[must_use]
    pub fn decode(self, bytes: &[u8]) -> u64 {
        let mut b = [0u8; 8];
        b[..bytes.len()].copy_from_slice(bytes);
        u64::from_le_bytes(b) & self.mask
    }
}

impl Default for Ring {
    /// The ring ℤ_{2^32}, the paper's default for Table 2.
    fn default() -> Self {
        Ring::new(32)
    }
}

impl std::fmt::Display for Ring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Z_2^{}", self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn construction_and_mask() {
        assert_eq!(Ring::new(1).mask(), 1);
        assert_eq!(Ring::new(8).mask(), 0xFF);
        assert_eq!(Ring::new(32).mask(), 0xFFFF_FFFF);
        assert_eq!(Ring::new(64).mask(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "ring bit length")]
    fn zero_bits_rejected() {
        let _ = Ring::new(0);
    }

    #[test]
    #[should_panic(expected = "ring bit length")]
    fn oversized_bits_rejected() {
        let _ = Ring::new(65);
    }

    #[test]
    fn signed_round_trip() {
        let r = Ring::new(16);
        for x in [-32768i64, -1, 0, 1, 32767] {
            assert_eq!(r.to_i64(r.from_i64(x)), x);
        }
    }

    #[test]
    fn signed_lift_64_bits() {
        let r = Ring::new(64);
        assert_eq!(r.to_i64(u64::MAX), -1);
        assert_eq!(r.to_i64(0), 0);
    }

    #[test]
    fn is_negative_matches_lift() {
        let r = Ring::new(12);
        for x in 0..(1u64 << 12) {
            assert_eq!(r.is_negative(x), r.to_i64(x) < 0);
        }
    }

    #[test]
    fn dot_product_small() {
        let r = Ring::new(8);
        // 32 < 2^8: no wrap.
        assert_eq!(r.dot(&[1, 2, 3], &[4, 5, 6]), 4 + 10 + 18);
    }

    #[test]
    fn encode_decode_slice_round_trip() {
        let r = Ring::new(24);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let xs = r.sample_vec(&mut rng, 100);
        assert_eq!(r.decode_slice(&r.encode_slice(&xs)), xs);
        assert_eq!(r.byte_len(), 3);
    }

    #[test]
    fn display_shows_modulus() {
        assert_eq!(Ring::new(32).to_string(), "Z_2^32");
    }

    proptest! {
        #[test]
        fn add_is_commutative_and_associative(bits in 1u32..=64, a: u64, b: u64, c: u64) {
            let r = Ring::new(bits);
            let (a, b, c) = (r.reduce(a), r.reduce(b), r.reduce(c));
            prop_assert_eq!(r.add(a, b), r.add(b, a));
            prop_assert_eq!(r.add(r.add(a, b), c), r.add(a, r.add(b, c)));
        }

        #[test]
        fn sub_inverts_add(bits in 1u32..=64, a: u64, b: u64) {
            let r = Ring::new(bits);
            let (a, b) = (r.reduce(a), r.reduce(b));
            prop_assert_eq!(r.sub(r.add(a, b), b), a);
            prop_assert_eq!(r.add(a, r.neg(a)), 0);
        }

        #[test]
        fn mul_distributes_over_add(bits in 1u32..=64, a: u64, b: u64, c: u64) {
            let r = Ring::new(bits);
            let (a, b, c) = (r.reduce(a), r.reduce(b), r.reduce(c));
            prop_assert_eq!(r.mul(a, r.add(b, c)), r.add(r.mul(a, b), r.mul(a, c)));
        }

        #[test]
        fn signed_embedding_is_homomorphic(a in -1000i64..1000, b in -1000i64..1000) {
            let r = Ring::new(32);
            prop_assert_eq!(r.add(r.from_i64(a), r.from_i64(b)), r.from_i64(a + b));
            prop_assert_eq!(r.mul(r.from_i64(a), r.from_i64(b)), r.from_i64(a * b));
        }

        #[test]
        fn sample_stays_in_ring(bits in 1u32..=64, seed: u64) {
            let r = Ring::new(bits);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let x = r.sample(&mut rng);
            prop_assert_eq!(x, r.reduce(x));
        }
    }
}
