//! Arithmetic in GF(2²⁵⁵ − 19) with 5 × 51-bit limbs.

const MASK51: u64 = (1u64 << 51) - 1;

/// A field element of GF(2²⁵⁵ − 19).
///
/// Limbs are little-endian base-2⁵¹ digits. [`mul`](Fe::mul),
/// [`square`](Fe::square), [`sub`](Fe::sub) and [`neg`](Fe::neg) return
/// limbs below 2⁵²; [`add`](Fe::add) is limb-wise with no carry, so its
/// result is bounded by the sum of its inputs' bounds. Every operation
/// accepts limbs below 2⁵⁴ — up to three reduced values summed — which
/// keeps all intermediate products within `u128` range.
#[derive(Debug, Clone, Copy)]
pub struct Fe(pub(crate) [u64; 5]);

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0; 5]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Embeds a small integer.
    #[must_use]
    pub fn from_u64(x: u64) -> Fe {
        let mut f = Fe::ZERO;
        f.0[0] = x & MASK51;
        f.0[1] = x >> 51;
        f
    }

    /// Loads 32 little-endian bytes; the top bit (bit 255) is ignored, as in
    /// all Curve25519 codecs.
    #[must_use]
    pub fn from_bytes(b: &[u8; 32]) -> Fe {
        let load = |off: usize| -> u64 {
            let mut v = [0u8; 8];
            v.copy_from_slice(&b[off..off + 8]);
            u64::from_le_bytes(v)
        };
        Fe([
            load(0) & MASK51,
            (load(6) >> 3) & MASK51,
            (load(12) >> 6) & MASK51,
            (load(19) >> 1) & MASK51,
            (load(24) >> 12) & MASK51,
        ])
    }

    /// Canonical 32-byte little-endian encoding (fully reduced mod p).
    #[must_use]
    pub fn to_bytes(self) -> [u8; 32] {
        let mut h = self;
        h.carry();
        h.carry();
        // Compute h mod p exactly: q = 1 iff h >= p.
        let mut q = (h.0[0].wrapping_add(19)) >> 51;
        for i in 1..5 {
            q = (h.0[i].wrapping_add(q)) >> 51;
        }
        h.0[0] = h.0[0].wrapping_add(19 * q);
        let mut carry = 0u64;
        for limb in &mut h.0 {
            let v = limb.wrapping_add(carry);
            *limb = v & MASK51;
            carry = v >> 51;
        }
        // The final carry (the subtracted 2^255) is dropped.

        let mut out = [0u8; 32];
        let mut acc: u128 = 0;
        let mut acc_bits = 0u32;
        let mut idx = 0usize;
        for &limb in &h.0 {
            acc |= (limb as u128) << acc_bits;
            acc_bits += 51;
            while acc_bits >= 8 && idx < 32 {
                out[idx] = acc as u8;
                acc >>= 8;
                acc_bits -= 8;
                idx += 1;
            }
        }
        while idx < 32 {
            out[idx] = acc as u8;
            acc >>= 8;
            idx += 1;
        }
        out
    }

    /// Sequential carry pass; used only by the canonical encoder.
    fn carry(&mut self) {
        let mut c: u64 = 0;
        for limb in &mut self.0 {
            let v = *limb + c;
            *limb = v & MASK51;
            c = v >> 51;
        }
        self.0[0] += 19 * c;
    }

    /// One parallel carry step: every limb hands its bits above 2⁵¹ to its
    /// neighbour at once. Limbs below 2⁶³ come out below 2⁵¹ + 2¹⁷.
    fn weak_reduce(l: [u64; 5]) -> Fe {
        Fe([
            (l[0] & MASK51) + 19 * (l[4] >> 51),
            (l[1] & MASK51) + (l[0] >> 51),
            (l[2] & MASK51) + (l[1] >> 51),
            (l[3] & MASK51) + (l[2] >> 51),
            (l[4] & MASK51) + (l[3] >> 51),
        ])
    }

    /// Field addition (lazy: no carry, see the type-level bounds).
    #[must_use]
    pub fn add(&self, rhs: &Fe) -> Fe {
        Fe([
            self.0[0] + rhs.0[0],
            self.0[1] + rhs.0[1],
            self.0[2] + rhs.0[2],
            self.0[3] + rhs.0[3],
            self.0[4] + rhs.0[4],
        ])
    }

    /// Field subtraction (adds 16p before subtracting to stay non-negative).
    #[must_use]
    pub fn sub(&self, rhs: &Fe) -> Fe {
        const P16_0: u64 = 16 * ((1 << 51) - 19);
        const P16_N: u64 = 16 * ((1 << 51) - 1);
        Fe::weak_reduce([
            self.0[0] + P16_0 - rhs.0[0],
            self.0[1] + P16_N - rhs.0[1],
            self.0[2] + P16_N - rhs.0[2],
            self.0[3] + P16_N - rhs.0[3],
            self.0[4] + P16_N - rhs.0[4],
        ])
    }

    /// Field negation.
    #[must_use]
    pub fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Carries five 128-bit column sums down to limbs below 2⁵¹ + 2¹³.
    /// Columns 0–3 must be below 2¹¹⁵ and column 4, which has no ×19
    /// wrap-around terms, below 2¹¹¹.
    fn reduce_wide(mut c: [u128; 5]) -> Fe {
        c[1] += c[0] >> 51;
        c[2] += c[1] >> 51;
        c[3] += c[2] >> 51;
        c[4] += c[3] >> 51;
        let mut out = [
            c[0] as u64 & MASK51,
            c[1] as u64 & MASK51,
            c[2] as u64 & MASK51,
            c[3] as u64 & MASK51,
            c[4] as u64 & MASK51,
        ];
        // c[4] < 2¹¹¹ puts its carry below 2⁶⁰, so ×19 still fits a u64.
        out[0] += 19 * (c[4] >> 51) as u64;
        out[1] += out[0] >> 51;
        out[0] &= MASK51;
        Fe(out)
    }

    /// Field multiplication.
    #[must_use]
    pub fn mul(&self, rhs: &Fe) -> Fe {
        let a = &self.0;
        let b = &rhs.0;
        let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };
        // 19·b < 2⁵⁹ stays in a u64, so the wrap-around terms cost one
        // 64×64 multiply each and no 128-bit scaling.
        let (b1, b2, b3, b4) = (19 * b[1], 19 * b[2], 19 * b[3], 19 * b[4]);
        Fe::reduce_wide([
            m(a[0], b[0]) + m(a[1], b4) + m(a[2], b3) + m(a[3], b2) + m(a[4], b1),
            m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4) + m(a[3], b3) + m(a[4], b2),
            m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4) + m(a[4], b3),
            m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4),
            m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]),
        ])
    }

    /// Field squaring: 15 limb products where [`mul`](Fe::mul) needs 25.
    #[must_use]
    pub fn square(&self) -> Fe {
        let a = &self.0;
        let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };
        let (a3_19, a4_19) = (19 * a[3], 19 * a[4]);
        Fe::reduce_wide([
            m(a[0], a[0]) + 2 * (m(a[1], a4_19) + m(a[2], a3_19)),
            m(a[3], a3_19) + 2 * (m(a[0], a[1]) + m(a[2], a4_19)),
            m(a[1], a[1]) + 2 * (m(a[0], a[2]) + m(a[4], a3_19)),
            m(a[4], a4_19) + 2 * (m(a[0], a[3]) + m(a[1], a[2])),
            m(a[2], a[2]) + 2 * (m(a[0], a[4]) + m(a[1], a[3])),
        ])
    }

    /// `self^(2^k)`.
    fn pow2k(&self, k: u32) -> Fe {
        let mut acc = *self;
        for _ in 0..k {
            acc = acc.square();
        }
        acc
    }

    /// Exponentiation by a little-endian 32-byte exponent.
    #[must_use]
    pub fn pow(&self, exp_le: &[u8; 32]) -> Fe {
        let mut acc = Fe::ONE;
        for bit in (0..256).rev() {
            acc = acc.square();
            if (exp_le[bit / 8] >> (bit % 8)) & 1 == 1 {
                acc = acc.mul(self);
            }
        }
        acc
    }

    /// Multiplicative inverse `x^(p−2)` by the standard addition chain for
    /// 2²⁵⁵ − 21: 254 squarings and 11 multiplications.
    ///
    /// Returns zero for zero input.
    #[must_use]
    pub fn invert(&self) -> Fe {
        // Names give the exponent: z_a_b = x^(2^a − 2^b).
        let z2 = self.square();
        let z9 = z2.pow2k(2).mul(self);
        let z11 = z9.mul(&z2);
        let z_5_0 = z11.square().mul(&z9);
        let z_10_0 = z_5_0.pow2k(5).mul(&z_5_0);
        let z_20_0 = z_10_0.pow2k(10).mul(&z_10_0);
        let z_40_0 = z_20_0.pow2k(20).mul(&z_20_0);
        let z_50_0 = z_40_0.pow2k(10).mul(&z_10_0);
        let z_100_0 = z_50_0.pow2k(50).mul(&z_50_0);
        let z_200_0 = z_100_0.pow2k(100).mul(&z_100_0);
        let z_250_0 = z_200_0.pow2k(50).mul(&z_50_0);
        z_250_0.pow2k(5).mul(&z11)
    }

    /// Inverts every element of `elems` in place with one field inversion
    /// and three multiplications per element (Montgomery's trick). Zeros
    /// stay zero, as with [`invert`](Fe::invert).
    pub fn batch_invert(elems: &mut [Fe]) {
        // Zeros sit out of the running product.
        let live: Vec<usize> = (0..elems.len()).filter(|&i| !elems[i].is_zero()).collect();
        // prefix[k] = product of the live elements before the k-th.
        let mut prefix = Vec::with_capacity(live.len());
        let mut acc = Fe::ONE;
        for &i in &live {
            prefix.push(acc);
            acc = acc.mul(&elems[i]);
        }
        // acc walks back as the inverse of the product up to and including i.
        let mut acc = acc.invert();
        for (&i, before) in live.iter().zip(prefix).rev() {
            let inv = acc.mul(&before);
            acc = acc.mul(&elems[i]);
            elems[i] = inv;
        }
    }

    /// True if the canonical encoding is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }
}

impl PartialEq for Fe {
    fn eq(&self, other: &Self) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

impl Eq for Fe {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fe_rand(seed: u64) -> Fe {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = [0u8; 32];
        rng.fill(&mut b);
        b[31] &= 0x7f;
        Fe::from_bytes(&b)
    }

    #[test]
    fn byte_round_trip_small() {
        for v in [0u64, 1, 19, 0xffff_ffff] {
            let f = Fe::from_u64(v);
            let b = f.to_bytes();
            assert_eq!(Fe::from_bytes(&b), f);
            assert_eq!(u64::from_le_bytes(b[..8].try_into().unwrap()), v);
        }
    }

    #[test]
    fn p_reduces_to_zero() {
        // p = 2^255 - 19 encoded little-endian.
        let mut p = [0xffu8; 32];
        p[0] = 0xed;
        p[31] = 0x7f;
        assert!(Fe::from_bytes(&p).is_zero());
    }

    #[test]
    fn p_minus_one_is_minus_one() {
        let mut pm1 = [0xffu8; 32];
        pm1[0] = 0xec;
        pm1[31] = 0x7f;
        let f = Fe::from_bytes(&pm1);
        assert_eq!(f.add(&Fe::ONE).to_bytes(), [0u8; 32]);
        assert_eq!(Fe::ZERO.sub(&Fe::ONE), f);
    }

    #[test]
    fn invert_small_values() {
        for v in [1u64, 2, 3, 121666] {
            let f = Fe::from_u64(v);
            assert_eq!(f.mul(&f.invert()), Fe::ONE, "v = {v}");
        }
    }

    #[test]
    fn known_product_sqrt_m1() {
        // sqrt(-1) = 2^((p-1)/4); check that its square is -1.
        let mut exp = [0u8; 32];
        // (p-1)/4 = (2^255 - 20)/4 = 2^253 - 5, LE bytes: fb ff .. ff 1f
        exp[0] = 0xfb;
        for b in exp.iter_mut().take(31).skip(1) {
            *b = 0xff;
        }
        exp[31] = 0x1f;
        let i = Fe::from_u64(2).pow(&exp);
        assert_eq!(i.square(), Fe::ZERO.sub(&Fe::ONE));
    }

    #[test]
    fn zero_inverts_to_zero() {
        assert!(Fe::ZERO.invert().is_zero());
        Fe::batch_invert(&mut []);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn field_axioms(s1: u64, s2: u64, s3: u64) {
            let (a, b, c) = (fe_rand(s1), fe_rand(s2), fe_rand(s3));
            prop_assert_eq!(a.add(&b), b.add(&a));
            prop_assert_eq!(a.mul(&b), b.mul(&a));
            prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
            prop_assert_eq!(a.sub(&b).add(&b), a);
            prop_assert_eq!(a.add(&a.neg()).to_bytes(), [0u8; 32]);
        }

        #[test]
        fn inverse_is_two_sided(s: u64) {
            let a = fe_rand(s);
            prop_assume!(!a.is_zero());
            prop_assert_eq!(a.mul(&a.invert()), Fe::ONE);
            prop_assert_eq!(a.invert().invert(), a);
        }

        #[test]
        fn square_matches_mul(s: u64) {
            let a = fe_rand(s);
            prop_assert_eq!(a.square(), a.mul(&a));
            // Also at the top of the accepted limb range: three lazy sums.
            let wide = a.add(&a).add(&a);
            prop_assert_eq!(wide.square(), wide.mul(&wide));
            prop_assert_eq!(wide.square(), a.square().mul(&Fe::from_u64(9)));
        }

        #[test]
        fn addition_chain_invert_matches_fermat_pow(s: u64) {
            // p − 2 = 2²⁵⁵ − 21, little-endian bytes: eb ff … ff 7f
            let mut exp = [0xffu8; 32];
            exp[0] = 0xeb;
            exp[31] = 0x7f;
            let a = fe_rand(s);
            prop_assert_eq!(a.invert(), a.pow(&exp));
        }

        #[test]
        fn batch_invert_matches_invert_and_keeps_zeros(s: u64, zeros: u8) {
            // Bit i of `zeros` plants a zero at index i, so slices with no,
            // some, leading, trailing and only zeros all occur.
            let mut elems: Vec<Fe> = (0..8)
                .map(|i| if (zeros >> i) & 1 == 1 { Fe::ZERO } else { fe_rand(s ^ i) })
                .collect();
            let each: Vec<Fe> = elems.iter().map(Fe::invert).collect();
            Fe::batch_invert(&mut elems);
            prop_assert_eq!(elems, each);
        }

        #[test]
        fn bytes_round_trip(s: u64) {
            let a = fe_rand(s);
            prop_assert_eq!(Fe::from_bytes(&a.to_bytes()), a);
        }
    }
}
