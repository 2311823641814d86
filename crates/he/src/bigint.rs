//! Arbitrary-precision unsigned integers (little-endian `u64` limbs).
//!
//! Only what Paillier needs: schoolbook multiplication, shift-subtract
//! division (used rarely — hot paths go through Montgomery form), and an
//! extended binary GCD for modular inversion.

use rand::Rng;
use std::cmp::Ordering;

/// An unsigned big integer, limbs little-endian, normalized (no trailing
/// zero limbs; zero is the empty limb vector).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value 0.
    #[must_use]
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    #[must_use]
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Creates from a `u64`.
    #[must_use]
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Creates from a `u128`.
    #[must_use]
    pub fn from_u128(v: u128) -> Self {
        let mut out = BigUint { limbs: vec![v as u64, (v >> 64) as u64] };
        out.normalize();
        out
    }

    /// Creates from little-endian limbs.
    #[must_use]
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Creates from little-endian bytes.
    #[must_use]
    pub fn from_bytes_le(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(8));
        for chunk in bytes.chunks(8) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            limbs.push(u64::from_le_bytes(b));
        }
        Self::from_limbs(limbs)
    }

    /// Little-endian byte encoding (no trailing zeros, empty for zero).
    #[must_use]
    pub fn to_bytes_le(&self) -> Vec<u8> {
        let mut out: Vec<u8> = self.limbs.iter().flat_map(|l| l.to_le_bytes()).collect();
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    /// A uniformly random integer with exactly `bits` bits (top bit set).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    #[must_use]
    pub fn random_bits<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        assert!(bits > 0, "bit count must be positive");
        let n_limbs = bits.div_ceil(64);
        let mut limbs: Vec<u64> = (0..n_limbs).map(|_| rng.gen()).collect();
        let top = (bits - 1) % 64;
        let last = limbs.last_mut().expect("at least one limb");
        *last &= (1u128 << (top + 1)).wrapping_sub(1) as u64;
        *last |= 1u64 << top;
        Self::from_limbs(limbs)
    }

    /// A uniformly random integer below `bound` (rejection sampling).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[must_use]
    pub fn random_below<R: Rng + ?Sized>(bound: &BigUint, rng: &mut R) -> Self {
        assert!(!bound.is_zero(), "bound must be positive");
        let bits = bound.bits();
        loop {
            let n_limbs = bits.div_ceil(64);
            let mut limbs: Vec<u64> = (0..n_limbs).map(|_| rng.gen()).collect();
            let excess = n_limbs * 64 - bits;
            if excess > 0 {
                let last = limbs.last_mut().expect("at least one limb");
                *last >>= excess;
            }
            let cand = Self::from_limbs(limbs);
            if cand.cmp(bound) == Ordering::Less {
                return cand;
            }
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// True if the value is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is odd.
    #[must_use]
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|l| l & 1 == 1)
    }

    /// Bit length (0 for zero).
    #[must_use]
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => 64 * self.limbs.len() - top.leading_zeros() as usize,
        }
    }

    /// Bit `i` (false beyond the top).
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        self.limbs.get(i / 64).is_some_and(|l| (l >> (i % 64)) & 1 == 1)
    }

    /// The limbs, little-endian.
    #[must_use]
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Low 64 bits.
    #[must_use]
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// Addition.
    #[must_use]
    pub fn add(&self, other: &BigUint) -> BigUint {
        let mut out = Vec::with_capacity(self.limbs.len().max(other.limbs.len()) + 1);
        let mut carry = 0u64;
        for i in 0..self.limbs.len().max(other.limbs.len()) {
            let a = self.limbs.get(i).copied().unwrap_or(0) as u128;
            let b = other.limbs.get(i).copied().unwrap_or(0) as u128;
            let s = a + b + carry as u128;
            out.push(s as u64);
            carry = (s >> 64) as u64;
        }
        if carry != 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// Subtraction.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    #[must_use]
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(self.cmp(other) != Ordering::Less, "big integer underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i128;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i] as i128;
            let b = other.limbs.get(i).copied().unwrap_or(0) as i128;
            let mut d = a - b - borrow;
            if d < 0 {
                d += 1i128 << 64;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(d as u64);
        }
        BigUint::from_limbs(out)
    }

    /// Schoolbook multiplication.
    #[must_use]
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }

    /// Left shift by `k` bits.
    #[must_use]
    pub fn shl(&self, k: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = k / 64;
        let bit_shift = k % 64;
        let mut out = vec![0u64; self.limbs.len() + limb_shift + 1];
        for (i, &l) in self.limbs.iter().enumerate() {
            out[i + limb_shift] |= l << bit_shift;
            if bit_shift > 0 {
                out[i + limb_shift + 1] |= l >> (64 - bit_shift);
            }
        }
        BigUint::from_limbs(out)
    }

    /// Right shift by `k` bits.
    #[must_use]
    pub fn shr(&self, k: usize) -> BigUint {
        let limb_shift = k / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = k % 64;
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        for i in limb_shift..self.limbs.len() {
            let mut v = self.limbs[i] >> bit_shift;
            if bit_shift > 0 && i + 1 < self.limbs.len() {
                v |= self.limbs[i + 1] << (64 - bit_shift);
            }
            out.push(v);
        }
        BigUint::from_limbs(out)
    }

    /// Quotient and remainder (binary shift-subtract long division).
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    #[must_use]
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self.cmp(divisor) == Ordering::Less {
            return (BigUint::zero(), self.clone());
        }
        let shift = self.bits() - divisor.bits();
        let mut rem = self.clone();
        let mut quo = vec![0u64; shift / 64 + 1];
        let mut d = divisor.shl(shift);
        for i in (0..=shift).rev() {
            if rem.cmp(&d) != Ordering::Less {
                rem = rem.sub(&d);
                quo[i / 64] |= 1u64 << (i % 64);
            }
            d = d.shr(1);
        }
        (BigUint::from_limbs(quo), rem)
    }

    /// `self mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    #[must_use]
    pub fn rem(&self, m: &BigUint) -> BigUint {
        self.div_rem(m).1
    }

    /// Modular inverse via the extended Euclidean algorithm.
    ///
    /// Returns `None` if `gcd(self, m) != 1`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero or one.
    #[must_use]
    pub fn mod_inverse(&self, m: &BigUint) -> Option<BigUint> {
        assert!(m.bits() > 1, "modulus must exceed one");
        // Iterative extended Euclid with signed coefficients tracked as
        // (sign, magnitude).
        let mut r0 = m.clone();
        let mut r1 = self.rem(m);
        let mut t0: (bool, BigUint) = (false, BigUint::zero()); // coeff of m
        let mut t1: (bool, BigUint) = (false, BigUint::one()); // coeff of self
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            // t2 = t0 - q*t1
            let qt1 = q.mul(&t1.1);
            let t2 = signed_sub(&t0, &(t1.0, qt1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if r0.cmp(&BigUint::one()) != Ordering::Equal {
            return None;
        }
        // t0 is the inverse coefficient; bring into [0, m).
        let (neg, mag) = t0;
        let mag = mag.rem(m);
        Some(if neg && !mag.is_zero() { m.sub(&mag) } else { mag })
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &BigUint) -> Ordering {
        // Limbs are normalized (no leading zeros), so length orders first.
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &BigUint) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// `a - b` on (sign, magnitude) pairs.
fn signed_sub(a: &(bool, BigUint), b: &(bool, BigUint)) -> (bool, BigUint) {
    match (a.0, b.0) {
        (an, bn) if an == bn => {
            // same sign: magnitude subtraction, sign flips if |b| > |a|
            if a.1.cmp(&b.1) != Ordering::Less {
                (an, a.1.sub(&b.1))
            } else {
                (!an, b.1.sub(&a.1))
            }
        }
        // a - (-b) = a + b with a's sign; (-a) - b = -(a + b)
        (an, _) => (an, a.1.add(&b.1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn basic_arithmetic() {
        let a = BigUint::from_u64(u64::MAX);
        let b = BigUint::from_u64(1);
        let s = a.add(&b);
        assert_eq!(s.limbs(), &[0, 1]);
        assert_eq!(s.sub(&b), a);
        assert_eq!(s.bits(), 65);
    }

    #[test]
    fn mul_known() {
        let a = BigUint::from_u128(u128::MAX);
        let sq = a.mul(&a);
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        let expect = BigUint::one().shl(256).sub(&BigUint::one().shl(129)).add(&BigUint::one());
        assert_eq!(sq, expect);
    }

    #[test]
    fn div_rem_known() {
        let a = BigUint::from_u64(1000);
        let b = BigUint::from_u64(7);
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.low_u64(), 142);
        assert_eq!(r.low_u64(), 6);
    }

    #[test]
    fn bytes_round_trip() {
        let a = BigUint::from_u128(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
        assert_eq!(BigUint::from_bytes_le(&a.to_bytes_le()), a);
        assert!(BigUint::zero().to_bytes_le().is_empty());
    }

    #[test]
    fn random_bits_has_exact_length() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for bits in [1usize, 7, 64, 65, 512] {
            assert_eq!(BigUint::random_bits(bits, &mut rng).bits(), bits);
        }
    }

    #[test]
    fn random_below_respects_bound() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let bound = BigUint::from_u64(1000);
        for _ in 0..50 {
            assert!(BigUint::random_below(&bound, &mut rng).cmp(&bound) == Ordering::Less);
        }
    }

    #[test]
    fn mod_inverse_known() {
        let a = BigUint::from_u64(3);
        let m = BigUint::from_u64(7);
        assert_eq!(a.mod_inverse(&m).expect("coprime").low_u64(), 5); // 3·5 = 15 ≡ 1
        let even = BigUint::from_u64(4);
        let m8 = BigUint::from_u64(8);
        assert!(even.mod_inverse(&m8).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn add_sub_round_trip(a: u128, b: u128) {
            let (x, y) = (BigUint::from_u128(a), BigUint::from_u128(b));
            prop_assert_eq!(x.add(&y).sub(&y), x);
        }

        #[test]
        fn mul_matches_u128(a: u64, b: u64) {
            let p = BigUint::from_u64(a).mul(&BigUint::from_u64(b));
            prop_assert_eq!(p, BigUint::from_u128(a as u128 * b as u128));
        }

        #[test]
        fn div_rem_invariant(a: u128, b in 1u128..) {
            let (x, y) = (BigUint::from_u128(a), BigUint::from_u128(b));
            let (q, r) = x.div_rem(&y);
            prop_assert!(r.cmp(&y) == Ordering::Less);
            prop_assert_eq!(q.mul(&y).add(&r), x);
        }

        #[test]
        fn shifts_invert(a: u128, k in 0usize..100) {
            let x = BigUint::from_u128(a);
            prop_assert_eq!(x.shl(k).shr(k), x);
        }

        #[test]
        fn mod_inverse_correct(a in 1u64.., seed: u64) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let m = BigUint::random_bits(128, &mut rng);
            let x = BigUint::from_u64(a);
            if let Some(inv) = x.mod_inverse(&m) {
                prop_assert_eq!(x.mul(&inv).rem(&m), BigUint::one());
            }
        }

        #[test]
        fn bit_accessor_matches_shift(a: u128, i in 0usize..128) {
            let x = BigUint::from_u128(a);
            prop_assert_eq!(x.bit(i), (a >> i) & 1 == 1);
        }
    }
}
