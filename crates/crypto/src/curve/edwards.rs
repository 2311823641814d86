//! Twisted-Edwards points in extended coordinates, with the cached,
//! projective and completed forms the scalar-multiplication kernels move
//! through.

use super::field::Fe;
use super::hex_to_le_bytes;
use std::sync::OnceLock;

/// Affine x of the ed25519 base point (big-endian hex).
const BASE_X_HEX: &str = "216936d3cd6e53fec0a4e231fdd6dc5c692cc7609525a7b2c9562d608f25d51a";
/// Affine y of the ed25519 base point (big-endian hex).
const BASE_Y_HEX: &str = "6666666666666666666666666666666666666666666666666666666666666658";
/// The prime group order ℓ (big-endian hex).
const ORDER_HEX: &str = "1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ed";

/// The curve constant d = −121665/121666 mod p.
const D: Fe =
    Fe([929955233495203, 466365720129213, 1662059464998953, 2033849074728123, 1442794654840575]);
/// 2d mod p, the factor the addition formulas apply to `T₁·T₂`.
const D2: Fe =
    Fe([1859910466990425, 932731440258426, 1072319116312658, 1815898335770999, 633789495995903]);

/// Error returned when a received 64-byte encoding is not a curve point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidPointError;

impl std::fmt::Display for InvalidPointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "encoding does not describe a point on the curve")
    }
}

impl std::error::Error for InvalidPointError {}

/// A point on the ed25519 twisted-Edwards curve in extended coordinates
/// `(X : Y : Z : T)` with `x = X/Z`, `y = Y/Z`, `T = XY/Z`.
///
/// ```
/// use abnn2_crypto::curve::EdwardsPoint;
/// let b = EdwardsPoint::base();
/// let two_b = b.add(&b);
/// assert_eq!(two_b, b.double());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct EdwardsPoint {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

impl EdwardsPoint {
    /// The neutral element (0, 1).
    #[must_use]
    pub fn identity() -> Self {
        EdwardsPoint { x: Fe::ZERO, y: Fe::ONE, z: Fe::ONE, t: Fe::ZERO }
    }

    /// The standard base point of prime order ℓ.
    #[must_use]
    pub fn base() -> Self {
        static B: OnceLock<EdwardsPoint> = OnceLock::new();
        *B.get_or_init(|| {
            let x = Fe::from_bytes(&hex_to_le_bytes(BASE_X_HEX));
            let y = Fe::from_bytes(&hex_to_le_bytes(BASE_Y_HEX));
            let p = EdwardsPoint { x, y, z: Fe::ONE, t: x.mul(&y) };
            assert!(p.is_on_curve(), "hardcoded base point must lie on the curve");
            p
        })
    }

    /// The group order ℓ as little-endian bytes (useful for tests and for
    /// sampling scalars below the order).
    #[must_use]
    pub fn order_le_bytes() -> [u8; 32] {
        hex_to_le_bytes(ORDER_HEX)
    }

    /// Point addition (complete for a = −1).
    #[must_use]
    pub fn add(&self, rhs: &EdwardsPoint) -> EdwardsPoint {
        self.add_cached(&rhs.to_cached()).to_extended()
    }

    /// Point doubling.
    #[must_use]
    pub fn double(&self) -> EdwardsPoint {
        self.to_projective().double().to_extended()
    }

    /// Point negation.
    #[must_use]
    pub fn neg(&self) -> EdwardsPoint {
        EdwardsPoint { x: self.x.neg(), y: self.y, z: self.z, t: self.t.neg() }
    }

    /// `self - rhs`.
    #[must_use]
    pub fn sub(&self, rhs: &EdwardsPoint) -> EdwardsPoint {
        self.add_cached(&rhs.to_cached().neg()).to_extended()
    }

    /// Scalar multiplication by a little-endian 256-bit scalar, total over
    /// all 256-bit values: a signed radix-16 fixed window over eight cached
    /// multiples of `self` — 256 doublings, of which only every fourth
    /// computes `T`, and at most 65 additions. Not constant-time: the
    /// table is indexed by secret digits (see the crate security note).
    #[must_use]
    pub fn scalar_mul(&self, scalar_le: &[u8; 32]) -> EdwardsPoint {
        let multiples = self.cached_multiples();
        let digits = radix16(scalar_le);
        let mut acc = if digits[64] == 0 { EdwardsPoint::identity() } else { *self };
        for &digit in digits[..64].iter().rev() {
            let mut p = acc.to_projective();
            for _ in 0..3 {
                p = p.double().to_projective();
            }
            acc = p.double().to_extended().add_digit(&multiples, digit);
        }
        acc
    }

    /// The cached multiples `[1·P, 2·P, …, 8·P]` a radix-16 digit selects
    /// from.
    fn cached_multiples(&self) -> [CachedPoint; 8] {
        let one = self.to_cached();
        let mut multiples = [one; 8];
        let mut acc = *self;
        for slot in &mut multiples[1..] {
            acc = acc.add_cached(&one).to_extended();
            *slot = acc.to_cached();
        }
        multiples
    }

    /// `self + digit·P` for a radix-16 digit in `−8..=8` and the cached
    /// multiples of `P`.
    fn add_digit(&self, multiples: &[CachedPoint; 8], digit: i8) -> EdwardsPoint {
        let index = usize::from(digit.unsigned_abs());
        match digit.signum() {
            1 => self.add_cached(&multiples[index - 1]).to_extended(),
            -1 => self.add_cached(&multiples[index - 1].neg()).to_extended(),
            _ => *self,
        }
    }

    fn to_cached(self) -> CachedPoint {
        CachedPoint {
            y_plus_x: self.y.add(&self.x),
            y_minus_x: self.y.sub(&self.x),
            z: self.z,
            t2d: self.t.mul(&D2),
        }
    }

    fn to_projective(self) -> ProjectivePoint {
        ProjectivePoint { x: self.x, y: self.y, z: self.z }
    }

    fn add_cached(&self, rhs: &CachedPoint) -> CompletedPoint {
        let pp = self.y.add(&self.x).mul(&rhs.y_plus_x);
        let mm = self.y.sub(&self.x).mul(&rhs.y_minus_x);
        let tt2d = self.t.mul(&rhs.t2d);
        let zz = self.z.mul(&rhs.z);
        let zz2 = zz.add(&zz);
        CompletedPoint { x: pp.sub(&mm), y: pp.add(&mm), z: zz2.add(&tt2d), t: zz2.sub(&tt2d) }
    }

    /// Uncompressed affine encodings of a whole slice, byte-identical to
    /// [`to_bytes`](Self::to_bytes) on each point but sharing one field
    /// inversion between them.
    #[must_use]
    pub fn batch_to_bytes(points: &[EdwardsPoint]) -> Vec<[u8; 64]> {
        let mut zinvs: Vec<Fe> = points.iter().map(|p| p.z).collect();
        Fe::batch_invert(&mut zinvs);
        points.iter().zip(&zinvs).map(|(p, zinv)| p.encode_with(zinv)).collect()
    }

    fn encode_with(&self, zinv: &Fe) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.x.mul(zinv).to_bytes());
        out[32..].copy_from_slice(&self.y.mul(zinv).to_bytes());
        out
    }

    /// Checks the curve equation `(−X² + Y²)·Z² = Z⁴ + d·X²·Y²` and the
    /// extended-coordinate invariant `T·Z = X·Y`.
    #[must_use]
    pub fn is_on_curve(&self) -> bool {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let lhs = yy.sub(&xx).mul(&zz);
        let rhs = zz.square().add(&D.mul(&xx).mul(&yy));
        lhs == rhs && self.t.mul(&self.z) == self.x.mul(&self.y)
    }

    /// Uncompressed affine encoding `x || y` (64 bytes).
    #[must_use]
    pub fn to_bytes(&self) -> [u8; 64] {
        self.encode_with(&self.z.invert())
    }

    /// Decodes and validates an uncompressed encoding.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidPointError`] if the coordinates do not satisfy the
    /// curve equation — a mandatory check when receiving points from the
    /// other (possibly misbehaving) party.
    pub fn from_bytes(bytes: &[u8; 64]) -> Result<EdwardsPoint, InvalidPointError> {
        let x = Fe::from_bytes(bytes[..32].try_into().expect("32 bytes"));
        let y = Fe::from_bytes(bytes[32..].try_into().expect("32 bytes"));
        let p = EdwardsPoint { x, y, z: Fe::ONE, t: x.mul(&y) };
        if p.is_on_curve() {
            Ok(p)
        } else {
            Err(InvalidPointError)
        }
    }
}

impl PartialEq for EdwardsPoint {
    fn eq(&self, other: &Self) -> bool {
        // (X1/Z1 == X2/Z2) && (Y1/Z1 == Y2/Z2) via cross-multiplication.
        self.x.mul(&other.z) == other.x.mul(&self.z) && self.y.mul(&other.z) == other.y.mul(&self.z)
    }
}

impl Eq for EdwardsPoint {}

/// A point prepared as the right-hand side of many additions:
/// `(Y+X, Y−X, Z, 2dT)`, which saves the addition formulas one
/// multiplication and two additions per use.
#[derive(Debug, Clone, Copy)]
struct CachedPoint {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

impl CachedPoint {
    /// The cached form of `−P`: `Y+X` and `Y−X` trade places and `2dT`
    /// changes sign.
    fn neg(&self) -> CachedPoint {
        CachedPoint {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z: self.z,
            t2d: self.t2d.neg(),
        }
    }
}

/// `(X : Y : Z)` without `T`: all a doubling reads.
#[derive(Debug, Clone, Copy)]
struct ProjectivePoint {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// The unmultiplied output `((X:Z), (Y:T))` of an addition or doubling;
/// three multiplications finish it as a [`ProjectivePoint`], four as an
/// [`EdwardsPoint`].
#[derive(Debug, Clone, Copy)]
struct CompletedPoint {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

impl ProjectivePoint {
    fn double(&self) -> CompletedPoint {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let xy2 = self.x.add(&self.y).square();
        let yy_plus_xx = yy.add(&xx);
        let yy_minus_xx = yy.sub(&xx);
        CompletedPoint {
            x: xy2.sub(&yy_plus_xx),
            y: yy_plus_xx,
            z: yy_minus_xx,
            t: zz.add(&zz).sub(&yy_minus_xx),
        }
    }
}

impl CompletedPoint {
    fn to_projective(self) -> ProjectivePoint {
        ProjectivePoint { x: self.x.mul(&self.t), y: self.y.mul(&self.z), z: self.z.mul(&self.t) }
    }

    fn to_extended(self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.mul(&self.t),
            y: self.y.mul(&self.z),
            z: self.z.mul(&self.t),
            t: self.x.mul(&self.y),
        }
    }
}

/// Recodes a little-endian 256-bit scalar as 65 signed radix-16 digits,
/// `Σ dᵢ·16ⁱ` with `d₀..d₆₃ ∈ −8..=7` and a final carry `d₆₄ ∈ {0, 1}`.
fn radix16(scalar_le: &[u8; 32]) -> [i8; 65] {
    let mut digits = [0i8; 65];
    for (i, &byte) in scalar_le.iter().enumerate() {
        digits[2 * i] = (byte & 15) as i8;
        digits[2 * i + 1] = (byte >> 4) as i8;
    }
    for i in 0..64 {
        let carry = (digits[i] + 8) >> 4;
        digits[i] -= carry << 4;
        digits[i + 1] += carry;
    }
    digits
}

/// Precomputed multiples `j·16ⁱ·P` (`j` in 1..=8, `i` in 0..64, plus
/// `16⁶⁴·P` for the recoding's final carry) of one point: ≈ 80 KB that
/// turn a scalar multiplication into at most 65 additions and no
/// doublings. Worth building for any point multiplied more than a few
/// times; [`PointTable::base`] holds the base point's for the process.
/// Lookups are indexed by secret digits — not constant-time.
#[derive(Debug, Clone)]
pub struct PointTable {
    rows: Vec<[CachedPoint; 8]>,
    top: CachedPoint,
}

impl PointTable {
    /// Builds the table for `point` (about as much work as three
    /// [`EdwardsPoint::scalar_mul`]s).
    #[must_use]
    pub fn new(point: &EdwardsPoint) -> PointTable {
        let mut rows = Vec::with_capacity(64);
        let mut p = *point;
        for _ in 0..64 {
            rows.push(p.cached_multiples());
            p = p.double().double().double().double();
        }
        PointTable { rows, top: p.to_cached() }
    }

    /// The process-wide table of the base point, built on first use.
    #[must_use]
    pub fn base() -> &'static PointTable {
        static TABLE: OnceLock<PointTable> = OnceLock::new();
        TABLE.get_or_init(|| PointTable::new(&EdwardsPoint::base()))
    }

    /// `scalar · P` for the table's point, total over all 256-bit scalars.
    #[must_use]
    pub fn mul(&self, scalar_le: &[u8; 32]) -> EdwardsPoint {
        let digits = radix16(scalar_le);
        let mut acc = EdwardsPoint::identity();
        for (row, &digit) in self.rows.iter().zip(&digits[..64]) {
            acc = acc.add_digit(row, digit);
        }
        if digits[64] != 0 {
            acc = acc.add_cached(&self.top).to_extended();
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The RFC 8032 §5.1.4 addition this module used before the cached
    /// forms, kept as the oracle's building block.
    fn add_rfc(p: &EdwardsPoint, q: &EdwardsPoint) -> EdwardsPoint {
        let a = p.y.sub(&p.x).mul(&q.y.sub(&q.x));
        let b = p.y.add(&p.x).mul(&q.y.add(&q.x));
        let c = p.t.mul(&D.add(&D)).mul(&q.t);
        let d = p.z.add(&p.z).mul(&q.z);
        let (e, f, g, h) = (b.sub(&a), d.sub(&c), d.add(&c), b.add(&a));
        EdwardsPoint { x: e.mul(&f), y: g.mul(&h), z: f.mul(&g), t: e.mul(&h) }
    }

    /// RFC 8032 §5.1.4 doubling, likewise.
    fn double_rfc(p: &EdwardsPoint) -> EdwardsPoint {
        let a = p.x.square();
        let b = p.y.square();
        let c = p.z.square().add(&p.z.square());
        let h = a.add(&b);
        let e = h.sub(&p.x.add(&p.y).square());
        let g = a.sub(&b);
        let f = c.add(&g);
        EdwardsPoint { x: e.mul(&f), y: g.mul(&h), z: f.mul(&g), t: e.mul(&h) }
    }

    /// Bit-at-a-time double-and-add: the scalar multiplication every
    /// kernel replaced, and the reference they are all checked against.
    fn scalar_mul_ref(p: &EdwardsPoint, scalar_le: &[u8; 32]) -> EdwardsPoint {
        let mut acc = EdwardsPoint::identity();
        for bit in (0..256).rev() {
            acc = double_rfc(&acc);
            if (scalar_le[bit / 8] >> (bit % 8)) & 1 == 1 {
                acc = add_rfc(&acc, p);
            }
        }
        acc
    }

    /// Scalars where the radix-16 recoding or the group order could bite:
    /// 0, 1, ℓ−1, ℓ, 2²⁵²−1, 2²⁵², all-0xFF.
    fn edge_scalars() -> Vec<[u8; 32]> {
        let order = EdwardsPoint::order_le_bytes();
        let mut one = [0u8; 32];
        one[0] = 1;
        let mut order_minus_one = order;
        order_minus_one[0] -= 1;
        let mut below_2_252 = [0xffu8; 32];
        below_2_252[31] = 0x0f;
        let mut at_2_252 = [0u8; 32];
        at_2_252[31] = 0x10;
        vec![[0u8; 32], one, order_minus_one, order, below_2_252, at_2_252, [0xffu8; 32]]
    }

    fn random_scalar(seed: u64) -> [u8; 32] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut s = [0u8; 32];
        rng.fill(&mut s);
        s[31] &= 0x0f; // stay well below 2^252 for clean group-order behaviour
        s
    }

    #[test]
    fn base_point_is_on_curve() {
        assert!(EdwardsPoint::base().is_on_curve());
    }

    #[test]
    fn identity_laws() {
        let b = EdwardsPoint::base();
        let id = EdwardsPoint::identity();
        assert_eq!(b.add(&id), b);
        assert_eq!(id.add(&b), b);
        assert_eq!(b.sub(&b), id);
    }

    #[test]
    fn double_matches_add() {
        let b = EdwardsPoint::base();
        assert_eq!(b.double(), b.add(&b));
        let four = b.double().double();
        assert_eq!(four, b.add(&b).add(&b).add(&b));
        assert!(four.is_on_curve());
    }

    #[test]
    fn order_annihilates_base() {
        let b = EdwardsPoint::base();
        let order = EdwardsPoint::order_le_bytes();
        assert_eq!(b.scalar_mul(&order), EdwardsPoint::identity());
    }

    #[test]
    fn scalar_mul_distributes() {
        let b = EdwardsPoint::base();
        let s1 = random_scalar(1);
        let s2 = random_scalar(2);
        // (s1)B + (s2)B == (s1+s2)B  (no overflow: both < 2^252, sum < 2^253)
        let mut sum = [0u8; 32];
        let mut carry = 0u16;
        for i in 0..32 {
            let v = s1[i] as u16 + s2[i] as u16 + carry;
            sum[i] = v as u8;
            carry = v >> 8;
        }
        assert_eq!(b.scalar_mul(&s1).add(&b.scalar_mul(&s2)), b.scalar_mul(&sum));
    }

    #[test]
    fn diffie_hellman_agreement() {
        // a(bB) == b(aB) — the property the base OT relies on.
        let b = EdwardsPoint::base();
        let sa = random_scalar(10);
        let sb = random_scalar(11);
        let shared1 = b.scalar_mul(&sa).scalar_mul(&sb);
        let shared2 = b.scalar_mul(&sb).scalar_mul(&sa);
        assert_eq!(shared1, shared2);
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = EdwardsPoint::base().scalar_mul(&random_scalar(3));
        let q = EdwardsPoint::from_bytes(&p.to_bytes()).expect("valid point");
        assert_eq!(p, q);
    }

    #[test]
    fn invalid_point_rejected() {
        let mut bytes = EdwardsPoint::base().to_bytes();
        bytes[0] ^= 1; // corrupt x
        assert_eq!(EdwardsPoint::from_bytes(&bytes), Err(InvalidPointError));
    }

    #[test]
    fn curve_constants_match_their_definition() {
        assert_eq!(D.mul(&Fe::from_u64(121666)), Fe::from_u64(121665).neg());
        assert_eq!(D2, D.add(&D));
    }

    #[test]
    fn kernels_match_double_and_add_on_edge_scalars() {
        let p = EdwardsPoint::base().scalar_mul(&random_scalar(5));
        let table = PointTable::new(&p);
        for s in edge_scalars() {
            let expect = scalar_mul_ref(&p, &s);
            assert_eq!(p.scalar_mul(&s), expect, "windowed, scalar {s:02x?}");
            assert_eq!(table.mul(&s), expect, "table, scalar {s:02x?}");
            assert_eq!(PointTable::base().mul(&s), scalar_mul_ref(&EdwardsPoint::base(), &s));
        }
    }

    /// RFC 8032 §7.1 TEST 1: the public key is `a·B` for the clamped lower
    /// half `a` of SHA-512(secret key), encoded as `y` with the parity of
    /// `x` in the top bit.
    #[test]
    fn rfc8032_test1_public_key() {
        let a = hex_to_le_bytes("4fe94d9006f020a5a3c080d96827fffd3c010ac0f12e7a42cb33284f86837c30");
        let public =
            hex_to_le_bytes("1a5107f7681a02af2523a6daf372e10e3a0764c9d3fe4bd5b70ab18201985ad7");
        for point in [EdwardsPoint::base().scalar_mul(&a), PointTable::base().mul(&a)] {
            let bytes = point.to_bytes();
            assert_eq!(bytes[32..], public, "y of a·B (the key's top bit is clear)");
            assert_eq!(bytes[0] & 1, public[31] >> 7, "x parity of a·B");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn scalar_mul_matches_double_and_add(seed: u64, s: [u8; 32]) {
            let p = EdwardsPoint::base().scalar_mul(&random_scalar(seed));
            prop_assert_eq!(p.scalar_mul(&s), scalar_mul_ref(&p, &s));
        }

        #[test]
        fn base_table_matches_double_and_add(s: [u8; 32]) {
            let expect = scalar_mul_ref(&EdwardsPoint::base(), &s);
            prop_assert_eq!(PointTable::base().mul(&s), expect);
        }

        #[test]
        fn batch_encoding_matches_per_point(seed: u64, len in 0usize..6) {
            let mut points: Vec<EdwardsPoint> = (0..len as u64)
                .map(|i| EdwardsPoint::base().scalar_mul(&random_scalar(seed ^ i)))
                .collect();
            points.push(EdwardsPoint::identity());
            let each: Vec<[u8; 64]> = points.iter().map(EdwardsPoint::to_bytes).collect();
            prop_assert_eq!(EdwardsPoint::batch_to_bytes(&points), each);
        }
    }

    #[test]
    fn negation_cancels() {
        let p = EdwardsPoint::base().scalar_mul(&random_scalar(4));
        assert_eq!(p.add(&p.neg()), EdwardsPoint::identity());
        assert!(p.neg().is_on_curve());
    }
}
