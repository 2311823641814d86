//! Pure-integer fixed-point reference operators for the nonlinear op family.
//!
//! Every function here is the *plaintext oracle* for a garbled-circuit
//! builder in `abnn2-gc` (`circuits::{softmax,gelu,layernorm}_*`): the two
//! sides implement the identical bit-level wrapping algorithm over
//! `ring.bits()`-wide words, so secure evaluation is bit-exact against this
//! module by construction, regardless of overflow. None of these functions
//! use floating point.
//!
//! Conventions shared with the circuits:
//!
//! * values are ring residues; "signed" means the two's-complement lift,
//! * `f` is the activation fraction-bit count (`QuantConfig::frac_bits`),
//! * division by zero yields the all-ones word (non-restoring division
//!   with a zero divisor never drives its remainder negative, so it sets
//!   every quotient bit),
//! * `isqrt` is floor-sqrt of the *unsigned* lift; LayerNorm calls it on
//!   `var + 1` so the divisor is always positive.

use crate::ring::Ring;

/// Arithmetic (sign-extending) right shift by `k` of the signed lift of `v`.
///
/// This is the exact-truncation primitive: inside a garbled circuit it is
/// free rewiring (`sar_word`), and the executors only ever truncate through
/// it so shares stay bit-exact.
pub fn sar(ring: &Ring, v: u64, k: u32) -> u64 {
    if k == 0 {
        return ring.reduce(v);
    }
    let bits = ring.bits();
    let k = k.min(bits - 1);
    // Sign-extend the ring value to 64 bits, shift, reduce.
    let shifted = (ring.to_i64(v)) >> k;
    ring.from_i64(shifted)
}

/// Left shift by `k` with zero fill, wrapping in the ring.
pub fn shl(ring: &Ring, v: u64, k: u32) -> u64 {
    if k >= ring.bits() {
        return 0;
    }
    ring.reduce(v << k)
}

/// `max(v, 0)` under the signed interpretation.
pub fn relu(ring: &Ring, v: u64) -> u64 {
    if ring.is_negative(v) {
        0
    } else {
        ring.reduce(v)
    }
}

/// Signed maximum of two ring values.
pub fn max_signed(ring: &Ring, a: u64, b: u64) -> u64 {
    if ring.to_i64(a) >= ring.to_i64(b) {
        ring.reduce(a)
    } else {
        ring.reduce(b)
    }
}

/// Clamp `v` into `[lo, hi]` under the signed interpretation. `lo` and `hi`
/// are ring residues with `lo ≤ hi` as signed values.
pub fn clamp(ring: &Ring, v: u64, lo: u64, hi: u64) -> u64 {
    let vi = ring.to_i64(v);
    if vi < ring.to_i64(lo) {
        ring.reduce(lo)
    } else if vi > ring.to_i64(hi) {
        ring.reduce(hi)
    } else {
        ring.reduce(v)
    }
}

/// Unsigned `ring.bits()`-wide division. A zero divisor yields the all-ones
/// word, matching non-restoring division in the circuit (subtracting 0
/// never makes the remainder negative, so every quotient bit is set).
pub fn udiv(ring: &Ring, x: u64, y: u64) -> u64 {
    let x = ring.reduce(x);
    let y = ring.reduce(y);
    x.checked_div(y).unwrap_or_else(|| ring.mask())
}

/// Signed division with truncation toward zero, as a sign/magnitude wrapper
/// around [`udiv`]. The divisor is interpreted *unsigned* (LayerNorm's σ is
/// always positive); only the dividend carries a sign.
pub fn sdiv(ring: &Ring, x: u64, y: u64) -> u64 {
    let neg = ring.is_negative(x);
    let mag = if neg { ring.neg(x) } else { ring.reduce(x) };
    let q = udiv(ring, mag, y);
    if neg {
        ring.neg(q)
    } else {
        q
    }
}

/// Floor square root of the unsigned lift of `x`.
pub fn isqrt(ring: &Ring, x: u64) -> u64 {
    let x = ring.reduce(x);
    if x < 2 {
        return x;
    }
    // Digit-by-digit (base 4) method: same algorithm the circuit unrolls.
    let mut rem: u64 = 0;
    let mut root: u64 = 0;
    let half = ring.bits().div_ceil(2);
    for i in (0..half).rev() {
        let pair = (x >> (2 * i)) & 0b11;
        rem = (rem << 2) | pair;
        let trial = (root << 2) | 1;
        root <<= 1;
        if rem >= trial {
            rem -= trial;
            root |= 1;
        }
    }
    root
}

/// Positive-range exponential approximation `e^u ≈ ((1 + u/4)⁺)⁴` for
/// `u ≤ 0`, at `f` fraction bits. Returns a value in `[0, 2^f]`.
///
/// Softmax only ever evaluates the exponential at `u = v − max(v) ≤ 0`, so
/// this fourth-order limit approximation is monotone, hits `2^f` exactly at
/// `u = 0`, and decays to 0 for `u ≤ −4`.
pub fn exp_pos(ring: &Ring, f: u32, u: u64) -> u64 {
    let one = shl(ring, 1, f);
    let t = relu(ring, ring.add(one, sar(ring, u, 2)));
    let t2 = sar(ring, ring.mul(t, t), f);
    sar(ring, ring.mul(t2, t2), f)
}

/// Fixed-point softmax over one row of logits at `f` fraction bits.
///
/// `p_j = (e_j << f) / Σ e` with `e_j = exp_pos(v_j − max v)`. Outputs are
/// unsigned probabilities in `[0, 2^f]` at `f` fraction bits.
pub fn softmax_row(ring: &Ring, f: u32, row: &[u64]) -> Vec<u64> {
    assert!(!row.is_empty(), "softmax row must be non-empty");
    let mut m = ring.reduce(row[0]);
    for &v in &row[1..] {
        m = max_signed(ring, v, m);
    }
    let es: Vec<u64> = row.iter().map(|&v| exp_pos(ring, f, ring.sub(v, m))).collect();
    let mut sum = 0u64;
    for &e in &es {
        sum = ring.add(sum, e);
    }
    es.iter().map(|&e| udiv(ring, shl(ring, e, f), sum)).collect()
}

/// Fixed-point GELU via the hard-sigmoid approximation
/// `gelu(v) ≈ v · clamp((v + 3) / 6, 0, 1)` at `f` fraction bits.
pub fn gelu(ring: &Ring, f: u32, v: u64) -> u64 {
    let one = shl(ring, 1, f);
    let three = shl(ring, 3, f);
    // round(2^f / 6) as a public constant; the circuit bakes the same value.
    let inv6 = ((1u64 << f) + 3) / 6;
    let s = sar(ring, ring.mul(ring.add(v, three), inv6), f);
    let s = clamp(ring, s, 0, one);
    sar(ring, ring.mul(v, s), f)
}

/// Fixed-point LayerNorm over one token of `d` values (`d` a power of two).
///
/// Inputs arrive as two addends at different scales: `x_i = (a_i >> shift_a)
/// + (b_i >> shift_b)` (the residual-add is folded into the op). Then
/// `y_i = ((x_i − μ) << f) / isqrt(var + 1)` with `μ` and `var` computed by
/// shift-division (hence the power-of-two `d`).
pub fn layernorm_token(
    ring: &Ring,
    f: u32,
    a: &[u64],
    b: &[u64],
    shift_a: u32,
    shift_b: u32,
) -> Vec<u64> {
    let d = a.len();
    assert_eq!(d, b.len(), "layernorm operands must have equal length");
    assert!(d.is_power_of_two(), "layernorm width must be a power of two");
    let log2d = d.trailing_zeros();
    let xs: Vec<u64> = a
        .iter()
        .zip(b)
        .map(|(&ai, &bi)| ring.add(sar(ring, ai, shift_a), sar(ring, bi, shift_b)))
        .collect();
    let mut sum = 0u64;
    for &x in &xs {
        sum = ring.add(sum, x);
    }
    let mu = sar(ring, sum, log2d);
    let cs: Vec<u64> = xs.iter().map(|&x| ring.sub(x, mu)).collect();
    let mut sq = 0u64;
    for &c in &cs {
        sq = ring.add(sq, ring.mul(c, c));
    }
    let var = sar(ring, sq, log2d);
    let sigma = isqrt(ring, ring.add(var, 1));
    cs.iter().map(|&c| sdiv(ring, shl(ring, c, f), sigma)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r16() -> Ring {
        Ring::new(16)
    }

    #[test]
    fn sar_matches_signed_shift() {
        let ring = r16();
        for v in [-300i64, -1, 0, 1, 511, -32768, 32767] {
            for k in [0u32, 1, 3, 6, 15] {
                assert_eq!(sar(&ring, ring.from_i64(v), k), ring.from_i64(v >> k));
            }
        }
        assert_eq!(ring.to_i64(sar(&ring, ring.from_i64(-8), 2)), -2);
        assert_eq!(ring.to_i64(sar(&ring, ring.from_i64(7), 1)), 3);
        assert_eq!(ring.to_i64(sar(&ring, ring.from_i64(-7), 1)), -4); // floor
    }

    #[test]
    fn udiv_by_zero_is_all_ones() {
        let ring = r16();
        assert_eq!(udiv(&ring, 1234, 0), ring.mask());
    }

    #[test]
    fn isqrt_is_floor_sqrt_exhaustive_16bit() {
        let ring = r16();
        for x in 0u64..=0xFFFF {
            let r = isqrt(&ring, x);
            assert!(r * r <= x && (r + 1) * (r + 1) > x, "isqrt({x}) = {r}");
        }
    }

    #[test]
    fn exp_pos_endpoints() {
        let ring = r16();
        let f = 6;
        // e^0 = 1.0 exactly.
        assert_eq!(exp_pos(&ring, f, 0), 1 << f);
        // Deeply negative input decays to 0.
        assert_eq!(exp_pos(&ring, f, ring.from_i64(-8 << f)), 0);
    }

    #[test]
    fn softmax_uniform_row_is_uniform() {
        let ring = r16();
        let f = 6;
        let row = vec![ring.from_i64(5 << f); 4];
        let p = softmax_row(&ring, f, &row);
        for &pi in &p {
            assert_eq!(pi, (1u64 << f) / 4);
        }
    }

    #[test]
    fn gelu_limits() {
        let ring = r16();
        let f = 6;
        // Large positive input passes through ~identity.
        let v = ring.from_i64(4 << f);
        assert_eq!(gelu(&ring, f, v), v);
        // Large negative input is killed.
        assert_eq!(gelu(&ring, f, ring.from_i64(-4 << f)), 0);
    }

    #[test]
    fn layernorm_constant_token_is_zero() {
        let ring = r16();
        let f = 6;
        let a = vec![ring.from_i64(7 << f); 4];
        let b = vec![0u64; 4];
        let y = layernorm_token(&ring, f, &a, &b, 0, 0);
        assert_eq!(y, vec![0u64; 4]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn sdiv_truncates_toward_zero(x in -2000i64..2000, y in 1u64..500) {
            let ring = r16();
            let q = sdiv(&ring, ring.from_i64(x), y);
            prop_assert_eq!(ring.to_i64(q), x / y as i64);
        }

        #[test]
        fn softmax_probs_in_range_and_nearly_normalized(
            v0 in -40i64..40, v1 in -40i64..40, v2 in -40i64..40, v3 in -40i64..40,
        ) {
            let ring = r16();
            let f = 6;
            let row: Vec<u64> = [v0, v1, v2, v3].iter().map(|&v| ring.from_i64(v << 2)).collect();
            let p = softmax_row(&ring, f, &row);
            let total: u64 = p.iter().sum();
            for &pi in &p {
                prop_assert!(pi <= 1 << f);
            }
            // Rounding loses at most 1 ulp per element.
            prop_assert!(total <= 1 << f);
            prop_assert!(total + p.len() as u64 >= 1 << f);
        }

        #[test]
        fn layernorm_output_is_mean_free(
            // Range keeps Σ(x−μ)² inside 15 bits so the ring does not wrap.
            v0 in -60i64..60, v1 in -60i64..60, v2 in -60i64..60, v3 in -60i64..60,
        ) {
            let ring = r16();
            let f = 6;
            let vs = [v0, v1, v2, v3];
            let a: Vec<u64> = vs.iter().map(|&v| ring.from_i64(v)).collect();
            let b = vec![0u64; 4];
            let y = layernorm_token(&ring, f, &a, &b, 0, 0);
            let total: i64 = y.iter().map(|&v| ring.to_i64(v)).sum();
            // Mean of outputs is ~0 up to truncation: the floor-μ leaves
            // Σc ∈ [0, d), and each division truncates at most 1 ulp.
            let sum: i64 = vs.iter().sum();
            let mu = sum >> 2;
            let var = vs.iter().map(|&x| (x - mu) * (x - mu)).sum::<i64>() >> 2;
            let sigma = isqrt(&ring, (var + 1) as u64) as i64;
            prop_assert!(total.abs() <= 4 + 3 * (1 << f) / sigma.max(1));
        }
    }
}
