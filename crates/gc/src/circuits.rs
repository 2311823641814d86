//! Ring-arithmetic circuit library.
//!
//! All words are little-endian over ℤ_{2^ℓ}. Because the ring modulus is a
//! power of two, the adder and subtractor simply drop the top carry/borrow —
//! this is exactly the paper's observation that "there will be no extra cost
//! required to complete the non-XOR gates corresponding to the modulo
//! operation".

use crate::circuit::{CircuitBuilder, WireId, Word};
use crate::Circuit;

/// ℓ-bit addition mod 2^ℓ (ℓ − 1 AND gates: the last carry is dropped).
///
/// Full-adder: `s = a ⊕ b ⊕ c`, `c' = ((a⊕c) ∧ (b⊕c)) ⊕ c`.
///
/// # Panics
///
/// Panics if the word widths differ.
pub fn add(b: &mut CircuitBuilder, x: &Word, y: &Word) -> Word {
    assert_eq!(x.bits(), y.bits(), "word width mismatch");
    let n = x.bits();
    let mut out = Vec::with_capacity(n);
    let mut carry: Option<WireId> = None;
    for i in 0..n {
        let (a, bb) = (x.0[i], y.0[i]);
        match carry {
            None => {
                out.push(b.xor(a, bb));
                if i + 1 < n {
                    carry = Some(b.and(a, bb));
                }
            }
            Some(c) => {
                let axc = b.xor(a, c);
                let s = b.xor(axc, bb);
                out.push(s);
                if i + 1 < n {
                    let bxc = b.xor(bb, c);
                    let t = b.and(axc, bxc);
                    carry = Some(b.xor(t, c));
                }
            }
        }
    }
    Word(out)
}

/// ℓ-bit subtraction mod 2^ℓ (ℓ − 1 AND gates).
///
/// Borrow recurrence: `d = a ⊕ b ⊕ bor`, `bor' = ((¬a⊕bor) ∧ (b⊕bor)) ⊕ bor`
/// (majority of ¬a, b, bor).
///
/// # Panics
///
/// Panics if the word widths differ.
pub fn sub(b: &mut CircuitBuilder, x: &Word, y: &Word) -> Word {
    assert_eq!(x.bits(), y.bits(), "word width mismatch");
    let n = x.bits();
    let mut out = Vec::with_capacity(n);
    let mut borrow: Option<WireId> = None;
    for i in 0..n {
        let (a, bb) = (x.0[i], y.0[i]);
        match borrow {
            None => {
                out.push(b.xor(a, bb));
                if i + 1 < n {
                    let na = b.inv(a);
                    borrow = Some(b.and(na, bb));
                }
            }
            Some(bor) => {
                let axb = b.xor(a, bb);
                let d = b.xor(axb, bor);
                out.push(d);
                if i + 1 < n {
                    let na = b.inv(a);
                    let naxbor = b.xor(na, bor);
                    let bxbor = b.xor(bb, bor);
                    let t = b.and(naxbor, bxbor);
                    borrow = Some(b.xor(t, bor));
                }
            }
        }
    }
    Word(out)
}

/// Per-bit multiplexer: `sel ? x : y` (ℓ AND gates).
///
/// # Panics
///
/// Panics if the word widths differ.
pub fn mux(b: &mut CircuitBuilder, sel: WireId, x: &Word, y: &Word) -> Word {
    assert_eq!(x.bits(), y.bits(), "word width mismatch");
    Word(
        x.0.iter()
            .zip(&y.0)
            .map(|(&xi, &yi)| {
                let d = b.xor(xi, yi);
                let m = b.and(sel, d);
                b.xor(m, yi)
            })
            .collect(),
    )
}

/// Bitwise AND of every bit of `x` with a single control bit (ℓ ANDs).
pub fn gate_word(b: &mut CircuitBuilder, ctrl: WireId, x: &Word) -> Word {
    Word(x.0.iter().map(|&xi| b.and(ctrl, xi)).collect())
}

/// ReLU of a two's-complement word: zero if the sign bit is set, otherwise
/// the value itself (ℓ AND gates).
pub fn relu(b: &mut CircuitBuilder, x: &Word) -> Word {
    let non_neg = b.inv(x.msb());
    gate_word(b, non_neg, x)
}

/// The sign bit (`1` iff `x < 0` under two's complement). Free.
#[must_use]
pub fn is_negative(x: &Word) -> WireId {
    x.msb()
}

/// Algorithm 2's wire frame, once: the circuit that reconstructs shared
/// values, applies a function to them, and re-shares the results under the
/// garbler's fresh masks `z₁`, so the evaluator learns only
/// `z₀ = f(y₀ + y₁) − z₁  (mod 2^ℓ)`.
///
/// The function sees `operands` shared vectors, each `groups · n_in` words
/// long, and is applied group by group: `body` is called once, receives per
/// operand the `n_in` reconstructed words of one group and returns that
/// group's `n_out` result words, and the circuit runs what it built over
/// `groups` lanes. Wire layout (the order both parties serialize their
/// shares in):
///
/// * garbler (client) inputs: for each operand all its share-1 words, then
///   all `groups · n_out` mask words `z₁`,
/// * evaluator (server) inputs: for each operand all its share-0 words,
/// * outputs: all `z₀` words, in group order.
///
/// Cost on top of `body`: ℓ − 1 ANDs per reconstructed word and per output
/// word (one adder, one subtractor).
///
/// # Panics
///
/// Panics if `body` returns other than `n_out` words.
pub fn reshare_circuit<F>(
    bits: usize,
    operands: usize,
    groups: usize,
    n_in: usize,
    n_out: usize,
    mut body: F,
) -> Circuit
where
    F: FnMut(&mut CircuitBuilder, &[Vec<Word>]) -> Vec<Word>,
{
    let mut b = CircuitBuilder::new();
    let s1: Vec<Vec<Word>> =
        (0..operands).map(|_| (0..n_in).map(|_| b.garbler_word(bits)).collect()).collect();
    let z1: Vec<Word> = (0..n_out).map(|_| b.garbler_word(bits)).collect();
    let s0: Vec<Vec<Word>> =
        (0..operands).map(|_| (0..n_in).map(|_| b.evaluator_word(bits)).collect()).collect();
    let ys: Vec<Vec<Word>> = s0
        .iter()
        .zip(&s1)
        .map(|(s0, s1)| s0.iter().zip(s1).map(|(w0, w1)| add(&mut b, w0, w1)).collect())
        .collect();
    let fs = body(&mut b, &ys);
    assert_eq!(fs.len(), n_out, "re-share body must return n_out words per group");
    let outs = fs.iter().zip(&z1).flat_map(|(f, z)| sub(&mut b, f, z).0).collect();
    // One run per operand, then the masks: each is laid out for all groups
    // before the next starts.
    let share_runs = vec![n_in * bits; operands];
    let garbler_runs: Vec<usize> = share_runs.iter().copied().chain([n_out * bits]).collect();
    b.build_lanes(outs, groups, &garbler_runs, &share_runs)
}

/// Algorithm 2's circuit for `f = ReLU` on one neuron (the fully-oblivious
/// activation): `z₀ = ReLU(y₀ + y₁) − z₁`.
///
/// AND-gate cost: (ℓ−1) add + ℓ relu + (ℓ−1) sub = 3ℓ − 2.
#[must_use]
pub fn relu_reshare_circuit(bits: usize) -> Circuit {
    relu_trunc_reshare_vec_circuit(bits, 1, 0)
}

/// Phase 1 of the paper's *optimized* ReLU: only the comparison
/// `y₀ + y₁ ≥ 0` is computed inside the circuit and revealed (ℓ−1 ANDs).
///
/// Inputs: garbler `y₁`, evaluator `y₀`; output: one bit (1 iff the neuron
/// is non-negative). Revealing it is the paper's trade-off: negative
/// neurons then skip the reconstruction circuit entirely.
#[must_use]
pub fn relu_sign_circuit(bits: usize) -> Circuit {
    relu_sign_vec_circuit(bits, 1)
}

/// Phase 2 of the optimized ReLU on one neuron: reconstruct and re-share,
/// `z₀ = (y₀ + y₁) − z₁` (2ℓ−2 ANDs).
#[must_use]
pub fn reconstruct_reshare_circuit(bits: usize) -> Circuit {
    reconstruct_trunc_reshare_vec_circuit(bits, 1, 0)
}

/// Arithmetic shift right by `k` bits — free (pure rewiring): low bits are
/// dropped and the sign wire is replicated at the top.
///
/// # Panics
///
/// Panics if `k >= bits` (nothing would remain).
#[must_use]
pub fn sar_word(x: &Word, k: usize) -> Word {
    assert!(k < x.bits(), "shift {k} must be smaller than width {}", x.bits());
    let msb = x.msb();
    let mut out: Vec<WireId> = x.0[k..].to_vec();
    out.extend(std::iter::repeat_n(msb, k));
    Word(out)
}

/// Vectorized Algorithm-2 ReLU: `n` neurons in one circuit.
///
/// Garbler inputs: all `y₁` words then all `z₁` words; evaluator inputs:
/// all `y₀` words; outputs: all `z₀` words — each group in neuron order.
#[must_use]
pub fn relu_reshare_vec_circuit(bits: usize, n: usize) -> Circuit {
    relu_trunc_reshare_vec_circuit(bits, n, 0)
}

/// Vectorized Algorithm-2 ReLU with a built-in fixed-point truncation: each
/// neuron computes `z₀ = ReLU((y₀ + y₁) ≫ₐ shift) − z₁`.
///
/// The arithmetic shift is free inside the circuit (rewiring), which is how
/// the secure pipeline truncates products *exactly* instead of using
/// probabilistic local share truncation.
#[must_use]
pub fn relu_trunc_reshare_vec_circuit(bits: usize, n: usize, shift: usize) -> Circuit {
    reshare_circuit(bits, 1, n, 1, 1, |b, y| vec![relu(b, &sar_word(&y[0][0], shift))])
}

/// Vectorized phase-1 comparison for the optimized ReLU: one output bit per
/// neuron (`1` iff non-negative).
#[must_use]
pub fn relu_sign_vec_circuit(bits: usize, n: usize) -> Circuit {
    let mut b = CircuitBuilder::new();
    let y1 = b.garbler_word(bits);
    let y0 = b.evaluator_word(bits);
    let y = add(&mut b, &y0, &y1);
    let non_neg = b.inv(y.msb());
    b.build_lanes(vec![non_neg], n, &[bits], &[bits])
}

/// Vectorized phase-2 reconstruct-truncate-reshare:
/// `z₀ = ((y₀ + y₁) ≫ₐ shift) − z₁` per neuron.
#[must_use]
pub fn reconstruct_trunc_reshare_vec_circuit(bits: usize, n: usize, shift: usize) -> Circuit {
    reshare_circuit(bits, 1, n, 1, 1, |_, y| vec![sar_word(&y[0][0], shift)])
}

/// Word-wise XOR (free).
///
/// # Panics
///
/// Panics if the word widths differ.
pub fn xor_word(b: &mut CircuitBuilder, x: &Word, y: &Word) -> Word {
    assert_eq!(x.bits(), y.bits(), "word width mismatch");
    Word(x.0.iter().zip(&y.0).map(|(&xi, &yi)| b.xor(xi, yi)).collect())
}

/// Masked-argmax circuit: reconstructs `n` shared values, finds the index
/// of the (signed) maximum, and outputs `index ⊕ mask` — so the evaluator
/// can forward the masked index and only the garbler (who chose the mask)
/// learns the class. Used by the secure-classification extension.
///
/// Garbler inputs, in order: all `y₁` value words, the ⌈log₂n⌉-bit mask,
/// then the `n` public index constants (⌈log₂n⌉ bits each, supplied by the
/// garbler: the layout predates [`CircuitBuilder::constant`], and folding
/// them would change this circuit's ANDs and tables). Evaluator
/// inputs: all `y₀` value words. Output: ⌈log₂n⌉ masked index bits.
///
/// # Panics
///
/// Panics if `n` is zero.
#[must_use]
pub fn argmax_mask_circuit(bits: usize, n: usize) -> Circuit {
    assert!(n > 0, "argmax needs at least one value");
    let idx_bits = usize::BITS as usize - (n - 1).leading_zeros() as usize;
    let idx_bits = idx_bits.max(1);
    let mut b = CircuitBuilder::new();
    let y1: Vec<Word> = (0..n).map(|_| b.garbler_word(bits)).collect();
    let mask = b.garbler_word(idx_bits);
    let consts: Vec<Word> = (0..n).map(|_| b.garbler_word(idx_bits)).collect();
    let y0: Vec<Word> = (0..n).map(|_| b.evaluator_word(bits)).collect();

    let mut best_val = add(&mut b, &y0[0], &y1[0]);
    let mut best_idx = consts[0].clone();
    for i in 1..n {
        let v = add(&mut b, &y0[i], &y1[i]);
        let take = lt_signed(&mut b, &best_val, &v);
        best_val = mux(&mut b, take, &v, &best_val);
        best_idx = mux(&mut b, take, &consts[i], &best_idx);
    }
    let out = xor_word(&mut b, &best_idx, &mask);
    b.build(out.0)
}

/// Number of index bits [`argmax_mask_circuit`] uses for `n` values.
#[must_use]
pub fn argmax_index_bits(n: usize) -> usize {
    (usize::BITS as usize - (n.saturating_sub(1)).leading_zeros() as usize).max(1)
}

/// Vectorized max-pool-and-reshare circuit for the CNN extension: for each
/// of `n_windows` windows of `window` shared values (window-major), take
/// the (signed) maximum and re-share it as `z₀ = max − z₁`.
///
/// # Panics
///
/// Panics if `window` is zero.
#[must_use]
pub fn max_pool_reshare_vec_circuit(bits: usize, window: usize, n_windows: usize) -> Circuit {
    assert!(window > 0, "window must be positive");
    reshare_circuit(bits, 1, n_windows, window, 1, |b, y| {
        let (first, rest) = y[0].split_first().expect("window non-empty");
        vec![rest.iter().fold(first.clone(), |m, v| max(b, &m, v))]
    })
}

/// Signed comparison `x < y` for two's-complement words (ℓ AND gates).
///
/// Both operands are sign-extended by one bit (free: the extension reuses
/// the sign wire) so the subtraction cannot overflow.
///
/// # Panics
///
/// Panics if the word widths differ.
pub fn lt_signed(b: &mut CircuitBuilder, x: &Word, y: &Word) -> WireId {
    assert_eq!(x.bits(), y.bits(), "word width mismatch");
    let xe = Word(x.0.iter().copied().chain([x.msb()]).collect());
    let ye = Word(y.0.iter().copied().chain([y.msb()]).collect());
    let d = sub(b, &xe, &ye);
    d.msb()
}

/// Maximum of two two's-complement words (used by the max-pooling
/// extension): `max(x, y) = (x < y) ? y : x` (2ℓ AND gates).
pub fn max(b: &mut CircuitBuilder, x: &Word, y: &Word) -> Word {
    let x_less = lt_signed(b, x, y);
    mux(b, x_less, y, x)
}

// ---------------------------------------------------------------------------
// Arithmetic word library for the nonlinear op family (Softmax/GELU/
// LayerNorm). Every builder here mirrors, bit for bit, a reference function
// in `abnn2_math::fixedops`, which is what makes secure evaluation of the
// transformer ops exact against the plaintext oracle.
// ---------------------------------------------------------------------------

/// A word holding the public constant `value`, made of the builder's two
/// constant wires ([`CircuitBuilder::constant`]). Free, and so is every
/// AND it meets: the builder folds `x ∧ 0` and `x ∧ 1`, so an adder, a
/// product or a comparison against a constant pays only where a carry is
/// not known. Adding a constant whose lowest one-bit is `k` costs
/// ℓ − 2 − k ANDs (8 for `3 << 6` at ℓ = 16, against ℓ − 1 for a word).
pub fn const_word(b: &mut CircuitBuilder, value: u64, bits: usize) -> Word {
    Word((0..bits).map(|i| b.constant((value >> i) & 1 == 1)).collect())
}

/// Left shift by `k` with zero fill, wrapping at the word width. Free.
///
/// # Panics
///
/// Panics if `k >= bits` (nothing would remain).
pub fn shl_word(b: &mut CircuitBuilder, x: &Word, k: usize) -> Word {
    let n = x.bits();
    assert!(k < n, "shift {k} must be smaller than width {n}");
    let mut out = vec![b.constant(false); k];
    out.extend_from_slice(&x.0[..n - k]);
    Word(out)
}

/// ℓ-bit wrapping product (schoolbook shift-and-add). Row `i` is
/// `y_i ∧ x` shifted by `i`, so it costs ℓ − i partial products and,
/// from the second row on, ℓ − 1 − i adder ANDs: ℓ² − ℓ + 1 in all (241
/// at ℓ = 16). The builder folds the partial products of a constant `y`:
/// a zero bit's row is free and a one bit's costs its adder alone. For
/// `x = y` it folds only the diagonal; [`square_word`] is the square.
///
/// # Panics
///
/// Panics if the word widths differ.
pub fn mul_word(b: &mut CircuitBuilder, x: &Word, y: &Word) -> Word {
    assert_eq!(x.bits(), y.bits(), "word width mismatch");
    let n = x.bits();
    let zero = b.constant(false);
    let mut acc = Word(vec![zero; n]);
    for i in 0..n {
        let mut pp = vec![zero; n];
        for j in 0..n - i {
            pp[i + j] = b.and(y.0[i], x.0[j]);
        }
        acc = add(b, &acc, &Word(pp));
    }
    acc
}

/// ℓ-bit wrapping square, `mul_word(x, x)` at about half the ANDs:
/// `x² = Σ x_i·2^2i + Σ_{i<j} x_i x_j·2^(i+j+1)`, so each cross product
/// `x_i ∧ x_j` is one AND, once, and the diagonal `x_i ∧ x_i = x_i` is
/// free. Row `i` holds `x_i` at bit 2i and its cross products above it and
/// costs ℓ − 1 − 2i adder ANDs from the second row on: 105 ANDs at ℓ = 16
/// (56 products, 49 adder).
pub fn square_word(b: &mut CircuitBuilder, x: &Word) -> Word {
    let n = x.bits();
    let zero = b.constant(false);
    let mut acc = Word(vec![zero; n]);
    for i in 0..n.div_ceil(2) {
        let mut row = vec![zero; n];
        row[2 * i] = x.0[i];
        for j in i + 1..n - i - 1 {
            row[i + j + 1] = b.and(x.0[i], x.0[j]);
        }
        acc = add(b, &acc, &Word(row));
    }
    acc
}

/// Unsigned ℓ-bit restoring division. A zero divisor yields the all-ones
/// quotient (every trial subtraction succeeds), matching
/// `fixedops::udiv`.
///
/// # Panics
///
/// Panics if the word widths differ.
pub fn udiv_word(b: &mut CircuitBuilder, x: &Word, y: &Word) -> Word {
    assert_eq!(x.bits(), y.bits(), "word width mismatch");
    let n = x.bits();
    let zero = b.constant(false);
    let mut rem = Word(vec![zero; n]);
    let mut q = vec![zero; n];
    for i in (0..n).rev() {
        // Shift the next dividend bit into the remainder; the bit shifted
        // out the top still matters, so compare in n+2 bits (both operands
        // zero-extended — the subtraction then cannot wrap).
        let top = rem.0[n - 1];
        let mut sh = Vec::with_capacity(n);
        sh.push(x.0[i]);
        sh.extend_from_slice(&rem.0[..n - 1]);
        let sh = Word(sh);
        let a_ext = Word(sh.0.iter().copied().chain([top, zero]).collect());
        let y_ext = Word(y.0.iter().copied().chain([zero, zero]).collect());
        let d = sub(b, &a_ext, &y_ext);
        let ge = b.inv(d.msb());
        q[i] = ge;
        // Nothing reads the last remainder: its mux would be n ANDs that
        // building keeps.
        if i > 0 {
            rem = mux(b, ge, &Word(d.0[..n].to_vec()), &sh);
        }
    }
    Word(q)
}

/// Signed division truncating toward zero, as a sign/magnitude wrapper
/// around [`udiv_word`]. The divisor is interpreted unsigned, matching
/// `fixedops::sdiv`.
pub fn sdiv_word(b: &mut CircuitBuilder, x: &Word, y: &Word) -> Word {
    let n = x.bits();
    let neg = x.msb();
    let zero = const_word(b, 0, n);
    let neg_x = sub(b, &zero, x);
    let mag = mux(b, neg, &neg_x, x);
    let q = udiv_word(b, &mag, y);
    let neg_q = sub(b, &zero, &q);
    mux(b, neg, &neg_q, &q)
}

/// Floor square root of the unsigned lift (digit-by-digit base-4 method,
/// the same algorithm `fixedops::isqrt` runs in plain integers). Output is
/// an ℓ-bit word whose high half is zero.
pub fn isqrt_word(b: &mut CircuitBuilder, x: &Word) -> Word {
    let n = x.bits();
    let half = n.div_ceil(2);
    // Working width: rem ≤ 2·root keeps every intermediate under 2^(half+3).
    let w = half + 3;
    let zero = b.constant(false);
    let one = b.constant(true);
    // The remainder keeps the w − 2 bits the next step shifts up; the last
    // step's is read by nothing and not selected at all.
    let mut rem = Word(vec![zero; w - 2]);
    let mut root = Word(vec![zero; w]);
    for i in (0..half).rev() {
        let b1 = if 2 * i + 1 < n { x.0[2 * i + 1] } else { zero };
        let b0 = x.0[2 * i];
        let mut rem2 = vec![b0, b1];
        rem2.extend_from_slice(&rem.0);
        let rem2 = Word(rem2);
        let mut trial = vec![one, zero];
        trial.extend_from_slice(&root.0[..w - 2]);
        let trial = Word(trial);
        let a_ext = Word(rem2.0.iter().copied().chain([zero]).collect());
        let t_ext = Word(trial.0.iter().copied().chain([zero]).collect());
        let d = sub(b, &a_ext, &t_ext);
        let ge = b.inv(d.msb());
        if i > 0 {
            rem = mux(b, ge, &Word(d.0[..w - 2].to_vec()), &Word(rem2.0[..w - 2].to_vec()));
        }
        let mut r2 = vec![ge];
        r2.extend_from_slice(&root.0[..w - 1]);
        root = Word(r2);
    }
    let mut out: Vec<WireId> = root.0.iter().copied().take(n).collect();
    out.resize(n, zero);
    Word(out)
}

/// Clamp `x` into the signed interval `[lo, hi]` (2ℓ comparisons + muxes).
pub fn clamp_word(b: &mut CircuitBuilder, x: &Word, lo: &Word, hi: &Word) -> Word {
    let below = lt_signed(b, x, lo);
    let t = mux(b, below, lo, x);
    let above = lt_signed(b, hi, &t);
    mux(b, above, hi, &t)
}

/// `e^u ≈ ((1 + u/4)⁺)⁴` for `u ≤ 0` at `f` fraction bits — the circuit
/// twin of `fixedops::exp_pos`.
fn exp_pos_word(b: &mut CircuitBuilder, u: &Word, f: usize) -> Word {
    let n = u.bits();
    let one = const_word(b, 1 << f, n);
    let q = sar_word(u, 2);
    let s = add(b, &one, &q);
    let t = relu(b, &s);
    let t2 = sar_word(&square_word(b, &t), f);
    sar_word(&square_word(b, &t2), f)
}

/// Fixed-point GELU via hard sigmoid — the circuit twin of
/// `fixedops::gelu`.
fn gelu_word(b: &mut CircuitBuilder, v: &Word, f: usize) -> Word {
    let n = v.bits();
    let one = const_word(b, 1 << f, n);
    let three = const_word(b, 3 << f, n);
    let inv6 = const_word(b, ((1u64 << f) + 3) / 6, n);
    let zero = const_word(b, 0, n);
    let a = add(b, v, &three);
    let prod = mul_word(b, &a, &inv6);
    let s = sar_word(&prod, f);
    let s = clamp_word(b, &s, &zero, &one);
    let g = mul_word(b, v, &s);
    sar_word(&g, f)
}

/// Fixed-point softmax over one row — the circuit twin of
/// `fixedops::softmax_row`.
fn softmax_row_words(b: &mut CircuitBuilder, vs: &[Word], f: usize) -> Vec<Word> {
    let mut m = vs[0].clone();
    for v in &vs[1..] {
        m = max(b, &m, v);
    }
    let es: Vec<Word> = vs
        .iter()
        .map(|v| {
            let u = sub(b, v, &m);
            exp_pos_word(b, &u, f)
        })
        .collect();
    let mut sum = es[0].clone();
    for e in &es[1..] {
        sum = add(b, &sum, e);
    }
    es.iter()
        .map(|e| {
            let num = shl_word(b, e, f);
            udiv_word(b, &num, &sum)
        })
        .collect()
}

/// Fixed-point LayerNorm over one token — the circuit twin of
/// `fixedops::layernorm_token`. `xs` are the already-reconstructed,
/// already-shifted token values.
fn layernorm_token_words(b: &mut CircuitBuilder, xs: &[Word], f: usize) -> Vec<Word> {
    let d = xs.len();
    assert!(d.is_power_of_two(), "layernorm width must be a power of two");
    let log2d = d.trailing_zeros() as usize;
    let n = xs[0].bits();
    let mut sum = xs[0].clone();
    for x in &xs[1..] {
        sum = add(b, &sum, x);
    }
    let mu = sar_word(&sum, log2d);
    let cs: Vec<Word> = xs.iter().map(|x| sub(b, x, &mu)).collect();
    let mut sq: Option<Word> = None;
    for c in &cs {
        let c2 = square_word(b, c);
        sq = Some(match sq {
            None => c2,
            Some(acc) => add(b, &acc, &c2),
        });
    }
    let var = sar_word(&sq.expect("token non-empty"), log2d);
    let one = const_word(b, 1, n);
    let vp1 = add(b, &var, &one);
    let sigma = isqrt_word(b, &vp1);
    cs.iter()
        .map(|c| {
            let num = shl_word(b, c, f);
            sdiv_word(b, &num, &sigma)
        })
        .collect()
}

/// Softmax-and-reshare circuit for the `Softmax` op: reconstructs
/// `rows × cols` shared logits (row-major), truncates each by `shift`,
/// applies the fixed-point row softmax at `f` fraction bits, and re-shares.
#[must_use]
pub fn softmax_reshare_vec_circuit(
    bits: usize,
    rows: usize,
    cols: usize,
    shift: usize,
    f: usize,
) -> Circuit {
    assert!(rows > 0 && cols > 0, "softmax needs a non-empty matrix");
    reshare_circuit(bits, 1, rows, cols, cols, |b, y| {
        let vs: Vec<Word> = y[0].iter().map(|v| sar_word(v, shift)).collect();
        softmax_row_words(b, &vs, f)
    })
}

/// GELU-and-reshare circuit for the `Gelu` op:
/// `z₀ = gelu((y₀ + y₁) ≫ₐ shift) − z₁` per neuron, gelu at `f` fraction
/// bits.
#[must_use]
pub fn gelu_trunc_reshare_vec_circuit(bits: usize, n: usize, shift: usize, f: usize) -> Circuit {
    reshare_circuit(bits, 1, n, 1, 1, |b, y| vec![gelu_word(b, &sar_word(&y[0][0], shift), f)])
}

/// LayerNorm-and-reshare circuit for the `LayerNorm` op over `tokens`
/// tokens of `d` values each (`d` a power of two, token-major). The op
/// folds a residual add at mismatched scales into the normalization — its
/// two operands are the primary input `a` and the residual `b`:
/// `x = (a ≫ₐ shift_a) + (b ≫ₐ shift_b)` per element, then each token is
/// normalized at `f` fraction bits and re-shared.
#[must_use]
pub fn layernorm_reshare_vec_circuit(
    bits: usize,
    tokens: usize,
    d: usize,
    shift_a: usize,
    shift_b: usize,
    f: usize,
) -> Circuit {
    assert!(tokens > 0 && d > 0, "layernorm needs a non-empty matrix");
    reshare_circuit(bits, 2, tokens, d, d, |b, y| {
        let xs: Vec<Word> = y[0]
            .iter()
            .zip(&y[1])
            .map(|(a, r)| add(b, &sar_word(a, shift_a), &sar_word(r, shift_b)))
            .collect();
        layernorm_token_words(b, &xs, f)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{bits_to_u64, u64_to_bits};
    use abnn2_math::Ring;
    use proptest::prelude::*;

    fn eval_two_words(c: &Circuit, g: &[u64], e: &[u64], bits: usize) -> u64 {
        let gbits: Vec<bool> = g.iter().flat_map(|&x| u64_to_bits(x, bits)).collect();
        let ebits: Vec<bool> = e.iter().flat_map(|&x| u64_to_bits(x, bits)).collect();
        bits_to_u64(&c.eval(&gbits, &ebits))
    }

    fn adder_circuit(bits: usize) -> Circuit {
        let mut b = CircuitBuilder::new();
        let x = b.garbler_word(bits);
        let y = b.evaluator_word(bits);
        let s = add(&mut b, &x, &y);
        b.build(s.0)
    }

    fn sub_circuit(bits: usize) -> Circuit {
        let mut b = CircuitBuilder::new();
        let x = b.garbler_word(bits);
        let y = b.evaluator_word(bits);
        let s = sub(&mut b, &x, &y);
        b.build(s.0)
    }

    #[test]
    fn adder_and_count_is_l_minus_1() {
        assert_eq!(adder_circuit(32).and_count(), 31);
        assert_eq!(sub_circuit(32).and_count(), 31);
        // What the power-of-two ring spares: the same sum followed by an
        // explicit reduction (compare, subtract, select), as a modulus that
        // is not 2^l would need, is four times the gates.
        let explicit_mod = {
            let mut b = CircuitBuilder::new();
            let x = b.garbler_word(32);
            let y = b.evaluator_word(32);
            let s = add(&mut b, &x, &y);
            let wrapped = lt_signed(&mut b, &s, &x);
            let reduced = sub(&mut b, &s, &y);
            let out = mux(&mut b, wrapped, &reduced, &s);
            b.build(out.0)
        };
        assert_eq!(explicit_mod.and_count(), 126);
    }

    /// `x²` through [`square_word`] and through [`mul_word`], as one
    /// circuit's two output words.
    fn squares(bits: usize) -> Circuit {
        let mut b = CircuitBuilder::new();
        let x = b.garbler_word(bits);
        let sq = square_word(&mut b, &x);
        let mul = mul_word(&mut b, &x, &x);
        b.build(sq.0.into_iter().chain(mul.0).collect())
    }

    fn eval_squares(c: &Circuit, x: u64, bits: usize) -> (u64, u64) {
        let out = c.eval(&u64_to_bits(x, bits), &[]);
        (bits_to_u64(&out[..bits]), bits_to_u64(&out[bits..]))
    }

    /// The ANDs of `f(x, y)` alone, `x` and `y` two garbler words of `bits`.
    fn and_cost(bits: usize, f: impl FnOnce(&mut CircuitBuilder, &Word, &Word) -> Word) -> usize {
        let mut b = CircuitBuilder::new();
        let (x, y) = (b.garbler_word(bits), b.garbler_word(bits));
        let z = f(&mut b, &x, &y);
        b.build(z.0).and_count()
    }

    #[test]
    fn square_word_is_mul_word_at_every_8_bit_value() {
        let c = squares(8);
        for x in 0..256 {
            assert_eq!(eval_squares(&c, x, 8), (x * x % 256, x * x % 256), "x = {x}");
        }
    }

    #[test]
    fn the_documented_and_costs_hold() {
        // ℓ² − ℓ + 1 for a product, and for `mul_word(x, x)` that less the
        // folded diagonal.
        for (bits, square, squared_product, product) in [(8, 21, 53, 57), (16, 105, 233, 241)] {
            assert_eq!(and_cost(bits, |b, x, _| square_word(b, x)), square);
            assert_eq!(and_cost(bits, |b, x, _| mul_word(b, x, x)), squared_product);
            assert_eq!(and_cost(bits, mul_word), product);
        }
        let plus = |b: &mut CircuitBuilder, x: &Word, _: &Word| {
            let c = const_word(b, 3 << 6, 16);
            add(b, x, &c)
        };
        assert_eq!(and_cost(16, plus), 8);
    }

    #[test]
    fn relu_reshare_and_count() {
        assert_eq!(relu_reshare_circuit(32).and_count(), 3 * 32 - 2);
        assert_eq!(relu_sign_circuit(32).and_count(), 31);
        assert_eq!(reconstruct_reshare_circuit(32).and_count(), 2 * 32 - 2);
    }

    #[test]
    fn relu_known_values() {
        let ring = Ring::new(16);
        let c = relu_reshare_circuit(16);
        for (y, expect) in [(5i64, 5u64), (-5, 0), (0, 0), (32767, 32767), (-32768, 0)] {
            let y_ring = ring.from_i64(y);
            let y1 = 0x1234u64 & ring.mask();
            let y0 = ring.sub(y_ring, y1);
            let z1 = 0x0F0Fu64;
            let z0 = eval_two_words(&c, &[y1, z1], &[y0], 16);
            assert_eq!(ring.add(z0, z1), expect, "y = {y}");
        }
    }

    #[test]
    fn sign_circuit_known_values() {
        let ring = Ring::new(8);
        let c = relu_sign_circuit(8);
        for y in [-128i64, -1, 0, 1, 127] {
            let y_ring = ring.from_i64(y);
            let y1 = 0x5Au64;
            let y0 = ring.sub(y_ring, y1);
            let out = c.eval(&u64_to_bits(y1, 8), &u64_to_bits(y0, 8));
            assert_eq!(out[0], y >= 0, "y = {y}");
        }
    }

    // -----------------------------------------------------------------------
    // Pins for the six Algorithm-2 builders: AND and total gate counts (the
    // second catches a free-gate regression), input/output wire counts
    // (the garbler `y₁… ‖ z₁`, evaluator `y₀…` layout) and plaintext
    // evaluation against the integer reference, at two shapes each — the
    // first of every pair is the shape the benchmark's `gc.*_ands` rows and
    // the served models use.
    // -----------------------------------------------------------------------

    fn structure(c: &Circuit) -> [usize; 5] {
        let inputs = [c.garbler_inputs().len(), c.evaluator_inputs().len()];
        [c.and_count(), c.gate_count(), inputs[0], inputs[1], c.outputs().len()]
    }

    /// `n` seeded signed values in `[-lim, lim)`.
    fn seeded_values(ring: Ring, n: usize, lim: i64, seed: u64) -> Vec<u64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| ring.from_i64(rng.gen_range(-lim..lim))).collect()
    }

    /// Shares every operand under a seeded mask, evaluates `c` with the
    /// garbler holding all operand-1 shares then `z₁` and the evaluator all
    /// operand-0 shares, and returns the reconstructed outputs `z₀ + z₁`.
    fn eval_reshare(c: &Circuit, ring: Ring, operands: &[&[u64]], seed: u64) -> Vec<u64> {
        use rand::SeedableRng;
        let bits = ring.bits() as usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (mut g, mut e) = (Vec::new(), Vec::new());
        for v in operands {
            let s1 = ring.sample_vec(&mut rng, v.len());
            e.extend(ring.sub_vec(v, &s1));
            g.extend(s1);
        }
        let z1 = ring.sample_vec(&mut rng, c.outputs().len() / bits);
        g.extend(&z1);
        let gbits: Vec<bool> = g.iter().flat_map(|&x| u64_to_bits(x, bits)).collect();
        let ebits: Vec<bool> = e.iter().flat_map(|&x| u64_to_bits(x, bits)).collect();
        let out = c.eval(&gbits, &ebits);
        out.chunks(bits).zip(&z1).map(|(z0, &z1)| ring.add(bits_to_u64(z0), z1)).collect()
    }

    #[test]
    fn relu_trunc_reshare_vec_is_pinned() {
        use abnn2_math::fixedops::{relu as relu_ref, sar};
        for (bits, n, shift, pin) in [
            (32usize, 128usize, 4usize, [12032usize, 50944, 8192, 4096, 4096]),
            (16, 3, 0, [138, 582, 96, 48, 48]),
        ] {
            let ring = Ring::new(bits as u32);
            let c = relu_trunc_reshare_vec_circuit(bits, n, shift);
            assert_eq!(structure(&c), pin, "relu_trunc {bits}/{n}/{shift}");
            let y = seeded_values(ring, n, 1 << 12, 0xA1);
            let want: Vec<u64> =
                y.iter().map(|&v| relu_ref(&ring, sar(&ring, v, shift as u32))).collect();
            assert_eq!(eval_reshare(&c, ring, &[&y], 0xA2), want);
        }
    }

    #[test]
    fn reconstruct_trunc_reshare_vec_is_pinned() {
        use abnn2_math::fixedops::sar;
        for (bits, n, shift, pin) in [
            (16usize, 64usize, 11usize, [1920usize, 10624, 2048, 1024, 1024]),
            (32, 5, 2, [310, 1835, 320, 160, 160]),
        ] {
            let ring = Ring::new(bits as u32);
            let c = reconstruct_trunc_reshare_vec_circuit(bits, n, shift);
            assert_eq!(structure(&c), pin, "reconstruct_trunc {bits}/{n}/{shift}");
            let y = seeded_values(ring, n, 1 << 14, 0xB1);
            let want: Vec<u64> = y.iter().map(|&v| sar(&ring, v, shift as u32)).collect();
            assert_eq!(eval_reshare(&c, ring, &[&y], 0xB2), want);
        }
    }

    #[test]
    fn max_pool_reshare_vec_is_pinned() {
        for (bits, window, n_windows, pin) in [
            (32usize, 4usize, 18usize, [6246usize, 28728, 2880, 2304, 576]),
            (16, 9, 2, [812, 3570, 320, 288, 32]),
        ] {
            let ring = Ring::new(bits as u32);
            let c = max_pool_reshare_vec_circuit(bits, window, n_windows);
            assert_eq!(structure(&c), pin, "max_pool {bits}/{window}/{n_windows}");
            let y = seeded_values(ring, window * n_windows, 1 << 12, 0xC1);
            let want: Vec<u64> = y
                .chunks(window)
                .map(|w| ring.from_i64(w.iter().map(|&v| ring.to_i64(v)).max().expect("window")))
                .collect();
            assert_eq!(eval_reshare(&c, ring, &[&y], 0xC2), want);
        }
    }

    #[test]
    fn softmax_reshare_vec_is_pinned() {
        use abnn2_math::fixedops::{sar, softmax_row};
        for (bits, rows, cols, shift, f, pin) in [
            (16usize, 8usize, 8usize, 0usize, 6usize, [52872usize, 222136, 2048, 1024, 1024]),
            (16, 2, 3, 1, 6, [4898, 20568, 192, 96, 96]),
        ] {
            let ring = Ring::new(bits as u32);
            let c = softmax_reshare_vec_circuit(bits, rows, cols, shift, f);
            assert_eq!(structure(&c), pin, "softmax {bits}/{rows}x{cols}/{shift}/{f}");
            // Logits within ±8.0 at f fraction bits after the shift.
            let y = seeded_values(ring, rows * cols, 1 << (f + 3 + shift), 0xD1);
            let want: Vec<u64> = y
                .chunks(cols)
                .flat_map(|row| {
                    let row: Vec<u64> = row.iter().map(|&v| sar(&ring, v, shift as u32)).collect();
                    softmax_row(&ring, f as u32, &row)
                })
                .collect();
            assert_eq!(eval_reshare(&c, ring, &[&y], 0xD2), want);
        }
    }

    #[test]
    fn gelu_trunc_reshare_vec_is_pinned() {
        use abnn2_math::fixedops::{gelu, sar};
        for (bits, n, shift, f, pin) in [
            (16usize, 128usize, 2usize, 6usize, [36992usize, 119040, 4096, 2048, 2048]),
            (16, 1, 0, 6, [289, 932, 32, 16, 16]),
        ] {
            let ring = Ring::new(bits as u32);
            let c = gelu_trunc_reshare_vec_circuit(bits, n, shift, f);
            assert_eq!(structure(&c), pin, "gelu {bits}/{n}/{shift}/{f}");
            let y = seeded_values(ring, n, 1 << (f + 3 + shift), 0xE1);
            let want: Vec<u64> =
                y.iter().map(|&v| gelu(&ring, f as u32, sar(&ring, v, shift as u32))).collect();
            assert_eq!(eval_reshare(&c, ring, &[&y], 0xE2), want);
        }
    }

    #[test]
    fn layernorm_reshare_vec_is_pinned() {
        use abnn2_math::fixedops::layernorm_token;
        for (bits, tokens, d, shift_a, shift_b, f, pin) in [
            (16, 8, 8, 2, 0, 6, [49776usize, 208432, 3072, 2048, 1024]),
            (16, 2, 4, 0, 1, 6, [6348, 26560, 384, 256, 128]),
        ] {
            let ring = Ring::new(bits as u32);
            let c = layernorm_reshare_vec_circuit(bits, tokens, d, shift_a, shift_b, f);
            assert_eq!(structure(&c), pin, "layernorm {bits}/{tokens}x{d}/{shift_a},{shift_b}/{f}");
            let a = seeded_values(ring, tokens * d, 1 << (f + 2 + shift_a), 0xF1);
            let b = seeded_values(ring, tokens * d, 1 << (f + 1 + shift_b), 0xF2);
            let want: Vec<u64> = a
                .chunks(d)
                .zip(b.chunks(d))
                .flat_map(|(a, b)| {
                    layernorm_token(&ring, f as u32, a, b, shift_a as u32, shift_b as u32)
                })
                .collect();
            assert_eq!(eval_reshare(&c, ring, &[&a, &b], 0xF3), want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn adder_matches_ring(bits in 2usize..=32, a: u64, b: u64) {
            let ring = Ring::new(bits as u32);
            let (a, b) = (ring.reduce(a), ring.reduce(b));
            let c = adder_circuit(bits);
            prop_assert_eq!(eval_two_words(&c, &[a], &[b], bits), ring.add(a, b));
        }

        #[test]
        fn subtractor_matches_ring(bits in 2usize..=32, a: u64, b: u64) {
            let ring = Ring::new(bits as u32);
            let (a, b) = (ring.reduce(a), ring.reduce(b));
            let c = sub_circuit(bits);
            prop_assert_eq!(eval_two_words(&c, &[a], &[b], bits), ring.sub(a, b));
        }

        #[test]
        fn relu_reshare_matches_plaintext(bits in 2usize..=32, y0: u64, y1: u64, z1: u64) {
            let ring = Ring::new(bits as u32);
            let (y0, y1, z1) = (ring.reduce(y0), ring.reduce(y1), ring.reduce(z1));
            let c = relu_reshare_circuit(bits);
            let z0 = eval_two_words(&c, &[y1, z1], &[y0], bits);
            let y = ring.add(y0, y1);
            let expect = if ring.is_negative(y) { 0 } else { y };
            prop_assert_eq!(ring.add(z0, z1), expect);
        }

        #[test]
        fn relu_trunc_matches_plaintext(bits in 4usize..=24, shift in 0usize..3, y0: u64, y1: u64, z1: u64) {
            let ring = Ring::new(bits as u32);
            let (y0, y1, z1) = (ring.reduce(y0), ring.reduce(y1), ring.reduce(z1));
            let c = relu_trunc_reshare_vec_circuit(bits, 1, shift);
            let z0 = eval_two_words(&c, &[y1, z1], &[y0], bits);
            let y = ring.add(y0, y1);
            let t = ring.from_i64(ring.to_i64(y) >> shift);
            let expect = if ring.is_negative(t) { 0 } else { t };
            prop_assert_eq!(ring.add(z0, z1), expect);
        }

        #[test]
        fn reconstruct_trunc_matches_plaintext(bits in 4usize..=24, shift in 0usize..3, y0: u64, y1: u64, z1: u64) {
            let ring = Ring::new(bits as u32);
            let (y0, y1, z1) = (ring.reduce(y0), ring.reduce(y1), ring.reduce(z1));
            let c = reconstruct_trunc_reshare_vec_circuit(bits, 1, shift);
            let z0 = eval_two_words(&c, &[y1, z1], &[y0], bits);
            let y = ring.add(y0, y1);
            let t = ring.from_i64(ring.to_i64(y) >> shift);
            prop_assert_eq!(ring.add(z0, z1), t);
        }

        #[test]
        fn max_matches_plaintext(bits in 2usize..=16, a: u64, b: u64) {
            let ring = Ring::new(bits as u32);
            let (a, b) = (ring.reduce(a), ring.reduce(b));
            let mut builder = CircuitBuilder::new();
            let x = builder.garbler_word(bits);
            let y = builder.evaluator_word(bits);
            let m = max(&mut builder, &x, &y);
            let c = builder.build(m.0);
            let got = eval_two_words(&c, &[a], &[b], bits);
            let expect = if ring.to_i64(a) >= ring.to_i64(b) { a } else { b };
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn argmax_mask_matches_plaintext(bits in 6usize..=16, seed: u64, n in 2usize..6) {
            use rand::SeedableRng;
            let ring = Ring::new(bits as u32);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let values: Vec<u64> = ring.sample_vec(&mut rng, n);
            let y1: Vec<u64> = ring.sample_vec(&mut rng, n);
            let y0: Vec<u64> = ring.sub_vec(&values, &y1);
            let idx_bits = argmax_index_bits(n);
            let mask = seed % (1 << idx_bits);
            let c = argmax_mask_circuit(bits, n);
            let mut gbits: Vec<bool> = y1.iter().flat_map(|&v| u64_to_bits(v, bits)).collect();
            gbits.extend(u64_to_bits(mask, idx_bits));
            for i in 0..n as u64 {
                gbits.extend(u64_to_bits(i, idx_bits));
            }
            let ebits: Vec<bool> = y0.iter().flat_map(|&v| u64_to_bits(v, bits)).collect();
            let out = bits_to_u64(&c.eval(&gbits, &ebits));
            // First-max semantics (strict comparison in the circuit).
            let mut expect_idx = 0u64;
            let mut best = ring.to_i64(values[0]);
            for (i, &v) in values.iter().enumerate().skip(1) {
                if ring.to_i64(v) > best {
                    best = ring.to_i64(v);
                    expect_idx = i as u64;
                }
            }
            prop_assert_eq!(out ^ mask, expect_idx);
        }

        #[test]
        fn max_pool_reshare_matches_plaintext(bits in 6usize..=20, seed: u64) {
            use rand::{Rng, SeedableRng};
            let ring = Ring::new(bits as u32);
            let (window, n_windows) = (4usize, 2usize);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let y: Vec<u64> = ring.sample_vec(&mut rng, window * n_windows);
            let y1: Vec<u64> = ring.sample_vec(&mut rng, window * n_windows);
            let y0: Vec<u64> = ring.sub_vec(&y, &y1);
            let z1: Vec<u64> = ring.sample_vec(&mut rng, n_windows);
            let _ = rng.gen::<bool>();
            let c = max_pool_reshare_vec_circuit(bits, window, n_windows);
            let mut gbits: Vec<bool> = y1.iter().flat_map(|&v| u64_to_bits(v, bits)).collect();
            gbits.extend(z1.iter().flat_map(|&v| u64_to_bits(v, bits)));
            let ebits: Vec<bool> = y0.iter().flat_map(|&v| u64_to_bits(v, bits)).collect();
            let out = c.eval(&gbits, &ebits);
            for w in 0..n_windows {
                let z0 = bits_to_u64(&out[w * bits..(w + 1) * bits]);
                let expect = y[w * window..(w + 1) * window]
                    .iter()
                    .map(|&v| ring.to_i64(v))
                    .max()
                    .expect("non-empty");
                prop_assert_eq!(ring.to_i64(ring.add(z0, z1[w])), expect, "window {}", w);
            }
        }

        #[test]
        fn mul_matches_ring(bits in 2usize..=16, a: u64, b: u64) {
            let ring = Ring::new(bits as u32);
            let (a, b) = (ring.reduce(a), ring.reduce(b));
            let mut builder = CircuitBuilder::new();
            let x = builder.garbler_word(bits);
            let y = builder.evaluator_word(bits);
            let m = mul_word(&mut builder, &x, &y);
            let c = builder.build(m.0);
            prop_assert_eq!(eval_two_words(&c, &[a], &[b], bits), ring.mul(a, b));
        }

        #[test]
        fn square_matches_mul(x: u64) {
            for bits in [16, 32] {
                let x = x & ((1 << bits) - 1);
                let (sq, mul) = eval_squares(&squares(bits), x, bits);
                prop_assert_eq!(sq, mul);
                prop_assert_eq!(sq, x.wrapping_mul(x) & ((1 << bits) - 1));
            }
        }

        #[test]
        fn udiv_matches_fixedops(bits in 2usize..=16, a: u64, b: u64) {
            let ring = Ring::new(bits as u32);
            let (a, b) = (ring.reduce(a), ring.reduce(b));
            let mut builder = CircuitBuilder::new();
            let x = builder.garbler_word(bits);
            let y = builder.evaluator_word(bits);
            let q = udiv_word(&mut builder, &x, &y);
            let c = builder.build(q.0);
            prop_assert_eq!(
                eval_two_words(&c, &[a], &[b], bits),
                abnn2_math::fixedops::udiv(&ring, a, b)
            );
        }

        #[test]
        fn sdiv_matches_fixedops(bits in 2usize..=16, a: u64, b: u64) {
            let ring = Ring::new(bits as u32);
            let (a, b) = (ring.reduce(a), ring.reduce(b));
            let mut builder = CircuitBuilder::new();
            let x = builder.garbler_word(bits);
            let y = builder.evaluator_word(bits);
            let q = sdiv_word(&mut builder, &x, &y);
            let c = builder.build(q.0);
            prop_assert_eq!(
                eval_two_words(&c, &[a], &[b], bits),
                abnn2_math::fixedops::sdiv(&ring, a, b)
            );
        }

        #[test]
        fn isqrt_matches_fixedops(bits in 2usize..=20, a: u64) {
            let ring = Ring::new(bits as u32);
            let a = ring.reduce(a);
            let mut builder = CircuitBuilder::new();
            let x = builder.garbler_word(bits);
            let _ = builder.evaluator_word(1);
            let r = isqrt_word(&mut builder, &x);
            let c = builder.build(r.0);
            let gbits = u64_to_bits(a, bits);
            let got = bits_to_u64(&c.eval(&gbits, &[false]));
            prop_assert_eq!(got, abnn2_math::fixedops::isqrt(&ring, a));
        }

        #[test]
        fn clamp_and_const_match_fixedops(bits in 4usize..=16, a: u64) {
            let ring = Ring::new(bits as u32);
            let a = ring.reduce(a);
            let lo = ring.from_i64(-3);
            let hi = ring.from_i64(5);
            let mut builder = CircuitBuilder::new();
            let x = builder.garbler_word(bits);
            let _ = builder.evaluator_word(1);
            let low = const_word(&mut builder, lo, bits);
            let high = const_word(&mut builder, hi, bits);
            let r = clamp_word(&mut builder, &x, &low, &high);
            let c = builder.build(r.0);
            let got = bits_to_u64(&c.eval(&u64_to_bits(a, bits), &[false]));
            prop_assert_eq!(got, abnn2_math::fixedops::clamp(&ring, a, lo, hi));
        }

        #[test]
        fn gelu_reshare_matches_fixedops(y0: u64, y1: u64, z1: u64) {
            let bits = 16;
            let (f, shift) = (6usize, 2usize);
            let ring = Ring::new(bits as u32);
            let (y0, y1, z1) = (ring.reduce(y0), ring.reduce(y1), ring.reduce(z1));
            let c = gelu_trunc_reshare_vec_circuit(bits, 1, shift, f);
            let z0 = eval_two_words(&c, &[y1, z1], &[y0], bits);
            let v = abnn2_math::fixedops::sar(&ring, ring.add(y0, y1), shift as u32);
            let expect = abnn2_math::fixedops::gelu(&ring, f as u32, v);
            prop_assert_eq!(ring.add(z0, z1), expect);
        }

        #[test]
        fn softmax_reshare_matches_fixedops(seed: u64) {
            use rand::SeedableRng;
            let bits = 16;
            let (rows, cols, f, shift) = (2usize, 3usize, 6usize, 1usize);
            let ring = Ring::new(bits as u32);
            let n = rows * cols;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // Keep logits in a sane fixed-point range (±8.0 at f=6).
            let v: Vec<u64> = (0..n)
                .map(|_| ring.from_i64((ring.sample(&mut rng) as i64 % 512) - 256))
                .collect();
            let y1: Vec<u64> = ring.sample_vec(&mut rng, n);
            let shifted: Vec<u64> = v.iter().map(|&x| ring.reduce(x << shift)).collect();
            let y0: Vec<u64> = ring.sub_vec(&shifted, &y1);
            let z1: Vec<u64> = ring.sample_vec(&mut rng, n);
            let c = softmax_reshare_vec_circuit(bits, rows, cols, shift, f);
            let mut g: Vec<u64> = y1.clone();
            g.extend(&z1);
            let gbits: Vec<bool> = g.iter().flat_map(|&x| u64_to_bits(x, bits)).collect();
            let ebits: Vec<bool> = y0.iter().flat_map(|&x| u64_to_bits(x, bits)).collect();
            let out = c.eval(&gbits, &ebits);
            for r in 0..rows {
                let expect =
                    abnn2_math::fixedops::softmax_row(&ring, f as u32, &v[r * cols..(r + 1) * cols]);
                for (cc, &want) in expect.iter().enumerate() {
                    let j = r * cols + cc;
                    let z0 = bits_to_u64(&out[j * bits..(j + 1) * bits]);
                    prop_assert_eq!(ring.add(z0, z1[j]), want, "row {} col {}", r, cc);
                }
            }
        }

        #[test]
        fn layernorm_reshare_matches_fixedops(seed: u64) {
            use rand::SeedableRng;
            let bits = 16;
            let (tokens, d, f) = (2usize, 4usize, 6usize);
            let (shift_a, shift_b) = (2usize, 0usize);
            let ring = Ring::new(bits as u32);
            let n = tokens * d;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a: Vec<u64> = (0..n)
                .map(|_| ring.from_i64((ring.sample(&mut rng) as i64 % 1024) - 512))
                .collect();
            let bv: Vec<u64> = (0..n)
                .map(|_| ring.from_i64((ring.sample(&mut rng) as i64 % 256) - 128))
                .collect();
            let a1: Vec<u64> = ring.sample_vec(&mut rng, n);
            let a0: Vec<u64> = ring.sub_vec(&a, &a1);
            let b1: Vec<u64> = ring.sample_vec(&mut rng, n);
            let b0: Vec<u64> = ring.sub_vec(&bv, &b1);
            let z1: Vec<u64> = ring.sample_vec(&mut rng, n);
            let c = layernorm_reshare_vec_circuit(bits, tokens, d, shift_a, shift_b, f);
            let mut g: Vec<u64> = a1.clone();
            g.extend(&b1);
            g.extend(&z1);
            let mut e: Vec<u64> = a0.clone();
            e.extend(&b0);
            let gbits: Vec<bool> = g.iter().flat_map(|&x| u64_to_bits(x, bits)).collect();
            let ebits: Vec<bool> = e.iter().flat_map(|&x| u64_to_bits(x, bits)).collect();
            let out = c.eval(&gbits, &ebits);
            for t in 0..tokens {
                let expect = abnn2_math::fixedops::layernorm_token(
                    &ring,
                    f as u32,
                    &a[t * d..(t + 1) * d],
                    &bv[t * d..(t + 1) * d],
                    shift_a as u32,
                    shift_b as u32,
                );
                for (i, &want) in expect.iter().enumerate() {
                    let j = t * d + i;
                    let z0 = bits_to_u64(&out[j * bits..(j + 1) * bits]);
                    prop_assert_eq!(ring.add(z0, z1[j]), want, "token {} elem {}", t, i);
                }
            }
        }

        #[test]
        fn mux_selects(bits in 1usize..=16, a: u64, b: u64, sel: bool) {
            let ring = Ring::new(bits as u32);
            let (a, b) = (ring.reduce(a), ring.reduce(b));
            let mut builder = CircuitBuilder::new();
            let s = builder.garbler_input();
            let x = builder.garbler_word(bits);
            let y = builder.evaluator_word(bits);
            let m = mux(&mut builder, s, &x, &y);
            let c = builder.build(m.0);
            let mut gbits = vec![sel];
            gbits.extend(u64_to_bits(a, bits));
            let got = bits_to_u64(&c.eval(&gbits, &u64_to_bits(b, bits)));
            prop_assert_eq!(got, if sel { a } else { b });
        }
    }
}
