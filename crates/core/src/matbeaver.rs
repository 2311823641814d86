//! Matrix Beaver triples: the offline resource behind [`LayerOp::MatMulSS`].
//!
//! Beaver's multiplication triples, over matrices: a triple is `(X, Y, Z)` with `X` of shape `m × k`, `Y` of shape `k × n`
//! and `Z₀ + Z₁ = (X₀ + X₁)·(Y₀ + Y₁)` over the ring. The online
//! open-and-combine ([`mul_matrix_shares`]) costs one
//! [`MatmulOpenings`] frame each way — both parties open `D = A − X`,
//! `E = B − Y` and locally combine
//!
//! ```text
//! Pₚ = Zₚ + D·Yₚ + Xₚ·E + (p == 0 ? D·E : 0)
//! ```
//!
//! so `P₀ + P₁ = A·B` exactly. Two offline paths produce the triples:
//!
//! * **interactive** ([`generate_matrix_p0`]/[`generate_matrix_p1`]) — the
//!   cross terms `X₀·Y₁` and `X₁·Y₀` reduce to `m·n·k` scalar Gilboa OT
//!   products (ℓ correlated OTs per cross term) over dedicated IKNP
//!   sessions; the flattening order
//!   `((i·n) + j)·k + κ` is part of the wire contract and must match on
//!   both sides,
//! * **dealer** ([`deal_matrix_triple`]) — a trusted dealer samples both
//!   halves locally (warm-pool bundles, [`crate::bundle`]).
//!
//! A `MatMulSS` op's *graph-level* operand `B` may be stored transposed
//! (`transpose_b`, the attention `Q·Kᵀ` shape); transposition is linear, so
//! each party transposes its share locally before calling into this module
//! — the triple always lives in effective (post-transpose) `k × n` space.
//!
//! [`LayerOp::MatMulSS`]: abnn2_nn::graph::LayerOp::MatMulSS
//! [`MatmulOpenings`]: crate::frames::MatmulOpenings

use crate::frames::MatmulOpenings;
use crate::ProtocolError;
use abnn2_math::{Matrix, Ring};
use abnn2_net::Transport;
use abnn2_ot::{IknpReceiver, IknpSender};
use rand::Rng;

/// One party's share of a matrix multiplication triple `Z = X·Y`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixTriple {
    /// Share of the left mask `X` (`m × k`).
    pub x: Matrix,
    /// Share of the right mask `Y` (`k × n`).
    pub y: Matrix,
    /// Share of the product `Z = X·Y` (`m × n`).
    pub z: Matrix,
}

impl MatrixTriple {
    /// The triple's `(m, k, n)` dimensions.
    #[must_use]
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.x.rows(), self.x.cols(), self.y.cols())
    }

    /// Whether the triple fits a product of shape `(m × k) · (k × n)`.
    #[must_use]
    pub fn fits(&self, m: usize, k: usize, n: usize) -> bool {
        self.dims() == (m, k, n)
    }
}

/// Gilboa OT product: this party holds `xs`; the peer holds `ys`; outputs
/// are shares of `xs[i]·ys[i]`. This side is the *chooser* on its bits.
fn gilboa_chooser<T: Transport>(
    ch: &mut T,
    ot: &mut IknpReceiver,
    xs: &[u64],
    ring: Ring,
) -> Result<Vec<u64>, ProtocolError> {
    let l = ring.bits() as usize;
    let choices: Vec<bool> =
        xs.iter().flat_map(|&x| (0..l).map(move |b| (x >> b) & 1 == 1)).collect();
    let got = ot.recv_correlated(ch, &choices, ring)?;
    Ok(got
        .chunks_exact(l)
        .map(|chunk| chunk.iter().fold(0u64, |acc, &v| ring.add(acc, v)))
        .collect())
}

/// Gilboa OT product, sender side: supplies correlations `2^b·ys[i]`.
fn gilboa_sender<T: Transport>(
    ch: &mut T,
    ot: &mut IknpSender,
    ys: &[u64],
    ring: Ring,
) -> Result<Vec<u64>, ProtocolError> {
    let l = ring.bits() as usize;
    let deltas: Vec<u64> = ys
        .iter()
        .flat_map(|&y| (0..l).map(move |b| y.wrapping_shl(b as u32)))
        .map(|d| ring.reduce(d))
        .collect();
    let x0s = ot.send_correlated(ch, &deltas, ring)?;
    Ok(x0s
        .chunks_exact(l)
        .map(|chunk| ring.neg(chunk.iter().fold(0u64, |acc, &v| ring.add(acc, v))))
        .collect())
}

/// Flattens the cross-term operands in the shared `((i·n) + j)·k + κ`
/// order: entry `idx` pairs `x[i, κ]` with `y[κ, j]`.
fn flatten_cross(x: &Matrix, y: &Matrix) -> (Vec<u64>, Vec<u64>) {
    let (m, k, n) = (x.rows(), x.cols(), y.cols());
    let mut xs = Vec::with_capacity(m * n * k);
    let mut ys = Vec::with_capacity(m * n * k);
    for i in 0..m {
        for j in 0..n {
            for kk in 0..k {
                xs.push(x.get(i, kk));
                ys.push(y.get(kk, j));
            }
        }
    }
    (xs, ys)
}

/// Folds per-cross-product shares back into an `m × n` matrix: chunk
/// `(i, j)` of length `k` sums into `out[i, j]`.
fn fold_cross(shares: &[u64], m: usize, k: usize, n: usize, ring: Ring) -> Matrix {
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let base = ((i * n) + j) * k;
            let sum = shares[base..base + k].iter().fold(0u64, |acc, &v| ring.add(acc, v));
            out.set(i, j, sum);
        }
    }
    out
}

/// Interactive matrix-triple generation, "party 0" (server) side: samples
/// `X₀, Y₀`, runs the Gilboa cross products (chooser on `X₀` first, then
/// sender from `Y₀`), and assembles `Z₀ = X₀·Y₀ + ⟨X₀·Y₁⟩ + ⟨X₁·Y₀⟩`.
///
/// # Errors
///
/// Returns [`ProtocolError`] on OT failure.
#[allow(clippy::too_many_arguments)]
pub fn generate_matrix_p0<T: Transport, R: Rng + ?Sized>(
    ch: &mut T,
    ot_r: &mut IknpReceiver,
    ot_s: &mut IknpSender,
    m: usize,
    k: usize,
    n: usize,
    ring: Ring,
    rng: &mut R,
) -> Result<MatrixTriple, ProtocolError> {
    let x0 = Matrix::random(m, k, &ring, rng);
    let y0 = Matrix::random(k, n, &ring, rng);
    // X₀·Y₁: we choose on bits of X₀'s flattened cross entries.
    let (xs, _) = flatten_cross(&x0, &y0);
    let t1 = gilboa_chooser(ch, ot_r, &xs, ring)?;
    // X₁·Y₀: we supply correlations from Y₀'s flattened cross entries.
    let (_, ys) = flatten_cross(&x0, &y0);
    let w2 = gilboa_sender(ch, ot_s, &ys, ring)?;
    let z0 = x0
        .mul(&y0, &ring)
        .add(&fold_cross(&t1, m, k, n, ring), &ring)
        .add(&fold_cross(&w2, m, k, n, ring), &ring);
    Ok(MatrixTriple { x: x0, y: y0, z: z0 })
}

/// Interactive matrix-triple generation, "party 1" (client) side — the
/// mirror of [`generate_matrix_p0`]: sender from `Y₁` first, then chooser
/// on `X₁`.
///
/// # Errors
///
/// Returns [`ProtocolError`] on OT failure.
#[allow(clippy::too_many_arguments)]
pub fn generate_matrix_p1<T: Transport, R: Rng + ?Sized>(
    ch: &mut T,
    ot_s: &mut IknpSender,
    ot_r: &mut IknpReceiver,
    m: usize,
    k: usize,
    n: usize,
    ring: Ring,
    rng: &mut R,
) -> Result<MatrixTriple, ProtocolError> {
    let x1 = Matrix::random(m, k, &ring, rng);
    let y1 = Matrix::random(k, n, &ring, rng);
    let (_, ys) = flatten_cross(&x1, &y1);
    let w1 = gilboa_sender(ch, ot_s, &ys, ring)?;
    let (xs, _) = flatten_cross(&x1, &y1);
    let t2 = gilboa_chooser(ch, ot_r, &xs, ring)?;
    let z1 = x1
        .mul(&y1, &ring)
        .add(&fold_cross(&w1, m, k, n, ring), &ring)
        .add(&fold_cross(&t2, m, k, n, ring), &ring);
    Ok(MatrixTriple { x: x1, y: y1, z: z1 })
}

/// Dealer-mode triple: samples both halves locally so that
/// `Z₀ + Z₁ = (X₀ + X₁)·(Y₀ + Y₁)`. Returns `(party 0, party 1)` shares.
pub fn deal_matrix_triple<R: Rng + ?Sized>(
    m: usize,
    k: usize,
    n: usize,
    ring: Ring,
    rng: &mut R,
) -> (MatrixTriple, MatrixTriple) {
    let x0 = Matrix::random(m, k, &ring, rng);
    let x1 = Matrix::random(m, k, &ring, rng);
    let y0 = Matrix::random(k, n, &ring, rng);
    let y1 = Matrix::random(k, n, &ring, rng);
    let z1 = Matrix::random(m, n, &ring, rng);
    let z = x0.add(&x1, &ring).mul(&y0.add(&y1, &ring), &ring);
    let z0 = z.sub(&z1, &ring);
    (MatrixTriple { x: x0, y: y0, z: z0 }, MatrixTriple { x: x1, y: y1, z: z1 })
}

/// Online open-and-combine: multiplies secret-shared matrices `A` (`m × k`)
/// and `B` (`k × n`) with a precomputed triple. Both parties call this
/// symmetrically (`party` ∈ {0, 1}); one [`MatmulOpenings`] frame each way.
/// Returns this party's additive share of `A·B` (pre-truncation — the
/// caller feeds it to the reconstruct-truncate-reshare circuit).
///
/// # Errors
///
/// [`ProtocolError::Dimension`] if the operands or triple disagree with
/// `(m, k, n)`; [`ProtocolError::Malformed`] on a bad peer opening.
pub fn mul_matrix_shares<T: Transport>(
    ch: &mut T,
    triple: &MatrixTriple,
    a: &Matrix,
    b: &Matrix,
    ring: Ring,
    party: u8,
) -> Result<Matrix, ProtocolError> {
    let (m, k, n) = triple.dims();
    if a.rows() != m || a.cols() != k || b.rows() != k || b.cols() != n {
        return Err(ProtocolError::Dimension("operands do not fit the matrix triple"));
    }
    let d_own = a.sub(&triple.x, &ring);
    let e_own = b.sub(&triple.y, &ring);
    let mut opening = Vec::with_capacity(m * k + k * n);
    opening.extend_from_slice(d_own.as_slice());
    opening.extend_from_slice(e_own.as_slice());
    ch.send_frame(&MatmulOpenings(ring.encode_slice(&opening)))?;
    let MatmulOpenings(theirs_bytes) = ch.recv_frame()?;
    if theirs_bytes.len() != (m * k + k * n) * ring.byte_len() {
        return Err(ProtocolError::Malformed("matmul opening length"));
    }
    let theirs = ring.decode_slice(&theirs_bytes);
    let d = d_own.add(&Matrix::new(m, k, theirs[..m * k].to_vec()), &ring);
    let e = e_own.add(&Matrix::new(k, n, theirs[m * k..].to_vec()), &ring);
    let mut p = triple.z.add(&d.mul(&triple.y, &ring), &ring).add(&triple.x.mul(&e, &ring), &ring);
    if party == 0 {
        p = p.add(&d.mul(&e, &ring), &ring);
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_net::{run_pair, Endpoint, NetworkModel};
    use rand::SeedableRng;

    fn with_matrix_triples<A: Send, B: Send>(
        m: usize,
        k: usize,
        n: usize,
        f0: impl FnOnce(&mut Endpoint, MatrixTriple) -> A + Send,
        f1: impl FnOnce(&mut Endpoint, MatrixTriple) -> B + Send,
    ) -> (A, B) {
        let ring = Ring::new(32);
        let (a, b, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(500);
                let mut ot_r = IknpReceiver::setup(ch, &mut rng).expect("setup r");
                let mut ot_s = IknpSender::setup(ch, &mut rng).expect("setup s");
                let t = generate_matrix_p0(ch, &mut ot_r, &mut ot_s, m, k, n, ring, &mut rng)
                    .expect("gen");
                f0(ch, t)
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(501);
                let mut ot_s = IknpSender::setup(ch, &mut rng).expect("setup s");
                let mut ot_r = IknpReceiver::setup(ch, &mut rng).expect("setup r");
                let t = generate_matrix_p1(ch, &mut ot_s, &mut ot_r, m, k, n, ring, &mut rng)
                    .expect("gen");
                f1(ch, t)
            },
        );
        (a, b)
    }

    fn assert_triple_relation(t0: &MatrixTriple, t1: &MatrixTriple, ring: Ring) {
        let x = t0.x.add(&t1.x, &ring);
        let y = t0.y.add(&t1.y, &ring);
        let z = t0.z.add(&t1.z, &ring);
        assert_eq!(z, x.mul(&y, &ring));
    }

    #[test]
    fn interactive_triples_satisfy_the_relation() {
        let ring = Ring::new(32);
        let (t0, t1) = with_matrix_triples(3, 4, 2, |_, t| t, |_, t| t);
        assert_eq!(t0.dims(), (3, 4, 2));
        assert!(t0.fits(3, 4, 2) && !t0.fits(4, 3, 2));
        assert_triple_relation(&t0, &t1, ring);
    }

    #[test]
    fn dealt_triples_satisfy_the_relation() {
        let ring = Ring::new(16);
        let mut rng = rand::rngs::StdRng::seed_from_u64(502);
        let (t0, t1) = deal_matrix_triple(2, 3, 5, ring, &mut rng);
        assert_triple_relation(&t0, &t1, ring);
    }

    #[test]
    fn shared_matrix_multiplication_is_correct() {
        let ring = Ring::new(32);
        let (m, k, n) = (2, 3, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(503);
        let a = Matrix::random(m, k, &ring, &mut rng);
        let b = Matrix::random(k, n, &ring, &mut rng);
        let a1 = Matrix::random(m, k, &ring, &mut rng);
        let b1 = Matrix::random(k, n, &ring, &mut rng);
        let a0 = a.sub(&a1, &ring);
        let b0 = b.sub(&b1, &ring);
        let (p0, p1) = with_matrix_triples(
            m,
            k,
            n,
            move |ch, t| mul_matrix_shares(ch, &t, &a0, &b0, ring, 0).expect("mul p0"),
            move |ch, t| mul_matrix_shares(ch, &t, &a1, &b1, ring, 1).expect("mul p1"),
        );
        assert_eq!(p0.add(&p1, &ring), a.mul(&b, &ring));
    }

    #[test]
    fn mismatched_operands_rejected() {
        let ring = Ring::new(16);
        let mut rng = rand::rngs::StdRng::seed_from_u64(504);
        let (t0, _) = deal_matrix_triple(2, 3, 2, ring, &mut rng);
        let bad_a = Matrix::zeros(3, 2);
        let b = Matrix::zeros(3, 2);
        let (r, _, _) = run_pair(
            NetworkModel::instant(),
            move |ch| mul_matrix_shares(ch, &t0, &bad_a, &b, ring, 0),
            move |_ch| (),
        );
        assert_eq!(
            r.err(),
            Some(ProtocolError::Dimension("operands do not fit the matrix triple"))
        );
    }
}
