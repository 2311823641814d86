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
//!   products each (ℓ correlated OTs per product). The server is the
//!   chooser in both, on `X₀`'s bits and then `Y₀`'s, which is the
//!   direction of the Yao half of the session's lineage: the triple runs
//!   over the evaluator's IKNP receiver and the garbler's IKNP sender
//!   ([`abnn2_gc::YaoEvaluator::ot_mut`], [`abnn2_gc::YaoGarbler::ot_mut`]),
//!   one `IknpColumns` frame out and one `OtCorrections` frame back, under
//!   tweaks the extension's next circuits do not reuse. The flattening
//!   order `((i·n) + j)·k + κ` is part of the wire contract and must match
//!   on both sides,
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
use abnn2_ot::iknp::PendingOts;
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

/// Gilboa OT product: one correlated OT per bit of `xs[i]`, this party
/// choosing on it, gives shares of `xs[i]·ys[i]` (`ys` the peer's).
fn gilboa_choices(xs: &[u64], ring: Ring) -> Vec<bool> {
    let l = ring.bits() as usize;
    xs.iter().flat_map(|&x| (0..l).map(move |b| (x >> b) & 1 == 1)).collect()
}

/// One share per product: the sum of its `ℓ` OT outputs.
fn gilboa_sums(outputs: &[u64], ring: Ring) -> Vec<u64> {
    let l = ring.bits() as usize;
    outputs.chunks_exact(l).map(|c| c.iter().fold(0u64, |acc, &v| ring.add(acc, v))).collect()
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
    Ok(gilboa_sums(&x0s, ring).into_iter().map(|s| ring.neg(s)).collect())
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

/// Folds both cross products' shares into an `m × n` matrix: the first
/// `m·n·k` entries are `X₀·Y₁`'s, the rest `X₁·Y₀`'s, and chunk `(i, j)` of
/// length `k` of each sums into `out[i, j]`.
fn fold_cross(shares: &[u64], m: usize, k: usize, n: usize, ring: Ring) -> Matrix {
    let mut out = Matrix::zeros(m, n);
    let (xy, yx) = shares.split_at(m * n * k);
    for i in 0..m {
        for j in 0..n {
            let at = ((i * n) + j) * k..((i * n) + j + 1) * k;
            let sum = xy[at.clone()].iter().chain(&yx[at]).fold(0u64, |acc, &v| ring.add(acc, v));
            out.set(i, j, sum);
        }
    }
    out
}

/// Interactive matrix-triple generation, "party 0" (server) side: samples
/// `X₀, Y₀`, chooses in both Gilboa cross products — on `X₀`'s bits for
/// `X₀·Y₁`, on `Y₀`'s for `X₁·Y₀` — and assembles
/// `Z₀ = X₀·Y₀ + ⟨X₀·Y₁⟩ + ⟨X₁·Y₀⟩`, in two halves either side of its one
/// wait. `_ot_s` is accepted and ignored: the server sends no OT here.
/// It exists for `bench/`, which still passes it, as `set_threads` does.
///
/// # Errors
///
/// Returns [`ProtocolError`] on OT failure.
#[allow(clippy::too_many_arguments)]
pub fn generate_matrix_p0<T: Transport, R: Rng + ?Sized>(
    ch: &mut T,
    ot_r: &mut IknpReceiver,
    _ot_s: &mut IknpSender,
    m: usize,
    k: usize,
    n: usize,
    ring: Ring,
    rng: &mut R,
) -> Result<MatrixTriple, ProtocolError> {
    generate_matrix_p0_start(ch, ot_r, m, k, n, ring, rng)?.finish(ch, ring)
}

/// [`generate_matrix_p0`] up to its one wait: samples `X₀, Y₀` and sends
/// one `IknpColumns` frame choosing on `X₀`'s flattened cross entries,
/// then `Y₀`'s.
pub(crate) fn generate_matrix_p0_start<T: Transport, R: Rng + ?Sized>(
    ch: &mut T,
    ot_r: &mut IknpReceiver,
    m: usize,
    k: usize,
    n: usize,
    ring: Ring,
    rng: &mut R,
) -> Result<PendingTriple, ProtocolError> {
    let x0 = Matrix::random(m, k, &ring, rng);
    let y0 = Matrix::random(k, n, &ring, rng);
    let (xs, ys) = flatten_cross(&x0, &y0);
    let ots = ot_r.recv_start(ch, &gilboa_choices(&[xs, ys].concat(), ring))?;
    Ok(PendingTriple { x0, y0, ots })
}

/// The server's triple shares, sampled, with its columns out: the client's
/// corrections come next.
#[derive(Debug)]
pub(crate) struct PendingTriple {
    x0: Matrix,
    y0: Matrix,
    ots: PendingOts,
}

impl PendingTriple {
    /// The rest of [`generate_matrix_p0`]: receives the corrections and
    /// assembles `Z₀`.
    pub(crate) fn finish<T: Transport>(
        self,
        ch: &mut T,
        ring: Ring,
    ) -> Result<MatrixTriple, ProtocolError> {
        let PendingTriple { x0, y0, ots } = self;
        let (m, k, n) = (x0.rows(), x0.cols(), y0.cols());
        let cross = gilboa_sums(&ots.finish_correlated(ch, ring)?, ring);
        let z0 = x0.mul(&y0, &ring).add(&fold_cross(&cross, m, k, n, ring), &ring);
        Ok(MatrixTriple { x: x0, y: y0, z: z0 })
    }
}

/// Interactive matrix-triple generation, "party 1" (client) side — the
/// mirror of [`generate_matrix_p0`]: the Gilboa sender in both cross
/// products, answering the server's columns with one `OtCorrections` frame
/// over `2^b·Y₁`, then `2^b·X₁`. `_ot_r` is accepted and ignored: the
/// client chooses in no OT here. It exists for `bench/`, which still
/// passes it, as `set_threads` does.
///
/// # Errors
///
/// Returns [`ProtocolError`] on OT failure.
#[allow(clippy::too_many_arguments)]
pub fn generate_matrix_p1<T: Transport, R: Rng + ?Sized>(
    ch: &mut T,
    ot_s: &mut IknpSender,
    _ot_r: &mut IknpReceiver,
    m: usize,
    k: usize,
    n: usize,
    ring: Ring,
    rng: &mut R,
) -> Result<MatrixTriple, ProtocolError> {
    generate_matrix_p1_over(ch, ot_s, m, k, n, ring, rng)
}

/// [`generate_matrix_p1`] over the one OT sender it uses.
pub(crate) fn generate_matrix_p1_over<T: Transport, R: Rng + ?Sized>(
    ch: &mut T,
    ot_s: &mut IknpSender,
    m: usize,
    k: usize,
    n: usize,
    ring: Ring,
    rng: &mut R,
) -> Result<MatrixTriple, ProtocolError> {
    let x1 = Matrix::random(m, k, &ring, rng);
    let y1 = Matrix::random(k, n, &ring, rng);
    let (xs, ys) = flatten_cross(&x1, &y1);
    let cross = gilboa_sender(ch, ot_s, &[ys, xs].concat(), ring)?;
    let z1 = x1.mul(&y1, &ring).add(&fold_cross(&cross, m, k, n, ring), &ring);
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
/// caller feeds it to the reconstruct-truncate-reshare circuit), in two
/// halves either side of its one wait.
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
    open_matrix_shares(ch, triple, a, b, ring)?.combine(ch, triple, ring, party)
}

/// This party's openings `D = A − X` and `E = B − Y`, sent; the peer's
/// come next.
#[derive(Debug)]
pub(crate) struct Opened {
    d: Matrix,
    e: Matrix,
}

/// [`mul_matrix_shares`] up to its wait: sends this party's opening.
pub(crate) fn open_matrix_shares<T: Transport>(
    ch: &mut T,
    triple: &MatrixTriple,
    a: &Matrix,
    b: &Matrix,
    ring: Ring,
) -> Result<Opened, ProtocolError> {
    let (m, k, n) = triple.dims();
    if a.rows() != m || a.cols() != k || b.rows() != k || b.cols() != n {
        return Err(ProtocolError::Dimension("operands do not fit the matrix triple"));
    }
    let opened = Opened { d: a.sub(&triple.x, &ring), e: b.sub(&triple.y, &ring) };
    let opening = [opened.d.as_slice(), opened.e.as_slice()].concat();
    ch.send_frame(&MatmulOpenings(ring.encode_slice(&opening)))?;
    Ok(opened)
}

impl Opened {
    /// The rest of [`mul_matrix_shares`]: receives the peer's opening and
    /// combines this party's share of `A·B`.
    pub(crate) fn combine<T: Transport>(
        self,
        ch: &mut T,
        triple: &MatrixTriple,
        ring: Ring,
        party: u8,
    ) -> Result<Matrix, ProtocolError> {
        let (m, k, n) = triple.dims();
        let MatmulOpenings(theirs_bytes) = ch.recv_frame()?;
        if theirs_bytes.len() != (m * k + k * n) * ring.byte_len() {
            return Err(ProtocolError::Malformed("matmul opening length"));
        }
        let theirs = ring.decode_slice(&theirs_bytes);
        let d = self.d.add(&Matrix::new(m, k, theirs[..m * k].to_vec()), &ring);
        let e = self.e.add(&Matrix::new(k, n, theirs[m * k..].to_vec()), &ring);
        let mut p =
            triple.z.add(&d.mul(&triple.y, &ring), &ring).add(&triple.x.mul(&e, &ring), &ring);
        if party == 0 {
            p = p.add(&d.mul(&e, &ring), &ring);
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relu::{relu_client, relu_server, ReluVariant};
    use abnn2_gc::{YaoEvaluator, YaoGarbler};
    use abnn2_net::{run_pair, Endpoint, NetworkModel};
    use rand::SeedableRng;

    /// One triple of shape `(m, k, n)` over a fresh Yao pair's OT
    /// extension, as a session's offline walk runs it; `f0`/`f1` go on over
    /// the same channel and Yao parties.
    fn with_matrix_triples<A: Send, B: Send>(
        m: usize,
        k: usize,
        n: usize,
        f0: impl FnOnce(&mut Endpoint, &mut YaoEvaluator, MatrixTriple) -> A + Send,
        f1: impl FnOnce(&mut Endpoint, &mut YaoGarbler, MatrixTriple) -> B + Send,
    ) -> (A, B) {
        let ring = Ring::new(32);
        let (a, b, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(500);
                let mut yao = YaoEvaluator::setup(ch, &mut rng).expect("setup");
                let t = generate_matrix_p0_start(ch, yao.ot_mut(), m, k, n, ring, &mut rng)
                    .and_then(|pending| pending.finish(ch, ring))
                    .expect("gen");
                f0(ch, &mut yao, t)
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(501);
                let mut yao = YaoGarbler::setup(ch, &mut rng).expect("setup");
                let t = generate_matrix_p1_over(ch, yao.ot_mut(), m, k, n, ring, &mut rng)
                    .expect("gen");
                f1(ch, &mut yao, t)
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
        let (t0, t1) = with_matrix_triples(3, 4, 2, |_, _, t| t, |_, _, t| t);
        assert_eq!(t0.dims(), (3, 4, 2));
        assert!(t0.fits(3, 4, 2) && !t0.fits(4, 3, 2));
        assert_triple_relation(&t0, &t1, ring);
    }

    /// The triple's Gilboa OTs and a ReLU circuit's label OTs draw from one
    /// IKNP extension: the triple moves the shared tweak past its `2·m·n·k·ℓ`
    /// OTs, so the circuit after it reuses no tweak, and both come out right.
    #[test]
    fn a_triple_then_a_relu_over_one_ot_extension_are_both_correct() {
        let ring = Ring::new(32);
        let mut rng = rand::rngs::StdRng::seed_from_u64(505);
        let y: Vec<u64> = [5i64, -7, 0, 300, -1].map(|v| ring.reduce(v as u64)).to_vec();
        let y1: Vec<u64> = y.iter().map(|_| ring.reduce(rng.gen())).collect();
        let z1: Vec<u64> = y.iter().map(|_| ring.reduce(rng.gen())).collect();
        let y0: Vec<u64> = y.iter().zip(&y1).map(|(&v, &r)| ring.sub(v, r)).collect();
        let client_z1 = z1.clone();
        let ((t0, z0), t1) = with_matrix_triples(
            2,
            3,
            2,
            move |ch, yao, t| {
                assert_eq!(format!("{:?}", yao.ot_mut()), "IknpReceiver { tweak: 768 }");
                let z0 = relu_server(ch, yao, &y0, ring, 0, ReluVariant::Oblivious).expect("relu");
                (t, z0)
            },
            move |ch, yao, t| {
                assert_eq!(format!("{:?}", yao.ot_mut()), "IknpSender { tweak: 768 }");
                let mut rng = rand::rngs::StdRng::seed_from_u64(506);
                let (variant, z1) = (ReluVariant::Oblivious, &client_z1);
                relu_client(ch, yao, &y1, z1, ring, 0, variant, &mut rng).expect("relu");
                t
            },
        );
        assert_triple_relation(&t0, &t1, ring);
        let got: Vec<u64> = z0.iter().zip(&z1).map(|(&a, &b)| ring.add(a, b)).collect();
        let relu: Vec<u64> = y.iter().map(|&v| if ring.to_i64(v) < 0 { 0 } else { v }).collect();
        assert_eq!(got, relu);
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
            move |ch, _, t| mul_matrix_shares(ch, &t, &a0, &b0, ring, 0).expect("mul p0"),
            move |ch, _, t| mul_matrix_shares(ch, &t, &a1, &b1, ring, 1).expect("mul p1"),
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
