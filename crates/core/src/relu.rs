//! Online activation protocols (§4.2).
//!
//! Both variants compute, per neuron, fresh shares of
//! `ReLU((y₀ + y₁) ≫ₐ shift)` where `shift` removes the weight-scale
//! fractional bits (exactly — the shift happens inside the circuit on the
//! reconstructed value, not on shares):
//!
//! * [`ReluVariant::Oblivious`] — Algorithm 2: one garbled circuit
//!   reconstructs, applies ReLU + truncation, and re-shares. Nothing about
//!   the data is revealed.
//! * [`ReluVariant::Optimized`] — the paper's optimized ReLU: a small
//!   comparison circuit first reveals *which neurons are negative*; those
//!   are re-shared as zero with no further garbling, and only the
//!   non-negative subset pays for the reconstruct-and-reshare circuit.
//!   **Trade-off**: the sign of every pre-activation leaks to both parties
//!   (the paper accepts this; we default to `Oblivious`).

use crate::frames::{NegShares, SignBits};
use crate::nonlinear::{reshare_client, reshare_server, words_to_bits, Lowering};
use crate::ProtocolError;
use abnn2_gc::{circuits, Circuit, YaoEvaluator, YaoGarbler};
use abnn2_math::Ring;
use abnn2_net::Transport;
use abnn2_ot::bits::get_bit;
use rand::Rng;

/// Which §4.2 activation protocol to run. Both parties must agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReluVariant {
    /// Algorithm 2 — fully oblivious (default).
    #[default]
    Oblivious,
    /// Comparison-first optimization — cheaper, leaks pre-activation signs.
    Optimized,
}

/// Server (evaluator) side: holds shares `y0`, obtains fresh shares `z0` of
/// the activated, truncated values.
///
/// # Errors
///
/// Returns [`ProtocolError`] on disconnection or garbling failures.
pub fn relu_server<T: Transport>(
    ch: &mut T,
    yao: &mut YaoEvaluator,
    y0: &[u64],
    ring: Ring,
    shift: u32,
    variant: ReluVariant,
) -> Result<Vec<u64>, ProtocolError> {
    let (bits, shift) = (ring.bits() as usize, shift as usize);
    match variant {
        ReluVariant::Oblivious => {
            let circuit = circuits::relu_trunc_reshare_vec_circuit(bits, y0.len(), shift);
            reshare_server(ch, yao, &circuit, &[y0], ring)
        }
        ReluVariant::Optimized => {
            let (sign, reshare) = sign_first_circuits(bits, shift);
            let op = Lowering::SignFirst { sign, reshare }.server(ch, yao, &[y0], ring, 1)?;
            op.run(ch, yao, ring)
        }
    }
}

/// The optimized ReLU's two circuits for one neuron: the sign comparison
/// and the reconstruct-truncate-reshare of a neuron that passed it.
pub(crate) fn sign_first_circuits(bits: usize, shift: usize) -> (Circuit, Circuit) {
    let sign = circuits::relu_sign_vec_circuit(bits, 1);
    (sign, circuits::reconstruct_trunc_reshare_vec_circuit(bits, 1, shift))
}

/// Client (garbler) side: holds shares `y1` and supplies its fresh output
/// shares `z1` (which in the full pipeline equal the next layer's offline
/// randomness `R`).
///
/// # Errors
///
/// [`ProtocolError::Dimension`] if `y1.len() != z1.len()`; otherwise
/// disconnection or garbling failures.
#[allow(clippy::too_many_arguments)]
pub fn relu_client<T: Transport, RNG: Rng + ?Sized>(
    ch: &mut T,
    yao: &mut YaoGarbler,
    y1: &[u64],
    z1: &[u64],
    ring: Ring,
    shift: u32,
    variant: ReluVariant,
    rng: &mut RNG,
) -> Result<(), ProtocolError> {
    let (bits, shift) = (ring.bits() as usize, shift as usize);
    match variant {
        ReluVariant::Oblivious => {
            let circuit = circuits::relu_trunc_reshare_vec_circuit(bits, y1.len(), shift);
            reshare_client(ch, yao, &circuit, &[y1], z1, ring, rng)
        }
        ReluVariant::Optimized => {
            let (sign, reshare) = sign_first_circuits(bits, shift);
            sign_first_client(ch, yao, &sign, &reshare, y1, z1, ring, rng)
        }
    }
}

/// Client half of the optimized ReLU; the server half is
/// [`ServerOp`](crate::nonlinear::ServerOp)'s.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sign_first_client<T: Transport, RNG: Rng + ?Sized>(
    ch: &mut T,
    yao: &mut YaoGarbler,
    sign: &Circuit,
    reshare: &Circuit,
    y1: &[u64],
    z1: &[u64],
    ring: Ring,
    rng: &mut RNG,
) -> Result<(), ProtocolError> {
    let n = y1.len();
    if z1.len() != n {
        return Err(ProtocolError::Dimension("share vectors must align"));
    }
    if n == 0 {
        return Ok(());
    }
    let bits = ring.bits() as usize;
    yao.run(ch, &sign.with_lanes(n), &words_to_bits(y1, bits), rng)?;
    let SignBits(sign_bytes) = ch.recv_frame()?;
    if sign_bytes.len() != n.div_ceil(8) {
        return Err(ProtocolError::Malformed("sign-bit batch length"));
    }
    let (pos, neg): (Vec<usize>, Vec<usize>) = (0..n).partition(|&j| get_bit(&sign_bytes, j));

    // z = 0 for negative neurons: z0 must equal −z1.
    let neg_shares: Vec<u64> = neg.iter().map(|&j| ring.neg(z1[j])).collect();
    ch.send_frame(&NegShares(ring.encode_slice(&neg_shares)))?;

    let y1_pos: Vec<u64> = pos.iter().map(|&j| y1[j]).collect();
    let z1_pos: Vec<u64> = pos.iter().map(|&j| z1[j]).collect();
    let circuit = reshare.with_lanes(pos.len());
    reshare_client(ch, yao, &circuit, &[y1_pos], &z1_pos, ring, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_net::{run_pair, NetworkModel, TrafficReport};
    use rand::SeedableRng;

    fn run_relu(
        y: Vec<i64>,
        shift: u32,
        variant: ReluVariant,
        seed: u64,
    ) -> (Vec<u64>, Vec<u64>, TrafficReport) {
        let ring = Ring::new(32);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let y_ring: Vec<u64> = y.iter().map(|&v| ring.from_i64(v)).collect();
        let y1: Vec<u64> = ring.sample_vec(&mut rng, y.len());
        let y0: Vec<u64> = ring.sub_vec(&y_ring, &y1);
        let z1: Vec<u64> = ring.sample_vec(&mut rng, y.len());
        let (y1c, z1c) = (y1.clone(), z1.clone());
        let (z0, (), _report) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
                let mut yao = YaoEvaluator::setup(ch, &mut rng).expect("setup");
                relu_server(ch, &mut yao, &y0, ring, shift, variant).expect("server")
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 2);
                let mut yao = YaoGarbler::setup(ch, &mut rng).expect("setup");
                relu_client(ch, &mut yao, &y1c, &z1c, ring, shift, variant, &mut rng)
                    .expect("client");
            },
        );
        (z0, z1, _report)
    }

    fn check(y: Vec<i64>, shift: u32, variant: ReluVariant, seed: u64) {
        let ring = Ring::new(32);
        let (z0, z1, _) = run_relu(y.clone(), shift, variant, seed);
        for (j, &yv) in y.iter().enumerate() {
            let t = yv >> shift;
            let expect = if t < 0 { 0 } else { ring.from_i64(t) };
            assert_eq!(ring.add(z0[j], z1[j]), expect, "variant {variant:?}, y = {yv}");
        }
    }

    #[test]
    fn oblivious_relu_mixed_signs() {
        check(vec![100, -100, 0, 65535, -65536, 7, -1], 0, ReluVariant::Oblivious, 1000);
    }

    #[test]
    fn oblivious_relu_with_truncation() {
        check(vec![4096, -4096, 255, -255, 1 << 20], 8, ReluVariant::Oblivious, 2000);
    }

    #[test]
    fn optimized_relu_mixed_signs() {
        check(vec![100, -100, 0, 65535, -65536, 7, -1], 0, ReluVariant::Optimized, 3000);
    }

    #[test]
    fn optimized_relu_with_truncation() {
        check(vec![4096, -4096, 255, -255, 1 << 20], 8, ReluVariant::Optimized, 4000);
    }

    #[test]
    fn optimized_relu_all_negative() {
        check(vec![-5, -10, -1], 0, ReluVariant::Optimized, 5000);
    }

    #[test]
    fn optimized_relu_all_positive() {
        check(vec![5, 10, 1], 0, ReluVariant::Optimized, 6000);
    }

    #[test]
    fn optimized_saves_gc_traffic_when_neurons_negative() {
        // With every neuron negative, the optimized variant sends only the
        // comparison circuit, far less than the full Algorithm 2 circuit.
        let y: Vec<i64> = vec![-1000; 64];
        let (_, _, rep_obl) = run_relu(y.clone(), 0, ReluVariant::Oblivious, 7000);
        let (_, _, rep_opt) = run_relu(y, 0, ReluVariant::Optimized, 7001);
        assert!(
            rep_opt.total_bytes() < rep_obl.total_bytes(),
            "optimized {} >= oblivious {}",
            rep_opt.total_bytes(),
            rep_obl.total_bytes()
        );
    }

    #[test]
    fn empty_input_is_noop() {
        let (z0, _, _) = run_relu(vec![], 0, ReluVariant::Oblivious, 8000);
        assert!(z0.is_empty());
    }
}
