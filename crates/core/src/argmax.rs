//! Secure classification output (extension): reveal only the *predicted
//! class* to the client, not the logits.
//!
//! The paper's protocol opens the final layer's shares toward the client,
//! which leaks all logits. Here the last step instead evaluates a
//! masked-argmax garbled circuit
//! ([`abnn2_gc::circuits::argmax_mask_circuit`]): the server (evaluator)
//! learns `argmax ⊕ mask` — uniformly random to it — forwards it, and the
//! client removes its mask. Neither party sees a single logit.

use crate::frames::MaskedClass;
use crate::nonlinear::{push_words, words_to_bits};
use crate::ProtocolError;
use abnn2_gc::{circuits, YaoEvaluator, YaoGarbler};
use abnn2_math::Ring;
use abnn2_net::Transport;
use abnn2_ot::bits::pack_bits;
use rand::Rng;

/// The class counts a masked argmax can run on: the `MaskedClass` frame is
/// exactly one byte, so an index of nine or more bits would be truncated on
/// the wire. Checked by both parties before any I/O.
fn check_classes(n: usize) -> Result<(), ProtocolError> {
    match n {
        0 => Err(ProtocolError::Dimension("argmax needs at least one logit")),
        1..=256 => Ok(()),
        _ => Err(ProtocolError::Dimension("argmax class index does not fit one byte")),
    }
}

/// Server (evaluator) side: holds logit shares `y0`, forwards the masked
/// class index to the client. Learns nothing (the mask blinds the index).
///
/// # Errors
///
/// [`ProtocolError::Dimension`] for no logits or more than 256; otherwise
/// disconnection or garbling failure.
pub fn argmax_server<T: Transport>(
    ch: &mut T,
    yao: &mut YaoEvaluator,
    y0: &[u64],
    ring: Ring,
) -> Result<(), ProtocolError> {
    check_classes(y0.len())?;
    let bits = ring.bits() as usize;
    let circuit = circuits::argmax_mask_circuit(bits, y0.len());
    let out = yao.run(ch, &circuit, &words_to_bits(y0, bits))?;
    // At most eight index bits for 256 classes: exactly the frame's byte.
    ch.send_frame(&MaskedClass(pack_bits(&out)))?;
    Ok(())
}

/// Client (garbler) side: holds logit shares `y1`; returns the predicted
/// class index.
///
/// # Errors
///
/// [`ProtocolError::Dimension`] for no logits or more than 256; otherwise
/// disconnection or garbling failure.
pub fn argmax_client<T: Transport, RNG: Rng + ?Sized>(
    ch: &mut T,
    yao: &mut YaoGarbler,
    y1: &[u64],
    ring: Ring,
    rng: &mut RNG,
) -> Result<usize, ProtocolError> {
    check_classes(y1.len())?;
    let bits = ring.bits() as usize;
    let n = y1.len();
    let idx_bits = circuits::argmax_index_bits(n);
    let mask: u64 = rng.gen::<u64>() & ((1 << idx_bits) - 1);
    let circuit = circuits::argmax_mask_circuit(bits, n);
    let mut my_bits = words_to_bits(y1, bits);
    push_words(&mut my_bits, &[mask], idx_bits);
    let indices: Vec<u64> = (0..n as u64).collect();
    push_words(&mut my_bits, &indices, idx_bits);
    yao.run(ch, &circuit, &my_bits, rng)?;
    // The frame layer enforces the exact one-byte payload.
    let MaskedClass(masked) = ch.recv_frame()?;
    Ok(((u64::from(masked[0])) ^ mask) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_net::{run_pair, NetworkModel};
    use rand::SeedableRng;

    fn run_argmax(values: Vec<i64>, seed: u64) -> usize {
        let ring = Ring::new(32);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let v_ring: Vec<u64> = values.iter().map(|&v| ring.from_i64(v)).collect();
        let y1 = ring.sample_vec(&mut rng, values.len());
        let y0 = ring.sub_vec(&v_ring, &y1);
        let ((), idx, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
                let mut yao = YaoEvaluator::setup(ch, &mut rng).expect("setup");
                argmax_server(ch, &mut yao, &y0, ring).expect("server");
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 2);
                let mut yao = YaoGarbler::setup(ch, &mut rng).expect("setup");
                argmax_client(ch, &mut yao, &y1, ring, &mut rng).expect("client")
            },
        );
        idx
    }

    #[test]
    fn finds_the_maximum_class() {
        assert_eq!(run_argmax(vec![-5, 100, 3], 300), 1);
        assert_eq!(run_argmax(vec![7, -100, 3, 6], 301), 0);
        assert_eq!(run_argmax(vec![-9, -8, -1], 302), 2);
    }

    #[test]
    fn ten_class_logits() {
        let logits: Vec<i64> = vec![12, -4, 99, 0, 98, -50, 7, 3, 2, 1];
        assert_eq!(run_argmax(logits, 303), 2);
    }

    #[test]
    fn single_class_degenerate() {
        assert_eq!(run_argmax(vec![-42], 304), 0);
    }

    /// 256 classes is the most one `MaskedClass` byte indexes: every index,
    /// the eight-bit ones included, comes back whole.
    #[test]
    fn every_index_of_256_classes_round_trips() {
        let ring = Ring::new(8);
        let n = 256usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(305);
        let y1 = ring.sample_vec(&mut rng, n);
        let y1c = y1.clone();
        let ((), got, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(306);
                let mut yao = YaoEvaluator::setup(ch, &mut rng).expect("setup");
                for class in 0..n {
                    // Every logit −3 but the winner's +3.
                    let y: Vec<u64> =
                        (0..n).map(|j| ring.from_i64(if j == class { 3 } else { -3 })).collect();
                    argmax_server(ch, &mut yao, &ring.sub_vec(&y, &y1), ring).expect("server");
                }
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(307);
                let mut yao = YaoGarbler::setup(ch, &mut rng).expect("setup");
                (0..n)
                    .map(|_| argmax_client(ch, &mut yao, &y1c, ring, &mut rng).expect("client"))
                    .collect::<Vec<usize>>()
            },
        );
        assert_eq!(got, (0..n).collect::<Vec<usize>>());
    }

    /// One class more needs a ninth index bit, which the one-byte frame
    /// would drop: both parties refuse before any traffic.
    #[test]
    fn more_than_256_classes_rejected_before_io() {
        let ring = Ring::new(8);
        let shares = vec![0u64; 257];
        let (s, c, _) = run_pair(
            NetworkModel::instant(),
            |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(308);
                let mut yao = YaoEvaluator::setup(ch, &mut rng).expect("setup");
                let before = ch.snapshot();
                let err = argmax_server(ch, &mut yao, &shares, ring).expect_err("257 classes");
                (err, ch.snapshot() == before)
            },
            |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(309);
                let mut yao = YaoGarbler::setup(ch, &mut rng).expect("setup");
                let before = ch.snapshot();
                let err =
                    argmax_client(ch, &mut yao, &shares, ring, &mut rng).expect_err("257 classes");
                (err, ch.snapshot() == before)
            },
        );
        let want = ProtocolError::Dimension("argmax class index does not fit one byte");
        assert_eq!((s, c), ((want, true), (want, true)));
    }
}
