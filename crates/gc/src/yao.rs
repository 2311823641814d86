//! Yao's two-party protocol over a channel: garble → transfer → evaluate.
//!
//! The garbler ships the garbled tables, its own selected input labels and
//! the output decode bits in one message; the evaluator fetches its input
//! labels through IKNP OT and evaluates locally. Outputs are revealed to the
//! **evaluator only** (in ABNN² the server evaluates and learns its fresh
//! share `z₀`).

use crate::circuit::Circuit;
use crate::frames::{GcDecodeMap, GcLabels, GcTables};
use crate::garble::{evaluate, garble, GarbledCircuit};
use crate::GcError;
use abnn2_net::Transport;
use abnn2_ot::{IknpReceiver, IknpSender};
use rand::Rng;

/// The garbling party (ABNN²'s client). Owns the OT-sender state used to
/// deliver evaluator input labels.
#[derive(Debug)]
pub struct YaoGarbler {
    ot: IknpSender,
}

/// The evaluating party (ABNN²'s server). Owns the OT-receiver state.
#[derive(Debug, Clone)]
pub struct YaoEvaluator {
    ot: IknpReceiver,
}

impl YaoGarbler {
    /// One-time setup (runs the base OTs). Must be paired with
    /// [`YaoEvaluator::setup`] on the other side.
    ///
    /// # Errors
    ///
    /// Propagates OT setup failures.
    pub fn setup<T: Transport, R: Rng + ?Sized>(ch: &mut T, rng: &mut R) -> Result<Self, GcError> {
        Ok(YaoGarbler { ot: IknpSender::setup(ch, rng)? })
    }

    /// Wraps an existing OT sender (to share one OT session across GC and
    /// other subprotocols).
    #[must_use]
    pub fn from_ot(ot: IknpSender) -> Self {
        YaoGarbler { ot }
    }

    /// Garbles `circuit`, transfers everything, and serves the evaluator's
    /// input-label OTs. Returns nothing: outputs go to the evaluator.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or OT failure.
    ///
    /// # Panics
    ///
    /// Panics if `my_bits` does not match the circuit's garbler inputs.
    pub fn run<T: Transport, R: Rng + ?Sized>(
        &mut self,
        ch: &mut T,
        circuit: &Circuit,
        my_bits: &[bool],
        rng: &mut R,
    ) -> Result<(), GcError> {
        let (GarbledCircuit { tables, decode }, labels) = garble(circuit, rng);
        ch.send_frame(&GcLabels(labels.select_garbler(my_bits)))?;
        ch.send_frame(&GcTables(tables))?;
        ch.send_frame(&GcDecodeMap(decode))?;
        self.ot.send_chosen(ch, &labels.evaluator_inputs)?;
        Ok(())
    }
}

impl YaoEvaluator {
    /// One-time setup (runs the base OTs); pairs with [`YaoGarbler::setup`].
    ///
    /// # Errors
    ///
    /// Propagates OT setup failures.
    pub fn setup<T: Transport, R: Rng + ?Sized>(ch: &mut T, rng: &mut R) -> Result<Self, GcError> {
        Ok(YaoEvaluator { ot: IknpReceiver::setup(ch, rng)? })
    }

    /// Bytes this evaluator holds between circuits (its OT receiver; the
    /// garbling layer keeps nothing): what parking it costs a store.
    #[must_use]
    pub fn parked_bytes(&self) -> usize {
        self.ot.parked_bytes()
    }

    /// Wraps an existing OT receiver.
    #[must_use]
    pub fn from_ot(ot: IknpReceiver) -> Self {
        YaoEvaluator { ot }
    }

    /// Receives a garbled circuit, obtains labels for `my_bits` via OT,
    /// evaluates, and returns the decoded output bits.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection, OT failure, or material that does
    /// not match `circuit`.
    pub fn run<T: Transport>(
        &mut self,
        ch: &mut T,
        circuit: &Circuit,
        my_bits: &[bool],
    ) -> Result<Vec<bool>, GcError> {
        let GcLabels(garbler_labels) = ch.recv_frame()?;
        let GcTables(tables) = ch.recv_frame()?;
        let GcDecodeMap(decode) = ch.recv_frame()?;
        // Reject material for another circuit before spending the label OTs.
        let gc = GarbledCircuit { tables, decode };
        gc.check(circuit)?;
        let my_labels = self.ot.recv(ch, my_bits)?;
        evaluate(circuit, &gc, &garbler_labels, &my_labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{bits_to_u64, u64_to_bits};
    use crate::circuits;
    use abnn2_math::Ring;
    use abnn2_net::{run_pair, NetworkModel};
    use rand::SeedableRng;

    fn yao_run(circuit: &Circuit, g_bits: Vec<bool>, e_bits: Vec<bool>) -> Vec<bool> {
        let c1 = circuit.clone();
        let c2 = circuit.clone();
        let (_, out, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(21);
                let mut g = YaoGarbler::setup(ch, &mut rng).expect("garbler setup");
                g.run(ch, &c1, &g_bits, &mut rng).expect("garbler run");
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(22);
                let mut e = YaoEvaluator::setup(ch, &mut rng).expect("evaluator setup");
                e.run(ch, &c2, &e_bits).expect("evaluator run")
            },
        );
        out
    }

    #[test]
    fn two_party_relu_reshare() {
        let bits = 16;
        let ring = Ring::new(bits as u32);
        let circuit = circuits::relu_reshare_circuit(bits);
        for y in [-2000i64, -1, 0, 1, 12345] {
            let y_ring = ring.from_i64(y);
            let y1 = 0x3C3Cu64;
            let y0 = ring.sub(y_ring, y1);
            let z1 = 0x00FFu64;
            let mut g_bits = u64_to_bits(y1, bits);
            g_bits.extend(u64_to_bits(z1, bits));
            let out = yao_run(&circuit, g_bits, u64_to_bits(y0, bits));
            let z0 = bits_to_u64(&out);
            let expect = if y >= 0 { y as u64 } else { 0 };
            assert_eq!(ring.add(z0, z1), expect, "y = {y}");
        }
    }

    #[test]
    fn two_party_sign_circuit() {
        let bits = 12;
        let ring = Ring::new(bits as u32);
        let circuit = circuits::relu_sign_circuit(bits);
        for y in [-100i64, 100] {
            let y1 = 0x123u64 & ring.mask();
            let y0 = ring.sub(ring.from_i64(y), y1);
            let out = yao_run(&circuit, u64_to_bits(y1, bits), u64_to_bits(y0, bits));
            assert_eq!(out, vec![y >= 0]);
        }
    }

    #[test]
    fn consecutive_circuits_reuse_session() {
        let bits = 8;
        let circuit = circuits::reconstruct_reshare_circuit(bits);
        let c1 = circuit.clone();
        let c2 = circuit.clone();
        let ring = Ring::new(8);
        let (_, outs, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(31);
                let mut g = YaoGarbler::setup(ch, &mut rng).expect("setup");
                for (y1, z1) in [(5u64, 9u64), (250, 3)] {
                    let mut bits_in = u64_to_bits(y1, bits);
                    bits_in.extend(u64_to_bits(z1, bits));
                    g.run(ch, &c1, &bits_in, &mut rng).expect("run");
                }
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(32);
                let mut e = YaoEvaluator::setup(ch, &mut rng).expect("setup");
                [(7u64,), (100,)]
                    .iter()
                    .map(|&(y0,)| {
                        bits_to_u64(&e.run(ch, &c2, &u64_to_bits(y0, bits)).expect("run"))
                    })
                    .collect::<Vec<u64>>()
            },
        );
        // z0 = (y0 + y1) - z1 mod 256
        assert_eq!(outs[0], ring.sub(ring.add(7, 5), 9));
        assert_eq!(outs[1], ring.sub(ring.add(100, 250), 3));
    }
}
