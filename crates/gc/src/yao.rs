//! Yao's two-party protocol over a channel: garble → transfer → evaluate.
//!
//! The evaluator fetches its input labels through IKNP OT: its columns
//! depend only on its own bits, so they go first. The garbler ships its
//! own selected input labels, the garbled tables and the output decode
//! bits as three frames, then answers the columns with the label
//! ciphertexts; the evaluator evaluates locally. Outputs are revealed to
//! the **evaluator only** (in ABNN² the server evaluates and learns its
//! fresh share `z₀`).

use crate::circuit::Circuit;
use crate::frames::{table_payload, GcDecodeMap, GcLabels, GcTables};
use crate::garble::{check_material, evaluate_in_place, garble_into, table_bytes};
use abnn2_net::{Frame, Transport, TransportError};
use abnn2_ot::base::{self, PendingSend};
use abnn2_ot::iknp::PendingOts;
use abnn2_ot::{IknpReceiver, IknpSender};
use rand::Rng;
use std::cell::Cell;

thread_local! {
    /// The AND-tables frame this thread last garbled — its tag byte, then
    /// the tables — kept for the next circuit. A session's tables are MBs;
    /// a fresh buffer a circuit lets the allocator hand them back to the
    /// kernel and fault them in again, more or less often by the order of
    /// the frees. One buffer a thread, not a party, so a parked lineage
    /// holds none. The evaluator keeps none: it evaluates from the message
    /// it received.
    static TABLES: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// The garbling party (ABNN²'s client). Owns the OT-sender state used to
/// deliver evaluator input labels.
#[derive(Debug)]
pub struct YaoGarbler {
    ot: IknpSender,
}

/// The evaluating party (ABNN²'s server). Owns the OT-receiver state, so it
/// is not `Clone`: two copies would extend one OT stream twice.
///
/// ```compile_fail
/// fn copies<T: Clone>() {}
/// copies::<abnn2_gc::YaoEvaluator>();
/// ```
#[derive(Debug)]
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
    pub fn setup<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        rng: &mut R,
    ) -> Result<Self, TransportError> {
        IknpSender::setup(ch, rng).map(YaoGarbler::from_ot)
    }

    /// Wraps an existing OT sender (to share one OT session across GC and
    /// other subprotocols).
    #[must_use]
    pub fn from_ot(ot: IknpSender) -> Self {
        YaoGarbler { ot }
    }

    /// The OT sender, for a subprotocol that shares this session's
    /// extension (the matrix triples' Gilboa products): each extension
    /// moves its tweak past the OTs it used, so no later label OT reuses one.
    pub fn ot_mut(&mut self) -> &mut IknpSender {
        &mut self.ot
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
    ) -> Result<(), TransportError> {
        // Every table byte is garbled over, so a kept buffer is only
        // resized: what it held is never read.
        let mut frame = TABLES.take();
        frame.resize(1 + table_bytes(circuit), 0);
        frame[0] = GcTables::TAG;
        let (decode, labels) = garble_into(circuit, rng, &mut frame[1..]);
        // The buffer is the frame: the transport gets it as garbled.
        let sent =
            ch.send_frame(&GcLabels(labels.select_garbler(my_bits))).and_then(|()| ch.send(&frame));
        TABLES.set(frame);
        sent?;
        ch.send_frame(&GcDecodeMap(decode))?;
        self.ot.send_chosen(ch, &labels.evaluator_inputs)
    }
}

impl YaoEvaluator {
    /// One-time setup (runs the base OTs); pairs with [`YaoGarbler::setup`].
    ///
    /// # Errors
    ///
    /// Propagates OT setup failures.
    pub fn setup<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        rng: &mut R,
    ) -> Result<Self, TransportError> {
        base::finished(Self::setup_start(ch, rng)?, ch)
    }

    /// [`setup`](Self::setup) up to its wait, as
    /// [`IknpReceiver::setup_start`].
    ///
    /// # Errors
    ///
    /// Propagates OT setup failures.
    pub fn setup_start<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        rng: &mut R,
    ) -> Result<(Self, PendingSend), TransportError> {
        let (ot, pending) = IknpReceiver::setup_start(ch, rng)?;
        Ok((YaoEvaluator::from_ot(ot), pending))
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

    /// The OT receiver, shared as [`YaoGarbler::ot_mut`] shares the sender.
    pub fn ot_mut(&mut self) -> &mut IknpReceiver {
        &mut self.ot
    }

    /// Obtains labels for `my_bits` via OT, receives a garbled circuit,
    /// evaluates, and returns the decoded output bits:
    /// [`run_start`](Self::run_start), then [`PendingRun::finish`].
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
    ) -> Result<Vec<bool>, TransportError> {
        self.run_start(ch, my_bits)?.finish(ch, circuit)
    }

    /// The first half of [`run`](Self::run): sends the IKNP columns for
    /// the labels of `my_bits`, which need nothing from the garbler.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection.
    pub fn run_start<T: Transport>(
        &mut self,
        ch: &mut T,
        my_bits: &[bool],
    ) -> Result<PendingRun, TransportError> {
        Ok(PendingRun { ots: self.ot.recv_start(ch, my_bits)? })
    }
}

/// The evaluator's label OTs, their columns sent, waiting for the garbled
/// material and the ciphertexts.
#[derive(Debug)]
pub struct PendingRun {
    ots: PendingOts,
}

impl PendingRun {
    /// The second half of [`YaoEvaluator::run`]: receives the garbler's
    /// labels, tables and decode map and the label OTs' ciphertexts,
    /// evaluates `circuit` (the one whose evaluator bits the run started
    /// with) and returns the decoded output bits.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection, OT failure, or material that does
    /// not match `circuit`.
    pub fn finish<T: Transport>(
        self,
        ch: &mut T,
        circuit: &Circuit,
    ) -> Result<Vec<bool>, TransportError> {
        let GcLabels(garbler_labels) = ch.recv_frame()?;
        // The tables are evaluated where they landed, once checked.
        let tables = ch.recv()?;
        let tables = table_payload(&tables)?;
        let GcDecodeMap(decode) = ch.recv_frame()?;
        // Reject material for another circuit before decrypting the labels.
        check_material(circuit, tables, &decode)?;
        let my_labels = self.ots.finish(ch)?;
        evaluate_in_place(circuit, tables, &decode, &garbler_labels, &my_labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;
    use crate::circuit::{bits_to_u64, u64_to_bits};
    use crate::circuits;
    use abnn2_math::Ring;
    use abnn2_net::{run_pair, NetworkModel};
    use rand::SeedableRng;
    use std::sync::mpsc;
    use std::time::Duration;

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
        let circuit = circuits::relu_trunc_reshare_vec_circuit(bits, 1, 0);
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
        let circuit = circuits::relu_sign_vec_circuit(bits, 1);
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
        let circuit = circuits::reconstruct_trunc_reshare_vec_circuit(bits, 1, 0);
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

    #[test]
    fn circuits_of_different_sizes_share_each_threads_table_buffer() {
        // Large, small, large in one session: the garbler reuses the
        // buffer its thread kept, and the small circuit's tables must
        // not carry the large one's tail.
        let bits = 16;
        let ring = Ring::new(bits as u32);
        let big = circuits::relu_trunc_reshare_vec_circuit(bits, 1, 0);
        let small = circuits::relu_sign_vec_circuit(bits, 1);
        let sizes = 1 + table_bytes(&big);
        assert!(small.and_count() < big.and_count());
        let plan = [(big.clone(), true), (small.clone(), false), (big, true)];
        let (y1, z1, y) = (0x3C3Cu64, 0x00FFu64, -1234i64);
        let y0 = ring.sub(ring.from_i64(y), y1);
        let garbler_plan = plan.clone();
        let (_, outs, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(41);
                let mut g = YaoGarbler::setup(ch, &mut rng).expect("setup");
                for (circuit, reshare) in &garbler_plan {
                    let mut bits_in = u64_to_bits(y1, bits);
                    if *reshare {
                        bits_in.extend(u64_to_bits(z1, bits));
                    }
                    g.run(ch, circuit, &bits_in, &mut rng).expect("run");
                }
                assert!(TABLES.take().capacity() >= sizes, "garbler kept its buffer");
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(42);
                let mut e = YaoEvaluator::setup(ch, &mut rng).expect("setup");
                plan.iter()
                    .map(|(circuit, _)| e.run(ch, circuit, &u64_to_bits(y0, bits)).expect("run"))
                    .collect::<Vec<Vec<bool>>>()
            },
        );
        assert_eq!(ring.add(bits_to_u64(&outs[0]), z1), 0, "ReLU of a negative");
        assert_eq!(outs[1], vec![false], "sign of a negative");
        assert_eq!(outs[2], outs[0]);
    }

    /// A chain of `ands` AND gates over one garbler bit and one
    /// evaluator bit, its end read out `outputs` times.
    fn and_circuit(ands: usize, outputs: usize) -> Circuit {
        let mut b = CircuitBuilder::new();
        let (g, e) = (b.garbler_input(), b.evaluator_input());
        let mut end = g;
        for _ in 0..ands {
            end = b.and(end, e);
        }
        b.build(vec![end; outputs])
    }

    /// The evaluator runs `expected` while the garbler garbles `garbled`,
    /// under a watchdog: neither side may panic or hang. Returns what each
    /// reports.
    fn mismatched(
        expected: Circuit,
        garbled: Circuit,
    ) -> (Result<(), TransportError>, Result<Vec<bool>, TransportError>) {
        let (tx, rx) = mpsc::channel();
        let pair = std::thread::spawn(move || {
            let (garbler, evaluator, _) = run_pair(
                NetworkModel::instant(),
                move |ch| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(51);
                    let mut g = YaoGarbler::setup(ch, &mut rng)?;
                    g.run(ch, &garbled, &[true], &mut rng)
                },
                move |ch| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(52);
                    let mut e = YaoEvaluator::setup(ch, &mut rng)?;
                    e.run(ch, &expected, &[true])
                },
            );
            tx.send((garbler, evaluator)).expect("report");
        });
        let reports = rx.recv_timeout(Duration::from_secs(60)).expect("a party panicked or hung");
        pair.join().expect("both parties finished");
        reports
    }

    #[test]
    fn tables_for_another_and_count_are_refused_after_the_columns() {
        let (expected, garbled) = (and_circuit(1, 1), and_circuit(2, 1));
        assert_ne!(expected.and_count(), garbled.and_count());
        let (garbler, evaluator) = mismatched(expected, garbled);
        assert_eq!(evaluator, Err(TransportError::Malformed("AND table stream length")));
        assert!(garbler.is_ok() || matches!(garbler, Err(TransportError::Closed)), "{garbler:?}");
    }

    #[test]
    fn a_decode_map_for_another_output_count_is_refused_after_the_columns() {
        // Nine outputs decode from two bytes, one from one.
        let (expected, garbled) = (and_circuit(1, 1), and_circuit(1, 9));
        assert_eq!(expected.and_count(), garbled.and_count());
        let (garbler, evaluator) = mismatched(expected, garbled);
        assert_eq!(evaluator, Err(TransportError::Malformed("output decode length")));
        assert!(garbler.is_ok() || matches!(garbler, Err(TransportError::Closed)), "{garbler:?}");
    }
}
