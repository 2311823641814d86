//! Half-gates garbling (Zahur–Rosulek–Evans, EUROCRYPT 2015) with free-XOR
//! and point-and-permute.
//!
//! XOR and INV gates are free; each AND gate produces two ciphertext blocks.
//! The global offset Δ has its least-significant bit forced to 1 so the LSB
//! of every label acts as the permute bit.

use crate::circuit::{Circuit, Gate, WireId};
use crate::GcError;
use abnn2_crypto::{Block, RoHash};
use abnn2_ot::bits::{get_bit, set_bit};
use rand::Rng;

/// The material the garbler ships to the evaluator (besides input labels),
/// held as the wire holds it: the two fields are the payloads of the
/// [`GcTables`](crate::frames::GcTables) and
/// [`GcDecodeMap`](crate::frames::GcDecodeMap) frames, so neither party
/// converts between the garbling and the transfer. This module is the only
/// one that knows the layout inside them.
#[derive(Debug, Clone)]
pub struct GarbledCircuit {
    /// Two blocks per AND gate, in gate order: gate `i`'s generator and
    /// evaluator rows are `tables[2i]` and `tables[2i + 1]`.
    pub tables: Vec<Block>,
    /// One decode bit per output wire, packed little-endian:
    /// `value = lsb(label) ⊕ decode`.
    pub decode: Vec<u8>,
}

impl GarbledCircuit {
    /// Whether the material has the sizes `circuit` garbles to.
    pub(crate) fn check(&self, circuit: &Circuit) -> Result<(), GcError> {
        if self.tables.len() != 2 * circuit.and_count() {
            return Err(GcError::Malformed("AND table stream length"));
        }
        if self.decode.len() != circuit.outputs.len().div_ceil(8) {
            return Err(GcError::Malformed("output decode length"));
        }
        Ok(())
    }
}

/// The garbler's private label material.
#[derive(Debug, Clone)]
pub struct GarblerLabels {
    /// `(zero, one)` label pair per garbler input wire, declaration order.
    pub garbler_inputs: Vec<(Block, Block)>,
    /// `(zero, one)` label pair per evaluator input wire, declaration order.
    pub evaluator_inputs: Vec<(Block, Block)>,
}

impl GarblerLabels {
    /// Selects the garbler's own wire labels for its input bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` differs from the declared garbler inputs.
    #[must_use]
    pub fn select_garbler(&self, bits: &[bool]) -> Vec<Block> {
        assert_eq!(bits.len(), self.garbler_inputs.len(), "garbler input count");
        bits.iter().zip(&self.garbler_inputs).map(|(&b, &(z, o))| if b { o } else { z }).collect()
    }
}

/// Garbles a circuit, returning the evaluator material and the garbler's
/// input label pairs.
pub fn garble<R: Rng + ?Sized>(circuit: &Circuit, rng: &mut R) -> (GarbledCircuit, GarblerLabels) {
    let hash = RoHash::shared();
    let delta = Block::random(rng).with_lsb(true);
    let mut zero = vec![Block::ZERO; circuit.n_wires];

    for &w in circuit.garbler_inputs.iter().chain(&circuit.evaluator_inputs) {
        zero[w] = Block::random(rng);
    }

    let mut tables = Vec::with_capacity(2 * circuit.and_count());
    let mut and_idx: u128 = 0;
    for gate in &circuit.gates {
        let (a, b, out) = gate.wires();
        match gate {
            Gate::Xor { .. } => zero[out] = zero[a] ^ zero[b],
            Gate::Inv { .. } => zero[out] = zero[a] ^ delta,
            Gate::And { .. } => {
                let (t0, t1) = (2 * and_idx, 2 * and_idx + 1);
                and_idx += 1;
                let (za, zb) = (zero[a], zero[b]);
                let (pa, pb) = (za.lsb(), zb.lsb());
                // All four half-gate hashes in one backend batch.
                let mut h = [
                    za ^ Block::from(t0),
                    za ^ delta ^ Block::from(t0),
                    zb ^ Block::from(t1),
                    zb ^ delta ^ Block::from(t1),
                ];
                hash.hash_blocks(&mut h);
                let [ha0, ha1, hb0, hb1] = h;
                // Generator half gate.
                let tg = ha0 ^ ha1 ^ if pb { delta } else { Block::ZERO };
                let wg = ha0 ^ if pa { tg } else { Block::ZERO };
                // Evaluator half gate.
                let te = hb0 ^ hb1 ^ za;
                let we = hb0 ^ if pb { te ^ za } else { Block::ZERO };
                zero[out] = wg ^ we;
                tables.push(tg);
                tables.push(te);
            }
        }
    }

    let mut decode = vec![0u8; circuit.outputs.len().div_ceil(8)];
    for (i, &w) in circuit.outputs.iter().enumerate() {
        set_bit(&mut decode, i, zero[w].lsb());
    }
    let pair = |w: WireId| (zero[w], zero[w] ^ delta);
    let labels = GarblerLabels {
        garbler_inputs: circuit.garbler_inputs.iter().map(|&w| pair(w)).collect(),
        evaluator_inputs: circuit.evaluator_inputs.iter().map(|&w| pair(w)).collect(),
    };
    (GarbledCircuit { tables, decode }, labels)
}

/// Evaluates a garbled circuit given one label per input wire, returning
/// decoded output bits.
///
/// # Errors
///
/// Returns [`GcError::Malformed`] if label counts or table sizes do not
/// match the circuit.
pub fn evaluate(
    circuit: &Circuit,
    garbled: &GarbledCircuit,
    garbler_labels: &[Block],
    evaluator_labels: &[Block],
) -> Result<Vec<bool>, GcError> {
    if garbler_labels.len() != circuit.garbler_inputs.len() {
        return Err(GcError::Malformed("garbler label count"));
    }
    if evaluator_labels.len() != circuit.evaluator_inputs.len() {
        return Err(GcError::Malformed("evaluator label count"));
    }
    garbled.check(circuit)?;

    let hash = RoHash::shared();
    let mut label = vec![Block::ZERO; circuit.n_wires];
    for (&w, &l) in circuit.garbler_inputs.iter().zip(garbler_labels) {
        label[w] = l;
    }
    for (&w, &l) in circuit.evaluator_inputs.iter().zip(evaluator_labels) {
        label[w] = l;
    }

    let mut row = 0;
    for gate in &circuit.gates {
        let (a, b, out) = gate.wires();
        match gate {
            Gate::Xor { .. } => label[out] = label[a] ^ label[b],
            Gate::Inv { .. } => label[out] = label[a],
            Gate::And { .. } => {
                // A gate's two table rows are tweaked by their own indices.
                let (t0, t1) = (row, row + 1);
                let (tg, te) = (garbled.tables[t0], garbled.tables[t1]);
                row += 2;
                let (wa, wb) = (label[a], label[b]);
                let mut h = [wa ^ Block::from(t0 as u128), wb ^ Block::from(t1 as u128)];
                hash.hash_blocks(&mut h);
                let wg = h[0] ^ if wa.lsb() { tg } else { Block::ZERO };
                let we = h[1] ^ if wb.lsb() { te ^ wa } else { Block::ZERO };
                label[out] = wg ^ we;
            }
        }
    }

    Ok(circuit
        .outputs
        .iter()
        .enumerate()
        .map(|(i, &w)| label[w].lsb() ^ get_bit(&garbled.decode, i))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{u64_to_bits, CircuitBuilder};
    use crate::circuits;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn garble_eval(circuit: &Circuit, g_bits: &[bool], e_bits: &[bool], seed: u64) -> Vec<bool> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (gc, labels) = garble(circuit, &mut rng);
        let g_labels = labels.select_garbler(g_bits);
        let e_labels: Vec<Block> = e_bits
            .iter()
            .zip(&labels.evaluator_inputs)
            .map(|(&b, &(z, o))| if b { o } else { z })
            .collect();
        evaluate(circuit, &gc, &g_labels, &e_labels).expect("evaluate")
    }

    #[test]
    fn single_gates_match_plaintext() {
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let a = b.and(x, y);
        let o = b.or(x, y);
        let xo = b.xor(x, y);
        let n = b.inv(y);
        let c = b.build(vec![a, o, xo, n]);
        for (gx, gy) in [(false, false), (false, true), (true, false), (true, true)] {
            let got = garble_eval(&c, &[gx], &[gy], 5);
            assert_eq!(got, c.eval(&[gx], &[gy]), "inputs ({gx},{gy})");
        }
    }

    #[test]
    fn relu_circuit_garbles_correctly() {
        let c = circuits::relu_reshare_circuit(16);
        let g_bits: Vec<bool> =
            u64_to_bits(0xABCD, 16).into_iter().chain(u64_to_bits(0x0102, 16)).collect();
        let e_bits = u64_to_bits(0x7FFF, 16);
        assert_eq!(garble_eval(&c, &g_bits, &e_bits, 6), c.eval(&g_bits, &e_bits));
    }

    #[test]
    fn corrupted_table_changes_output_or_is_detected() {
        let c = circuits::relu_reshare_circuit(8);
        let g_bits = vec![false; 16];
        let e_bits = u64_to_bits(0x55, 8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let (mut gc, labels) = garble(&c, &mut rng);
        let honest = evaluate(&c, &gc, &labels.select_garbler(&g_bits), &{
            e_bits
                .iter()
                .zip(&labels.evaluator_inputs)
                .map(|(&b, &(z, o))| if b { o } else { z })
                .collect::<Vec<_>>()
        })
        .expect("evaluate");
        // Flip both half-gate ciphertexts of every AND gate so the tampering
        // hits rows the evaluator actually uses regardless of select bits.
        for row in gc.tables.iter_mut() {
            *row ^= Block::from(1u128);
        }
        // Surfacing an error also counts as detection.
        if let Ok(corrupted) = evaluate(&c, &gc, &labels.select_garbler(&g_bits), &{
            e_bits
                .iter()
                .zip(&labels.evaluator_inputs)
                .map(|(&b, &(z, o))| if b { o } else { z })
                .collect::<Vec<_>>()
        }) {
            assert_ne!(honest, corrupted, "tampering must not go unnoticed in the output");
        }
    }

    #[test]
    fn mismatched_material_is_rejected() {
        let c = circuits::relu_reshare_circuit(8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let (gc, labels) = garble(&c, &mut rng);
        let g = labels.select_garbler(&[false; 16]);
        assert_eq!(evaluate(&c, &gc, &g, &[]), Err(GcError::Malformed("evaluator label count")));
        assert_eq!(
            evaluate(&c, &gc, &g[..3], &[Block::ZERO; 8]),
            Err(GcError::Malformed("garbler label count"))
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn garbled_equals_plaintext_on_vec_relu(seed: u64, y0: u64, y1: u64, z1: u64) {
            let bits = 12;
            let n = 3;
            let c = circuits::relu_reshare_vec_circuit(bits, n);
            let mask = (1u64 << bits) - 1;
            let mut g_bits = Vec::new();
            for k in 0..n as u64 {
                g_bits.extend(u64_to_bits((y1 >> k) & mask, bits));
            }
            for k in 0..n as u64 {
                g_bits.extend(u64_to_bits((z1 >> k) & mask, bits));
            }
            let mut e_bits = Vec::new();
            for k in 0..n as u64 {
                e_bits.extend(u64_to_bits((y0 >> k) & mask, bits));
            }
            prop_assert_eq!(garble_eval(&c, &g_bits, &e_bits, seed), c.eval(&g_bits, &e_bits));
        }
    }
}
