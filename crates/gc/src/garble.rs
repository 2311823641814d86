//! Half-gates garbling (Zahur–Rosulek–Evans, EUROCRYPT 2015) with free-XOR
//! and point-and-permute.
//!
//! XOR and INV gates are free; each AND gate produces two ciphertext blocks.
//! The global offset Δ has its least-significant bit forced to 1 so the LSB
//! of every label acts as the permute bit.

use crate::circuit::{Body, Circuit, Gate};
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
        if self.decode.len() != circuit.output_count().div_ceil(8) {
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

/// Lanes garbled or evaluated together. A gate then works on rows of at
/// most this many labels: the whole label matrix of a pass (a few hundred
/// slots) stays in L2 and the hash input of one AND gate (four blocks a
/// lane) in L1, however many lanes the circuit has.
const PASS: usize = 64;

/// The labels of one pass, slot-major: row `s` holds slot `s` of lanes
/// `first .. first + width`.
struct Rows<'a> {
    body: &'a Body,
    lanes: usize,
    first: usize,
    width: usize,
    labels: &'a mut [Block],
}

impl<'a> Rows<'a> {
    fn new(circuit: &'a Circuit, first: usize, labels: &'a mut [Block]) -> Self {
        let width = PASS.min(circuit.lanes - first);
        let labels = &mut labels[..circuit.body.n_slots * width];
        Rows { body: &circuit.body, lanes: circuit.lanes, first, width, labels }
    }

    /// Where the row of `wire` starts.
    fn row(&self, wire: usize) -> usize {
        self.body.slot[wire] as usize * self.width
    }

    /// Where the rows of a gate's wires start: `(a, b, out)`.
    fn of(&self, gate: &Gate) -> (usize, usize, usize) {
        let (a, b, out) = gate.wires();
        (self.row(a), self.row(b), self.row(out))
    }

    /// Scatters this pass's lanes of one party's input labels into their
    /// rows; `flat(i)` is the label of that party's `i`-th input.
    fn load(&mut self, runs: &[Vec<u32>], flat: impl Fn(usize) -> Block) {
        let pass = self.first..self.first + self.width;
        Body::for_each(runs, self.lanes, pass, |i, lane, w| {
            let row = self.row(w);
            self.labels[row + lane - self.first] = flat(i);
        });
    }

    /// Hands `f` the label of every output of this pass with its flat
    /// output index.
    fn outputs(&self, mut f: impl FnMut(usize, Block)) {
        let pass = self.first..self.first + self.width;
        Body::for_each(&self.body.outputs, self.lanes, pass, |i, lane, w| {
            f(i, self.labels[self.row(w) + lane - self.first]);
        });
    }
}

/// Garbles a circuit, returning the evaluator material and the garbler's
/// input label pairs.
///
/// The gates run once per pass of 64 lanes, each over a whole row of
/// labels: a free gate is one XOR along the row, an AND gate one batch of
/// four hashes a lane. The offset Δ and the input labels are drawn first,
/// in flat input order, and lane `g`'s `k`-th AND gate is gate `g · A + k`
/// of the table stream and of the hash tweaks.
pub fn garble<R: Rng + ?Sized>(circuit: &Circuit, rng: &mut R) -> (GarbledCircuit, GarblerLabels) {
    let hash = RoHash::shared();
    let body = &*circuit.body;
    let delta = Block::random(rng).with_lsb(true);
    let mut pairs = |n: usize| -> Vec<(Block, Block)> {
        let zeros = (0..n).map(|_| Block::random(rng));
        zeros.map(|zero| (zero, zero ^ delta)).collect()
    };
    let labels = GarblerLabels {
        garbler_inputs: pairs(circuit.garbler_input_count()),
        evaluator_inputs: pairs(circuit.evaluator_input_count()),
    };

    let mut tables = vec![Block::ZERO; 2 * circuit.and_count()];
    let mut decode = vec![0u8; circuit.output_count().div_ceil(8)];
    let mut zero = vec![Block::ZERO; body.n_slots * PASS.min(circuit.lanes)];
    let mut sigma = [Block::ZERO; 4 * PASS];
    for first in (0..circuit.lanes).step_by(PASS) {
        let mut rows = Rows::new(circuit, first, &mut zero);
        rows.load(&body.garbler, |i| labels.garbler_inputs[i].0);
        rows.load(&body.evaluator, |i| labels.evaluator_inputs[i].0);
        let width = rows.width;
        // This pass's first lane's first AND gate, then the gate's own.
        let mut and = first * body.n_ands;
        for gate in &body.gates {
            let (a, b, out) = rows.of(gate);
            let zero = &mut *rows.labels;
            match gate {
                Gate::Xor { .. } => {
                    for l in 0..width {
                        zero[out + l] = zero[a + l] ^ zero[b + l];
                    }
                }
                Gate::Inv { .. } => {
                    for l in 0..width {
                        zero[out + l] = zero[a + l] ^ delta;
                    }
                }
                Gate::And { .. } => {
                    // A gate's two table rows are tweaked by their indices.
                    let table = |l: usize| 2 * (and + l * body.n_ands);
                    let sigma = &mut sigma[..4 * width];
                    for (l, s) in sigma.chunks_exact_mut(4).enumerate() {
                        let (za, zb) = (zero[a + l], zero[b + l]);
                        let (t0, t1) =
                            (Block::from(table(l) as u128), Block::from(table(l) as u128 + 1));
                        s.copy_from_slice(&[za ^ t0, za ^ delta ^ t0, zb ^ t1, zb ^ delta ^ t1]);
                    }
                    hash.hash_blocks(sigma);
                    for (l, h) in sigma.chunks_exact(4).enumerate() {
                        let (za, zb) = (zero[a + l], zero[b + l]);
                        let (pa, pb) = (za.lsb(), zb.lsb());
                        let (ha0, ha1, hb0, hb1) = (h[0], h[1], h[2], h[3]);
                        // Generator half gate.
                        let tg = ha0 ^ ha1 ^ if pb { delta } else { Block::ZERO };
                        let wg = ha0 ^ if pa { tg } else { Block::ZERO };
                        // Evaluator half gate.
                        let te = hb0 ^ hb1 ^ za;
                        let we = hb0 ^ if pb { te ^ za } else { Block::ZERO };
                        zero[out + l] = wg ^ we;
                        tables[table(l)] = tg;
                        tables[table(l) + 1] = te;
                    }
                    and += 1;
                }
            }
        }
        rows.outputs(|i, label| set_bit(&mut decode, i, label.lsb()));
    }
    (GarbledCircuit { tables, decode }, labels)
}

/// Evaluates a garbled circuit given one label per input wire, returning
/// decoded output bits. Runs the gates in the same passes as [`garble`],
/// two hashes a lane per AND gate.
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
    if garbler_labels.len() != circuit.garbler_input_count() {
        return Err(GcError::Malformed("garbler label count"));
    }
    if evaluator_labels.len() != circuit.evaluator_input_count() {
        return Err(GcError::Malformed("evaluator label count"));
    }
    garbled.check(circuit)?;

    let hash = RoHash::shared();
    let body = &*circuit.body;
    let tables = &garbled.tables;
    let mut values = vec![false; circuit.output_count()];
    let mut label = vec![Block::ZERO; body.n_slots * PASS.min(circuit.lanes)];
    let mut sigma = [Block::ZERO; 2 * PASS];
    for first in (0..circuit.lanes).step_by(PASS) {
        let mut rows = Rows::new(circuit, first, &mut label);
        rows.load(&body.garbler, |i| garbler_labels[i]);
        rows.load(&body.evaluator, |i| evaluator_labels[i]);
        let width = rows.width;
        let mut and = first * body.n_ands;
        for gate in &body.gates {
            let (a, b, out) = rows.of(gate);
            let label = &mut *rows.labels;
            match gate {
                Gate::Xor { .. } => {
                    for l in 0..width {
                        label[out + l] = label[a + l] ^ label[b + l];
                    }
                }
                Gate::Inv { .. } => label.copy_within(a..a + width, out),
                Gate::And { .. } => {
                    let table = |l: usize| 2 * (and + l * body.n_ands);
                    let sigma = &mut sigma[..2 * width];
                    for (l, s) in sigma.chunks_exact_mut(2).enumerate() {
                        let (t0, t1) =
                            (Block::from(table(l) as u128), Block::from(table(l) as u128 + 1));
                        s.copy_from_slice(&[label[a + l] ^ t0, label[b + l] ^ t1]);
                    }
                    hash.hash_blocks(sigma);
                    for (l, h) in sigma.chunks_exact(2).enumerate() {
                        let (wa, wb) = (label[a + l], label[b + l]);
                        let (tg, te) = (tables[table(l)], tables[table(l) + 1]);
                        let wg = h[0] ^ if wa.lsb() { tg } else { Block::ZERO };
                        let we = h[1] ^ if wb.lsb() { te ^ wa } else { Block::ZERO };
                        label[out + l] = wg ^ we;
                    }
                    and += 1;
                }
            }
        }
        rows.outputs(|i, label| values[i] = label.lsb() ^ get_bit(&garbled.decode, i));
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{u64_to_bits, CircuitBuilder};
    use crate::circuits;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The garbling this module ran until the gates of a lane were stored
    /// once: one label per wire of the circuit written out lane after lane,
    /// one gate at a time. Kept as what [`garble`] must equal byte for byte.
    fn garble_ref<R: Rng + ?Sized>(
        circuit: &Circuit,
        rng: &mut R,
    ) -> (GarbledCircuit, GarblerLabels) {
        let hash = RoHash::shared();
        let delta = Block::random(rng).with_lsb(true);
        let mut zero = vec![Block::ZERO; circuit.wire_count()];
        for &w in circuit.garbler_inputs().iter().chain(circuit.evaluator_inputs()) {
            zero[w] = Block::random(rng);
        }
        let mut tables = Vec::with_capacity(2 * circuit.and_count());
        let mut and_idx: u128 = 0;
        for lane in 0..circuit.lanes() {
            for gate in &circuit.body.gates {
                let [a, b, out] =
                    <[usize; 3]>::from(gate.wires()).map(|w| lane * circuit.body.n_wires + w);
                match gate {
                    Gate::Xor { .. } => zero[out] = zero[a] ^ zero[b],
                    Gate::Inv { .. } => zero[out] = zero[a] ^ delta,
                    Gate::And { .. } => {
                        let (t0, t1) = (2 * and_idx, 2 * and_idx + 1);
                        and_idx += 1;
                        let (za, zb) = (zero[a], zero[b]);
                        let (pa, pb) = (za.lsb(), zb.lsb());
                        let mut h = [
                            za ^ Block::from(t0),
                            za ^ delta ^ Block::from(t0),
                            zb ^ Block::from(t1),
                            zb ^ delta ^ Block::from(t1),
                        ];
                        hash.hash_blocks(&mut h);
                        let [ha0, ha1, hb0, hb1] = h;
                        let tg = ha0 ^ ha1 ^ if pb { delta } else { Block::ZERO };
                        let wg = ha0 ^ if pa { tg } else { Block::ZERO };
                        let te = hb0 ^ hb1 ^ za;
                        let we = hb0 ^ if pb { te ^ za } else { Block::ZERO };
                        zero[out] = wg ^ we;
                        tables.push(tg);
                        tables.push(te);
                    }
                }
            }
        }
        let mut decode = vec![0u8; circuit.outputs().len().div_ceil(8)];
        for (i, &w) in circuit.outputs().iter().enumerate() {
            set_bit(&mut decode, i, zero[w].lsb());
        }
        let pair = |&w: &usize| (zero[w], zero[w] ^ delta);
        let labels = GarblerLabels {
            garbler_inputs: circuit.garbler_inputs().iter().map(pair).collect(),
            evaluator_inputs: circuit.evaluator_inputs().iter().map(pair).collect(),
        };
        (GarbledCircuit { tables, decode }, labels)
    }

    /// The per-gate evaluation that went with [`garble_ref`].
    fn evaluate_ref(
        circuit: &Circuit,
        garbled: &GarbledCircuit,
        garbler_labels: &[Block],
        evaluator_labels: &[Block],
    ) -> Vec<bool> {
        let hash = RoHash::shared();
        let mut label = vec![Block::ZERO; circuit.wire_count()];
        for (&w, &l) in circuit.garbler_inputs().iter().zip(garbler_labels) {
            label[w] = l;
        }
        for (&w, &l) in circuit.evaluator_inputs().iter().zip(evaluator_labels) {
            label[w] = l;
        }
        let mut row = 0;
        for lane in 0..circuit.lanes() {
            for gate in &circuit.body.gates {
                let [a, b, out] =
                    <[usize; 3]>::from(gate.wires()).map(|w| lane * circuit.body.n_wires + w);
                match gate {
                    Gate::Xor { .. } => label[out] = label[a] ^ label[b],
                    Gate::Inv { .. } => label[out] = label[a],
                    Gate::And { .. } => {
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
        }
        let outs = circuit.outputs().iter().enumerate();
        outs.map(|(i, &w)| label[w].lsb() ^ get_bit(&garbled.decode, i)).collect()
    }

    fn select(pairs: &[(Block, Block)], bits: &[bool]) -> Vec<Block> {
        bits.iter().zip(pairs).map(|(&b, &(z, o))| if b { o } else { z }).collect()
    }

    /// Garbles and evaluates `circuit` both ways on seeded inputs: tables,
    /// decode map, both label sets and the decoded outputs must be those of
    /// the reference, and the outputs the plain value.
    fn assert_matches_reference(circuit: &Circuit, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g_bits: Vec<bool> = (0..circuit.garbler_input_count()).map(|_| rng.gen()).collect();
        let e_bits: Vec<bool> = (0..circuit.evaluator_input_count()).map(|_| rng.gen()).collect();
        let (gc, labels) = garble(circuit, &mut rand::rngs::StdRng::seed_from_u64(seed + 1));
        let (gc_ref, labels_ref) =
            garble_ref(circuit, &mut rand::rngs::StdRng::seed_from_u64(seed + 1));
        assert_eq!(gc.tables, gc_ref.tables, "tables");
        assert_eq!(gc.decode, gc_ref.decode, "decode map");
        assert_eq!(labels.garbler_inputs, labels_ref.garbler_inputs, "garbler labels");
        assert_eq!(labels.evaluator_inputs, labels_ref.evaluator_inputs, "evaluator labels");
        let g_labels = labels.select_garbler(&g_bits);
        let e_labels = select(&labels.evaluator_inputs, &e_bits);
        let out = evaluate(circuit, &gc, &g_labels, &e_labels).expect("evaluate");
        assert_eq!(out, evaluate_ref(circuit, &gc, &g_labels, &e_labels), "evaluation");
        assert_eq!(out, circuit.eval(&g_bits, &e_bits), "plain value");
    }

    /// A random body in the re-share frame's input layout: `operands` runs
    /// of `n_in` wires a party, a last garbler run of `n_out`, then `gates`
    /// random XOR/AND/INV gates over any earlier wires (equal operands and
    /// unread wires included) and `n_out` outputs drawn from all wires.
    fn random_body(seed: u64, operands: usize, n_in: usize, lanes: usize) -> Circuit {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (n_out, gates) = (rng.gen_range(1..=5usize), rng.gen_range(0..=60usize));
        let mut b = CircuitBuilder::new();
        let mut wires: Vec<usize> =
            (0..operands * n_in + n_out).map(|_| b.garbler_input()).collect();
        wires.extend((0..operands * n_in).map(|_| b.evaluator_input()));
        for _ in 0..gates {
            let (x, y) =
                (wires[rng.gen_range(0..wires.len())], wires[rng.gen_range(0..wires.len())]);
            wires.push(match rng.gen_range(0..3) {
                0 => b.xor(x, y),
                1 => b.and(x, y),
                _ => b.inv(x),
            });
        }
        let outs = (0..n_out).map(|_| wires[rng.gen_range(0..wires.len())]).collect();
        let share_runs = vec![n_in; operands];
        let garbler_runs: Vec<usize> = share_runs.iter().copied().chain([n_out]).collect();
        b.build_lanes(outs, lanes, &garbler_runs, &share_runs)
    }

    #[test]
    fn and_output_in_a_dying_operands_slot_garbles_the_same_bytes() {
        let mut b = CircuitBuilder::new();
        let (x, y) = (b.garbler_input(), b.evaluator_input());
        let t = b.xor(x, y);
        let u = b.inv(y);
        // `t` and `u` are read here for the last time.
        let v = b.and(t, u);
        let w = b.and(v, x);
        let c = b.build_lanes(vec![w], 9, &[1], &[1]);
        let slot = &c.body.slot;
        assert!(slot[v] == slot[t] || slot[v] == slot[u], "the AND reuses an operand's slot");
        assert_eq!(c.body.n_slots, 5, "two inputs, one output, two shared");
        assert_matches_reference(&c, 40);
    }

    #[test]
    fn vector_circuits_match_the_reference() {
        assert_matches_reference(&circuits::relu_trunc_reshare_vec_circuit(16, 65, 3), 41);
        assert_matches_reference(&circuits::max_pool_reshare_vec_circuit(8, 3, 5), 42);
        assert_matches_reference(&circuits::layernorm_reshare_vec_circuit(8, 3, 2, 1, 0, 3), 43);
        assert_matches_reference(&circuits::relu_sign_vec_circuit(12, 70), 44);
        assert_matches_reference(&circuits::argmax_mask_circuit(8, 5), 45);
    }

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
        fn random_bodies_match_the_reference_at_every_lane_count(
            seed: u64,
            operands in 1usize..=2,
            n_in in 1usize..=6,
        ) {
            for lanes in [0, 1, 2, 7, 8, 9, 65, 130] {
                assert_matches_reference(&random_body(seed, operands, n_in, lanes), seed ^ 0x5EED);
            }
        }

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
