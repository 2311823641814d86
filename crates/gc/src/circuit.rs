//! Boolean circuits: representation, builder, and plaintext evaluation.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Index of a wire in a [`Circuit`].
pub type WireId = usize;

/// A little-endian group of wires carrying an ℓ-bit ring element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Word(pub Vec<WireId>);

impl Word {
    /// Bit width of the word.
    #[must_use]
    pub fn bits(&self) -> usize {
        self.0.len()
    }

    /// The most significant wire (the sign bit under two's complement).
    ///
    /// # Panics
    ///
    /// Panics if the word is empty.
    #[must_use]
    pub fn msb(&self) -> WireId {
        *self.0.last().expect("non-empty word")
    }
}

/// A gate in topological order. Input wires always precede the output wire.
///
/// Wires are stored as `u32`: a gate is 16 bytes instead of 32. A circuit
/// keeps the gates of one lane only (3 217 gates, 51 KB, for the GELU body
/// however many neurons it runs over; 47 008 for a softmax row of eight),
/// so what either party holds per re-share op does not grow with the width
/// of the layer. [`CircuitBuilder`] refuses to number a wire past
/// `u32::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// `out = a ⊕ b` — free under free-XOR garbling.
    Xor { a: u32, b: u32, out: u32 },
    /// `out = a ∧ b` — two ciphertexts under half-gates.
    And { a: u32, b: u32, out: u32 },
    /// `out = ¬a` — free (label semantics flip).
    Inv { a: u32, out: u32 },
}

impl Gate {
    /// The gate's wires as indices: `(a, b, out)`, with `b = a` for `Inv`.
    #[must_use]
    pub fn wires(&self) -> (WireId, WireId, WireId) {
        let (a, b, out) = match *self {
            Gate::Xor { a, b, out } | Gate::And { a, b, out } => (a, b, out),
            Gate::Inv { a, out } => (a, a, out),
        };
        (a as WireId, b as WireId, out as WireId)
    }
}

/// What every lane of a [`Circuit`] runs: one copy of the gates, where each
/// wire's label lives while garbling, and which wires are fed and read.
#[derive(Debug)]
pub(crate) struct Body {
    pub(crate) gates: Vec<Gate>,
    pub(crate) n_wires: usize,
    pub(crate) n_ands: usize,
    /// The label slot of every wire, see [`assign_slots`].
    pub(crate) slot: Vec<u32>,
    pub(crate) n_slots: usize,
    /// Input wires in runs: the flat input order lists the first run of
    /// every lane, then the second run of every lane, and so on.
    pub(crate) garbler: Vec<Vec<u32>>,
    pub(crate) evaluator: Vec<Vec<u32>>,
    /// Output wires, one run: the flat output order lists them lane by lane.
    pub(crate) outputs: [Vec<u32>; 1],
}

impl Body {
    /// Walks `runs` (a party's inputs, or the outputs as one run) over the
    /// lanes `pass` of `lanes`, calling `f(flat, lane, wire)` with each
    /// wire's place in the flat order: the runs one after another, each
    /// laid out lane by lane. This is the only code that knows that order.
    pub(crate) fn for_each(
        runs: &[Vec<u32>],
        lanes: usize,
        pass: Range<usize>,
        mut f: impl FnMut(usize, usize, usize),
    ) {
        let mut base = 0;
        for run in runs {
            for lane in pass.clone() {
                for (j, &w) in run.iter().enumerate() {
                    f(base + lane * run.len() + j, lane, w as usize);
                }
            }
            base += lanes * run.len();
        }
    }
}

/// Gives every wire of one lane a label slot, so garbling holds
/// `slots × lanes` labels instead of `wires × lanes`. `pinned` wires (inputs
/// and outputs) own a slot each; any other wire takes a free slot when its
/// gate runs and gives it back after its last reader, so a gate's output may
/// land in the slot of an operand that dies at that gate (the garbling loops
/// read a lane's operands before they write its output). Returns the slot
/// of every wire and the number of slots.
fn assign_slots(gates: &[Gate], pinned: &[bool]) -> (Vec<u32>, usize) {
    const NEVER: usize = usize::MAX;
    let mut last_reader = vec![NEVER; pinned.len()];
    for (i, gate) in gates.iter().enumerate() {
        let (a, b, _) = gate.wires();
        last_reader[a] = i;
        last_reader[b] = i;
    }
    let mut slot = vec![0u32; pinned.len()];
    let mut n_slots = 0u32;
    let mut fresh = || {
        n_slots += 1;
        n_slots - 1
    };
    for (w, &p) in pinned.iter().enumerate() {
        if p {
            slot[w] = fresh();
        }
    }
    let mut free: Vec<u32> = Vec::new();
    for (i, gate) in gates.iter().enumerate() {
        let (a, b, out) = gate.wires();
        for w in [a, b] {
            if !pinned[w] && last_reader[w] == i {
                free.push(slot[w]);
                // `a == b` (an inverter, `w ⊕ w`) frees the slot once.
                last_reader[w] = NEVER;
            }
        }
        if !pinned[out] {
            slot[out] = free.pop().unwrap_or_else(&mut fresh);
            if last_reader[out] == NEVER {
                free.push(slot[out]);
            }
        }
    }
    (slot, n_slots as usize)
}

/// An immutable boolean circuit with two-party input ownership: one
/// [`Gate`] list run over `lanes` independent copies of its wires. Every
/// vector circuit of [`crate::circuits`] is one neuron's (row's, token's,
/// window's) body over as many lanes; a hand-built circuit has one lane.
///
/// Counts and the input and output orders are those of the circuit written
/// out lane after lane: wire `w` of lane `g` is wire `g · W + w` of a
/// circuit with `lanes · W` wires, and lane `g`'s `k`-th AND gate is AND
/// gate `g · A + k`.
#[derive(Debug, Clone)]
pub struct Circuit {
    pub(crate) body: Arc<Body>,
    pub(crate) lanes: usize,
    /// The flat wire lists, written out when first asked for: garbling
    /// reads the body's runs and needs only their lengths.
    wires: OnceLock<[Vec<WireId>; 3]>,
}

impl Circuit {
    /// The same body over `lanes` lanes. The gates are shared, not copied,
    /// so a circuit built once serves every width it is asked for.
    #[must_use]
    pub fn with_lanes(&self, lanes: usize) -> Circuit {
        Circuit { body: Arc::clone(&self.body), lanes, wires: OnceLock::new() }
    }

    /// Number of lanes the body runs over.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of AND gates — the communication-relevant size.
    #[must_use]
    pub fn and_count(&self) -> usize {
        self.lanes * self.body.n_ands
    }

    /// Total gate count.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.lanes * self.body.gates.len()
    }

    /// Number of wires.
    #[must_use]
    pub fn wire_count(&self) -> usize {
        self.lanes * self.body.n_wires
    }

    /// Number of garbler input wires, `garbler_inputs().len()`.
    #[must_use]
    pub fn garbler_input_count(&self) -> usize {
        self.lanes * self.body.garbler.iter().map(Vec::len).sum::<usize>()
    }

    /// Number of evaluator input wires, `evaluator_inputs().len()`.
    #[must_use]
    pub fn evaluator_input_count(&self) -> usize {
        self.lanes * self.body.evaluator.iter().map(Vec::len).sum::<usize>()
    }

    /// Number of output wires, `outputs().len()`.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.lanes * self.body.outputs[0].len()
    }

    fn wires(&self) -> &[Vec<WireId>; 3] {
        let body = &*self.body;
        let flat = |runs: &[Vec<u32>], count: usize| -> Vec<WireId> {
            let mut ids = Vec::with_capacity(count);
            Body::for_each(runs, self.lanes, 0..self.lanes, |_, lane, w| {
                ids.push(lane * body.n_wires + w);
            });
            ids
        };
        self.wires.get_or_init(|| {
            [
                flat(&body.garbler, self.garbler_input_count()),
                flat(&body.evaluator, self.evaluator_input_count()),
                flat(&body.outputs, self.output_count()),
            ]
        })
    }

    /// Wires owned by the garbler, in declaration order.
    #[must_use]
    pub fn garbler_inputs(&self) -> &[WireId] {
        &self.wires()[0]
    }

    /// Wires owned by the evaluator, in declaration order.
    #[must_use]
    pub fn evaluator_inputs(&self) -> &[WireId] {
        &self.wires()[1]
    }

    /// Output wires, in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[WireId] {
        &self.wires()[2]
    }

    /// Plaintext evaluation — the correctness reference for garbling. It
    /// holds a value per wire and knows nothing of label slots.
    ///
    /// # Panics
    ///
    /// Panics if input lengths do not match the declared input wires.
    #[must_use]
    pub fn eval(&self, garbler_bits: &[bool], evaluator_bits: &[bool]) -> Vec<bool> {
        assert_eq!(garbler_bits.len(), self.garbler_input_count(), "garbler input count");
        assert_eq!(evaluator_bits.len(), self.evaluator_input_count(), "evaluator input count");
        let body = &*self.body;
        let mut values = vec![false; body.n_wires];
        let mut outputs = vec![false; self.output_count()];
        for lane in 0..self.lanes {
            let only = lane..lane + 1;
            Body::for_each(&body.garbler, self.lanes, only.clone(), |i, _, w| {
                values[w] = garbler_bits[i];
            });
            Body::for_each(&body.evaluator, self.lanes, only.clone(), |i, _, w| {
                values[w] = evaluator_bits[i];
            });
            for gate in &body.gates {
                let (a, b, out) = gate.wires();
                values[out] = match gate {
                    Gate::Xor { .. } => values[a] ^ values[b],
                    Gate::And { .. } => values[a] & values[b],
                    Gate::Inv { .. } => !values[a],
                };
            }
            Body::for_each(&body.outputs, self.lanes, only, |i, _, w| outputs[i] = values[w]);
        }
        outputs
    }
}

/// Incremental circuit builder.
///
/// ```
/// use abnn2_gc::CircuitBuilder;
/// let mut b = CircuitBuilder::new();
/// let x = b.garbler_input();
/// let y = b.evaluator_input();
/// let z = b.and(x, y);
/// let c = b.build(vec![z]);
/// assert_eq!(c.eval(&[true], &[true]), vec![true]);
/// ```
#[derive(Debug, Default)]
pub struct CircuitBuilder {
    gates: Vec<Gate>,
    n_wires: usize,
    garbler_inputs: Vec<u32>,
    evaluator_inputs: Vec<u32>,
}

impl CircuitBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        CircuitBuilder::default()
    }

    fn fresh(&mut self) -> WireId {
        let w = self.n_wires;
        assert!(u32::try_from(w).is_ok(), "circuit exceeds 2^32 wires");
        self.n_wires += 1;
        w
    }

    /// `w` as a gate stores it; every wire `fresh` handed out fits.
    fn stored(&self, w: WireId) -> u32 {
        assert!(w < self.n_wires, "undefined wire");
        w as u32
    }

    /// Declares one garbler-owned input bit.
    pub fn garbler_input(&mut self) -> WireId {
        let w = self.fresh();
        self.garbler_inputs.push(w as u32);
        w
    }

    /// Declares one evaluator-owned input bit.
    pub fn evaluator_input(&mut self) -> WireId {
        let w = self.fresh();
        self.evaluator_inputs.push(w as u32);
        w
    }

    /// Declares a garbler-owned ℓ-bit word (little-endian).
    pub fn garbler_word(&mut self, bits: usize) -> Word {
        Word((0..bits).map(|_| self.garbler_input()).collect())
    }

    /// Declares an evaluator-owned ℓ-bit word (little-endian).
    pub fn evaluator_word(&mut self, bits: usize) -> Word {
        Word((0..bits).map(|_| self.evaluator_input()).collect())
    }

    /// Adds an XOR gate (free).
    pub fn xor(&mut self, a: WireId, b: WireId) -> WireId {
        let out = self.fresh();
        self.gates.push(Gate::Xor { a: self.stored(a), b: self.stored(b), out: self.stored(out) });
        out
    }

    /// Adds an AND gate (two garbled ciphertexts).
    pub fn and(&mut self, a: WireId, b: WireId) -> WireId {
        let out = self.fresh();
        self.gates.push(Gate::And { a: self.stored(a), b: self.stored(b), out: self.stored(out) });
        out
    }

    /// Adds an inverter (free).
    pub fn inv(&mut self, a: WireId) -> WireId {
        let out = self.fresh();
        self.gates.push(Gate::Inv { a: self.stored(a), out: self.stored(out) });
        out
    }

    /// `a ∨ b = ¬(¬a ∧ ¬b)` — one AND gate.
    pub fn or(&mut self, a: WireId, b: WireId) -> WireId {
        let na = self.inv(a);
        let nb = self.inv(b);
        let n = self.and(na, nb);
        self.inv(n)
    }

    /// Finalizes a one-lane circuit with the given output wires.
    ///
    /// # Panics
    ///
    /// Panics if any output wire is undefined.
    #[must_use]
    pub fn build(self, outputs: Vec<WireId>) -> Circuit {
        let runs = [self.garbler_inputs.len(), self.evaluator_inputs.len()];
        self.build_lanes(outputs, 1, &runs[..1], &runs[1..])
    }

    /// Finalizes what was built as the body of a `lanes`-lane circuit. The
    /// declared garbler inputs split into consecutive runs of
    /// `garbler_runs` wires, the evaluator inputs likewise; each party's
    /// flat input order is the first run of every lane, then the second run
    /// of every lane, and so on, and the flat output order is `outputs`
    /// lane by lane.
    ///
    /// # Panics
    ///
    /// Panics if any output wire is undefined or the runs do not add up to
    /// the declared inputs.
    #[must_use]
    pub(crate) fn build_lanes(
        self,
        outputs: Vec<WireId>,
        lanes: usize,
        garbler_runs: &[usize],
        evaluator_runs: &[usize],
    ) -> Circuit {
        assert!(outputs.iter().all(|&w| w < self.n_wires), "undefined output wire");
        let split = |inputs: &[u32], runs: &[usize]| -> Vec<Vec<u32>> {
            assert_eq!(runs.iter().sum::<usize>(), inputs.len(), "input runs cover the inputs");
            let mut rest = inputs;
            let cut = runs.iter().map(|&n| {
                let (run, tail) = rest.split_at(n);
                rest = tail;
                run.to_vec()
            });
            cut.collect()
        };
        let outputs: Vec<u32> = outputs.iter().map(|&w| w as u32).collect();
        let mut pinned = vec![false; self.n_wires];
        for &w in self.garbler_inputs.iter().chain(&self.evaluator_inputs).chain(&outputs) {
            pinned[w as usize] = true;
        }
        let (slot, n_slots) = assign_slots(&self.gates, &pinned);
        let body = Body {
            n_ands: self.gates.iter().filter(|g| matches!(g, Gate::And { .. })).count(),
            garbler: split(&self.garbler_inputs, garbler_runs),
            evaluator: split(&self.evaluator_inputs, evaluator_runs),
            gates: self.gates,
            n_wires: self.n_wires,
            slot,
            n_slots,
            outputs: [outputs],
        };
        Circuit { body: Arc::new(body), lanes, wires: OnceLock::new() }
    }
}

/// Converts a ring element to `bits` little-endian booleans.
#[must_use]
pub fn u64_to_bits(x: u64, bits: usize) -> Vec<bool> {
    (0..bits).map(|i| (x >> i) & 1 == 1).collect()
}

/// Converts little-endian booleans back to a ring element.
///
/// # Panics
///
/// Panics if more than 64 bits are supplied.
#[must_use]
pub fn bits_to_u64(bits: &[bool]) -> u64 {
    assert!(bits.len() <= 64, "too many bits for u64");
    bits.iter().enumerate().fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_tables() {
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let xor = b.xor(x, y);
        let and = b.and(x, y);
        let or = b.or(x, y);
        let nx = b.inv(x);
        let c = b.build(vec![xor, and, or, nx]);
        for (gx, gy) in [(false, false), (false, true), (true, false), (true, true)] {
            let out = c.eval(&[gx], &[gy]);
            assert_eq!(out, vec![gx ^ gy, gx & gy, gx | gy, !gx]);
        }
    }

    #[test]
    fn gate_counts() {
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let a = b.and(x, y);
        let _ = b.xor(a, x);
        let c = b.build(vec![a]);
        assert_eq!(c.and_count(), 1);
        assert_eq!(c.gate_count(), 2);
        assert_eq!(c.wire_count(), 4);
    }

    #[test]
    fn counts_and_orders_are_those_of_the_lanes_written_out() {
        let mut b = CircuitBuilder::new();
        let (x, z, y) = (b.garbler_input(), b.garbler_input(), b.evaluator_input());
        let a = b.and(x, y);
        let o = b.xor(a, z);
        let c = b.build_lanes(vec![o], 3, &[1, 1], &[1]);
        assert_eq!((c.and_count(), c.gate_count(), c.wire_count()), (3, 6, 15));
        // Run by run for the inputs, lane by lane for the outputs.
        assert_eq!(c.garbler_inputs(), [0, 5, 10, 1, 6, 11]);
        assert_eq!(c.evaluator_inputs(), [2, 7, 12]);
        assert_eq!(c.outputs(), [4, 9, 14]);
        let t = true;
        let out = c.eval(&[t, t, false, false, t, false], &[t, false, t]);
        assert_eq!(out, vec![t, t, false]);
        let wide = c.with_lanes(5);
        assert_eq!((wide.lanes(), wide.and_count(), wide.garbler_input_count()), (5, 5, 10));
        assert_eq!(wide.outputs().len(), wide.output_count());
    }

    /// Walks `gates` keeping track of which wire each slot holds: every
    /// read must find its own wire, and a pinned wire's slot is never lent.
    fn assert_slots_hold_their_wires(gates: &[Gate], pinned: &[bool]) -> usize {
        const NOTHING: usize = usize::MAX;
        let (slot, n_slots) = assign_slots(gates, pinned);
        let mut holds = vec![NOTHING; n_slots];
        for (w, _) in pinned.iter().enumerate().filter(|(_, &p)| p) {
            assert_eq!(holds[slot[w] as usize], NOTHING, "pinned wires share slot {}", slot[w]);
            holds[slot[w] as usize] = w;
        }
        for gate in gates {
            let (a, b, out) = gate.wires();
            assert_eq!(holds[slot[a] as usize], a, "wire {a} was overwritten before {gate:?}");
            assert_eq!(holds[slot[b] as usize], b, "wire {b} was overwritten before {gate:?}");
            let before = holds[slot[out] as usize];
            assert!(before == out || before == NOTHING || !pinned[before], "{gate:?} takes a pin");
            holds[slot[out] as usize] = out;
        }
        n_slots
    }

    #[test]
    fn no_slot_is_read_after_it_was_reassigned() {
        use rand::{Rng, SeedableRng};
        for seed in 0..300 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n_in = rng.gen_range(1..6usize);
            let n_gates = rng.gen_range(0..80usize);
            let mut pinned = vec![true; n_in];
            let mut gates = Vec::new();
            for out in n_in..n_in + n_gates {
                let (a, b) = (rng.gen_range(0..out) as u32, rng.gen_range(0..out) as u32);
                let out = out as u32;
                gates.push(match rng.gen_range(0..3) {
                    0 => Gate::Xor { a, b, out },
                    1 => Gate::And { a, b, out },
                    _ => Gate::Inv { a, out },
                });
                pinned.push(rng.gen_range(0..8) == 0);
            }
            assert_slots_hold_their_wires(&gates, &pinned);
        }
    }

    #[test]
    fn a_long_chain_runs_in_a_handful_of_slots() {
        // 32-bit ReLU re-share: 96 inputs and 32 outputs pinned, and between
        // them the reconstructed word plus a few carries, not 370 wires.
        let c = crate::circuits::relu_trunc_reshare_vec_circuit(32, 128, 4);
        let body = &*c.body;
        let mut pinned = vec![false; body.n_wires];
        for &w in body.garbler.iter().chain(&body.evaluator).chain(&body.outputs).flatten() {
            pinned[w as usize] = true;
        }
        assert_eq!(assert_slots_hold_their_wires(&body.gates, &pinned), body.n_slots);
        assert!(body.n_slots <= 128 + 40, "{} slots for {} wires", body.n_slots, body.n_wires);
        assert_eq!(body.gates.len() * 128, c.gate_count());
    }

    #[test]
    fn bit_conversions_round_trip() {
        for x in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(bits_to_u64(&u64_to_bits(x, 64)), x);
        }
        assert_eq!(bits_to_u64(&u64_to_bits(0xFF, 4)), 0x0F);
    }

    #[test]
    #[should_panic(expected = "garbler input count")]
    fn wrong_input_count_panics() {
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input();
        let c = b.build(vec![x]);
        let _ = c.eval(&[], &[]);
    }

    #[test]
    fn word_helpers() {
        let mut b = CircuitBuilder::new();
        let w = b.garbler_word(8);
        assert_eq!(w.bits(), 8);
        assert_eq!(w.msb(), w.0[7]);
    }
}
