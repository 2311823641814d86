//! Boolean circuits: representation, builder, and plaintext evaluation.

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
/// Wires are stored as `u32`: a gate is 16 bytes instead of 32, and the
/// gate list is the largest allocation either party makes per re-share op
/// (13 MB at 32 bytes for a 128-wide GELU). [`CircuitBuilder`] refuses to
/// number a wire past `u32::MAX`.
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

/// An immutable boolean circuit with two-party input ownership.
#[derive(Debug, Clone)]
pub struct Circuit {
    pub(crate) gates: Vec<Gate>,
    pub(crate) n_wires: usize,
    pub(crate) garbler_inputs: Vec<WireId>,
    pub(crate) evaluator_inputs: Vec<WireId>,
    pub(crate) outputs: Vec<WireId>,
}

impl Circuit {
    /// Number of AND gates — the communication-relevant size.
    #[must_use]
    pub fn and_count(&self) -> usize {
        self.gates.iter().filter(|g| matches!(g, Gate::And { .. })).count()
    }

    /// Total gate count.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of wires.
    #[must_use]
    pub fn wire_count(&self) -> usize {
        self.n_wires
    }

    /// Wires owned by the garbler, in declaration order.
    #[must_use]
    pub fn garbler_inputs(&self) -> &[WireId] {
        &self.garbler_inputs
    }

    /// Wires owned by the evaluator, in declaration order.
    #[must_use]
    pub fn evaluator_inputs(&self) -> &[WireId] {
        &self.evaluator_inputs
    }

    /// Output wires, in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[WireId] {
        &self.outputs
    }

    /// Plaintext evaluation — the correctness reference for garbling.
    ///
    /// # Panics
    ///
    /// Panics if input lengths do not match the declared input wires.
    #[must_use]
    pub fn eval(&self, garbler_bits: &[bool], evaluator_bits: &[bool]) -> Vec<bool> {
        assert_eq!(garbler_bits.len(), self.garbler_inputs.len(), "garbler input count");
        assert_eq!(evaluator_bits.len(), self.evaluator_inputs.len(), "evaluator input count");
        let mut values = vec![false; self.n_wires];
        for (&w, &b) in self.garbler_inputs.iter().zip(garbler_bits) {
            values[w] = b;
        }
        for (&w, &b) in self.evaluator_inputs.iter().zip(evaluator_bits) {
            values[w] = b;
        }
        for gate in &self.gates {
            let (a, b, out) = gate.wires();
            values[out] = match gate {
                Gate::Xor { .. } => values[a] ^ values[b],
                Gate::And { .. } => values[a] & values[b],
                Gate::Inv { .. } => !values[a],
            };
        }
        self.outputs.iter().map(|&w| values[w]).collect()
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
    garbler_inputs: Vec<WireId>,
    evaluator_inputs: Vec<WireId>,
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
        self.garbler_inputs.push(w);
        w
    }

    /// Declares one evaluator-owned input bit.
    pub fn evaluator_input(&mut self) -> WireId {
        let w = self.fresh();
        self.evaluator_inputs.push(w);
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

    /// Finalizes the circuit with the given output wires.
    ///
    /// # Panics
    ///
    /// Panics if any output wire is undefined.
    #[must_use]
    pub fn build(self, outputs: Vec<WireId>) -> Circuit {
        assert!(outputs.iter().all(|&w| w < self.n_wires), "undefined output wire");
        Circuit {
            gates: self.gates,
            n_wires: self.n_wires,
            garbler_inputs: self.garbler_inputs,
            evaluator_inputs: self.evaluator_inputs,
            outputs,
        }
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
