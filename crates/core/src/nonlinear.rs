//! Algorithm 2, once: the single re-share path every nonlinear op runs.
//!
//! The paper states its non-linear layer as one generic procedure (§4.2,
//! Algorithm 2): the client garbles a circuit that reconstructs the shared
//! input `y₀ + y₁`, applies `f`, and re-shares the result under a fresh
//! mask `z₁` it chose offline; the server evaluates and learns only
//! `z₀ = f(y) − z₁`. The invariant that the client knows its share of every
//! activation before the online phase starts is preserved by construction.
//!
//! * [`reshare_server`]/[`reshare_client`] are that procedure for *any*
//!   circuit built on [`circuits::reshare_circuit`]'s wire frame: words →
//!   bits, one Yao run, bits → words.
//! * `Lowering::of` is the only code that knows an op by name: it maps a
//!   [`LayerOp`] to its circuit (plus, for max-pool, the gather that lays
//!   the source slot out window-major). It runs once per op of a model:
//!   the graph walks in [`crate::graph`] read the result from the model's
//!   slot for that op and never match on op kinds themselves — a new op
//!   kind (ROADMAP item 7's `Lut`) is one arm there. A circuit is one
//!   sample's; the walk widens it to its batch when it runs
//!   ([`Circuit::with_lanes`] shares the gates).
//! * The paper's two-round optimized ReLU ([`crate::relu`]) is the one
//!   lowering that is not a single circuit.
//! * `ServerOp` is the server half of either lowering, one flight of its
//!   exchange per step. A circuit's label-OT columns leave when the op is
//!   entered: they depend only on the server's share.
//! * [`softmax_server`]/[`softmax_client`], [`gelu_server`]/[`gelu_client`]
//!   and [`layernorm_server`]/[`layernorm_client`] run one op standalone on
//!   explicit shapes, for the benchmark probes.

use crate::frames::{NegShares, SignBits};
use crate::relu::{sign_first_circuits, sign_first_client, ReluVariant};
use crate::ProtocolError;
use abnn2_gc::circuit::bits_to_u64;
use abnn2_gc::yao::PendingRun;
use abnn2_gc::{circuits, Circuit, YaoEvaluator, YaoGarbler};
use abnn2_math::Ring;
use abnn2_net::Transport;
use abnn2_nn::conv::pool_windows;
use abnn2_nn::graph::LayerOp;
use abnn2_nn::quant::QuantConfig;
use abnn2_ot::bits::pack_bits;
use rand::Rng;

/// The words→wires codec, the one place a ring word becomes the `bool` per
/// wire a Yao run takes: appends `words` to `wires`, `bits` little-endian
/// bits each.
pub(crate) fn push_words(wires: &mut Vec<bool>, words: &[u64], bits: usize) {
    wires.reserve(words.len() * bits);
    for &w in words {
        wires.extend((0..bits).map(|i| (w >> i) & 1 == 1));
    }
}

/// [`push_words`] into a fresh vector.
pub(crate) fn words_to_bits(words: &[u64], bits: usize) -> Vec<bool> {
    let mut wires = Vec::new();
    push_words(&mut wires, words, bits);
    wires
}

/// The inverse: one word per `bits` output wires.
pub(crate) fn bits_to_words(wires: &[bool], bits: usize) -> Vec<u64> {
    wires.chunks(bits).map(bits_to_u64).collect()
}

const MISFIT: ProtocolError = ProtocolError::Dimension("shares do not fit the re-share circuit");

/// Server (evaluator) half of Algorithm 2 for any re-share circuit: holds
/// one share-0 vector per circuit operand, obtains the fresh shares `z₀`.
/// An empty circuit (no outputs) is a no-op without I/O on both sides.
///
/// # Errors
///
/// [`ProtocolError::Dimension`] if `shares` do not fill the circuit's
/// evaluator inputs exactly; otherwise disconnection or garbling failures.
pub fn reshare_server<T: Transport, S: AsRef<[u64]>>(
    ch: &mut T,
    yao: &mut YaoEvaluator,
    circuit: &Circuit,
    shares: &[S],
    ring: Ring,
) -> Result<Vec<u64>, ProtocolError> {
    let circuit = circuit.with_lanes(circuit.lanes());
    ServerOp::evaluate(ch, yao, circuit, shares, ring, Then::Shares)?.run(ch, yao, ring)
}

/// The server half of a lowered op between flights: [`step`](Self::step)
/// takes the [`needs`](Self::needs) frames due and sends the answer.
#[derive(Debug)]
pub(crate) enum ServerOp {
    /// A circuit whose label OTs' columns are out: its garbled material
    /// and the OTs' ciphertexts come next.
    Eval { circuit: Circuit, run: PendingRun, then: Box<Then> },
    /// The optimized ReLU's signs are out, and with them the columns of
    /// `pos`, the re-share of the neurons that passed. The negative
    /// neurons' shares come next, then `pos`'s frames.
    Signed { non_neg: Vec<bool>, pos: Box<ServerOp> },
    /// The op's fresh shares `z₀`.
    Done(Vec<u64>),
}

/// A circuit's outputs: fresh shares, or the optimized ReLU's signs.
#[derive(Debug)]
pub(crate) enum Then {
    Shares,
    Signs { y0: Vec<u64>, reshare: Circuit },
}

impl ServerOp {
    /// Algorithm 2 over `circuit` and one share-0 vector per operand, up
    /// to its wait: the label OTs' columns depend only on the server's
    /// share, so they leave now. A circuit with no outputs moves nothing
    /// on either side.
    fn evaluate<T: Transport, S: AsRef<[u64]>>(
        ch: &mut T,
        yao: &mut YaoEvaluator,
        circuit: Circuit,
        shares: &[S],
        ring: Ring,
        then: Then,
    ) -> Result<Self, ProtocolError> {
        let mut bits = Vec::with_capacity(circuit.evaluator_input_count());
        for s in shares {
            push_words(&mut bits, s.as_ref(), ring.bits() as usize);
        }
        if bits.len() != circuit.evaluator_input_count() {
            return Err(MISFIT);
        }
        if circuit.output_count() == 0 {
            return then.outputs(ch, yao, Vec::new(), ring);
        }
        let run = yao.run_start(ch, &bits)?;
        Ok(ServerOp::Eval { circuit, run, then: Box::new(then) })
    }

    /// Frames the next [`step`](Self::step) takes.
    pub(crate) fn needs(&self) -> usize {
        match self {
            ServerOp::Eval { .. } => 4,
            ServerOp::Signed { pos, .. } => 1 + pos.needs(),
            ServerOp::Done(_) => 0,
        }
    }

    /// Takes the frames the op waits for and sends what answers them.
    pub(crate) fn step<T: Transport>(
        self,
        ch: &mut T,
        yao: &mut YaoEvaluator,
        ring: Ring,
    ) -> Result<Self, ProtocolError> {
        Ok(match self {
            ServerOp::Eval { circuit, run, then } => {
                let out = run.finish(ch, &circuit)?;
                then.outputs(ch, yao, out, ring)?
            }
            ServerOp::Signed { non_neg, pos } => {
                // Negative neurons: the client re-shares zero by sending −z1.
                let neg_count = non_neg.iter().filter(|&&b| !b).count();
                let NegShares(neg_bytes) = ch.recv_frame()?;
                if neg_bytes.len() != neg_count * ring.byte_len() {
                    return Err(ProtocolError::Malformed("negative-neuron share batch length"));
                }
                let (mut pos, mut neg) = (
                    pos.run(ch, yao, ring)?.into_iter(),
                    ring.decode_slice(&neg_bytes).into_iter(),
                );
                let z0 = non_neg.iter().map(|&p| if p { pos.next() } else { neg.next() });
                ServerOp::Done(z0.map(|z| z.expect("one share per neuron")).collect())
            }
            done @ ServerOp::Done(_) => done,
        })
    }

    /// The op run to its fresh shares over a blocking channel.
    pub(crate) fn run<T: Transport>(
        mut self,
        ch: &mut T,
        yao: &mut YaoEvaluator,
        ring: Ring,
    ) -> Result<Vec<u64>, ProtocolError> {
        loop {
            match self {
                ServerOp::Done(z0) => return Ok(z0),
                op => self = op.step(ch, yao, ring)?,
            }
        }
    }
}

impl Then {
    /// What the output bits `out` make of the op.
    fn outputs<T: Transport>(
        self,
        ch: &mut T,
        yao: &mut YaoEvaluator,
        out: Vec<bool>,
        ring: Ring,
    ) -> Result<ServerOp, ProtocolError> {
        Ok(match self {
            Then::Shares => ServerOp::Done(bits_to_words(&out, ring.bits() as usize)),
            Then::Signs { y0, reshare } => {
                ch.send_frame(&SignBits(pack_bits(&out)))?;
                // Phase 2 re-shares only the non-negative subset. Its
                // lanes are known with the signs, so its columns go in the
                // same flight.
                let y0_pos: Vec<u64> = y0.iter().zip(&out).filter(|p| *p.1).map(|p| *p.0).collect();
                let circuit = reshare.with_lanes(y0_pos.len());
                let pos = ServerOp::evaluate(ch, yao, circuit, &[y0_pos], ring, Then::Shares)?;
                ServerOp::Signed { non_neg: out, pos: Box::new(pos) }
            }
        })
    }
}

/// Client (garbler) half of Algorithm 2 for any re-share circuit: holds
/// one share-1 vector per circuit operand and its fresh output mask `z1`
/// (which in the full pipeline is the next layer's offline randomness).
///
/// # Errors
///
/// [`ProtocolError::Dimension`] if `shares` and `z1` do not fill the
/// circuit's garbler inputs exactly; otherwise disconnection or garbling
/// failures.
pub fn reshare_client<T: Transport, S: AsRef<[u64]>, RNG: Rng + ?Sized>(
    ch: &mut T,
    yao: &mut YaoGarbler,
    circuit: &Circuit,
    shares: &[S],
    z1: &[u64],
    ring: Ring,
    rng: &mut RNG,
) -> Result<(), ProtocolError> {
    let bits = ring.bits() as usize;
    let mut gbits = Vec::with_capacity(circuit.garbler_input_count());
    for s in shares {
        push_words(&mut gbits, s.as_ref(), bits);
    }
    if gbits.len() + z1.len() * bits != circuit.garbler_input_count()
        || z1.len() * bits != circuit.output_count()
    {
        return Err(MISFIT);
    }
    if circuit.output_count() == 0 {
        return Ok(());
    }
    push_words(&mut gbits, z1, bits);
    yao.run(ch, circuit, &gbits, rng)?;
    Ok(())
}

/// How one re-sharing op runs online, for one sample: the walks widen the
/// circuits to their batch.
#[derive(Debug)]
pub(crate) enum Lowering {
    /// Algorithm 2: one circuit over the op's operand shares. `gather`,
    /// when present, lists for each circuit input word the element of the
    /// operand it reads (max-pool's window-major layout).
    Reshare { circuit: Circuit, gather: Option<Vec<usize>> },
    /// The paper's optimized ReLU: reveal signs first, re-share only the
    /// non-negative neurons. Both circuits are one neuron's.
    SignFirst { sign: Circuit, reshare: Circuit },
}

impl Lowering {
    /// Which of an op's two slots on the model `variant` lowers it into:
    /// only ReLU lowers differently under the optimized variant.
    pub(crate) fn slot(op: &LayerOp, variant: ReluVariant) -> usize {
        usize::from(matches!(op, LayerOp::Relu { .. }) && variant == ReluVariant::Optimized)
    }

    /// Lowers `op` for one sample; `None` for ops that do not re-share
    /// (linear and output ops). This is the one place an op kind becomes a
    /// circuit.
    pub(crate) fn of(op: &LayerOp, config: &QuantConfig, variant: ReluVariant) -> Option<Lowering> {
        let bits = config.ring.bits() as usize;
        let f = config.frac_bits as usize;
        let circuit = match *op {
            LayerOp::Relu { .. } if variant == ReluVariant::Optimized => {
                let (sign, reshare) = sign_first_circuits(bits, config.weight_frac_bits as usize);
                return Some(Lowering::SignFirst { sign, reshare });
            }
            LayerOp::Relu { dim } => circuits::relu_trunc_reshare_vec_circuit(
                bits,
                dim,
                config.weight_frac_bits as usize,
            ),
            LayerOp::MaxPool { shape, window } => {
                let windows = pool_windows(shape, window);
                let circuit =
                    circuits::max_pool_reshare_vec_circuit(bits, window * window, windows.len());
                return Some(Lowering::Reshare { circuit, gather: Some(windows.concat()) });
            }
            // The operand is the untruncated product share left by the
            // matrix-Beaver open-and-combine, not a tape slot.
            LayerOp::MatMulSS { m, n, shift, .. } => {
                circuits::reconstruct_trunc_reshare_vec_circuit(bits, m * n, shift as usize)
            }
            LayerOp::Softmax { rows, cols, shift } => {
                circuits::softmax_reshare_vec_circuit(bits, rows, cols, shift as usize, f)
            }
            LayerOp::Gelu { dim, shift } => {
                circuits::gelu_trunc_reshare_vec_circuit(bits, dim, shift as usize, f)
            }
            LayerOp::LayerNorm { tokens, dim, shift_a, shift_b, .. } => {
                circuits::layernorm_reshare_vec_circuit(
                    bits,
                    tokens,
                    dim,
                    shift_a as usize,
                    shift_b as usize,
                    f,
                )
            }
            LayerOp::Dense { .. }
            | LayerOp::Linear { .. }
            | LayerOp::Conv { .. }
            | LayerOp::Output { .. } => return None,
        };
        Some(Lowering::Reshare { circuit, gather: None })
    }

    /// Server half of the lowered op over its operand shares, `batch`
    /// samples wide, up to its first wait.
    pub(crate) fn server<T: Transport, S: AsRef<[u64]>>(
        &self,
        ch: &mut T,
        yao: &mut YaoEvaluator,
        shares: &[S],
        ring: Ring,
        batch: usize,
    ) -> Result<ServerOp, ProtocolError> {
        match self {
            Lowering::Reshare { circuit, gather } => {
                let circuit = circuit.with_lanes(circuit.lanes() * batch);
                match gather {
                    None => ServerOp::evaluate(ch, yao, circuit, shares, ring, Then::Shares),
                    Some(idx) => {
                        let shares = gathered(shares, idx)?;
                        ServerOp::evaluate(ch, yao, circuit, &shares, ring, Then::Shares)
                    }
                }
            }
            Lowering::SignFirst { sign, reshare } => {
                // Phase 1 reveals per-neuron signs.
                let [y0] = shares else { return Err(MISFIT) };
                let y0 = y0.as_ref();
                if y0.is_empty() {
                    return Ok(ServerOp::Done(Vec::new()));
                }
                let then = Then::Signs { y0: y0.to_vec(), reshare: reshare.with_lanes(1) };
                ServerOp::evaluate(ch, yao, sign.with_lanes(y0.len()), &[y0], ring, then)
            }
        }
    }

    /// Client half of the lowered op; `z1` is the op's fresh output mask.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn client<T: Transport, S: AsRef<[u64]>, RNG: Rng + ?Sized>(
        &self,
        ch: &mut T,
        yao: &mut YaoGarbler,
        shares: &[S],
        z1: &[u64],
        ring: Ring,
        batch: usize,
        rng: &mut RNG,
    ) -> Result<(), ProtocolError> {
        match self {
            Lowering::Reshare { circuit, gather } => {
                let circuit = circuit.with_lanes(circuit.lanes() * batch);
                match gather {
                    None => reshare_client(ch, yao, &circuit, shares, z1, ring, rng),
                    Some(idx) => {
                        reshare_client(ch, yao, &circuit, &gathered(shares, idx)?, z1, ring, rng)
                    }
                }
            }
            Lowering::SignFirst { sign, reshare } => {
                let [y1] = shares else { return Err(MISFIT) };
                sign_first_client(ch, yao, sign, reshare, y1.as_ref(), z1, ring, rng)
            }
        }
    }
}

fn gathered<S: AsRef<[u64]>>(shares: &[S], idx: &[usize]) -> Result<Vec<Vec<u64>>, ProtocolError> {
    shares
        .iter()
        .map(|s| idx.iter().map(|&j| s.as_ref().get(j).copied().ok_or(MISFIT)).collect())
        .collect()
}

/// Server side of the softmax op over a `rows × cols` score matrix
/// (row-major shares `y0`).
///
/// # Errors
///
/// As [`reshare_server`].
#[allow(clippy::too_many_arguments)]
pub fn softmax_server<T: Transport>(
    ch: &mut T,
    yao: &mut YaoEvaluator,
    y0: &[u64],
    rows: usize,
    cols: usize,
    ring: Ring,
    shift: u32,
    f: u32,
) -> Result<Vec<u64>, ProtocolError> {
    let circuit = softmax_circuit(rows, cols, ring, shift, f);
    reshare_server(ch, yao, &circuit, &[y0], ring)
}

/// Client side of the softmax op; `z1` is the fresh output mask.
///
/// # Errors
///
/// As [`reshare_client`].
#[allow(clippy::too_many_arguments)]
pub fn softmax_client<T: Transport, RNG: Rng + ?Sized>(
    ch: &mut T,
    yao: &mut YaoGarbler,
    y1: &[u64],
    z1: &[u64],
    rows: usize,
    cols: usize,
    ring: Ring,
    shift: u32,
    f: u32,
    rng: &mut RNG,
) -> Result<(), ProtocolError> {
    let circuit = softmax_circuit(rows, cols, ring, shift, f);
    reshare_client(ch, yao, &circuit, &[y1], z1, ring, rng)
}

fn softmax_circuit(rows: usize, cols: usize, ring: Ring, shift: u32, f: u32) -> Circuit {
    let bits = ring.bits() as usize;
    circuits::softmax_reshare_vec_circuit(bits, rows, cols, shift as usize, f as usize)
}

/// Server side of the elementwise GELU op.
///
/// # Errors
///
/// As [`reshare_server`].
pub fn gelu_server<T: Transport>(
    ch: &mut T,
    yao: &mut YaoEvaluator,
    y0: &[u64],
    ring: Ring,
    shift: u32,
    f: u32,
) -> Result<Vec<u64>, ProtocolError> {
    let circuit = gelu_circuit(y0.len(), ring, shift, f);
    reshare_server(ch, yao, &circuit, &[y0], ring)
}

/// Client side of the elementwise GELU op; `z1` is the fresh output mask.
///
/// # Errors
///
/// As [`reshare_client`].
#[allow(clippy::too_many_arguments)]
pub fn gelu_client<T: Transport, RNG: Rng + ?Sized>(
    ch: &mut T,
    yao: &mut YaoGarbler,
    y1: &[u64],
    z1: &[u64],
    ring: Ring,
    shift: u32,
    f: u32,
    rng: &mut RNG,
) -> Result<(), ProtocolError> {
    let circuit = gelu_circuit(y1.len(), ring, shift, f);
    reshare_client(ch, yao, &circuit, &[y1], z1, ring, rng)
}

fn gelu_circuit(n: usize, ring: Ring, shift: u32, f: u32) -> Circuit {
    circuits::gelu_trunc_reshare_vec_circuit(ring.bits() as usize, n, shift as usize, f as usize)
}

/// Server side of the LayerNorm op over `tokens` tokens of `d` values:
/// holds shares `a0` of the primary input and `b0` of the residual.
///
/// # Errors
///
/// As [`reshare_server`].
#[allow(clippy::too_many_arguments)]
pub fn layernorm_server<T: Transport>(
    ch: &mut T,
    yao: &mut YaoEvaluator,
    a0: &[u64],
    b0: &[u64],
    tokens: usize,
    d: usize,
    ring: Ring,
    shift_a: u32,
    shift_b: u32,
    f: u32,
) -> Result<Vec<u64>, ProtocolError> {
    let circuit = layernorm_circuit(tokens, d, ring, shift_a, shift_b, f);
    reshare_server(ch, yao, &circuit, &[a0, b0], ring)
}

/// Client side of the LayerNorm op; `z1` is the fresh output mask.
///
/// # Errors
///
/// As [`reshare_client`].
#[allow(clippy::too_many_arguments)]
pub fn layernorm_client<T: Transport, RNG: Rng + ?Sized>(
    ch: &mut T,
    yao: &mut YaoGarbler,
    a1: &[u64],
    b1: &[u64],
    z1: &[u64],
    tokens: usize,
    d: usize,
    ring: Ring,
    shift_a: u32,
    shift_b: u32,
    f: u32,
    rng: &mut RNG,
) -> Result<(), ProtocolError> {
    let circuit = layernorm_circuit(tokens, d, ring, shift_a, shift_b, f);
    reshare_client(ch, yao, &circuit, &[a1, b1], z1, ring, rng)
}

fn layernorm_circuit(
    tokens: usize,
    d: usize,
    ring: Ring,
    shift_a: u32,
    shift_b: u32,
    f: u32,
) -> Circuit {
    circuits::layernorm_reshare_vec_circuit(
        ring.bits() as usize,
        tokens,
        d,
        shift_a as usize,
        shift_b as usize,
        f as usize,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_math::fixedops;
    use abnn2_math::FragmentScheme;
    use abnn2_net::{run_pair, NetworkModel};
    use abnn2_nn::conv::ConvShape;
    use rand::SeedableRng;

    const BITS: u32 = 16;

    /// Splits `vals` into additive shares and runs server/client closures
    /// over an in-memory pair, returning the reconstructed outputs.
    fn run_op(
        vals: &[u64],
        seed: u64,
        server: impl FnOnce(&mut abnn2_net::Endpoint, &mut YaoEvaluator, &[u64]) -> Vec<u64> + Send,
        client: impl FnOnce(&mut abnn2_net::Endpoint, &mut YaoGarbler, &[u64], &[u64]) + Send,
    ) -> Vec<u64> {
        let ring = Ring::new(BITS);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let y1 = ring.sample_vec(&mut rng, vals.len());
        let y0 = ring.sub_vec(vals, &y1);
        let z1 = ring.sample_vec(&mut rng, vals.len());
        let (z1s, z1c) = (z1.clone(), z1);
        let (z0, (), _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
                let mut yao = YaoEvaluator::setup(ch, &mut rng).expect("setup");
                server(ch, &mut yao, &y0)
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 2);
                let mut yao = YaoGarbler::setup(ch, &mut rng).expect("setup");
                client(ch, &mut yao, &y1, &z1c);
            },
        );
        let ring = Ring::new(BITS);
        ring.add_vec(&z0, &z1s)
    }

    /// The lowering of `op` at batch 1 under a 16-bit, f = 6 config.
    fn lower(op: &LayerOp, bits: u32) -> Lowering {
        let config = QuantConfig {
            ring: Ring::new(bits),
            frac_bits: 6,
            weight_frac_bits: 2,
            scheme: FragmentScheme::ternary(),
        };
        Lowering::of(op, &config, ReluVariant::Oblivious).expect("a re-sharing op")
    }

    fn matmul_op(m: usize, n: usize, shift: u32) -> LayerOp {
        LayerOp::MatMulSS { m, k: 1, n, transpose_b: false, shift, a_src: 0, b_src: 0 }
    }

    #[test]
    fn matmul_close_truncates_and_reshares() {
        let ring = Ring::new(BITS);
        let vals: Vec<u64> =
            [4096i64, -4096, 255, -255, 0].iter().map(|&v| ring.from_i64(v)).collect();
        let got = run_op(
            &vals,
            900,
            |ch, yao, p0| {
                lower(&matmul_op(5, 1, 4), BITS)
                    .server(ch, yao, &[p0], ring, 1)
                    .and_then(|op| op.run(ch, yao, ring))
                    .expect("server")
            },
            |ch, yao, p1, z1| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(902);
                lower(&matmul_op(5, 1, 4), BITS)
                    .client(ch, yao, &[p1], z1, ring, 1, &mut rng)
                    .expect("client");
            },
        );
        for (i, (&g, &v)) in got.iter().zip(&vals).enumerate() {
            assert_eq!(g, fixedops::sar(&ring, v, 4), "elem {i}");
        }
    }

    #[test]
    fn softmax_matches_the_fixed_point_oracle() {
        let ring = Ring::new(BITS);
        let f = 6u32;
        let shift = 2u32;
        // Two rows of three logits each, pre-shift.
        let vals: Vec<u64> =
            [80i64, -40, 160, 0, 0, 512].iter().map(|&v| ring.from_i64(v)).collect();
        let got = run_op(
            &vals,
            910,
            move |ch, yao, y0| {
                softmax_server(ch, yao, y0, 2, 3, Ring::new(BITS), shift, f).expect("server")
            },
            move |ch, yao, y1, z1| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(912);
                softmax_client(ch, yao, y1, z1, 2, 3, Ring::new(BITS), shift, f, &mut rng)
                    .expect("client");
            },
        );
        for r in 0..2 {
            let row: Vec<u64> =
                vals[r * 3..(r + 1) * 3].iter().map(|&v| fixedops::sar(&ring, v, shift)).collect();
            let want = fixedops::softmax_row(&ring, f, &row);
            assert_eq!(&got[r * 3..(r + 1) * 3], &want[..], "row {r}");
        }
    }

    #[test]
    fn gelu_matches_the_fixed_point_oracle() {
        let ring = Ring::new(BITS);
        let f = 6u32;
        let shift = 2u32;
        let vals: Vec<u64> =
            [256i64, -256, 64, -64, 0, 1000].iter().map(|&v| ring.from_i64(v)).collect();
        let got = run_op(
            &vals,
            920,
            move |ch, yao, y0| gelu_server(ch, yao, y0, Ring::new(BITS), shift, f).expect("server"),
            move |ch, yao, y1, z1| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(922);
                gelu_client(ch, yao, y1, z1, Ring::new(BITS), shift, f, &mut rng).expect("client");
            },
        );
        for (i, (&g, &v)) in got.iter().zip(&vals).enumerate() {
            let want = fixedops::gelu(&ring, f, fixedops::sar(&ring, v, shift));
            assert_eq!(g, want, "elem {i}");
        }
    }

    #[test]
    fn layernorm_folds_the_residual_and_matches_the_oracle() {
        let ring = Ring::new(BITS);
        let f = 6u32;
        let (sa, sb) = (2u32, 0u32);
        let (tokens, d) = (2usize, 4usize);
        let mut rng = rand::rngs::StdRng::seed_from_u64(930);
        let a_vals: Vec<u64> =
            (0..tokens * d).map(|_| ring.from_i64(rng.gen_range(-800i64..800))).collect();
        let b_vals: Vec<u64> =
            (0..tokens * d).map(|_| ring.from_i64(rng.gen_range(-200i64..200))).collect();

        // Share both inputs and the fresh mask by hand (two-input op, so the
        // generic single-input harness doesn't fit).
        let a1 = ring.sample_vec(&mut rng, tokens * d);
        let a0 = ring.sub_vec(&a_vals, &a1);
        let b1 = ring.sample_vec(&mut rng, tokens * d);
        let b0 = ring.sub_vec(&b_vals, &b1);
        let z1 = ring.sample_vec(&mut rng, tokens * d);
        let z1c = z1.clone();
        let (z0, (), _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(931);
                let mut yao = YaoEvaluator::setup(ch, &mut rng).expect("setup");
                layernorm_server(ch, &mut yao, &a0, &b0, tokens, d, Ring::new(BITS), sa, sb, f)
                    .expect("server")
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(932);
                let mut yao = YaoGarbler::setup(ch, &mut rng).expect("setup");
                layernorm_client(
                    ch,
                    &mut yao,
                    &a1,
                    &b1,
                    &z1c,
                    tokens,
                    d,
                    Ring::new(BITS),
                    sa,
                    sb,
                    f,
                    &mut rng,
                )
                .expect("client");
            },
        );
        let got = ring.add_vec(&z0, &z1);
        for t in 0..tokens {
            let a_tok = &a_vals[t * d..(t + 1) * d];
            let b_tok = &b_vals[t * d..(t + 1) * d];
            let want = fixedops::layernorm_token(&ring, f, a_tok, b_tok, sa, sb);
            assert_eq!(&got[t * d..(t + 1) * d], &want[..], "token {t}");
        }
    }

    #[test]
    fn empty_inputs_are_noops() {
        // A circuit of no lanes has a body but nothing to run it on:
        // neither half may touch the channel.
        let ring = Ring::new(BITS);
        let got = run_op(
            &[],
            940,
            |ch, yao, p0| {
                let before = ch.snapshot();
                let lowering = lower(&matmul_op(0, 0, 0), BITS);
                let z0 = lowering
                    .server(ch, yao, &[p0], ring, 1)
                    .and_then(|op| op.run(ch, yao, ring))
                    .expect("server");
                assert_eq!(ch.snapshot(), before, "server half moved bytes");
                z0
            },
            |ch, yao, p1, z1| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(942);
                let before = ch.snapshot();
                lower(&matmul_op(0, 0, 0), BITS)
                    .client(ch, yao, &[p1], z1, ring, 1, &mut rng)
                    .expect("client");
                assert_eq!(ch.snapshot(), before, "client half moved bytes");
            },
        );
        assert!(got.is_empty());
    }

    #[test]
    fn secure_maxpool_standalone() {
        let ring = Ring::new(32);
        let shape = ConvShape { channels: 2, height: 4, width: 4 };
        let pool = LayerOp::MaxPool { shape, window: 2 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(220);
        let values: Vec<i64> = (0..shape.len() as i64).map(|i| (i * 37 % 101) - 50).collect();
        let x: Vec<u64> = values.iter().map(|&v| ring.from_i64(v)).collect();
        let x1 = ring.sample_vec(&mut rng, x.len());
        let x0 = ring.sub_vec(&x, &x1);
        let z1 = ring.sample_vec(&mut rng, 2 * 2 * 2);
        let (x1c, z1c, pool2) = (x1.clone(), z1.clone(), pool.clone());
        let (z0, (), _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(221);
                let mut yao = YaoEvaluator::setup(ch, &mut rng).expect("setup");
                lower(&pool, 32)
                    .server(ch, &mut yao, &[x0], ring, 1)
                    .and_then(|op| op.run(ch, &mut yao, ring))
                    .expect("server")
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(222);
                let mut yao = YaoGarbler::setup(ch, &mut rng).expect("setup");
                lower(&pool2, 32)
                    .client(ch, &mut yao, &[x1c], &z1c, ring, 1, &mut rng)
                    .expect("client");
            },
        );
        let (expect, _) = abnn2_nn::conv::maxpool_ring(&x, shape, 2, ring);
        for (w, &e) in expect.iter().enumerate() {
            assert_eq!(ring.add(z0[w], z1[w]), e, "window {w}");
        }
    }

    #[test]
    fn mismatched_mask_count_rejected() {
        // z1 must have one entry per pooling window and the share map one
        // entry per pixel; mismatches are caught before any I/O.
        let ring = Ring::new(32);
        let shape = ConvShape { channels: 1, height: 4, width: 4 };
        let pool = LayerOp::MaxPool { shape, window: 2 };
        let pool2 = pool.clone();
        let (z0_res, (), _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(230);
                let mut yao = YaoEvaluator::setup(ch, &mut rng).expect("setup");
                let short = lower(&pool, 32).server(ch, &mut yao, &[[0u64; 15]], ring, 1);
                assert!(matches!(short, Err(ProtocolError::Dimension(_))));
                lower(&pool, 32)
                    .server(ch, &mut yao, &[[0u64; 16]], ring, 1)
                    .and_then(|op| op.run(ch, &mut yao, ring))
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(231);
                let mut yao = YaoGarbler::setup(ch, &mut rng).expect("setup");
                // 3 masks instead of 4 windows: dimension error, no I/O.
                let err = lower(&pool2, 32)
                    .client(ch, &mut yao, &[[0u64; 16]], &[0u64; 3], ring, 1, &mut rng)
                    .expect_err("must reject");
                assert!(matches!(err, ProtocolError::Dimension(_)));
            },
        );
        // Server fails because the garbler never sent material (its
        // columns went out, unanswered).
        assert!(z0_res.is_err());
    }
}
