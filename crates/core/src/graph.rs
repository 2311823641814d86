//! Secure planner and executor over the [`LayerGraph`] IR.
//!
//! The paper describes one protocol pipeline — OT-based dot-product
//! triplets offline (§4.1), share-and-reconstruct non-linear layers online
//! (§4.2) — and all three served topologies (MLP, CNN, encoder) run it.
//! This module is the single implementation: [`SecureGraph`] pins a
//! validated graph to a batch size,
//! the **planner** ([`SecureGraph::plan`]) emits one [`TripletPlan`] per
//! linear op (dimensions, batch `o`, message-layout mode), and the
//! **executor** halves ([`server_offline_with`] / [`server_online_to_logits`]
//! and [`client_offline_with`] / [`client_online_to_logits`]) walk the same
//! op sequence consuming planned state, for every topology. The server's
//! two functions are loops over the resumable walks the session driver
//! ([`crate::driver::SessionDriver`]) steps, one flight at a time:
//! [`server_online_to_logits`] is the online phase of
//! [`SecureServer::online`](crate::SecureServer::online), and
//! [`server_offline_with`] the one public server offline loop, for a
//! caller that builds its own lineage pair. [`SecureClient`](crate::SecureClient)
//! calls the client's two.
//!
//! The executor's state invariant, per party:
//!
//! * the server walks with its additive share of the current activation —
//!   after a linear op it holds `W·x⁰ + b + U`, one [`Matrix::mul`] of the
//!   ring weight matrix [`ServedModel`] keeps for the op, after a re-share
//!   op the garbled circuit's output share;
//! * the client's share is *known offline*: the input mask `R⁰`, then `V`
//!   after each linear op, then the fresh mask it fed the re-sharing
//!   circuit. That is why the triplet randomness for every linear op is
//!   exactly the client share entering it (im2col'ed for conv) — and why
//!   offline state bundles ([`crate::bundle`]) are connection-independent.
//!
//! Executors terminate at the graph's [`LayerOp::Output`] op by
//! construction; a graph missing it fails validation up front.
//!
//! Per-op instrumentation: every phase of the walk calls
//! [`Transport::mark_phase`] with labels like `offline:op0/conv` or
//! `online:op2/relu`, so metering transports report bytes and time per
//! layer while plain transports ignore the calls.

use crate::bundle::{ClientBundle, ServerBundle};
use crate::config::ExecConfig;
use crate::frames::BlindedInput;
use crate::inference::{ClientOffline, ServerOffline};
use crate::matbeaver::{
    generate_matrix_p0_start, generate_matrix_p1_over, mul_matrix_shares, open_matrix_shares,
    MatrixTriple, Opened, PendingTriple,
};
use crate::matmul::{triplet_client_with, SendAhead, TripletMode, TripletWalk};
use crate::nonlinear::{Lowering, ServerOp};
use crate::relu::ReluVariant;
use crate::ProtocolError;
use abnn2_gc::{YaoEvaluator, YaoGarbler};
use abnn2_math::{FragmentScheme, Matrix, Ring};
use abnn2_net::Transport;
use abnn2_nn::conv::im2col;
use abnn2_nn::graph::{LayerGraph, LayerOp, OpResource};
use abnn2_nn::quant::{QuantConfig, QuantizedDense, QuantizedNetwork};
use abnn2_nn::transformer::QuantizedTransformer;
use abnn2_nn::QuantizedCnn;
use abnn2_ot::{FragmentChooser, FragmentSender, IknpSender};
use rand::Rng;
use std::borrow::{Borrow, Cow};
use std::sync::{Arc, OnceLock};

/// The client-side view of a served model: the layer graph it lowers to
/// (architecture plus fixed-point hyper-parameters), never weights. Every
/// topology has the same surface; the graph is lowered and validated once
/// here, and every session pins it to a batch with
/// [`secure_graph`](Self::secure_graph).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublicModel {
    pub(crate) graph: Arc<LayerGraph>,
    /// First structural violation found at construction. Kept instead of
    /// failing the `From` impls so a degenerate model surfaces as a typed
    /// error when a session is planned, never as a panic.
    defect: Option<&'static str>,
    lowered: LoweredOps,
}

/// What a model keeps of its ops once sessions have run them: per op, its
/// lowering for one sample under either ReLU variant (see
/// `Lowering::slot`), built by the first walk that reaches the op and read
/// by every session after it, of either party, at any batch. Shared by
/// every clone and pinning of the model, and no part of what makes two
/// models equal.
#[derive(Debug, Clone)]
struct LoweredOps(Arc<[[OnceLock<Option<Lowering>>; 2]]>);

impl PartialEq for LoweredOps {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for LoweredOps {}

impl From<LayerGraph> for PublicModel {
    fn from(graph: LayerGraph) -> Self {
        let defect = graph.validate().err().map(|e| e.message());
        let lowered = LoweredOps(graph.ops.iter().map(|_| Default::default()).collect());
        PublicModel { graph: Arc::new(graph), defect, lowered }
    }
}

/// Any model type that lowers to a [`LayerGraph`] (`QuantizedNetwork`,
/// `QuantizedCnn`, `QuantizedTransformer`) has a public description.
impl<'a, M> From<&'a M> for PublicModel
where
    LayerGraph: From<&'a M>,
{
    fn from(model: &'a M) -> Self {
        LayerGraph::from(model).into()
    }
}

impl PublicModel {
    /// The layer graph this model lowers to.
    #[must_use]
    pub fn graph(&self) -> LayerGraph {
        LayerGraph::clone(&self.graph)
    }

    /// Fixed-point pipeline hyper-parameters.
    #[must_use]
    pub fn config(&self) -> &QuantConfig {
        &self.graph.config
    }

    /// Pins the graph to `batch` samples per prediction.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Dimension`] if the batch is zero, the graph is
    /// structurally ill-formed, or a spatial graph (conv/max-pool) or a
    /// graph with extended tape ops (transformer family) is asked for
    /// multi-sample batching (those ops are laid out per-map/per-tape-slot
    /// and run one sample at a time).
    pub fn secure_graph(&self, batch: usize) -> Result<SecureGraph, ProtocolError> {
        if batch == 0 {
            return Err(ProtocolError::Dimension("batch must be positive"));
        }
        if let Some(msg) = self.defect {
            return Err(ProtocolError::Dimension(msg));
        }
        if batch > 1 && self.graph.has_spatial_ops() {
            return Err(ProtocolError::Dimension("spatial graphs run with batch 1"));
        }
        if batch > 1 && self.graph.has_extended_ops() {
            return Err(ProtocolError::Dimension("extended graphs run with batch 1"));
        }
        Ok(SecureGraph { graph: Arc::clone(&self.graph), batch, lowered: self.lowered.clone() })
    }
}

/// A server-side model of any supported topology: its [`PublicModel`]
/// plus the weights and bias of every linear op in graph order, lowered
/// once at construction. Each op's weights are the `m × n` ring matrix
/// [`Matrix::mul`] takes: conv filters as the
/// `out_channels × (channels·kh·kw)` matrix im2col multiplies against,
/// the transformer's per-token projections expanded block-diagonally.
///
/// Construction panics if a layer's weights are not `out_dim × in_dim`.
#[derive(Debug, Clone)]
pub struct ServedModel {
    pub(crate) public: PublicModel,
    linears: Vec<(Matrix, Vec<u64>)>,
}

impl From<QuantizedNetwork> for ServedModel {
    fn from(net: QuantizedNetwork) -> Self {
        ServedModel::new(PublicModel::from(&net), net.layers)
    }
}

impl From<QuantizedCnn> for ServedModel {
    fn from(net: QuantizedCnn) -> Self {
        let public = PublicModel::from(&net);
        let conv = net.conv;
        let filters = QuantizedDense {
            out_dim: conv.out_channels,
            in_dim: conv.in_shape.channels * conv.kh * conv.kw,
            weights: conv.weights,
            bias: conv.bias,
        };
        ServedModel::new(public, std::iter::once(filters).chain(net.dense))
    }
}

impl From<QuantizedTransformer> for ServedModel {
    fn from(model: QuantizedTransformer) -> Self {
        let linears = (0..model.graph().linear_count()).map(|li| model.linear_params(li));
        ServedModel::new(PublicModel::from(&model), linears)
    }
}

impl ServedModel {
    fn new(public: PublicModel, layers: impl IntoIterator<Item = QuantizedDense>) -> Self {
        let ring = public.config().ring;
        let lower = |l: QuantizedDense| {
            let weights = l.weights.iter().map(|&w| ring.from_i64(w)).collect();
            (Matrix::new(l.out_dim, l.in_dim, weights), l.bias)
        };
        ServedModel { linears: layers.into_iter().map(lower).collect(), public }
    }

    /// The layer graph this model lowers to.
    #[must_use]
    pub fn graph(&self) -> LayerGraph {
        self.public.graph()
    }

    /// Fixed-point pipeline hyper-parameters.
    #[must_use]
    pub fn config(&self) -> &QuantConfig {
        self.public.config()
    }

    /// The weight-free public description to hand to clients.
    #[must_use]
    pub fn public(&self) -> PublicModel {
        self.public.clone()
    }

    /// [`PublicModel::secure_graph`] for the served graph.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Dimension`] if `batch` is invalid for the graph.
    pub fn secure_graph(&self, batch: usize) -> Result<SecureGraph, ProtocolError> {
        self.public.secure_graph(batch)
    }

    /// Weight matrix and bias of the `index`-th linear op, in graph order,
    /// which the graph says is `m × n` (one bias entry per output row).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Dimension`] if the model has no such op or its
    /// shape is not the graph's.
    pub(crate) fn linear_params(
        &self,
        index: usize,
        m: usize,
        n: usize,
    ) -> Result<(&Matrix, &[u64]), ProtocolError> {
        match self.linears.get(index) {
            Some((w, bias)) if (w.rows(), w.cols(), bias.len()) == (m, n, m) => Ok((w, bias)),
            _ => Err(ProtocolError::Dimension("model does not match graph")),
        }
    }
}

/// One linear op's offline triplet requirement, as emitted by the planner:
/// generate `U + V = W·R` with `W` of shape `m × n` and `o` input columns,
/// using the §4.1.2 (`MultiBatch`) or §4.1.3 (`OneBatch`) message layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripletPlan {
    /// Index of the op in the graph's op sequence.
    pub op: usize,
    /// Ordinal among the graph's linear ops (indexes `us`/`vs`).
    pub linear: usize,
    /// Weight rows (output dimension / filter count).
    pub m: usize,
    /// Weight columns (input dimension / im2col patch length).
    pub n: usize,
    /// Input columns: the batch size for dense ops, the number of output
    /// positions for conv ops.
    pub o: usize,
    /// Message layout, per the paper's batch-size selection rule.
    pub mode: TripletMode,
    /// Op kind tag (for instrumentation labels).
    pub kind: &'static str,
}

/// One secret×secret matmul op's offline matrix-triple requirement:
/// generate `(X, Y, Z = X·Y)` with `X` of shape `m × k` and `Y` of shape
/// `k × n` (effective, post-transpose dimensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatmulPlan {
    /// Index of the op in the graph's op sequence.
    pub op: usize,
    /// Ordinal among the graph's matmul ops (indexes the `mats` vectors).
    pub index: usize,
    /// Left rows.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Right cols.
    pub n: usize,
}

/// A validated [`LayerGraph`] pinned to a batch size — the unit the
/// planner and both executor halves operate on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecureGraph {
    graph: Arc<LayerGraph>,
    batch: usize,
    /// The model's per-op circuits, shared with every other pinning of it.
    lowered: LoweredOps,
}

impl SecureGraph {
    /// Validates `graph` and pins it to `batch` samples per prediction
    /// (see [`PublicModel::secure_graph`], which does the same for an
    /// already-validated model).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Dimension`] if the graph is ill-formed or `batch`
    /// is invalid for it.
    pub fn new(graph: LayerGraph, batch: usize) -> Result<Self, ProtocolError> {
        PublicModel::from(graph).secure_graph(batch)
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &LayerGraph {
        &self.graph
    }

    /// Samples per prediction batch.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// How re-sharing op `i` runs online under `variant`: lowered by the
    /// first session of the model to get here, read from the model's slot
    /// by every one after it.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Dimension`] if op `i` does not re-share.
    pub(crate) fn lowering(
        &self,
        i: usize,
        variant: ReluVariant,
    ) -> Result<&Lowering, ProtocolError> {
        let op = &self.graph.ops[i];
        self.lowered.0[i][Lowering::slot(op, variant)]
            .get_or_init(|| Lowering::of(op, &self.graph.config, variant))
            .as_ref()
            .ok_or(ProtocolError::Dimension("op has no re-sharing circuit"))
    }

    /// The offline plan: one triplet requirement per linear op, in graph
    /// order.
    #[must_use]
    pub fn plan(&self) -> Vec<TripletPlan> {
        let mut plans = Vec::with_capacity(self.graph.linear_count());
        for (i, op) in self.graph.ops.iter().enumerate() {
            let OpResource::Triplet { m, n } = op.resource() else { continue };
            // One input column per sample, or per output position for conv.
            let o = op.out_len().checked_div(m).unwrap_or(0) * self.batch;
            plans.push(TripletPlan {
                op: i,
                linear: plans.len(),
                m,
                n,
                o,
                mode: TripletMode::for_batch(o),
                kind: op.kind(),
            });
        }
        plans
    }

    /// The matrix-triple plan: one [`MatmulPlan`] per secret×secret matmul
    /// op, in graph order. Dimensions are *effective* (post-transpose):
    /// the triple always lives in `(m × k) · (k × n)` space regardless of
    /// how the graph stores the right operand.
    #[must_use]
    pub fn matmul_plans(&self) -> Vec<MatmulPlan> {
        let mut plans = Vec::with_capacity(self.graph.matmul_count());
        for (i, op) in self.graph.ops.iter().enumerate() {
            if let OpResource::MatTriple { m, k, n } = op.resource() {
                plans.push(MatmulPlan { op: i, index: plans.len(), m, k, n });
            }
        }
        plans
    }

    /// Shapes `(rows, cols)` of the client masks, in consumption order:
    /// the input mask first, then one fresh mask per re-sharing op.
    #[must_use]
    pub fn mask_shapes(&self) -> Vec<(usize, usize)> {
        let mut shapes = vec![(self.graph.input_len(), self.batch)];
        for op in &self.graph.ops {
            if op.is_reshare() {
                shapes.push((op.out_len(), self.batch));
            }
        }
        shapes
    }

    /// Shapes `(rows, cols)` of the per-linear-op triplet shares `U`/`V`.
    #[must_use]
    pub fn triplet_shapes(&self) -> Vec<(usize, usize)> {
        self.plan().iter().map(|p| (p.m, p.o)).collect()
    }

    /// Analytic ceiling on the traffic a *well-behaved* client sends the
    /// server over one full cold session under this plan. Serving
    /// governors use it as the per-session inbound quota: the planner
    /// knows every op's communication shape (the same γ(N−1)·m·n·elem
    /// counts `tests/comm_shape.rs` pins), so a peer whose inbound volume
    /// exceeds the ceiling is provably not running the protocol and can
    /// be evicted.
    ///
    /// The bound is deliberately generous — each term is an over-estimate
    /// of the corresponding protocol phase, and the total carries a 4×
    /// slack factor — because a false eviction of an honest client is far
    /// worse than letting a flood run a few times longer than necessary.
    #[must_use]
    pub fn inbound_ceiling(&self) -> CommCeiling {
        let cfg = &self.graph.config;
        let ring_bytes = cfg.ring.byte_len() as u64;
        let ring_bits = u64::from(cfg.ring.bits());
        let gamma = cfg.scheme.gamma() as u64;
        // Hello, base-OT setup (κ Edwards points + ciphertexts), and
        // per-phase framing slop.
        let mut frames: u64 = 64;
        let mut bytes: u64 = 1 << 16;
        for p in self.plan() {
            // KK13 fragment OTs: the client sends its masked triplet
            // messages — Σ over fragments of (N−1)·m·n messages of
            // `o`-element length (comm_shape.rs pins this count exactly) —
            // plus per-extension column/correction overhead folded into
            // the slack below.
            let elem = p.o as u64 * ring_bytes;
            let masked: u64 = cfg
                .scheme
                .fragments()
                .iter()
                .map(|f| (f.n - 1) * (p.m as u64) * (p.n as u64) * elem)
                .sum();
            bytes += masked;
            frames += gamma + 8;
        }
        for p in self.matmul_plans() {
            // Interactive matrix-triple generation: two cross products of
            // m·n·k scalar Gilboa products at ℓ correlated OTs each. The
            // server chooses in both, so the client sends one correction
            // (one ring element) per OT and no columns; 64 bytes per
            // product-bit covers both products with room to spare.
            let ots = (p.m * p.k * p.n) as u64 * ring_bits;
            bytes += ots * 64;
            // Online openings `D‖E` plus framing.
            bytes += (p.m * p.k + p.k * p.n) as u64 * ring_bytes;
            frames += 16;
        }
        for op in &self.graph.ops {
            if op.is_reshare() {
                // GC evaluation: the client garbles, so its tables and the
                // OT-extension traffic for the server's input labels flow
                // inbound. For the cheap comparison-style circuits (ReLU,
                // max-pool, the matmul closing trunc-reshare) 64 bytes per
                // output wire dominates; the extended nonlinearities
                // (softmax/GELU/LayerNorm) garble multiply/divide/isqrt
                // cores of O(ℓ²) AND gates per element, bounded by an extra
                // 256·ℓ bytes per wire.
                let per_wire = if op.is_extended() { 64 + 256 * ring_bits } else { 64 };
                let wires = (op.out_len() * self.batch) as u64 * ring_bits;
                bytes += wires * per_wire;
                frames += 32;
            }
        }
        // Online: blinded input shares plus small per-op exchanges.
        bytes += (self.graph.input_len() * self.batch) as u64 * ring_bytes;
        bytes += self.graph.ops.len() as u64 * 4096;
        frames += self.graph.ops.len() as u64 * 8;
        CommCeiling { frames: frames * 4, bytes: bytes * 4 }
    }
}

/// Upper bound on one direction of a session's traffic, as computed by
/// [`SecureGraph::inbound_ceiling`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommCeiling {
    /// Maximum number of frames.
    pub frames: u64,
    /// Maximum total payload bytes.
    pub bytes: u64,
}

/// What offline state of the wrong shape is.
fn check_shapes(matrices: &[Matrix], shapes: &[(usize, usize)]) -> Result<(), ProtocolError> {
    let shape = |m: &Matrix| (m.rows(), m.cols());
    matrices.iter().map(shape).eq(shapes.iter().copied()).then_some(()).ok_or(MISFIT)
}

fn check_mat_shapes(mats: &[MatrixTriple], plans: &[MatmulPlan]) -> Result<(), ProtocolError> {
    (mats.len() == plans.len() && mats.iter().zip(plans).all(|(t, p)| t.fits(p.m, p.k, p.n)))
        .then_some(())
        .ok_or(MISFIT)
}

/// The input-column matrix a linear op multiplies its weights against:
/// its source slot as it is, or im2col'ed for conv — a local linear
/// rearrangement, so each party applies it to its own share.
fn linear_input<'a>(op: &LayerOp, slot: &'a Matrix) -> Cow<'a, Matrix> {
    match *op {
        LayerOp::Conv { in_shape, kh, kw, stride, .. } => {
            Cow::Owned(im2col(slot.as_slice(), in_shape, kh, kw, stride))
        }
        _ => Cow::Borrowed(slot),
    }
}

/// The shares entering op `i`'s re-sharing circuit: its source slots.
fn reshare_sources<'a, M: Borrow<Matrix>>(op: &LayerOp, i: usize, tape: &'a [M]) -> Vec<&'a [u64]> {
    op.sources(i).iter().map(|&s| Borrow::<Matrix>::borrow(&tape[s]).as_slice()).collect()
}

/// The operands `A` (`m × k`) and `B` (`k × n`) of matmul op `i` from this
/// party's tape. With `transpose_b` the right operand is stored `n × k`;
/// each party transposes its share, so the triple never sees the layout.
fn matmul_operands<M: Borrow<Matrix>>(
    op: &LayerOp,
    i: usize,
    (m, k, n): (usize, usize, usize),
    tape: &[M],
) -> (Matrix, Matrix) {
    let src = reshare_sources(op, i, tape);
    let b = if matches!(op, LayerOp::MatMulSS { transpose_b: true, .. }) {
        Matrix::new(n, k, src[1].to_vec()).transpose()
    } else {
        Matrix::new(k, n, src[1].to_vec())
    };
    (Matrix::new(m, k, src[0].to_vec()), b)
}

const MISFIT: ProtocolError = ProtocolError::Malformed("offline state does not fit the graph");

/// Offline phase, server half: the loop over `ServerOfflineWalk::step`.
/// One §4.1 triplet per linear op and one matrix Beaver triple per
/// secret×secret matmul op, extending the lineage's fragment chooser, which
/// comes back advanced beside the bundle. The Gilboa cross products behind
/// matrix triples extend the Yao half's OT receiver in place; graphs
/// without a matmul op leave it untouched.
///
/// # Errors
///
/// Returns [`ProtocolError`] on any subprotocol failure.
pub fn server_offline_with<T: Transport, R: Rng + ?Sized>(
    ch: &mut T,
    kk: FragmentChooser,
    yao: &mut YaoEvaluator,
    model: &ServedModel,
    sg: &SecureGraph,
    exec: ExecConfig,
    rng: &mut R,
) -> Result<(ServerBundle, FragmentChooser), ProtocolError> {
    let mut walk = ServerOfflineWalk::new(kk, sg.clone(), exec);
    while !walk.done() {
        walk.step(ch, model, yao, rng)?;
    }
    Ok(walk.finish())
}

/// The server's offline phase as a resumable walk: the fragment chooser,
/// the position in the op sequence and everything generated so far. The
/// Yao evaluator is not the walk's: a step borrows its OT receiver for a
/// matrix triple.
///
/// The walk sends ahead: every [`step`](Self::step) ends by extending
/// every fragment group of every linear op it can reach, in op order,
/// each group's columns sent before any reply is read, and the
/// [`SendAhead`] keeps what the client owes for them. A step takes the
/// [`needs`](Self::needs) frames of the oldest debt — one group's
/// [`TripletMasked`](crate::frames::TripletMasked), or a silent refill's
/// two — before it sends. Sending stops at a silent refill, which the
/// chooser must finish before it extends again, and at a matrix-triple op,
/// whose two steps (its columns out, then the client's corrections in)
/// run once nothing is owed. Each direction's frames are the serial walk's
/// in the serial order; only how they interleave moves.
#[derive(Debug)]
pub(crate) struct ServerOfflineWalk {
    sg: SecureGraph,
    exec: ExecConfig,
    /// The plans of the linear ops not started yet.
    plans: std::vec::IntoIter<TripletPlan>,
    /// The half of the session the triplets extend.
    kk: FragmentChooser,
    us: Vec<Matrix>,
    mats: Vec<MatrixTriple>,
    /// Index of the next op to start.
    next: usize,
    /// The linear ops in flight and what the client owes for them.
    ahead: SendAhead,
    /// The matrix triple between its halves.
    triple: Option<PendingTriple>,
}

impl ServerOfflineWalk {
    pub(crate) fn new(kk: FragmentChooser, sg: SecureGraph, exec: ExecConfig) -> Self {
        let mut walk = ServerOfflineWalk {
            plans: sg.plan().into_iter(),
            us: Vec::with_capacity(sg.graph().linear_count()),
            mats: Vec::with_capacity(sg.graph().matmul_count()),
            sg,
            exec,
            kk,
            next: 0,
            ahead: SendAhead::default(),
            triple: None,
        };
        walk.skip_idle_ops();
        walk
    }

    /// Advances past ops that need nothing generated offline.
    fn skip_idle_ops(&mut self) {
        let ops = &self.sg.graph().ops;
        while ops.get(self.next).is_some_and(|op| {
            matches!(op.resource(), OpResource::FreshMask { .. } | OpResource::Output)
        }) {
            self.next += 1;
        }
    }

    /// Whether every op's offline state has been generated.
    pub(crate) fn done(&self) -> bool {
        self.next == self.sg.graph().ops.len() && self.ahead.is_empty()
    }

    pub(crate) fn needs(&self) -> usize {
        if !self.ahead.is_empty() {
            return self.ahead.needs();
        }
        usize::from(self.triple.is_some())
    }

    /// Takes the oldest debt's frames, or runs the matrix-triple op's next
    /// half once nothing is owed, then sends ahead; a no-op once
    /// [`done`](Self::done). `yao`'s OT receiver carries the matrix
    /// triples' OTs, and `rng` feeds their shares only.
    pub(crate) fn step<T: Transport, R: Rng + ?Sized>(
        &mut self,
        ch: &mut T,
        model: &ServedModel,
        yao: &mut YaoEvaluator,
        rng: &mut R,
    ) -> Result<(), ProtocolError> {
        if !self.ahead.is_empty() {
            if let Some(u) = self.ahead.take(ch, &mut self.kk)? {
                self.us.push(u);
            }
        } else if let Some(op) = self.sg.graph().ops.get(self.next) {
            if let OpResource::MatTriple { m, k, n } = op.resource() {
                let ring = self.sg.graph().config.ring;
                if let Some(triple) = self.triple.take() {
                    self.mats.push(triple.finish(ch, ring)?);
                    self.next += 1;
                    self.skip_idle_ops();
                } else {
                    ch.mark_phase(&format!("offline:op{}/{}", self.next, op.kind()));
                    let ot = yao.ot_mut();
                    self.triple = Some(generate_matrix_p0_start(ch, ot, m, k, n, ring, rng)?);
                    return Ok(());
                }
            }
        }
        self.send_ahead(ch, model)
    }

    /// Sends every fragment group it can without a reply: the groups of
    /// the linear ops in flight, then of each linear op up to the next
    /// matrix-triple op, each op's phase marked at its first send.
    fn send_ahead<T: Transport>(
        &mut self,
        ch: &mut T,
        model: &ServedModel,
    ) -> Result<(), ProtocolError> {
        while self.ahead.send(ch, &mut self.kk)? {
            let i = self.next;
            let Some(op) = self.sg.graph().ops.get(i) else { return Ok(()) };
            let OpResource::Triplet { m, n } = op.resource() else { return Ok(()) };
            let config = &self.sg.graph().config;
            let plan = self.plans.next().expect("one plan per linear op");
            let (w, _) = model.linear_params(plan.linear, m, n)?;
            ch.mark_phase(&format!("offline:op{i}/{}", plan.kind));
            self.ahead.push(TripletWalk::new(
                w.as_slice().iter().map(|&w| config.ring.to_i64(w)),
                plan.m,
                plan.n,
                plan.o,
                &config.scheme,
                config.ring,
                self.exec.triplet(plan.mode),
            )?);
            self.next += 1;
            self.skip_idle_ops();
        }
        Ok(())
    }

    /// Everything generated — the server half of what crosses into the
    /// online phase — and the chooser, advanced past every extension the
    /// walk ran.
    pub(crate) fn finish(self) -> (ServerBundle, FragmentChooser) {
        (ServerBundle { us: self.us, mats: self.mats, batch: self.sg.batch() }, self.kk)
    }
}

/// Where the client-side offline walk gets its correlated randomness: the
/// interactive §4.1 protocols ([`client_offline_with`]) or a local dealer
/// ([`crate::bundle::dealer_bundle_for`]). Everything else about the
/// client's offline state — which masks exist, which tape slot each linear
/// op's randomness is, the RNG draw order — is [`client_offline_walk`].
pub(crate) trait Correlations<R: Rng + ?Sized> {
    /// The client share `V` of `U + V = W·r` for the linear op whose
    /// triplet requirement is `plan`.
    fn triplet(
        &mut self,
        plan: &TripletPlan,
        r: &Matrix,
        rng: &mut R,
    ) -> Result<Matrix, ProtocolError>;

    /// The client share of the matrix Beaver triple `plan` asks for.
    fn matrix_triple(
        &mut self,
        plan: &MatmulPlan,
        rng: &mut R,
    ) -> Result<MatrixTriple, ProtocolError>;
}

/// The client's offline state, by one walk of the graph as a tape machine.
/// The tape carries the client's offline-known share of every activation:
/// the input mask `R⁰`, `V` after each linear op, and a fresh mask after
/// each re-sharing op — which is exactly the triplet randomness each
/// downstream linear op consumes (im2col'ed for conv).
pub(crate) fn client_offline_walk<R: Rng + ?Sized>(
    sg: &SecureGraph,
    source: &mut impl Correlations<R>,
    rng: &mut R,
) -> Result<ClientBundle, ProtocolError> {
    let graph = sg.graph();
    let (ring, batch) = (graph.config.ring, sg.batch());
    let (mut plans, mut matmuls) = (sg.plan().into_iter(), sg.matmul_plans().into_iter());
    let mut vs = Vec::with_capacity(graph.linear_count());
    let mut mats = Vec::with_capacity(graph.matmul_count());
    let mut tape: Vec<Matrix> = Vec::with_capacity(graph.ops.len() + 1);
    tape.push(Matrix::random(graph.input_len(), batch, &ring, rng));
    let mut rs = vec![tape[0].clone()];
    for (i, op) in graph.ops.iter().enumerate() {
        let out = match op.resource() {
            OpResource::Triplet { .. } => {
                let plan = plans.next().expect("one plan per linear op");
                let r = linear_input(op, &tape[op.sources(i)[0]]);
                let v = source.triplet(&plan, &r, rng)?;
                vs.push(v.clone());
                v
            }
            OpResource::Output => break,
            resource => {
                if let OpResource::MatTriple { .. } = resource {
                    let plan = matmuls.next().expect("one plan per matmul op");
                    mats.push(source.matrix_triple(&plan, rng)?);
                }
                let fresh = Matrix::random(op.out_len(), batch, &ring, rng);
                rs.push(fresh.clone());
                fresh
            }
        };
        tape.push(out);
    }
    Ok(ClientBundle { rs, vs, mats, batch })
}

/// [`Correlations`] over the wire: the client halves of the §4.1 triplet
/// protocol and of interactive matrix-triple generation.
struct Interactive<'a, T> {
    ch: &'a mut T,
    kk: &'a mut FragmentSender,
    /// The Yao garbler's OT sender, which the matrix triples extend.
    ot: &'a mut IknpSender,
    scheme: FragmentScheme,
    ring: Ring,
    exec: ExecConfig,
}

impl<T: Transport, R: Rng + ?Sized> Correlations<R> for Interactive<'_, T> {
    fn triplet(
        &mut self,
        plan: &TripletPlan,
        r: &Matrix,
        rng: &mut R,
    ) -> Result<Matrix, ProtocolError> {
        self.ch.mark_phase(&format!("offline:op{}/{}", plan.op, plan.kind));
        let cfg = self.exec.triplet(plan.mode);
        triplet_client_with(self.ch, self.kk, r, plan.m, &self.scheme, self.ring, cfg, rng)
    }

    fn matrix_triple(
        &mut self,
        plan: &MatmulPlan,
        rng: &mut R,
    ) -> Result<MatrixTriple, ProtocolError> {
        self.ch.mark_phase(&format!("offline:op{}/matmulss", plan.op));
        generate_matrix_p1_over(self.ch, self.ot, plan.m, plan.k, plan.n, self.ring, rng)
    }
}

/// Offline phase, client half: `client_offline_walk` over the interactive
/// protocols — the input mask, one fresh mask per re-sharing op, one §4.1
/// triplet per linear op, and one matrix Beaver triple per secret×secret
/// matmul op — extending the lineage's fragment sender and, for the matrix
/// triples, the Yao half's OT sender in place.
///
/// # Errors
///
/// Returns [`ProtocolError`] on any subprotocol failure.
pub fn client_offline_with<T: Transport, R: Rng + ?Sized>(
    ch: &mut T,
    kk: &mut FragmentSender,
    yao: &mut YaoGarbler,
    sg: &SecureGraph,
    exec: ExecConfig,
    rng: &mut R,
) -> Result<ClientBundle, ProtocolError> {
    let config = &sg.graph().config;
    let (scheme, ring) = (config.scheme.clone(), config.ring);
    let mut source = Interactive { ch, kk, ot: yao.ot_mut(), scheme, ring, exec };
    client_offline_walk(sg, &mut source, rng)
}

/// Online phase, server half: the loop over `ServerOnlineWalk::step`.
/// Receives the blinded input, walks the graph combining planned triplets
/// with garbled-circuit re-shares, and returns the evaluator plus the
/// server's share of the output op's input — the caller decides whether to
/// open it ([`crate::SecureServer::online`]) or feed it to a masked argmax
/// ([`crate::SecureServer::online_classify`]).
///
/// # Errors
///
/// [`ProtocolError::Malformed`] on a blinded input of the wrong length or
/// offline state that does not fit the graph; any subprotocol error
/// otherwise.
pub fn server_online_to_logits<T: Transport>(
    ch: &mut T,
    state: ServerOffline,
    model: &ServedModel,
    sg: &SecureGraph,
    exec: ExecConfig,
) -> Result<(YaoEvaluator, Matrix), ProtocolError> {
    let mut walk = ServerOnlineWalk::new(ch, state, sg.clone(), exec)?;
    while !walk.done() {
        walk.step(ch, model)?;
    }
    Ok(walk.finish())
}

/// The server's online phase as a resumable walk over the tape machine.
/// Like [`ServerOfflineWalk`]'s, [`step`](Self::step) takes the
/// [`needs`](Self::needs) frames its unit waits for — the blinded input, a
/// linear op's local [`Matrix::mul`], a matrix-Beaver opening, a step of a
/// re-share op's [`ServerOp`] — then sends.
#[derive(Debug)]
pub(crate) struct ServerOnlineWalk {
    sg: SecureGraph,
    exec: ExecConfig,
    bundle: ServerBundle,
    /// The Yao party the re-share ops run.
    yao: YaoEvaluator,
    /// The server's share of every slot computed so far; empty until the
    /// blinded input has arrived.
    tape: Vec<Matrix>,
    /// Triplet shares and matrix triples consumed so far.
    linears: usize,
    matmuls: usize,
    /// The re-share op in progress.
    flight: Option<Flight>,
    done: bool,
}

#[derive(Debug)]
enum Flight {
    Opened(Opened),
    Op(ServerOp),
}

impl ServerOnlineWalk {
    /// The walk, its input marked; `Malformed` if `state` does not fit.
    pub(crate) fn new<T: Transport>(
        ch: &mut T,
        state: ServerOffline,
        sg: SecureGraph,
        exec: ExecConfig,
    ) -> Result<Self, ProtocolError> {
        let ServerOffline { yao, bundle } = state;
        if bundle.batch != sg.batch() {
            return Err(ProtocolError::Malformed("offline state batch mismatch"));
        }
        check_shapes(&bundle.us, &sg.triplet_shapes())?;
        check_mat_shapes(&bundle.mats, &sg.matmul_plans())?;
        ch.mark_phase("online:input");
        Ok(ServerOnlineWalk {
            tape: Vec::with_capacity(sg.graph().ops.len() + 1),
            sg,
            exec,
            bundle,
            yao,
            linears: 0,
            matmuls: 0,
            flight: None,
            done: false,
        })
    }

    /// Whether the walk has reached the output op.
    pub(crate) fn done(&self) -> bool {
        self.done
    }

    pub(crate) fn needs(&self) -> usize {
        match &self.flight {
            None => usize::from(self.tape.is_empty()),
            Some(Flight::Opened(_)) => 1,
            Some(Flight::Op(op)) => op.needs(),
        }
    }

    /// Runs the next unit; a no-op once [`done`](Self::done).
    pub(crate) fn step<T: Transport>(
        &mut self,
        ch: &mut T,
        model: &ServedModel,
    ) -> Result<(), ProtocolError> {
        let graph = self.sg.graph();
        let (ring, batch) = (graph.config.ring, self.sg.batch());
        let Some(i) = self.tape.len().checked_sub(1) else {
            let n0 = graph.input_len();
            let BlindedInput(x0_bytes) = ch.recv_frame()?;
            if x0_bytes.len() != n0 * batch * ring.byte_len() {
                return Err(ProtocolError::Malformed("blinded input length"));
            }
            self.tape.push(Matrix::new(n0, batch, ring.decode_slice(&x0_bytes)));
            return Ok(());
        };
        let op = graph.ops.get(i).ok_or(ProtocolError::Dimension("graph missing output op"))?;
        let next = match self.flight.take() {
            Some(Flight::Opened(opened)) => {
                let product = opened.combine(ch, &self.bundle.mats[self.matmuls], ring, 0)?;
                self.matmuls += 1;
                let lowering = self.sg.lowering(i, self.exec.variant)?;
                lowering.server(ch, &mut self.yao, &[product.as_slice()], ring, batch)?
            }
            Some(Flight::Op(next)) => next.step(ch, &mut self.yao, ring)?,
            None if self.done => return Ok(()),
            None => {
                ch.mark_phase(&format!("online:op{i}/{}", op.kind()));
                match op.resource() {
                    OpResource::Triplet { m, n } => {
                        // `W·X + b + U`: the product, then the bias (over
                        // the columns) and the triplet share in one pass.
                        let (w, bias) = model.linear_params(self.linears, m, n)?;
                        let x = linear_input(op, &self.tape[op.sources(i)[0]]);
                        let u = &self.bundle.us[self.linears];
                        self.linears += 1;
                        let (mut y, o) = (w.mul(&x, &ring), u.cols());
                        let rows =
                            y.as_mut_slice().chunks_exact_mut(o).zip(u.as_slice().chunks_exact(o));
                        for ((y_row, u_row), &b) in rows.zip(bias) {
                            for (y, &u) in y_row.iter_mut().zip(u_row) {
                                *y = ring.add(ring.add(*y, b), u);
                            }
                        }
                        self.tape.push(y);
                        return Ok(());
                    }
                    OpResource::Output => {
                        self.done = true;
                        return Ok(());
                    }
                    OpResource::MatTriple { m, k, n } => {
                        let (a, b) = matmul_operands(op, i, (m, k, n), &self.tape);
                        let triple = self.bundle.mats.get(self.matmuls).ok_or(MISFIT)?;
                        let opened = open_matrix_shares(ch, triple, &a, &b, ring)?;
                        self.flight = Some(Flight::Opened(opened));
                        return Ok(());
                    }
                    OpResource::FreshMask { .. } => {
                        let shares = reshare_sources(op, i, &self.tape);
                        let lowering = self.sg.lowering(i, self.exec.variant)?;
                        lowering.server(ch, &mut self.yao, &shares, ring, batch)?
                    }
                }
            }
        };
        match next {
            ServerOp::Done(z0) => self.tape.push(Matrix::new(op.out_len(), batch, z0)),
            next => self.flight = Some(Flight::Op(next)),
        }
        Ok(())
    }

    /// The evaluator and the server's share of the output op's input.
    ///
    /// # Panics
    ///
    /// Panics unless the walk is [`done`](Self::done).
    pub(crate) fn finish(mut self) -> (YaoEvaluator, Matrix) {
        assert!(self.done, "online walk finished before the output op");
        (self.yao, self.tape.pop().expect("the output op's input slot"))
    }
}

/// Online phase, client half: blinds the input with the offline mask,
/// walks the graph supplying its half of each re-sharing circuit, and
/// returns the garbler plus the client's share of the output op's input
/// (the final linear op's `V`).
///
/// # Errors
///
/// [`ProtocolError::Dimension`] if `x` does not match the graph's input
/// shape; [`ProtocolError::Malformed`] if the offline state does not fit
/// the graph; any subprotocol error otherwise.
pub fn client_online_to_logits<T: Transport, R: Rng + ?Sized>(
    ch: &mut T,
    state: ClientOffline,
    sg: &SecureGraph,
    exec: ExecConfig,
    x: &Matrix,
    rng: &mut R,
) -> Result<(YaoGarbler, Matrix), ProtocolError> {
    let ClientOffline { mut yao, bundle: ClientBundle { rs, vs, mats, batch } } = state;
    let config = &sg.graph().config;
    let ring = config.ring;
    if batch != sg.batch() {
        return Err(ProtocolError::Malformed("offline state batch mismatch"));
    }
    check_shapes(&rs, &sg.mask_shapes())?;
    check_shapes(&vs, &sg.triplet_shapes())?;
    check_mat_shapes(&mats, &sg.matmul_plans())?;
    if x.rows() != sg.graph().input_len() || x.cols() != batch {
        return Err(ProtocolError::Dimension("input dimension mismatch"));
    }

    ch.mark_phase("online:input");
    let x0 = x.sub(&rs[0], &ring);
    ch.send_frame(&BlindedInput(ring.encode_slice(x0.as_slice())))?;

    // The client's share of every slot was fixed offline: the walk only
    // picks it — the input mask, then `V` or the fresh mask per op.
    let (mut rs, mut vs, mut mats) = (rs.iter(), vs.iter(), mats.iter());
    let mut tape: Vec<&Matrix> = Vec::with_capacity(sg.graph().ops.len() + 1);
    tape.push(rs.next().expect("mask shapes were checked"));
    for (i, op) in sg.graph().ops.iter().enumerate() {
        ch.mark_phase(&format!("online:op{i}/{}", op.kind()));
        let out = match op.resource() {
            OpResource::Triplet { .. } => vs.next().expect("triplet shapes were checked"),
            OpResource::Output => return Ok((yao, tape[i].clone())),
            resource @ (OpResource::MatTriple { .. } | OpResource::FreshMask { .. }) => {
                let shares = if let OpResource::MatTriple { m, k, n } = resource {
                    let (a, b) = matmul_operands(op, i, (m, k, n), &tape);
                    let triple = mats.next().ok_or(MISFIT)?;
                    vec![Cow::Owned(mul_matrix_shares(ch, triple, &a, &b, ring, 1)?.into_vec())]
                } else {
                    reshare_sources(op, i, &tape).into_iter().map(Cow::Borrowed).collect()
                };
                let lowering = sg.lowering(i, exec.variant)?;
                let z1 = rs.next().expect("mask shapes were checked");
                lowering.client(ch, &mut yao, &shares, z1.as_slice(), ring, batch, rng)?;
                z1
            }
        };
        tape.push(out);
    }
    Err(ProtocolError::Dimension("graph missing output op"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_math::FragmentScheme;

    impl SecureGraph {
        /// What op `i`'s slot for `variant` holds so far, without lowering
        /// it (for the tests of other modules too).
        pub(crate) fn lowered(&self, i: usize, variant: ReluVariant) -> Option<&Lowering> {
            self.lowered.0[i][Lowering::slot(&self.graph.ops[i], variant)].get()?.as_ref()
        }
    }

    fn config() -> QuantConfig {
        QuantConfig {
            ring: Ring::new(32),
            frac_bits: 8,
            weight_frac_bits: 2,
            scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
        }
    }

    #[test]
    fn mlp_plan_follows_the_batch_rule() {
        let g = LayerGraph::mlp(&[12, 8, 6, 4], config());
        let sg = SecureGraph::new(g, 3).unwrap();
        let plan = sg.plan();
        assert_eq!(plan.len(), 3);
        assert_eq!((plan[0].m, plan[0].n, plan[0].o), (8, 12, 3));
        assert!(plan.iter().all(|p| p.mode == TripletMode::MultiBatch));
        let sg1 = SecureGraph::new(sg.graph().clone(), 1).unwrap();
        assert!(sg1.plan().iter().all(|p| p.mode == TripletMode::OneBatch));
        assert_eq!(sg1.mask_shapes(), vec![(12, 1), (8, 1), (6, 1)]);
        assert_eq!(sg1.triplet_shapes(), vec![(8, 1), (6, 1), (4, 1)]);
    }

    #[test]
    fn cnn_plan_uses_positions_as_batch() {
        let in_shape = abnn2_nn::ConvShape { channels: 1, height: 8, width: 8 };
        let g = LayerGraph::cnn(in_shape, 2, (3, 3, 1), 2, &[18, 6, 4], config());
        let sg = SecureGraph::new(g, 1).unwrap();
        let plan = sg.plan();
        assert_eq!(plan.len(), 3);
        // conv: 2 filters over 1·3·3 patches at 6×6 = 36 positions.
        assert_eq!((plan[0].m, plan[0].n, plan[0].o), (2, 9, 36));
        assert_eq!(plan[0].mode, TripletMode::MultiBatch);
        assert_eq!(plan[0].kind, "conv");
        assert_eq!((plan[1].o, plan[1].mode), (1, TripletMode::OneBatch));
        // masks: input image, conv-relu map, pooled map, dense-relu vector.
        assert_eq!(sg.mask_shapes(), vec![(64, 1), (72, 1), (18, 1), (6, 1)]);
        assert_eq!(sg.triplet_shapes(), vec![(2, 36), (6, 1), (4, 1)]);
    }

    #[test]
    fn spatial_graphs_reject_multi_sample_batches() {
        let in_shape = abnn2_nn::ConvShape { channels: 1, height: 8, width: 8 };
        let g = LayerGraph::cnn(in_shape, 2, (3, 3, 1), 2, &[18, 4], config());
        assert!(matches!(SecureGraph::new(g, 2), Err(ProtocolError::Dimension(_))));
        let g = LayerGraph::mlp(&[12, 4], config());
        assert!(SecureGraph::new(g, 2).is_ok());
    }

    #[test]
    fn oversized_relu_shift_is_a_typed_error_not_a_session_panic() {
        // Hand-built graph: nothing but `validate` stands between this
        // config and `circuits::sar_word`'s shift assertion.
        let mut cfg = config();
        cfg.weight_frac_bits = cfg.ring.bits();
        let g = LayerGraph::mlp(&[12, 8, 4], cfg);
        assert_eq!(
            PublicModel::from(g).secure_graph(1).err(),
            Some(ProtocolError::Dimension("relu shift does not fit the ring"))
        );
    }
}
