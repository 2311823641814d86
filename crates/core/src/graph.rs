//! Secure planner and executor over the [`LayerGraph`] IR.
//!
//! The paper describes one protocol pipeline — OT-based dot-product
//! triplets offline (§4.1), share-and-reconstruct non-linear layers online
//! (§4.2) — and both served topologies run it. This module is the single
//! implementation: [`SecureGraph`] pins a validated graph to a batch size,
//! the **planner** ([`SecureGraph::plan`]) emits one [`TripletPlan`] per
//! linear op (dimensions, batch `o`, message-layout mode), and the
//! **executor** halves ([`server_offline_with`] / [`server_online_to_logits`]
//! and [`client_offline_with`] / [`client_online_to_logits`]) walk the same
//! op sequence consuming planned state. `SecureServer`/`SecureClient`
//! drive these functions for every topology.
//!
//! The executor's state invariant, per party:
//!
//! * the server walks with its additive share of the current activation —
//!   after a linear op it holds `W·x⁰ + b + U`, after a re-share op the
//!   garbled circuit's output share;
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
use crate::matbeaver::{generate_matrix_p0, generate_matrix_p1, mul_matrix_shares, MatrixTriple};
use crate::matmul::{triplet_client_with, TripletMode, TripletWalk};
use crate::nonlinear::Lowering;
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
use abnn2_ot::{FragmentChooser, FragmentSender, IknpReceiver, IknpSender};
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
/// once at construction. Conv filters are stored as the
/// `out_channels × (channels·kh·kw)` matrix im2col multiplies against;
/// the transformer's per-token projections are expanded block-diagonally.
#[derive(Debug, Clone)]
pub struct ServedModel {
    pub(crate) public: PublicModel,
    linears: Vec<QuantizedDense>,
}

impl From<QuantizedNetwork> for ServedModel {
    fn from(net: QuantizedNetwork) -> Self {
        ServedModel { public: PublicModel::from(&net), linears: net.layers }
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
        ServedModel { public, linears: std::iter::once(filters).chain(net.dense).collect() }
    }
}

impl From<QuantizedTransformer> for ServedModel {
    fn from(model: QuantizedTransformer) -> Self {
        let linears = (0..model.graph().linear_count()).map(|li| model.linear_params(li)).collect();
        ServedModel { public: PublicModel::from(&model), linears }
    }
}

impl ServedModel {
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

    /// Weights and bias of the `index`-th linear op, in graph order
    /// (row-major `m × n` weights, one bias entry per output row).
    pub(crate) fn linear_params(&self, index: usize) -> (&[i64], &[u64]) {
        let l = &self.linears[index];
        (&l.weights, &l.bias)
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
            // Interactive matrix-triple generation: m·n·k scalar Gilboa
            // products at ℓ correlated OTs each. The client's IKNP column
            // matrices (16 bytes per OT), corrections (one ring element per
            // OT) and base-OT setup stay under 64 bytes per OT.
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

/// `W·X + b + U` — the server's online share of any linear op. `weights`
/// is row-major `m × n`, `bias` has one entry per output row (broadcast
/// over the `o` input columns).
///
/// # Panics
///
/// Panics if `weights`, `bias`, `x` or `u` disagree with `m × n` and
/// `x.cols()`.
#[must_use]
pub fn linear_share(
    weights: &[i64],
    bias: &[u64],
    m: usize,
    n: usize,
    x: &Matrix,
    u: &Matrix,
    ring: Ring,
) -> Matrix {
    assert_eq!(weights.len(), m * n, "weight shape mismatch");
    assert_eq!(bias.len(), m, "bias shape mismatch");
    assert_eq!(x.rows(), n, "input rows mismatch");
    assert_eq!((u.rows(), u.cols()), (m, x.cols()), "triplet share shape mismatch");
    let o = x.cols();
    let mut y = Matrix::zeros(m, o);
    for i in 0..m {
        let row = &weights[i * n..(i + 1) * n];
        for k in 0..o {
            let mut acc = ring.add(bias[i], u.get(i, k));
            for (j, &w) in row.iter().enumerate() {
                acc = acc.wrapping_add(x.get(j, k).wrapping_mul(w as u64));
            }
            y.set(i, k, ring.reduce(acc));
        }
    }
    y
}

/// `W·R` over the ring — the right-hand side of the triplet relation,
/// shared by the dealer ([`crate::bundle::dealer_bundle_for`]) and tests.
#[must_use]
pub fn weight_product(weights: &[i64], m: usize, n: usize, r: &Matrix, ring: Ring) -> Matrix {
    assert_eq!(weights.len(), m * n, "weight shape mismatch");
    assert_eq!(r.rows(), n, "randomness rows mismatch");
    let o = r.cols();
    let mut wr = Matrix::zeros(m, o);
    for i in 0..m {
        let row = &weights[i * n..(i + 1) * n];
        for k in 0..o {
            let mut acc = 0u64;
            for (j, &w) in row.iter().enumerate() {
                acc = acc.wrapping_add(r.get(j, k).wrapping_mul(w as u64));
            }
            wr.set(i, k, ring.reduce(acc));
        }
    }
    wr
}

fn check_shapes(
    matrices: &[Matrix],
    shapes: &[(usize, usize)],
    what: &'static str,
) -> Result<(), ProtocolError> {
    if matrices.len() != shapes.len()
        || matrices.iter().zip(shapes).any(|(m, &(r, c))| m.rows() != r || m.cols() != c)
    {
        return Err(ProtocolError::Malformed(what));
    }
    Ok(())
}

fn check_mat_shapes(mats: &[MatrixTriple], plans: &[MatmulPlan]) -> Result<(), ProtocolError> {
    if mats.len() != plans.len() || mats.iter().zip(plans).any(|(t, p)| !t.fits(p.m, p.k, p.n)) {
        return Err(ProtocolError::Malformed("offline state does not fit the graph"));
    }
    Ok(())
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

/// The shares entering op `i`'s re-sharing circuit: its source slots as
/// they are, or — for a secret×secret matmul — this party's share of the
/// untruncated product, after the matrix-Beaver open-and-combine over the
/// next triple of `mats`. With `transpose_b` the right operand is stored
/// `n × k`; transposition is linear, so each party transposes its share
/// locally and the triple never sees the storage layout.
fn reshare_inputs<'a, T: Transport, M: Borrow<Matrix>>(
    ch: &mut T,
    op: &LayerOp,
    i: usize,
    tape: &'a [M],
    mats: &mut std::slice::Iter<'_, MatrixTriple>,
    ring: Ring,
    party: u8,
) -> Result<Vec<Cow<'a, [u64]>>, ProtocolError> {
    let slot = |s: usize| Borrow::<Matrix>::borrow(&tape[s]).as_slice();
    let src = op.sources(i);
    let OpResource::MatTriple { m, k, n } = op.resource() else {
        return Ok(src.iter().map(|&s| Cow::Borrowed(slot(s))).collect());
    };
    let a = Matrix::new(m, k, slot(src[0]).to_vec());
    let b = if matches!(op, LayerOp::MatMulSS { transpose_b: true, .. }) {
        Matrix::new(n, k, slot(src[1]).to_vec()).transpose()
    } else {
        Matrix::new(k, n, slot(src[1]).to_vec())
    };
    let triple =
        mats.next().ok_or(ProtocolError::Malformed("offline state does not fit the graph"))?;
    let product = mul_matrix_shares(ch, triple, &a, &b, ring, party)?;
    Ok(vec![Cow::Owned(product.into_vec())])
}

/// Offline phase, server half: the loop over `ServerOfflineWalk::step`.
/// One §4.1 triplet per linear op and one matrix Beaver triple per
/// secret×secret matmul op, extending the lineage's fragment chooser, which
/// comes back advanced beside the bundle (the Yao half is not this phase's
/// business). The Gilboa cross
/// products behind matrix triples run over a dedicated IKNP pair, set up
/// lazily at the first matmul op — graphs without matmul ops (MLP/CNN)
/// send exactly the same bytes as before the extension.
///
/// # Errors
///
/// Returns [`ProtocolError`] on any subprotocol failure.
pub fn server_offline_with<T: Transport, R: Rng + ?Sized>(
    ch: &mut T,
    kk: FragmentChooser,
    model: &ServedModel,
    sg: &SecureGraph,
    exec: ExecConfig,
    rng: &mut R,
) -> Result<(ServerBundle, FragmentChooser), ProtocolError> {
    let mut walk = ServerOfflineWalk::new(kk, sg.clone(), exec);
    while !walk.done() {
        walk.step(ch, model, rng)?;
    }
    Ok(walk.finish())
}

/// The server's offline phase as a resumable walk: the fragment chooser,
/// the position in the op sequence and everything generated so far —
/// nothing of Yao, which this phase never touches. [`step`](Self::step) runs
/// one unit — one [`TripletWalk`] step of a linear op, or one matrix
/// triple — so the server waits on the client at most once per call
/// (matrix triples and silent refills aside, only at its start). Blocking
/// callers loop on it ([`server_offline_with`]); the session driver steps
/// a copy and keeps it only if the step did not starve, which is why the
/// walk is `Clone` and holds the model by parameter, not by reference.
#[derive(Debug, Clone)]
pub(crate) struct ServerOfflineWalk {
    sg: SecureGraph,
    exec: ExecConfig,
    plans: Arc<[TripletPlan]>,
    /// The half of the session the triplets extend, copied with the walk.
    kk: FragmentChooser,
    /// The IKNP pair behind matrix triples, set up at the first matmul op.
    ots: Option<(IknpReceiver, IknpSender)>,
    us: Vec<Matrix>,
    mats: Vec<MatrixTriple>,
    /// Index of the op the next unit belongs to.
    next: usize,
    /// The linear op in progress, between its fragment groups.
    triplet: Option<TripletWalk>,
}

impl ServerOfflineWalk {
    pub(crate) fn new(kk: FragmentChooser, sg: SecureGraph, exec: ExecConfig) -> Self {
        let mut walk = ServerOfflineWalk {
            plans: sg.plan().into(),
            us: Vec::with_capacity(sg.graph().linear_count()),
            mats: Vec::with_capacity(sg.graph().matmul_count()),
            sg,
            exec,
            kk,
            ots: None,
            next: 0,
            triplet: None,
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
        self.next == self.sg.graph().ops.len()
    }

    /// Runs the next unit; a no-op once [`done`](Self::done). `rng` feeds
    /// the matrix-triple shares and their IKNP setup only.
    pub(crate) fn step<T: Transport, R: Rng + ?Sized>(
        &mut self,
        ch: &mut T,
        model: &ServedModel,
        rng: &mut R,
    ) -> Result<(), ProtocolError> {
        let i = self.next;
        let Some(op) = self.sg.graph().ops.get(i) else { return Ok(()) };
        let config = &self.sg.graph().config;
        match op.resource() {
            OpResource::Triplet { m, n } => {
                let triplet = match &mut self.triplet {
                    Some(triplet) => triplet,
                    slot @ None => {
                        let plan = &self.plans[self.us.len()];
                        let (weights, _) = model.linear_params(plan.linear);
                        if weights.len() != m * n {
                            return Err(ProtocolError::Dimension("model does not match graph"));
                        }
                        ch.mark_phase(&format!("offline:op{i}/{}", plan.kind));
                        let cfg = self.exec.triplet(plan.mode);
                        slot.insert(TripletWalk::new(
                            weights,
                            plan.m,
                            plan.n,
                            plan.o,
                            &config.scheme,
                            config.ring,
                            cfg,
                        )?)
                    }
                };
                let Some(u) = triplet.step(ch, &mut self.kk)? else { return Ok(()) };
                self.us.push(u);
                self.triplet = None;
            }
            OpResource::MatTriple { m, k, n } => {
                ch.mark_phase(&format!("offline:op{i}/{}", op.kind()));
                let pair = match &mut self.ots {
                    Some(pair) => pair,
                    slot @ None => {
                        let r = IknpReceiver::setup(ch, rng)?;
                        let s = IknpSender::setup(ch, rng)?;
                        slot.insert((r, s))
                    }
                };
                let ring = config.ring;
                self.mats.push(generate_matrix_p0(
                    ch,
                    &mut pair.0,
                    &mut pair.1,
                    m,
                    k,
                    n,
                    ring,
                    rng,
                )?);
            }
            OpResource::FreshMask { .. } | OpResource::Output => {}
        }
        self.next += 1;
        self.skip_idle_ops();
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
    /// Mirror of the server's lazily set-up IKNP pair (sender first).
    ots: Option<(IknpSender, IknpReceiver)>,
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
        let pair = match &mut self.ots {
            Some(pair) => pair,
            slot @ None => {
                let s = IknpSender::setup(self.ch, rng)?;
                let r = IknpReceiver::setup(self.ch, rng)?;
                slot.insert((s, r))
            }
        };
        generate_matrix_p1(
            self.ch,
            &mut pair.0,
            &mut pair.1,
            plan.m,
            plan.k,
            plan.n,
            self.ring,
            rng,
        )
    }
}

/// Offline phase, client half: `client_offline_walk` over the interactive
/// protocols — the input mask, one fresh mask per re-sharing op, one §4.1
/// triplet per linear op, and one matrix Beaver triple per secret×secret
/// matmul op — extending the lineage's fragment sender in place.
///
/// # Errors
///
/// Returns [`ProtocolError`] on any subprotocol failure.
pub fn client_offline_with<T: Transport, R: Rng + ?Sized>(
    ch: &mut T,
    kk: &mut FragmentSender,
    sg: &SecureGraph,
    exec: ExecConfig,
    rng: &mut R,
) -> Result<ClientBundle, ProtocolError> {
    let config = &sg.graph().config;
    let mut source =
        Interactive { ch, kk, ots: None, scheme: config.scheme.clone(), ring: config.ring, exec };
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
    let mut walk = ServerOnlineWalk::new(state, sg.clone(), exec)?;
    while !walk.done() {
        walk.step(ch, model)?;
    }
    Ok(walk.finish())
}

/// The server's online phase as a resumable walk over the tape machine.
/// [`step`](Self::step) runs one unit: the blinded input, then one tape op
/// — a local [`linear_share`], or a re-share op's opening and circuit,
/// which is where the server waits. The walk is `Clone` for the same
/// reason as [`ServerOfflineWalk`]; a copy shares the offline bundle and
/// the model's circuits, and duplicates only the evaluator and the tape.
#[derive(Debug, Clone)]
pub(crate) struct ServerOnlineWalk {
    sg: SecureGraph,
    exec: ExecConfig,
    bundle: Arc<ServerBundle>,
    /// The Yao party the re-share ops run, copied with the walk.
    yao: YaoEvaluator,
    /// The server's share of every slot computed so far; empty until the
    /// blinded input has arrived.
    tape: Vec<Matrix>,
    /// Triplet shares and matrix triples consumed so far.
    linears: usize,
    matmuls: usize,
    done: bool,
}

impl ServerOnlineWalk {
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] if the offline state does not fit the
    /// graph.
    pub(crate) fn new(
        state: ServerOffline,
        sg: SecureGraph,
        exec: ExecConfig,
    ) -> Result<Self, ProtocolError> {
        let ServerOffline { yao, bundle } = state;
        if bundle.batch != sg.batch() {
            return Err(ProtocolError::Malformed("offline state batch mismatch"));
        }
        check_shapes(&bundle.us, &sg.triplet_shapes(), "offline state does not fit the graph")?;
        check_mat_shapes(&bundle.mats, &sg.matmul_plans())?;
        Ok(ServerOnlineWalk {
            tape: Vec::with_capacity(sg.graph().ops.len() + 1),
            sg,
            exec,
            bundle,
            yao,
            linears: 0,
            matmuls: 0,
            done: false,
        })
    }

    /// Whether the walk has reached the output op.
    pub(crate) fn done(&self) -> bool {
        self.done
    }

    /// Runs the next unit; a no-op once [`done`](Self::done).
    pub(crate) fn step<T: Transport>(
        &mut self,
        ch: &mut T,
        model: &ServedModel,
    ) -> Result<(), ProtocolError> {
        let graph = self.sg.graph();
        let (config, batch) = (&graph.config, self.sg.batch());
        let ring = config.ring;
        let Some(i) = self.tape.len().checked_sub(1) else {
            ch.mark_phase("online:input");
            let n0 = graph.input_len();
            let BlindedInput(x0_bytes) = ch.recv_frame()?;
            if x0_bytes.len() != n0 * batch * ring.byte_len() {
                return Err(ProtocolError::Malformed("blinded input length"));
            }
            self.tape.push(Matrix::new(n0, batch, ring.decode_slice(&x0_bytes)));
            return Ok(());
        };
        if self.done {
            return Ok(());
        }
        let op = graph.ops.get(i).ok_or(ProtocolError::Dimension("graph missing output op"))?;
        ch.mark_phase(&format!("online:op{i}/{}", op.kind()));
        let out = match op.resource() {
            OpResource::Triplet { m, n } => {
                let (weights, bias) = model.linear_params(self.linears);
                let x = linear_input(op, &self.tape[op.sources(i)[0]]);
                let u = &self.bundle.us[self.linears];
                self.linears += 1;
                linear_share(weights, bias, m, n, &x, u, ring)
            }
            OpResource::Output => {
                self.done = true;
                return Ok(());
            }
            OpResource::MatTriple { .. } | OpResource::FreshMask { .. } => {
                let lowering = self.sg.lowering(i, self.exec.variant)?;
                let mut mats = self.bundle.mats[self.matmuls..].iter();
                let shares = reshare_inputs(ch, op, i, &self.tape, &mut mats, ring, 0)?;
                let z0 = lowering.server(ch, &mut self.yao, &shares, ring, batch)?;
                self.matmuls = self.bundle.mats.len() - mats.len();
                Matrix::new(op.out_len(), batch, z0)
            }
        };
        self.tape.push(out);
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
    check_shapes(&rs, &sg.mask_shapes(), "offline state does not fit the graph")?;
    check_shapes(&vs, &sg.triplet_shapes(), "offline state does not fit the graph")?;
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
            OpResource::MatTriple { .. } | OpResource::FreshMask { .. } => {
                let shares = reshare_inputs(ch, op, i, &tape, &mut mats, ring, 1)?;
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

    #[test]
    fn linear_share_and_weight_product_agree_with_triplet_relation() {
        let ring = Ring::new(32);
        let weights: Vec<i64> = vec![1, -2, 3, 0, 5, -1];
        let bias = vec![7u64, 11];
        let r = Matrix::new(3, 2, vec![1, 2, 3, 4, 5, 6]);
        let u = Matrix::new(2, 2, vec![9, 8, 7, 6]);
        let y = linear_share(&weights, &bias, 2, 3, &r, &u, ring);
        let wr = weight_product(&weights, 2, 3, &r, ring);
        for (i, &b) in bias.iter().enumerate() {
            for k in 0..2 {
                let expect = ring.add(ring.add(wr.get(i, k), b), u.get(i, k));
                assert_eq!(y.get(i, k), expect);
            }
        }
    }
}
