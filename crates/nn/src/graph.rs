//! Layer-graph descriptor: the topology-neutral IR behind secure inference.
//!
//! All served topologies — the paper's fully-connected stack
//! ([`QuantizedNetwork`]), the CNN extension ([`QuantizedCnn`]) and the
//! transformer-encoder extension (`QuantizedTransformer`) — lower to the
//! same sequence of typed ops. An op kind is defined here along three axes
//! that the planner and executors consume *generically* instead of
//! matching on op names:
//!
//! * [`LayerOp::sources`] — which tape slots an op reads (the executor is a
//!   tape machine: slot 0 is the graph input, slot `i + 1` is op `i`'s
//!   output; legacy ops implicitly read the previous slot, attention-style
//!   ops carry explicit source indices for fan-out and residuals),
//! * [`LayerOp::resource`] — which offline precomputation the op consumes
//!   (a dot-product triplet, a matrix Beaver triple, a fresh re-sharing
//!   mask, or nothing),
//! * [`LayerOp::describe`] — the canonical digest fragment.
//!
//! The descriptor carries dimensions only — never weights — so it is safe
//! to derive on the client side from a public model description and to
//! feed into handshake/bundle digests.
//!
//! The secure planner and executor over this IR live in
//! `abnn2-core::graph`; this module owns only the shape. Their walks branch
//! on [`OpResource`] and read inputs through [`LayerOp::sources`], so a new
//! op kind is its arms in this module plus — if it re-shares — one arm in
//! `abnn2-core::nonlinear`'s lowering, the only function that turns an op
//! into a circuit.

use crate::conv::{conv_out_dims, ConvShape, QuantizedCnn};
use crate::quant::{QuantConfig, QuantizedNetwork};

/// Typed error for graph construction and validation. Replaces the old
/// panicking `expect("non-empty dims")` construction paths so a degenerate
/// model description surfaces as an error instead of panicking a serving
/// worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A model constructor was given no layers / empty dimensions.
    EmptyModel(&'static str),
    /// Structural validation failure (static description of the first
    /// violation).
    Invalid(&'static str),
}

impl GraphError {
    /// The static description of the violation, without the kind prefix —
    /// for callers that wrap the error in their own typed variant.
    #[must_use]
    pub fn message(&self) -> &'static str {
        match self {
            GraphError::EmptyModel(msg) | GraphError::Invalid(msg) => msg,
        }
    }
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::EmptyModel(msg) => write!(f, "empty model: {msg}"),
            GraphError::Invalid(msg) => write!(f, "invalid graph: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Which offline precomputation an op consumes. The planner, the offline
/// and online walks of both parties, the dealer and the
/// communication-ceiling accounting all branch on this classification
/// instead of on concrete op variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpResource {
    /// A §4.1 dot-product triplet for public-weight matrices of shape
    /// `m × n` (rows × cols).
    Triplet {
        /// Weight rows.
        m: usize,
        /// Weight cols.
        n: usize,
    },
    /// A matrix Beaver triple `(X, Y, Z = X·Y)` for a secret×secret
    /// product of shape `(m × k) · (k × n)`.
    MatTriple {
        /// Left rows.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Right cols.
        n: usize,
    },
    /// A fresh client mask of `len` elements (re-sharing nonlinearity).
    FreshMask {
        /// Mask length per sample.
        len: usize,
    },
    /// Terminal op; consumes nothing.
    Output,
}

/// One typed node of the inference pipeline. Ops form a sequence evaluated
/// on a tape: slot 0 holds the graph input and slot `i + 1` holds op `i`'s
/// output. Legacy ops consume the previous slot; ops with explicit source
/// fields (`Linear`, `MatMulSS`, `LayerNorm`) may read any earlier slot,
/// which is what expresses attention fan-out and residual connections in a
/// straight-line op list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerOp {
    /// Fully-connected layer `W·x + b`, `out_dim × in_dim`.
    Dense {
        /// Output rows.
        out_dim: usize,
        /// Input rows.
        in_dim: usize,
    },
    /// Convolution lowered to a matrix product through im2col: weights are
    /// `out_channels × (channels·kh·kw)`, the input column matrix has one
    /// column per output position.
    Conv {
        /// Filter count.
        out_channels: usize,
        /// Input feature-map shape.
        in_shape: ConvShape,
        /// Kernel height.
        kh: usize,
        /// Kernel width.
        kw: usize,
        /// Stride.
        stride: usize,
    },
    /// Truncate by the weight fraction bits, then ReLU; re-shares its
    /// output under a fresh client mask.
    Relu {
        /// Elements per sample.
        dim: usize,
    },
    /// Non-overlapping `window × window` max-pool over a CHW map;
    /// re-shares each window maximum under a fresh client mask.
    MaxPool {
        /// Input feature-map shape.
        shape: ConvShape,
        /// Pooling window.
        window: usize,
    },
    /// Fully-connected layer with an explicit source tape slot — the
    /// tape-aware sibling of [`LayerOp::Dense`], used by topologies with
    /// fan-out (e.g. the Q/K/V projections all reading the same input).
    Linear {
        /// Output rows.
        out_dim: usize,
        /// Input rows.
        in_dim: usize,
        /// Tape slot of the input.
        src: usize,
    },
    /// Secret×secret matrix product `(m × k) · (k × n)` backed by a matrix
    /// Beaver triple, followed by an exact in-circuit truncation by
    /// `shift` and a re-share under a fresh client mask. With
    /// `transpose_b` the right operand is stored `n × k` and multiplied
    /// transposed (the attention `Q·Kᵀ` shape).
    MatMulSS {
        /// Left rows.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Right cols.
        n: usize,
        /// Multiply against `Bᵀ` (B stored `n × k`).
        transpose_b: bool,
        /// Arithmetic right shift applied to the reconstructed product.
        shift: u32,
        /// Tape slot of the left operand (`m·k` elements).
        a_src: usize,
        /// Tape slot of the right operand (`k·n` elements).
        b_src: usize,
    },
    /// Row-wise fixed-point softmax over a `rows × cols` matrix (GC
    /// lowering: max-subtract, polynomial exp, non-restoring division);
    /// re-shares under a fresh client mask.
    Softmax {
        /// Matrix rows (softmax is per row).
        rows: usize,
        /// Matrix cols.
        cols: usize,
        /// Arithmetic right shift applied before the softmax.
        shift: u32,
    },
    /// Fixed-point GELU (hard-sigmoid approximation) after an arithmetic
    /// right shift by `shift`; re-shares under a fresh client mask.
    Gelu {
        /// Elements per sample.
        dim: usize,
        /// Arithmetic right shift applied before the GELU.
        shift: u32,
    },
    /// Per-token fixed-point LayerNorm over `tokens` tokens of `dim`
    /// values (`dim` a power of two), with a residual add folded in:
    /// `x = (a ≫ₐ shift_a) + (b ≫ₐ shift_b)` element-wise before
    /// normalizing. Re-shares under a fresh client mask.
    LayerNorm {
        /// Token count.
        tokens: usize,
        /// Values per token (power of two).
        dim: usize,
        /// Tape slot of the primary operand.
        a_src: usize,
        /// Tape slot of the residual operand.
        b_src: usize,
        /// Shift applied to the primary operand.
        shift_a: u32,
        /// Shift applied to the residual operand.
        shift_b: u32,
    },
    /// Terminal op: the server opens its share of the final linear layer
    /// toward the client. Executors terminate here by construction.
    Output {
        /// Elements per sample.
        dim: usize,
    },
}

impl LayerOp {
    /// Elements consumed per sample (from the primary source slot).
    #[must_use]
    pub fn in_len(&self) -> usize {
        match *self {
            LayerOp::Dense { in_dim, .. } | LayerOp::Linear { in_dim, .. } => in_dim,
            LayerOp::Conv { in_shape, .. } => in_shape.len(),
            LayerOp::Relu { dim } | LayerOp::Output { dim } => dim,
            LayerOp::Gelu { dim, .. } => dim,
            LayerOp::MaxPool { shape, .. } => shape.len(),
            LayerOp::MatMulSS { m, k, .. } => m * k,
            LayerOp::Softmax { rows, cols, .. } => rows * cols,
            LayerOp::LayerNorm { tokens, dim, .. } => tokens * dim,
        }
    }

    /// Elements produced per sample.
    #[must_use]
    pub fn out_len(&self) -> usize {
        match *self {
            LayerOp::Dense { out_dim, .. } | LayerOp::Linear { out_dim, .. } => out_dim,
            LayerOp::Conv { out_channels, in_shape, kh, kw, stride } => {
                let (oh, ow) = conv_out_dims(in_shape, kh, kw, stride);
                out_channels * oh * ow
            }
            LayerOp::Relu { dim } | LayerOp::Output { dim } => dim,
            LayerOp::Gelu { dim, .. } => dim,
            LayerOp::MaxPool { shape, window } => ConvShape {
                channels: shape.channels,
                height: shape.height / window,
                width: shape.width / window,
            }
            .len(),
            LayerOp::MatMulSS { m, n, .. } => m * n,
            LayerOp::Softmax { rows, cols, .. } => rows * cols,
            LayerOp::LayerNorm { tokens, dim, .. } => tokens * dim,
        }
    }

    /// Tape slots this op reads, given its own position `idx` in the op
    /// sequence (slot `idx` holds the previous op's output). Legacy ops
    /// read `[idx]`; tape-aware ops return their explicit sources.
    #[must_use]
    pub fn sources(&self, idx: usize) -> Vec<usize> {
        match *self {
            LayerOp::Linear { src, .. } => vec![src],
            LayerOp::MatMulSS { a_src, b_src, .. } => vec![a_src, b_src],
            LayerOp::LayerNorm { a_src, b_src, .. } => vec![a_src, b_src],
            _ => vec![idx],
        }
    }

    /// Which offline precomputation this op consumes.
    #[must_use]
    pub fn resource(&self) -> OpResource {
        match *self {
            LayerOp::Dense { out_dim, in_dim } | LayerOp::Linear { out_dim, in_dim, .. } => {
                OpResource::Triplet { m: out_dim, n: in_dim }
            }
            LayerOp::Conv { out_channels, in_shape, kh, kw, .. } => {
                OpResource::Triplet { m: out_channels, n: in_shape.channels * kh * kw }
            }
            LayerOp::MatMulSS { m, k, n, .. } => OpResource::MatTriple { m, k, n },
            LayerOp::Relu { .. }
            | LayerOp::MaxPool { .. }
            | LayerOp::Softmax { .. }
            | LayerOp::Gelu { .. }
            | LayerOp::LayerNorm { .. } => OpResource::FreshMask { len: self.out_len() },
            LayerOp::Output { .. } => OpResource::Output,
        }
    }

    /// Whether this op consumes an offline dot-product triplet.
    #[must_use]
    pub fn is_linear(&self) -> bool {
        matches!(self.resource(), OpResource::Triplet { .. })
    }

    /// Whether this op re-shares its output under a fresh client mask.
    /// `MatMulSS` counts: its open-and-combine ends in a
    /// reconstruct-truncate-reshare circuit so the client's share of the
    /// output is (as for every op) known offline.
    #[must_use]
    pub fn is_reshare(&self) -> bool {
        matches!(self.resource(), OpResource::FreshMask { .. } | OpResource::MatTriple { .. })
    }

    /// Whether this op is tied to a spatial (CHW) layout and therefore to
    /// single-sample execution.
    #[must_use]
    pub fn is_spatial(&self) -> bool {
        matches!(self, LayerOp::Conv { .. } | LayerOp::MaxPool { .. })
    }

    /// Whether this op belongs to the tape-aware extended family
    /// (transformer ops), which also pins execution to single-sample
    /// batches.
    #[must_use]
    pub fn is_extended(&self) -> bool {
        matches!(
            self,
            LayerOp::Linear { .. }
                | LayerOp::MatMulSS { .. }
                | LayerOp::Softmax { .. }
                | LayerOp::Gelu { .. }
                | LayerOp::LayerNorm { .. }
        )
    }

    /// Short kind tag used in per-op instrumentation phase labels.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            LayerOp::Dense { .. } => "dense",
            LayerOp::Conv { .. } => "conv",
            LayerOp::Relu { .. } => "relu",
            LayerOp::MaxPool { .. } => "pool",
            LayerOp::Linear { .. } => "linear",
            LayerOp::MatMulSS { .. } => "matmulss",
            LayerOp::Softmax { .. } => "softmax",
            LayerOp::Gelu { .. } => "gelu",
            LayerOp::LayerNorm { .. } => "layernorm",
            LayerOp::Output { .. } => "output",
        }
    }

    /// Canonical description fragment (feeds handshake/bundle digests).
    #[must_use]
    pub fn describe(&self) -> String {
        match *self {
            LayerOp::Dense { out_dim, in_dim } => format!("dense({out_dim}x{in_dim})"),
            LayerOp::Conv { out_channels, in_shape, kh, kw, stride } => format!(
                "conv({out_channels}@{kh}x{kw}/{stride}:{}x{}x{})",
                in_shape.channels, in_shape.height, in_shape.width
            ),
            LayerOp::Relu { dim } => format!("relu({dim})"),
            LayerOp::MaxPool { shape, window } => {
                format!("pool({window}:{}x{}x{})", shape.channels, shape.height, shape.width)
            }
            LayerOp::Linear { out_dim, in_dim, src } => {
                format!("linear({out_dim}x{in_dim}@{src})")
            }
            LayerOp::MatMulSS { m, k, n, transpose_b, shift, a_src, b_src } => {
                let t = if transpose_b { "t" } else { "" };
                format!("matmulss({m}x{k}x{n}{t}>>{shift}@{a_src},{b_src})")
            }
            LayerOp::Softmax { rows, cols, shift } => {
                format!("softmax({rows}x{cols}>>{shift})")
            }
            LayerOp::Gelu { dim, shift } => format!("gelu({dim}>>{shift})"),
            LayerOp::LayerNorm { tokens, dim, a_src, b_src, shift_a, shift_b } => {
                format!("ln({tokens}x{dim}>>{shift_a},{shift_b}@{a_src},{b_src})")
            }
            LayerOp::Output { dim } => format!("out({dim})"),
        }
    }
}

/// A straight-line graph of [`LayerOp`]s plus the fixed-point
/// hyper-parameters the pipeline runs under. Construct via
/// [`LayerGraph::mlp`], [`LayerGraph::cnn`], [`LayerGraph::transformer`],
/// or the `From` impls on the quantized model types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerGraph {
    /// Fixed-point pipeline hyper-parameters.
    pub config: QuantConfig,
    /// The op sequence, ending in [`LayerOp::Output`].
    pub ops: Vec<LayerOp>,
}

impl LayerGraph {
    /// The paper's fully-connected pipeline: `dense → relu → … → dense →
    /// output` over `dims = [in, hidden…, out]`.
    ///
    /// # Errors
    ///
    /// [`GraphError::EmptyModel`] if `dims` has fewer than two entries.
    pub fn try_mlp(dims: &[usize], config: QuantConfig) -> Result<Self, GraphError> {
        let [.., out] = dims else {
            return Err(GraphError::EmptyModel("an MLP needs at least one layer"));
        };
        if dims.len() < 2 {
            return Err(GraphError::EmptyModel("an MLP needs at least one layer"));
        }
        let mut ops = Vec::with_capacity(2 * (dims.len() - 1));
        for l in 0..dims.len() - 1 {
            ops.push(LayerOp::Dense { out_dim: dims[l + 1], in_dim: dims[l] });
            if l + 2 < dims.len() {
                ops.push(LayerOp::Relu { dim: dims[l + 1] });
            }
        }
        ops.push(LayerOp::Output { dim: *out });
        Ok(LayerGraph { config, ops })
    }

    /// Infallible [`LayerGraph::try_mlp`]: a degenerate `dims` yields an
    /// empty graph, which [`LayerGraph::validate`] rejects with a typed
    /// error downstream — construction itself never panics.
    #[must_use]
    pub fn mlp(dims: &[usize], config: QuantConfig) -> Self {
        Self::try_mlp(dims, config.clone()).unwrap_or(LayerGraph { config, ops: Vec::new() })
    }

    /// The CNN extension: `conv → relu → maxpool → dense stack → output`.
    /// `dense_dims` includes the flattened pool output as its first entry.
    ///
    /// # Errors
    ///
    /// [`GraphError::EmptyModel`] if `dense_dims` has fewer than two
    /// entries.
    pub fn try_cnn(
        in_shape: ConvShape,
        out_channels: usize,
        kernel: (usize, usize, usize),
        pool_window: usize,
        dense_dims: &[usize],
        config: QuantConfig,
    ) -> Result<Self, GraphError> {
        let [.., out] = dense_dims else {
            return Err(GraphError::EmptyModel("a CNN needs at least one dense layer"));
        };
        if dense_dims.len() < 2 {
            return Err(GraphError::EmptyModel("a CNN needs at least one dense layer"));
        }
        let (kh, kw, stride) = kernel;
        let (oh, ow) = conv_out_dims(in_shape, kh, kw, stride);
        let conv_out = ConvShape { channels: out_channels, height: oh, width: ow };
        let mut ops = vec![
            LayerOp::Conv { out_channels, in_shape, kh, kw, stride },
            LayerOp::Relu { dim: conv_out.len() },
            LayerOp::MaxPool { shape: conv_out, window: pool_window },
        ];
        for l in 0..dense_dims.len() - 1 {
            ops.push(LayerOp::Dense { out_dim: dense_dims[l + 1], in_dim: dense_dims[l] });
            if l + 2 < dense_dims.len() {
                ops.push(LayerOp::Relu { dim: dense_dims[l + 1] });
            }
        }
        ops.push(LayerOp::Output { dim: *out });
        Ok(LayerGraph { config, ops })
    }

    /// Infallible [`LayerGraph::try_cnn`]: degenerate dims yield an empty
    /// graph rejected by [`LayerGraph::validate`] — never a panic.
    #[must_use]
    pub fn cnn(
        in_shape: ConvShape,
        out_channels: usize,
        kernel: (usize, usize, usize),
        pool_window: usize,
        dense_dims: &[usize],
        config: QuantConfig,
    ) -> Self {
        Self::try_cnn(in_shape, out_channels, kernel, pool_window, dense_dims, config.clone())
            .unwrap_or(LayerGraph { config, ops: Vec::new() })
    }

    /// One pre-norm-free BERT-style encoder block plus a classifier head
    /// over `seq` tokens of model width `d` (`d` a power of two):
    ///
    /// ```text
    /// Q = Wq·x   K = Wk·x   V = Wv·x          (per-token projections)
    /// S = softmax((Q·Kᵀ) / √d)                (MatMulSS + Softmax)
    /// A = Wo·(S·V)                            (MatMulSS + projection)
    /// h = LayerNorm(A + x)                    (residual folded in)
    /// y = LayerNorm(W2·gelu(W1·h) + h)        (feed-forward block)
    /// logits = Wh·y                           (classifier head)
    /// ```
    ///
    /// All truncation happens exactly inside the re-sharing circuits; the
    /// `1/√d` attention scaling folds into the first `MatMulSS` shift
    /// (`h = log₂(d)/2` extra shift bits).
    ///
    /// # Errors
    ///
    /// [`GraphError::EmptyModel`] for zero dimensions,
    /// [`GraphError::Invalid`] if `d` is not a power of two or the shifts
    /// do not fit the ring.
    pub fn transformer(
        seq: usize,
        d: usize,
        d_ff: usize,
        n_classes: usize,
        config: QuantConfig,
    ) -> Result<Self, GraphError> {
        if seq == 0 || d == 0 || d_ff == 0 || n_classes == 0 {
            return Err(GraphError::EmptyModel("transformer dims must be positive"));
        }
        if !d.is_power_of_two() {
            return Err(GraphError::Invalid("model width d must be a power of two"));
        }
        let f = config.frac_bits;
        let fw = config.weight_frac_bits;
        let h = d.trailing_zeros() / 2; // 1/√d as shift bits
        let score_shift = f + 2 * fw + h;
        if score_shift >= config.ring.bits() {
            return Err(GraphError::Invalid("attention shift does not fit the ring"));
        }
        let dm = seq * d;
        let dff = seq * d_ff;
        let ops = vec![
            // 0..=2: Q/K/V projections, all reading the input (slot 0).
            LayerOp::Linear { out_dim: dm, in_dim: dm, src: 0 },
            LayerOp::Linear { out_dim: dm, in_dim: dm, src: 0 },
            LayerOp::Linear { out_dim: dm, in_dim: dm, src: 0 },
            // 3: scores = (Q·Kᵀ) >> (f + 2fw + h), at f fraction bits.
            LayerOp::MatMulSS {
                m: seq,
                k: d,
                n: seq,
                transpose_b: true,
                shift: score_shift,
                a_src: 1,
                b_src: 2,
            },
            // 4: row softmax over the seq×seq score matrix.
            LayerOp::Softmax { rows: seq, cols: seq, shift: 0 },
            // 5: attention = (probs·V) >> (f + fw), back to f fraction bits.
            LayerOp::MatMulSS {
                m: seq,
                k: seq,
                n: d,
                transpose_b: false,
                shift: f + fw,
                a_src: 5,
                b_src: 3,
            },
            // 6: output projection Wo.
            LayerOp::Linear { out_dim: dm, in_dim: dm, src: 6 },
            // 7: LayerNorm(Wo-out >> fw + residual x).
            LayerOp::LayerNorm { tokens: seq, dim: d, a_src: 7, b_src: 0, shift_a: fw, shift_b: 0 },
            // 8..=10: feed-forward W1 → gelu → W2.
            LayerOp::Linear { out_dim: dff, in_dim: dm, src: 8 },
            LayerOp::Gelu { dim: dff, shift: fw },
            LayerOp::Linear { out_dim: dm, in_dim: dff, src: 10 },
            // 11: LayerNorm(W2-out >> fw + residual h).
            LayerOp::LayerNorm {
                tokens: seq,
                dim: d,
                a_src: 11,
                b_src: 8,
                shift_a: fw,
                shift_b: 0,
            },
            // 12: classifier head over the flattened sequence.
            LayerOp::Linear { out_dim: n_classes, in_dim: dm, src: 12 },
            LayerOp::Output { dim: n_classes },
        ];
        let graph = LayerGraph { config, ops };
        graph.validate()?;
        Ok(graph)
    }

    /// Elements per input sample.
    #[must_use]
    pub fn input_len(&self) -> usize {
        self.ops.first().map_or(0, LayerOp::in_len)
    }

    /// Elements per output sample.
    #[must_use]
    pub fn output_len(&self) -> usize {
        self.ops.last().map_or(0, LayerOp::out_len)
    }

    /// Number of triplet-consuming (linear) ops.
    #[must_use]
    pub fn linear_count(&self) -> usize {
        self.ops.iter().filter(|op| op.is_linear()).count()
    }

    /// Number of secret×secret matmul ops (matrix-Beaver consumers).
    #[must_use]
    pub fn matmul_count(&self) -> usize {
        self.ops.iter().filter(|op| matches!(op, LayerOp::MatMulSS { .. })).count()
    }

    /// Number of client masks the pipeline consumes: one for the input
    /// blinding plus one per re-sharing op.
    #[must_use]
    pub fn mask_count(&self) -> usize {
        1 + self.ops.iter().filter(|op| op.is_reshare()).count()
    }

    /// Whether the graph contains spatially-laid-out ops (conv/max-pool),
    /// which pin execution to batch size 1.
    #[must_use]
    pub fn has_spatial_ops(&self) -> bool {
        self.ops.iter().any(LayerOp::is_spatial)
    }

    /// Whether the graph contains tape-aware extended ops (transformer
    /// family), which also pin execution to batch size 1.
    #[must_use]
    pub fn has_extended_ops(&self) -> bool {
        self.ops.iter().any(LayerOp::is_extended)
    }

    /// Checks structural well-formedness: non-empty, every op's sources
    /// refer to already-produced tape slots with matching lengths, exactly
    /// one [`LayerOp::Output`] and it comes last, shifts fit the ring.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError::Invalid`] describing the first violation.
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.ops.is_empty() {
            return Err(GraphError::Invalid("graph has no ops"));
        }
        let bits = self.config.ring.bits();
        // tape[0] = input; tape[i + 1] = output of op i.
        let mut tape: Vec<usize> = vec![self.ops[0].in_len()];
        for (i, op) in self.ops.iter().enumerate() {
            let terminal = matches!(op, LayerOp::Output { .. });
            if terminal != (i == self.ops.len() - 1) {
                return Err(GraphError::Invalid("output op must be exactly the last op"));
            }
            for &s in &op.sources(i) {
                if s >= tape.len() {
                    return Err(GraphError::Invalid("op source refers to a later tape slot"));
                }
            }
            match *op {
                LayerOp::Linear { in_dim, src, .. } => {
                    if tape[src] != in_dim {
                        return Err(GraphError::Invalid(
                            "linear input length does not match its source slot",
                        ));
                    }
                }
                LayerOp::MatMulSS { m, k, n, shift, a_src, b_src, .. } => {
                    if tape[a_src] != m * k || tape[b_src] != k * n {
                        return Err(GraphError::Invalid(
                            "matmul operand length does not match its source slot",
                        ));
                    }
                    if shift >= bits {
                        return Err(GraphError::Invalid("matmul shift does not fit the ring"));
                    }
                }
                LayerOp::Softmax { rows, cols, shift } => {
                    if tape[i] != rows * cols {
                        return Err(GraphError::Invalid(
                            "softmax input length does not match predecessor output",
                        ));
                    }
                    if shift >= bits {
                        return Err(GraphError::Invalid("softmax shift does not fit the ring"));
                    }
                }
                LayerOp::Gelu { shift, .. } => {
                    if tape[i] != op.in_len() {
                        return Err(GraphError::Invalid(
                            "op input length does not match predecessor output",
                        ));
                    }
                    if shift >= bits {
                        return Err(GraphError::Invalid("gelu shift does not fit the ring"));
                    }
                }
                LayerOp::LayerNorm { tokens, dim, a_src, b_src, shift_a, shift_b } => {
                    if tape[a_src] != tokens * dim || tape[b_src] != tokens * dim {
                        return Err(GraphError::Invalid(
                            "layernorm operand length does not match its source slot",
                        ));
                    }
                    if !dim.is_power_of_two() {
                        return Err(GraphError::Invalid("layernorm width must be a power of two"));
                    }
                    if shift_a >= bits || shift_b >= bits {
                        return Err(GraphError::Invalid("layernorm shift does not fit the ring"));
                    }
                }
                LayerOp::MaxPool { shape, window } => {
                    if tape[i] != op.in_len() {
                        return Err(GraphError::Invalid(
                            "op input length does not match predecessor output",
                        ));
                    }
                    if window == 0 || shape.height % window != 0 || shape.width % window != 0 {
                        return Err(GraphError::Invalid("pool window must evenly divide the map"));
                    }
                }
                _ => {
                    if tape[i] != op.in_len() {
                        return Err(GraphError::Invalid(
                            "op input length does not match predecessor output",
                        ));
                    }
                    // ReLU truncates in-circuit by the weight fraction bits.
                    if matches!(op, LayerOp::Relu { .. }) && self.config.weight_frac_bits >= bits {
                        return Err(GraphError::Invalid("relu shift does not fit the ring"));
                    }
                }
            }
            tape.push(op.out_len());
        }
        Ok(())
    }

    /// Canonical architecture string (op descriptions joined with `>`);
    /// the digest input shared by the handshake and bundle keys.
    #[must_use]
    pub fn describe(&self) -> String {
        self.ops.iter().map(LayerOp::describe).collect::<Vec<_>>().join(">")
    }
}

impl From<&QuantizedNetwork> for LayerGraph {
    fn from(net: &QuantizedNetwork) -> Self {
        LayerGraph::mlp(&net.dims(), net.config.clone())
    }
}

impl From<&QuantizedCnn> for LayerGraph {
    fn from(net: &QuantizedCnn) -> Self {
        let Some(first) = net.dense.first() else {
            return LayerGraph { config: net.config.clone(), ops: Vec::new() };
        };
        let mut dense_dims = vec![first.in_dim];
        dense_dims.extend(net.dense.iter().map(|l| l.out_dim));
        LayerGraph::cnn(
            net.conv.in_shape,
            net.conv.out_channels,
            (net.conv.kh, net.conv.kw, net.conv.stride),
            net.pool_window,
            &dense_dims,
            net.config.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_math::{FragmentScheme, Ring};

    fn config() -> QuantConfig {
        QuantConfig {
            ring: Ring::new(32),
            frac_bits: 8,
            weight_frac_bits: 2,
            scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
        }
    }

    #[test]
    fn mlp_graph_shape() {
        let g = LayerGraph::mlp(&[12, 8, 6, 4], config());
        assert_eq!(g.ops.len(), 6); // 3 dense + 2 relu + output
        assert!(g.validate().is_ok());
        assert_eq!(g.input_len(), 12);
        assert_eq!(g.output_len(), 4);
        assert_eq!(g.linear_count(), 3);
        assert_eq!(g.mask_count(), 3);
        assert!(!g.has_spatial_ops());
        assert!(!g.has_extended_ops());
        assert_eq!(g.describe(), "dense(8x12)>relu(8)>dense(6x8)>relu(6)>dense(4x6)>out(4)");
    }

    #[test]
    fn cnn_graph_shape() {
        let in_shape = ConvShape { channels: 1, height: 8, width: 8 };
        let g = LayerGraph::cnn(in_shape, 2, (3, 3, 1), 2, &[18, 6, 4], config());
        // conv, relu, pool, dense, relu, dense, output
        assert_eq!(g.ops.len(), 7);
        assert!(g.validate().is_ok());
        assert_eq!(g.input_len(), 64);
        assert_eq!(g.output_len(), 4);
        assert_eq!(g.linear_count(), 3);
        assert_eq!(g.mask_count(), 4); // input + conv-relu + pool + dense-relu
        assert!(g.has_spatial_ops());
        // conv out 2×6×6 = 72 feeds relu; pool 2 halves each spatial dim.
        assert_eq!(g.ops[1], LayerOp::Relu { dim: 72 });
        assert_eq!(g.ops[2].out_len(), 18);
    }

    #[test]
    fn transformer_graph_shape() {
        let cfg = QuantConfig {
            ring: Ring::new(16),
            frac_bits: 6,
            weight_frac_bits: 2,
            scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
        };
        let g = LayerGraph::transformer(4, 4, 8, 3, cfg).expect("valid transformer");
        assert_eq!(g.ops.len(), 14);
        assert!(g.validate().is_ok());
        assert_eq!(g.input_len(), 16);
        assert_eq!(g.output_len(), 3);
        assert_eq!(g.linear_count(), 7); // Wq Wk Wv Wo W1 W2 head
        assert_eq!(g.matmul_count(), 2);
        // input + 2 matmul + softmax + gelu + 2 layernorm = 7 masks
        assert_eq!(g.mask_count(), 7);
        assert!(g.has_extended_ops());
        assert!(!g.has_spatial_ops());
        // Score shift folds 1/√d: f + 2fw + log2(4)/2 = 6 + 4 + 1.
        assert!(g.describe().contains("matmulss(4x4x4t>>11@1,2)"));
    }

    #[test]
    fn empty_models_yield_typed_errors_not_panics() {
        assert_eq!(
            LayerGraph::try_mlp(&[], config()),
            Err(GraphError::EmptyModel("an MLP needs at least one layer"))
        );
        assert_eq!(
            LayerGraph::try_mlp(&[7], config()),
            Err(GraphError::EmptyModel("an MLP needs at least one layer"))
        );
        // The infallible constructor degrades to an empty graph that
        // validation rejects with a typed error.
        let g = LayerGraph::mlp(&[], config());
        assert_eq!(g.validate(), Err(GraphError::Invalid("graph has no ops")));
        let in_shape = ConvShape { channels: 1, height: 8, width: 8 };
        assert!(matches!(
            LayerGraph::try_cnn(in_shape, 2, (3, 3, 1), 2, &[], config()),
            Err(GraphError::EmptyModel(_))
        ));
        assert!(matches!(
            LayerGraph::transformer(0, 4, 8, 3, config()),
            Err(GraphError::EmptyModel(_))
        ));
        assert!(matches!(
            LayerGraph::transformer(4, 3, 8, 3, config()),
            Err(GraphError::Invalid(_))
        ));
    }

    #[test]
    fn mismatched_dims_fail_validation() {
        let mut g = LayerGraph::mlp(&[12, 8, 4], config());
        g.ops[1] = LayerOp::Relu { dim: 7 };
        assert!(g.validate().is_err());
        let mut g2 = LayerGraph::mlp(&[12, 8, 4], config());
        g2.ops.pop();
        assert_eq!(
            g2.validate(),
            Err(GraphError::Invalid("output op must be exactly the last op"))
        );
    }

    #[test]
    fn relu_shift_must_fit_the_ring() {
        let mut cfg = config();
        cfg.weight_frac_bits = cfg.ring.bits();
        let g = LayerGraph::mlp(&[12, 8, 4], cfg.clone());
        assert_eq!(g.validate(), Err(GraphError::Invalid("relu shift does not fit the ring")));
        // Without a ReLU nothing shifts by the weight fraction bits.
        assert!(LayerGraph::mlp(&[12, 4], cfg).validate().is_ok());
    }

    #[test]
    fn forward_source_references_fail_validation() {
        let cfg = QuantConfig {
            ring: Ring::new(16),
            frac_bits: 6,
            weight_frac_bits: 2,
            scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
        };
        let mut g = LayerGraph::transformer(4, 4, 8, 3, cfg).expect("valid transformer");
        // Point the first projection at a slot that does not exist yet.
        g.ops[0] = LayerOp::Linear { out_dim: 16, in_dim: 16, src: 9 };
        assert_eq!(g.validate(), Err(GraphError::Invalid("op source refers to a later tape slot")));
    }

    #[test]
    fn describe_distinguishes_topologies() {
        let a = LayerGraph::mlp(&[12, 8, 4], config());
        let b = LayerGraph::mlp(&[12, 6, 4], config());
        assert_ne!(a.describe(), b.describe());
    }
}
