//! Quantized BERT-style transformer encoder (single block + classifier).
//!
//! The plaintext twin of the secure transformer pipeline: one self-attention
//! block with a single head, a GELU feed-forward block, per-token LayerNorm
//! with residuals, and a classifier head over the flattened sequence.
//! [`QuantizedTransformer::forward_exact`] is a generic tape interpreter
//! over the [`LayerGraph`] op list, evaluating every op with the
//! `abnn2_math::fixedops` reference operators — the same bit-level
//! algorithms the garbled circuits implement — so secure inference must
//! reproduce its output share-for-share, exactly as with
//! [`crate::QuantizedNetwork`].
//!
//! Weight layout: the projections `Wq/Wk/Wv/Wo` and the feed-forward
//! `W1/W2` are *per-token* matrices applied independently to each of the
//! `seq` tokens; the graph's `Linear` ops see their block-diagonal
//! expansion over the flattened `seq·d` activation vector
//! ([`QuantizedTransformer::linear_params`]). The head `Wh` reads the whole
//! flattened sequence.

use crate::graph::{GraphError, LayerGraph, LayerOp};
use crate::quant::{QuantConfig, QuantizedDense};
use abnn2_math::fixedops;
use rand::Rng;

/// A quantized single-block transformer encoder with classifier head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedTransformer {
    /// Pipeline hyper-parameters.
    pub config: QuantConfig,
    /// Sequence length (tokens).
    pub seq: usize,
    /// Model width per token (power of two).
    pub d: usize,
    /// Feed-forward hidden width per token.
    pub d_ff: usize,
    /// Classifier output classes.
    pub n_classes: usize,
    /// Per-token Q/K/V/O projections (`d × d` each).
    pub wq: QuantizedDense,
    /// Key projection.
    pub wk: QuantizedDense,
    /// Value projection.
    pub wv: QuantizedDense,
    /// Attention output projection.
    pub wo: QuantizedDense,
    /// Feed-forward up projection (`d_ff × d`).
    pub w1: QuantizedDense,
    /// Feed-forward down projection (`d × d_ff`).
    pub w2: QuantizedDense,
    /// Classifier head (`n_classes × seq·d`).
    pub wh: QuantizedDense,
    graph: LayerGraph,
}

/// Expands a per-token `m × n` layer to its block-diagonal `seq·m × seq·n`
/// form over the flattened sequence, repeating the bias per token.
fn expand_block_diag(per_tok: &QuantizedDense, seq: usize) -> QuantizedDense {
    let (m, n) = (per_tok.out_dim, per_tok.in_dim);
    let mut weights = vec![0i64; (seq * m) * (seq * n)];
    let mut bias = Vec::with_capacity(seq * m);
    for t in 0..seq {
        for i in 0..m {
            let row = t * m + i;
            weights[row * seq * n + t * n..row * seq * n + (t + 1) * n]
                .copy_from_slice(per_tok.row(i));
        }
        bias.extend_from_slice(&per_tok.bias);
    }
    QuantizedDense { out_dim: seq * m, in_dim: seq * n, weights, bias }
}

impl QuantizedTransformer {
    /// Samples a random model: weights uniform in the scheme domain,
    /// per-token biases small values at `f + f_w` fractional bits.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] for degenerate dimensions (see
    /// [`LayerGraph::transformer`]).
    pub fn random<R: Rng>(
        seq: usize,
        d: usize,
        d_ff: usize,
        n_classes: usize,
        config: QuantConfig,
        rng: &mut R,
    ) -> Result<Self, GraphError> {
        let graph = LayerGraph::transformer(seq, d, d_ff, n_classes, config.clone())?;
        let (lo, hi) = config.scheme.weight_range();
        let bcodec = config.output_codec();
        let mut dense = |out_dim: usize, in_dim: usize| QuantizedDense {
            out_dim,
            in_dim,
            weights: (0..out_dim * in_dim)
                .map(|_| config.scheme.clamp(rng.gen_range(lo..=hi)))
                .collect(),
            bias: (0..out_dim).map(|_| bcodec.encode(rng.gen_range(-0.25..0.25))).collect(),
        };
        let (wq, wk, wv, wo) = (dense(d, d), dense(d, d), dense(d, d), dense(d, d));
        let (w1, w2) = (dense(d_ff, d), dense(d, d_ff));
        let wh = dense(n_classes, seq * d);
        Ok(QuantizedTransformer {
            config,
            seq,
            d,
            d_ff,
            n_classes,
            wq,
            wk,
            wv,
            wo,
            w1,
            w2,
            wh,
            graph,
        })
    }

    /// The validated layer graph this model lowers to.
    #[must_use]
    pub fn graph(&self) -> &LayerGraph {
        &self.graph
    }

    /// The expanded weight matrix for the `li`-th `Linear` op of the graph
    /// (order: Wq, Wk, Wv, Wo, W1, W2, head). Per-token matrices come back
    /// block-diagonally expanded over the sequence; the head is returned
    /// as-is.
    ///
    /// # Panics
    ///
    /// Panics if `li >= 7`.
    #[must_use]
    pub fn linear_params(&self, li: usize) -> QuantizedDense {
        match li {
            0 => expand_block_diag(&self.wq, self.seq),
            1 => expand_block_diag(&self.wk, self.seq),
            2 => expand_block_diag(&self.wv, self.seq),
            3 => expand_block_diag(&self.wo, self.seq),
            4 => expand_block_diag(&self.w1, self.seq),
            5 => expand_block_diag(&self.w2, self.seq),
            6 => self.wh.clone(),
            _ => panic!("transformer has 7 linear ops, asked for {li}"),
        }
    }

    /// Total number of weights across the expanded linear ops (OT-count
    /// driver, mirroring [`crate::QuantizedNetwork::weight_count`]).
    #[must_use]
    pub fn weight_count(&self) -> usize {
        (0..7).map(|li| self.linear_params(li).weights.len()).sum()
    }

    /// The bit-exact fixed-point forward pass: a tape interpreter over the
    /// graph, one `fixedops` reference evaluation per op. Input:
    /// `seq·d` activations at `f` fractional bits; output: head
    /// accumulators at `f + f_w` fractional bits.
    ///
    /// # Panics
    ///
    /// Panics if the input length mismatches `seq·d`.
    #[must_use]
    pub fn forward_exact(&self, x_fp: &[u64]) -> Vec<u64> {
        assert_eq!(x_fp.len(), self.seq * self.d, "input length mismatch");
        let ring = self.config.ring;
        let f = self.config.frac_bits;
        let mut tape: Vec<Vec<u64>> = vec![x_fp.to_vec()];
        let mut li = 0usize;
        for (i, op) in self.graph.ops.iter().enumerate() {
            let out = match *op {
                LayerOp::Linear { src, .. } => {
                    let layer = self.linear_params(li);
                    li += 1;
                    layer.forward_ring(&tape[src], ring)
                }
                LayerOp::MatMulSS { m, k, n, transpose_b, shift, a_src, b_src } => {
                    let (a, b) = (&tape[a_src], &tape[b_src]);
                    let mut out = Vec::with_capacity(m * n);
                    for r in 0..m {
                        for c in 0..n {
                            let mut acc = 0u64;
                            for t in 0..k {
                                let bv = if transpose_b { b[c * k + t] } else { b[t * n + c] };
                                acc = acc.wrapping_add(a[r * k + t].wrapping_mul(bv));
                            }
                            out.push(fixedops::sar(&ring, ring.reduce(acc), shift));
                        }
                    }
                    out
                }
                LayerOp::Softmax { rows, cols, shift } => {
                    let src = &tape[i];
                    let mut out = Vec::with_capacity(rows * cols);
                    for r in 0..rows {
                        let row: Vec<u64> = src[r * cols..(r + 1) * cols]
                            .iter()
                            .map(|&v| fixedops::sar(&ring, v, shift))
                            .collect();
                        out.extend(fixedops::softmax_row(&ring, f, &row));
                    }
                    out
                }
                LayerOp::Gelu { shift, .. } => tape[i]
                    .iter()
                    .map(|&v| fixedops::gelu(&ring, f, fixedops::sar(&ring, v, shift)))
                    .collect(),
                LayerOp::LayerNorm { tokens, dim, a_src, b_src, shift_a, shift_b } => {
                    let (a, b) = (&tape[a_src], &tape[b_src]);
                    let mut out = Vec::with_capacity(tokens * dim);
                    for t in 0..tokens {
                        out.extend(fixedops::layernorm_token(
                            &ring,
                            f,
                            &a[t * dim..(t + 1) * dim],
                            &b[t * dim..(t + 1) * dim],
                            shift_a,
                            shift_b,
                        ));
                    }
                    out
                }
                LayerOp::Output { .. } => tape[i].clone(),
                ref other => unreachable!("transformer graphs do not emit {}", other.kind()),
            };
            tape.push(out);
        }
        tape.pop().unwrap_or_default()
    }

    /// Float-in/float-out convenience around [`Self::forward_exact`].
    #[must_use]
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let in_codec = self.config.activation_codec();
        let out_codec = self.config.output_codec();
        out_codec.decode_vec(&self.forward_exact(&in_codec.encode_vec(x)))
    }
}

impl From<&QuantizedTransformer> for LayerGraph {
    fn from(t: &QuantizedTransformer) -> Self {
        t.graph.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_math::{FragmentScheme, Ring};
    use rand::{rngs::StdRng, SeedableRng};

    fn config() -> QuantConfig {
        QuantConfig {
            ring: Ring::new(16),
            frac_bits: 6,
            weight_frac_bits: 2,
            scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
        }
    }

    fn tiny(seed: u64) -> QuantizedTransformer {
        let mut rng = StdRng::seed_from_u64(seed);
        QuantizedTransformer::random(4, 4, 8, 3, config(), &mut rng).expect("valid dims")
    }

    #[test]
    fn graph_matches_constructor() {
        let t = tiny(1);
        let g = LayerGraph::transformer(4, 4, 8, 3, config()).expect("valid dims");
        assert_eq!(LayerGraph::from(&t), g);
        assert_eq!(t.graph().linear_count(), 7);
    }

    #[test]
    fn block_diag_expansion_shapes_and_content() {
        let t = tiny(2);
        let wq = t.linear_params(0);
        assert_eq!((wq.out_dim, wq.in_dim), (16, 16));
        // Row 0 holds wq row 0 in cols 0..4, zeros elsewhere; token 1's
        // block starts at (4, 4).
        assert_eq!(&wq.row(0)[..4], t.wq.row(0));
        assert!(wq.row(0)[4..].iter().all(|&w| w == 0));
        assert_eq!(&wq.row(4)[4..8], t.wq.row(0));
        assert_eq!(wq.bias[4], t.wq.bias[0]);
        let head = t.linear_params(6);
        assert_eq!((head.out_dim, head.in_dim), (3, 16));
    }

    #[test]
    fn forward_exact_is_deterministic_and_wrapped() {
        let t = tiny(3);
        let mut rng = StdRng::seed_from_u64(7);
        let codec = t.config.activation_codec();
        let x: Vec<u64> = (0..16).map(|_| codec.encode(rng.gen_range(-1.0..1.0))).collect();
        let a = t.forward_exact(&x);
        let b = t.forward_exact(&x);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|&v| v <= t.config.ring.mask()));
    }

    #[test]
    fn weights_stay_in_scheme_domain() {
        let t = tiny(4);
        let (lo, hi) = t.config.scheme.weight_range();
        for li in 0..7 {
            let l = t.linear_params(li);
            assert!(l.weights.iter().all(|&w| (lo..=hi).contains(&w)));
        }
        // 4 block-diag d×d projections, W1 (32×16), W2 (16×32), head (3×16).
        assert_eq!(t.weight_count(), 4 * 16 * 16 + 32 * 16 + 16 * 32 + 3 * 16);
    }

    #[test]
    fn eta_sweep_runs_end_to_end() {
        for eta in [2u32, 3, 4, 8] {
            let cfg = QuantConfig {
                ring: Ring::new(16),
                frac_bits: 6,
                weight_frac_bits: 2,
                scheme: FragmentScheme::optimal(eta),
            };
            let mut rng = StdRng::seed_from_u64(9);
            let t = QuantizedTransformer::random(4, 4, 8, 3, cfg, &mut rng).expect("valid");
            let logits = t.forward(&[0.25; 16]);
            assert_eq!(logits.len(), 3);
        }
    }
}
