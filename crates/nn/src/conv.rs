//! Convolution and pooling layers (CNN extension).
//!
//! The paper evaluates fully-connected networks only, but its matrix-
//! multiplication protocol extends to convolutions for free via the
//! standard **im2col** lowering: `conv(W, x) = W_mat · im2col(x)`, and
//! im2col is a linear rearrangement, so each party can apply it *locally
//! to its share*. Max-pooling operates on shared values and needs a
//! garbled circuit (`abnn2_gc::circuits::max_pool_reshare_vec_circuit`);
//! the secure pipeline lives in `abnn2_core::cnn`.
//!
//! Data layout: channel-major (CHW) flattened vectors of ring elements.

use crate::QuantizedDense;
use abnn2_math::fixedops::sar;
use abnn2_math::{Matrix, Ring};

/// Shape of a CHW feature map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Channels.
    pub channels: usize,
    /// Height.
    pub height: usize,
    /// Width.
    pub width: usize,
}

impl ConvShape {
    /// Total element count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// True for degenerate shapes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Output spatial dimensions of a valid (no-padding) convolution.
#[must_use]
pub fn conv_out_dims(shape: ConvShape, kh: usize, kw: usize, stride: usize) -> (usize, usize) {
    assert!(stride > 0, "stride must be positive");
    assert!(shape.height >= kh && shape.width >= kw, "kernel larger than input");
    ((shape.height - kh) / stride + 1, (shape.width - kw) / stride + 1)
}

/// The im2col lowering: returns a `(channels·kh·kw) × (oh·ow)` matrix whose
/// column `p` is the receptive field of output position `p`.
///
/// Linear in the input, so `im2col(x₀ + x₁) = im2col(x₀) + im2col(x₁)` —
/// both parties apply it locally to their shares.
///
/// # Panics
///
/// Panics if `x.len() != shape.len()` or the kernel exceeds the input.
#[must_use]
pub fn im2col(x: &[u64], shape: ConvShape, kh: usize, kw: usize, stride: usize) -> Matrix {
    assert_eq!(x.len(), shape.len(), "input length mismatch");
    let (oh, ow) = conv_out_dims(shape, kh, kw, stride);
    let rows = shape.channels * kh * kw;
    let cols = oh * ow;
    let mut out = Matrix::zeros(rows, cols);
    for c in 0..shape.channels {
        for dy in 0..kh {
            for dx in 0..kw {
                let row = (c * kh + dy) * kw + dx;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = oy * stride + dy;
                        let ix = ox * stride + dx;
                        out.set(row, oy * ow + ox, x[(c * shape.height + iy) * shape.width + ix]);
                    }
                }
            }
        }
    }
    out
}

/// A quantized 2-D convolution layer (valid padding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedConv {
    /// Number of filters.
    pub out_channels: usize,
    /// Input feature-map shape.
    pub in_shape: ConvShape,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride.
    pub stride: usize,
    /// Row-major filter weights, `out_channels × (channels·kh·kw)`, in the
    /// scheme domain.
    pub weights: Vec<i64>,
    /// Per-filter bias encoded at `f + f_w` fractional bits.
    pub bias: Vec<u64>,
}

impl QuantizedConv {
    /// Columns of the lowered weight matrix.
    #[must_use]
    pub fn patch_len(&self) -> usize {
        self.in_shape.channels * self.kh * self.kw
    }

    /// Output shape.
    #[must_use]
    pub fn out_shape(&self) -> ConvShape {
        let (oh, ow) = conv_out_dims(self.in_shape, self.kh, self.kw, self.stride);
        ConvShape { channels: self.out_channels, height: oh, width: ow }
    }

    /// `W_mat · im2col(x) + b` over the ring; output is CHW-flattened with
    /// `f + f_w` fractional bits.
    ///
    /// # Panics
    ///
    /// Panics if the input length mismatches `in_shape`.
    #[must_use]
    pub fn forward_ring(&self, x: &[u64], ring: Ring) -> Vec<u64> {
        let cols = im2col(x, self.in_shape, self.kh, self.kw, self.stride);
        let p = cols.cols();
        let mut out = vec![0u64; self.out_channels * p];
        for oc in 0..self.out_channels {
            let row = &self.weights[oc * self.patch_len()..(oc + 1) * self.patch_len()];
            for pos in 0..p {
                let mut acc = self.bias[oc];
                for (j, &w) in row.iter().enumerate() {
                    acc = acc.wrapping_add(cols.get(j, pos).wrapping_mul(w as u64));
                }
                out[oc * p + pos] = ring.reduce(acc);
            }
        }
        out
    }
}

/// Plaintext max-pooling over non-overlapping `window×window` blocks
/// (signed comparison). Returns the pooled CHW vector and its shape.
///
/// # Panics
///
/// Panics if the spatial dimensions are not divisible by `window`.
#[must_use]
pub fn maxpool_ring(
    x: &[u64],
    shape: ConvShape,
    window: usize,
    ring: Ring,
) -> (Vec<u64>, ConvShape) {
    assert_eq!(x.len(), shape.len(), "input length mismatch");
    assert!(
        window > 0 && shape.height.is_multiple_of(window) && shape.width.is_multiple_of(window),
        "pool window must divide the spatial dims"
    );
    let (ph, pw) = (shape.height / window, shape.width / window);
    let mut out = Vec::with_capacity(shape.channels * ph * pw);
    for c in 0..shape.channels {
        for py in 0..ph {
            for px in 0..pw {
                let mut best = i64::MIN;
                for dy in 0..window {
                    for dx in 0..window {
                        let iy = py * window + dy;
                        let ix = px * window + dx;
                        best = best.max(ring.to_i64(x[(c * shape.height + iy) * shape.width + ix]));
                    }
                }
                out.push(ring.from_i64(best));
            }
        }
    }
    (out, ConvShape { channels: shape.channels, height: ph, width: pw })
}

/// Index lists of the pooling windows, in output order — shared by the
/// secure protocol so both parties pack circuit inputs identically.
///
/// # Panics
///
/// Panics if the spatial dimensions are not divisible by `window`.
#[must_use]
pub fn pool_windows(shape: ConvShape, window: usize) -> Vec<Vec<usize>> {
    assert!(
        window > 0 && shape.height.is_multiple_of(window) && shape.width.is_multiple_of(window),
        "pool window must divide the spatial dims"
    );
    let (ph, pw) = (shape.height / window, shape.width / window);
    let mut out = Vec::with_capacity(shape.channels * ph * pw);
    for c in 0..shape.channels {
        for py in 0..ph {
            for px in 0..pw {
                let mut idxs = Vec::with_capacity(window * window);
                for dy in 0..window {
                    for dx in 0..window {
                        let iy = py * window + dy;
                        let ix = px * window + dx;
                        idxs.push((c * shape.height + iy) * shape.width + ix);
                    }
                }
                out.push(idxs);
            }
        }
    }
    out
}

/// A small quantized CNN: conv → ReLU → max-pool → dense stack, sharing the
/// fixed-point semantics of [`crate::QuantizedNetwork`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedCnn {
    /// Fixed-point pipeline hyper-parameters.
    pub config: crate::QuantConfig,
    /// The convolution layer.
    pub conv: QuantizedConv,
    /// Pooling window (non-overlapping `window×window`).
    pub pool_window: usize,
    /// Dense layers; ReLU+truncation between them, none after the last.
    pub dense: Vec<QuantizedDense>,
}

impl QuantizedCnn {
    /// Bit-exact fixed-point forward pass (the secure pipeline's oracle):
    /// conv accumulators → truncate+ReLU → max-pool → dense stack; the last
    /// dense layer returns raw accumulators at `f + f_w` fractional bits.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    #[must_use]
    pub fn forward_exact(&self, x_fp: &[u64]) -> Vec<u64> {
        let ring = self.config.ring;
        let fw = self.config.weight_frac_bits;
        let acc = self.conv.forward_ring(x_fp, ring);
        let activated: Vec<u64> = acc
            .iter()
            .map(|&v| {
                let t = sar(&ring, v, fw);
                if ring.is_negative(t) {
                    0
                } else {
                    t
                }
            })
            .collect();
        let (pooled, pooled_shape) =
            maxpool_ring(&activated, self.conv.out_shape(), self.pool_window, ring);
        assert_eq!(pooled_shape.len(), self.dense[0].in_dim, "pool/dense shape mismatch");

        let mut a = pooled;
        let last = self.dense.len() - 1;
        for (i, layer) in self.dense.iter().enumerate() {
            let acc = layer.forward_ring(&a, ring);
            if i == last {
                return acc;
            }
            a = acc
                .iter()
                .map(|&v| {
                    let t = sar(&ring, v, fw);
                    if ring.is_negative(t) {
                        0
                    } else {
                        t
                    }
                })
                .collect();
        }
        unreachable!("loop returns at the last layer")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn shape_3x6x6() -> ConvShape {
        ConvShape { channels: 3, height: 6, width: 6 }
    }

    #[test]
    fn out_dims_basic() {
        assert_eq!(conv_out_dims(shape_3x6x6(), 3, 3, 1), (4, 4));
        assert_eq!(conv_out_dims(shape_3x6x6(), 2, 2, 2), (3, 3));
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1×1 kernel, stride 1: im2col is just a channel-row reshape.
        let shape = ConvShape { channels: 2, height: 2, width: 2 };
        let x: Vec<u64> = (0..8).collect();
        let cols = im2col(&x, shape, 1, 1, 1);
        assert_eq!(cols.rows(), 2);
        assert_eq!(cols.cols(), 4);
        assert_eq!(cols.row(0), &x[..4]);
        assert_eq!(cols.row(1), &x[4..]);
    }

    #[test]
    fn im2col_is_linear() {
        let ring = Ring::new(32);
        let shape = shape_3x6x6();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = ring.sample_vec(&mut rng, shape.len());
        let b = ring.sample_vec(&mut rng, shape.len());
        let sum = ring.add_vec(&a, &b);
        let lhs = im2col(&sum, shape, 3, 3, 1);
        let rhs = im2col(&a, shape, 3, 3, 1).add(&im2col(&b, shape, 3, 3, 1), &ring);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn conv_matches_direct_convolution() {
        let ring = Ring::new(32);
        let shape = ConvShape { channels: 1, height: 4, width: 4 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let x = ring.sample_vec(&mut rng, shape.len());
        let conv = QuantizedConv {
            out_channels: 1,
            in_shape: shape,
            kh: 2,
            kw: 2,
            stride: 1,
            weights: vec![1, -2, 3, -4],
            bias: vec![7],
        };
        let got = conv.forward_ring(&x, ring);
        // Direct sliding-window reference.
        for oy in 0..3 {
            for ox in 0..3 {
                let mut acc = 7u64;
                for (widx, (dy, dx)) in [(0, 0), (0, 1), (1, 0), (1, 1)].iter().enumerate() {
                    let v = x[(oy + dy) * 4 + (ox + dx)];
                    acc = acc.wrapping_add(v.wrapping_mul(conv.weights[widx] as u64));
                }
                assert_eq!(got[oy * 3 + ox], ring.reduce(acc), "pos ({oy},{ox})");
            }
        }
    }

    #[test]
    fn maxpool_known_values() {
        let ring = Ring::new(16);
        let shape = ConvShape { channels: 1, height: 2, width: 4 };
        let x = vec![
            ring.from_i64(5),
            ring.from_i64(-3),
            ring.from_i64(0),
            ring.from_i64(9),
            ring.from_i64(2),
            ring.from_i64(8),
            ring.from_i64(-1),
            ring.from_i64(-7),
        ];
        let (pooled, pshape) = maxpool_ring(&x, shape, 2, ring);
        assert_eq!(pshape, ConvShape { channels: 1, height: 1, width: 2 });
        assert_eq!(pooled, vec![ring.from_i64(8), ring.from_i64(9)]);
    }

    #[test]
    fn pool_windows_cover_all_indices_once() {
        let shape = shape_3x6x6();
        let windows = pool_windows(shape, 2);
        assert_eq!(windows.len(), 3 * 3 * 3);
        let mut seen = vec![false; shape.len()];
        for w in &windows {
            assert_eq!(w.len(), 4);
            for &i in w {
                assert!(!seen[i], "index {i} in two windows");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    #[should_panic(expected = "pool window must divide")]
    fn ragged_pool_rejected() {
        let shape = ConvShape { channels: 1, height: 5, width: 4 };
        let _ = pool_windows(shape, 2);
    }

    #[test]
    fn cnn_forward_is_deterministic_and_shaped() {
        let ring = Ring::new(32);
        let config = crate::QuantConfig::default_8bit();
        let in_shape = ConvShape { channels: 1, height: 8, width: 8 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let conv = QuantizedConv {
            out_channels: 2,
            in_shape,
            kh: 3,
            kw: 3,
            stride: 1,
            weights: (0..2 * 9).map(|_| rng.gen_range(-20i64..20)).collect(),
            bias: vec![0, 0],
        };
        // conv out 2×6×6 → pool 2 → 2×3×3 = 18 → dense 18→4.
        let dense = QuantizedDense {
            out_dim: 4,
            in_dim: 18,
            weights: (0..72).map(|_| rng.gen_range(-20i64..20)).collect(),
            bias: vec![0; 4],
        };
        let cnn = QuantizedCnn { config, conv, pool_window: 2, dense: vec![dense] };
        let x = ring.sample_vec(&mut rng, in_shape.len());
        let a = cnn.forward_exact(&x);
        assert_eq!(a.len(), 4);
        assert_eq!(a, cnn.forward_exact(&x));
    }
}
