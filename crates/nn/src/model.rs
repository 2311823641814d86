//! Float networks, SGD training, and the paper's Fig-4 architecture.

use crate::data::Sample;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Fig-4 workload: 784 → 128 → 128 → 10 fully-connected with ReLU
/// between layers (none after the last).
#[must_use]
pub fn paper_network_dims() -> Vec<usize> {
    vec![784, 128, 128, 10]
}

/// One dense (fully-connected) layer `y = Wx + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    /// Output dimension m.
    pub out_dim: usize,
    /// Input dimension n.
    pub in_dim: usize,
    /// Row-major weights, length `out_dim · in_dim`.
    pub weights: Vec<f64>,
    /// Bias, length `out_dim`.
    pub bias: Vec<f64>,
}

impl Dense {
    /// He-initialized layer.
    #[must_use]
    pub fn new(out_dim: usize, in_dim: usize, rng: &mut StdRng) -> Self {
        let scale = (2.0 / in_dim as f64).sqrt();
        Dense {
            out_dim,
            in_dim,
            weights: (0..out_dim * in_dim).map(|_| scale * gaussian(rng)).collect(),
            bias: vec![0.0; out_dim],
        }
    }

    /// `Wx + b`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    #[must_use]
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim, "input dimension mismatch");
        (0..self.out_dim)
            .map(|i| {
                let row = &self.weights[i * self.in_dim..(i + 1) * self.in_dim];
                row.iter().zip(x).map(|(w, xv)| w * xv).sum::<f64>() + self.bias[i]
            })
            .collect()
    }
}

/// A multilayer perceptron with ReLU activations between dense layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    /// Dense layers in order; ReLU is applied after every layer except the
    /// last.
    pub layers: Vec<Dense>,
}

impl Network {
    /// Builds a network with the given layer dimensions, e.g.
    /// `[784, 128, 128, 10]` for the paper's Fig-4 model.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dimensions are given.
    #[must_use]
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let mut rng = StdRng::seed_from_u64(seed);
        Network { layers: dims.windows(2).map(|w| Dense::new(w[1], w[0], &mut rng)).collect() }
    }

    /// Layer dimensions, `[in, hidden…, out]`.
    #[must_use]
    pub fn dims(&self) -> Vec<usize> {
        let mut d = vec![self.layers[0].in_dim];
        d.extend(self.layers.iter().map(|l| l.out_dim));
        d
    }

    /// Forward pass returning logits.
    #[must_use]
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut a = x.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            a = layer.forward(&a);
            if i + 1 < self.layers.len() {
                for v in &mut a {
                    *v = v.max(0.0);
                }
            }
        }
        a
    }

    /// Index of the largest logit.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> usize {
        argmax(&self.forward(x))
    }

    /// Fraction of correctly classified samples.
    #[must_use]
    pub fn accuracy(&self, samples: &[Sample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let correct = samples.iter().filter(|s| self.predict(&s.pixels) == s.label).count();
        correct as f64 / samples.len() as f64
    }

    /// One epoch of plain SGD with softmax cross-entropy loss. Returns the
    /// mean loss over the epoch.
    pub fn train_epoch(&mut self, samples: &[Sample], lr: f64) -> f64 {
        let mut total_loss = 0.0;
        for s in samples {
            total_loss += self.sgd_step(&s.pixels, s.label, lr);
        }
        total_loss / samples.len().max(1) as f64
    }

    /// One SGD step; returns the sample's loss.
    fn sgd_step(&mut self, x: &[f64], label: usize, lr: f64) -> f64 {
        // Forward pass, caching activations (post-ReLU) per layer.
        let n_layers = self.layers.len();
        let mut acts: Vec<Vec<f64>> = vec![x.to_vec()];
        let mut pre: Vec<Vec<f64>> = Vec::with_capacity(n_layers);
        for (i, layer) in self.layers.iter().enumerate() {
            let z = layer.forward(&acts[i]);
            pre.push(z.clone());
            let a = if i + 1 < n_layers { z.iter().map(|&v| v.max(0.0)).collect() } else { z };
            acts.push(a);
        }

        // Softmax cross-entropy on the logits (acts[0] = x, so this is
        // total even for a zero-layer network).
        let logits = &acts[n_layers];
        let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = logits.iter().map(|&v| (v - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        let probs: Vec<f64> = exps.iter().map(|e| e / sum).collect();
        let loss = -probs[label].max(1e-12).ln();

        // Backward pass.
        let mut delta: Vec<f64> =
            probs.iter().enumerate().map(|(i, &p)| p - (i == label) as usize as f64).collect();
        for i in (0..n_layers).rev() {
            let input = acts[i].clone();
            let next_delta = if i > 0 {
                let layer = &self.layers[i];
                let mut nd = vec![0.0; layer.in_dim];
                for (r, &d) in delta.iter().enumerate() {
                    let row = &layer.weights[r * layer.in_dim..(r + 1) * layer.in_dim];
                    for (c, &w) in row.iter().enumerate() {
                        nd[c] += w * d;
                    }
                }
                // ReLU derivative of the previous layer's pre-activation.
                for (c, v) in nd.iter_mut().enumerate() {
                    if pre[i - 1][c] <= 0.0 {
                        *v = 0.0;
                    }
                }
                Some(nd)
            } else {
                None
            };
            let layer = &mut self.layers[i];
            for (r, &d) in delta.iter().enumerate() {
                let row = &mut layer.weights[r * layer.in_dim..(r + 1) * layer.in_dim];
                for (c, w) in row.iter_mut().enumerate() {
                    *w -= lr * d * input[c];
                }
                layer.bias[r] -= lr * d;
            }
            if let Some(nd) = next_delta {
                delta = nd;
            }
        }
        loss
    }
}

/// Index of the maximum element (first on ties). Total: an empty slice
/// yields 0, and NaN entries are skipped rather than panicking, so a
/// degenerate model cannot take down a serving worker through its
/// prediction path.
#[must_use]
pub fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    let mut best_v = f64::NEG_INFINITY;
    for (i, &v) in xs.iter().enumerate() {
        if v > best_v {
            best = i;
            best_v = v;
        }
    }
    best
}

fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticMnist;

    #[test]
    fn dims_round_trip() {
        let net = Network::new(&[784, 128, 128, 10], 1);
        assert_eq!(net.dims(), vec![784, 128, 128, 10]);
        assert_eq!(net.layers.len(), 3);
        assert_eq!(net.layers[0].weights.len(), 128 * 784);
    }

    #[test]
    fn forward_shapes() {
        let net = Network::new(&[6, 4, 3], 2);
        let out = net.forward(&[0.1; 6]);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn dense_known_values() {
        let layer = Dense {
            out_dim: 2,
            in_dim: 2,
            weights: vec![1.0, 2.0, 3.0, 4.0],
            bias: vec![0.5, -0.5],
        };
        assert_eq!(layer.forward(&[1.0, 1.0]), vec![3.5, 6.5]);
    }

    #[test]
    fn training_reduces_loss_and_learns() {
        // Small synthetic task: a 2-layer net should beat chance easily.
        let data = SyntheticMnist::generate(300, 100, 11);
        let mut net = Network::new(&[784, 32, 10], 3);
        let first = net.train_epoch(&data.train, 0.05);
        let mut last = first;
        for _ in 0..3 {
            last = net.train_epoch(&data.train, 0.05);
        }
        assert!(last < first, "loss should drop: {first} -> {last}");
        let acc = net.accuracy(&data.test);
        assert!(acc > 0.5, "test accuracy too low: {acc}");
    }

    #[test]
    fn argmax_basics() {
        assert_eq!(argmax(&[0.1, 0.9, 0.5]), 1);
        assert_eq!(argmax(&[1.0]), 0);
    }

    #[test]
    fn paper_dims() {
        assert_eq!(paper_network_dims(), vec![784, 128, 128, 10]);
    }
}
