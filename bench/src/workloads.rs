//! The four served workloads: which model, which serving path, and which
//! path a request must be seen to have taken.

use abnn2_core::{OfflineMode, PublicModel, ServedModel};
use abnn2_math::{FragmentScheme, Ring};
use abnn2_nn::quant::{QuantConfig, QuantizedNetwork};
use abnn2_nn::transformer::QuantizedTransformer;
use abnn2_nn::Network;
use abnn2_serve::{ServeClient, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Names accepted by `--workload`, in the order `run.sh` runs them.
pub const NAMES: [&str; 4] = ["fig4_warm", "encoder_warm", "slim_cold_iknp", "slim_cold_silent"];

/// Weights are fixed per workload; `--seed` only moves the inputs.
const WEIGHT_SEED: u64 = 42;
const POOL_DEPTH: usize = 4;

/// A served model together with its plaintext oracle.
#[derive(Clone)]
pub enum Model {
    Mlp(QuantizedNetwork),
    Encoder(Box<QuantizedTransformer>),
}

impl Model {
    fn mlp(dims: &[usize]) -> Self {
        let config = QuantConfig {
            ring: Ring::new(32),
            frac_bits: 8,
            weight_frac_bits: 4,
            scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
        };
        Model::Mlp(QuantizedNetwork::quantize(&Network::new(dims, WEIGHT_SEED), config))
    }

    fn encoder() -> Self {
        let config = QuantConfig {
            ring: Ring::new(16),
            frac_bits: 6,
            weight_frac_bits: 2,
            scheme: FragmentScheme::optimal(4),
        };
        let mut rng = StdRng::seed_from_u64(WEIGHT_SEED);
        let encoder =
            QuantizedTransformer::random(8, 8, 16, 3, config, &mut rng).expect("valid encoder");
        Model::Encoder(Box::new(encoder))
    }

    pub fn served(&self) -> ServedModel {
        match self {
            Model::Mlp(net) => net.clone().into(),
            Model::Encoder(model) => (**model).clone().into(),
        }
    }

    pub fn public(&self) -> PublicModel {
        self.served().public()
    }

    /// One input vector in the model's fixed-point encoding: pixel-like
    /// values in `[0, 1)` for the MLPs, signed activations in `[-1, 1)`
    /// for the encoder.
    pub fn input(&self, rng: &mut StdRng) -> Vec<u64> {
        match self {
            Model::Mlp(net) => {
                let (ring, f) = (net.config.ring, net.config.frac_bits);
                (0..net.dims()[0]).map(|_| ring.reduce(rng.gen_range(0..1u64 << f))).collect()
            }
            Model::Encoder(model) => {
                let (ring, f) = (model.config.ring, model.config.frac_bits);
                (0..model.seq * model.d)
                    .map(|_| ring.reduce(rng.gen_range(-(1i64 << f)..1i64 << f) as u64))
                    .collect()
            }
        }
    }

    /// The plaintext oracle every served logit vector must equal.
    pub fn forward_exact(&self, input: &[u64]) -> Vec<u64> {
        match self {
            Model::Mlp(net) => net.forward_exact(input),
            Model::Encoder(model) => model.forward_exact(input),
        }
    }
}

/// The path a request is expected to take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Pooled bundle, interactive offline phase bypassed.
    Warm,
    /// Interactive offline phase over the given OT extension.
    Cold(OfflineMode),
}

pub struct Workload {
    pub path: Path,
    pub model: Model,
}

impl Workload {
    /// Builds the workload's model from its fixed weight seed.
    pub fn build(name: &str) -> Option<Self> {
        let (path, model) = match name {
            "fig4_warm" => (Path::Warm, Model::mlp(&[784, 128, 128, 10])),
            "encoder_warm" => (Path::Warm, Model::encoder()),
            "slim_cold_iknp" => (Path::Cold(OfflineMode::Iknp), Model::mlp(&[196, 16, 16, 10])),
            "slim_cold_silent" => (Path::Cold(OfflineMode::Silent), Model::mlp(&[196, 16, 16, 10])),
            _ => return None,
        };
        Some(Workload { path, model })
    }

    /// One worker, one session at a time, one exec thread: with the load
    /// generator that is two busy threads on the two cores of the VM.
    pub fn serve_config(&self) -> ServeConfig {
        let silent = self.path == Path::Cold(OfflineMode::Silent);
        ServeConfig {
            workers: 1,
            sessions_per_worker: 1,
            pool_depth: if self.path == Path::Warm { POOL_DEPTH } else { 0 },
            pool_batches: vec![1],
            pool_modes: if silent {
                vec![OfflineMode::Iknp, OfflineMode::Silent]
            } else {
                vec![OfflineMode::Iknp]
            },
            ..ServeConfig::default()
        }
    }

    pub fn pool_depth(&self) -> usize {
        self.serve_config().pool_depth
    }

    pub fn client(&self) -> ServeClient {
        ServeClient::for_model(self.model.public())
            .with_bundles(self.path == Path::Warm)
            .with_silent(self.path == Path::Cold(OfflineMode::Silent))
    }
}
