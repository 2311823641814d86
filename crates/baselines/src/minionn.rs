//! MiniONN's offline linear phase on additively homomorphic encryption
//! (Liu et al., CCS 2017).
//!
//! The client encrypts its per-layer randomness `R`; the server evaluates
//! the linear layers *homomorphically* (ciphertext exponentiation by each
//! weight) and returns masked results — so offline communication and
//! compute are proportional to ciphertext size and **independent of the
//! weight bitwidth**, which is the structural property the paper's Table 4
//! comparison exercises.
//!
//! Substitutions vs the original (documented in `DESIGN.md` §2):
//!
//! * SEAL's lattice SIMD batching → Paillier plaintext **slot packing**:
//!   several batch elements share one ciphertext at `stride`-bit offsets,
//!   and one ciphertext exponentiation acts on all slots at once;
//! * signed weights are handled by the standard shift `w' = w − lo ≥ 0`,
//!   with the client removing the `lo·Σⱼ rⱼ` correction locally (it knows
//!   `R`).
//!
//! The online phase *is* ABNN²'s, as in the paper's experimental setup: the
//! offline halves here end in the `(Yao party, bundle)` pair that
//! [`SecureServer::online`] and [`SecureClient::online_raw`] take, so
//! Table 4 compares two offline protocols over one online engine.

use abnn2_core::inference::{ClientOffline, ServerOffline};
use abnn2_core::{
    ClientBundle, ProtocolError, PublicModel, ReluVariant, SecureClient, SecureServer, ServerBundle,
};
use abnn2_gc::{YaoEvaluator, YaoGarbler};
use abnn2_he::paillier::{Ciphertext, Keypair, PublicKey};
use abnn2_he::BigUint;
use abnn2_math::Matrix;
use abnn2_net::Transport;
use abnn2_nn::quant::{QuantConfig, QuantizedNetwork};
use rand::Rng;

/// Key size used by the full-scale benchmarks (research-scale Paillier).
pub const DEFAULT_KEY_BITS: usize = 1024;

/// Statistical masking slack in bits.
const MASK_SLACK: usize = 40;

fn ceil_log2(x: usize) -> usize {
    x.next_power_of_two().trailing_zeros() as usize
}

/// Slot stride for a layer: room for the dot product plus the mask.
/// Always exceeds 64 bits, so a slot's low `u64` never straddles slots.
fn stride(ring_bits: usize, n_inputs: usize, weight_span_bits: usize) -> usize {
    (ring_bits + ceil_log2(n_inputs) + weight_span_bits + MASK_SLACK + 2).max(65)
}

/// Slots per ciphertext for a given key and stride.
fn slots_per_ct(key_bits: usize, stride: usize) -> usize {
    ((key_bits - 2) / stride).max(1)
}

/// Weight span: bits of `hi − lo` for the scheme's weight range.
fn weight_span_bits(config: &QuantConfig) -> usize {
    let (lo, hi) = config.scheme.weight_range();
    64 - ((hi - lo) as u64).leading_zeros() as usize
}

/// The MiniONN model-serving party.
#[derive(Debug, Clone)]
pub struct MinionnServer {
    net: QuantizedNetwork,
    /// The online party over the same model, lowered once.
    online: SecureServer,
    key_bits: usize,
}

/// The MiniONN data-owning party.
#[derive(Debug, Clone)]
pub struct MinionnClient {
    dims: Vec<usize>,
    /// The online party over the same public model.
    online: SecureClient,
    key_bits: usize,
}

impl MinionnServer {
    /// Serves `net` with `key_bits`-bit Paillier keys (use
    /// [`DEFAULT_KEY_BITS`] for benchmark fidelity, smaller for tests).
    #[must_use]
    pub fn new(net: QuantizedNetwork, key_bits: usize) -> Self {
        MinionnServer { online: SecureServer::for_model(net.clone()), net, key_bits }
    }

    /// Selects the online activation variant (must match the client's).
    #[must_use]
    pub fn with_variant(mut self, variant: ReluVariant) -> Self {
        self.online = self.online.with_variant(variant);
        self
    }

    /// The public model description.
    #[must_use]
    pub fn public_model(&self) -> PublicModel {
        self.online.public_model()
    }

    /// Offline phase: homomorphic triplet generation for `batch`
    /// predictions.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on any failure.
    pub fn offline<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        batch: usize,
        rng: &mut R,
    ) -> Result<ServerOffline, ProtocolError> {
        if batch == 0 {
            return Err(ProtocolError::Dimension("batch must be positive"));
        }
        let ring = self.net.config.ring;
        // Receive the client's public key (modulus only — g = n + 1).
        let n_bytes = ch.recv()?;
        let pk = PublicKey::from_modulus(BigUint::from_bytes_le(&n_bytes))
            .map_err(|_| ProtocolError::Malformed("even Paillier modulus"))?;
        let yao = YaoEvaluator::setup(ch, rng)?;

        let span = weight_span_bits(&self.net.config);
        let (lo, _) = self.net.config.scheme.weight_range();
        let mut us = Vec::with_capacity(self.net.layers.len());
        for layer in &self.net.layers {
            let st = stride(ring.bits() as usize, layer.in_dim, span);
            let slots = slots_per_ct(self.key_bits, st);
            let groups = batch.div_ceil(slots);
            // Receive the client's encrypted randomness: n_l × groups cts.
            let ct_len = Ciphertext::byte_len(&pk);
            let data = ch.recv()?;
            if data.len() != layer.in_dim * groups * ct_len {
                return Err(ProtocolError::Malformed("encrypted randomness batch length"));
            }
            let cts: Vec<Ciphertext> =
                data.chunks_exact(ct_len).map(Ciphertext::from_bytes).collect();

            let mut u = Matrix::zeros(layer.out_dim, batch);
            let mut reply = Vec::with_capacity(layer.out_dim * groups * ct_len);
            for i in 0..layer.out_dim {
                let row = layer.row(i);
                for g in 0..groups {
                    // Packed per-slot masks.
                    let mut mask_pack = BigUint::zero();
                    for s in 0..slots {
                        let k = g * slots + s;
                        if k >= batch {
                            break;
                        }
                        let mask = BigUint::random_bits(st - 2, rng);
                        u.set(i, k, ring.neg(mask.low_u64() & ring.mask()));
                        mask_pack = mask_pack.add(&mask.shl(s * st));
                    }
                    let mut acc = pk.encrypt(&mask_pack.rem(pk.modulus()), rng);
                    for (j, &w) in row.iter().enumerate() {
                        let w_shifted = (w - lo) as u64;
                        if w_shifted == 0 {
                            continue;
                        }
                        let term =
                            pk.scalar_mul(&cts[j * groups + g], &BigUint::from_u64(w_shifted));
                        acc = pk.add(&acc, &term);
                    }
                    reply.extend_from_slice(&acc.to_bytes(&pk));
                }
            }
            ch.send(&reply)?;
            us.push(u);
        }
        Ok(ServerOffline::from_bundle(yao, ServerBundle { us, mats: Vec::new(), batch }))
    }

    /// Online phase: ABNN²'s, over the homomorphically generated triplets.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on any failure.
    pub fn online<T: Transport>(
        &self,
        ch: &mut T,
        state: ServerOffline,
    ) -> Result<(), ProtocolError> {
        self.online.online(ch, state)
    }

    /// Offline followed by online.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on any failure.
    pub fn run<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        batch: usize,
        rng: &mut R,
    ) -> Result<(), ProtocolError> {
        let st = self.offline(ch, batch, rng)?;
        self.online(ch, st)
    }
}

impl MinionnClient {
    /// Creates a client for a served model.
    #[must_use]
    pub fn new(model: PublicModel, key_bits: usize) -> Self {
        MinionnClient {
            dims: crate::mlp_dims(&model),
            online: SecureClient::for_model(model),
            key_bits,
        }
    }

    /// Selects the online activation variant (must match the server's).
    #[must_use]
    pub fn with_variant(mut self, variant: ReluVariant) -> Self {
        self.online = self.online.with_variant(variant);
        self
    }

    /// Offline phase: generate a key, encrypt per-layer randomness, decrypt
    /// the server's masked results into triplet shares.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on any failure.
    pub fn offline<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        batch: usize,
        rng: &mut R,
    ) -> Result<ClientOffline, ProtocolError> {
        if batch == 0 {
            return Err(ProtocolError::Dimension("batch must be positive"));
        }
        let config = self.online.public_model().config();
        let ring = config.ring;
        let kp = Keypair::generate(self.key_bits, rng);
        ch.send(&kp.public.modulus().to_bytes_le())?;
        let yao = YaoGarbler::setup(ch, rng)?;

        let span = weight_span_bits(config);
        let (lo, _) = config.scheme.weight_range();
        let n_layers = self.dims.len() - 1;
        let mut rs = Vec::with_capacity(n_layers);
        let mut vs = Vec::with_capacity(n_layers);
        for l in 0..n_layers {
            let (n_l, m_l) = (self.dims[l], self.dims[l + 1]);
            let st = stride(ring.bits() as usize, n_l, span);
            let slots = slots_per_ct(self.key_bits, st);
            let groups = batch.div_ceil(slots);
            let r = Matrix::random(n_l, batch, &ring, rng);

            // Encrypt R packed along the batch dimension.
            let mut payload = Vec::with_capacity(n_l * groups * Ciphertext::byte_len(&kp.public));
            for j in 0..n_l {
                for g in 0..groups {
                    let mut pack = BigUint::zero();
                    for s in 0..slots {
                        let k = g * slots + s;
                        if k >= batch {
                            break;
                        }
                        pack = pack.add(&BigUint::from_u64(r.get(j, k)).shl(s * st));
                    }
                    payload.extend_from_slice(&kp.public.encrypt(&pack, rng).to_bytes(&kp.public));
                }
            }
            ch.send(&payload)?;

            // Receive and decrypt the masked results.
            let ct_len = Ciphertext::byte_len(&kp.public);
            let data = ch.recv()?;
            if data.len() != m_l * groups * ct_len {
                return Err(ProtocolError::Malformed("masked result batch length"));
            }
            // Per-column correction lo·Σⱼ r_jk, computable locally.
            let colsums: Vec<u64> = (0..batch)
                .map(|k| {
                    let mut s = 0u64;
                    for j in 0..n_l {
                        s = ring.add(s, r.get(j, k));
                    }
                    s
                })
                .collect();
            let mut v = Matrix::zeros(m_l, batch);
            for i in 0..m_l {
                for g in 0..groups {
                    let ct = Ciphertext::from_bytes(&data[(i * groups + g) * ct_len..][..ct_len]);
                    let plain = kp.secret.decrypt(&kp.public, &ct);
                    for s in 0..slots {
                        let k = g * slots + s;
                        if k >= batch {
                            break;
                        }
                        // stride > 64, so the slot's low 64 bits are exact.
                        let val = plain.shr(s * st).low_u64() & ring.mask();
                        // v = (Σ w'r + mask) + lo·Σr  (mod 2^ℓ): with
                        // w = w' + lo this reconstructs Σ w·r, and the mask
                        // cancels against the server's u = −mask.
                        v.set(i, k, ring.add(val, ring.mul_signed(colsums[k], lo)));
                    }
                }
            }
            rs.push(r);
            vs.push(v);
        }
        Ok(ClientOffline::from_bundle(yao, ClientBundle { rs, vs, mats: Vec::new(), batch }))
    }

    /// Online phase over ring-encoded inputs: ABNN²'s; returns reconstructed
    /// raw outputs (`out_dim × batch` at `f + f_w` fractional bits).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on any failure.
    pub fn online_raw<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        state: ClientOffline,
        inputs_fp: &[Vec<u64>],
        rng: &mut R,
    ) -> Result<Matrix, ProtocolError> {
        self.online.online_raw(ch, state, inputs_fp, rng)
    }

    /// Offline followed by online.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on any failure.
    pub fn run<T: Transport, R: Rng + ?Sized>(
        &self,
        ch: &mut T,
        inputs_fp: &[Vec<u64>],
        rng: &mut R,
    ) -> Result<Matrix, ProtocolError> {
        let st = self.offline(ch, inputs_fp.len(), rng)?;
        self.online_raw(ch, st, inputs_fp, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_math::{FragmentScheme, Ring};
    use abnn2_net::{run_pair, NetworkModel};
    use abnn2_nn::{Network, SyntheticMnist};
    use rand::SeedableRng;

    fn tiny_quantized(seed: u64) -> QuantizedNetwork {
        let data = SyntheticMnist::generate(80, 0, seed);
        let mut net = Network::new(&[784, 10, 10], seed);
        net.train_epoch(&data.train, 0.05);
        let config = QuantConfig {
            ring: Ring::new(32),
            frac_bits: 8,
            weight_frac_bits: 4,
            scheme: FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]),
        };
        QuantizedNetwork::quantize(&net, config)
    }

    #[test]
    fn minionn_matches_plaintext() {
        let q = tiny_quantized(90);
        let batch = 2;
        let data = SyntheticMnist::generate(batch, 0, 91);
        let codec = q.config.activation_codec();
        let inputs_fp: Vec<Vec<u64>> =
            data.train.iter().map(|s| codec.encode_vec(&s.pixels)).collect();
        let expected: Vec<Vec<u64>> = inputs_fp.iter().map(|x| q.forward_exact(x)).collect();

        let server = MinionnServer::new(q.clone(), 256);
        let client = MinionnClient::new(server.public_model(), 256);
        let inputs2 = inputs_fp.clone();
        let (srv, y, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(92);
                server.run(ch, batch, &mut rng)
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(93);
                client.run(ch, &inputs2, &mut rng).expect("client")
            },
        );
        srv.expect("server");
        for (k, want) in expected.iter().enumerate() {
            assert_eq!(y.col(k), *want, "sample {k}");
        }
    }

    #[test]
    fn packing_math() {
        // 1024-bit key, ℓ = 32, 784 inputs, 8-bit span: stride ≈ 92 → 11 slots.
        let st = stride(32, 784, 8);
        assert!(st >= 32 + 10 + 8 + MASK_SLACK);
        assert!(slots_per_ct(1024, st) >= 8);
        assert_eq!(slots_per_ct(256, 1000), 1);
    }

    #[test]
    fn comm_is_bitwidth_independent() {
        // Structural check: offline bytes depend on ciphertext size only.
        let q = tiny_quantized(94);
        let batch = 1;
        let server = MinionnServer::new(q.clone(), 256);
        let client = MinionnClient::new(server.public_model(), 256);
        let (_, _, report) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(95);
                let st = server.offline(ch, batch, &mut rng).expect("offline");
                drop(st);
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(96);
                let st = client.offline(ch, batch, &mut rng).expect("offline");
                drop(st);
            },
        );
        // (784 + 10) request cts + (10 + 10) reply cts at 64 bytes each,
        // plus key + OT setup: well above the pure-OT cost of ABNN².
        assert!(report.total_bytes() > 50_000, "bytes = {}", report.total_bytes());
    }
}
