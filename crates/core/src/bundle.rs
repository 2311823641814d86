//! Offline-triplet bundles: the checkpointable, poolable unit of offline
//! work.
//!
//! A prediction's offline phase produces, per linear op of the layer
//! graph, a dot-product triplet `U + V = W·R` (§4.1): the server holds
//! `U`, the client holds its chosen randomness `R` and the share `V`. That
//! state is *connection-independent* — plain ring elements — which is what
//! makes both reconnect-and-resume (PR 2) and server-side precomputation
//! (`abnn2-serve`) possible. This module extracts it into two concrete
//! types so a bundle checkpointed after a connection loss and a bundle
//! manufactured ahead of time by a precompute pool are literally the same
//! struct:
//!
//! * [`ServerBundle`] — per-linear-op `U` shares plus the batch size,
//! * [`ClientBundle`] — the client masks `R` (input mask plus one fresh
//!   mask per re-sharing op) and per-linear-op `V`, with a versioned wire
//!   encoding ([`ClientBundle::encode`]) so a server-side dealer can hand
//!   the client its half,
//! * [`BundleKey`] — (model digest, scheme digest, batch): everything a
//!   bundle depends on. Two sessions with equal keys can consume each
//!   other's bundles. Keys derive from the graph digest, so CNN bundles
//!   pool exactly like MLP bundles.
//!
//! [`dealer_bundle_for`] manufactures a matched pair *locally, without
//! OT*: it walks the graph sampling `R` and `V` uniformly and solves
//! `U = W·R − V` directly, since the dealer (the model holder) knows `W`.
//! This is the trusted-dealer / server-aided trust model (MiniONN's
//! precomputation pattern taken to its endpoint); see DESIGN.md §6 for the
//! privacy implications and when the interactive §4.1 OT offline phase
//! must be used instead.

use crate::graph::{
    client_offline_walk, Correlations, MatmulPlan, SecureGraph, ServedModel, TripletPlan,
};
use crate::handshake::{graph_digests, SessionParams};
use crate::matbeaver::{deal_matrix_triple, MatrixTriple};
use crate::ProtocolError;
use abnn2_math::{Matrix, Ring};
use abnn2_nn::graph::LayerGraph;
use abnn2_nn::quant::QuantizedNetwork;
use abnn2_ot::OfflineMode;
use rand::Rng;

/// Version byte leading every encoded [`ClientBundle`]. v3 appends, after
/// the masks and triplet shares, one `X‖Y‖Z` matrix-triple section per
/// secret×secret matmul op in graph-walk order (empty for MLP/CNN graphs,
/// whose payload is byte-identical to v2 apart from this version byte).
/// v2 introduced the mask-major layout (all masks, then all triplet
/// shares); v1 bundles (unversioned, per-layer interleaved) are no longer
/// accepted.
pub const BUNDLE_LAYOUT_VERSION: u8 = 3;

/// Everything an offline-triplet bundle depends on: bundles are
/// interchangeable exactly when their keys are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BundleKey {
    /// Leading 8 bytes of SHA-256 over the canonical layer-graph
    /// description — same derivation as the handshake's
    /// [`SessionParams::model_digest`].
    pub model_digest: [u8; 8],
    /// Leading 8 bytes of SHA-256 over the fragment scheme's canonical
    /// label and weight range.
    pub scheme_digest: [u8; 8],
    /// Number of samples per prediction batch the bundle was sized for.
    pub batch: u32,
    /// The negotiated offline OT mode. Part of the key so an IKNP session
    /// can never consume a bundle pooled for silent sessions (or vice
    /// versa): the dealer content is identical, but accounting, pool
    /// sizing, and audit trails key on the mode a bundle was promised to.
    pub mode: OfflineMode,
}

impl BundleKey {
    /// The key for a layer graph at a given batch size, in the portable
    /// IKNP mode. Use [`with_mode`](Self::with_mode) for silent sessions.
    #[must_use]
    pub fn for_graph(graph: &LayerGraph, batch: usize) -> Self {
        let (scheme_digest, model_digest) = graph_digests(graph);
        BundleKey { model_digest, scheme_digest, batch: batch as u32, mode: OfflineMode::Iknp }
    }

    /// The key implied by a handshake's negotiated session parameters
    /// (portable IKNP mode; combine with [`with_mode`](Self::with_mode)
    /// for the reply's negotiated mode).
    #[must_use]
    pub fn from_params(params: &SessionParams) -> Self {
        BundleKey {
            model_digest: params.model_digest,
            scheme_digest: params.scheme_digest,
            batch: params.batch,
            mode: OfflineMode::Iknp,
        }
    }

    /// The same key under a different offline mode.
    #[must_use]
    pub fn with_mode(mut self, mode: OfflineMode) -> Self {
        self.mode = mode;
        self
    }
}

/// The server's half of an offline-triplet bundle: per-linear-op `U`
/// shares, in graph order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerBundle {
    /// Per-linear-op server triplet shares (`m × o` each, per the plan).
    pub us: Vec<Matrix>,
    /// Per-matmul-op matrix-triple shares, in graph order.
    pub mats: Vec<MatrixTriple>,
    /// Batch size the bundle was generated for.
    pub batch: usize,
}

impl ServerBundle {
    /// Bytes a checkpoint store holds while this bundle is parked.
    #[must_use]
    pub fn parked_bytes(&self) -> usize {
        let elements = self.us.iter().map(Matrix::len).sum::<usize>()
            + self.mats.iter().map(|t| t.x.len() + t.y.len() + t.z.len()).sum::<usize>();
        elements * std::mem::size_of::<u64>()
    }
}

/// The client's half of an offline-triplet bundle: the masks `R` and the
/// per-linear-op triplet shares `V`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientBundle {
    /// Client masks in consumption order: the input mask first, then one
    /// fresh mask per re-sharing op.
    pub rs: Vec<Matrix>,
    /// Per-linear-op client triplet shares, in graph order.
    pub vs: Vec<Matrix>,
    /// Per-matmul-op matrix-triple shares, in graph order.
    pub mats: Vec<MatrixTriple>,
    /// Batch size the bundle was generated for.
    pub batch: usize,
}

impl ClientBundle {
    /// Serializes the bundle for the wire (layout v3): the
    /// [`BUNDLE_LAYOUT_VERSION`] byte, then every mask `R`, then every
    /// triplet share `V`, then every matrix triple as `X‖Y‖Z`, as
    /// ring-encoded elements in graph order. Shapes are implied by the
    /// graph both parties agreed on in the handshake, so no lengths are
    /// embedded.
    #[must_use]
    pub fn encode(&self, ring: Ring) -> Vec<u8> {
        let total: usize = self.rs.iter().chain(self.vs.iter()).map(Matrix::len).sum::<usize>()
            + self.mats.iter().map(|t| t.x.len() + t.y.len() + t.z.len()).sum::<usize>();
        let mut out = Vec::with_capacity(1 + total * ring.byte_len());
        out.push(BUNDLE_LAYOUT_VERSION);
        for r in &self.rs {
            out.extend_from_slice(&ring.encode_slice(r.as_slice()));
        }
        for v in &self.vs {
            out.extend_from_slice(&ring.encode_slice(v.as_slice()));
        }
        for t in &self.mats {
            out.extend_from_slice(&ring.encode_slice(t.x.as_slice()));
            out.extend_from_slice(&ring.encode_slice(t.y.as_slice()));
            out.extend_from_slice(&ring.encode_slice(t.z.as_slice()));
        }
        out
    }

    /// Parses a bundle encoded by [`encode`](Self::encode) against the
    /// graph it was negotiated for.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] if the version byte is unknown or the
    /// byte length does not match the graph's mask and triplet shapes
    /// exactly.
    pub fn decode(bytes: &[u8], sg: &SecureGraph) -> Result<Self, ProtocolError> {
        let ring = sg.graph().config.ring;
        let bl = ring.byte_len();
        match bytes.first() {
            Some(&BUNDLE_LAYOUT_VERSION) => {}
            Some(_) => return Err(ProtocolError::Malformed("client bundle version")),
            None => return Err(ProtocolError::Malformed("client bundle length")),
        }
        let mask_shapes = sg.mask_shapes();
        let triplet_shapes = sg.triplet_shapes();
        let matmul_plans = sg.matmul_plans();
        let expect: usize = mask_shapes
            .iter()
            .chain(&triplet_shapes)
            .map(|&(rows, cols)| rows * cols * bl)
            .sum::<usize>()
            + matmul_plans.iter().map(|p| (p.m * p.k + p.k * p.n + p.m * p.n) * bl).sum::<usize>();
        if bytes.len() != 1 + expect {
            return Err(ProtocolError::Malformed("client bundle length"));
        }
        let mut off = 1;
        let mut take = |rows: usize, cols: usize| {
            let len = rows * cols * bl;
            let m = Matrix::new(rows, cols, ring.decode_slice(&bytes[off..off + len]));
            off += len;
            m
        };
        let rs = mask_shapes.iter().map(|&(r, c)| take(r, c)).collect();
        let vs = triplet_shapes.iter().map(|&(r, c)| take(r, c)).collect();
        let mats = matmul_plans
            .iter()
            .map(|p| MatrixTriple { x: take(p.m, p.k), y: take(p.k, p.n), z: take(p.m, p.n) })
            .collect();
        Ok(ClientBundle { rs, vs, mats, batch: sg.batch() })
    }
}

/// [`Correlations`] without a peer: the dealer samples each client share
/// and solves for the server's, which it keeps.
struct Dealer<'a> {
    model: &'a ServedModel,
    ring: Ring,
    us: Vec<Matrix>,
    mats: Vec<MatrixTriple>,
}

impl<R: Rng + ?Sized> Correlations<R> for Dealer<'_> {
    fn triplet(
        &mut self,
        plan: &TripletPlan,
        r: &Matrix,
        rng: &mut R,
    ) -> Result<Matrix, ProtocolError> {
        let (w, _) = self.model.linear_params(plan.linear, plan.m, plan.n)?;
        let v = Matrix::random(plan.m, plan.o, &self.ring, rng);
        self.us.push(w.mul(r, &self.ring).sub(&v, &self.ring));
        Ok(v)
    }

    fn matrix_triple(
        &mut self,
        plan: &MatmulPlan,
        rng: &mut R,
    ) -> Result<MatrixTriple, ProtocolError> {
        let (t0, t1) = deal_matrix_triple(plan.m, plan.k, plan.n, self.ring, rng);
        self.mats.push(t0);
        Ok(t1)
    }
}

/// Manufactures a matched offline-triplet bundle pair locally (dealer
/// style) for any served topology: the same tape walk as the interactive
/// client offline phase (`graph::client_offline_walk`), with every triplet share
/// `V` sampled uniformly and `U = W·R − V` solved directly (with `R`
/// im2col'ed for conv ops), so `U + V = W·R` holds by construction — the
/// same invariant the interactive §4.1 OT protocols establish, at a
/// fraction of the cost, in exchange for the dealer knowing both halves
/// (see the module docs for the trust model).
///
/// # Panics
///
/// Panics if `model` does not match the graph `sg` was built from.
#[must_use]
pub fn dealer_bundle_for<R: Rng + ?Sized>(
    model: &ServedModel,
    sg: &SecureGraph,
    rng: &mut R,
) -> (ServerBundle, ClientBundle) {
    let ring = sg.graph().config.ring;
    let mut dealer = Dealer { model, ring, us: Vec::new(), mats: Vec::new() };
    let client = client_offline_walk(sg, &mut dealer, rng).expect("the dealer cannot fail");
    (ServerBundle { us: dealer.us, mats: dealer.mats, batch: sg.batch() }, client)
}

/// [`dealer_bundle_for`] specialized to the paper's MLP topology.
///
/// # Panics
///
/// Panics if `batch` is zero (a batch a [`SecureGraph`] would reject).
#[must_use]
pub fn dealer_bundle<R: Rng + ?Sized>(
    net: &QuantizedNetwork,
    batch: usize,
    rng: &mut R,
) -> (ServerBundle, ClientBundle) {
    let model = ServedModel::from(net.clone());
    let sg = model.secure_graph(batch).expect("valid MLP graph");
    dealer_bundle_for(&model, &sg, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_math::FragmentScheme;
    use abnn2_nn::quant::QuantConfig;
    use abnn2_nn::Network;
    use rand::SeedableRng;

    fn tiny(seed: u64) -> QuantizedNetwork {
        let net = Network::new(&[6, 5, 4, 3], seed);
        QuantizedNetwork::quantize(
            &net,
            QuantConfig {
                ring: Ring::new(32),
                frac_bits: 8,
                weight_frac_bits: 2,
                scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
            },
        )
    }

    fn graph_of(q: &QuantizedNetwork, batch: usize) -> SecureGraph {
        SecureGraph::new(LayerGraph::from(q), batch).unwrap()
    }

    #[test]
    fn dealer_bundle_satisfies_triplet_relation() {
        let q = tiny(11);
        let ring = q.config.ring;
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let (server, client) = dealer_bundle(&q, 3, &mut rng);
        assert_eq!(server.batch, 3);
        for l in 0..q.layers.len() {
            let layer = &q.layers[l];
            let w = layer.weights.iter().map(|&w| ring.from_i64(w)).collect();
            let wr = Matrix::new(layer.out_dim, layer.in_dim, w).mul(&client.rs[l], &ring);
            let sum = server.us[l].add(&client.vs[l], &ring);
            assert_eq!(sum, wr, "layer {l}: U + V must equal W·R");
        }
    }

    #[test]
    fn cnn_dealer_bundle_fits_the_graph() {
        use abnn2_nn::conv::{ConvShape, QuantizedConv};
        use abnn2_nn::quant::QuantizedDense;
        let config = QuantConfig {
            ring: Ring::new(32),
            frac_bits: 6,
            weight_frac_bits: 0,
            scheme: FragmentScheme::ternary(),
        };
        let cnn = abnn2_nn::QuantizedCnn {
            config,
            conv: QuantizedConv {
                out_channels: 2,
                in_shape: ConvShape { channels: 1, height: 8, width: 8 },
                kh: 3,
                kw: 3,
                stride: 1,
                weights: vec![1; 18],
                bias: vec![0, 0],
            },
            pool_window: 2,
            dense: vec![QuantizedDense {
                out_dim: 4,
                in_dim: 18,
                weights: vec![1; 72],
                bias: vec![0; 4],
            }],
        };
        let model = ServedModel::from(cnn);
        let sg = model.secure_graph(1).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let (server, client) = dealer_bundle_for(&model, &sg, &mut rng);
        // Conv U is 2×36 (positions as batch); masks follow mask_shapes.
        assert_eq!((server.us[0].rows(), server.us[0].cols()), (2, 36));
        let shapes: Vec<_> = client.rs.iter().map(|m| (m.rows(), m.cols())).collect();
        assert_eq!(shapes, sg.mask_shapes());
        // And the encoded form round-trips against the same graph.
        let ring = sg.graph().config.ring;
        let decoded = ClientBundle::decode(&client.encode(ring), &sg).unwrap();
        assert_eq!(decoded, client);
    }

    #[test]
    fn client_bundle_round_trips_on_the_wire() {
        let q = tiny(13);
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let (_, client) = dealer_bundle(&q, 2, &mut rng);
        let bytes = client.encode(q.config.ring);
        assert_eq!(bytes[0], BUNDLE_LAYOUT_VERSION);
        let decoded = ClientBundle::decode(&bytes, &graph_of(&q, 2)).unwrap();
        assert_eq!(decoded, client);
    }

    #[test]
    fn truncated_bundle_is_malformed() {
        let q = tiny(15);
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        let (_, client) = dealer_bundle(&q, 1, &mut rng);
        let mut bytes = client.encode(q.config.ring);
        bytes.pop();
        assert_eq!(
            ClientBundle::decode(&bytes, &graph_of(&q, 1)).err(),
            Some(ProtocolError::Malformed("client bundle length"))
        );
    }

    #[test]
    fn wrong_version_byte_is_malformed() {
        let q = tiny(15);
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        let (_, client) = dealer_bundle(&q, 1, &mut rng);
        let mut bytes = client.encode(q.config.ring);
        bytes[0] = 1;
        assert_eq!(
            ClientBundle::decode(&bytes, &graph_of(&q, 1)).err(),
            Some(ProtocolError::Malformed("client bundle version"))
        );
        assert_eq!(
            ClientBundle::decode(&[], &graph_of(&q, 1)).err(),
            Some(ProtocolError::Malformed("client bundle length"))
        );
    }

    proptest::proptest! {
        /// `decode` is total over what a peer can put in a `Bundle` frame:
        /// random bytes, a truncated or extended encoding, a bit-flipped
        /// one. It answers with a typed error or with a bundle of exactly
        /// the graph's shapes whose elements are in the ring, never a panic.
        #[test]
        fn client_bundle_decode_is_total(seed: u64) {
            use rand::Rng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // 20 bits: three wire bytes per element, the top four unused.
            let mut q = tiny(13);
            q.config.ring = Ring::new(20);
            let ring = q.config.ring;
            let sg = graph_of(&q, 1 + seed as usize % 2);
            let (_, client) = dealer_bundle_for(&ServedModel::from(q), &sg, &mut rng);
            let good = client.encode(ring);

            let mut bytes = good.clone();
            match rng.gen_range(0..4u32) {
                0 => bytes = (0..rng.gen_range(0..2 * good.len())).map(|_| rng.gen()).collect(),
                1 => bytes.truncate(rng.gen_range(0..good.len())),
                2 => bytes.extend((0..rng.gen_range(1..9usize)).map(|_| rng.gen::<u8>())),
                _ => {
                    let bit = rng.gen_range(0..8 * good.len());
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
            }
            match ClientBundle::decode(&bytes, &sg) {
                Err(e) => proptest::prop_assert!(
                    matches!(e, ProtocolError::Malformed(_)),
                    "untyped failure {e:?}"
                ),
                Ok(decoded) => {
                    proptest::prop_assert_eq!(bytes.len(), good.len());
                    proptest::prop_assert_eq!(bytes[0], BUNDLE_LAYOUT_VERSION);
                    let shapes = |ms: &[Matrix]| -> Vec<(usize, usize)> {
                        ms.iter().map(|m| (m.rows(), m.cols())).collect()
                    };
                    proptest::prop_assert_eq!(shapes(&decoded.rs), sg.mask_shapes());
                    proptest::prop_assert_eq!(shapes(&decoded.vs), sg.triplet_shapes());
                    proptest::prop_assert_eq!(decoded.batch, sg.batch());
                    // Bits above the ring are dropped, so the value is
                    // canonical: it survives its own encoding.
                    let again = ClientBundle::decode(&decoded.encode(ring), &sg);
                    proptest::prop_assert_eq!(again, Ok(decoded));
                }
            }
        }
    }

    #[test]
    fn keys_depend_on_model_scheme_and_batch() {
        let q = tiny(17);
        let graph = LayerGraph::from(&q);
        let base = BundleKey::for_graph(&graph, 1);
        assert_eq!(base, BundleKey::for_graph(&graph, 1));
        assert_ne!(base, BundleKey::for_graph(&graph, 2));

        let mut other = graph.clone();
        other.config.scheme = FragmentScheme::ternary();
        assert_ne!(base.scheme_digest, BundleKey::for_graph(&other, 1).scheme_digest);

        let q2 = {
            let net = Network::new(&[6, 7, 3], 18);
            QuantizedNetwork::quantize(&net, q.config.clone())
        };
        let graph2 = LayerGraph::from(&q2);
        assert_ne!(base.model_digest, BundleKey::for_graph(&graph2, 1).model_digest);

        // The handshake's view and the pool's view agree.
        let params =
            SessionParams::for_public(&(&q).into(), crate::relu::ReluVariant::Oblivious, 1);
        assert_eq!(BundleKey::from_params(&params), base);
    }

    #[test]
    fn keys_separate_offline_modes() {
        // A bundle pooled for silent sessions must be invisible to an IKNP
        // session with otherwise identical parameters, and vice versa.
        let q = tiny(17);
        let iknp = BundleKey::for_graph(&LayerGraph::from(&q), 1);
        let silent = iknp.with_mode(OfflineMode::Silent);
        assert_eq!(iknp.mode, OfflineMode::Iknp);
        assert_eq!(silent.mode, OfflineMode::Silent);
        assert_ne!(iknp, silent);
        assert_eq!(silent.with_mode(OfflineMode::Iknp), iknp);
    }
}
