//! Generated-graph differential test: the hand-picked models of
//! `graph_parity.rs` / `transformer.rs` widened to randomly shaped graphs.
//!
//! Every case draws one graph from each lowering family, so every op kind
//! the walks handle is on the path: a dense/relu stack of random depth,
//! widths and batch; conv → relu → pool → dense with random channels,
//! kernel and map size; and an encoder block (`Linear` fan-out off slot 0,
//! `MatMulSS` with and without `transpose_b`, `Softmax`, `Gelu`,
//! `LayerNorm` residuals) at random sequence length and widths. For each
//! graph:
//!
//! * (a) the dealer and the interactive offline phase (KK13 over IKNP and
//!   over silent OT) produce bundles of identical shapes, and every one
//!   satisfies `U + V = W·R` per linear op and `Z = X·Y` per matmul op;
//! * (b) secure logits equal the plaintext oracle bit for bit under both
//!   `ReluVariant`s and both `OfflineMode`s;
//! * (c) after the offline phase a dealt session and an interactive one
//!   exchange the same number of frames under every tag;
//! * (d) a `ServeClient`'s second request, which *continues* the
//!   OT-extension lineage its first one left in the client's slot, on
//!   fresh inputs and over an in-process dialer, is as exact as the first.

use abnn2::core::graph::server_offline_with;
use abnn2::core::inference::{ClientOffline, ServerOffline};
use abnn2::core::resilient::ResilientServer;
use abnn2::core::{
    dealer_bundle_for, ClientBundle, ClientLineage, ExecConfig, OfflineMode, ReluVariant,
    SecureClient, SecureServer, ServedModel, ServerBundle, ServerLineage, SessionDeadlines,
};
use abnn2::math::{FragmentScheme, Matrix, Ring};
use abnn2::net::{sim_link, Endpoint, InstrumentedTransport, NetworkModel, RetryPolicy, TagStats};
use abnn2::nn::conv::im2col;
use abnn2::nn::graph::{LayerGraph, LayerOp, OpResource};
use abnn2::nn::quant::{QuantConfig, QuantizedDense, QuantizedNetwork};
use abnn2::nn::transformer::QuantizedTransformer;
use abnn2::nn::{ConvShape, Network, QuantizedCnn, QuantizedConv};
use abnn2::serve::ServeClient;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated model of any family, with its plaintext oracle.
#[derive(Clone)]
enum Model {
    Mlp(QuantizedNetwork),
    Cnn(QuantizedCnn),
    Encoder(Box<QuantizedTransformer>),
}

impl Model {
    fn served(&self) -> ServedModel {
        match self.clone() {
            Model::Mlp(m) => m.into(),
            Model::Cnn(m) => m.into(),
            Model::Encoder(m) => (*m).into(),
        }
    }

    fn graph(&self) -> LayerGraph {
        match self {
            Model::Mlp(m) => m.into(),
            Model::Cnn(m) => m.into(),
            Model::Encoder(m) => m.graph().clone(),
        }
    }

    /// Weights of every linear op in graph order, embedded in the ring,
    /// conv as the filter matrix im2col multiplies against.
    fn linear_weights(&self) -> Vec<Vec<u64>> {
        let ring = self.graph().config.ring;
        let weights: Vec<Vec<i64>> = match self {
            Model::Mlp(m) => m.layers.iter().map(|l| l.weights.clone()).collect(),
            Model::Cnn(m) => std::iter::once(m.conv.weights.clone())
                .chain(m.dense.iter().map(|l| l.weights.clone()))
                .collect(),
            Model::Encoder(m) => (0..7).map(|li| m.linear_params(li).weights).collect(),
        };
        weights.iter().map(|w| w.iter().map(|&w| ring.from_i64(w)).collect()).collect()
    }

    fn forward_exact(&self, x: &[u64]) -> Vec<u64> {
        match self {
            Model::Mlp(m) => m.forward_exact(x),
            Model::Cnn(m) => m.forward_exact(x),
            Model::Encoder(m) => m.forward_exact(x),
        }
    }

    /// One input in the model's fixed-point encoding: `[0, 1)` pixels, or
    /// signed `[-1, 1)` activations for the encoder.
    fn input(&self, rng: &mut StdRng) -> Vec<u64> {
        let graph = self.graph();
        let (ring, f) = (graph.config.ring, graph.config.frac_bits);
        let lo = if matches!(self, Model::Encoder(_)) { -(1i64 << f) } else { 0 };
        (0..graph.input_len()).map(|_| ring.from_i64(rng.gen_range(lo..1i64 << f))).collect()
    }
}

fn random_scheme(rng: &mut StdRng) -> FragmentScheme {
    match rng.gen_range(0..4) {
        0 => FragmentScheme::ternary(),
        1 => FragmentScheme::signed_bit_fields(&[3]),
        2 => FragmentScheme::signed_bit_fields(&[2, 2]),
        _ => FragmentScheme::signed_bit_fields(&[3, 3, 2]),
    }
}

fn random_dense(
    out_dim: usize,
    in_dim: usize,
    s: &FragmentScheme,
    rng: &mut StdRng,
) -> QuantizedDense {
    let (lo, hi) = s.weight_range();
    QuantizedDense {
        out_dim,
        in_dim,
        weights: (0..out_dim * in_dim).map(|_| rng.gen_range(lo..=hi)).collect(),
        bias: (0..out_dim).map(|_| rng.gen_range(0..16u64)).collect(),
    }
}

/// Dense/relu stack: 1–3 dense layers of random widths; batch 1–3.
fn random_mlp(rng: &mut StdRng) -> (Model, usize) {
    let scheme = random_scheme(rng);
    let mut dims = vec![rng.gen_range(4..=12usize)];
    for _ in 0..rng.gen_range(1..=3) {
        dims.push(rng.gen_range(2..=8usize));
    }
    let config = QuantConfig {
        ring: Ring::new(32),
        frac_bits: 8,
        weight_frac_bits: if scheme.eta() <= 2 { 0 } else { 2 },
        scheme,
    };
    let net = QuantizedNetwork::quantize(&Network::new(&dims, rng.gen()), config);
    (Model::Mlp(net), rng.gen_range(1..=3))
}

/// conv → relu → pool(2) → dense (→ relu → dense) at a random map size,
/// kernel, channel and filter count.
fn random_cnn(rng: &mut StdRng) -> (Model, usize) {
    let scheme = random_scheme(rng);
    // (map side, kernel): every conv output side is even, so pool 2 fits.
    let (side, k) = [(8usize, 3usize), (6, 3), (5, 2), (7, 2)][rng.gen_range(0..4usize)];
    let in_shape = ConvShape { channels: rng.gen_range(1..=2), height: side, width: side };
    let out_channels = rng.gen_range(1..=3usize);
    let (lo, hi) = scheme.weight_range();
    let conv = QuantizedConv {
        out_channels,
        in_shape,
        kh: k,
        kw: k,
        stride: 1,
        weights: (0..out_channels * in_shape.channels * k * k)
            .map(|_| rng.gen_range(lo..=hi))
            .collect(),
        bias: (0..out_channels as u64).collect(),
    };
    let conv_side = side - k + 1;
    let pooled = out_channels * (conv_side / 2).pow(2);
    let mut dims = vec![pooled];
    for _ in 0..rng.gen_range(1..=2) {
        dims.push(rng.gen_range(2..=5usize));
    }
    let dense = dims.windows(2).map(|d| random_dense(d[1], d[0], &scheme, rng)).collect();
    let config = QuantConfig {
        ring: Ring::new(32),
        frac_bits: 6,
        weight_frac_bits: if scheme.eta() <= 2 { 0 } else { 3 },
        scheme,
    };
    (Model::Cnn(QuantizedCnn { config, conv, pool_window: 2, dense }), 1)
}

/// One encoder block plus head at random sequence length and widths.
fn random_encoder(rng: &mut StdRng) -> (Model, usize) {
    let config = QuantConfig {
        ring: Ring::new(16),
        frac_bits: 6,
        weight_frac_bits: 2,
        scheme: FragmentScheme::optimal(rng.gen_range(2..=4)),
    };
    let (seq, d) = (rng.gen_range(2..=3), [2usize, 4][rng.gen_range(0..2usize)]);
    let (d_ff, classes) = (rng.gen_range(2..=5), rng.gen_range(2..=3));
    let model =
        QuantizedTransformer::random(seq, d, d_ff, classes, config, rng).expect("valid encoder");
    (Model::Encoder(Box::new(model)), 1)
}

fn shapes(ms: &[Matrix]) -> Vec<(usize, usize)> {
    ms.iter().map(|m| (m.rows(), m.cols())).collect()
}

/// Asserts `U + V = W·R` for every linear op and `Z = X·Y` for every
/// matmul op, re-deriving the client's offline tape independently of the
/// walks under test: slot 0 is the input mask, a linear op's slot is its
/// `V`, a re-sharing op's slot is its fresh mask.
fn assert_correlated(model: &Model, sb: &ServerBundle, cb: &ClientBundle, what: &str) {
    let graph = model.graph();
    let ring = graph.config.ring;
    let weights = model.linear_weights();
    let (mut vs, mut rs, mut us) = (cb.vs.iter(), cb.rs.iter(), sb.us.iter());
    let mut mats = sb.mats.iter().zip(&cb.mats);
    let mut tape: Vec<&Matrix> = vec![rs.next().expect("input mask")];
    let mut li = 0;
    for (i, op) in graph.ops.iter().enumerate() {
        match op.resource() {
            OpResource::Triplet { m, n } => {
                let slot = tape[op.sources(i)[0]];
                let r = match *op {
                    LayerOp::Conv { in_shape, kh, kw, stride, .. } => {
                        im2col(slot.as_slice(), in_shape, kh, kw, stride)
                    }
                    _ => slot.clone(),
                };
                let (u, v) = (us.next().expect("U per linear op"), vs.next().expect("V"));
                let wr = Matrix::new(m, n, weights[li].clone()).mul(&r, &ring);
                assert_eq!(u.add(v, &ring), wr, "{what}: op {i} ({}) U + V != W·R", op.kind());
                li += 1;
                tape.push(v);
            }
            OpResource::MatTriple { .. } => {
                let (t0, t1) = mats.next().expect("triple per matmul op");
                let x = t0.x.add(&t1.x, &ring);
                let y = t0.y.add(&t1.y, &ring);
                assert_eq!(t0.z.add(&t1.z, &ring), x.mul(&y, &ring), "{what}: op {i} Z != X·Y");
                tape.push(rs.next().expect("mask per re-sharing op"));
            }
            OpResource::FreshMask { .. } => tape.push(rs.next().expect("mask per re-sharing op")),
            OpResource::Output => break,
        }
    }
    assert!(vs.next().is_none() && rs.next().is_none() && us.next().is_none(), "{what}: surplus");
    assert!(mats.next().is_none(), "{what}: surplus triples");
}

/// What one session produced.
struct Outcome {
    logits: Matrix,
    server: ServerBundle,
    client: ClientBundle,
    /// Server-side per-tag frame counts `(tag, sent, received)` of the
    /// online phase alone.
    online_frames: Vec<(u8, u64, u64)>,
}

/// Frames per tag that crossed between two snapshots of one handle.
fn frames_between(before: &[(u8, TagStats)], after: &[(u8, TagStats)]) -> Vec<(u8, u64, u64)> {
    let at = |tag: u8| before.iter().find(|(t, _)| *t == tag).map(|(_, s)| *s).unwrap_or_default();
    after
        .iter()
        .map(|&(tag, s)| {
            let b = at(tag);
            (tag, s.messages_sent - b.messages_sent, s.messages_received - b.messages_received)
        })
        .filter(|&(_, sent, received)| sent + received > 0)
        .collect()
}

/// One session over an in-memory link: session setup in `mode`, then the
/// offline phase — interactive, or skipped in favour of the `dealt` pair —
/// then the online phase on `inputs`. Both parties read `served`'s circuit
/// slots: a fresh `model.served()` lowers every op again, a shared one only
/// what no earlier session has.
fn run_session(
    served: &ServedModel,
    batch: usize,
    variant: ReluVariant,
    mode: OfflineMode,
    dealt: Option<(ServerBundle, ClientBundle)>,
    inputs: &[Vec<u64>],
    seed: u64,
) -> Outcome {
    let server = SecureServer::for_model(served.clone()).with_variant(variant);
    let client = SecureClient::for_model(server.public_model()).with_variant(variant);
    let (dealt_s, dealt_c) = dealt.unzip();
    let (ep_s, mut ep_c) = Endpoint::pair(NetworkModel::instant());
    std::thread::scope(|scope| {
        let srv = scope.spawn(move || {
            let mut ch = InstrumentedTransport::new(ep_s);
            let mut rng = StdRng::seed_from_u64(seed);
            let session = ServerLineage::setup_with(&mut ch, mode, &mut rng).expect("setup");
            let mut yao = session.yao.expect("Yao half");
            let bundle = dealt_s.unwrap_or_else(|| {
                let sg = served.secure_graph(batch).expect("valid batch");
                let exec = ExecConfig::new().with_variant(variant);
                let kk = session.kk.expect("fragment half");
                let offline =
                    server_offline_with(&mut ch, kk, &mut yao, served, &sg, exec, &mut rng);
                offline.expect("offline").0
            });
            let state = ServerOffline::from_bundle(yao, bundle);
            let (bundle, before) = (state.to_bundle(), ch.handle().tags());
            server.online(&mut ch, state).expect("server online");
            (bundle, frames_between(&before, &ch.handle().tags()))
        });
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let session = ClientLineage::setup_with(&mut ep_c, mode, &mut rng).expect("setup");
        let state = match dealt_c {
            Some(bundle) => ClientOffline::from_bundle(session.yao.expect("Yao half"), bundle),
            None => client.offline_with(&mut ep_c, session, batch, &mut rng).expect("offline"),
        };
        let client_bundle = state.to_bundle();
        let logits = client.online_raw(&mut ep_c, state, inputs, &mut rng).expect("client online");
        let (server_bundle, online_frames) = srv.join().expect("server thread");
        Outcome { logits, server: server_bundle, client: client_bundle, online_frames }
    })
}

/// The *continued* column of the product: two whole requests of one
/// `ServeClient` through the session driver and a checkpoint store, the
/// second over the lineage the first parked and the client kept in its
/// slot, each on inputs of its own.
fn check_continued(
    model: &Model,
    batch: usize,
    variant: ReluVariant,
    mode: OfflineMode,
    rng: &mut StdRng,
) {
    let what = format!("{} [{variant:?}/{mode:?}/continued]", model.graph().describe());
    let deadlines = SessionDeadlines::uniform(std::time::Duration::from_secs(30));
    let server =
        ResilientServer::new(SecureServer::for_model(model.served()).with_variant(variant))
            .with_policy(RetryPolicy::no_delay(1))
            .with_deadlines(deadlines);
    let client = ServeClient::for_model(model.served().public())
        .with_bundles(false)
        .with_variant(variant)
        .with_silent(mode == OfflineMode::Silent)
        .with_policy(RetryPolicy::no_delay(1))
        .with_deadlines(deadlines);
    let (dialer, listener) = sim_link(NetworkModel::instant());
    let server_seed = rng.gen();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(server_seed);
            for _ in 0..2 {
                let accept = |_| listener.accept_timeout(std::time::Duration::from_secs(30));
                server.serve_one(accept, &mut rng).expect("server");
            }
        });
        for session in 0..2u8 {
            let inputs: Vec<Vec<u64>> = (0..batch).map(|_| model.input(rng)).collect();
            let (y, report) = client.run_with(|_| dialer.dial(), &inputs, rng).expect("client");
            for (k, x) in inputs.iter().enumerate() {
                assert_eq!(y.col(k), model.forward_exact(x), "{what}: session {session}, {k}");
            }
            assert_eq!(report.continued, session == 1, "{what}: session {session}");
        }
    });
}

fn check_graph(model: &Model, batch: usize, rng: &mut StdRng) {
    let what = model.graph().describe();
    let inputs: Vec<Vec<u64>> = (0..batch).map(|_| model.input(rng)).collect();
    let expected: Vec<Vec<u64>> = inputs.iter().map(|x| model.forward_exact(x)).collect();
    let assert_exact = |o: &Outcome, path: &str| {
        for (k, want) in expected.iter().enumerate() {
            assert_eq!(&o.logits.col(k), want, "{what} [{path}]: sample {k} diverges from oracle");
        }
    };

    let served = model.served();
    let sg = served.secure_graph(batch).expect("generated graphs are valid");
    let (dealt_s, dealt_c) = dealer_bundle_for(&served, &sg, rng);
    assert_correlated(model, &dealt_s, &dealt_c, &format!("{what} [dealer]"));

    for variant in [ReluVariant::Oblivious, ReluVariant::Optimized] {
        let mut interactive_frames = Vec::new();
        for mode in [OfflineMode::Iknp, OfflineMode::Silent] {
            let path = format!("{variant:?}/{mode:?}");
            let o = run_session(&model.served(), batch, variant, mode, None, &inputs, rng.gen());
            assert_exact(&o, &path);
            assert_correlated(model, &o.server, &o.client, &format!("{what} [{path}]"));
            assert_eq!(shapes(&o.server.us), shapes(&dealt_s.us), "{what} [{path}]: U shapes");
            assert_eq!(shapes(&o.client.vs), shapes(&dealt_c.vs), "{what} [{path}]: V shapes");
            assert_eq!(shapes(&o.client.rs), shapes(&dealt_c.rs), "{what} [{path}]: mask shapes");
            let dims =
                |b: &[abnn2::core::MatrixTriple]| b.iter().map(|t| t.dims()).collect::<Vec<_>>();
            assert_eq!(dims(&o.client.mats), dims(&dealt_c.mats), "{what} [{path}]: triple dims");
            assert_eq!(dims(&o.server.mats), dims(&dealt_s.mats), "{what} [{path}]: triple dims");
            interactive_frames = o.online_frames;
            check_continued(model, batch, variant, mode, rng);
        }
        assert!(!interactive_frames.is_empty(), "{what}: the online phase exchanges frames");
        let dealt = Some((dealt_s.clone(), dealt_c.clone()));
        let o = run_session(
            &model.served(),
            batch,
            variant,
            OfflineMode::Iknp,
            dealt,
            &inputs,
            rng.gen(),
        );
        assert_exact(&o, &format!("{variant:?}/dealt"));
        assert_eq!(
            o.online_frames, interactive_frames,
            "{what} [{variant:?}]: dealt and interactive sessions must exchange the same \
             frames per tag once the offline phase is over"
        );
    }
}

/// Sessions that share one `ServedModel`: each op is lowered by the first
/// session that reaches it under its variant and widened by the rest, at
/// whatever batch the graph drew, with fresh inputs every time so the
/// optimized ReLU's second phase changes width between sessions.
fn check_shared_model(model: &Model, batch: usize, rng: &mut StdRng) {
    let what = model.graph().describe();
    let served = model.served();
    use ReluVariant::{Oblivious, Optimized};
    for (round, variant) in [Oblivious, Optimized, Optimized, Oblivious].into_iter().enumerate() {
        let inputs: Vec<Vec<u64>> = (0..batch).map(|_| model.input(rng)).collect();
        let o = run_session(&served, batch, variant, OfflineMode::Iknp, None, &inputs, rng.gen());
        for (k, x) in inputs.iter().enumerate() {
            let want = model.forward_exact(x);
            assert_eq!(o.logits.col(k), want, "{what} [shared, round {round}, {variant:?}]: {k}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn generated_graphs_stay_exact_when_sessions_share_a_model(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for generate in [random_mlp, random_cnn, random_encoder] {
            let (model, batch) = generate(&mut rng);
            check_shared_model(&model, batch, &mut rng);
        }
    }

    #[test]
    fn generated_graphs_agree_across_offline_paths_and_with_the_oracle(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for generate in [random_mlp, random_cnn, random_encoder] {
            let (model, batch) = generate(&mut rng);
            check_graph(&model, batch, &mut rng);
        }
    }
}
