//! Graph-executor parity: logits must be bit-exact against the plaintext
//! oracle (`forward_exact`) and transcripts must move exactly as many
//! bytes as the pre-refactor hand-rolled pipelines did, across bitwidths
//! η ∈ {2, 3, 4, 8} including the mixed (3,3,2) fragment scheme, for both
//! an MLP and a CNN.
//!
//! The golden byte counts below were measured against the pre-graph
//! protocol code (commit 7861c07) with these exact models and seeds. The
//! MLP counts must match bit-for-bit; the CNN counts carry a fixed
//! `+2 × HELLO_LEN` delta because the graph refactor gives CNN sessions
//! the same version/parameter handshake the MLP always had.

use abnn2::core::{ClientJob, SecureClient, SecureServer};
use abnn2::math::{FragmentScheme, Ring};
use abnn2::net::{run_pair, NetworkModel};
use abnn2::nn::quant::{QuantConfig, QuantizedDense, QuantizedNetwork};
use abnn2::nn::{ConvShape, Network, QuantizedCnn, QuantizedConv};
use rand::{Rng, SeedableRng};

/// The η ∈ {2, 3, 4, 8} sweep, with 8 bits in both the uniform (2,2,2,2)
/// and mixed (3,3,2) fragmentations.
fn schemes() -> Vec<(&'static str, FragmentScheme)> {
    vec![
        ("eta2-ternary", FragmentScheme::ternary()),
        ("eta3", FragmentScheme::signed_bit_fields(&[3])),
        ("eta4", FragmentScheme::signed_bit_fields(&[2, 2])),
        ("eta8", FragmentScheme::signed_bit_fields(&[2, 2, 2, 2])),
        ("eta8-mixed-332", FragmentScheme::signed_bit_fields(&[3, 3, 2])),
    ]
}

fn mlp_model(seed: u64, scheme: FragmentScheme) -> QuantizedNetwork {
    let net = Network::new(&[12, 8, 6, 4], seed);
    let config = QuantConfig {
        ring: Ring::new(32),
        frac_bits: 8,
        weight_frac_bits: if scheme.eta() <= 2 { 0 } else { 2 },
        scheme,
    };
    QuantizedNetwork::quantize(&net, config)
}

fn cnn_model(seed: u64, scheme: FragmentScheme) -> QuantizedCnn {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (lo, hi) = scheme.weight_range();
    let in_shape = ConvShape { channels: 1, height: 8, width: 8 };
    let conv = QuantizedConv {
        out_channels: 2,
        in_shape,
        kh: 3,
        kw: 3,
        stride: 1,
        weights: (0..2 * 9).map(|_| rng.gen_range(lo..=hi)).collect(),
        bias: vec![5, 3],
    };
    // conv out 2×6×6 → pool 2 → 2×3×3 = 18 → dense 18→6→4.
    let mk_dense = |out_dim: usize, in_dim: usize, rng: &mut rand::rngs::StdRng| QuantizedDense {
        out_dim,
        in_dim,
        weights: (0..out_dim * in_dim).map(|_| rng.gen_range(lo..=hi)).collect(),
        bias: (0..out_dim as u64).collect(),
    };
    let d1 = mk_dense(6, 18, &mut rng);
    let d2 = mk_dense(4, 6, &mut rng);
    let config = QuantConfig {
        ring: Ring::new(32),
        frac_bits: 6,
        weight_frac_bits: if scheme.eta() <= 2 { 0 } else { 3 },
        scheme,
    };
    QuantizedCnn { config, conv, pool_window: 2, dense: vec![d1, d2] }
}

/// Runs one full MLP session (batch 2) and returns the transcript's total
/// payload bytes, asserting logits equal `forward_exact` on the way.
fn mlp_total_bytes(seed: u64, scheme: FragmentScheme) -> u64 {
    let q = mlp_model(seed, scheme);
    let ring = q.config.ring;
    let batch = 2usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
    let inputs_fp: Vec<Vec<u64>> = (0..batch)
        .map(|_| (0..12).map(|_| ring.reduce(rng.gen_range(0..1u64 << 10))).collect())
        .collect();
    let expected: Vec<Vec<u64>> = inputs_fp.iter().map(|x| q.forward_exact(x)).collect();

    let server = SecureServer::for_model(q.clone());
    let client = SecureClient::for_model(&q);
    let inputs2 = inputs_fp.clone();
    let (srv, y, report) = run_pair(
        NetworkModel::instant(),
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 2);
            server.run(ch, batch, &mut rng)
        },
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 3);
            let state = client.offline(ch, batch, &mut rng).expect("offline");
            client.online_raw(ch, state, &inputs2, &mut rng).expect("online")
        },
    );
    srv.expect("server");
    for (k, want) in expected.iter().enumerate() {
        assert_eq!(&y.col(k), want, "MLP sample {k} logits diverge from forward_exact");
    }
    report.total_bytes()
}

/// Runs one full CNN session and returns the transcript's total payload
/// bytes, asserting logits equal `forward_exact` on the way.
fn cnn_total_bytes(seed: u64, scheme: FragmentScheme) -> u64 {
    let cnn = cnn_model(seed, scheme);
    let ring = cnn.config.ring;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
    let image: Vec<u64> = (0..cnn.conv.in_shape.len())
        .map(|_| ring.reduce(rng.gen_range(0..1u64 << cnn.config.frac_bits)))
        .collect();
    let expect = cnn.forward_exact(&image);

    let server = SecureServer::for_model(cnn.clone());
    let client = SecureClient::for_model(server.public_model());
    let image2 = image.clone();
    let (srv, got, report) = run_pair(
        NetworkModel::instant(),
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 2);
            server.run(ch, 1, &mut rng)
        },
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 3);
            client.run_job(ch, &[image2], &mut ClientJob::default(), &mut rng).expect("client")
        },
    );
    srv.expect("server");
    assert_eq!(got.col(0), expect, "secure CNN logits diverge from forward_exact");
    report.total_bytes()
}

/// Pre-frame (protocol v2) transcript payload bytes, measured at commit
/// 7861c07 with the models and seeds above, keyed by scheme name.
const GOLDEN_MLP: [(&str, u64); 5] = [
    ("eta2-ternary", 202_656),
    ("eta3", 209_376),
    ("eta4", 214_752),
    ("eta8", 236_256),
    ("eta8-mixed-332", 236_256),
];

const GOLDEN_CNN: [(&str, u64); 5] = [
    ("eta2-ternary", 842_448),
    ("eta3", 858_048),
    ("eta4", 862_640),
    ("eta8", 896_784),
    ("eta8-mixed-332", 904_672),
];

/// The pre-refactor CNN pipeline had no hello exchange; the graph
/// executor runs CNN sessions through the same version/parameter
/// handshake the MLP always had, adding one 56-byte hello payload in each
/// direction.
const CNN_HANDSHAKE_DELTA: u64 = 2 * 56;

/// Protocol v6 appends a 16-byte lineage token to the hello, in each
/// direction; a cold session that continues nothing moves not a byte more.
const LINEAGE_TOKEN_DELTA: u64 = 2 * 16;

/// Per-frame-type tag overhead of protocol v3: every message now carries
/// a one-byte frame tag, so a session's transcript grows by exactly its
/// frame count over the v2 goldens. Rows are (frame type, frames per
/// session); `gamma` is the scheme's fragment-group count γ,
/// `linear_layers` the number of Dense/Conv ops, and `gc_rounds` the
/// number of garbled-circuit executions (one per ReLU layer, plus one per
/// MaxPool for the CNN). The MLP here runs 3 linear layers and 2 ReLU
/// rounds; the CNN 3 linear layers and 3 GC rounds (2 ReLU + 1 MaxPool).
fn frames_per_session(gamma: u64, linear_layers: u64, gc_rounds: u64) -> [(&'static str, u64); 13] {
    [
        // Handshake: one hello each way.
        ("hello", 2),
        // Base OTs seed IKNP and KK13 once per session (sender side).
        ("base-OT setup point", 2),
        ("base-OT point batch", 2),
        ("base-OT ciphertext batch", 2),
        // One IKNP extension per GC round (evaluator input labels).
        ("IKNP column matrix", gc_rounds),
        ("IKNP ciphertext batch", gc_rounds),
        // One KK13 extension + one masked batch per fragment group per
        // linear layer (the paper's γ(N−1) messages ride in the latter).
        ("KK13 column matrix", gamma * linear_layers),
        ("masked triplet batch", gamma * linear_layers),
        // Garbled-circuit material, once per GC round.
        ("garbler input labels", gc_rounds),
        ("garbled AND tables", gc_rounds),
        ("output decode map", gc_rounds),
        // Online phase: blinded input in, logit shares out.
        ("blinded input shares", 1),
        ("output shares", 1),
    ]
}

/// Total tag bytes a session adds over its v2 golden: one per frame.
fn tag_overhead(gamma: u64, linear_layers: u64, gc_rounds: u64) -> u64 {
    frames_per_session(gamma, linear_layers, gc_rounds).iter().map(|&(_, n)| n).sum()
}

fn golden(table: &[(&str, u64); 5], name: &str) -> u64 {
    table.iter().find(|(n, _)| *n == name).map(|&(_, b)| b).expect("scheme in golden table")
}

#[test]
fn mlp_transcript_matches_pre_refactor_golden_plus_frame_tags() {
    for (name, scheme) in schemes() {
        let gamma = scheme.fragments().len() as u64;
        let bytes = mlp_total_bytes(0x41, scheme);
        assert_eq!(
            bytes,
            golden(&GOLDEN_MLP, name) + tag_overhead(gamma, 3, 2) + LINEAGE_TOKEN_DELTA,
            "MLP {name}: transcript must equal the v2 golden plus exactly \
             one tag byte per frame and the hellos' lineage tokens"
        );
    }
}

#[test]
fn cnn_transcript_matches_pre_refactor_golden_plus_handshake_and_tags() {
    for (name, scheme) in schemes() {
        let gamma = scheme.fragments().len() as u64;
        let bytes = cnn_total_bytes(0x42, scheme);
        assert_eq!(
            bytes,
            golden(&GOLDEN_CNN, name)
                + CNN_HANDSHAKE_DELTA
                + tag_overhead(gamma, 3, 3)
                + LINEAGE_TOKEN_DELTA,
            "CNN {name}: transcript must equal the v2 golden plus the \
             handshake delta plus exactly one tag byte per frame and the \
             hellos' lineage tokens"
        );
    }
}
