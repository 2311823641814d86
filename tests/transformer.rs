//! Transformer inference over the generalized op pipeline: secret×secret
//! matmul (matrix Beaver triplets), softmax, GELU, and layer-norm served
//! end-to-end, checked bit-for-bit against the plaintext fixed-point
//! oracle across fragment bitwidths, and warm from the precompute pool
//! with zero offline-phase bytes.

use abnn2::core::PublicModel;
use abnn2::core::{SecureClient, SecureServer, SessionDeadlines};
use abnn2::math::{FragmentScheme, Ring};
use abnn2::net::{run_pair, NetworkModel};
use abnn2::nn::quant::QuantConfig;
use abnn2::nn::transformer::QuantizedTransformer;
use abnn2::serve::{ServeClient, ServeConfig, Server};
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// A small but complete encoder block: 4 tokens of width 4, feed-forward
/// width 8, 3 output classes — every extended op kind (two secret×secret
/// matmuls, softmax, GELU, two layer-norms) on the execution path.
fn tiny_transformer(eta: u32, seed: u64) -> QuantizedTransformer {
    let scheme = FragmentScheme::optimal(eta);
    let config = QuantConfig { ring: Ring::new(16), frac_bits: 6, weight_frac_bits: 2, scheme };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    QuantizedTransformer::random(4, 4, 8, 3, config, &mut rng).expect("valid transformer")
}

fn sample_tokens(model: &QuantizedTransformer, seed: u64) -> Vec<u64> {
    let ring = model.config.ring;
    let f = model.config.frac_bits;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    // Signed activations in roughly [-1, 1) at `f` fractional bits.
    (0..model.seq * model.d)
        .map(|_| ring.reduce((rng.gen_range(-(1i64 << f)..1i64 << f)) as u64))
        .collect()
}

fn fast_deadlines() -> SessionDeadlines {
    SessionDeadlines::uniform(Duration::from_secs(30))
}

/// The interactive path (Gilboa matrix-triple generation in the offline
/// phase, GC-lowered nonlinearities online) reproduces the plaintext
/// fixed-point oracle exactly, at every supported fragment bitwidth.
#[test]
fn transformer_logits_match_oracle_across_bitwidths() {
    for eta in [2u32, 3, 4, 8] {
        let model = tiny_transformer(eta, 300 + u64::from(eta));
        let x = sample_tokens(&model, 310 + u64::from(eta));
        let expected = model.forward_exact(&x);

        let server = SecureServer::for_model(model.clone());
        let client = SecureClient::for_model(&model);
        let input = x.clone();
        let (_, y, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(320);
                server.run(ch, 1, &mut rng).expect("server");
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(321);
                let state = client.offline(ch, 1, &mut rng).expect("offline");
                client.online_raw(ch, state, &[input], &mut rng).expect("online")
            },
        );
        assert_eq!(y.col(0), expected, "eta {eta}: secure logits must equal forward_exact");
    }
}

/// A transformer rides the same precompute pool as MLPs and CNNs: the
/// dealer thread manufactures graph-keyed bundles whose matrix-triple
/// sections cover both secret×secret matmuls, and a warm request skips
/// the interactive offline phase entirely. The cold (bundle-declined)
/// path agrees bit-for-bit, proving dealer and Gilboa triples are
/// interchangeable.
#[test]
fn warm_pool_serves_transformer_with_zero_offline_bytes() {
    let model = tiny_transformer(3, 330);
    let x = sample_tokens(&model, 331);
    let expected = model.forward_exact(&x);
    let info = PublicModel::from(&model);
    let config = ServeConfig {
        workers: 2,
        pool_depth: 2,
        pool_batches: vec![1],
        deadlines: fast_deadlines(),
        ..ServeConfig::default()
    };
    let server = Server::start(model, "127.0.0.1:0", config).expect("start server");
    assert!(
        server.warm_up(1, 1, Duration::from_secs(30)),
        "pool must produce a transformer bundle for batch 1"
    );

    let client = ServeClient::for_model(info.clone()).with_deadlines(fast_deadlines());
    let mut rng = rand::rngs::StdRng::seed_from_u64(332);
    let (y, report) =
        client.run(server.addr(), std::slice::from_ref(&x), &mut rng).expect("warm request");
    assert_eq!(y.col(0), expected, "served transformer logits must equal forward_exact");
    assert!(report.warm, "pool was warmed, request must ride a bundle");
    assert_eq!(
        report.phase("offline").total_bytes(),
        0,
        "warm transformer path must move zero offline-phase bytes, got {:?}",
        report.phase("offline")
    );
    assert!(report.phase("bundle").bytes_received > 0, "client must receive its bundle half");
    assert!(report.phase("online").total_bytes() > 0);
    assert!(server.metrics().pool.hits >= 1, "pool must record the warm hit");

    // Cold request: interactive matrix-triple generation, identical logits.
    let cold_client =
        ServeClient::for_model(info).with_deadlines(fast_deadlines()).with_bundles(false);
    let (y2, cold) = cold_client.run(server.addr(), &[x], &mut rng).expect("cold request");
    assert_eq!(y2.col(0), expected, "cold and warm paths must agree bit-for-bit");
    assert!(!cold.warm);
    assert!(cold.phase("offline").total_bytes() > 0);
}
