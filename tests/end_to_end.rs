//! Cross-crate integration: the full secure-inference pipeline against the
//! plaintext oracle, and agreement between ABNN² and both end-to-end
//! baselines on identical models and inputs.

use abnn2::core::inference::{SecureClient, SecureServer};
use abnn2::core::relu::ReluVariant;
use abnn2::math::{FragmentScheme, Ring};
use abnn2::net::{run_pair, NetworkModel};
use abnn2::nn::quant::{QuantConfig, QuantizedNetwork};
use abnn2::nn::{Network, SyntheticMnist};
use rand::SeedableRng;

fn trained_quantized(
    scheme: FragmentScheme,
    fw: u32,
    ring_bits: u32,
    seed: u64,
) -> QuantizedNetwork {
    let data = SyntheticMnist::generate(100, 0, seed);
    let mut net = Network::new(&[784, 10, 8, 10], seed);
    net.train_epoch(&data.train, 0.05);
    let config =
        QuantConfig { ring: Ring::new(ring_bits), frac_bits: 8, weight_frac_bits: fw, scheme };
    QuantizedNetwork::quantize(&net, config)
}

fn inputs_fp(q: &QuantizedNetwork, batch: usize, seed: u64) -> Vec<Vec<u64>> {
    let data = SyntheticMnist::generate(batch, 0, seed);
    let codec = q.config.activation_codec();
    data.train.iter().map(|s| codec.encode_vec(&s.pixels)).collect()
}

fn run_abnn2(
    q: &QuantizedNetwork,
    inputs: &[Vec<u64>],
    variant: ReluVariant,
    seed: u64,
) -> Vec<Vec<u64>> {
    let batch = inputs.len();
    let server = SecureServer::for_model(q.clone()).with_variant(variant);
    let client = SecureClient::for_model(server.public_model()).with_variant(variant);
    let inputs2 = inputs.to_vec();
    let (_, y, _) = run_pair(
        NetworkModel::instant(),
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            server.run(ch, batch, &mut rng).expect("server");
        },
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
            let state = client.offline(ch, batch, &mut rng).expect("offline");
            client.online_raw(ch, state, &inputs2, &mut rng).expect("online")
        },
    );
    (0..batch).map(|k| y.col(k)).collect()
}

#[test]
fn secure_inference_matches_oracle_across_schemes_and_rings() {
    for (scheme, fw, ring_bits) in [
        (FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]), 4, 32),
        (FragmentScheme::signed_bit_fields(&[3, 3, 2]), 4, 32),
        (FragmentScheme::signed_bit_fields(&[2, 1]), 2, 64),
        (FragmentScheme::ternary(), 0, 32),
        (FragmentScheme::binary(), 0, 32),
    ] {
        let label = scheme.label();
        let q = trained_quantized(scheme, fw, ring_bits, 100);
        let inputs = inputs_fp(&q, 2, 101);
        let expected: Vec<Vec<u64>> = inputs.iter().map(|x| q.forward_exact(x)).collect();
        let got = run_abnn2(&q, &inputs, ReluVariant::Oblivious, 102);
        assert_eq!(got, expected, "scheme {label} ring {ring_bits}");
    }
}

#[test]
fn optimized_and_oblivious_relu_agree() {
    let q = trained_quantized(FragmentScheme::signed_bit_fields(&[2, 2]), 2, 32, 110);
    let inputs = inputs_fp(&q, 3, 111);
    let a = run_abnn2(&q, &inputs, ReluVariant::Oblivious, 112);
    let b = run_abnn2(&q, &inputs, ReluVariant::Optimized, 113);
    assert_eq!(a, b);
}

/// One served model, many sessions: the model lowers each activation once
/// per variant and every later session widens that circuit to what it needs
/// — its batch under Algorithm 2, the neurons of both phases under the
/// optimized ReLU, where the second phase's width depends on the data and
/// is zero when a layer has no non-negative neuron — and a session resumed
/// after a cut walks the same slots.
#[test]
fn one_model_serves_every_variant_batch_and_a_resume_bit_exact() {
    use abnn2::core::resilient::{ResilientClient, ResilientServer};
    use abnn2::core::{ServedModel, SessionDeadlines};
    use abnn2::net::{sim_link, Fault, FaultyTransport, RetryPolicy};
    use abnn2::nn::quant::QuantizedDense;
    use std::time::Duration;

    // 6 → 5 → 4 → 3 with an all-negative first layer: any non-negative
    // input leaves ReLU 1 without a single survivor.
    let scheme = FragmentScheme::signed_bit_fields(&[2, 2]);
    let (lo, hi) = scheme.weight_range();
    let dense = |out_dim: usize, in_dim: usize, weight: &dyn Fn(usize) -> i64| QuantizedDense {
        out_dim,
        in_dim,
        weights: (0..out_dim * in_dim).map(weight).collect(),
        bias: (0..out_dim as u64).collect(),
    };
    let q = QuantizedNetwork {
        config: QuantConfig { ring: Ring::new(32), frac_bits: 8, weight_frac_bits: 2, scheme },
        layers: vec![
            dense(5, 6, &|_| lo),
            dense(4, 5, &|i| lo + (i as i64 * 5) % (hi - lo + 1)),
            dense(3, 4, &|i| hi - (i as i64 * 3) % (hi - lo + 1)),
        ],
    };
    let ring = q.config.ring;
    let dead: Vec<u64> = vec![300, 1 << 8, 77, 1 << 9, 5, 260];
    let mixed: Vec<u64> = [-300i64, 40, -(1 << 9), 0, -7, 512].map(|v| ring.from_i64(v)).to_vec();
    let first = &q.layers[0];
    let pre = |x: &[u64], row: usize| -> i64 {
        let dot: i64 = (0..6).map(|j| first.weights[row * 6 + j] * ring.to_i64(x[j])).sum();
        dot + first.bias[row] as i64
    };
    assert!((0..5).all(|row| pre(&dead, row) < 0), "no neuron of ReLU 1 survives `dead`");
    assert!((0..5).any(|row| pre(&mixed, row) >= 0), "some survive `mixed`");

    let served: ServedModel = q.clone().into();
    let run = |variant: ReluVariant, inputs: &[Vec<u64>], seed: u64| {
        let batch = inputs.len();
        let server = SecureServer::for_model(served.clone()).with_variant(variant);
        let client = SecureClient::for_model(server.public_model()).with_variant(variant);
        let (_, y, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                server.run(ch, batch, &mut rng).expect("server");
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
                let state = client.offline(ch, batch, &mut rng).expect("offline");
                client.online_raw(ch, state, inputs, &mut rng).expect("online")
            },
        );
        for (k, x) in inputs.iter().enumerate() {
            assert_eq!(y.col(k), q.forward_exact(x), "{variant:?}, batch {batch}, sample {k}");
        }
    };
    run(ReluVariant::Oblivious, std::slice::from_ref(&mixed), 150);
    run(ReluVariant::Optimized, std::slice::from_ref(&dead), 152);
    run(ReluVariant::Oblivious, &[dead.clone(), mixed.clone(), dead.clone()], 154);
    run(ReluVariant::Optimized, &[mixed.clone(), dead.clone()], 156);
    run(ReluVariant::Optimized, std::slice::from_ref(&mixed), 158);

    // Cut the link in the online phase; the retry resumes from the
    // checkpoint over the same model.
    let deadlines = SessionDeadlines::uniform(Duration::from_secs(2));
    let (dialer, listener) = sim_link(NetworkModel::instant());
    let server = ResilientServer::new(SecureServer::for_model(served.clone()))
        .with_policy(RetryPolicy::no_delay(3))
        .with_deadlines(deadlines);
    let client = ResilientClient::new(SecureClient::for_model(served.public()))
        .with_policy(RetryPolicy::no_delay(3))
        .with_deadlines(deadlines);
    std::thread::scope(|scope| {
        let srv = scope.spawn(move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(160);
            server.serve_one_with(
                |_| {
                    listener
                        .accept_timeout(Duration::from_secs(5))
                        .map(|ep| FaultyTransport::new(ep, Fault::None))
                },
                |ch, attempt| {
                    if attempt == 0 {
                        ch.set_fault(Fault::CutAfterMessages(ch.sends() + 2));
                    }
                },
                &mut rng,
            )
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(161);
        let inputs = [mixed.clone()];
        let (y, report) = client.run_raw(|_| dialer.dial(), &inputs, &mut rng).expect("client");
        assert_eq!(y.col(0), q.forward_exact(&mixed), "resumed logits");
        assert!(report.resumed, "got {report:?}");
        assert!(srv.join().expect("server thread").expect("server").resumed);
    });
}

#[test]
fn abnn2_and_minionn_produce_identical_predictions() {
    use abnn2::baselines::minionn::{MinionnClient, MinionnServer};
    let q = trained_quantized(FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]), 4, 32, 120);
    let inputs = inputs_fp(&q, 2, 121);
    let expected: Vec<Vec<u64>> = inputs.iter().map(|x| q.forward_exact(x)).collect();
    let ours = run_abnn2(&q, &inputs, ReluVariant::Oblivious, 122);
    assert_eq!(ours, expected);

    // MiniONN's offline phase hands its triplets to the same online engine,
    // so both activation variants come with it.
    for variant in [ReluVariant::Oblivious, ReluVariant::Optimized] {
        let server = MinionnServer::new(q.clone(), 256).with_variant(variant);
        let client = MinionnClient::new(server.public_model(), 256).with_variant(variant);
        let inputs2 = inputs.clone();
        let (_, y, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(123);
                server.run(ch, 2, &mut rng).expect("server");
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(124);
                client.run(ch, &inputs2, &mut rng).expect("client")
            },
        );
        let theirs: Vec<Vec<u64>> = (0..2).map(|k| y.col(k)).collect();
        assert_eq!(ours, theirs, "two different offline protocols, same function ({variant:?})");
    }
}

#[test]
fn abnn2_and_quotient_produce_identical_predictions_on_ternary() {
    use abnn2::baselines::quotient::{QuotientClient, QuotientServer};
    let q = trained_quantized(FragmentScheme::ternary(), 0, 32, 130);
    let inputs = inputs_fp(&q, 2, 131);
    let ours = run_abnn2(&q, &inputs, ReluVariant::Oblivious, 132);

    let server = QuotientServer::new(q.clone());
    let client = QuotientClient::new(server.public_model());
    let inputs2 = inputs.clone();
    let (_, y, _) = run_pair(
        NetworkModel::instant(),
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(133);
            server.run(ch, 2, &mut rng).expect("server");
        },
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(134);
            client.run(ch, &inputs2, &mut rng).expect("client")
        },
    );
    let theirs: Vec<Vec<u64>> = (0..2).map(|k| y.col(k)).collect();
    assert_eq!(ours, theirs);
    let expected: Vec<Vec<u64>> = inputs.iter().map(|x| q.forward_exact(x)).collect();
    assert_eq!(theirs, expected);
}

#[test]
fn logits_track_plaintext_classification() {
    let q = trained_quantized(FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]), 4, 32, 140);
    let data = SyntheticMnist::generate(3, 0, 141);
    let inputs: Vec<Vec<f64>> = data.train.iter().map(|s| s.pixels.clone()).collect();
    let server = SecureServer::for_model(q.clone());
    let client = SecureClient::for_model(server.public_model());
    let inputs2 = inputs.clone();
    let (_, logits, _) = run_pair(
        NetworkModel::instant(),
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(142);
            server.run(ch, 3, &mut rng).expect("server");
        },
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(143);
            client.run(ch, &inputs2, &mut rng).expect("client")
        },
    );
    for (k, input) in inputs.iter().enumerate() {
        assert_eq!(abnn2::nn::model::argmax(&logits[k]), q.predict(input), "sample {k}");
    }
}
