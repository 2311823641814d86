//! Quickstart: train a small model, quantize it to 8 bits, and run one
//! secure prediction — verifying the client's logits match the plaintext
//! fixed-point pipeline exactly.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use abnn2::core::inference::{SecureClient, SecureServer};
use abnn2::math::{FragmentScheme, Ring};
use abnn2::net::{run_pair, NetworkModel};
use abnn2::nn::quant::{QuantConfig, QuantizedNetwork};
use abnn2::nn::{Network, SyntheticMnist};
use rand::SeedableRng;

fn main() {
    // 1. The server trains a model on its private data.
    println!("[1/4] training a 784-32-10 network on synthetic MNIST…");
    let data = SyntheticMnist::generate(1500, 300, 7);
    let mut net = Network::new(&[784, 32, 10], 1);
    for epoch in 0..4 {
        let loss = net.train_epoch(&data.train, 0.05);
        println!("      epoch {epoch}: loss {loss:.4}");
    }
    println!("      float test accuracy: {:.1}%", 100.0 * net.accuracy(&data.test));

    // 2. Quantize to arbitrary-bitwidth weights — here signed 8-bit,
    //    fragmented (2,2,2,2) for the 1-out-of-4 OTs.
    println!("[2/4] quantizing to 8-bit weights, fragmentation (2,2,2,2)…");
    let config = QuantConfig {
        ring: Ring::new(32),
        frac_bits: 8,
        weight_frac_bits: 4,
        scheme: FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]),
    };
    let quantized = QuantizedNetwork::quantize(&net, config);
    println!("      quantized test accuracy: {:.1}%", 100.0 * quantized.accuracy(&data.test));

    // 3. Secure two-party inference: the client never sees the weights, the
    //    server never sees the input or the result.
    println!("[3/4] running secure inference over a simulated LAN…");
    let sample = data.test[0].clone();
    let input = sample.pixels.clone();
    let server = SecureServer::for_model(quantized.clone());
    let client = SecureClient::for_model(server.public_model());
    let (_, logits, report) = run_pair(
        NetworkModel::lan(),
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(2);
            server.run(ch, 1, &mut rng).expect("server protocol failed");
        },
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            client.run(ch, &[input], &mut rng).expect("client protocol failed")
        },
    );
    println!(
        "      done: {:.2} MiB over the wire, {:.2}s simulated",
        report.total_mib(),
        report.simulated_time().as_secs_f64()
    );

    // 4. The secure result equals the plaintext fixed-point result exactly.
    println!("[4/4] verifying against the plaintext pipeline…");
    let plain = quantized.forward(&sample.pixels);
    let secure = &logits[0];
    assert_eq!(plain, *secure, "secure and plaintext logits must be identical");
    let predicted = abnn2::nn::model::argmax(secure);
    println!(
        "      predicted class {predicted} (true label {}), logits match exactly ✓",
        sample.label
    );
}
