//! The paper's headline workload: the Fig-4 network (784→128→128→10) served
//! securely over LAN and WAN, comparing weight bitwidths — the scenario of
//! a diagnostic model served to a hospital that may not reveal patient
//! data, while the provider may not reveal the model.
//!
//! ```sh
//! cargo run --release --example mnist_inference
//! ```

use abnn2::core::inference::{SecureClient, SecureServer};
use abnn2::core::relu::ReluVariant;
use abnn2::math::{FragmentScheme, Ring};
use abnn2::net::{run_pair, NetworkModel};
use abnn2::nn::quant::{QuantConfig, QuantizedNetwork};
use abnn2::nn::{model::paper_network_dims, Network, SyntheticMnist};
use rand::SeedableRng;

fn main() {
    println!("Fig-4 network secure inference across weight bitwidths");
    println!("(training kept short; the protocol cost is what this example shows)\n");

    let data = SyntheticMnist::generate(800, 200, 11);
    let mut net = Network::new(&paper_network_dims(), 5);
    for _ in 0..2 {
        net.train_epoch(&data.train, 0.03);
    }
    println!("float test accuracy: {:.1}%\n", 100.0 * net.accuracy(&data.test));

    let schemes: [(&str, FragmentScheme, u32); 3] = [
        ("8-bit (2,2,2,2)", FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]), 4),
        ("4-bit (2,2)", FragmentScheme::signed_bit_fields(&[2, 2]), 2),
        ("ternary", FragmentScheme::ternary(), 0),
    ];

    let sample = data.test[0].clone();
    for (name, scheme, fw) in schemes {
        let config =
            QuantConfig { ring: Ring::new(32), frac_bits: 8, weight_frac_bits: fw, scheme };
        let q = QuantizedNetwork::quantize(&net, config);
        let acc = q.accuracy(&data.test[..50.min(data.test.len())]);
        for (setting, model) in
            [("LAN", NetworkModel::lan()), ("WAN 24.3MB/s 40ms", NetworkModel::wan_quotient())]
        {
            let server = SecureServer::for_model(q.clone()).with_variant(ReluVariant::Oblivious);
            let client = SecureClient::for_model(server.public_model());
            let input = sample.pixels.clone();
            let (_, logits, report) = run_pair(
                model,
                move |ch| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
                    server.run(ch, 1, &mut rng).expect("server");
                },
                move |ch| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(22);
                    client.run(ch, &[input], &mut rng).expect("client")
                },
            );
            let predicted = abnn2::nn::model::argmax(&logits[0]);
            println!(
                "{name:>16} | {setting:>17} | {:6.2}s simulated | {:7.2} MiB | class {predicted} | quant. acc {:.0}%",
                report.simulated_time().as_secs_f64(),
                report.total_mib(),
                100.0 * acc,
            );
        }
    }
    println!("\nSmaller bitwidth ⇒ fewer/cheaper OTs ⇒ less traffic and time, as in the paper.");
}
