//! Protocol behaviour across network conditions, and the optimized-ReLU
//! trade-off: how LAN/WAN latency and bandwidth shift the bottleneck
//! between the OT-heavy offline phase and the GC-heavy online phase. The
//! server runs the session driver every server runs; its offline/online
//! split is the driver's `online` mark.
//!
//! ```sh
//! cargo run --release --example network_settings
//! ```

use abnn2::core::driver::{drive_frames_with, DriverEffect};
use abnn2::core::inference::{SecureClient, SecureServer};
use abnn2::core::relu::ReluVariant;
use abnn2::math::{FragmentScheme, Ring};
use abnn2::net::{run_pair, NetworkModel};
use abnn2::nn::quant::{QuantConfig, QuantizedNetwork};
use abnn2::nn::{Network, SyntheticMnist};
use rand::SeedableRng;
use std::time::Duration;

fn main() {
    println!("Offline/online split across network settings (784-64-10 model, 4-bit weights)\n");
    let data = SyntheticMnist::generate(400, 50, 17);
    let mut net = Network::new(&[784, 64, 10], 9);
    net.train_epoch(&data.train, 0.05);
    let config = QuantConfig {
        ring: Ring::new(32),
        frac_bits: 8,
        weight_frac_bits: 2,
        scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
    };
    let q = QuantizedNetwork::quantize(&net, config);
    let sample = data.test[0].pixels.clone();

    let settings = [
        ("LAN (10 Gb/s, 0.2 ms)", NetworkModel::lan()),
        ("WAN (24.3 MB/s, 40 ms)", NetworkModel::wan_quotient()),
        ("WAN (9 MB/s, 72 ms)", NetworkModel::wan_secureml()),
    ];
    println!(
        "{:<26} {:>10} {:>12} {:>12} {:>12}",
        "setting", "variant", "offline (s)", "online (s)", "comm (MiB)"
    );
    for (name, model) in settings {
        for variant in [ReluVariant::Oblivious, ReluVariant::Optimized] {
            let server = SecureServer::for_model(q.clone()).with_variant(variant);
            let client = SecureClient::for_model(server.public_model()).with_variant(variant);
            let input = sample.clone();
            let (s_mid, c_mid, report) = run_pair(
                model,
                move |ch| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
                    let mut driver = server.driver(1, &mut rng).expect("driver");
                    let mut mid = None;
                    drive_frames_with(ch, &mut driver, |ch, effect| {
                        if matches!(effect, DriverEffect::Mark(label) if label == "online") {
                            mid = Some(ch.snapshot());
                        }
                        Ok(())
                    })
                    .expect("server");
                    mid.expect("the session reached its online phase")
                },
                move |ch| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
                    let state = client.offline(ch, 1, &mut rng).expect("offline");
                    let mid = ch.snapshot();
                    let _ = client.online(ch, state, &[input], &mut rng).expect("online");
                    mid
                },
            );
            let offline: Duration = s_mid.vtime.max(c_mid.vtime);
            let total = report.simulated_time();
            println!(
                "{:<26} {:>10} {:>12.3} {:>12.3} {:>12.2}",
                name,
                format!("{variant:?}"),
                offline.as_secs_f64(),
                total.saturating_sub(offline).as_secs_f64(),
                report.total_mib(),
            );
        }
    }
    println!("\nThe optimized ReLU trims online GC cost (at the price of leaking pre-activation");
    println!("signs); WAN latency dominates the online phase, bandwidth the offline phase.");
}
