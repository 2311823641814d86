//! Reconnect-and-resume over real TCP: a connection dies mid-online-phase
//! and the prediction still completes, bit-identical to an uninterrupted
//! run.
//!
//! One process, two threads, one localhost socket per connection attempt:
//!
//! * the **server** thread serves a single prediction job through
//!   [`ResilientServer`] — a reconnect loop around the same
//!   `SessionDriver` every server entry point runs. On the first attempt
//!   its hook (fired when the driver marks the online phase) arms a
//!   [`Fault`] that cuts the connection two messages into the online
//!   phase — after the expensive offline triplet generation has
//!   completed and been checkpointed.
//! * the **client** (main thread) drives [`ServeClient::run_with`] — the
//!   one reconnecting client, a reconnect loop around
//!   `SecureClient::run_job` over any dialer (here one that prints each
//!   attempt and connects a fresh socket): when the cut hits, it
//!   backs off, reconnects, re-handshakes presenting its session-resume
//!   token, sets up a fresh Yao half (one base-OT batch; the cut
//!   session's OT-extension state is forfeit, and a resumed session has
//!   no use for a fragment half), and replays the online phase against
//!   the checkpointed triplets.
//!
//! The final logits are asserted equal to
//! [`QuantizedNetwork::forward_exact`] — the resumed run is
//! indistinguishable, output-wise, from a run that never failed.
//!
//! ```sh
//! cargo run --release --example tcp_resilient
//! ```

use abnn2::core::inference::SecureServer;
use abnn2::core::resilient::ResilientServer;
use abnn2::core::SessionDeadlines;
use abnn2::math::{FragmentScheme, Ring};
use abnn2::net::{Fault, FaultyTransport, RetryPolicy, TcpTransport, TransportError};
use abnn2::nn::quant::{QuantConfig, QuantizedNetwork};
use abnn2::nn::{Network, SyntheticMnist};
use abnn2::serve::ServeClient;
use rand::SeedableRng;
use std::net::TcpListener;
use std::time::Duration;

fn build_model() -> QuantizedNetwork {
    let data = SyntheticMnist::generate(100, 0, 700);
    let mut net = Network::new(&[784, 10, 8, 10], 700);
    net.train_epoch(&data.train, 0.05);
    QuantizedNetwork::quantize(
        &net,
        QuantConfig {
            ring: Ring::new(32),
            frac_bits: 8,
            weight_frac_bits: 4,
            scheme: FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]),
        },
    )
}

fn main() {
    let q = build_model();
    let sample = &SyntheticMnist::generate(1, 0, 701).train[0];
    let input = q.config.activation_codec().encode_vec(&sample.pixels);
    let expected = q.forward_exact(&input);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    println!("listening on {addr}");

    let deadlines = SessionDeadlines::uniform(Duration::from_secs(10));
    let policy = RetryPolicy {
        max_attempts: 4,
        base_delay: Duration::from_millis(50),
        max_delay: Duration::from_secs(1),
    };

    let server = ResilientServer::new(SecureServer::for_model(q.clone()))
        .with_policy(policy)
        .with_deadlines(deadlines);

    let server_thread = std::thread::spawn(move || {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        server.serve_one_with(
            |attempt| {
                let (stream, peer) = listener.accept().map_err(|_| TransportError::Closed)?;
                println!("[server] attempt {attempt}: accepted {peer}");
                Ok(FaultyTransport::new(TcpTransport::from_stream(stream)?, Fault::None))
            },
            |ch, attempt| {
                if attempt == 0 {
                    // Sabotage the first attempt: kill the connection two
                    // messages into the online phase, *after* the offline
                    // triplets were generated and checkpointed.
                    println!("[server] attempt 0: arming mid-online connection cut");
                    ch.set_fault(Fault::CutAfterMessages(ch.sends() + 2));
                }
            },
            &mut rng,
        )
    });

    let client = ServeClient::for_model(&q)
        .with_bundles(false)
        .with_policy(policy)
        .with_deadlines(deadlines);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let (y, report) = client
        .run_with(
            |attempt| {
                println!("[client] attempt {attempt}: connecting");
                TcpTransport::connect(addr)
            },
            std::slice::from_ref(&input),
            &mut rng,
        )
        .expect("resilient client failed");

    let server_report = server_thread.join().expect("server thread").expect("server failed");

    println!("[client] attempts: {}, resumed: {}", report.attempts, report.resumed);
    println!("[server] attempts: {}, resumed: {}", server_report.attempts, server_report.resumed);
    println!("[client] logits:        {:?}", y.col(0));
    println!("[client] forward_exact: {expected:?}");

    assert!(report.attempts >= 2, "the cut must have forced a reconnect");
    assert!(report.resumed, "the client must have resumed from its checkpoint");
    assert!(server_report.resumed, "the server must have accepted the resume token");
    assert_eq!(y.col(0), expected, "resumed logits must equal forward_exact bit-for-bit");
    println!("reconnect-and-resume verified: logits bit-identical after mid-online cut ✓");
}
