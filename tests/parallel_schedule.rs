//! Golden-transcript pin for the parallel offline schedule.
//!
//! `ExecConfig::threads` shards exactly one thing: the triplet mask work
//! in `core::matmul::run_sharded` (decoding on the server, packing on the
//! client). Nothing below `core` is threaded. The frames a session emits,
//! their order, and every payload byte must be identical for any thread
//! count. This suite records the exact byte stream each party sends during
//! a full session and asserts the multi-threaded transcript equals the
//! single-threaded one, for an MLP (4160 fragment OTs per group in the
//! first layer, so every shard has real work) and for a transformer graph
//! (matrix-triple offline phase, which takes no threads at all and must
//! not notice the setting).

use abnn2::core::{ExecConfig, SecureClient, SecureServer};
use abnn2::math::{FragmentScheme, Ring};
use abnn2::net::{CommSnapshot, Endpoint, NetworkModel, Transport, TransportError};
use abnn2::nn::quant::{QuantConfig, QuantizedNetwork};
use abnn2::nn::transformer::QuantizedTransformer;
use abnn2::nn::Network;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Transport decorator that keeps a copy of every payload this party
/// sends, in order. Receives and all control calls forward untouched.
struct RecordingTransport<T> {
    inner: T,
    sent: Vec<Vec<u8>>,
}

impl<T: Transport> RecordingTransport<T> {
    fn new(inner: T) -> Self {
        RecordingTransport { inner, sent: Vec::new() }
    }
}

impl<T: Transport> Transport for RecordingTransport<T> {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.sent.push(payload.to_vec());
        self.inner.send(payload)
    }

    fn send_owned(&mut self, payload: Vec<u8>) -> Result<(), TransportError> {
        self.sent.push(payload.clone());
        self.inner.send_owned(payload)
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        self.inner.recv()
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        self.inner.flush()
    }

    fn snapshot(&self) -> CommSnapshot {
        self.inner.snapshot()
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_read_timeout(timeout)
    }

    fn set_phase_budget(&mut self, budget: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_phase_budget(budget)
    }

    fn mark_phase(&mut self, label: &str) {
        self.inner.mark_phase(label);
    }

    fn take_scratch(&mut self) -> Vec<u8> {
        self.inner.take_scratch()
    }

    fn store_scratch(&mut self, buf: Vec<u8>) {
        self.inner.store_scratch(buf);
    }
}

/// Asserts two recorded transcripts are byte-identical, frame by frame,
/// with a diagnostic naming the first diverging frame.
fn assert_transcripts_equal(party: &str, base: &[Vec<u8>], par: &[Vec<u8>]) {
    assert_eq!(base.len(), par.len(), "{party}: frame count changed under the parallel schedule");
    for (i, (a, b)) in base.iter().zip(par).enumerate() {
        assert_eq!(
            a,
            b,
            "{party}: frame {i} (tag {:#04x}) diverges between threads=1 and threads=4",
            a.first().copied().unwrap_or(0)
        );
    }
}

/// One full MLP session under `threads` workers; returns (server-sent,
/// client-sent) transcripts, asserting logits against the plaintext
/// oracle on the way. The 260→16 first layer yields 4160 fragment OTs
/// per group for `run_sharded` to split when `threads > 1`.
fn mlp_transcripts(threads: usize) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let net = Network::new(&[260, 16, 4], 0x51);
    let config = QuantConfig {
        ring: Ring::new(32),
        frac_bits: 8,
        weight_frac_bits: 2,
        scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
    };
    let q = QuantizedNetwork::quantize(&net, config);
    let ring = q.config.ring;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x52);
    let input: Vec<u64> = (0..260).map(|_| ring.reduce(rng.gen_range(0..1u64 << 10))).collect();
    let expected = q.forward_exact(&input);

    let exec = ExecConfig::new().with_threads(threads);
    let client = SecureClient::for_model(&q).with_exec(exec);
    let server = SecureServer::for_model(q).with_exec(exec);
    let (server_ep, client_ep) = Endpoint::pair(NetworkModel::instant());
    let mut sch = RecordingTransport::new(server_ep);
    let mut cch = RecordingTransport::new(client_ep);
    let server_sent = std::thread::scope(|scope| {
        let handle = scope.spawn(move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x53);
            server.run(&mut sch, 1, &mut rng).expect("server");
            sch.sent
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x54);
        let state = client.offline(&mut cch, 1, &mut rng).expect("offline");
        let y = client
            .online_raw(&mut cch, state, std::slice::from_ref(&input), &mut rng)
            .expect("online");
        assert_eq!(y.col(0), expected, "MLP logits diverge from forward_exact");
        handle.join().expect("server thread")
    });
    (server_sent, cch.sent)
}

/// One full transformer session under `threads` workers; returns
/// (server-sent, client-sent) transcripts, logits asserted bit-exact.
fn transformer_transcripts(threads: usize) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let config = QuantConfig {
        ring: Ring::new(16),
        frac_bits: 6,
        weight_frac_bits: 2,
        scheme: FragmentScheme::optimal(4),
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x61);
    let model = QuantizedTransformer::random(4, 4, 8, 3, config, &mut rng).expect("transformer");
    let x: Vec<u64> = (0..model.seq * model.d)
        .map(|_| model.config.ring.reduce(rng.gen_range(-64i64..64) as u64))
        .collect();
    let expected = model.forward_exact(&x);

    let exec = ExecConfig::new().with_threads(threads);
    let server = SecureServer::for_model(model.clone()).with_exec(exec);
    let client = SecureClient::for_model(&model).with_exec(exec);
    let (server_ep, client_ep) = Endpoint::pair(NetworkModel::instant());
    let mut sch = RecordingTransport::new(server_ep);
    let mut cch = RecordingTransport::new(client_ep);
    let server_sent = std::thread::scope(|scope| {
        let handle = scope.spawn(move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x62);
            server.run(&mut sch, 1, &mut rng).expect("server");
            sch.sent
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x63);
        let state = client.offline(&mut cch, 1, &mut rng).expect("offline");
        let y =
            client.online_raw(&mut cch, state, std::slice::from_ref(&x), &mut rng).expect("online");
        assert_eq!(y.col(0), expected, "transformer logits diverge from forward_exact");
        handle.join().expect("server thread")
    });
    (server_sent, cch.sent)
}

#[test]
fn mlp_parallel_offline_schedule_is_byte_identical() {
    let (srv1, cli1) = mlp_transcripts(1);
    let (srv4, cli4) = mlp_transcripts(4);
    assert!(!srv1.is_empty() && !cli1.is_empty(), "recorder saw no traffic");
    assert_transcripts_equal("MLP server", &srv1, &srv4);
    assert_transcripts_equal("MLP client", &cli1, &cli4);
}

#[test]
fn transformer_parallel_offline_schedule_is_byte_identical() {
    let (srv1, cli1) = transformer_transcripts(1);
    let (srv4, cli4) = transformer_transcripts(4);
    assert!(!srv1.is_empty() && !cli1.is_empty(), "recorder saw no traffic");
    assert_transcripts_equal("transformer server", &srv1, &srv4);
    assert_transcripts_equal("transformer client", &cli1, &cli4);
}
