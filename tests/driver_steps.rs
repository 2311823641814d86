//! The session driver runs every op once, however its inbound frames are
//! cut up.
//!
//! For an MLP, a CNN and an encoder block, over both offline modes, cold
//! and with a dealt bundle: one live session through `drive_frames`
//! records the server's inbound frames and the frames it sent; fresh
//! drivers from the same seed are then fed those frames with no peer —
//! all at once, one per park, and in seeded random groups — and must send
//! the same bytes in the same order and finish. The pre-filled inbox must
//! finish inside a single `step()`, and the one-frame-per-park feed, the
//! worst case for a replaying driver, must stay inside a fixed budget of
//! frames re-read (under whole-phase replay that ratio grew with the
//! number of frames in a phase).

use abnn2::core::driver::{drive_frames, DriverEffect, DriverStep, SessionDriver, SessionHost};
use abnn2::core::{
    dealer_bundle_for, ClientBundle, ClientJob, OfflineMode, ReplayCounters, ResumeToken,
    SecureClient, SecureServer, ServedModel, ServerBundle, SessionDeadlines, SessionParams,
};
use abnn2::math::{FragmentScheme, Ring};
use abnn2::net::{CommSnapshot, Endpoint, NetworkModel, Transport, TransportError};
use abnn2::nn::quant::{QuantConfig, QuantizedDense, QuantizedNetwork};
use abnn2::nn::transformer::QuantizedTransformer;
use abnn2::nn::{ConvShape, Network, QuantizedCnn, QuantizedConv};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const DRIVER_SEED: u64 = 0xD51;
const DEALER_SEED: u64 = 0xDEA;

fn mlp() -> (ServedModel, Vec<u64>, Vec<u64>) {
    let config = QuantConfig {
        ring: Ring::new(32),
        frac_bits: 8,
        weight_frac_bits: 2,
        scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
    };
    let net = QuantizedNetwork::quantize(&Network::new(&[12, 8, 6, 4], 900), config);
    let x: Vec<u64> = (0..12).map(|j| (j * 37 + 5) & 0xFFF).collect();
    let y = net.forward_exact(&x);
    (net.into(), x, y)
}

fn cnn() -> (ServedModel, Vec<u64>, Vec<u64>) {
    let scheme = FragmentScheme::signed_bit_fields(&[2, 2]);
    let mut rng = StdRng::seed_from_u64(901);
    let (lo, hi) = scheme.weight_range();
    let mut weights = |n: usize| (0..n).map(|_| rng.gen_range(lo..=hi)).collect::<Vec<i64>>();
    let in_shape = ConvShape { channels: 1, height: 6, width: 6 };
    // conv 2×(3×3) → 2×4×4 → pool 2 → 2×2×2 = 8 → dense 8→4→3.
    let conv = QuantizedConv {
        out_channels: 2,
        in_shape,
        kh: 3,
        kw: 3,
        stride: 1,
        weights: weights(2 * 9),
        bias: vec![5, 3],
    };
    let dense = [(4usize, 8usize), (3, 4)]
        .map(|(out_dim, in_dim)| QuantizedDense {
            out_dim,
            in_dim,
            weights: weights(out_dim * in_dim),
            bias: (0..out_dim as u64).collect(),
        })
        .to_vec();
    let config = QuantConfig { ring: Ring::new(32), frac_bits: 6, weight_frac_bits: 2, scheme };
    let net = QuantizedCnn { config, conv, pool_window: 2, dense };
    let x: Vec<u64> = (0..in_shape.len() as u64).map(|j| (j * 11 + 3) & 0x3F).collect();
    let y = net.forward_exact(&x);
    (net.into(), x, y)
}

fn encoder() -> (ServedModel, Vec<u64>, Vec<u64>) {
    let config = QuantConfig {
        ring: Ring::new(16),
        frac_bits: 6,
        weight_frac_bits: 2,
        scheme: FragmentScheme::optimal(3),
    };
    let mut rng = StdRng::seed_from_u64(902);
    let model = QuantizedTransformer::random(3, 4, 5, 3, config, &mut rng).expect("valid encoder");
    let (ring, f) = (model.config.ring, model.config.frac_bits);
    let x: Vec<u64> = (0..model.seq * model.d)
        .map(|_| ring.reduce(rng.gen_range(-(1i64 << f)..1i64 << f) as u64))
        .collect();
    let y = model.forward_exact(&x);
    (model.into(), x, y)
}

/// Fixed parameters, no resume; deals one bundle from a fixed seed when
/// `deal` is set, so every driver of a case deals the same pair.
struct Host {
    server: Arc<SecureServer>,
    deal: bool,
}

impl SessionHost for Host {
    fn params_for(&self, batch: usize) -> SessionParams {
        self.server.params_for(batch)
    }
    fn claim_checkpoint(&self, _token: &ResumeToken) -> Option<ServerBundle> {
        None
    }
    fn take_bundle(
        &self,
        params: &SessionParams,
        _mode: OfflineMode,
    ) -> Option<(ServerBundle, ClientBundle)> {
        self.deal.then(|| {
            let sg = self.server.model().secure_graph(params.batch as usize).expect("batch");
            dealer_bundle_for(self.server.model(), &sg, &mut StdRng::seed_from_u64(DEALER_SEED))
        })
    }
}

fn new_driver(server: &Arc<SecureServer>, deal: bool) -> SessionDriver<Host> {
    let host = Host { server: Arc::clone(server), deal };
    SessionDriver::new(Arc::clone(server), host, StdRng::seed_from_u64(DRIVER_SEED))
}

/// Keeps a copy of every frame the server receives.
struct Recording {
    inner: Endpoint,
    inbox: Vec<Vec<u8>>,
}

impl Transport for Recording {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.inner.send(payload)
    }
    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        let frame = self.inner.recv()?;
        self.inbox.push(frame.clone());
        Ok(frame)
    }
    fn snapshot(&self) -> CommSnapshot {
        self.inner.snapshot()
    }
}

fn sends(effects: Vec<DriverEffect>) -> impl Iterator<Item = Vec<u8>> {
    effects.into_iter().filter_map(|e| match e {
        DriverEffect::Send(bytes) => Some(bytes),
        _ => None,
    })
}

/// Runs a fresh driver with no peer, feeding it `group()` more recorded
/// frames before each `step()`. Returns what it sent, how many `step()`
/// calls it took, and its counters.
fn replay(
    server: &Arc<SecureServer>,
    deal: bool,
    inbox: &[Vec<u8>],
    mut group: impl FnMut() -> usize,
) -> (Vec<Vec<u8>>, usize, ReplayCounters) {
    let mut driver = new_driver(server, deal);
    let mut frames = inbox.iter();
    let (mut sent, mut steps) = (Vec::new(), 0);
    loop {
        frames.by_ref().take(group().max(1)).for_each(|f| driver.feed(f.clone()));
        let step = driver.step();
        steps += 1;
        sent.extend(sends(driver.take_effects()));
        match step {
            DriverStep::Done => break,
            DriverStep::Failed(e) => panic!("replayed session failed: {e}"),
            DriverStep::NeedRecv => {}
        }
    }
    assert!(frames.next().is_none(), "the session finished without reading every frame");
    (sent, steps, driver.replay_counters())
}

fn check_case(name: &str, model: &(ServedModel, Vec<u64>, Vec<u64>), silent: bool, deal: bool) {
    let what = format!("{name}, silent {silent}, dealt {deal}");
    let (served, x, expected) = model;
    let server = Arc::new(SecureServer::for_model(served.clone()));
    let client = SecureClient::for_model(server.public_model()).with_silent(silent);

    // Live: a real client against the driver, one frame fed per park.
    let (sch, mut cch) = Endpoint::pair(NetworkModel::instant());
    let (live_sent, inbox, live_stats) = std::thread::scope(|scope| {
        let served = scope.spawn(|| {
            let mut ch = Recording { inner: sch, inbox: Vec::new() };
            let mut sent = Vec::new();
            let stats = drive_frames(&mut ch, &mut new_driver(&server, deal), |effect| {
                if let DriverEffect::Send(bytes) = effect {
                    sent.push(bytes.clone());
                }
            })
            .expect("live server");
            (sent, ch.inbox, stats)
        });
        let mut job = ClientJob::new([7; 16], deal, SessionDeadlines::default());
        let y = client
            .run_job(&mut cch, std::slice::from_ref(x), &mut job, &mut StdRng::seed_from_u64(903))
            .expect("live client");
        assert_eq!(&y.col(0), expected, "{what}: live logits must be bit-exact");
        assert_eq!(job.warm(), deal, "{what}: the session took the other offline path");
        served.join().expect("server thread")
    });
    assert_eq!(live_stats.suspensions as usize, inbox.len(), "{what}: one park per frame");
    assert_eq!(live_stats.frames_consumed as usize, inbox.len());

    // Everything already there: one call, no park, nothing read twice.
    let (sent, steps, full) = replay(&server, deal, &inbox, || inbox.len());
    assert_eq!(steps, 1, "{what}: a full inbox must run to the end in one step()");
    assert_eq!(sent, live_sent, "{what}: fed all at once");
    assert_eq!(full.frames_read as usize, inbox.len(), "{what}: nothing starved");
    assert_eq!(full.frames_consumed as usize, inbox.len());

    // One frame per park: the worst case for re-reading.
    let (sent, steps, one) = replay(&server, deal, &inbox, || 1);
    assert_eq!(sent, live_sent, "{what}: fed one frame per park");
    assert_eq!(steps, inbox.len(), "{what}: every frame was waited for");
    assert_eq!(one.frames_consumed as usize, inbox.len());
    // The live run fed one frame per park too, after one park on an
    // empty inbox.
    assert_eq!(
        (one.attempts + 1, one.frames_read, one.frames_consumed),
        (live_stats.attempts, live_stats.frames_read, live_stats.frames_consumed),
        "{what}: the counters are a function of the feed schedule"
    );
    assert!(
        one.frames_read <= 3 * one.frames_consumed,
        "{what}: {} frames read for {} consumed",
        one.frames_read,
        one.frames_consumed
    );
    println!(
        "{what}: {} frames, {} attempts, {} reads fed one per park",
        one.frames_consumed, one.attempts, one.frames_read
    );

    // Seeded random groups.
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(904 + seed);
        let (sent, _, grouped) = replay(&server, deal, &inbox, || rng.gen_range(1..=4));
        assert_eq!(sent, live_sent, "{what}: fed in random groups, seed {seed}");
        assert_eq!(grouped.frames_consumed as usize, inbox.len());
        assert!(grouped.frames_read <= one.frames_read, "{what}: larger feeds re-read no more");
    }
}

#[test]
fn feed_granularity_does_not_change_what_the_server_sends() {
    for (name, model) in [("mlp", mlp()), ("cnn", cnn()), ("encoder", encoder())] {
        for silent in [false, true] {
            for deal in [false, true] {
                check_case(name, &model, silent, deal);
            }
        }
    }
}
