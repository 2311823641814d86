//! The session driver runs every step once, however its inbound frames are
//! cut up.
//!
//! For an MLP, a CNN and an encoder block, over both offline modes, cold
//! and with a dealt bundle: one live session through `drive_frames`
//! records the server's inbound frames and the frames it sent; fresh
//! drivers from the same seed are then fed those frames with no peer —
//! all at once, one per park, and in seeded random groups — and must send
//! the same bytes in the same order and finish. The pre-filled inbox must
//! finish inside a single `step()`, the one-frame-per-park feed must park
//! once per frame, and under every schedule each frame is read exactly
//! once: a step runs only when its frames have arrived.

use abnn2::core::driver::{drive_frames, DriverEffect, DriverStep, SessionDriver, SessionHost};
use abnn2::core::relu::ReluVariant;
use abnn2::core::{
    dealer_bundle_for, ClientBundle, ClientJob, OfflineMode, ResumeToken, SecureClient,
    SecureServer, ServedModel, ServerBundle, SessionDeadlines, SessionParams,
};
use abnn2::crypto::sha256::sha256;
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

/// Runs a fresh driver with no peer, feeding it `group()` more recorded
/// frames before each `step()`. Returns what it sent, how many `step()`
/// calls it took, and how many frames it read.
fn replay(
    server: &Arc<SecureServer>,
    deal: bool,
    inbox: &[Vec<u8>],
    mut group: impl FnMut() -> usize,
) -> (Vec<Vec<u8>>, usize, usize) {
    let mut driver = new_driver(server, deal);
    let mut frames = inbox.iter();
    let (mut sent, mut steps, mut reads) = (Vec::new(), 0, 0);
    loop {
        frames.by_ref().take(group().max(1)).for_each(|f| driver.feed(f.clone()));
        let step = driver.step();
        steps += 1;
        for effect in driver.take_effects() {
            match effect {
                DriverEffect::Send(bytes) => sent.push(bytes),
                DriverEffect::Recv { .. } => reads += 1,
                _ => {}
            }
        }
        match step {
            DriverStep::Done => break,
            DriverStep::Failed(e) => panic!("fed session failed: {e}"),
            DriverStep::NeedRecv => {}
        }
    }
    assert!(frames.next().is_none(), "the session finished without reading every frame");
    (sent, steps, reads)
}

fn check_case(name: &str, model: &(ServedModel, Vec<u64>, Vec<u64>), silent: bool, deal: bool) {
    let what = format!("{name}, silent {silent}, dealt {deal}");
    let (served, x, expected) = model;
    let server = Arc::new(SecureServer::for_model(served.clone()));
    let client = SecureClient::for_model(server.public_model()).with_silent(silent);

    // Live: a real client against the driver, one frame fed per park.
    let (sch, mut cch) = Endpoint::pair(NetworkModel::instant());
    let (live_sent, inbox, live_stats, live_reads) = std::thread::scope(|scope| {
        let served = scope.spawn(|| {
            let mut ch = Recording { inner: sch, inbox: Vec::new() };
            let (mut sent, mut reads) = (Vec::new(), 0);
            let stats =
                drive_frames(&mut ch, &mut new_driver(&server, deal), |effect| match effect {
                    DriverEffect::Send(bytes) => sent.push(bytes.clone()),
                    DriverEffect::Recv { .. } => reads += 1,
                    _ => {}
                })
                .expect("live server");
            (sent, ch.inbox, stats, reads)
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
    assert_eq!(live_reads, inbox.len(), "{what}: live, each frame read once");

    // Everything already there: one call, no park.
    let (sent, steps, reads) = replay(&server, deal, &inbox, || inbox.len());
    assert_eq!(steps, 1, "{what}: a full inbox must run to the end in one step()");
    assert_eq!(sent, live_sent, "{what}: fed all at once");
    assert_eq!(reads, inbox.len(), "{what}: fed all at once, each frame read once");

    // One frame per park.
    let (sent, steps, reads) = replay(&server, deal, &inbox, || 1);
    assert_eq!(sent, live_sent, "{what}: fed one frame per park");
    assert_eq!(steps, inbox.len(), "{what}: every frame was waited for");
    assert_eq!(reads, inbox.len(), "{what}: fed one per park, each frame read once");
    println!("{what}: {} frames, each read once, fed one per park", inbox.len());

    // Seeded random groups.
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(904 + seed);
        let (sent, _, reads) = replay(&server, deal, &inbox, || rng.gen_range(1..=4));
        assert_eq!(sent, live_sent, "{what}: fed in random groups, seed {seed}");
        assert_eq!(reads, inbox.len(), "{what}: fed in groups, each frame read once");
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

/// One effect sequence as a digest: each mark and each sent frame by its
/// bytes, each flush, and each consumed frame by tag and length, in order.
fn effects_digest(effects: &[DriverEffect]) -> String {
    let mut log = Vec::new();
    for effect in effects {
        match effect {
            DriverEffect::Mark(label) => {
                log.push(b'M');
                log.extend(sha256(label.as_bytes()));
            }
            DriverEffect::Send(bytes) => {
                log.push(b'S');
                log.extend(sha256(bytes));
            }
            DriverEffect::Flush => log.push(b'F'),
            DriverEffect::Recv { tag, len } => {
                log.push(b'R');
                log.push(*tag);
                log.extend((*len as u64).to_le_bytes());
            }
        }
    }
    sha256(&log).iter().map(|b| format!("{b:02x}")).collect()
}

/// Every effect a fresh driver produces when fed `group()` more recorded
/// frames before each `step()`.
fn effects_fed(
    server: &Arc<SecureServer>,
    deal: bool,
    inbox: &[Vec<u8>],
    mut group: impl FnMut() -> usize,
) -> Vec<DriverEffect> {
    let mut driver = new_driver(server, deal);
    let mut frames = inbox.iter();
    let mut effects = Vec::new();
    loop {
        frames.by_ref().take(group().max(1)).for_each(|f| driver.feed(f.clone()));
        let step = driver.step();
        effects.extend(driver.take_effects());
        match step {
            DriverStep::Done => return effects,
            DriverStep::Failed(e) => panic!("fed session failed: {e}"),
            DriverStep::NeedRecv => {}
        }
    }
}

/// The digest of one case's effect sequence, the same live (one frame fed
/// per park) and fed from the recording all at once, one frame per
/// `step()` and in seeded random groups.
fn effects_case(
    model: &(ServedModel, Vec<u64>, Vec<u64>),
    silent: bool,
    deal: bool,
    variant: ReluVariant,
) -> String {
    let (served, x, expected) = model;
    let server = Arc::new(SecureServer::for_model(served.clone()).with_variant(variant));
    let client =
        SecureClient::for_model(server.public_model()).with_silent(silent).with_variant(variant);
    let (sch, mut cch) = Endpoint::pair(NetworkModel::instant());
    let (live, inbox) = std::thread::scope(|scope| {
        let served = scope.spawn(|| {
            let mut ch = Recording { inner: sch, inbox: Vec::new() };
            let mut effects = Vec::new();
            drive_frames(&mut ch, &mut new_driver(&server, deal), |e| effects.push(e.clone()))
                .expect("live server");
            (effects, ch.inbox)
        });
        let mut job = ClientJob::new([7; 16], deal, SessionDeadlines::default());
        let y = client
            .run_job(&mut cch, std::slice::from_ref(x), &mut job, &mut StdRng::seed_from_u64(903))
            .expect("live client");
        assert_eq!(&y.col(0), expected, "live logits must be bit-exact");
        served.join().expect("server thread")
    });
    let digest = effects_digest(&live);
    let mut rng = StdRng::seed_from_u64(905);
    let schedules: [&mut dyn FnMut() -> usize; 3] =
        [&mut || inbox.len(), &mut || 1, &mut || rng.gen_range(1..=4)];
    for (i, group) in schedules.into_iter().enumerate() {
        let fed = effects_fed(&server, deal, &inbox, group);
        assert_eq!(effects_digest(&fed), digest, "feed schedule {i} moved an effect");
    }
    digest
}

/// Where every mark, send, flush and consumed frame falls in a session,
/// whatever its feed schedule: phase budgets, chaos hooks and metering
/// key off these positions. Recorded with the replaying driver.
#[test]
fn effect_sequences_are_pinned() {
    let pins = [
        ("mlp", false, false, "f99b90314c6a7acf2db20ef0ff64a1e088cf16e7cacea7aaef2d95081df3f154"),
        ("mlp", false, true, "abcf2dcf8bcb72484d0aaf37659e9be635637b58271e66dc7684a890028df625"),
        ("mlp", true, false, "2cdfbe3083749e2fb09f6e2b3c52cfa1c0145a50ff4c139059947bccfd11bb6c"),
        ("mlp", true, true, "c3b1ab7b6dc65194e1d507754aedd2de86166585e42ce8c1a2e39dd64cd18de3"),
        ("cnn", false, false, "927a2e0b641b01b42035edf1fba542d91b4fd287e03e6312c892537d295b026e"),
        ("cnn", false, true, "a51aa27a2a66f7622c0c4f377dd4c764dda01d59c050a676d96d4aa692f401ea"),
        ("cnn", true, false, "2562d43bbe4089837a35b3672f0027604434f5c4c95a2e55ebe07c6b5769a1c4"),
        ("cnn", true, true, "b3a60a439171b90dfa9091bf2899b01b84697598900d77210aa59e737abb34a7"),
        (
            "encoder",
            false,
            false,
            "91e77bb8767be71a42d9f374cbc3d46c54456b9e69f368defa5421ef92572d57",
        ),
        (
            "encoder",
            false,
            true,
            "cbde63a586b2cbe4743e021ebca6e7f17a7c622faf4f53207cce3e21ad401100",
        ),
        (
            "encoder",
            true,
            false,
            "578c752086f5ce188b4b50a5f8e76a427c699870e7c77076e4ef200e6ededc35",
        ),
        ("encoder", true, true, "a786ea2db599ed088df276eafb3bf5c54cb3bcfbb56f385d978857b263e8ec93"),
    ];
    let models = [("mlp", mlp()), ("cnn", cnn()), ("encoder", encoder())];
    let mut failed = Vec::new();
    for (name, silent, deal, pin) in pins {
        let model = &models.iter().find(|(n, _)| *n == name).expect("a model").1;
        let digest = effects_case(model, silent, deal, ReluVariant::Oblivious);
        if digest != pin {
            failed.push(format!("{name}, silent {silent}, dealt {deal}: {digest}"));
        }
    }
    let digest = effects_case(&models[0].1, false, false, ReluVariant::Optimized);
    if digest != "3c2a759d7572d981527ba7eb8f384c55ef5560dc0f068b75b3ae7c72da249a60" {
        failed.push(format!("mlp, optimized ReLU: {digest}"));
    }
    assert!(failed.is_empty(), "effect sequences moved:\n{}", failed.join("\n"));
}
