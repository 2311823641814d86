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
//!
//! The pins: each direction's frame sequence (what the server sends, what
//! it reads), the whole effect sequence with its marks, and the number of
//! flights the server sends, a flight being a run of sends that no read
//! interrupts. The cold offline walk sends ahead, so its phase is one
//! server flight where it was one per fragment group.

use abnn2::core::driver::{drive_frames, DriverEffect, DriverStep, SessionDriver, SessionHost};
use abnn2::core::relu::ReluVariant;
use abnn2::core::{
    dealer_bundle_for, ClientBundle, ClientJob, OfflineMode, ResumeToken, SecureClient,
    SecureServer, ServedModel, ServerBundle, SessionDeadlines, SessionParams,
};
use abnn2::crypto::sha256::sha256;
use abnn2::math::{FragmentScheme, Ring};
use abnn2::net::wire::tags;
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
    effects_digest(&case_effects(model, silent, deal, variant))
}

/// One case's live effect sequence, checked to be the one every feed
/// schedule of its recording produces.
fn case_effects(
    model: &(ServedModel, Vec<u64>, Vec<u64>),
    silent: bool,
    deal: bool,
    variant: ReluVariant,
) -> Vec<DriverEffect> {
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
    live
}

/// Where every mark, send, flush and consumed frame falls in a session,
/// whatever its feed schedule: phase budgets, chaos hooks and metering
/// key off these positions. The six dealt rows date from the replaying
/// driver. The six cold rows and the optimized-ReLU row (also cold) were
/// re-recorded when the offline walk began sending ahead: its sends moved
/// before the replies they used to wait for, and each linear op's
/// `offline:` mark moved to its first send. All thirteen rows were
/// re-recorded when the evaluator's label-OT columns began leaving as a
/// re-share op is entered, ahead of the garbled material: every case runs
/// an online re-share op. Both times `direction_sequences_are_pinned`
/// showed that neither direction's frames changed. All thirteen rows were
/// re-recorded again for the protocol v9 version bump alone: the server's
/// hello reply carries the version field, so every first send moved. The
/// two cold encoder rows were then re-recorded for v9's matrix triples,
/// which run over the Yao half's OT extension in one flight each way
/// instead of over an IKNP pair of their own.
#[test]
fn effect_sequences_are_pinned() {
    let pins = [
        ("mlp", false, false, "6ce63fbce355fd844412201f4dc6a37bc6b26bfdee81095dad6173718ac3b9a5"),
        ("mlp", false, true, "031e896050312295e4af4d8e1cd505be1fa54ec864a5359b0185d70fafe6bedc"),
        ("mlp", true, false, "56ac106841de7303327a6eadc7c19f21460be39d63f7073458a8515ea4996d31"),
        ("mlp", true, true, "1e2bf60b949e3ed17a9559ef2015334f972f42ab42542c987ca83f204fa9357e"),
        ("cnn", false, false, "dc61c6a91f75709eb83a082a3961bd06b0b1f1e2791257ea4b83cc2b9b1b4e77"),
        ("cnn", false, true, "dc6aa823e0a44fbb449ec846c5c62aca90f0665e7b1cbdc9b66a2c8e389b7c0d"),
        ("cnn", true, false, "75d9f41fcfd0d437e0b5075aca0dc7797292e91efd86baa2d79589795d623db8"),
        ("cnn", true, true, "c3c62b45925e3ed45fab780b8ff8caa7f00a1e55482f22b67284509c61b5d2ab"),
        (
            "encoder",
            false,
            false,
            "443c93321fcbe793e2249dd4f9620bc995d385f8f03dada2d17a0f82c1b5691d",
        ),
        (
            "encoder",
            false,
            true,
            "85aba56cab8ac304d807de13931aa1596c9ea84b4ed5d0050afcdc0bd676d490",
        ),
        (
            "encoder",
            true,
            false,
            "40f0952c119a638eb68be8a2e5f9edfc4a7725830b9fbc218f3b06ddc442c289",
        ),
        ("encoder", true, true, "fe1b20724e40e4109c9a4c2d8035566845d6d697292470c21783ce78bbd8ea21"),
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
    if digest != "38ff348db5c54a133b4ab3fe6cd2d8b4f7686d09ff1a7e14b2849d89e11b3446" {
        failed.push(format!("mlp, optimized ReLU: {digest}"));
    }
    assert!(failed.is_empty(), "effect sequences moved:\n{}", failed.join("\n"));
}

/// Hex SHA-256 of `items`, each length-prefixed.
fn digest_of<'a>(items: impl Iterator<Item = &'a [u8]>) -> String {
    let mut log = Vec::new();
    for item in items {
        log.extend((item.len() as u64).to_le_bytes());
        log.extend(sha256(item));
    }
    sha256(&log).iter().map(|b| format!("{b:02x}")).collect()
}

/// The frames the server sends, in order, and the tag and length of every
/// frame it consumes, in order, as two digests; marks and flushes are left
/// out, and so is how the two directions interleave.
fn direction_digests(effects: &[DriverEffect]) -> (String, String) {
    let sent = effects.iter().filter_map(|e| match e {
        DriverEffect::Send(bytes) => Some(bytes.as_slice()),
        _ => None,
    });
    let recvs: Vec<[u8; 9]> = effects
        .iter()
        .filter_map(|e| match e {
            DriverEffect::Recv { tag, len } => {
                let mut item = [*tag; 9];
                item[1..].copy_from_slice(&(*len as u64).to_le_bytes());
                Some(item)
            }
            _ => None,
        })
        .collect();
    (digest_of(sent), digest_of(recvs.iter().map(<[u8; 9]>::as_slice)))
}

/// What each direction of the wire carries, frame by frame, in every case:
/// which frames the server sends and which it reads, whatever order the
/// two interleave in. A change that only moves a send earlier or later
/// keeps both digests. Every row's sent digest was re-recorded for the
/// protocol v9 version bump alone (the server's hello reply carries the
/// version field); no read digest moved with it. Both digests of the two
/// cold encoder rows were then re-recorded for v9's matrix triples: the
/// server sends one `IknpColumns` frame a triple and reads one
/// `OtCorrections` frame, where it set up an IKNP pair of two base-OT
/// batches and ran two OT extensions.
#[test]
fn direction_sequences_are_pinned() {
    use ReluVariant::{Oblivious, Optimized};
    let pins = [
        (
            "mlp",
            false,
            false,
            Oblivious,
            "52bae0b14b9ae9fcde3be58646f255fef9f660e1229b501c3bd0921f70d1b9fd",
            "704a74c463598e934884b3183275d8614f9262dc0c02f7e0b0e067fa7d6ede9a",
        ),
        (
            "mlp",
            false,
            true,
            Oblivious,
            "111d53209946816e31dbb1057409174a13a8a00b6fdadc993e81bf7d7fd51b44",
            "3db75ac750b77d82dcad606e9535cb7b8331a20595665376fa9c24eb96a2ed31",
        ),
        (
            "mlp",
            true,
            false,
            Oblivious,
            "e26869993a4b19216f9f557d8119c343a7260992f778e2026744a5a46bbc1b97",
            "ca70e6f973d502c5bf2c614a54817294e3802b18733e41508788d4db652d55d5",
        ),
        (
            "mlp",
            true,
            true,
            Oblivious,
            "a08cc30db4c238fda5bd07d210c45a8a5a44a021db7093a4f41e1cea3ae3fe87",
            "3db75ac750b77d82dcad606e9535cb7b8331a20595665376fa9c24eb96a2ed31",
        ),
        (
            "cnn",
            false,
            false,
            Oblivious,
            "c9bf14de0779fbd067b8440492de7bed545f93040e5d9e7f97bac47239b5d151",
            "e39c8a104a4df374c87ef2a7c7ee65b78ef5302976a11f5069ebbf443c16ff1e",
        ),
        (
            "cnn",
            false,
            true,
            Oblivious,
            "4a289fa5417a1f1c11316555972aec70042b533b1514a9d4bc443d12ba13844c",
            "3a03d3f4b6cabae89623bf41ad2d9f1120e69ebc3ddd9cf9f8133c5a0d2c881b",
        ),
        (
            "cnn",
            true,
            false,
            Oblivious,
            "2fd75feb8654040af7939389d09be3ca8c6875c18a5751df42bc19db55c77b45",
            "2e77c6c6fd1314147c454d7b0b6c4b4c2a9b4fa0362a375ec6887fa609459722",
        ),
        (
            "cnn",
            true,
            true,
            Oblivious,
            "2e99187ddd36b77a0140b351e410263eec240f6065cee873c19c6885596209c0",
            "3a03d3f4b6cabae89623bf41ad2d9f1120e69ebc3ddd9cf9f8133c5a0d2c881b",
        ),
        (
            "encoder",
            false,
            false,
            Oblivious,
            "174da0ebed482f92cc23ffe3fcd559f158f8c43419981cf3d4b3a9bdfcc54aa0",
            "71c64e26ced0a0b43d5a52a6235d6a817ccd6e2384c051a34f870c68e3edd444",
        ),
        (
            "encoder",
            false,
            true,
            Oblivious,
            "dc6083c8f4cbeaf0a9699b22f77330da9c3f202d38afc177c6e32a75607cc415",
            "437e44b7fa2304951b88b07cfbed9b89d848c2f2611c9d13b5fbbee6df9e4722",
        ),
        (
            "encoder",
            true,
            false,
            Oblivious,
            "646248b94891cdafb4a1c55ef3913d1ba9a54fdab2c4103b9bbae6e64c2cc4a4",
            "2ed5165423d780bc62cf9e081d9eb5dfabd6b0eab4e526579c491f83de32b8c2",
        ),
        (
            "encoder",
            true,
            true,
            Oblivious,
            "8d49aee8c1edf96951ddafa474d7891df1e3ca25dceecfda952880f32dad4318",
            "437e44b7fa2304951b88b07cfbed9b89d848c2f2611c9d13b5fbbee6df9e4722",
        ),
        (
            "mlp",
            false,
            false,
            Optimized,
            "917de6cb61bcab330ce7091c87cd7c97fc664c56556ec2f7764ad6e7a602b801",
            "d357c63a1f8e4dbbda769517a347d2162e49811b140914a6bd184da56a2eb1ec",
        ),
    ];
    let models = [("mlp", mlp()), ("cnn", cnn()), ("encoder", encoder())];
    let mut failed = Vec::new();
    for (name, silent, deal, variant, sent_pin, recv_pin) in pins {
        let model = &models.iter().find(|(n, _)| *n == name).expect("a model").1;
        let (sent, recvd) = direction_digests(&case_effects(model, silent, deal, variant));
        if (sent.as_str(), recvd.as_str()) != (sent_pin, recv_pin) {
            failed.push(format!(
                "{name}, silent {silent}, dealt {deal}, {variant:?}: {sent} {recvd}"
            ));
        }
    }
    assert!(failed.is_empty(), "direction sequences moved:\n{}", failed.join("\n"));
}

/// Flights in `effects`: maximal runs of `Send`s that no consumed frame
/// interrupts (marks and flushes do not).
fn flights(effects: &[DriverEffect]) -> usize {
    let mut count = 0;
    let mut in_flight = false;
    for effect in effects {
        match effect {
            DriverEffect::Send(_) if !in_flight => (count, in_flight) = (count + 1, true),
            DriverEffect::Recv { .. } => in_flight = false,
            _ => {}
        }
    }
    count
}

/// The cold KK13 offline phase is one server flight: the walk sends every
/// fragment group's columns of every linear op before it reads the first
/// reply (the MLP and the CNN have no matrix-triple op to stop it).
#[test]
fn cold_kk13_offline_is_one_server_flight() {
    for (name, model) in [("mlp", mlp()), ("cnn", cnn())] {
        let effects = case_effects(&model, false, false, ReluVariant::Oblivious);
        let mark = |f: &dyn Fn(&str) -> bool| {
            effects
                .iter()
                .position(|e| matches!(e, DriverEffect::Mark(label) if f(label)))
                .expect("the phase is marked")
        };
        let offline = mark(&|label| label.starts_with("offline:"));
        let online = mark(&|label| label == "online");
        assert_eq!(flights(&effects[offline..online]), 1, "{name}: offline flights");
    }
}

/// How many flights the server sends in each whole session. A cold
/// session's offline walk sends its linear ops' columns in one flight up
/// to the next silent refill or matrix-triple op, not one flight per
/// fragment group; a dealt session runs no offline walk. Online, a
/// re-share op's label-OT columns leave when it is entered: that keeps
/// each oblivious op at one flight, and the optimized ReLU sends its
/// second circuit's columns with the signs, one flight less per op. The
/// two cold encoder rows were re-recorded (18 to 15, 19 to 16) when
/// protocol v9's matrix triples stopped setting up an IKNP pair of their
/// own: a triple is one server flight of columns, then the corrections.
#[test]
fn server_flights_are_pinned() {
    use ReluVariant::{Oblivious, Optimized};
    let pins = [
        ("mlp", false, false, Oblivious, 6),
        ("mlp", false, true, Oblivious, 5),
        ("mlp", true, false, Oblivious, 7),
        ("mlp", true, true, Oblivious, 5),
        ("cnn", false, false, Oblivious, 7),
        ("cnn", false, true, Oblivious, 6),
        ("cnn", true, false, Oblivious, 8),
        ("cnn", true, true, Oblivious, 6),
        ("encoder", false, false, Oblivious, 15),
        ("encoder", false, true, Oblivious, 11),
        ("encoder", true, false, Oblivious, 16),
        ("encoder", true, true, Oblivious, 11),
        ("mlp", false, false, Optimized, 8),
    ];
    let models = [("mlp", mlp()), ("cnn", cnn()), ("encoder", encoder())];
    let mut failed = Vec::new();
    for (name, silent, deal, variant, pin) in pins {
        let model = &models.iter().find(|(n, _)| *n == name).expect("a model").1;
        let count = flights(&case_effects(model, silent, deal, variant));
        if count != pin {
            failed.push(format!("{name}, silent {silent}, dealt {deal}, {variant:?}: {count}"));
        }
    }
    assert!(failed.is_empty(), "server flight counts moved:\n{}", failed.join("\n"));
}

/// The evaluator's label-OT columns leave when a re-share op is entered,
/// before the garbled material they are for is read: after the
/// `online:input` mark, the k-th `GcLabels` read follows at least k
/// `IknpColumns` sends, in every case.
#[test]
fn label_columns_leave_before_the_material() {
    use ReluVariant::{Oblivious, Optimized};
    let models = [("mlp", mlp()), ("cnn", cnn()), ("encoder", encoder())];
    let mut cases = Vec::new();
    for (name, model) in &models {
        for (silent, deal) in [(false, false), (false, true), (true, false), (true, true)] {
            cases.push((*name, model, silent, deal, Oblivious));
        }
    }
    cases.push(("mlp", &models[0].1, false, false, Optimized));
    for (name, model, silent, deal, variant) in cases {
        let what = format!("{name}, silent {silent}, dealt {deal}, {variant:?}");
        let effects = case_effects(model, silent, deal, variant);
        let online = effects
            .iter()
            .position(|e| matches!(e, DriverEffect::Mark(label) if label == "online:input"))
            .expect("the online phase is marked");
        let (mut columns, mut labels) = (0, 0);
        for effect in &effects[online..] {
            match effect {
                DriverEffect::Send(bytes) if bytes.first() == Some(&tags::IKNP_COLUMNS) => {
                    columns += 1;
                }
                DriverEffect::Recv { tag: tags::GC_LABELS, .. } => {
                    labels += 1;
                    assert!(columns >= labels, "{what}: labels {labels} read before their columns");
                }
                _ => {}
            }
        }
        assert!(labels > 0, "{what}: no re-share op ran");
    }
}
