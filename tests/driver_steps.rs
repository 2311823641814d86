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
/// instead of over an IKNP pair of their own. All thirteen rows were
/// re-recorded for the protocol v10 version bump alone, the first send
/// again, and the four encoder rows then for v10's circuits: the softmax,
/// GELU and LayerNorm `GcTables`/`GcDecodeMap` frames the server reads are
/// shorter, so every position after the first encoder re-share op moved.
#[test]
fn effect_sequences_are_pinned() {
    let pins = [
        ("mlp", false, false, "9c4b9e4f6e9c39f89b35055052b8267dd9aaa6ad6ac33087ac9f6fd8f801e477"),
        ("mlp", false, true, "a7f5ebfbc0411426402e9389466e741fcc66aec7a2fa026ad96c27c887a3e11d"),
        ("mlp", true, false, "d2b9eee2bd5f8676a2c8bfdd50a124ff83d5d362d01a744f3278f76c9f934fe6"),
        ("mlp", true, true, "2b05603788ba1efc0453c5113f4ff3fb346ef233296385abccbbd29a4de98697"),
        ("cnn", false, false, "a1cf7bfd14ca7c6bdd421521a08abdbf32181189ae76888920c6357214490a33"),
        ("cnn", false, true, "5a98a3b2686df0ddf3f41aa9c8e100404983fff14e4478c1f56d9808bb7c2201"),
        ("cnn", true, false, "4b0030ecfe2279b30d1cd83a88a768f1341435d50586bb19f370f893568bf503"),
        ("cnn", true, true, "73632280852508c68962841206d8637a85dacf0061b79e62460566d05ba5c8ff"),
        (
            "encoder",
            false,
            false,
            "b25e37ab8f67b3bc5c10f53d340706c9b5d1c226aac756ab85a2f9356db1c894",
        ),
        (
            "encoder",
            false,
            true,
            "d8f64122b1d5fe96a228640f1908b6cd9196ad215d869594684b34275b055779",
        ),
        (
            "encoder",
            true,
            false,
            "63567385549a7e261c124db3ba48a21805b825b04d7692d095744fd621130568",
        ),
        ("encoder", true, true, "d526a484caa4238949ceecc2627f481b21e98fde67fd3a72f929ea3c69353602"),
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
    if digest != "236cc44c34c61c27299d91af2ed9bf97d4c25e69035251ab73f999a3769f5881" {
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
/// batches and ran two OT extensions. Every row's sent digest was
/// re-recorded for the protocol v10 version bump alone; no read digest
/// moved with it. The read digests of the four encoder rows were then
/// re-recorded for v10's circuits, whose garbled tables and decode maps
/// are shorter; no sent digest moved with them.
#[test]
fn direction_sequences_are_pinned() {
    use ReluVariant::{Oblivious, Optimized};
    let pins = [
        (
            "mlp",
            false,
            false,
            Oblivious,
            "df09fb9192f25fa3350473802f3f0340a4d9d7b50da97daef0c602356c9b7103",
            "704a74c463598e934884b3183275d8614f9262dc0c02f7e0b0e067fa7d6ede9a",
        ),
        (
            "mlp",
            false,
            true,
            Oblivious,
            "603294928152c6de953c618d5518ce03da3c211bcdb47acf9e1cbb7973a06898",
            "3db75ac750b77d82dcad606e9535cb7b8331a20595665376fa9c24eb96a2ed31",
        ),
        (
            "mlp",
            true,
            false,
            Oblivious,
            "f33ad6493c1217d7b1f4e325b96fb72454b64b81c4d96aba4631492bbc7b259d",
            "ca70e6f973d502c5bf2c614a54817294e3802b18733e41508788d4db652d55d5",
        ),
        (
            "mlp",
            true,
            true,
            Oblivious,
            "78df0d3b7b8c481bb2b47f132ea20776f0ed9c76f1253facd3b59c1a8587a35c",
            "3db75ac750b77d82dcad606e9535cb7b8331a20595665376fa9c24eb96a2ed31",
        ),
        (
            "cnn",
            false,
            false,
            Oblivious,
            "b3122e0c59a749e5762949c7fd66dd838dbfacaf2bc70670da3fcce9fe67a169",
            "e39c8a104a4df374c87ef2a7c7ee65b78ef5302976a11f5069ebbf443c16ff1e",
        ),
        (
            "cnn",
            false,
            true,
            Oblivious,
            "3aca38f210820f81db404c287354c65081d4444ed7a5e256389f045967b31d5e",
            "3a03d3f4b6cabae89623bf41ad2d9f1120e69ebc3ddd9cf9f8133c5a0d2c881b",
        ),
        (
            "cnn",
            true,
            false,
            Oblivious,
            "6f894ee7046d0ed4eacb9e7bccebfab711e3968f111bd1c7825cc7100a72b73e",
            "2e77c6c6fd1314147c454d7b0b6c4b4c2a9b4fa0362a375ec6887fa609459722",
        ),
        (
            "cnn",
            true,
            true,
            Oblivious,
            "0f154b3d537d5444fe6e3c021ce30915da5a913e0ac73de2b2718cd1f052e350",
            "3a03d3f4b6cabae89623bf41ad2d9f1120e69ebc3ddd9cf9f8133c5a0d2c881b",
        ),
        (
            "encoder",
            false,
            false,
            Oblivious,
            "5d4244d0403694514a19a53ed287ec9e7cf64a3a56ea8e8ea6f94ae4481321eb",
            "13d4ae9eb564ec745d6e892cc7a7114a45e2a0f844387f4888752ad74732b6e6",
        ),
        (
            "encoder",
            false,
            true,
            Oblivious,
            "9619c16e61a04916d893abbc805bd3cc2439264e9c71ef2a2a0755c229318e01",
            "5b2f871e758a76810277950f6775020a6d882a1c93922819c11237b238f9b3ac",
        ),
        (
            "encoder",
            true,
            false,
            Oblivious,
            "8d9421ffa402635184d7f7b80d4d5f0dcaeb8218c328514f2065b2771fd5535e",
            "af6395e6d0f8ca7111ccfe04aa278b3686d84b7db206e9bfa91d04d38a3b781d",
        ),
        (
            "encoder",
            true,
            true,
            Oblivious,
            "49a42113ba540930be81b92a3e6bfb7d5ed34b81a788d33db1239d63056675ec",
            "5b2f871e758a76810277950f6775020a6d882a1c93922819c11237b238f9b3ac",
        ),
        (
            "mlp",
            false,
            false,
            Optimized,
            "458cf4ad4b008c6a208df2a2e89809cdc91ab3cc3bf2d2c6bfdfa7035a17f628",
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
