//! Session transcript stability across the setup phase: every frame a
//! fresh session moves after the two hellos, both directions in the order
//! the client sees them, is a function of the seeds, the model and the
//! path alone (cold KK13, cold silent, warm bundle, resumed after a cut).
//! The digests below were recorded at commit 68cadaf, where every session
//! runs both base-OT batches (the fragment chooser's, then Yao's) whatever
//! its path, over a tiny MLP and an encoder block.
//!
//! Two digests per case: `bytes` over every frame's sha256, and `shape`
//! over every frame's (direction, tag, length). Each was recorded twice:
//! over the whole transcript, and with the fragment chooser's base-OT
//! batch (the first `BasePoint`, `BasePointBatch` and `BaseCtBatch`
//! frames) taken out.
//!
//! Since protocol v6 a session sets up only the lineage half its path
//! uses. A **cold** session still uses both, and all four of its digests
//! are the parent's. A **warm** or **resumed** session no longer runs the
//! chooser's batch: its `shape` is asserted against the parent's
//! `shape, no chooser batch` row, untouched — the transcript is the
//! parent's with exactly those three frames removed. Its `bytes` are
//! re-recorded, because the batch that no longer runs no longer advances
//! either party's RNG, so every random byte behind it is drawn from an
//! earlier position of the same seeded stream.
//!
//! The second half pins **continuation**: three sessions over one lineage
//! (parked in a store and claimed, twice) move, frame for frame and byte
//! for byte, what one connection moves that sets up once and runs the same
//! three predictions back to back over one pair of OT-extension objects —
//! the "k extensions over one pair" that `ot_extension_pins`,
//! `triplet_pins` and `yao_pins` pin a layer at a time. So no PRG, tweak
//! or COT position is revisited or skipped by a park and a claim.
//!
//! Lives at the repo root because tier-1 `cargo test -q` runs only the
//! umbrella package.

use abnn2::core::bundle::{dealer_bundle_for, ClientBundle, ServerBundle};
use abnn2::core::driver::{drive_blocking, SessionDriver, SessionHost};
use abnn2::core::frames::OutputShares;
use abnn2::core::graph::{
    client_offline_with, client_online_to_logits, server_offline_with, server_online_to_logits,
};
use abnn2::core::inference::{ClientOffline, ServerOffline};
use abnn2::core::resilient::{ResilientClient, ResilientServer};
use abnn2::core::{
    CheckpointStore, ClientJob, ClientLineage, ExecConfig, OfflineMode, PublicModel, ResumeToken,
    SecureClient, SecureServer, ServedModel, ServerLineage, SessionDeadlines, SessionParams,
};
use abnn2::crypto::sha256::sha256;
use abnn2::math::{FragmentScheme, Matrix, Ring};
use abnn2::net::wire::tags;
use abnn2::net::{
    sim_link, CommSnapshot, Endpoint, Fault, FaultyTransport, NetworkModel, RetryPolicy, Transport,
    TransportError,
};
use abnn2::nn::quant::{QuantConfig, QuantizedNetwork};
use abnn2::nn::transformer::QuantizedTransformer;
use abnn2::nn::Network;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One frame as the client saw it: direction (`>` sent, `<` received),
/// tag byte, length and digest (tag byte included in both).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Rec {
    dir: u8,
    tag: u8,
    len: usize,
    sha: [u8; 32],
}

type Log = Arc<Mutex<Vec<Rec>>>;

/// Records every frame the wrapped party sends and receives, in order.
struct Tap<T> {
    inner: T,
    log: Log,
}

impl<T> Tap<T> {
    fn new(inner: T) -> (Self, Log) {
        let log = Log::default();
        (Tap { inner, log: Arc::clone(&log) }, log)
    }

    fn note(&self, dir: u8, frame: &[u8]) {
        let tag = frame.first().copied().unwrap_or(0);
        self.log.lock().unwrap().push(Rec { dir, tag, len: frame.len(), sha: sha256(frame) });
    }
}

impl<T: Transport> Transport for Tap<T> {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.note(b'>', payload);
        self.inner.send(payload)
    }
    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        let frame = self.inner.recv()?;
        self.note(b'<', &frame);
        Ok(frame)
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
}

fn hex(digest: [u8; 32]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

/// The transcript after the two hellos.
fn after_hellos(log: &Log) -> Vec<Rec> {
    let recs = log.lock().unwrap().clone();
    assert_eq!(recs[0].tag, tags::HELLO, "the client speaks first");
    assert_eq!(recs[1].tag, tags::HELLO, "the server answers before anything else");
    assert_eq!((recs[0].dir, recs[1].dir), (b'>', b'<'));
    recs[2..].to_vec()
}

/// `recs` with the first base-OT batch — the fragment chooser's — removed:
/// the point the base-OT sender announces, the receiver's point batch and
/// the ciphertext batch. The Yao batch behind it stays.
fn without_chooser_batch(recs: &[Rec]) -> Vec<Rec> {
    let mut out = recs.to_vec();
    for tag in [tags::BASE_POINT, tags::BASE_POINT_BATCH, tags::BASE_CT_BATCH] {
        let at = out.iter().position(|r| r.tag == tag).expect("a base-OT batch");
        assert!(at < 3, "the chooser's batch opens the setup phase");
        out.remove(at);
    }
    out
}

fn bytes_digest(recs: &[Rec]) -> String {
    let mut buf = Vec::with_capacity(recs.len() * 33);
    for r in recs {
        buf.push(r.dir);
        buf.extend_from_slice(&r.sha);
    }
    hex(sha256(&buf))
}

fn shape_digest(recs: &[Rec]) -> String {
    let mut buf = Vec::with_capacity(recs.len() * 10);
    for r in recs {
        buf.extend_from_slice(&[r.dir, r.tag]);
        buf.extend_from_slice(&(r.len as u64).to_le_bytes());
    }
    hex(sha256(&buf))
}

/// The model under test with its plaintext oracle and one input.
struct Case {
    served: ServedModel,
    input: Vec<u64>,
    expected: Vec<u64>,
}

fn tiny_mlp() -> Case {
    let net = Network::new(&[12, 8, 6, 4], 0x11);
    let q = QuantizedNetwork::quantize(
        &net,
        QuantConfig {
            ring: Ring::new(32),
            frac_bits: 8,
            weight_frac_bits: 2,
            scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
        },
    );
    let input: Vec<u64> = (0..12).map(|j| (j * 37 + 5) & 0xFFF).collect();
    Case { expected: q.forward_exact(&input), served: q.into(), input }
}

fn encoder_block() -> Case {
    let config = QuantConfig {
        ring: Ring::new(16),
        frac_bits: 6,
        weight_frac_bits: 2,
        scheme: FragmentScheme::optimal(3),
    };
    let mut rng = StdRng::seed_from_u64(0x12);
    let model = QuantizedTransformer::random(4, 4, 8, 3, config, &mut rng).expect("encoder");
    let (ring, f) = (model.config.ring, model.config.frac_bits);
    let input: Vec<u64> = (0..model.seq * model.d)
        .map(|_| ring.reduce(rng.gen_range(-(1i64 << f)..1i64 << f) as u64))
        .collect();
    Case { expected: model.forward_exact(&input), served: model.into(), input }
}

/// A one-session host that resumes nothing and deals the bundle it was
/// given, where a serving frontend would take one from its pool.
struct DealtHost {
    public: PublicModel,
    bundle: Mutex<Option<(ServerBundle, ClientBundle)>>,
}

impl SessionHost for DealtHost {
    fn params_for(&self, batch: usize) -> SessionParams {
        SessionParams::for_public(&self.public, Default::default(), batch)
    }
    fn claim_checkpoint(&self, _token: &ResumeToken) -> Option<ServerBundle> {
        None
    }
    fn take_bundle(
        &self,
        _params: &SessionParams,
        _mode: OfflineMode,
    ) -> Option<(ServerBundle, ClientBundle)> {
        self.bundle.lock().unwrap().take()
    }
}

const SERVER_SEED: u64 = 0x5E71;
const CLIENT_SEED: u64 = 0x5E72;
const TOKEN: ResumeToken = [0xA5; 16];

fn deadlines() -> SessionDeadlines {
    SessionDeadlines::uniform(Duration::from_secs(20))
}

/// One fresh session over an in-process link: cold in `mode`, or warm
/// (`dealt`) with a bundle dealt ahead of time. Returns the client's
/// transcript after the hellos.
fn fresh_session(case: &Case, silent: bool, dealt: bool) -> Vec<Rec> {
    let server = Arc::new(SecureServer::for_model(case.served.clone()));
    let client = SecureClient::for_model(server.public_model()).with_silent(silent);
    let bundle = dealt.then(|| {
        let sg = case.served.secure_graph(1).expect("batch 1");
        dealer_bundle_for(&case.served, &sg, &mut StdRng::seed_from_u64(0x5E70))
    });
    let host = DealtHost { public: server.public_model(), bundle: Mutex::new(bundle) };
    let (mut server_ep, client_ep) = Endpoint::pair(NetworkModel::instant());
    let (mut tap, log) = Tap::new(client_ep);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut driver = SessionDriver::new(server, host, StdRng::seed_from_u64(SERVER_SEED));
            drive_blocking(&mut server_ep, &mut driver).expect("server");
        });
        let mut job = ClientJob::new(TOKEN, dealt, deadlines());
        let y = client
            .run_job(
                &mut tap,
                std::slice::from_ref(&case.input),
                &mut job,
                &mut StdRng::seed_from_u64(CLIENT_SEED),
            )
            .expect("client");
        assert_eq!(y.col(0), case.expected, "logits must equal forward_exact");
        assert_eq!(job.warm(), dealt);
    });
    after_hellos(&log)
}

/// A cold session cut two frames into its online phase, then the retry:
/// the transcript of the second connection, which resumes the checkpoint.
fn resumed_session(case: &Case) -> Vec<Rec> {
    let (dialer, listener) = sim_link(NetworkModel::instant());
    let server = ResilientServer::new(SecureServer::for_model(case.served.clone()))
        .with_policy(RetryPolicy::no_delay(3))
        .with_deadlines(deadlines());
    let client = ResilientClient::new(SecureClient::for_model(case.served.public()))
        .with_policy(RetryPolicy::no_delay(3))
        .with_deadlines(deadlines());
    let logs: Mutex<Vec<Log>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let srv = scope.spawn(move || {
            server.serve_one_with(
                |_| {
                    listener
                        .accept_timeout(Duration::from_secs(20))
                        .map(|ep| FaultyTransport::new(ep, Fault::None))
                },
                |ch, attempt| {
                    if attempt == 0 {
                        ch.set_fault(Fault::CutAfterMessages(ch.sends() + 2));
                    }
                },
                &mut StdRng::seed_from_u64(SERVER_SEED),
            )
        });
        let (y, report) = client
            .run_raw(
                |_| {
                    let (tap, log) = Tap::new(dialer.dial()?);
                    logs.lock().unwrap().push(log);
                    Ok(tap)
                },
                std::slice::from_ref(&case.input),
                &mut StdRng::seed_from_u64(CLIENT_SEED),
            )
            .expect("client");
        assert_eq!(y.col(0), case.expected, "logits must equal forward_exact after the resume");
        assert!(report.resumed && report.attempts == 2, "got {report:?}");
        assert!(srv.join().unwrap().expect("server").resumed);
    });
    let logs = logs.into_inner().unwrap();
    assert_eq!(logs.len(), 2, "one cut connection, one resumed");
    after_hellos(&logs[1])
}

/// What a cold case records: both digests over the whole transcript and
/// over the transcript without the fragment chooser's base-OT batch.
fn record(name: &str, recs: &[Rec]) -> Vec<(String, String)> {
    let trimmed = without_chooser_batch(recs);
    assert_eq!(trimmed.len() + 3, recs.len());
    vec![
        (format!("{name} bytes"), bytes_digest(recs)),
        (format!("{name} shape"), shape_digest(recs)),
        (format!("{name} bytes, no chooser batch"), bytes_digest(&trimmed)),
        (format!("{name} shape, no chooser batch"), shape_digest(&trimmed)),
    ]
}

/// What a warm or resumed case records. Its transcript *is* the one
/// without the chooser's batch, so its shape goes under the label (and
/// against the digest) the parent recorded for its own transcript with
/// that batch removed.
fn record_without_offline(name: &str, recs: &[Rec]) -> Vec<(String, String)> {
    let batches = recs.iter().filter(|r| r.tag == tags::BASE_POINT).count();
    assert_eq!(batches, 1, "{name}: one base-OT batch, Yao's");
    vec![
        (format!("{name} shape, no chooser batch"), shape_digest(recs)),
        (format!("{name} bytes"), bytes_digest(recs)),
    ]
}

/// Compares a recorded table against its pins, printing the whole actual
/// table on a mismatch so a deliberate change can be re-pinned in one go.
fn assert_pinned(what: &str, got: &[(String, String)], pins: &[(&str, &str)]) {
    let same = got.len() == pins.len()
        && got.iter().zip(pins).all(|((gl, gd), (pl, pd))| gl == pl && gd == pd);
    if !same {
        let table: String = got.iter().map(|(l, d)| format!("    (\"{l}\", \"{d}\"),\n")).collect();
        panic!("{what} changed; recorded now:\n{table}");
    }
}

fn all_paths(model: &str, case: &Case) -> Vec<(String, String)> {
    let mut got = Vec::new();
    got.extend(record(&format!("{model} cold kk13"), &fresh_session(case, false, false)));
    got.extend(record(&format!("{model} cold silent"), &fresh_session(case, true, false)));
    got.extend(record_without_offline(&format!("{model} warm"), &fresh_session(case, false, true)));
    got.extend(record_without_offline(&format!("{model} resumed"), &resumed_session(case)));
    got
}

const PREDICTIONS: u64 = 3;

/// `PREDICTIONS` fresh-then-continued sessions of one client over one
/// lineage: the server parks it in a store at each clean end and claims it
/// at the next hello, the client carries its half from job to job. The
/// client's transcript of each session, after the hellos.
fn sessions_over_one_lineage(case: &Case, silent: bool) -> Vec<Vec<Rec>> {
    let (dialer, listener) = sim_link(NetworkModel::instant());
    let server = ResilientServer::new(SecureServer::for_model(case.served.clone()))
        .with_policy(RetryPolicy::no_delay(1))
        .with_deadlines(deadlines())
        .with_checkpoint_store(Arc::new(CheckpointStore::new(4)));
    let client = SecureClient::for_model(case.served.public()).with_silent(silent);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            // One seed stream: session i's driver gets its i-th draw.
            let mut seeds = StdRng::seed_from_u64(SERVER_SEED);
            for _ in 0..PREDICTIONS {
                server
                    .serve_one(|_| listener.accept_timeout(Duration::from_secs(20)), &mut seeds)
                    .expect("server");
            }
            let stats = server.checkpoint_store().lineage_stats();
            assert_eq!((stats.parked, stats.claimed, stats.missed), (PREDICTIONS, 2, 0));
        });
        let mut held = None;
        (0..PREDICTIONS)
            .map(|i| {
                let (mut tap, log) = Tap::new(dialer.dial().expect("dial"));
                let mut job = ClientJob::new([0xB0 + i as u8; 16], false, deadlines())
                    .with_lineage(held.take());
                let y = client
                    .run_job(
                        &mut tap,
                        std::slice::from_ref(&case.input),
                        &mut job,
                        &mut StdRng::seed_from_u64(CLIENT_SEED + i),
                    )
                    .expect("client");
                assert_eq!(y.col(0), case.expected, "session {i} logits");
                assert_eq!(job.continued(), i > 0);
                held = job.take_lineage();
                assert!(held.is_some(), "a store-backed server parks, so the client keeps");
                after_hellos(&log)
            })
            .collect()
    })
}

/// The same predictions with nothing parked: one connection, one setup,
/// then offline and online phase `PREDICTIONS` times over the same two
/// lineages, each party drawing from the RNG stream its session would.
/// The client's transcript of each round (the first includes the setup).
fn rounds_over_one_pair(case: &Case, mode: OfflineMode) -> Vec<Vec<Rec>> {
    let exec = ExecConfig::new();
    let sg = case.served.secure_graph(1).expect("batch 1");
    let ring = case.served.config().ring;
    let (mut server_ep, client_ep) = Endpoint::pair(NetworkModel::instant());
    let (mut tap, log) = Tap::new(client_ep);
    std::thread::scope(|scope| {
        let (served, sg) = (&case.served, &sg);
        scope.spawn(move || {
            let ch = &mut server_ep;
            let mut seeds = StdRng::seed_from_u64(SERVER_SEED);
            let mut lineage = ServerLineage::default();
            for _ in 0..PREDICTIONS {
                let mut rng = StdRng::seed_from_u64(seeds.next_u64());
                lineage.complete(ch, Some(mode), &mut rng).expect("setup");
                let kk = lineage.kk.take().expect("fragment half");
                let (bundle, kk) =
                    server_offline_with(ch, kk, served, sg, exec, &mut rng).expect("offline");
                let state = ServerOffline::from_bundle(lineage.yao.take().expect("Yao"), bundle);
                let (yao, y0) =
                    server_online_to_logits(ch, state, served, sg, exec).expect("online");
                ch.send_frame(&OutputShares(ring.encode_slice(y0.as_slice()))).expect("open");
                lineage = ServerLineage { kk: Some(kk), yao: Some(yao) };
                lineage.park();
            }
        });
        let ch = &mut tap;
        let x = Matrix::new(case.input.len(), 1, case.input.clone());
        let mut lineage = ClientLineage::default();
        let mut rounds = Vec::new();
        for i in 0..PREDICTIONS {
            let from = log.lock().unwrap().len();
            let mut rng = StdRng::seed_from_u64(CLIENT_SEED + i);
            lineage.complete(ch, Some(mode), &mut rng).expect("setup");
            let kk = lineage.kk.as_mut().expect("fragment half");
            let bundle = client_offline_with(ch, kk, sg, exec, &mut rng).expect("offline");
            let state = ClientOffline::from_bundle(lineage.yao.take().expect("Yao"), bundle);
            let (yao, y1) =
                client_online_to_logits(ch, state, sg, exec, &x, &mut rng).expect("online");
            let OutputShares(y0) = ch.recv_frame().expect("output shares");
            let y0 = Matrix::new(y1.rows(), 1, ring.decode_slice(&y0));
            assert_eq!(y0.add(&y1, &ring).col(0), case.expected, "round {i} logits");
            lineage.yao = Some(yao);
            lineage.park();
            rounds.push(log.lock().unwrap()[from..].to_vec());
        }
        rounds
    })
}

/// The frames whose bytes are an OT extension's PRG output under a mask:
/// IKNP and KK13 column matrices and everything of the silent subsystem.
fn is_extension_frame(rec: &Rec) -> bool {
    matches!(rec.tag, tags::IKNP_COLUMNS | tags::KK_COLUMNS)
        || (tags::SILENT_BASE_COLUMNS..=tags::SILENT_SPCOT_SUMS).contains(&rec.tag)
}

fn continuation(model: &str, case: &Case) -> Vec<(String, String)> {
    let mut got = Vec::new();
    for (name, silent, mode) in
        [("kk13", false, OfflineMode::Iknp), ("silent", true, OfflineMode::Silent)]
    {
        let sessions = sessions_over_one_lineage(case, silent);
        let rounds = rounds_over_one_pair(case, mode);
        for (i, (session, round)) in sessions.iter().zip(&rounds).enumerate() {
            assert_eq!(session.len(), round.len(), "{model} {name} session {i}: frame count");
            for (at, (s, r)) in session.iter().zip(round).enumerate() {
                assert_eq!(s, r, "{model} {name} session {i} frame {at}");
            }
            let base_ots = session.iter().filter(|r| r.tag == tags::BASE_POINT).count();
            let fresh = sessions[0].iter().filter(|r| r.tag == tags::BASE_POINT).count();
            // The encoder's matrix triples set up an IKNP pair of their
            // own inside every offline phase; the lineage's two batches
            // run in the first session only.
            assert_eq!(base_ots, if i == 0 { fresh } else { fresh - 2 });
        }
        let later: Vec<Rec> =
            sessions[1..].iter().flatten().filter(|r| is_extension_frame(r)).cloned().collect();
        assert!(!later.is_empty());
        got.push((format!("{model} {name} sessions 2-3 extension frames"), bytes_digest(&later)));
    }
    got
}

#[test]
fn continued_sessions_move_what_back_to_back_rounds_over_one_pair_move() {
    let mut got = continuation("mlp", &tiny_mlp());
    got.extend(continuation("encoder", &encoder_block()));
    assert_pinned("continued-session extension frames", &got, CONTINUATION_PINS);
}

const CONTINUATION_PINS: &[(&str, &str)] = &[
    (
        "mlp kk13 sessions 2-3 extension frames",
        "b492b2995b823d251eb3961c3db9378a65ee7cd3f58161a1d19d42d055218897",
    ),
    (
        "mlp silent sessions 2-3 extension frames",
        "111db7b2abfbf9c56db3a30f29c3fd22c77ccac4c2a317eb76d4a53cbf638706",
    ),
    (
        "encoder kk13 sessions 2-3 extension frames",
        "eae2b9b7586ffdcdba7c29a8217c2fb42a71ac0caa158abdaf0dd316eb4f341e",
    ),
    (
        "encoder silent sessions 2-3 extension frames",
        "90ef82de6da231c4c8a3f54ac2ec8c75fa67784b0af7d676c962b10b0fd9c926",
    ),
];

#[test]
fn mlp_session_transcripts_are_pinned() {
    assert_pinned("tiny MLP session transcripts", &all_paths("mlp", &tiny_mlp()), MLP_PINS);
}

#[test]
fn encoder_session_transcripts_are_pinned() {
    assert_pinned(
        "encoder block session transcripts",
        &all_paths("encoder", &encoder_block()),
        ENCODER_PINS,
    );
}

const MLP_PINS: &[(&str, &str)] = &[
    ("mlp cold kk13 bytes", "765312588214f87345c98cfd9825b762546b694da89776508e9f7f4e6eeaabde"),
    ("mlp cold kk13 shape", "6b417eb57cdd7cc12c35d7656b1e38b52bbfcdf07a0b3c640c74f070e355d872"),
    (
        "mlp cold kk13 bytes, no chooser batch",
        "a9b7be8602d2cfbca6ef8caa49f0febfb46a4b994e90846da63fa42fbf665ff3",
    ),
    (
        "mlp cold kk13 shape, no chooser batch",
        "0c6bcff5bc988f426697b480d6b26bb8a24f375e259e1266c39135fb186be6f9",
    ),
    ("mlp cold silent bytes", "da7ea72dd1922ed16b7a43da9089c4340d77dc3520776d8352c2223b07406bfa"),
    ("mlp cold silent shape", "5788a8ab2c36fce07dc4cecfa76fc15fa635a16ea4bd096ea8c3c9187873f8ef"),
    (
        "mlp cold silent bytes, no chooser batch",
        "274edb7482ba0f1d027513ee8c9c9c5de646d62cac671e0e3ca57b1d00008996",
    ),
    (
        "mlp cold silent shape, no chooser batch",
        "cc36cd8d1ec94f58dcbbada4c5c504047321acb247ce557527287bbe9f72abb4",
    ),
    (
        "mlp warm shape, no chooser batch",
        "951fcf85865804ee38e8cb40092b5f1b48d1c354e5960ef2c5068ad0b2bee1bf",
    ),
    ("mlp warm bytes", "3dcf3323879461ef57c4c5e4cc1e7072b6b2cbc569256d76268dab9dbb4bac82"),
    (
        "mlp resumed shape, no chooser batch",
        "758d13d8a38925c3329fe0fab3979ac76fc6eeb9f8fc6e5c0144f5bdbf2685e0",
    ),
    ("mlp resumed bytes", "33736f5102f0188000e6ca793a8fc9cdf8af5ed3be7c06b505ca379c621d522b"),
];

const ENCODER_PINS: &[(&str, &str)] = &[
    ("encoder cold kk13 bytes", "886c8c56a5cb84afa18063b744a776e3df0f6de6fb73e1c0802045733eb519fc"),
    ("encoder cold kk13 shape", "b63bcc839c9c54786f6dc57da8026a4be02995b052fb5d3b1a2c311087a0576d"),
    (
        "encoder cold kk13 bytes, no chooser batch",
        "82d40a40dbd4f455c4e31f4a0d25dba0ef51b3487b3920f5dcea25b299e06f1e",
    ),
    (
        "encoder cold kk13 shape, no chooser batch",
        "d56f073cb4cbc1d040f6120da89534aa099047a367e93fd76233d87b3ffa6cde",
    ),
    (
        "encoder cold silent bytes",
        "ea562d1a12dffb0f1e9ddf87ec4de148508c87227882206f9e659559c956be96",
    ),
    (
        "encoder cold silent shape",
        "5d9be9708b8a18969c761743b1bb7879519c4a56e30a350153a5661de50778f3",
    ),
    (
        "encoder cold silent bytes, no chooser batch",
        "b2299ff41e5163b04ed73e01fd5f99b9e7c3602cb80cb23c32e368ba020cbf78",
    ),
    (
        "encoder cold silent shape, no chooser batch",
        "df6b834b3176a8f6b63e5de5cd714f765eb5f97b9dee17e77c2e6abfe735050a",
    ),
    (
        "encoder warm shape, no chooser batch",
        "e123cc7413d3c7049e2a1350adb0ba1b74a72baf6adba0843acfb1bc4b8db4ad",
    ),
    ("encoder warm bytes", "2b1080936d8c301e27764ec77e130f8e101aaf647f277531677efd4a82d4487f"),
    (
        "encoder resumed shape, no chooser batch",
        "9981ab868e02e4aa9e28e5225060720b5698ef83cafebd7022bcbe9326914137",
    ),
    ("encoder resumed bytes", "702e13d40db05e2bee4fc9eea3317f79a5272e1a6101e29540cbdd45f163c46e"),
];
