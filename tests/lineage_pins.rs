//! Session transcript stability across the setup phase: every frame a
//! fresh session moves after the two hellos, both directions in the order
//! the client sees them, is a function of the seeds, the model and the
//! path alone (cold KK13, cold silent, warm bundle, resumed after a cut).
//! The digests below were recorded at commit 68cadaf, where every session
//! runs both base-OT batches (the fragment chooser's, then Yao's) whatever
//! its path, over a tiny MLP and an encoder block.
//!
//! Two digests per case: `bytes` over every frame's sha256, and `shape`
//! over every frame's (direction, tag, length). Each is recorded twice:
//! over the whole transcript, and with the fragment chooser's base-OT
//! batch (the first `BasePoint`, `BasePointBatch` and `BaseCtBatch`
//! frames) taken out.
//!
//! Lives at the repo root because tier-1 `cargo test -q` runs only the
//! umbrella package.

use abnn2::core::bundle::{dealer_bundle_for, ClientBundle, ServerBundle};
use abnn2::core::driver::{drive_blocking, SessionDriver, SessionHost};
use abnn2::core::resilient::{ResilientClient, ResilientServer};
use abnn2::core::{
    ClientJob, OfflineMode, PublicModel, ResumeToken, SecureClient, SecureServer, ServedModel,
    SessionDeadlines, SessionParams,
};
use abnn2::crypto::sha256::sha256;
use abnn2::math::{FragmentScheme, Ring};
use abnn2::net::wire::tags;
use abnn2::net::{
    sim_link, CommSnapshot, Endpoint, Fault, FaultyTransport, NetworkModel, RetryPolicy, Transport,
    TransportError,
};
use abnn2::nn::quant::{QuantConfig, QuantizedNetwork};
use abnn2::nn::transformer::QuantizedTransformer;
use abnn2::nn::Network;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// What one case records: both digests over the whole transcript and over
/// the transcript without the fragment chooser's base-OT batch.
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
    got.extend(record(&format!("{model} warm"), &fresh_session(case, false, true)));
    got.extend(record(&format!("{model} resumed"), &resumed_session(case)));
    got
}

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
    ("mlp warm bytes", "612d14399bf0b06e96b9632312092603163abdbfd9afddd809ba666f031a788d"),
    ("mlp warm shape", "fffedb993fb120dcf90475d2178cfd993579edb30f9972545a9158d168f64fed"),
    (
        "mlp warm bytes, no chooser batch",
        "af15e6d99f352bd9f643b16fd4a5cd7a04f98b6e80351807f4cac972499a028a",
    ),
    (
        "mlp warm shape, no chooser batch",
        "951fcf85865804ee38e8cb40092b5f1b48d1c354e5960ef2c5068ad0b2bee1bf",
    ),
    ("mlp resumed bytes", "ec065dabcfae91ea234ceac524a9a9a30fe545738c9cc1392a0f7351d90a348c"),
    ("mlp resumed shape", "dbe75f748b316e4befa6f8cc85a6f2d23fcdddf79c2423368b84e2c10ac65c70"),
    (
        "mlp resumed bytes, no chooser batch",
        "eb18f0e075279ec2649b8092192bc14e2fb9f62bf140eb82b7743d45372aac48",
    ),
    (
        "mlp resumed shape, no chooser batch",
        "758d13d8a38925c3329fe0fab3979ac76fc6eeb9f8fc6e5c0144f5bdbf2685e0",
    ),
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
    ("encoder warm bytes", "e45e9f05d03493156b1123ca8cd0b6a4fadc9efad348b5ac25b7b2ef3d19f91c"),
    ("encoder warm shape", "fae38a9b65141734c4244fddf8f519c57f4f9dd3c6a17dd3c3033153984aab1a"),
    (
        "encoder warm bytes, no chooser batch",
        "334982dcc79fe641fcb734e0e9c008f3bc28acd06c049d71d7a2de35e760c707",
    ),
    (
        "encoder warm shape, no chooser batch",
        "e123cc7413d3c7049e2a1350adb0ba1b74a72baf6adba0843acfb1bc4b8db4ad",
    ),
    ("encoder resumed bytes", "ea35fbe16f0bbe956718126bb656c89496f7aa03912f2853ccdeed4b45e45a4e"),
    ("encoder resumed shape", "d4d86d0eb0170673f54b7bb453ec3463d4ef1cb419e0052232615bf5bdb276e4"),
    (
        "encoder resumed bytes, no chooser batch",
        "025cd090642bc39409cc8732ad295a2cfa899242d4d4e4757c8adf1e87c91586",
    ),
    (
        "encoder resumed shape, no chooser batch",
        "9981ab868e02e4aa9e28e5225060720b5698ef83cafebd7022bcbe9326914137",
    ),
];
