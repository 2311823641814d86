//! Yao transfer stability: the frames one garbled-circuit execution puts on
//! the wire and the bits the evaluator decodes are a function of the seeds,
//! the circuit and both input vectors alone, so how either party holds the
//! garbled material between `garble`, the frames and `evaluate` may change
//! without any peer noticing. The digests below were recorded at commit
//! e1b83bc (tables as `Vec<(Block, Block)>`, decode map as `Vec<bool>`,
//! copied flat on the garbler and back into pairs on the evaluator) from
//! seeded in-process pairs: the served ReLU, the encoder's softmax and the
//! optimized ReLU's sign phase at a width that is not a multiple of 8. Each
//! pair runs its circuit twice back to back, so the second run also pins the
//! IKNP PRG and tweak positions the first one leaves behind.
//!
//! Lives at the repo root because tier-1 `cargo test -q` runs only the
//! umbrella package.

use abnn2::crypto::sha256::sha256;
use abnn2::gc::{circuits, Circuit, YaoEvaluator, YaoGarbler};
use abnn2::net::wire::tags;
use abnn2::net::{run_pair, CommSnapshot, NetworkModel, Transport, TransportError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Keeps the tag and a digest of every frame (tag byte included) the
/// wrapped party sends.
struct Tap<'a, T> {
    inner: &'a mut T,
    sent: Vec<(u8, String)>,
}

impl<T: Transport> Transport for Tap<'_, T> {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.sent.push((payload.first().copied().unwrap_or(0), hex(payload)));
        self.inner.send(payload)
    }
    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        self.inner.recv()
    }
    fn snapshot(&self) -> CommSnapshot {
        self.inner.snapshot()
    }
}

fn hex(data: &[u8]) -> String {
    sha256(data).iter().map(|b| format!("{b:02x}")).collect()
}

fn frame_name(tag: u8) -> &'static str {
    match tag {
        tags::GC_LABELS => "GcLabels",
        tags::GC_TABLES => "GcTables",
        tags::GC_DECODE_MAP => "GcDecodeMap",
        tags::IKNP_COLUMNS => "IknpColumns",
        tags::IKNP_CTS => "IknpCts",
        _ => "unexpected frame",
    }
}

fn seeded_bits(n: usize, seed: u64) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen()).collect()
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

const RUNS: u64 = 2;

/// Two executions of `circuit` over one seeded Yao pair: every frame of
/// both parties in the order sent, then the evaluator's output bits.
fn record(name: &str, circuit: &Circuit, seed: u64) -> Vec<(String, String)> {
    let inputs = |run: u64| {
        (
            seeded_bits(circuit.garbler_inputs().len(), seed + 10 * run),
            seeded_bits(circuit.evaluator_inputs().len(), seed + 10 * run + 1),
        )
    };
    let (garbler_sent, (evaluator_sent, outs), _) = run_pair(
        NetworkModel::instant(),
        |ch| {
            let mut rng = StdRng::seed_from_u64(seed + 2);
            let mut yao = YaoGarbler::setup(ch, &mut rng).expect("garbler setup");
            let mut tap = Tap { inner: ch, sent: Vec::new() };
            for run in 0..RUNS {
                yao.run(&mut tap, circuit, &inputs(run).0, &mut rng).expect("garbler run");
            }
            tap.sent
        },
        |ch| {
            let mut rng = StdRng::seed_from_u64(seed + 3);
            let mut yao = YaoEvaluator::setup(ch, &mut rng).expect("evaluator setup");
            let mut tap = Tap { inner: ch, sent: Vec::new() };
            let outs: Vec<Vec<bool>> = (0..RUNS)
                .map(|run| yao.run(&mut tap, circuit, &inputs(run).1).expect("evaluator run"))
                .collect();
            (tap.sent, outs)
        },
    );
    assert_eq!(garbler_sent.len() as u64, 4 * RUNS, "labels, tables, decode map, OT ciphertexts");
    assert_eq!(evaluator_sent.len() as u64, RUNS, "one column frame per run");
    let mut got = Vec::new();
    for (run, out) in outs.iter().enumerate() {
        let (g_bits, e_bits) = inputs(run as u64);
        assert_eq!(
            out,
            &circuit.eval(&g_bits, &e_bits),
            "{name} run {run} decodes the plain value"
        );
        let frames = garbler_sent[4 * run..4 * run + 4].iter().chain(&evaluator_sent[run..=run]);
        for (tag, digest) in frames {
            got.push((format!("{name} run {run} {}", frame_name(*tag)), digest.clone()));
        }
        let bytes: Vec<u8> = out.iter().map(|&b| u8::from(b)).collect();
        got.push((format!("{name} run {run} output bits"), hex(&bytes)));
    }
    got
}

#[test]
fn yao_frames_and_outputs_are_pinned() {
    let mut got =
        record("relu 32/128/4", &circuits::relu_trunc_reshare_vec_circuit(32, 128, 4), 0x9A00);
    got.extend(record(
        "softmax 16/8x8/0/6",
        &circuits::softmax_reshare_vec_circuit(16, 8, 8, 0, 6),
        0x9B00,
    ));
    got.extend(record("sign 32/13", &circuits::relu_sign_vec_circuit(32, 13), 0x9C00));
    assert_pinned("Yao transfer", &got, YAO_PINS);
}

const YAO_PINS: &[(&str, &str)] = &[
    (
        "relu 32/128/4 run 0 GcLabels",
        "8718560b3ba8399993914724b968669e7b0c774573fae97d450a6f1524957b26",
    ),
    (
        "relu 32/128/4 run 0 GcTables",
        "f1a49e4fbd5a0e7f3bde7b65c8fe42f55e5b79cc555b975042c0eccba57daf7b",
    ),
    (
        "relu 32/128/4 run 0 GcDecodeMap",
        "719af2569b1e6f850351a7b953e432dfb66a85bdc33966c335eea658bb0a4514",
    ),
    (
        "relu 32/128/4 run 0 IknpCts",
        "5a5eac756c101f22b1cf1b26da944688f25641f2806f827d73d9e05bb4107d33",
    ),
    (
        "relu 32/128/4 run 0 IknpColumns",
        "6194aae8ccc8d894658b888d4ad83bcaf1c1058606e3ff21c77abcfbcaab3e11",
    ),
    (
        "relu 32/128/4 run 0 output bits",
        "3459daf18fbbe1c514e088ce4cf4fa0150167c018195099a4e3d801f73c924e5",
    ),
    (
        "relu 32/128/4 run 1 GcLabels",
        "f8d023def02795046c7465f30d87f329a4ae3a15c396f392aaa6e4de758fd782",
    ),
    (
        "relu 32/128/4 run 1 GcTables",
        "5cf8af07f280ad996392d9b1fa523cf22d9a31360bef7b8784e9be53b0acd7b7",
    ),
    (
        "relu 32/128/4 run 1 GcDecodeMap",
        "f412f4f4da0ed686070cb615ad2411d4c020106eda80663b74c5c3524b588a04",
    ),
    (
        "relu 32/128/4 run 1 IknpCts",
        "de69408a779f88811ea24566cd1d9d2350ae799c37855ea02e34fc2a73cf0ad6",
    ),
    (
        "relu 32/128/4 run 1 IknpColumns",
        "a4f689202049f3f826503545179e2da645e904f8c754d8d08ce31b4832fa82df",
    ),
    (
        "relu 32/128/4 run 1 output bits",
        "2eb55f91af8a6a0f192eb2efda24cf89e4b3c0e1ea51dd26e4f15609ef0c674f",
    ),
    (
        "softmax 16/8x8/0/6 run 0 GcLabels",
        "4d6e50a594723582daa3c83e1cc374be1b7743ffba469b68fb4cff478090cc9a",
    ),
    (
        "softmax 16/8x8/0/6 run 0 GcTables",
        "44ec1b819bc0b4813ef6e0afba29dfd8b44ab519e79d39fbdbd76887a43be9f6",
    ),
    (
        "softmax 16/8x8/0/6 run 0 GcDecodeMap",
        "d1a058d3556e36314e0de70450f0106b886904215b6a6908c7c83117214cd87c",
    ),
    (
        "softmax 16/8x8/0/6 run 0 IknpCts",
        "d91f97598457b6dadc12f790d5af1bddc7e93c9383697f3077cb2b5fdfe4deff",
    ),
    (
        "softmax 16/8x8/0/6 run 0 IknpColumns",
        "a4529d662b166828f831605b7a7b1be1ad49242d5975dabf34034c8242d1ea48",
    ),
    (
        "softmax 16/8x8/0/6 run 0 output bits",
        "c723459ea7539d8538fb7a56ae51aba9a151a4fa5414883e924aae2a9c9f00c8",
    ),
    (
        "softmax 16/8x8/0/6 run 1 GcLabels",
        "f2854367813ab8c49390876dbf2a61abefb1d77cb5ea30e8bace59ce47697f2a",
    ),
    (
        "softmax 16/8x8/0/6 run 1 GcTables",
        "d691fe6c13f20213aff51322f3859f301a42a536032e060093128a18594f8b19",
    ),
    (
        "softmax 16/8x8/0/6 run 1 GcDecodeMap",
        "d0834b61dc6ee0fd2d02de8a162abcc7ed246518a49ac34230b0e053235fb37b",
    ),
    (
        "softmax 16/8x8/0/6 run 1 IknpCts",
        "93234be0f3b5fbc41d54237b105f2042422a3ef3da4fb8902889a464c3cc6971",
    ),
    (
        "softmax 16/8x8/0/6 run 1 IknpColumns",
        "5c717f83a67dd64444fb996a486f412da3b504c614bf0a7ba5ca736bde156a25",
    ),
    (
        "softmax 16/8x8/0/6 run 1 output bits",
        "d288a154c3724495868214ad3767f935c435378af9114c09fd1f37c497f997bb",
    ),
    (
        "sign 32/13 run 0 GcLabels",
        "8dd657c8b884d1bc11bb5c60b764461421cd889998b8c3236a2737e065429b15",
    ),
    (
        "sign 32/13 run 0 GcTables",
        "d40cc7e339dd6378c2c322bfacecbff03423a8ad9efb787d7c5ee697b8515d8f",
    ),
    (
        "sign 32/13 run 0 GcDecodeMap",
        "48e2661031b0dc83d11ce646596f594063a13879b286ccd0e1b3c94067202c2b",
    ),
    (
        "sign 32/13 run 0 IknpCts",
        "d508cf0c1e0e85ed31e414164cbcf106e45188e2964ce5eec54952dde2d156b2",
    ),
    (
        "sign 32/13 run 0 IknpColumns",
        "801e39c59510bcec84c3d94bb6bf8f38085bb0f7f1812527e6b7c4c1b3663485",
    ),
    (
        "sign 32/13 run 0 output bits",
        "975770d8e132b4f690413d0bf2a87d2006b916f39648b7bcf2cf331fb73e967f",
    ),
    (
        "sign 32/13 run 1 GcLabels",
        "9c893d9a5bdfdf6ea5ec7300c3288baf4d434b7809e065af8649f141ec9a5194",
    ),
    (
        "sign 32/13 run 1 GcTables",
        "3ae8257f101c5274da0fd367a34158c35511b57b90d2dcea486d26dfeb3848e4",
    ),
    (
        "sign 32/13 run 1 GcDecodeMap",
        "188d318b67c6d2331459cc0cd7a12572f0dbf42170d255204a905f79a2350ebd",
    ),
    (
        "sign 32/13 run 1 IknpCts",
        "39480030d643de28f173f95bc5c37fcb8d2450b1622dc1bc0bd9f7ff2c7fa5eb",
    ),
    (
        "sign 32/13 run 1 IknpColumns",
        "5523843c352c7e7d5c10ca48bd3311c1581d862334d3bc27077fee8d8dc76413",
    ),
    (
        "sign 32/13 run 1 output bits",
        "5a8355de8dd5eab1e1a193ef8261bca981c42bbb0881b1085e447545b4cd63ae",
    ),
];
