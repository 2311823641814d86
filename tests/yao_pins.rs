//! Yao transfer stability: the frames one garbled-circuit execution puts on
//! the wire and the bits the evaluator decodes are a function of the seeds,
//! the circuit and both input vectors alone, so how either party holds the
//! garbled material between `garble`, the frames and `evaluate` may change
//! without any peer noticing. The digests below were recorded at commit
//! e1b83bc (tables as `Vec<(Block, Block)>`, decode map as `Vec<bool>`,
//! copied flat on the garbler and back into pairs on the evaluator) from
//! seeded in-process pairs: the served ReLU, the encoder's softmax and the
//! optimized ReLU's sign phase at a width that is not a multiple of 8; the
//! six shapes after them at commit aa56088 (one flat gate list per circuit,
//! one label per wire). Each pair runs its circuit twice back to back, so
//! the second run also pins the IKNP PRG and tweak positions the first one
//! leaves behind.
//!
//! Re-recorded once the circuit builder folded public constants and built
//! squares as squares: exactly 12 of the 108 rows moved, the `GcTables`
//! and `GcDecodeMap` rows of both runs of `softmax 16/8x8/0/6`,
//! `layernorm 16/8x8/2,0/6` and `gelu 16/128/2/6`, whose bodies now garble
//! fewer ANDs. Their `GcLabels`, `IknpCts`, `IknpColumns` and output-bit
//! rows stayed, and so did every row of the other six shapes, which have
//! no constants to fold.
//!
//! Re-recorded for protocol v10, when the divisions became non-restoring,
//! the signed division's sign fixes conditional negations and GELU's clamp
//! a sign bit and an OR, and the builders stopped emitting ANDs nothing
//! reads: the same 12 rows moved, and no other. The three bodies garble
//! fewer ANDs; their labels, OT frames and output bits are unchanged.
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
    // Shapes whose input order is not one word per group: two operands,
    // several words a group, a group count one past 64, and a single group.
    got.extend(record(
        "layernorm 16/8x8/2,0/6",
        &circuits::layernorm_reshare_vec_circuit(16, 8, 8, 2, 0, 6),
        0x9D00,
    ));
    got.extend(record(
        "gelu 16/128/2/6",
        &circuits::gelu_trunc_reshare_vec_circuit(16, 128, 2, 6),
        0x9E00,
    ));
    got.extend(record("maxpool 32/4/9", &circuits::max_pool_reshare_vec_circuit(32, 4, 9), 0x9F00));
    got.extend(record(
        "reconstruct 32/65/4",
        &circuits::reconstruct_trunc_reshare_vec_circuit(32, 65, 4),
        0xA000,
    ));
    got.extend(record("argmax 32/10", &circuits::argmax_mask_circuit(32, 10), 0xA100));
    got.extend(record("relu 32/1/4", &circuits::relu_trunc_reshare_vec_circuit(32, 1, 4), 0xA200));
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
        "ac8808bd042e3d4c5855138998f402f1ddc1f08a4f72c66aa8838aaffaa646f0",
    ),
    (
        "softmax 16/8x8/0/6 run 0 GcDecodeMap",
        "9cfd3efa8b73d7ea0fcf1d353abcd192d8349ac5b0fbb259362f827347c2fd17",
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
        "a704fe668a8fda3232d735ad6a3ac5802be095939d3e3ee0ecd00969564bdd47",
    ),
    (
        "softmax 16/8x8/0/6 run 1 GcDecodeMap",
        "36c2e741e74860a25878691cf8ab90b803c4eb2190a1d97c842e406c3bdab85c",
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
    (
        "layernorm 16/8x8/2,0/6 run 0 GcLabels",
        "c58aa00f8693a6f7cfbe9c9a01acc314a3657525461f5ef80da52fc454f15d17",
    ),
    (
        "layernorm 16/8x8/2,0/6 run 0 GcTables",
        "ad7e6243732075e0039aba8716fd2bbeebf734da93e7c43a6035e619ba9baa53",
    ),
    (
        "layernorm 16/8x8/2,0/6 run 0 GcDecodeMap",
        "bba529c822f16818070866078e2e4a6e6d004c23ac1f25e16b89b0ea5f0c1f3a",
    ),
    (
        "layernorm 16/8x8/2,0/6 run 0 IknpCts",
        "880031c12a11b728ac3ef202c22f6501a576ea78ed1d28e8385aefa8d6a94d0c",
    ),
    (
        "layernorm 16/8x8/2,0/6 run 0 IknpColumns",
        "0f7bd438c6e84e7955fd60948055b94eb649f42980903f0ef11a4524c1ecf52c",
    ),
    (
        "layernorm 16/8x8/2,0/6 run 0 output bits",
        "11ff93146c2e3f0235af71a497e8d6fa7286e318d42aa46651de95a23505b05e",
    ),
    (
        "layernorm 16/8x8/2,0/6 run 1 GcLabels",
        "140c06b018eca5fc3ef91cce8a6055d2ec26f3aefbecefa0f167cbfea9b99625",
    ),
    (
        "layernorm 16/8x8/2,0/6 run 1 GcTables",
        "b702a0c9d5584d607de7f50c0538bc90cb9b8c8b1a82ecbab2c8d3b405564cd3",
    ),
    (
        "layernorm 16/8x8/2,0/6 run 1 GcDecodeMap",
        "80bcf595fcf3824dde2745a916a69ac3ae223073fb3bb2da2c69d202f241dc76",
    ),
    (
        "layernorm 16/8x8/2,0/6 run 1 IknpCts",
        "93a2f4e776d1c528f0ed0f7905d8d1b7ff439aae8d94b786cb88babbb137614a",
    ),
    (
        "layernorm 16/8x8/2,0/6 run 1 IknpColumns",
        "d60da32e7075e50509eccb54568db056b1ae79694f3feeaaae27bf89b9ca85c3",
    ),
    (
        "layernorm 16/8x8/2,0/6 run 1 output bits",
        "42c28e862c6769d411f31ed4d647d9d6bdcaac4672c842d914b1130eb286d9f7",
    ),
    (
        "gelu 16/128/2/6 run 0 GcLabels",
        "94e398b8a533ec76e9f9eeddd228ff16259a6f26a6f3d8b87bc9d02bd9dceb09",
    ),
    (
        "gelu 16/128/2/6 run 0 GcTables",
        "12bade76fcbeeb1183018cf3607c9671a40f98133860a9f009807dcd046780dc",
    ),
    (
        "gelu 16/128/2/6 run 0 GcDecodeMap",
        "b0646868386bf24bb87ee3636123cb312d6ea1f80c230119209f74651d7fe9a7",
    ),
    (
        "gelu 16/128/2/6 run 0 IknpCts",
        "45688c77e4506b114e14a7db37bd46e34d8dcc177674023d814ab0d7a4546990",
    ),
    (
        "gelu 16/128/2/6 run 0 IknpColumns",
        "c0f5fa2d95009f2e1a134844e2b4ab5c8f5863a15f24cecaf0c60a111aa570ad",
    ),
    (
        "gelu 16/128/2/6 run 0 output bits",
        "b07b300dcc42236b0d713ceb9638de3c5189e40ffa2bcdc3407bfe52689b68d4",
    ),
    (
        "gelu 16/128/2/6 run 1 GcLabels",
        "6512f8290d4cd89c55c0794c59881ba22350164975063829ffa3a7f8d6a2a7a3",
    ),
    (
        "gelu 16/128/2/6 run 1 GcTables",
        "1d954e60f9346c3b59359811d6ee338977a95addad6ced0ba461c884a8c5877a",
    ),
    (
        "gelu 16/128/2/6 run 1 GcDecodeMap",
        "bed73fb25f71a657bc3fb8fa438b1bfa58e1beafd0b2958eb9ef50b8da26a9af",
    ),
    (
        "gelu 16/128/2/6 run 1 IknpCts",
        "6582d2426af331e2621cc68532b8f91e322a43039e41316c1a87d2bfd0c1716d",
    ),
    (
        "gelu 16/128/2/6 run 1 IknpColumns",
        "5cce2812b0e1445f8aa834fd2c825cbf5b39fafb1d7901b0cd6fdebade8e91f8",
    ),
    (
        "gelu 16/128/2/6 run 1 output bits",
        "16d6a977315383c8368212dcaba9419b5a0ef3c82c292ea87ddbb67b51be887a",
    ),
    (
        "maxpool 32/4/9 run 0 GcLabels",
        "e4e307f2ca6003256236b11366142459c84ed11d1b74c0a4f046949558b72a54",
    ),
    (
        "maxpool 32/4/9 run 0 GcTables",
        "c62d1538008c0d50dbda06219206eae6cae9f68bc7b510acbb5a118bd00f15e6",
    ),
    (
        "maxpool 32/4/9 run 0 GcDecodeMap",
        "b3dae8a7cebe11b885a1fc80396dc745c915b3d2d939e3d40d51abe25eef1f6b",
    ),
    (
        "maxpool 32/4/9 run 0 IknpCts",
        "7a444e7ced240723552c0042fc8b0eeaba8aaf1c63b760bc87f1d2c12546a7d8",
    ),
    (
        "maxpool 32/4/9 run 0 IknpColumns",
        "d6ee8ee5933157964aca789f6856e78582a0856c556269e8e6ff86a19a44e6a9",
    ),
    (
        "maxpool 32/4/9 run 0 output bits",
        "fcf990368376e9a3bfed31ededebb130cbf572ca690687b7a566bbd8463727df",
    ),
    (
        "maxpool 32/4/9 run 1 GcLabels",
        "576a43c7326aa2cc38de626d6aec55f9a15e793b4fb921c4b6ffe0d031c9ff37",
    ),
    (
        "maxpool 32/4/9 run 1 GcTables",
        "682183155eb59ef6d7f291317034c01bf219b48f46938c4ba29d500d7aae43c6",
    ),
    (
        "maxpool 32/4/9 run 1 GcDecodeMap",
        "ae947a9661e2bb9b8af008698580b17cf4f5997a14d762f2e500c46a96da2e44",
    ),
    (
        "maxpool 32/4/9 run 1 IknpCts",
        "935fdb05708e244d38201f2cab7f415e55c09eb5df73d2238df1a17d5f6ede28",
    ),
    (
        "maxpool 32/4/9 run 1 IknpColumns",
        "76353ecdc6a5613a3e849961207dc1169ef8baef33d5bcb6b4afa09b7853e89b",
    ),
    (
        "maxpool 32/4/9 run 1 output bits",
        "04a9a926590465c07fa58104d21b6e578af2bf9a706400dc04594fc77ba02aeb",
    ),
    (
        "reconstruct 32/65/4 run 0 GcLabels",
        "aa16d5cbc4d4611477ada7d5f107b231b85af160034fa36e9ee0b041854c0049",
    ),
    (
        "reconstruct 32/65/4 run 0 GcTables",
        "445b0296beb0393932aed8d9eb4b88bded9a04b3855f8079d6c99314d98085a8",
    ),
    (
        "reconstruct 32/65/4 run 0 GcDecodeMap",
        "a163e025cf62a54bacfc8b8e391ab34745c71e63e001b2fc13f255f255eaef7b",
    ),
    (
        "reconstruct 32/65/4 run 0 IknpCts",
        "931628f56553be30a0dce4ec2e830c7b589919d9dfe5b649c6a3c13f43126b67",
    ),
    (
        "reconstruct 32/65/4 run 0 IknpColumns",
        "230ad5c034ed17fc57ff5a6761b7ab1fbe5c389b08c06b570d315cd7cdddbe14",
    ),
    (
        "reconstruct 32/65/4 run 0 output bits",
        "aa3a171850458282e5e76e8be777b8b72c2fd105a1bf18ca29db5255858c8472",
    ),
    (
        "reconstruct 32/65/4 run 1 GcLabels",
        "051c397cb85943ad9b041542993807052d42e8fc81f1789b295232de93593877",
    ),
    (
        "reconstruct 32/65/4 run 1 GcTables",
        "485d24114b70d226c9bc0f7307a16aef623dbd9437944a149537a08e47a3a417",
    ),
    (
        "reconstruct 32/65/4 run 1 GcDecodeMap",
        "1172663173014d6329651d045e620748d4488873c480a8a13f2b4834eb98c2d6",
    ),
    (
        "reconstruct 32/65/4 run 1 IknpCts",
        "cd61fadfcc61b58a8058c01d9a79a22c84552af881df9d2852a861c97dde6812",
    ),
    (
        "reconstruct 32/65/4 run 1 IknpColumns",
        "d035cc3b4900b6def669dd874ecd9d605bddbfc0b88969e895dbed23f4715c9f",
    ),
    (
        "reconstruct 32/65/4 run 1 output bits",
        "c060ea3f48942e76c1593576981eed5e892877d135bf81f1ee717f96d0a4a7f0",
    ),
    (
        "argmax 32/10 run 0 GcLabels",
        "f43e4ae917b5b4d047cb40de06aae275726ce30113c16503c4086de075564cd6",
    ),
    (
        "argmax 32/10 run 0 GcTables",
        "43ca33d1ec638f6f42c9eb6572b07113fd1899f4093b8fa8f10faced20119acb",
    ),
    (
        "argmax 32/10 run 0 GcDecodeMap",
        "4f1e0b59609e4c5c5dd6f0c548df01176f847bd2fd28ce1bf22a6ce7f85fc627",
    ),
    (
        "argmax 32/10 run 0 IknpCts",
        "a32d305f129db0783560823f4ea7fd82df9ff1cf9b3564fd31db3638a808ecba",
    ),
    (
        "argmax 32/10 run 0 IknpColumns",
        "912ef6ac51188fd8ae0c8f4a7fd68c8837f615ae3b2d19e8f6a62881f1824fc1",
    ),
    (
        "argmax 32/10 run 0 output bits",
        "4afc7d98518180331a55e2f7b2d03f93c15d1c24afc976cdfb5737e02a190203",
    ),
    (
        "argmax 32/10 run 1 GcLabels",
        "1a898f9ea395a8d270f97b72000746969a2e11a3efad3a9c207b1e7cf40d1224",
    ),
    (
        "argmax 32/10 run 1 GcTables",
        "ea65d0a968dd62e9651a6bd63bc9db795d58ab1b1a78e63ea3197de0f5e706ad",
    ),
    (
        "argmax 32/10 run 1 GcDecodeMap",
        "4f1e0b59609e4c5c5dd6f0c548df01176f847bd2fd28ce1bf22a6ce7f85fc627",
    ),
    (
        "argmax 32/10 run 1 IknpCts",
        "bb3753efef958a3fc1e1491823249489fb03d7a10c920cde3b0b4d1fb695cce2",
    ),
    (
        "argmax 32/10 run 1 IknpColumns",
        "a4fcc9202a04ae809733e0c977f7e7a84b0fa2cd002067b3a0ee01de81e607c7",
    ),
    (
        "argmax 32/10 run 1 output bits",
        "4afc7d98518180331a55e2f7b2d03f93c15d1c24afc976cdfb5737e02a190203",
    ),
    (
        "relu 32/1/4 run 0 GcLabels",
        "54da95e61bfea9c0a943dc992f7a7cb4f54632014403cceb44e96e5d53b18517",
    ),
    (
        "relu 32/1/4 run 0 GcTables",
        "058050453017e0c8f75ee29da2164c95eb976d12e1db575ed398619bd18e68b3",
    ),
    (
        "relu 32/1/4 run 0 GcDecodeMap",
        "8692ff33f0d950a9a1ad56a48645a05154cb3cc652bc8f96ebbce77227e4d16f",
    ),
    (
        "relu 32/1/4 run 0 IknpCts",
        "a675170c6fcf41b1e77ed71805791bbde31e173b2ceb052e7188aab334dd3b05",
    ),
    (
        "relu 32/1/4 run 0 IknpColumns",
        "c9b9242f2af19155652db34ea04864c14f603ec074ec38f2d4a3b1b6e0107ab3",
    ),
    (
        "relu 32/1/4 run 0 output bits",
        "aa0bcccc9e99bb3dde354aa885ab44dd929b6990b21dba4a0b224478e69a4805",
    ),
    (
        "relu 32/1/4 run 1 GcLabels",
        "ae79517839ef205c676c001ba2697e363e7f9581d0dcb53129cd23b82f0a1f18",
    ),
    (
        "relu 32/1/4 run 1 GcTables",
        "d3fa2fd56f536cfa96d8e8f809d98ab7c904becbd4057209086f7dd8c76a50a5",
    ),
    (
        "relu 32/1/4 run 1 GcDecodeMap",
        "125df76af80d38a10977ee299cf2b7a86899b63bb2018d0a2a8a2ae4f0cb461a",
    ),
    (
        "relu 32/1/4 run 1 IknpCts",
        "87371c81e96e62a50dff33ce1c1741d5ee51e94a69d9e8016d96e61f2d6cde94",
    ),
    (
        "relu 32/1/4 run 1 IknpColumns",
        "67022abe7b3c656214f348c16f44c06d450ac38364e6b1d7e96f62b923bcc871",
    ),
    (
        "relu 32/1/4 run 1 output bits",
        "0d4af2849c6becb76ba85b75905259e72d3be716a893419743918e54cf423eec",
    ),
];
