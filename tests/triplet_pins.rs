//! Triplet stability: the §4.1 triplet frames and both parties' shares are
//! a function of the seeds, the weights, `R` and the OT keys alone, so how
//! a key becomes a mask (one oracle call at a time or a batch), how the
//! client packs its ciphertexts and how the server decodes them may change
//! without any peer noticing. The digests below were recorded at commit
//! bd7cb7f (one `hash_expand` call per (OT, symbol), four `(mode, digit)`
//! arms in `core::matmul`) from seeded in-process pairs. A peer built there
//! interoperates with this tree only while they stay byte-for-byte equal.
//!
//! Re-recorded for protocol v8, where the oracle expands a digest into a
//! mask under its fixed key (block `k` is `H(k, digest)`, no key schedule
//! per digest) instead of AES-CTR keyed by the digest. So every mask moved:
//! every `masked` frame, the silent masks and the vector C-OT payload and
//! outputs. `U` and `V` moved only for `1b`, where the client's share is
//! mask 0; under `mb1`/`mb3` the client samples its share and the masks
//! cancel, so those rows are the parent's. No `derand` row moved: the
//! server's corrections depend on its choices and the COT pool, not on a
//! mask.
//!
//! Lives at the repo root because tier-1 `cargo test -q` runs only the
//! umbrella package.

use abnn2::core::matmul::{triplet_client_with, triplet_server_with, TripletConfig, TripletMode};
use abnn2::crypto::sha256::sha256;
use abnn2::math::{FragmentScheme, Matrix, Ring};
use abnn2::net::wire::tags;
use abnn2::net::{run_pair, CommSnapshot, NetworkModel, Transport, TransportError};
use abnn2::ot::{
    FragmentChooser, FragmentSender, IknpReceiver, IknpSender, OfflineMode, SilentKkChooser,
    SilentKkSender,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Keeps a digest of every frame (tag byte included) of one tag that the
/// wrapped party sends.
struct Tap<'a, T> {
    inner: &'a mut T,
    tag: u8,
    sent: Vec<[u8; 32]>,
}

impl<T: Transport> Transport for Tap<'_, T> {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        if payload.first() == Some(&self.tag) {
            self.sent.push(sha256(payload));
        }
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

fn hex_words(words: &[u64]) -> String {
    hex(&words.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>())
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

/// 7 × 160 weights: 1120 OTs per fragment group, past a thousand so a
/// bounded-chunk loop takes several turns, and not a multiple of 3 so the
/// three-thread shards are uneven.
const M: usize = 7;
const N: usize = 160;

fn schemes() -> [(&'static str, FragmentScheme); 3] {
    [
        ("22", FragmentScheme::signed_bit_fields(&[2, 2])),
        ("332", FragmentScheme::signed_bit_fields(&[3, 3, 2])),
        ("b73", FragmentScheme::balanced(7, 3)),
    ]
}

const LAYOUTS: [(&str, TripletMode, usize); 3] = [
    ("1b", TripletMode::OneBatch, 1),
    ("mb1", TripletMode::MultiBatch, 1),
    ("mb3", TripletMode::MultiBatch, 3),
];

/// One session per (OT mode, thread count), every (layout, scheme, ring)
/// triplet back to back over it, so the later ones also pin the tweak, PRG
/// and COT-pool positions the earlier ones leave behind. Per triplet: the
/// client's `TripletMasked` frames (`masked`), under silent OT the server's
/// `SilentDerand` frames (`derand`: fragment choices and refills alike),
/// `U` and `V`. A pin's label reads layout (`1b` = `OneBatch` o=1, `mb1` /
/// `mb3` = `MultiBatch` o=1 / o=3), scheme (`22` and `332` =
/// `signed_bit_fields`, `b73` = `balanced(7, 3)`), ring bits, item — short
/// enough that rustfmt keeps a pin on one line.
fn record(ot: OfflineMode, threads: usize) -> Vec<(String, String)> {
    let (server, client, _) = run_pair(
        NetworkModel::instant(),
        move |ch| {
            let mut kk =
                FragmentChooser::setup(ch, ot, &mut StdRng::seed_from_u64(0x7A)).expect("setup");
            let mut tap = Tap { inner: ch, tag: tags::SILENT_DERAND, sent: Vec::new() };
            let mut out = Vec::new();
            for (c, (_, mode, o)) in LAYOUTS.iter().enumerate() {
                for (s, (_, scheme)) in schemes().iter().enumerate() {
                    for bits in [32u32, 64] {
                        let seed = 0x7C00 + 100 * c as u64 + 10 * s as u64 + u64::from(bits);
                        let (lo, hi) = scheme.weight_range();
                        let mut rng = StdRng::seed_from_u64(seed);
                        let weights: Vec<i64> =
                            (0..M * N).map(|_| rng.gen_range(lo..=hi)).collect();
                        let cfg = TripletConfig::new(*mode).with_threads(threads);
                        let at = tap.sent.len();
                        let ring = Ring::new(bits);
                        let u = triplet_server_with(
                            &mut tap, &mut kk, &weights, M, N, *o, scheme, ring, cfg,
                        )
                        .expect("triplet server");
                        out.push((tap.sent[at..].concat(), u, weights));
                    }
                }
            }
            out
        },
        move |ch| {
            let mut rng = StdRng::seed_from_u64(0x7B);
            let mut kk = FragmentSender::setup(ch, ot, &mut rng).expect("setup");
            let mut tap = Tap { inner: ch, tag: tags::TRIPLET_MASKED, sent: Vec::new() };
            let mut out = Vec::new();
            for (_, mode, o) in LAYOUTS {
                for (_, scheme) in schemes() {
                    for bits in [32u32, 64] {
                        let ring = Ring::new(bits);
                        let r = Matrix::random(N, o, &ring, &mut rng);
                        let cfg = TripletConfig::new(mode).with_threads(threads);
                        let at = tap.sent.len();
                        let v = triplet_client_with(
                            &mut tap, &mut kk, &r, M, &scheme, ring, cfg, &mut rng,
                        )
                        .expect("triplet client");
                        out.push((tap.sent[at..].concat(), v, r));
                    }
                }
            }
            out
        },
    );
    let mut labels = Vec::new();
    for (layout, _, _) in LAYOUTS {
        for (scheme, _) in schemes() {
            for bits in [32u32, 64] {
                labels.push((format!("{layout} {scheme} {bits}"), Ring::new(bits)));
            }
        }
    }
    let mut got = Vec::new();
    for (((label, ring), (derand, u, weights)), (masked, v, r)) in
        labels.into_iter().zip(server).zip(client)
    {
        let w: Vec<u64> = weights.iter().map(|&w| ring.from_i64(w)).collect();
        assert_eq!(u.add(&v, &ring), Matrix::new(M, N, w).mul(&r, &ring), "{label}: U + V = W·R");
        got.push((format!("{label} masked"), hex(&masked)));
        match ot {
            OfflineMode::Iknp => assert!(derand.is_empty(), "{label}: KK13 sends no derand"),
            OfflineMode::Silent => got.push((format!("{label} derand"), hex(&derand))),
        }
        got.push((format!("{label} U"), hex_words(u.as_slice())));
        got.push((format!("{label} V"), hex_words(v.as_slice())));
    }
    got
}

#[test]
fn iknp_triplet_frames_and_shares_are_pinned() {
    for threads in [1, 3] {
        let got = record(OfflineMode::Iknp, threads);
        assert_pinned(&format!("IKNP triplets at {threads} threads"), &got, IKNP_TRIPLET_PINS);
    }
}

#[test]
fn silent_triplet_frames_and_shares_are_pinned() {
    for threads in [1, 3] {
        let got = record(OfflineMode::Silent, threads);
        assert_pinned(&format!("silent triplets at {threads} threads"), &got, SILENT_TRIPLET_PINS);
    }
}

#[test]
fn silent_fragment_masks_are_pinned() {
    const RADICES: [u64; 5] = [2, 3, 4, 16, 256];
    const LENS: [usize; 3] = [4, 24, 64];
    const OTS: usize = 13;
    // Two extensions per radix, all over one pair.
    let symbols: Vec<Vec<u64>> = RADICES
        .iter()
        .flat_map(|&n| [(n, 0u64), (n, 1)])
        .map(|(n, round)| {
            let mut rng = StdRng::seed_from_u64(0x5C00 + 10 * n + round);
            (0..OTS).map(|_| rng.gen_range(0..n)).collect()
        })
        .collect();
    let (sender_keys, chooser_keys, _) = run_pair(
        NetworkModel::instant(),
        |ch| {
            let mut s = SilentKkSender::setup(ch, &mut StdRng::seed_from_u64(0x5A)).expect("setup");
            RADICES
                .iter()
                .flat_map(|&n| [n, n])
                .map(|n| s.extend(ch, OTS, n).expect("sender extend"))
                .collect::<Vec<_>>()
        },
        |ch| {
            let mut c =
                SilentKkChooser::setup(ch, &mut StdRng::seed_from_u64(0x5B)).expect("setup");
            RADICES
                .iter()
                .flat_map(|&n| [n, n])
                .zip(&symbols)
                .map(|(n, w)| c.extend(ch, w, n).expect("chooser extend"))
                .collect::<Vec<_>>()
        },
    );
    let mut got = Vec::new();
    for (i, (sk, ck)) in sender_keys.iter().zip(&chooser_keys).enumerate() {
        let (n, round) = (RADICES[i / 2], i % 2);
        assert_eq!((sk.len(), ck.len()), (OTS, OTS));
        for len in LENS {
            for (j, &wj) in symbols[i].iter().enumerate() {
                assert_eq!(ck.mask(j, len), sk.mask(j, wj, len), "n={n} ext {round} ot {j}");
            }
            let sender_masks: Vec<u8> =
                (0..OTS).flat_map(|j| (0..n).flat_map(move |v| sk.mask(j, v, len))).collect();
            let chooser_masks: Vec<u8> = (0..OTS).flat_map(|j| ck.mask(j, len)).collect();
            got.push((format!("n={n} x{round} len={len} sender"), hex(&sender_masks)));
            got.push((format!("n={n} x{round} len={len} chooser"), hex(&chooser_masks)));
        }
    }
    assert_pinned("silent fragment masks", &got, SILENT_MASK_PINS);
}

#[test]
fn vector_cot_payload_and_outputs_are_pinned() {
    const WIDTH: usize = 3;
    let mut got = Vec::new();
    for (bits, m) in [(32u32, 300usize), (64, 13)] {
        let ring = Ring::new(bits);
        let mut rng = StdRng::seed_from_u64(0x3C00 + m as u64);
        let deltas: Vec<Vec<u64>> = (0..m).map(|_| ring.sample_vec(&mut rng, WIDTH)).collect();
        let choices: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
        let ((sent, x0s), received, _) = run_pair(
            NetworkModel::instant(),
            |ch| {
                let mut s = IknpSender::setup(ch, &mut StdRng::seed_from_u64(0x3A)).expect("setup");
                let mut tap = Tap { inner: ch, tag: tags::OT_VEC_PAYLOAD, sent: Vec::new() };
                let x0s = s.send_correlated_vec(&mut tap, &deltas, ring).expect("send");
                (tap.sent, x0s)
            },
            |ch| {
                let mut r =
                    IknpReceiver::setup(ch, &mut StdRng::seed_from_u64(0x3B)).expect("setup");
                r.recv_correlated_vec(ch, &choices, WIDTH, ring).expect("recv")
            },
        );
        assert_eq!(sent.len(), 1, "one payload frame per vector C-OT batch");
        for (j, &c) in choices.iter().enumerate() {
            let want = if c { ring.add_vec(&x0s[j], &deltas[j]) } else { x0s[j].clone() };
            assert_eq!(received[j], want, "l={bits} ot {j}: x0 + c·delta");
        }
        got.push((format!("l={bits} m={m} OtVecPayload"), hex(&sent[0])));
        got.push((format!("l={bits} m={m} sender x0"), hex_words(&x0s.concat())));
        got.push((format!("l={bits} m={m} received"), hex_words(&received.concat())));
    }
    assert_pinned("vector C-OT", &got, VECTOR_COT_PINS);
}

const IKNP_TRIPLET_PINS: &[(&str, &str)] = &[
    ("1b 22 32 masked", "c153cbf2a20acc16e1a231baa6137c7214a4b1c206319b1c5ce4e222c9991ad0"),
    ("1b 22 32 U", "1b8af155195b36a5d4b5e806dc31f06d614e951a711cd48e0de4e6dc77ef352f"),
    ("1b 22 32 V", "3359c162723eaab3bdaff0e74c1dc325950b29c290fc902a3dbc7c47c94aeac1"),
    ("1b 22 64 masked", "8086ba2928767521f675c5e1464cfaaa49b83d5f2ec744f08046ed35c311433b"),
    ("1b 22 64 U", "054c1b26e11b847fc6d7b6cc9f808e4dd0844b6497307a21d8a82263bdc245d5"),
    ("1b 22 64 V", "26a98bdfbb91aded737bfc13c80e614ebe169647f13d927269da7db43fa03601"),
    ("1b 332 32 masked", "1d5b85e13bc9bc4f159e6111bebdab9cd95a75d8e2e0040a6ba305730951c321"),
    ("1b 332 32 U", "bf8f556b81613a548389004ef013a18373e00f615953b76ca861da787b00e26a"),
    ("1b 332 32 V", "81f52a3350bca0e39320c29690541501fdddcd309f88d6a4353d9e5f8ee159f2"),
    ("1b 332 64 masked", "1ecbcdc7418f693635669e01bdf062f0ab178b16805f845bcff47d2b30129e2f"),
    ("1b 332 64 U", "312eee37e2b1578fc082e1aa7c3b6637a5ba34d1572dc11dc7fa192357cd83ee"),
    ("1b 332 64 V", "0397b3b6f9d6df7314ed91efbd4e36a5f567678a6aba0eacd092ea3c71b5ec68"),
    ("1b b73 32 masked", "e52ebed764fc9f7cd1c5cfa4c0c6433e384266e76a86580e86a957b1f73a3caf"),
    ("1b b73 32 U", "2001c78e4c5e137a5945e792f9d66797e20298ddd357ba73fb95276e20be6168"),
    ("1b b73 32 V", "88e2da1e1b95dce23bd44d37454fc91ecb8f95dd575247dada63afb93542567c"),
    ("1b b73 64 masked", "cc588a9f6bc6e011792d45bb396067e4b3385437989490199c609373ed316f51"),
    ("1b b73 64 U", "1d157df5997ecb09928c52a5ff9fd4e9dd72e462f0727c00e6d768d1ea462d73"),
    ("1b b73 64 V", "f6de33182b423fc32c601eb36748d23e22f7af8f9f5107eac3d31f5a301acf52"),
    ("mb1 22 32 masked", "bad332c89785afe98e51add946ed840e4dd16fea31c8fa03c3d01a9bc7c3a1da"),
    ("mb1 22 32 U", "eb09cffb46f9cdf367fc5bf4069b5b06ba34117b0791ce5033d7433e710d689a"),
    ("mb1 22 32 V", "04c1201b027eb96b75b05c4c5cc2534b8db93b11ac3ccaf5550b46bcbad13166"),
    ("mb1 22 64 masked", "37a7d43a47faebd2fae3f0d5226a808601b1c513bc1dda025091e56a4a588924"),
    ("mb1 22 64 U", "2bdb92a74eff113a8f152d3ae39bfedc40560d549fceea1d1617fc39af1041a4"),
    ("mb1 22 64 V", "7c6268c388ce51bc3c8c6fae93be9632d4c97b4e00567173207d45b1f92dc391"),
    ("mb1 332 32 masked", "18ef9cf3dbe7f54996fe606dc4011c00ebe6fa28c7981cb3220c087614120f24"),
    ("mb1 332 32 U", "303f2b7c108b2fd6a079c0a721b5e224b542462a06d9d0beacb480e176360afa"),
    ("mb1 332 32 V", "d2b6ca0f713dd003c15d7e0b2b5b9a2b73259ef55931cb792a76b16b1eec8acc"),
    ("mb1 332 64 masked", "82da685cc5ab10e63f45518ecd0824abd06d259e4651a8fc5277840b654f7fbb"),
    ("mb1 332 64 U", "2b9b5a09edcf8ec4d95e2b39c133f272b38f2e5ef253b9db2191cad87917121a"),
    ("mb1 332 64 V", "44152af10209df2bcdbcc71aa9a3ba660e6b28f3e31808ec9cb61aa8521664b2"),
    ("mb1 b73 32 masked", "69119fcd286882eb61bd0c05c0d0257d8a629ee2af568625ac24dbee59c8760b"),
    ("mb1 b73 32 U", "b5938f5fc7e2de861f82d94768a8a0364d6eeb3b19a8327f0b977f51e2c550e5"),
    ("mb1 b73 32 V", "ec2d3ca0307d05d9723c79c3b16f15f6ca2dc19eda46b251eb407f6a196c5408"),
    ("mb1 b73 64 masked", "5476a794d064430bcb604ab291c8a290850182c47f9d37bbe8f30273bf766006"),
    ("mb1 b73 64 U", "750ecd78bb14e3926823d32e680c217ab9539efd02ceab382ce5888883eb7e21"),
    ("mb1 b73 64 V", "90c6a2f34ccfa48cb93130ce1d58800d340b9101c3a23bac00029414c2fda73e"),
    ("mb3 22 32 masked", "09732c080e7fac8d41337f47cd6ca8631696bd7a7b6edfae3b358d0b1b902a8e"),
    ("mb3 22 32 U", "146a51f06567362e2bc8cafa9a577db5722d7ba5d4b8e3e17694ef736f6685ef"),
    ("mb3 22 32 V", "7a4071e881379a2c6b828fa41b0beca7a1b30fd7a1f8298a9f1448a49b6191d3"),
    ("mb3 22 64 masked", "bd639b6cf323123e49b6e332b03b653ce30bef37830611946ef6b32940d36204"),
    ("mb3 22 64 U", "05e525a116bce0980935d73248e1e29616423618e3523801c73f3ce10472c0a2"),
    ("mb3 22 64 V", "b54ccfbf8c3ed3a996a9c7d7a75f2d88586c37a1c294c5aa0627ddbfe67f6af2"),
    ("mb3 332 32 masked", "8230a286a1a6149c30288b57ad05bee26db95c64405455a598be6841bed111e8"),
    ("mb3 332 32 U", "aba34a67656e08730bffffae6db739fc8fa75f5ad3d02d635128a118a3c8cf65"),
    ("mb3 332 32 V", "2c47e8826f913059680e4775878befee390fdab2a7b53761fdf285d1212c4428"),
    ("mb3 332 64 masked", "efda4d34d1b607842de8fd7488cbe99d4079e0483b935a28a637d3726faace2b"),
    ("mb3 332 64 U", "18e824eaaaefc597c6300525db491f7e22c75f7e03d37f8a71082f0eeb93a347"),
    ("mb3 332 64 V", "ec75e03bdb57124aa85ca3d5c901b31469a6aa8310b4d08f4b22150a86415e4d"),
    ("mb3 b73 32 masked", "66393c4c59c9ce063ee6f773b5616d95e32807b88e0ee87ef652520095b81385"),
    ("mb3 b73 32 U", "8ef9753921407e195c65ebf0a224464a2fea9cfb4ed7d8564abb010346d5f518"),
    ("mb3 b73 32 V", "08486e02abbb8f348a5717895eee765da3df5e36d85ec09cad3e0689981ea913"),
    ("mb3 b73 64 masked", "489f189afcf8bbd9dd39b2a857539234c33bc5baa60182ec36ccde7cc6f7c664"),
    ("mb3 b73 64 U", "2490cd80613256616d3818c2e6b01410123b04777b22aca028814e5a7c4fd832"),
    ("mb3 b73 64 V", "48480831fe4e9eee29787f818b9cfe3943a7724b3285d80b6baeab8c773ebd36"),
];

const SILENT_TRIPLET_PINS: &[(&str, &str)] = &[
    ("1b 22 32 masked", "ffa8ec41d0769a41c7cbdc8dbf8cc0d8301b433057691e3f091632420934ee4c"),
    ("1b 22 32 derand", "50480aef22e85192016961c11ca9bcd466caf2a30180fa0c2ed4366df7d144d8"),
    ("1b 22 32 U", "18f5f0ed72488134900477c8c037a2fccff4696f3647d9c945915c4b46b93a74"),
    ("1b 22 32 V", "ab208adef15356892a46f283c81d4a5804c9d816750f1b2521cbbeeaf042b93e"),
    ("1b 22 64 masked", "ff73d2118277dda2d9d3b3e02f7f4e6298e4a8149c0e84b08e5f40c2079b141a"),
    ("1b 22 64 derand", "7cf16accf4b5ec7d138a7d7588ed5d7a4bbf1341e8786ff34f28ef0f215c7be3"),
    ("1b 22 64 U", "ebb018643d5601f1274af1b555bedcff71dbbaa7ea0247ed8bcb15d74675d1d2"),
    ("1b 22 64 V", "c29459ccde330b76a27c72329a48f8d9a779836d11f9e2c8782493fd91b608f4"),
    ("1b 332 32 masked", "f7241926115e9d2c62ac6f7f1dfd5eecb8870d8a092689f9e09fc2759476009f"),
    ("1b 332 32 derand", "673482eb291466016a9dcc28895ee7e7d6cb6e4d0bcb29673b58ac2333ed36e7"),
    ("1b 332 32 U", "915f69394abd3ca0144af375f4015cd29b89e7fb7101c77d6b183d1162317dab"),
    ("1b 332 32 V", "908c3bbdca662de5cca9dc7f3b97e2c31d3f7a4328ad90e1cef38ed0c2511e1d"),
    ("1b 332 64 masked", "0361f755643603faa733887d689fd8ea9aeed4b79206180fb64701ddb29dbe37"),
    ("1b 332 64 derand", "1b231ff1a745144eab24faafe893088161b4b252159b364520efc1632bb68582"),
    ("1b 332 64 U", "48b47d1675bb4fe22f130dcc028b9efe6faaf5b9ab842f933e8ab9c44e4e7018"),
    ("1b 332 64 V", "e0546436f44821bf86aded6c24fd66139a1b62018206d8399631edc42081c357"),
    ("1b b73 32 masked", "94be836e660bb4ed6b6b26ea6f8bd44e9db08ead899e4d93690e5b96302effcd"),
    ("1b b73 32 derand", "5b1c0c5378fcd6fbfeecaa3edecb4a941cc5ccbbdd1ea120444c5caab6abbf56"),
    ("1b b73 32 U", "c004ff6796957d014ac880b2a1f26301b48e72a70eba39ef7ef062ab66dc5a73"),
    ("1b b73 32 V", "a71a0e86a23ca231e705fe6a0868026bdb560866cfed32a2c7d4d9d3704bb995"),
    ("1b b73 64 masked", "71f0618f0fb5012d545a514c4f1e11cbac5007c4ade3fbea4fc7b81ab7a34709"),
    ("1b b73 64 derand", "e49cbde0553969956be09d28409a26e8cc70ffddc084804c2fea719b0ef688e2"),
    ("1b b73 64 U", "a3a105b71cc1430b75107e618353ca4523af46b6b8e1913368f653291c9a2665"),
    ("1b b73 64 V", "f7cb99b6738a9c58d23b95bc1f2de9557cb32e593fff8f7627f2a95bcf6bc4ca"),
    ("mb1 22 32 masked", "819e6fda6910bd0594e57dddf0ebac975a1ddb908df51feb5952342bf6efb3e4"),
    ("mb1 22 32 derand", "49b87c053f0a6a7c51b6beceb0cfd2ee84e0244e6d73e31efd760a0f96b8a77d"),
    ("mb1 22 32 U", "4cd48c0d6a738f55e8c13ba69ddb690c58ede6c92092dd7f066772932f1be700"),
    ("mb1 22 32 V", "86c7c6640dae54a8b3b92e189586dd66f647c220c2fbd3a06642a6a73a12c625"),
    ("mb1 22 64 masked", "78e54e3db54ef7b8fdb3806b09eee000d33e1b40210d4fbb09e69da0b11157a1"),
    ("mb1 22 64 derand", "3b9080beb5e08f03d9d053ed8113ffff166011a1c7ee673d16814004da62dc91"),
    ("mb1 22 64 U", "62c1ed83ef6c2bc7924bac8127c87daa8a029b7725b7e401ba370d0a2708e3b7"),
    ("mb1 22 64 V", "36e820ebccbb906c28ec0c5f6dcd468563fb5e3a5949c5bcc907df38b8651e00"),
    ("mb1 332 32 masked", "3855e081469eb4e2518f1a50d96c869de28546bfc34fe0ea9527c83833bc956d"),
    ("mb1 332 32 derand", "a9ea4d7363a7acc3ad00585c2572f9f077bcd942d3117d7d5c216cff93ccaf32"),
    ("mb1 332 32 U", "62fb0ce29043f5cc55f403e15914207c7bac4520a667021253c4c7fe781230a5"),
    ("mb1 332 32 V", "8661d946727210022ee5f718fb1d3e7f9150aa400fee85a9723870e0f7319530"),
    ("mb1 332 64 masked", "fc8853a351d2811ba9b354930b74c440fe7b0de6ce481f7576be3c214adf6d15"),
    ("mb1 332 64 derand", "21f340f0b23a94b6332f9a8b854a95e8b6ebbb8062027b15a4931f0d7a8c36a3"),
    ("mb1 332 64 U", "4dd0ca4c431b2a09f285e90d4761559c0767c656696a8fe5d91507959d18304e"),
    ("mb1 332 64 V", "6380c6d4cad0efd565ce6b13d6effce8fa96d2c5b2708a618b316b7c2bc233b9"),
    ("mb1 b73 32 masked", "2160252c9bbc29f26da319abf73b90e97c9a37fd91b362bea6aac259e333af3e"),
    ("mb1 b73 32 derand", "9180d9d741332526716ec6bce27acbdadeefb2370683fd0596885e312614be99"),
    ("mb1 b73 32 U", "bec56d0924158913ce361c90c88d96e110256c4d295aa71ff03c81f802d98884"),
    ("mb1 b73 32 V", "5b930812c6b1c76b815bddcd23ccfc1407ac78d6186fdc5bda55e42981b906e8"),
    ("mb1 b73 64 masked", "7e772a4affb6515b919d5cb23ade8a84ed55c330bdf191f91babfd37fe50b87c"),
    ("mb1 b73 64 derand", "086eae57e2927dfa69c559a3354fd33698a3ae7f0e17ff2440f49b3a217d2bf2"),
    ("mb1 b73 64 U", "9a07287e9aedf748820de932680b4cda82e90b7f65dabb571105e61249cb6e09"),
    ("mb1 b73 64 V", "71b3c74e58254bdbcfe3424dc4b81c346966dbf1431ae2190514241b478fc022"),
    ("mb3 22 32 masked", "5ac883e80262cfcbf936da67edc728e588b6d183c1b6a5a15bb44a32bf5c7728"),
    ("mb3 22 32 derand", "a411be2bf686b236348ef8d569fcffcfea3a955b3468d9f4182823ae98dfbd78"),
    ("mb3 22 32 U", "d29614cad504813a25b3ec1f7692d899fa65222e733a7efbef886f39df333bd9"),
    ("mb3 22 32 V", "8cd5806e3ef2f82afd8307e8030b9b9520f60faf958119ef290f14e869494258"),
    ("mb3 22 64 masked", "897522fec36ae9a7b8878fabfa2c5625466344728900567957386f22dc7de139"),
    ("mb3 22 64 derand", "c1e9d6798cfec306659b16039361e973aeacbace59c90b63b48ff8b35d53c843"),
    ("mb3 22 64 U", "ad1476766d50f915190ff3840168d1f0811b058b325ff3c2c38ad8c0f1ee3fe5"),
    ("mb3 22 64 V", "f58adfa7410c803dc9471eb08eecc60f0330581abc7b6049bce0d4924ae4a0a1"),
    ("mb3 332 32 masked", "6430258d367e0a68f179bbbd3a343cd0d45dee50ad225f59e2de65019425ee76"),
    ("mb3 332 32 derand", "7011a05938f64f64a17a83d902a5bdfa8a1764f0b9a5b0d2e8b8e726aaf4827e"),
    ("mb3 332 32 U", "0925f160c651ab85a28aed2ca5137ab2eeeebdbc5de2205b1ccf8c90061bb11b"),
    ("mb3 332 32 V", "5b7408f7b7b4a709f1aba698c17106c0234511b590a1314aaa20409fa0ecc9be"),
    ("mb3 332 64 masked", "2f81f5a7494e2727d93922ac0ac0d108dfd4da7c3d542859fe8713e3f13a86ee"),
    ("mb3 332 64 derand", "a2c2cebc48e55a0ec3f5c3962e24fd1f3eb90e8b7c4e8afa7f3e58f06539b948"),
    ("mb3 332 64 U", "8d24cb0cec70de5a582650ca43c8a7cc8012bd023618c110679d9108d8ed0aff"),
    ("mb3 332 64 V", "e94c14687e327f4b8db9fb66d2653f0fcdb1d2027111f657d400e0eec2e4e109"),
    ("mb3 b73 32 masked", "38332785cf9ea2f53a2ecabb838220a7527c0727ff87f8a0e9f5eb4a628e4d58"),
    ("mb3 b73 32 derand", "bd0eea82805cc82d72f7acd21eeb7affa4ff4a60633282c5e94f5a41771ff9e1"),
    ("mb3 b73 32 U", "2fa5649a334ad64979979b7f790f9536e8b56845f01895dfec96f020db201545"),
    ("mb3 b73 32 V", "0b06e80ab48b86f0fd14625f5cfe824b18deaa331ed793be68112af2b3bd7ef9"),
    ("mb3 b73 64 masked", "1ddb2a4bac653030320a02e8fc3818628d362a128f22d145bd0bd58439d0e580"),
    ("mb3 b73 64 derand", "7004ffdd291d478bb5a3aa47e47969c250e44279c8681c1ef6874bc8a738fe49"),
    ("mb3 b73 64 U", "f77149a063a65d388f656e0fa735d26d324fb15677d15ed451e6b70f712cea03"),
    ("mb3 b73 64 V", "6fb4ff1acd26939069817752da45622b24feecd94e01e6e12c618acfb567615f"),
];

const SILENT_MASK_PINS: &[(&str, &str)] = &[
    ("n=2 x0 len=4 sender", "167d95ee4566be9a864e674b425fae5a2cb0d0dfd287e492217b54108fdb88c3"),
    ("n=2 x0 len=4 chooser", "47d373ca5adf4da18542235fcbf50ab4b64ca0ad6b1dc298670311c2d012a8dc"),
    ("n=2 x0 len=24 sender", "9cdfe591469351c8bc71167aafc51c37091377544516d4d58a6dbcef5bb0a941"),
    ("n=2 x0 len=24 chooser", "abaa3c85771c71cca83f2844024be386b6218b22f84a320ea6022160f6715984"),
    ("n=2 x0 len=64 sender", "8620b456b7c5a8025bdad35261e93fa74594daf64eeae8636c5ade98060ac470"),
    ("n=2 x0 len=64 chooser", "d3e13611f664f709c654aef2b3af4af5657b767e99c3bd794f1bb568111f4657"),
    ("n=2 x1 len=4 sender", "5dc6cc910da7ae91f351b0928b3201a5e3db0f5f11b0be6d5d82a34aef6abfe6"),
    ("n=2 x1 len=4 chooser", "e7d95343f3ec1630380ad488519ab9146fc44c0acd94f87d1f68d5abc2facd60"),
    ("n=2 x1 len=24 sender", "a04e19bed087e2190cb1122f93df225e6257fd57cf2988d87674b436580bc5e2"),
    ("n=2 x1 len=24 chooser", "49c49222e9076ee8c05bcfa8ddbd41604604c15b80e50655fd21a88c2e827071"),
    ("n=2 x1 len=64 sender", "e92d3fe4dcaff4dc45707dd63b6a5f4092873a850059ff7dc5b3f358a3ab002e"),
    ("n=2 x1 len=64 chooser", "a596f4fceb2bda42f889b79926e57cb7490bee8a5e491ab3af915f7cbc7880b1"),
    ("n=3 x0 len=4 sender", "d2881a75a0ec379b788936c7f5424b25d4b07a6771aa73674c260c5661e45466"),
    ("n=3 x0 len=4 chooser", "b423b72f228ec7fd39bae544934d61f4ae0a5b42b7010bff6492f485230f4582"),
    ("n=3 x0 len=24 sender", "f04d9ef8eb2c4825d57489a1978a83fe867e5c277c3e621c4a84166f313dbfb4"),
    ("n=3 x0 len=24 chooser", "e4d5c823d0606870df9e9886f3666ce76b9db692a6861fcecb5258c998bc2cd8"),
    ("n=3 x0 len=64 sender", "8b76d8e9b24cf0589239173b1c3c12ecd20afdd60bc1a764940878333970fd82"),
    ("n=3 x0 len=64 chooser", "3d1f417462daa9d67225ac8e588ae4d917a1fe0f239e672c2d47c9cf0cfddc7c"),
    ("n=3 x1 len=4 sender", "174c50ef4d0936d2e632c67ca8257f45421c4b44633099bbcbf7498fea0b9701"),
    ("n=3 x1 len=4 chooser", "ec56421bb187d9b25de6741af906aaaac51650cf3792d6e3dd7dea516428c3c1"),
    ("n=3 x1 len=24 sender", "e8e8ab6ccacb3fc1919a4195ca9305abb7fd5caa6115598344b240405c5a93b2"),
    ("n=3 x1 len=24 chooser", "77e01a575f35b10667d6f9ebaae7e1e71f4aa8c3e277b728584a1a8cbcc94c90"),
    ("n=3 x1 len=64 sender", "6ba978a9c82e60fafa095cbfc8be3af4c387ca9a0b1a72bac297eea4aadc78d7"),
    ("n=3 x1 len=64 chooser", "aeb4ecdcae4799085435b87886045b26a120b88b38b1826e7dc617e9dee47340"),
    ("n=4 x0 len=4 sender", "b4fbf7652104b356378c3284881b5daede9dc30857888ae6d947eb46b22c940b"),
    ("n=4 x0 len=4 chooser", "0e5a8b4c9e5d6dc4a80e8f4ba1054ae5ff3f9a82c5084105b80e8d598e013156"),
    ("n=4 x0 len=24 sender", "c80e8c50ffba0c4ca7a5f3b40df4820d757fbbbbeda1f6a14fd2bef2ba13063a"),
    ("n=4 x0 len=24 chooser", "aab68a4aa2e67d2a2c386aba46b45b7c9e1e586f0e01f85b25702ca8d704bfa9"),
    ("n=4 x0 len=64 sender", "908246740226c5a6a792b009e2c44c1481a44dc96967bbfdfcd386a53292b3f8"),
    ("n=4 x0 len=64 chooser", "ce801d42856ebf30718c519db703254748a390ab24c8585f12b34da6b19250b6"),
    ("n=4 x1 len=4 sender", "abb5aac12a3118db52cb41ae1f835c865002253edf197e2d93f81b0b934fea05"),
    ("n=4 x1 len=4 chooser", "1bcb99c4cbf1920bef3a9f86c67f3589946aaf87c2f61504464bdf414b649f7c"),
    ("n=4 x1 len=24 sender", "1861a5e9c59883eee785e7ecfd9707785d1c6e3ba053849205071a9db9da0e26"),
    ("n=4 x1 len=24 chooser", "285495d797855fb123d3a14455632f3417c2d54ea474d2f9996313d9091bdc6b"),
    ("n=4 x1 len=64 sender", "e52d1adcd792e4b6e96a797420f12555354458b7e4f6867ec1a73f0aac2bf9c5"),
    ("n=4 x1 len=64 chooser", "16f2a871baaf03598f4a437ac76fe828895cff3c93fec3e0e1e4812d96ff1fda"),
    ("n=16 x0 len=4 sender", "f006c718b23ec1c7c23dbd5cb903e581dd00b2bc630279656985c193618934e2"),
    ("n=16 x0 len=4 chooser", "82edebe0bc95745717bc8e8a8a29c6f7f4244d712a0707dc115ccba4e3705128"),
    ("n=16 x0 len=24 sender", "869bc228a690195bff24b867b5aad01976f2ea466f96519b91d3de516aba7eae"),
    ("n=16 x0 len=24 chooser", "099b227793801cf3e83e85544136f2edbfd83e4627ca524991bb44eed365d98e"),
    ("n=16 x0 len=64 sender", "311ebbdc96043f9707cb4820546da1f508ba578bb14ec1f4a1119b11c7933dbc"),
    ("n=16 x0 len=64 chooser", "f40f213adb7b8dcf89f6e795ee7cd5959145a5a4ac6477f92a7c66cfbdf2bf74"),
    ("n=16 x1 len=4 sender", "14684459d0d45a580c75dd019648fc860514e41ad854bc92b10da12e473c9bd0"),
    ("n=16 x1 len=4 chooser", "115e9df9807e3c97401720c44ecf4f2cde635fa92d85c912417e7ce35241677e"),
    ("n=16 x1 len=24 sender", "5b069f942fb774c0dc96f7a0ff5647e5e2c08b6288892536a30d69284f1d945c"),
    ("n=16 x1 len=24 chooser", "fc479cf47fc772c6690ae88db556c708adb38e2ebfd2a15c6cffa56677c66076"),
    ("n=16 x1 len=64 sender", "5ed58c4781d54fc9c9df6e57b5528788f8e7855364485b86d23a10b19684e4f5"),
    ("n=16 x1 len=64 chooser", "a30947ee9ec55bad137164b6ce841af504ef7282404269b9b1349d74f39122e0"),
    ("n=256 x0 len=4 sender", "a53aab9c02a0eaf483b6f95655306047c90af20ba1a371b31f8234633e46d77b"),
    ("n=256 x0 len=4 chooser", "a27900c963ed86facacb8128900e1a82ca862694569c590ab1d1f9640de45e54"),
    ("n=256 x0 len=24 sender", "96924e4767465fc1caf3cf68631558929478c70528febd2d6e2549d3bfd07858"),
    ("n=256 x0 len=24 chooser", "975208a5b4d83a9328ddaa24278dfcbf3827db9a37062a0ebd7d2e2a266a6ccf"),
    ("n=256 x0 len=64 sender", "f6bfaeb7ced8ffe07a1d07081d4dbba6398792b057d385ba2a06f6e17a535ffc"),
    ("n=256 x0 len=64 chooser", "f6201fa28c77c3315a1651f58f4d6c68748baed210f537d3643e2da3c8624abb"),
    ("n=256 x1 len=4 sender", "b9181de94cf4fc5936bba0de5e4eeae1479e54c74692fdf36b6871e1f782f615"),
    ("n=256 x1 len=4 chooser", "2227249545fd10a46520636195e8f4e766c4c7a729533cc81bc1c448593d3429"),
    ("n=256 x1 len=24 sender", "9ca6d1f5737b70101bb6b4ac84b81bfeee09f53052d158cab7919ecf4b0e4777"),
    ("n=256 x1 len=24 chooser", "52ace3e578723a725f5943ac16877d0620b977c81084d23f4c7f7076a4e452e4"),
    ("n=256 x1 len=64 sender", "def4ecda5ce9d7abb8b65da099c560deb58ac190c91e17945a96196b183f879d"),
    ("n=256 x1 len=64 chooser", "853a237ffba47d55c8315cfc2032539dd24a60b5e668d9b7cfd0f42542dfa521"),
];

const VECTOR_COT_PINS: &[(&str, &str)] = &[
    ("l=32 m=300 OtVecPayload", "258574add51a3cdc902f1393bb0bca9eeebecaa2c0be64adf71bda4658d4a88d"),
    ("l=32 m=300 sender x0", "761ae63af28fcfcc7435d89fe1707b09a6ca04cbb7477d758fa94cc30f83a301"),
    ("l=32 m=300 received", "12997b62699d08517b6b8d9a3fb3ed3eca7c8846015ae69ad519c2246cb6f593"),
    ("l=64 m=13 OtVecPayload", "d80fa2a5725df01b904e5084b83b80319e5e1014e3a14b72bbed1c1de79d6556"),
    ("l=64 m=13 sender x0", "09334685852e3806c4d1397532f0304e0c4e3e95f08505d0ebea45922171a43b"),
    ("l=64 m=13 received", "eac6a95fbcba46e87b6bb5d64d1c3050fac27eb4dde2a2fbacbebd2a2b9d8151"),
];
