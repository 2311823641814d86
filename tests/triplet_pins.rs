//! Triplet stability: the §4.1 triplet frames and both parties' shares are
//! a function of the seeds, the weights, `R` and the OT keys alone, so how
//! a key becomes a mask (one oracle call at a time or a batch), how the
//! client packs its ciphertexts and how the server decodes them may change
//! without any peer noticing. The digests below were recorded at commit
//! bd7cb7f (one `hash_expand` call per (OT, symbol), four `(mode, digit)`
//! arms in `core::matmul`) from seeded in-process pairs. A peer built there
//! interoperates with this tree only while they stay byte-for-byte equal.
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
    ("1b 22 32 masked", "374d3e624f349bdcdc146bde1034e91870db619f4bfcbbef52d5a2da7f3b5f2c"),
    ("1b 22 32 U", "be134628282dc43c5a03712d261ef461ff9bd171b91a96a27f6c6e8360a44bad"),
    ("1b 22 32 V", "310d25b3afd2d9536981b12fe12fee4bb422dbae40a5b5bfd8ea26368bce8c64"),
    ("1b 22 64 masked", "c1943314c1f819ea26ddd659d80989b174ea0ee74eb3d1588848b2db03c4a47f"),
    ("1b 22 64 U", "e2ab75b7cf2332311a2add74c8def13e1eb42cf6f5f0c5c0ba2b41663b0fff69"),
    ("1b 22 64 V", "3fb4812cdf5d389ef05d26acf888bbf3527c81dcbdd2720430c083be633db08f"),
    ("1b 332 32 masked", "fcaa12e876680cc25e2f9232c466cf0d2600ead764d3ec3802361c7412999a0f"),
    ("1b 332 32 U", "4522b6ebeb89533957ab660d5aa20110e1c63f5970143edd2e78485bcc008839"),
    ("1b 332 32 V", "f59c9d87ab8e46121d414c7e4c6fe5d3c77f1a1db3a8ef6bb4ba95a20bcaa06d"),
    ("1b 332 64 masked", "c28bc1345e1ee405311f3c44e5a5b8962ff81eb120588478da91291e0d397129"),
    ("1b 332 64 U", "d671cac453068bb41a055422c0efea1caf0dea45956a88b42f99f629ffec12e1"),
    ("1b 332 64 V", "78d38dbb00f9a6766a00f27bee2f201617021eead2f809ea95ddfa22103ecf32"),
    ("1b b73 32 masked", "9ad1cb7293904965bdef09dc245422198ad9be995800f9e029abaf6f8a54f377"),
    ("1b b73 32 U", "6cdbd1d99ecee5ac6a783dae8f68b1e5597d4d55e4c40d5772c0347bb5bb9c39"),
    ("1b b73 32 V", "e1161474f5ea00f4bb493192f0909223c77ab6250a86bdc4fa7d26090ca13533"),
    ("1b b73 64 masked", "b3da03414633966ea6ff4e28c22acb9155a5e9ab52c10a113d801e8685ce548a"),
    ("1b b73 64 U", "569d45020d8b3c78f44f32bd393ccbd6ed29b593efd15bf55a27a58723c575f0"),
    ("1b b73 64 V", "570f5dbed9e18d6faa0fb20f932a9890715e429b573a83b4df94dccde9874cfd"),
    ("mb1 22 32 masked", "cf7f62456c7df9048a83e4162443e752e493b3559cabad248c206a09d2fda173"),
    ("mb1 22 32 U", "eb09cffb46f9cdf367fc5bf4069b5b06ba34117b0791ce5033d7433e710d689a"),
    ("mb1 22 32 V", "04c1201b027eb96b75b05c4c5cc2534b8db93b11ac3ccaf5550b46bcbad13166"),
    ("mb1 22 64 masked", "ced641645c35cb4c1f792d935923c4dbad19353b91ded2336f345bb4ff8c5ce3"),
    ("mb1 22 64 U", "2bdb92a74eff113a8f152d3ae39bfedc40560d549fceea1d1617fc39af1041a4"),
    ("mb1 22 64 V", "7c6268c388ce51bc3c8c6fae93be9632d4c97b4e00567173207d45b1f92dc391"),
    ("mb1 332 32 masked", "bf2aa1451a172b91974d25d4fd6c62fb8a88ce00de335b240cf6521fc8353e65"),
    ("mb1 332 32 U", "303f2b7c108b2fd6a079c0a721b5e224b542462a06d9d0beacb480e176360afa"),
    ("mb1 332 32 V", "d2b6ca0f713dd003c15d7e0b2b5b9a2b73259ef55931cb792a76b16b1eec8acc"),
    ("mb1 332 64 masked", "327532af2c2c40731f6577980a6ba73e52509471eabf0fa02e170176ef07d146"),
    ("mb1 332 64 U", "2b9b5a09edcf8ec4d95e2b39c133f272b38f2e5ef253b9db2191cad87917121a"),
    ("mb1 332 64 V", "44152af10209df2bcdbcc71aa9a3ba660e6b28f3e31808ec9cb61aa8521664b2"),
    ("mb1 b73 32 masked", "90ce21667736ac608dfa658605278a5e28ee2e6050cce2a4647587ba219a5720"),
    ("mb1 b73 32 U", "b5938f5fc7e2de861f82d94768a8a0364d6eeb3b19a8327f0b977f51e2c550e5"),
    ("mb1 b73 32 V", "ec2d3ca0307d05d9723c79c3b16f15f6ca2dc19eda46b251eb407f6a196c5408"),
    ("mb1 b73 64 masked", "207b9bc188761254d5ebc2b69280e9d2de85396f008be87962f0b856c8d059a3"),
    ("mb1 b73 64 U", "750ecd78bb14e3926823d32e680c217ab9539efd02ceab382ce5888883eb7e21"),
    ("mb1 b73 64 V", "90c6a2f34ccfa48cb93130ce1d58800d340b9101c3a23bac00029414c2fda73e"),
    ("mb3 22 32 masked", "25725df6ac71e87c639c6785bcd17f9abed4fb6dec5365e73ac7240c76b705f1"),
    ("mb3 22 32 U", "146a51f06567362e2bc8cafa9a577db5722d7ba5d4b8e3e17694ef736f6685ef"),
    ("mb3 22 32 V", "7a4071e881379a2c6b828fa41b0beca7a1b30fd7a1f8298a9f1448a49b6191d3"),
    ("mb3 22 64 masked", "a8bf22738332c186fd8868a666212b4937d7674b7bf3ac17e8b90d46682d72f0"),
    ("mb3 22 64 U", "05e525a116bce0980935d73248e1e29616423618e3523801c73f3ce10472c0a2"),
    ("mb3 22 64 V", "b54ccfbf8c3ed3a996a9c7d7a75f2d88586c37a1c294c5aa0627ddbfe67f6af2"),
    ("mb3 332 32 masked", "9cb91b8230ad5054bef0877f32bb5be368016e407c7a3c9d3b02480b96c6a4bd"),
    ("mb3 332 32 U", "aba34a67656e08730bffffae6db739fc8fa75f5ad3d02d635128a118a3c8cf65"),
    ("mb3 332 32 V", "2c47e8826f913059680e4775878befee390fdab2a7b53761fdf285d1212c4428"),
    ("mb3 332 64 masked", "5dadf8ebb29ed35af73d531c6c5964e66b39406a55ffd7a3f6344ab9cdb1cad3"),
    ("mb3 332 64 U", "18e824eaaaefc597c6300525db491f7e22c75f7e03d37f8a71082f0eeb93a347"),
    ("mb3 332 64 V", "ec75e03bdb57124aa85ca3d5c901b31469a6aa8310b4d08f4b22150a86415e4d"),
    ("mb3 b73 32 masked", "b0a9999131f95b8b6b0b2cecaafb2a1d7ba5807d3dcbebcd1c603b231d707cee"),
    ("mb3 b73 32 U", "8ef9753921407e195c65ebf0a224464a2fea9cfb4ed7d8564abb010346d5f518"),
    ("mb3 b73 32 V", "08486e02abbb8f348a5717895eee765da3df5e36d85ec09cad3e0689981ea913"),
    ("mb3 b73 64 masked", "81755f132f90391b89c8c9620b8f4e4052b751d6487d508befc7b744c5f71b2e"),
    ("mb3 b73 64 U", "2490cd80613256616d3818c2e6b01410123b04777b22aca028814e5a7c4fd832"),
    ("mb3 b73 64 V", "48480831fe4e9eee29787f818b9cfe3943a7724b3285d80b6baeab8c773ebd36"),
];

const SILENT_TRIPLET_PINS: &[(&str, &str)] = &[
    ("1b 22 32 masked", "5b622c5f87ef06e1cea9bf334e52d5eff4a14a46a769da929c0e1f23e716d8c5"),
    ("1b 22 32 derand", "50480aef22e85192016961c11ca9bcd466caf2a30180fa0c2ed4366df7d144d8"),
    ("1b 22 32 U", "23cde8c07f972f89b36f5888e6e93d6de13370636121f11a4a3a0115415d12dc"),
    ("1b 22 32 V", "6ec0b0a221ae74e40def42843bb77088886f78da64b93f2d5b7b01763ead6795"),
    ("1b 22 64 masked", "d2b7b5410468785bc50d668b7e8b8cc4c76daf924dd59b600f3c7a09230db3d2"),
    ("1b 22 64 derand", "7cf16accf4b5ec7d138a7d7588ed5d7a4bbf1341e8786ff34f28ef0f215c7be3"),
    ("1b 22 64 U", "0b7ac441b289cd04c07e960cca6333c18f464e8f88f8f49d5216aace70735faa"),
    ("1b 22 64 V", "b9c26d06ecb0c7c8552ac58fb95c45254b1256002285c890a40f30df836f32af"),
    ("1b 332 32 masked", "1efdb90f11ae41cd522a283b224cc46ba0f3f448446188387976534d8a493460"),
    ("1b 332 32 derand", "673482eb291466016a9dcc28895ee7e7d6cb6e4d0bcb29673b58ac2333ed36e7"),
    ("1b 332 32 U", "2e8a5d79ed1aa42252eaf6ffca658c0c27c5f0f5f184245b36df0767e92dbdfe"),
    ("1b 332 32 V", "0ad71492ded7fbe9a54d0e25de007a5dd56c40f9acb27c8d074854f8af86c107"),
    ("1b 332 64 masked", "ce36fb173e024323e48cbf19b64c4ba67e01c9f8dc0770c847caa94085f93f1e"),
    ("1b 332 64 derand", "1b231ff1a745144eab24faafe893088161b4b252159b364520efc1632bb68582"),
    ("1b 332 64 U", "4b01677f0b05b6d11718933244c211efafcc92423fe5a3abfdc0cea300f9c620"),
    ("1b 332 64 V", "d28208d0e8b3dbf448fae7d67cd7459766cfa4698196234eb87db89544c2bced"),
    ("1b b73 32 masked", "06736afeac9f8d217314b01f947663cd31e5f01f778f7248fd083b7ecae42ab2"),
    ("1b b73 32 derand", "5b1c0c5378fcd6fbfeecaa3edecb4a941cc5ccbbdd1ea120444c5caab6abbf56"),
    ("1b b73 32 U", "d4eb0117950f4420e7cbfe4b9f029b21a1ac593c28d4e0ce333afe19a8dd92ac"),
    ("1b b73 32 V", "2b6959aed20f10f39b9f570c3a185e42c4ee7461130ed7adbe5c2f4a28f21555"),
    ("1b b73 64 masked", "2556f2fc9ef81b0721a0451026c5a1bf402c19b97cef49c3c1ccc86c7547ccc1"),
    ("1b b73 64 derand", "e49cbde0553969956be09d28409a26e8cc70ffddc084804c2fea719b0ef688e2"),
    ("1b b73 64 U", "89573e9f33d2b97fa1e5192c2dd58ed014e96cbd99afd1a6cd222e7a896992a4"),
    ("1b b73 64 V", "2ae59ba7da06167ab119ae1076e1631e8e1ab3d561fbf069894cb139e53ad98c"),
    ("mb1 22 32 masked", "f0727bffe4438549f5d586143e47d61af1691fb37fbec68b381ec4515099151a"),
    ("mb1 22 32 derand", "49b87c053f0a6a7c51b6beceb0cfd2ee84e0244e6d73e31efd760a0f96b8a77d"),
    ("mb1 22 32 U", "4cd48c0d6a738f55e8c13ba69ddb690c58ede6c92092dd7f066772932f1be700"),
    ("mb1 22 32 V", "86c7c6640dae54a8b3b92e189586dd66f647c220c2fbd3a06642a6a73a12c625"),
    ("mb1 22 64 masked", "398f4b84df455e73a9f51a6e589110a0e9a562e6a8c722ee39c907ce0c9ab24b"),
    ("mb1 22 64 derand", "3b9080beb5e08f03d9d053ed8113ffff166011a1c7ee673d16814004da62dc91"),
    ("mb1 22 64 U", "62c1ed83ef6c2bc7924bac8127c87daa8a029b7725b7e401ba370d0a2708e3b7"),
    ("mb1 22 64 V", "36e820ebccbb906c28ec0c5f6dcd468563fb5e3a5949c5bcc907df38b8651e00"),
    ("mb1 332 32 masked", "ce18a9893e94dfdeefa902efa7e9976edfc72301c982c066aa91a28f8f4317d9"),
    ("mb1 332 32 derand", "a9ea4d7363a7acc3ad00585c2572f9f077bcd942d3117d7d5c216cff93ccaf32"),
    ("mb1 332 32 U", "62fb0ce29043f5cc55f403e15914207c7bac4520a667021253c4c7fe781230a5"),
    ("mb1 332 32 V", "8661d946727210022ee5f718fb1d3e7f9150aa400fee85a9723870e0f7319530"),
    ("mb1 332 64 masked", "b04919c67bdcc1c896c6dbbe7cccd5e6466e80d746eddfb603e7a2075a43327a"),
    ("mb1 332 64 derand", "21f340f0b23a94b6332f9a8b854a95e8b6ebbb8062027b15a4931f0d7a8c36a3"),
    ("mb1 332 64 U", "4dd0ca4c431b2a09f285e90d4761559c0767c656696a8fe5d91507959d18304e"),
    ("mb1 332 64 V", "6380c6d4cad0efd565ce6b13d6effce8fa96d2c5b2708a618b316b7c2bc233b9"),
    ("mb1 b73 32 masked", "c2d8c8202d5518cd933eea9b751e1b7b0d97f41f64ed2f961e0140ba53384b03"),
    ("mb1 b73 32 derand", "9180d9d741332526716ec6bce27acbdadeefb2370683fd0596885e312614be99"),
    ("mb1 b73 32 U", "bec56d0924158913ce361c90c88d96e110256c4d295aa71ff03c81f802d98884"),
    ("mb1 b73 32 V", "5b930812c6b1c76b815bddcd23ccfc1407ac78d6186fdc5bda55e42981b906e8"),
    ("mb1 b73 64 masked", "00a52d8d723fb4869728d0a79bb5dcb3b797ebfa6925bd78e8376b6a0b96e827"),
    ("mb1 b73 64 derand", "086eae57e2927dfa69c559a3354fd33698a3ae7f0e17ff2440f49b3a217d2bf2"),
    ("mb1 b73 64 U", "9a07287e9aedf748820de932680b4cda82e90b7f65dabb571105e61249cb6e09"),
    ("mb1 b73 64 V", "71b3c74e58254bdbcfe3424dc4b81c346966dbf1431ae2190514241b478fc022"),
    ("mb3 22 32 masked", "949257c110600a0bc642e9e9a47ee8462e0401bd3a1c5189c78a613381df6e70"),
    ("mb3 22 32 derand", "a411be2bf686b236348ef8d569fcffcfea3a955b3468d9f4182823ae98dfbd78"),
    ("mb3 22 32 U", "d29614cad504813a25b3ec1f7692d899fa65222e733a7efbef886f39df333bd9"),
    ("mb3 22 32 V", "8cd5806e3ef2f82afd8307e8030b9b9520f60faf958119ef290f14e869494258"),
    ("mb3 22 64 masked", "499a8c78c0c4d62784e725ebb987ef4759c479b3fef9fb7ed0366e04cb03d477"),
    ("mb3 22 64 derand", "c1e9d6798cfec306659b16039361e973aeacbace59c90b63b48ff8b35d53c843"),
    ("mb3 22 64 U", "ad1476766d50f915190ff3840168d1f0811b058b325ff3c2c38ad8c0f1ee3fe5"),
    ("mb3 22 64 V", "f58adfa7410c803dc9471eb08eecc60f0330581abc7b6049bce0d4924ae4a0a1"),
    ("mb3 332 32 masked", "1f81f0be2cc9c05e47d6cce0f3b6be66492afef43dcfb8a3280252ec04241bab"),
    ("mb3 332 32 derand", "7011a05938f64f64a17a83d902a5bdfa8a1764f0b9a5b0d2e8b8e726aaf4827e"),
    ("mb3 332 32 U", "0925f160c651ab85a28aed2ca5137ab2eeeebdbc5de2205b1ccf8c90061bb11b"),
    ("mb3 332 32 V", "5b7408f7b7b4a709f1aba698c17106c0234511b590a1314aaa20409fa0ecc9be"),
    ("mb3 332 64 masked", "eae22c0a8712398666b59d27c676d3e08f3504809126c861916e9207a8d3a8fd"),
    ("mb3 332 64 derand", "a2c2cebc48e55a0ec3f5c3962e24fd1f3eb90e8b7c4e8afa7f3e58f06539b948"),
    ("mb3 332 64 U", "8d24cb0cec70de5a582650ca43c8a7cc8012bd023618c110679d9108d8ed0aff"),
    ("mb3 332 64 V", "e94c14687e327f4b8db9fb66d2653f0fcdb1d2027111f657d400e0eec2e4e109"),
    ("mb3 b73 32 masked", "dabc699578e4df3f24257dcf60416f6a093a8871f1b76d0dd41ab6bebff77975"),
    ("mb3 b73 32 derand", "bd0eea82805cc82d72f7acd21eeb7affa4ff4a60633282c5e94f5a41771ff9e1"),
    ("mb3 b73 32 U", "2fa5649a334ad64979979b7f790f9536e8b56845f01895dfec96f020db201545"),
    ("mb3 b73 32 V", "0b06e80ab48b86f0fd14625f5cfe824b18deaa331ed793be68112af2b3bd7ef9"),
    ("mb3 b73 64 masked", "a8c586de9d9a5e1789b2602c83fa1f48e1984d7cdff9c71504e408c4dddbb91f"),
    ("mb3 b73 64 derand", "7004ffdd291d478bb5a3aa47e47969c250e44279c8681c1ef6874bc8a738fe49"),
    ("mb3 b73 64 U", "f77149a063a65d388f656e0fa735d26d324fb15677d15ed451e6b70f712cea03"),
    ("mb3 b73 64 V", "6fb4ff1acd26939069817752da45622b24feecd94e01e6e12c618acfb567615f"),
];

const SILENT_MASK_PINS: &[(&str, &str)] = &[
    ("n=2 x0 len=4 sender", "d594dfd0727bf6867bf03fda9ff34df4240d95b84c3ef6230552fe92df51ffb0"),
    ("n=2 x0 len=4 chooser", "3bbc2c0c43feac17a602a958c7c1e7a33dd645c825602872aeee3d13ffd48ca5"),
    ("n=2 x0 len=24 sender", "6b7946ffcf05abcc8b238b275dc31c12c2393a6076f4470ca33244b759aaa4b2"),
    ("n=2 x0 len=24 chooser", "98e6d692e960677aeed60662dae136818ccf716a9f429164e1907ca7ac538ab4"),
    ("n=2 x0 len=64 sender", "758a22c4d73676e81e1974e994f0b3f985db70f49d01d30a010bf3377b100df2"),
    ("n=2 x0 len=64 chooser", "0995b543143a0e3f80f3fdd2a06737a11e59e884a706a781044bf88f2f5cb6b7"),
    ("n=2 x1 len=4 sender", "b1a3464232caebdb53f5dd2a2435fa36f485364e9dbe9377b052cb8691e63401"),
    ("n=2 x1 len=4 chooser", "ceb79a92e9ce71c6f43ca87e20458d0b0df5fb7ba5622c89e5f8b601ab1f4081"),
    ("n=2 x1 len=24 sender", "ac7a91ffc9bdc6d373ced03492ecdf36d52f10f6f4265500a1cda710624f74f7"),
    ("n=2 x1 len=24 chooser", "391bbbac56f52c90f42e48cbdb87ee080f80cabcba11b53fa0f45782f76f655f"),
    ("n=2 x1 len=64 sender", "555b2bb5f54078ca4fa6a659d0de377a49b144e181893697ad07245149687851"),
    ("n=2 x1 len=64 chooser", "74d342c165ce918fd74e1a99829e5891ee76658e5ae8e658f3a03ebd40458304"),
    ("n=3 x0 len=4 sender", "e0049cc3cf2a77596e6861beab7c3ba4ec94cd3407b0fe23df8b67fc885af58c"),
    ("n=3 x0 len=4 chooser", "2723b199dff8cbe3ce48609176bee2502f021a59d604e17c72a28ecf2d057d8f"),
    ("n=3 x0 len=24 sender", "d87d5e0058ceefd97ad4854af7cf4d04028587186eaf69222ded3c5108a275ab"),
    ("n=3 x0 len=24 chooser", "bd192ada1237de767321df4b211353dffa8269c656be7028137068c0129dd66d"),
    ("n=3 x0 len=64 sender", "0bb15c10fda13e67fb0301d2a7c2d76e2462fc0e52e220e7b41312db0b3fb4c7"),
    ("n=3 x0 len=64 chooser", "fb07b69777a2a40644790a8b3fa73f06491677ca154f32e346fbf47fc8381b99"),
    ("n=3 x1 len=4 sender", "8f9b9fbe6c156468a96768a318a117f9b0b7d3f84da8203db789afb659edbfae"),
    ("n=3 x1 len=4 chooser", "ec8db438d306f6f7b47c738391a76ba2a03ff7a7504f92b6f4218208a7c0c055"),
    ("n=3 x1 len=24 sender", "2932ecf46375d2f42107eba086e32d59df2c37da9409ff21149ebaed3ca005e5"),
    ("n=3 x1 len=24 chooser", "17a71c28a519e99eaa66f2bcda78d9f709df4a629f60e876e75d40fda9f0614a"),
    ("n=3 x1 len=64 sender", "25cc4d2e576f566d1a2b29522db742e0fa670ab673144e2623a1444668d941a4"),
    ("n=3 x1 len=64 chooser", "08ea132c6de8c6b27603d42d8f67a9d1fd91971dd9b84051636dcb91a1aa30eb"),
    ("n=4 x0 len=4 sender", "236bee969a663f92c70ab21f3c0272f8af1f5a667df7c5f32bb1b97b2acf92aa"),
    ("n=4 x0 len=4 chooser", "39d58ee31403ab4237a87d96f0eeb7a2c8cf94bf004cfbd72ba164884ccc05eb"),
    ("n=4 x0 len=24 sender", "6755dfcaffcd1ca15598ab5acea0429f01d2861ea3ec5da25d12c68119d974b0"),
    ("n=4 x0 len=24 chooser", "c49b8e433d1f7701567494c3b9fe9e9b4a07c338dfad28fed109935021c75f0d"),
    ("n=4 x0 len=64 sender", "dc0eb017367fc72183154c7a08d1873a623dc339c69fcff20a3080c3ec1486a7"),
    ("n=4 x0 len=64 chooser", "22d3233eef5de41c4b8986c65de2e3ec9cc30105b133b33fddfde1806e494f45"),
    ("n=4 x1 len=4 sender", "d78eb7c14637b20f289988aebe4b9b5d428817e0f1656a7a83f449bd9e517d9d"),
    ("n=4 x1 len=4 chooser", "ea432661102e18fca5647b7ae65bcb5c646c422f0648c991080c1aa7b9f7a314"),
    ("n=4 x1 len=24 sender", "b81ea651fe53ce1bc0e2ce299b57ba02fa272302d27b7a6f3d45ff8db71d7794"),
    ("n=4 x1 len=24 chooser", "6971bc2d47f1ca148af84911b760b550cd461adcc83721ab0f198528a530d857"),
    ("n=4 x1 len=64 sender", "a82f697b08953e90679895dc5bbd84ce798a9150b9754bce9f026e8e6ac3212a"),
    ("n=4 x1 len=64 chooser", "96431cb79eb67ebb68f348c20e2be0e90cd339531f7ea760c0b0d6881259dbcc"),
    ("n=16 x0 len=4 sender", "027c4db4eb066d2edaf88901002fc634be4a131d86d1075cf4400713406b8a98"),
    ("n=16 x0 len=4 chooser", "141fc6e05263ef88759797948997216ca3f35fd637037312c977c57c4ca9f2a5"),
    ("n=16 x0 len=24 sender", "85644b935da7ab4cec7fe6c2d28e892a0578efe4677dc6c94f89efacc1f925eb"),
    ("n=16 x0 len=24 chooser", "e6edf97d36530085dd2dcd6eca9cacfafa0f390566ecc5666b7dc7c349370039"),
    ("n=16 x0 len=64 sender", "9479f59d88ce94bb8cd2fe9c197d2563419fe7f9d33dff21baf82ca993b6ba9e"),
    ("n=16 x0 len=64 chooser", "a1a3a2392b192b57317b4796aa892736576497841c3832beccc43881dc27cce1"),
    ("n=16 x1 len=4 sender", "6a7b42cb1fcdc8e7c9c7df9c3bf3217cb972abf19ec7c30a372a6c2823bcaa50"),
    ("n=16 x1 len=4 chooser", "46a2b74b0436041bf56e5506e84c96cd484785825795ceb08e668b4cfb901ce8"),
    ("n=16 x1 len=24 sender", "6762c5fa7f432870c792982ce429aed79ec5845c59960f3f915f2cf4052ece5c"),
    ("n=16 x1 len=24 chooser", "cf18b62af9099f1c8a27d6678b3dfba56ea3d5a378516e30c7da7fb1b400b887"),
    ("n=16 x1 len=64 sender", "dcb0885ef8e7fedababaf2eea650a41852d3c3f1064c566c340e0bbe0561b0d4"),
    ("n=16 x1 len=64 chooser", "83c3a3467a810f4bda5009203e35707cc9a22511314f89e811c5596980f462d0"),
    ("n=256 x0 len=4 sender", "a384f290a86dd9c5eb0ba3b2caf4cbbb8acbb8ec6f64120f873b95d668d1e8a0"),
    ("n=256 x0 len=4 chooser", "b132d9b53a1e8015615523188d86858c084673ac86ac65d6bb9c759ae71e63e8"),
    ("n=256 x0 len=24 sender", "baccfef880cda72a68aed9580113d3e8f7ae8389e23454ea2f1828837dd63d20"),
    ("n=256 x0 len=24 chooser", "64988ebd7f60901260e6b7f244b70091d3541b91a7059001594952b6167d12f5"),
    ("n=256 x0 len=64 sender", "34b44bebb1b2bc96f950c6af5de5ff628794001d3b3495ccc6a8b8dd4ab313b8"),
    ("n=256 x0 len=64 chooser", "55de6d406c35d853c8e6eab4c8f748a881e9b580e24e35575feeb2aa3b608e4e"),
    ("n=256 x1 len=4 sender", "8dc3a25d2f6047ad9878480ec9c7b5a5126c88b4f11d4515afba95524304f3b0"),
    ("n=256 x1 len=4 chooser", "1e33fbc3dea2db9de04e44c63265c0b0f1933dc5f078d44e29731a65a33bcf2c"),
    ("n=256 x1 len=24 sender", "2a4fd5b075e9965c7ef490ca04fb793b74043fe42cdebc96a83e7908fa810fe1"),
    ("n=256 x1 len=24 chooser", "faf1780d0925460501a60cd07547fb967f114f344060289d24b56485d8777f15"),
    ("n=256 x1 len=64 sender", "f20461fdc3e85ebd582731dd9d1cc95a223dd54b078f2432a2b32b9e54299c44"),
    ("n=256 x1 len=64 chooser", "2b766ce04a77f602d0f7c4674f1588344c33766950c55dcbc53e7a98bfb41f78"),
];

const VECTOR_COT_PINS: &[(&str, &str)] = &[
    ("l=32 m=300 OtVecPayload", "1837f5f461353e1f54b60ff06b69ba704eeef6d41d8fba5ad284683bed84ebb9"),
    ("l=32 m=300 sender x0", "bf2638f17d9692c6371670423b35e8d91a7c31b42dd588bbe7dd73b5603f69dc"),
    ("l=32 m=300 received", "79068331334053600b98ff1cc6609df14fdec614a38459f8333ed718fd9d8bcd"),
    ("l=64 m=13 OtVecPayload", "47346c1364a40e2b438909f3171df4905ef721321bc61421ea376f9c4acde2d4"),
    ("l=64 m=13 sender x0", "d6101effb6ce68bc0f6c23fbb46090f7c592fba0c683684ca2e92a7605b8a397"),
    ("l=64 m=13 received", "42d0bc0c652f67b8fb0d16e885f1aafdf1eac3f9b17b3973f1c407fb870aa36b"),
];
