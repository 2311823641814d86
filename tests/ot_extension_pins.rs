//! OT-extension stability: what the extension matrix puts on the wire and
//! what both parties derive from it are a function of the seeds, the choice
//! vector and `m` alone, so how the code expands, corrects and transposes
//! that matrix may change without any peer noticing. The digests below were
//! recorded at commit caf5e02 (one sequential and one threaded copy of the
//! column→row code per protocol, over a bit-at-a-time transpose) from seeded
//! in-process pairs, at batch sizes that are not multiples of 8 or 64 and
//! one above that commit's 4096-OT threading threshold. A peer built there
//! interoperates with this tree only while they stay byte-for-byte equal.
//!
//! Re-recorded for protocol v8: the KK13 `sender masks` and `chooser masks`
//! rows moved, because a digest now expands into a mask under the fixed-key
//! oracle (block `k` is `H(k, digest)`) instead of AES-CTR keyed by the
//! digest. Every `KkColumns` row and the whole IKNP table are the parent's,
//! unmodified: the in-place PRG columns, the tiled transpose and the
//! chooser's code matrix built by bit-plane columns moved no byte.
//!
//! Lives at the repo root because tier-1 `cargo test -q` runs only the
//! umbrella package.

use abnn2::crypto::sha256::sha256;
use abnn2::crypto::Block;
use abnn2::net::{run_pair, CommSnapshot, NetworkModel, Transport, TransportError};
use abnn2::ot::{IknpReceiver, IknpSender, KkChooser, KkSender};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BATCHES: [usize; 4] = [1, 13, 300, 4097];
const RADICES: [u64; 4] = [2, 3, 4, 256];
const MASK_LEN: usize = 24;

/// Keeps a digest of every frame (tag byte included) the wrapped party
/// sends.
struct Tap<'a, T> {
    inner: &'a mut T,
    sent: Vec<String>,
}

impl<T: Transport> Transport for Tap<'_, T> {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.sent.push(hex(payload));
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

fn hex_blocks<'a>(blocks: impl IntoIterator<Item = &'a Block>) -> String {
    hex(&blocks.into_iter().flat_map(|b| b.to_bytes()).collect::<Vec<u8>>())
}

/// The OTs whose per-symbol masks are pinned: both ends, and two inside.
fn sample(m: usize) -> Vec<usize> {
    let mut js = vec![0, m / 3, m / 2, m - 1];
    js.dedup();
    js
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

#[test]
fn iknp_columns_rows_and_random_ots_are_pinned() {
    let mut got = Vec::new();
    for m in BATCHES {
        let choices: Vec<bool> = {
            let mut rng = StdRng::seed_from_u64(0x1C00 + m as u64);
            (0..m).map(|_| rng.gen()).collect()
        };
        let ((qs, delta, pairs), (sent, ts, chosen), _) = run_pair(
            NetworkModel::instant(),
            |ch| {
                let mut s = IknpSender::setup(ch, &mut StdRng::seed_from_u64(0x1A)).expect("setup");
                let qs = s.extend_cot(ch, m).expect("sender extend_cot");
                let pairs = s.send_random(ch, m).expect("send_random");
                (qs, s.delta(), pairs)
            },
            |ch| {
                let mut r =
                    IknpReceiver::setup(ch, &mut StdRng::seed_from_u64(0x1B)).expect("setup");
                let mut tap = Tap { inner: ch, sent: Vec::new() };
                let ts = r.extend_cot(&mut tap, &choices).expect("receiver extend_cot");
                let chosen = r.recv_random(&mut tap, &choices).expect("recv_random");
                (tap.sent, ts, chosen)
            },
        );
        assert_eq!((qs.len(), ts.len(), pairs.len(), chosen.len()), (m, m, m, m));
        for (j, &c) in choices.iter().enumerate() {
            assert_eq!(
                qs[j],
                if c { ts[j] ^ delta } else { ts[j] },
                "m={m} cot {j}: q = t ^ c*delta"
            );
            assert_eq!(chosen[j], if c { pairs[j].1 } else { pairs[j].0 }, "m={m} random ot {j}");
        }
        assert_eq!(sent.len(), 2, "one column frame per extension");
        got.push((format!("m={m} SilentBaseColumns"), sent[0].clone()));
        got.push((format!("m={m} IknpColumns"), sent[1].clone()));
        got.push((format!("m={m} sender cot rows"), hex_blocks(&qs)));
        got.push((format!("m={m} receiver cot rows"), hex_blocks(&ts)));
        got.push((
            format!("m={m} send_random"),
            hex_blocks(pairs.iter().flat_map(|(a, b)| [a, b])),
        ));
        got.push((format!("m={m} recv_random"), hex_blocks(&chosen)));
    }
    assert_pinned("IKNP extension", &got, IKNP_PINS);
}

#[test]
fn kk13_columns_and_masks_are_pinned() {
    let mut got = Vec::new();
    for m in BATCHES {
        // One pair per batch size, the four radices back to back, so the
        // later extensions also pin the PRG and tweak positions the earlier
        // ones leave behind.
        let symbols: Vec<Vec<u64>> = RADICES
            .iter()
            .map(|&n| {
                let mut rng = StdRng::seed_from_u64(0x2C00 + 1000 * n + m as u64);
                (0..m).map(|_| rng.gen_range(0..n)).collect()
            })
            .collect();
        let (sender_keys, (sent, chooser_keys), _) = run_pair(
            NetworkModel::instant(),
            |ch| {
                let mut s = KkSender::setup(ch, &mut StdRng::seed_from_u64(0x2A)).expect("setup");
                RADICES.map(|_| s.extend(ch, m).expect("sender extend"))
            },
            |ch| {
                let mut c = KkChooser::setup(ch, &mut StdRng::seed_from_u64(0x2B)).expect("setup");
                let mut tap = Tap { inner: ch, sent: Vec::new() };
                let keys: Vec<_> = RADICES
                    .iter()
                    .zip(&symbols)
                    .map(|(&n, w)| c.extend(&mut tap, w, n).expect("chooser extend"))
                    .collect();
                (tap.sent, keys)
            },
        );
        assert_eq!(sent.len(), RADICES.len(), "one column frame per extension");
        for (i, &n) in RADICES.iter().enumerate() {
            let (sk, ck, w) = (&sender_keys[i], &chooser_keys[i], &symbols[i]);
            assert_eq!((sk.len(), ck.len()), (m, m));
            for (j, &wj) in w.iter().enumerate() {
                assert_eq!(ck.mask(j, MASK_LEN), sk.mask(j, wj, MASK_LEN), "m={m} n={n} ot {j}");
            }
            let js = sample(m);
            let sender_masks: Vec<u8> = js
                .iter()
                .flat_map(|&j| (0..n).flat_map(move |v| sk.mask(j, v, MASK_LEN)))
                .collect();
            let chooser_masks: Vec<u8> = js.iter().flat_map(|&j| ck.mask(j, MASK_LEN)).collect();
            got.push((format!("m={m} n={n} KkColumns"), sent[i].clone()));
            got.push((format!("m={m} n={n} sender masks"), hex(&sender_masks)));
            got.push((format!("m={m} n={n} chooser masks"), hex(&chooser_masks)));
        }
    }
    assert_pinned("KK13 extension", &got, KK13_PINS);
}

const IKNP_PINS: &[(&str, &str)] = &[
    ("m=1 SilentBaseColumns", "bb06caaa7e6bef93fade88be6d173da41f35497ff1c79f209b81c6d4c492540f"),
    ("m=1 IknpColumns", "5d31b6f3ef61f11cf0914684efbc97fbd9491189e25f9ef89f9a7d7019642782"),
    ("m=1 sender cot rows", "b6ef5c0daa078560933f39f53df536868e164d25a3d5fa3c74b29b2aa154492d"),
    ("m=1 receiver cot rows", "e334066fa20c7f4381b478c6f2b543c776f717e73f86c7b5d587f75e10b068cb"),
    ("m=1 send_random", "3364c4469db9b0f740fb845f6fd57bd5d4ed8c9f9916168eea2a7b33c75dea1a"),
    ("m=1 recv_random", "f03edeab1dfe7c4293371d661ffd0a186a5c6161a02bac799dfe1ea6a0e61067"),
    ("m=13 SilentBaseColumns", "8117221d09f65f7d179ca252e20a931a2cf8998de39daa3d56a1c49b734962fa"),
    ("m=13 IknpColumns", "ca48a347bf3f73c26039cf4c15758eb21f8f47a0ab14356ef1b1d92fa8661131"),
    ("m=13 sender cot rows", "7440b66e7dc15ecc0ab1d6b415fd7cea035cf3f703b2104d8afa1578307676e8"),
    ("m=13 receiver cot rows", "7400bfb725e75e1c8d07beeefd47201bba5e45b41c01b236025837e25a0d3974"),
    ("m=13 send_random", "8c35b977a882b3e34a826610bec33b9ebdd9d17f92f0cd14a64e7e460a4aaf48"),
    ("m=13 recv_random", "386f07dbdf63295c2d018bdb7916a3be05ca226c1654f0530c11cfd0cee2ecaf"),
    ("m=300 SilentBaseColumns", "925c0a68bbd2c85931e816d63d5e6ac5b73e6698dc8f7124c5f4fc979b48ffd8"),
    ("m=300 IknpColumns", "38bb70cbe958460da1329733fbd020f5948cabc97ad0a3152ba084093f7bcbb3"),
    ("m=300 sender cot rows", "47820de096c24e961a590acf12bff80970c17a48676869e2fff8e430fb2414c2"),
    ("m=300 receiver cot rows", "1326622b32e7826f43b6dbd441e23cf0849a7a756fd99448482f7ad5ac611b24"),
    ("m=300 send_random", "1394d208c8c801185c76d839984ea1916cd03110723666b237a5418859b34782"),
    ("m=300 recv_random", "dc2197393e25ad71acec2f4d56de6f342e2c82669345f92abe1c693b36914540"),
    (
        "m=4097 SilentBaseColumns",
        "4b7ffef31a626e257bb09ade8785d63c26e2f68bc57df642231dc37849117b62",
    ),
    ("m=4097 IknpColumns", "0f414fb196db4ab9ef4dbccc86374096b8895e07b2907e710f365c5d03170769"),
    ("m=4097 sender cot rows", "74d464572caf4c98ef9faed17215dc604b8773ccf3987ba0195d4fd0c800ebac"),
    (
        "m=4097 receiver cot rows",
        "155895ea67f356c6022a913e83b810e5766cce6d350709f14735bea6f8f8518e",
    ),
    ("m=4097 send_random", "fdf566c52b2db8d9a17f48c8c66735dc50a2dadf0049f63fd8e69acc327c8631"),
    ("m=4097 recv_random", "145ee1ef3a2005cdcddfb9ac4f32abc34187528ddb7318f593e6958d4aec37e8"),
];

const KK13_PINS: &[(&str, &str)] = &[
    ("m=1 n=2 KkColumns", "d47420d2e1ad2dd57abcb057d8a29d1cdb3a8e4d1bdfbee9103107895fc732eb"),
    ("m=1 n=2 sender masks", "158e8800e106977de31b72cc0df656b461edf567232d7bbbad0806c81a8b46dd"),
    ("m=1 n=2 chooser masks", "4168901002f9b1e9689aaec05c903197dcaa6d3ad1f3cfd26659f8fd22793c4d"),
    ("m=1 n=3 KkColumns", "c5d54f110bf907aa72d87379e2acfbca7bf07f1e381caf3a5de87d2d8da51b00"),
    ("m=1 n=3 sender masks", "e41e4f19d686377952410f7e77e923e64bab858df36c910dc34a6f644830d1e5"),
    ("m=1 n=3 chooser masks", "ca8f20a4592ec1fb9320ffc45e297d3cdeb5652168b28d7fac7f44fbd0bc3c63"),
    ("m=1 n=4 KkColumns", "f6cbe07c6c80bf8e7f0664441a81915e2e225e95b8458a8c74bcef9825943f39"),
    ("m=1 n=4 sender masks", "2815de972ba0783bf8ad035516f23bd08b47faf9016e2a302c4cd7035f28bd6d"),
    ("m=1 n=4 chooser masks", "a465907d4d2c747f21c89e76dbae7a513dae1b603dc75b624913fab9fb2e05ce"),
    ("m=1 n=256 KkColumns", "ddfb7cb39b1ae4feef730a6d32e46555c5f7d1b4419f434f03d8529e1630173f"),
    ("m=1 n=256 sender masks", "b26fd7d46b0f6f1803795a64a4897273e864ce39f2d4eed3b97c42a4e99946df"),
    ("m=1 n=256 chooser masks", "208ea8bff7b7d837e66c502bb494499f76c177d197da7c85ffda618299842094"),
    ("m=13 n=2 KkColumns", "02669c296f5a304ad6ac14b3f6f3452036c98a7a8f2b90d9ea7ccca647b31f7d"),
    ("m=13 n=2 sender masks", "8b747386d3ee20ba6722b1e09e5a70209161ab5ac2f5c988408dc6aac6b63b04"),
    ("m=13 n=2 chooser masks", "7423b3720ccc3dbfbc0a764882220e66d65d3d688c0e139a7c57884c5a28327d"),
    ("m=13 n=3 KkColumns", "9156947f53f2d2f95b138e0d07bc5aa0f848e0dc4ba27a37448e192d6242a8b7"),
    ("m=13 n=3 sender masks", "d9baacc87ffda6d799d4955e9f672c907882ec6a7bb0c0fc3c2092709ef11f10"),
    ("m=13 n=3 chooser masks", "6135272d740e2009dd254317b9e780b81a93168bb092fe86b750db2519002694"),
    ("m=13 n=4 KkColumns", "879429e67a8c201077177e7494b85aa0ba482b18a29933717cb5b507fdd56e92"),
    ("m=13 n=4 sender masks", "076e30fe3446c255a9a0bb4baae92f71932c8d808ba224b83212667997d9e11c"),
    ("m=13 n=4 chooser masks", "90a1d10c9610d2652e5b970b986613d476460a4bb4044527d78bc21deb58817a"),
    ("m=13 n=256 KkColumns", "63c8c042c7e70a9316929f050114a84029e1992ac46dca9fb28014ccbd10f63c"),
    ("m=13 n=256 sender masks", "e5e6e738d35eea2bac5ec18a4f62407b3634e413d87e0dbcf04c060934952a91"),
    (
        "m=13 n=256 chooser masks",
        "eeff7cd0eb875f8b6501177d01b2887527a7e89f3afc83c602ff74ef5de8bfe3",
    ),
    ("m=300 n=2 KkColumns", "f8d04c2d05a5039f9c4caa10e3d69acfce08435a9cbf8f921a8cce822cecf111"),
    ("m=300 n=2 sender masks", "f0eadf9e5d434384dda094b16d9b3349291bb126b94e46a91d109130922e7c77"),
    ("m=300 n=2 chooser masks", "489f2a894b4d3fc406bb254d1db2733bd91b9518dbe3c34f91db24316131cea7"),
    ("m=300 n=3 KkColumns", "37e27ae1acad9de21cdf321bbfde3437905de1b97a883c1c60587c56aa3b8efc"),
    ("m=300 n=3 sender masks", "72a7fc446c3a982ccebf235a2db0e4c37f5491cd58cc47cdaef5516d0c0a6b44"),
    ("m=300 n=3 chooser masks", "7e493dc027333297758b1e99f5431a5588bd9cd3c419dbbebf80f6c33db8f470"),
    ("m=300 n=4 KkColumns", "16de865da60553ec6ff0dc17d07be52e151417de1358a370f8dcb1e631aeedf8"),
    ("m=300 n=4 sender masks", "1b3e8d9e94aac40a2933b484d893cce3a8e8c1660c1430f1f7cf9687adf28942"),
    ("m=300 n=4 chooser masks", "1ef822b7e0179de4870e985bf9626fbe4361eb757b04dcfe1ea4cc13a24caaac"),
    ("m=300 n=256 KkColumns", "54ed074bd9e943985f062caa1d00db8191a74d92c7081c07802adfe71434d709"),
    (
        "m=300 n=256 sender masks",
        "dd456cbda1b9912d0d87b0f0b5f6145f0e32fdf42f52525cbbe8ebc56027743b",
    ),
    (
        "m=300 n=256 chooser masks",
        "bddfd890bf94eb3d46c482109474e9f746f8202e1193bd6a3b800e801131d7e0",
    ),
    ("m=4097 n=2 KkColumns", "ededfba080c68096c222e02679f0a9a3227bfaa311aa3c6cf11d66427bf78879"),
    ("m=4097 n=2 sender masks", "6c14b78e67633881c3a1e6861592ef716aa6de12db0b0a3498b5c3b7281cd555"),
    (
        "m=4097 n=2 chooser masks",
        "e33aead64f7758dada43bf75aef71ef43a0713e6269059ddb01d686a1f86ba6f",
    ),
    ("m=4097 n=3 KkColumns", "ab59d48d4abdb9aa89bb953078da02adab9d3b97b84b600a4c12a6697de8085f"),
    ("m=4097 n=3 sender masks", "c43f107d8d210898d4ef526f150de023dc6d86abc033e2eb4f0830bb8922331e"),
    (
        "m=4097 n=3 chooser masks",
        "3655c35a11ade74c579425185bab1ef8d25df5fbbf95563af2a32a2522853ad1",
    ),
    ("m=4097 n=4 KkColumns", "80cb045e0e91ba276c3bc6835c5db1fac7585a52622b36c656cab99c95545dd1"),
    ("m=4097 n=4 sender masks", "d8315808f2e01b696708b9dd05bd63c6cd90b086a1340ec4c73036154e32d1e2"),
    (
        "m=4097 n=4 chooser masks",
        "bfd9c2630c5f2860676b88b8c41f1fe535186834f8b46ffb495a7f85f265e0dd",
    ),
    ("m=4097 n=256 KkColumns", "96ff09a6d0ad6d0ad3e9e2a3e29412edc9cfeb17385c9e33ac9f5c41bd23dcc7"),
    (
        "m=4097 n=256 sender masks",
        "07c33e6327b1064743ab1249bd45fee641d057004f1e1cd3c8383663b5faee90",
    ),
    (
        "m=4097 n=256 chooser masks",
        "0894fb788fcc386185e72612a9a93d04e1fa802e3201a1032e8c48c7d211408e",
    ),
];
