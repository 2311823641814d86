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
    ("m=1 n=2 sender masks", "23f2773532514c95f160ba9087e103b99c8f5aec5e96a07326fbed3433d17724"),
    ("m=1 n=2 chooser masks", "1c5c45d1fe097c59c5e47aa011046e297ce0e587e835b3df32f46223fbda77ee"),
    ("m=1 n=3 KkColumns", "c5d54f110bf907aa72d87379e2acfbca7bf07f1e381caf3a5de87d2d8da51b00"),
    ("m=1 n=3 sender masks", "6083a0db6fb1a7d61fb5e346bb9a830343460611784946c64fb4bbfeeffda956"),
    ("m=1 n=3 chooser masks", "57fb2f5a00dd30512893db7d06b2e7ae7e9c9cffdc92ab7d3bd602c1a69d2eac"),
    ("m=1 n=4 KkColumns", "f6cbe07c6c80bf8e7f0664441a81915e2e225e95b8458a8c74bcef9825943f39"),
    ("m=1 n=4 sender masks", "57230f0e54bb623ab7b2113ddd21756a7060aed1d67d59ef49c40a569487496e"),
    ("m=1 n=4 chooser masks", "411a724f3ac1211eadf954309875f717c27832ed1ba189fbf1936db934a37482"),
    ("m=1 n=256 KkColumns", "ddfb7cb39b1ae4feef730a6d32e46555c5f7d1b4419f434f03d8529e1630173f"),
    ("m=1 n=256 sender masks", "85f078536590b56a36f62679868530f739e1381b5ee85d5a74065c761a455863"),
    ("m=1 n=256 chooser masks", "b73ffbcf274fb33d0370557fcb705bab6a4a912e70bbc1ae9e17e08c4f4ff74c"),
    ("m=13 n=2 KkColumns", "02669c296f5a304ad6ac14b3f6f3452036c98a7a8f2b90d9ea7ccca647b31f7d"),
    ("m=13 n=2 sender masks", "cecc5d89fead6d0df8aa0418dd5c3b1d696c63eb6c34362b96571c10e462211d"),
    ("m=13 n=2 chooser masks", "35b58c3f253b7fb5dc38cb10b9233c6dfebc841aa878ad223b8bc02384af1d40"),
    ("m=13 n=3 KkColumns", "9156947f53f2d2f95b138e0d07bc5aa0f848e0dc4ba27a37448e192d6242a8b7"),
    ("m=13 n=3 sender masks", "862fa230ad036af768dc5ed9f2f063dedc0f77d962df6094e6743a7d8fa3c100"),
    ("m=13 n=3 chooser masks", "c32c994eb9873ed17eb831dc730e9d6c6be34d058ef131f4745d9676cbaa6d21"),
    ("m=13 n=4 KkColumns", "879429e67a8c201077177e7494b85aa0ba482b18a29933717cb5b507fdd56e92"),
    ("m=13 n=4 sender masks", "f2e22c092d87aef83376f82694cca6a2cf13ef7149a133030dfbb8d01e0b0fa5"),
    ("m=13 n=4 chooser masks", "8d49d2f36129192115433e907722830ad431eae963400b03984cda4d5976a5a6"),
    ("m=13 n=256 KkColumns", "63c8c042c7e70a9316929f050114a84029e1992ac46dca9fb28014ccbd10f63c"),
    ("m=13 n=256 sender masks", "7f5d1d7c225e2efd59b041ee2c6a9362a5a1df19cb315d945891ea9a42bb9848"),
    (
        "m=13 n=256 chooser masks",
        "cfe7cee23f8f7c3fc51d16b4edeb3649253b51881c9783933dba4d087d9d70dd",
    ),
    ("m=300 n=2 KkColumns", "f8d04c2d05a5039f9c4caa10e3d69acfce08435a9cbf8f921a8cce822cecf111"),
    ("m=300 n=2 sender masks", "4c3269fde3f1ded6d2294fa92586063489d1199024e701e6d7a26ded327368ad"),
    ("m=300 n=2 chooser masks", "e951cdd8f12e9ba29d73872516412b6cf41e69eda319acdde16f4450642bf4e9"),
    ("m=300 n=3 KkColumns", "37e27ae1acad9de21cdf321bbfde3437905de1b97a883c1c60587c56aa3b8efc"),
    ("m=300 n=3 sender masks", "f58dc37aab8c82ae9426c98877d551be3e240600b70b46d57b81820c49c01a3f"),
    ("m=300 n=3 chooser masks", "088f99dc41b477a61cbbfc4ec189c28bd4a42ed71b8893d1244a68f7e222b27b"),
    ("m=300 n=4 KkColumns", "16de865da60553ec6ff0dc17d07be52e151417de1358a370f8dcb1e631aeedf8"),
    ("m=300 n=4 sender masks", "a2162ef15c45638bf89806f3f4b9ade62e66870a5e8ab80a9fb20b4d6bbe7b61"),
    ("m=300 n=4 chooser masks", "da837fdc42b9e416ae80ec92dcc85b36041a3778c52c2e3d84e4d65e0c616f7e"),
    ("m=300 n=256 KkColumns", "54ed074bd9e943985f062caa1d00db8191a74d92c7081c07802adfe71434d709"),
    (
        "m=300 n=256 sender masks",
        "005010315f1a47f98da41be5938f67384edac06f78a772b61fc4008fcf1ad8bf",
    ),
    (
        "m=300 n=256 chooser masks",
        "d979691ba7be327c2fbdb3b0921ce218f6756b5b32455d2221334b8329f70395",
    ),
    ("m=4097 n=2 KkColumns", "ededfba080c68096c222e02679f0a9a3227bfaa311aa3c6cf11d66427bf78879"),
    ("m=4097 n=2 sender masks", "cbf0146d2be50eae42e49b0d49dd08a70f354b28d290bc742917bf53e7920d0d"),
    (
        "m=4097 n=2 chooser masks",
        "559b08cc91cdf89c62b2156710766429b26f0db97d3ba3029fa5f846c30f6bdc",
    ),
    ("m=4097 n=3 KkColumns", "ab59d48d4abdb9aa89bb953078da02adab9d3b97b84b600a4c12a6697de8085f"),
    ("m=4097 n=3 sender masks", "cfa9f10bd51ca2ea215e502b5c55e66484b09dcc52e7cd9cbe71594bec1e58d7"),
    (
        "m=4097 n=3 chooser masks",
        "2eeeaa3fd73e58459283ae5ed9073235490170f39548f51dd07514503ff5f7f2",
    ),
    ("m=4097 n=4 KkColumns", "80cb045e0e91ba276c3bc6835c5db1fac7585a52622b36c656cab99c95545dd1"),
    ("m=4097 n=4 sender masks", "d410ee717de7cbda05341703587b1fa072ac691c19781e7b986c2f16c94f6802"),
    (
        "m=4097 n=4 chooser masks",
        "312b86379f2f91ce4574de9869b4d8023f2edafb30baadacbbd91bf0a5c926fb",
    ),
    ("m=4097 n=256 KkColumns", "96ff09a6d0ad6d0ad3e9e2a3e29412edc9cfeb17385c9e33ac9f5c41bd23dcc7"),
    (
        "m=4097 n=256 sender masks",
        "09646858d7d8e02280ad4d182c510b0666dd6ef596c32cbeffeec0d673761914",
    ),
    (
        "m=4097 n=256 chooser masks",
        "15c14fbdf943afebe7401690abca9bcbc9851f10f68cb372bb702e2b087cdd97",
    ),
];
