//! Integration checks of the paper's *qualitative* efficiency claims — the
//! shapes that must hold even though absolute numbers depend on hardware:
//! who wins, in which direction costs move, and where the savings come
//! from.

use abnn2::core::matmul::{triplet_client, triplet_server, TripletMode};
use abnn2::math::{FragmentScheme, Matrix, Ring};
use abnn2::net::{
    run_pair, CommSnapshot, Endpoint, InstrumentedTransport, NetworkModel, TagStats, Transport,
    TransportError,
};
use abnn2::ot::{FragmentChooser, FragmentSender, IknpReceiver, IknpSender, OfflineMode};
use rand::SeedableRng;

fn offline_bytes(scheme: &FragmentScheme, m: usize, n: usize, o: usize, ring_bits: u32) -> u64 {
    let ring = Ring::new(ring_bits);
    let mode = TripletMode::for_batch(o);
    let weights = {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let (lo, hi) = scheme.weight_range();
        (0..m * n).map(|_| rng.gen_range(lo..=hi)).collect::<Vec<i64>>()
    };
    let (s1, s2) = (scheme.clone(), scheme.clone());
    let (_, _, report) = run_pair(
        NetworkModel::instant(),
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(2);
            let mut kk = FragmentChooser::setup(ch, OfflineMode::Iknp, &mut rng).expect("setup");
            triplet_server(ch, &mut kk, &weights, m, n, o, &s1, ring, mode).expect("server")
        },
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            let mut kk = FragmentSender::setup(ch, OfflineMode::Iknp, &mut rng).expect("setup");
            let r = Matrix::random(n, o, &ring, &mut rng);
            triplet_client(ch, &mut kk, &r, m, &s2, ring, mode, &mut rng).expect("client")
        },
    );
    report.total_bytes()
}

/// Table 2's ordering: communication grows with weight bitwidth.
#[test]
fn comm_grows_with_bitwidth() {
    let binary = offline_bytes(&FragmentScheme::binary(), 16, 32, 1, 32);
    let ternary = offline_bytes(&FragmentScheme::ternary(), 16, 32, 1, 32);
    let four = offline_bytes(&FragmentScheme::signed_bit_fields(&[2, 2]), 16, 32, 1, 32);
    let eight = offline_bytes(&FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]), 16, 32, 1, 32);
    assert!(binary <= ternary, "binary {binary} vs ternary {ternary}");
    assert!(ternary < four, "ternary {ternary} vs 4-bit {four}");
    assert!(four < eight, "4-bit {four} vs 8-bit {eight}");
}

/// Table 2's finding: 2-bit fragments beat 1-bit fragments for 8-bit
/// weights in one-batch communication.
#[test]
fn two_bit_fragments_beat_one_bit() {
    let one_bit = offline_bytes(&FragmentScheme::signed_bit_fields(&[1; 8]), 16, 32, 1, 32);
    let two_bit = offline_bytes(&FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]), 16, 32, 1, 32);
    assert!(two_bit < one_bit, "(2,2,2,2) {two_bit} must beat (1,…,1) {one_bit}");
}

/// Table 2's multi-batch behaviour: amortized per-prediction communication
/// falls as the batch grows.
#[test]
fn multi_batch_amortizes_per_prediction_cost() {
    let scheme = FragmentScheme::signed_bit_fields(&[2, 2]);
    let b1 = offline_bytes(&scheme, 16, 32, 1, 32);
    let b8 = offline_bytes(&scheme, 16, 32, 8, 32);
    assert!(
        (b8 as f64) / 8.0 < b1 as f64,
        "amortized batch-8 cost {} must beat batch-1 cost {b1}",
        b8 / 8
    );
}

/// Table 3's headline: ABNN² offline beats SecureML for quantized weights,
/// by a growing factor as bitwidth shrinks.
#[test]
fn ours_beats_secureml_and_gap_grows_with_quantization() {
    use abnn2::baselines::secureml::{matvec_client, matvec_server};
    let ring = Ring::new(64);
    let (m, n) = (16, 64);
    let secureml_bytes = {
        let (_, _, report) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(4);
                let weights = ring.sample_vec(&mut rng, m * n);
                let mut ot = IknpReceiver::setup(ch, &mut rng).expect("setup");
                matvec_server(ch, &mut ot, &weights, m, n, ring).expect("server")
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(5);
                let r = ring.sample_vec(&mut rng, n);
                let mut ot = IknpSender::setup(ch, &mut rng).expect("setup");
                matvec_client(ch, &mut ot, &r, m, ring).expect("client")
            },
        );
        report.total_bytes()
    };
    let eight = offline_bytes(&FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]), m, n, 1, 64);
    let binary = offline_bytes(&FragmentScheme::binary(), m, n, 1, 64);
    assert!(eight < secureml_bytes, "8-bit {eight} vs SecureML {secureml_bytes}");
    let factor_8 = secureml_bytes as f64 / eight as f64;
    let factor_1 = secureml_bytes as f64 / binary as f64;
    assert!(
        factor_1 > factor_8,
        "advantage must grow as bitwidth shrinks: x{factor_1:.1} (binary) vs x{factor_8:.1} (8-bit)"
    );
}

/// Table 4's structural contrast: MiniONN's HE offline traffic is
/// *independent of the weight bitwidth* (it ships ciphertexts, not
/// weight-bit OTs), while ABNN²'s traffic scales with η. This is the
/// property that makes ABNN² win at low bitwidths in the paper.
#[test]
fn minionn_comm_is_bitwidth_independent_ours_is_not() {
    use abnn2::baselines::minionn::{MinionnClient, MinionnServer};
    use abnn2::nn::quant::{QuantConfig, QuantizedNetwork};
    use abnn2::nn::{Network, SyntheticMnist};
    let data = SyntheticMnist::generate(50, 0, 6);
    let mut net = Network::new(&[784, 8, 10], 6);
    net.train_epoch(&data.train, 0.05);

    let minionn_bytes = |scheme: FragmentScheme, fw: u32| -> u64 {
        let config =
            QuantConfig { ring: Ring::new(32), frac_bits: 8, weight_frac_bits: fw, scheme };
        let q = QuantizedNetwork::quantize(&net, config);
        let server = MinionnServer::new(q.clone(), 256);
        let client = MinionnClient::new(server.public_model(), 256);
        let (_, _, report) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(7);
                let _ = server.offline(ch, 1, &mut rng).expect("offline");
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(8);
                let _ = client.offline(ch, 1, &mut rng).expect("offline");
            },
        );
        report.total_bytes()
    };
    let minionn_binary = minionn_bytes(FragmentScheme::binary(), 0);
    let minionn_8bit = minionn_bytes(FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]), 4);
    let he_ratio = minionn_8bit as f64 / minionn_binary as f64;
    assert!(
        (0.95..1.05).contains(&he_ratio),
        "MiniONN bytes must not depend on bitwidth: binary {minionn_binary} vs 8-bit {minionn_8bit}"
    );

    let ours_binary = offline_bytes(&FragmentScheme::binary(), 8, 784, 1, 32);
    let ours_8bit = offline_bytes(&FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]), 8, 784, 1, 32);
    let ot_ratio = ours_8bit as f64 / ours_binary as f64;
    assert!(
        ot_ratio > 2.0,
        "ABNN² bytes must scale with bitwidth: binary {ours_binary} vs 8-bit {ours_8bit}"
    );
}

/// Records, on the server's side of a session, what crossed under each
/// frame tag up to the offline→online edge — the first phase mark of
/// `core::graph`'s online walk, which is where every system's online phase
/// starts now that there is one.
struct EdgeTap {
    inner: InstrumentedTransport<Endpoint>,
    at_edge: Option<Vec<(u8, TagStats)>>,
}

impl Transport for EdgeTap {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.inner.send(payload)
    }
    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        self.inner.recv()
    }
    fn flush(&mut self) -> Result<(), TransportError> {
        self.inner.flush()
    }
    fn snapshot(&self) -> CommSnapshot {
        self.inner.snapshot()
    }
    fn mark_phase(&mut self, label: &str) {
        if label == "online:input" {
            self.at_edge = Some(self.inner.handle().tags());
        }
        self.inner.mark_phase(label);
    }
}

impl EdgeTap {
    /// Frames and payload bytes per tag, both directions, since the edge.
    fn online_frames(self) -> Vec<(u8, TagStats)> {
        let before = self.at_edge.expect("the session reached its online phase");
        let at =
            |tag: u8| before.iter().find(|(t, _)| *t == tag).map_or(TagStats::default(), |e| e.1);
        let since = |s: TagStats, b: TagStats| TagStats {
            bytes_sent: s.bytes_sent - b.bytes_sent,
            bytes_received: s.bytes_received - b.bytes_received,
            messages_sent: s.messages_sent - b.messages_sent,
            messages_received: s.messages_received - b.messages_received,
        };
        let tags = self.inner.handle().tags();
        tags.into_iter()
            .map(|(tag, s)| (tag, since(s, at(tag))))
            .filter(|(_, s)| *s != TagStats::default())
            .collect()
    }
}

/// Tables 3-5 compare *offline* protocols: the online phase is one engine
/// (`core::graph`'s walks) that ABNN², MiniONN and QUOTIENT all run over
/// their own triplets, so on one model and batch its frames agree tag for
/// tag and byte for byte.
#[test]
fn online_phase_is_the_same_frames_under_all_three_offline_protocols() {
    use abnn2::baselines::minionn::{MinionnClient, MinionnServer};
    use abnn2::baselines::quotient::{QuotientClient, QuotientServer};
    use abnn2::core::{SecureClient, SecureServer};
    use abnn2::net::wire::tags;
    use abnn2::nn::quant::{QuantConfig, QuantizedNetwork};
    use abnn2::nn::{Network, SyntheticMnist};
    let batch = 2;
    let data = SyntheticMnist::generate(50, 0, 31);
    let mut net = Network::new(&[784, 8, 6, 10], 31);
    net.train_epoch(&data.train, 0.05);
    let config = QuantConfig {
        ring: Ring::new(32),
        frac_bits: 8,
        weight_frac_bits: 0,
        scheme: FragmentScheme::ternary(),
    };
    let q = QuantizedNetwork::quantize(&net, config);
    let codec = q.config.activation_codec();
    let inputs: Vec<Vec<u64>> =
        data.train.iter().take(batch).map(|s| codec.encode_vec(&s.pixels)).collect();
    let expected: Vec<Vec<u64>> = inputs.iter().map(|x| q.forward_exact(x)).collect();

    // One session per system: the server's online frames, the client's logits.
    let session = |server: &(dyn Fn(&mut EdgeTap) + Sync),
                   client: &(dyn Fn(&mut Endpoint) -> Matrix + Sync)| {
        let (server_ep, mut client_ep) = Endpoint::pair(NetworkModel::instant());
        let (frames, y) = std::thread::scope(|scope| {
            let srv = scope.spawn(move || {
                let mut tap =
                    EdgeTap { inner: InstrumentedTransport::new(server_ep), at_edge: None };
                server(&mut tap);
                tap.online_frames()
            });
            let y = client(&mut client_ep);
            (srv.join().expect("server thread"), y)
        });
        let got: Vec<Vec<u64>> = (0..batch).map(|k| y.col(k)).collect();
        assert_eq!(got, expected, "bit-exact against the plaintext oracle");
        frames
    };
    let rng = rand::rngs::StdRng::seed_from_u64;

    let (s, c) = (SecureServer::for_model(q.clone()), SecureClient::for_model(&q));
    let ours = session(&|ch| s.run(ch, batch, &mut rng(32)).expect("server"), &|ch| {
        let mut rng = rng(33);
        let state = c.offline(ch, batch, &mut rng).expect("offline");
        c.online_raw(ch, state, &inputs, &mut rng).expect("online")
    });
    let s = MinionnServer::new(q.clone(), 256);
    let c = MinionnClient::new(s.public_model(), 256);
    let minionn = session(&|ch| s.run(ch, batch, &mut rng(34)).expect("server"), &|ch| {
        c.run(ch, &inputs, &mut rng(35)).expect("client")
    });
    let s = QuotientServer::new(q.clone());
    let c = QuotientClient::new(s.public_model());
    let quotient = session(&|ch| s.run(ch, batch, &mut rng(36)).expect("server"), &|ch| {
        c.run(ch, &inputs, &mut rng(37)).expect("client")
    });

    assert_eq!(ours, minionn, "MiniONN's online frames");
    assert_eq!(ours, quotient, "QUOTIENT's online frames");
    // What those frames are: the blinded input in, the output shares out,
    // and one Yao transfer per hidden layer between them.
    let count = |tag: u8| {
        let s = ours.iter().find(|(t, _)| *t == tag).map_or(TagStats::default(), |e| e.1);
        (s.messages_received, s.messages_sent)
    };
    assert_eq!(count(tags::BLINDED_INPUT), (1, 0));
    assert_eq!(count(tags::OUTPUT_SHARES), (0, 1));
    assert_eq!(count(tags::GC_TABLES), (2, 0));
    assert_eq!(count(tags::IKNP_COLUMNS), (0, 2));
    assert_eq!(ours.len(), 7, "and the labels, decode maps and label OTs: {ours:?}");
}

/// Section 4.2's message count, now measurable *per frame tag* on the
/// wire: in one-batch mode the client answers each KK13 OT with N−1
/// masked messages, so for η = 8 under the (2,2,2,2) scheme the
/// `TRIPLET_MASKED` tag must carry exactly γ batches totalling
/// γ·(N−1)·m·n·elem bytes — and nothing else may ride under that tag.
#[test]
fn kk13_masked_message_bytes_match_the_papers_gamma_n_minus_one_count() {
    use abnn2::net::wire::tags;
    let scheme = FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]);
    let ring = Ring::new(32);
    let (m, n, o) = (16usize, 32usize, 1usize);

    let weights = {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (lo, hi) = scheme.weight_range();
        (0..m * n).map(|_| rng.gen_range(lo..=hi)).collect::<Vec<i64>>()
    };
    let (server_ep, client_ep) = Endpoint::pair(NetworkModel::instant());
    let mut client_ch = InstrumentedTransport::new(client_ep);
    let handle = client_ch.handle();
    let (s1, s2) = (scheme.clone(), scheme.clone());
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut ch = server_ep;
            let mut rng = rand::rngs::StdRng::seed_from_u64(12);
            let mut kk =
                FragmentChooser::setup(&mut ch, OfflineMode::Iknp, &mut rng).expect("setup");
            triplet_server(&mut ch, &mut kk, &weights, m, n, o, &s1, ring, TripletMode::OneBatch)
                .expect("server");
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let mut kk =
            FragmentSender::setup(&mut client_ch, OfflineMode::Iknp, &mut rng).expect("setup");
        let r = Matrix::random(n, o, &ring, &mut rng);
        triplet_client(&mut client_ch, &mut kk, &r, m, &s2, ring, TripletMode::OneBatch, &mut rng)
            .expect("client");
    });

    let stats = handle.tag(tags::TRIPLET_MASKED);
    // One TRIPLET_MASKED frame per fragment group…
    let gamma = scheme.fragments().len() as u64;
    assert_eq!(gamma, 4);
    assert_eq!(stats.messages_sent, gamma);
    // …carrying the paper's γ(N−1) masked messages of m·n·elem bytes.
    let elem = (o * ring.byte_len()) as u64;
    let expected: u64 =
        scheme.fragments().iter().map(|frag| (frag.n - 1) * (m * n) as u64 * elem).sum();
    assert_eq!(stats.bytes_sent, expected);
    // Pinned absolute count for this shape: 4 groups × 3 masked messages
    // × 512 OTs × 4 bytes.
    assert_eq!(stats.bytes_sent, 24_576);
    // The count is exclusive: triplet traffic under no other core tag.
    assert_eq!(handle.tag(tags::BLINDED_INPUT).bytes_sent, 0);
}

/// WAN latency shows up in simulated time — the network substrate behaves
/// like the paper's `tc`-shaped links. The exchange's critical path is four
/// one-way trips: the base-OT sender's `A`, the chooser's points, the
/// ciphertexts with the KK13 columns behind them (one flight), and the
/// masked reply. Measured compute only adds to the simulated time, so the
/// bound is the modelled latency alone.
#[test]
fn wan_simulation_adds_latency() {
    let scheme = FragmentScheme::ternary();
    let ring = Ring::new(32);
    let wan = NetworkModel::wan_secureml();
    let s = scheme.clone();
    let (_, _, report) = run_pair(
        wan,
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(9);
            let mut kk = FragmentChooser::setup(ch, OfflineMode::Iknp, &mut rng).expect("setup");
            triplet_server(ch, &mut kk, &[1, 0, -1, 1], 2, 2, 1, &s, ring, TripletMode::OneBatch)
                .expect("server")
        },
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(10);
            let mut kk = FragmentSender::setup(ch, OfflineMode::Iknp, &mut rng).expect("setup");
            let r = Matrix::random(2, 1, &ring, &mut rng);
            triplet_client(ch, &mut kk, &r, 2, &scheme, ring, TripletMode::OneBatch, &mut rng)
                .expect("client")
        },
    );
    let floor = 4 * wan.one_way_latency();
    assert!(report.simulated_time() >= floor, "wan {:?} < {floor:?}", report.simulated_time());
}

/// Runs one triplet generation under `ot` with the client channel
/// instrumented, returning the tag/phase handle.
fn triplet_traffic(ot: OfflineMode, m: usize, n: usize, o: usize) -> abnn2::net::InstrumentHandle {
    let scheme = FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]);
    let ring = Ring::new(32);
    let weights = {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let (lo, hi) = scheme.weight_range();
        (0..m * n).map(|_| rng.gen_range(lo..=hi)).collect::<Vec<i64>>()
    };
    let (server_ep, client_ep) = Endpoint::pair(NetworkModel::instant());
    let mut client_ch = InstrumentedTransport::new(client_ep);
    let handle = client_ch.handle();
    let (s1, s2) = (scheme.clone(), scheme);
    let mode = TripletMode::for_batch(o);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut ch = server_ep;
            let mut rng = rand::rngs::StdRng::seed_from_u64(22);
            let mut kk = FragmentChooser::setup(&mut ch, ot, &mut rng).expect("setup");
            triplet_server(&mut ch, &mut kk, &weights, m, n, o, &s1, ring, mode).expect("server");
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mut kk = FragmentSender::setup(&mut client_ch, ot, &mut rng).expect("setup");
        let r = Matrix::random(n, o, &ring, &mut rng);
        triplet_client(&mut client_ch, &mut kk, &r, m, &s2, ring, mode, &mut rng).expect("client");
    });
    handle
}

/// The silent subsystem's headline: the OT-extension component of the
/// offline phase shrinks by more than an order of magnitude. For the
/// (2,2,2,2) scheme at m=48, n=96 the IKNP/KK13 path streams KK_COLUMNS
/// for every fragment OT, while the silent path ships only the one-time
/// base-OT columns plus per-refill SPCOT masks/sums and derandomization
/// bits.
#[test]
fn silent_extension_bytes_beat_kk13_by_an_order_of_magnitude() {
    use abnn2::net::wire::tags;
    let (m, n, o) = (48usize, 96usize, 1usize);

    let iknp = triplet_traffic(OfflineMode::Iknp, m, n, o);
    let silent = triplet_traffic(OfflineMode::Silent, m, n, o);

    let kk_ext = iknp.tag(tags::KK_COLUMNS).total_bytes();
    let silent_ext = [
        tags::SILENT_BASE_COLUMNS,
        tags::SILENT_DERAND,
        tags::SILENT_SPCOT_MASKS,
        tags::SILENT_SPCOT_SUMS,
    ]
    .iter()
    .map(|&t| silent.tag(t).total_bytes())
    .sum::<u64>();

    // Pinned, next to the KK13 pin above: 4 fragment groups × 4·m·n
    // chosen-input OTs, each costing 2^η/8 = 32 column bytes under IKNP.
    assert_eq!(kk_ext, 589_824);
    // Silent replaces the columns with: one-time base-OT bootstrap
    // (10,496 B), five pool refills of SPCOT masks (5 × 4,608 B) and
    // level sums (5 × 256 B), and derandomization bits (2 bits per
    // fragment OT plus 18 B per refill ⇒ 4,698 B).
    assert_eq!(silent.tag(tags::SILENT_BASE_COLUMNS).total_bytes(), 10_496);
    assert_eq!(silent.tag(tags::SILENT_SPCOT_MASKS).total_bytes(), 23_040);
    assert_eq!(silent.tag(tags::SILENT_SPCOT_SUMS).total_bytes(), 1_280);
    assert_eq!(silent.tag(tags::SILENT_DERAND).total_bytes(), 4_698);
    assert_eq!(silent_ext, 39_514);
    // A silent session never streams KK columns at all.
    assert_eq!(silent.tag(tags::KK_COLUMNS).total_bytes(), 0);

    // ≥10× on the OT-extension component (measured: 14.9×)…
    assert!(silent_ext * 10 <= kk_ext, "extension: silent {silent_ext} vs kk {kk_ext}");
    // …and a ≥2× win on the whole offline exchange even though the
    // γ(N−1) masked-triplet payload is unchanged (measured: 3.06×).
    let iknp_total = iknp.total().total_bytes();
    let silent_total = silent.total().total_bytes();
    assert!(silent_total * 2 <= iknp_total, "total: silent {silent_total} vs iknp {iknp_total}");
}
