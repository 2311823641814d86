//! Property suite for the typed wire layer: every [`Frame`] implementation
//! in the workspace must uphold the codec contract documented on the trait.
//!
//! 1. **Round trip** — `decode(encode(x)) == x` for every payload size the
//!    frame's shape invariant admits.
//! 2. **Totality** — `decode` of *any* byte string (truncated at every
//!    prefix, or with any single byte corrupted) returns `Ok` or a typed
//!    [`WireError`] naming the frame — it never panics.
//! 3. **Tag discipline** — a frame received where a different frame type is
//!    expected surfaces as `Malformed("<name> frame tag")` through
//!    [`Transport::recv_frame`], and the connection stays usable.
//!
//! The generators below are deterministic (seeded xorshift) so a failure
//! reproduces without a seed dump.

use abnn2::crypto::Block;
use abnn2::net::wire::{tags, Blocks, Frame, U64Frame, WireGot};
use abnn2::net::{Endpoint, NetworkModel, TcpTransport, Transport, TransportError};
use std::borrow::Cow;
use std::io::Write;
use std::time::Duration;

/// Small deterministic byte generator (xorshift64*), enough entropy to
/// exercise the codecs without pulling a SeedableRng into every helper.
struct Gen(u64);

impl Gen {
    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_u64() as u8).collect()
    }

    fn blocks(&mut self, n: usize) -> Vec<Block> {
        (0..n)
            .map(|_| Block::from((u128::from(self.next_u64()) << 64) | u128::from(self.next_u64())))
            .collect()
    }
}

/// The totality property: decoding any prefix of the encoding, or the
/// encoding with any single byte flipped, must return without panicking,
/// and every `Err` must carry the frame's own name.
fn check_totality<F: Frame>(encoded: &[u8]) {
    for keep in 0..encoded.len() {
        if let Err(e) = F::decode(&encoded[..keep]) {
            assert_eq!(e.expected, F::NAME, "truncated {} decode names wrong frame", F::NAME);
            assert!(matches!(e.got, WireGot::Len(n) if n == keep), "{}: {:?}", F::NAME, e.got);
        }
    }
    let mut corrupted = encoded.to_vec();
    for i in 0..corrupted.len() {
        corrupted[i] ^= 0xA5;
        if let Err(e) = F::decode(&corrupted) {
            assert_eq!(e.expected, F::NAME, "corrupted {} decode names wrong frame", F::NAME);
        }
        corrupted[i] ^= 0xA5;
    }
}

/// Round trip + totality for one frame value.
fn check_frame<F: Frame + PartialEq + std::fmt::Debug>(frame: &F) {
    let mut buf = Vec::new();
    frame.encode_into(&mut buf);
    let back = F::decode(&buf)
        .unwrap_or_else(|e| panic!("{} failed to decode its own encoding: {e}", F::NAME));
    assert_eq!(&back, frame, "{} round trip diverged", F::NAME);
    check_totality::<F>(&buf);
}

/// Byte-payload frames with a `unit = N` invariant: round trip at several
/// multiples of the unit, including the empty payload.
fn check_byte_frame<F: Frame + PartialEq + std::fmt::Debug>(
    make: impl Fn(Vec<u8>) -> F,
    unit: usize,
    seed: u64,
) {
    let mut gen = Gen(seed | 1);
    for k in [0usize, 1, 3, 7] {
        check_frame(&make(gen.bytes(k * unit)));
    }
    // A ragged payload (unit > 1 only) must be rejected as a length error.
    if unit > 1 {
        let err = F::decode(&gen.bytes(unit + 1)).expect_err("ragged payload must not decode");
        assert_eq!(err.got, WireGot::Len(unit + 1));
        assert!(err.context.ends_with("frame length"), "{}", err.context);
    }
}

/// Block-payload frames with a `unit` of blocks per element.
fn check_block_frame<F: Frame + PartialEq + std::fmt::Debug>(
    make: impl Fn(Vec<Block>) -> F,
    unit: usize,
    seed: u64,
) {
    let mut gen = Gen(seed | 1);
    for k in [0usize, 1, 2, 5] {
        check_frame(&make(gen.blocks(k * unit)));
    }
    let err = F::decode(&gen.bytes(16 * unit + 1)).expect_err("ragged payload must not decode");
    assert_eq!(err.got, WireGot::Len(16 * unit + 1));
}

/// Fixed-size frames (`exact = N`): round trip at N, reject everything else.
fn check_exact_frame<F: Frame + PartialEq + std::fmt::Debug>(
    make: impl Fn(Vec<u8>) -> F,
    len: usize,
    seed: u64,
) {
    let mut gen = Gen(seed | 1);
    check_frame(&make(gen.bytes(len)));
    for bad in [0, 1, len - 1, len + 1] {
        if bad == len {
            continue;
        }
        let err = F::decode(&gen.bytes(bad)).expect_err("wrong length must not decode");
        assert_eq!(err.got, WireGot::Len(bad));
        assert_eq!(err.expected, F::NAME);
    }
}

#[test]
fn net_frames_round_trip_and_are_total() {
    let mut gen = Gen(0xABCD);
    for _ in 0..8 {
        check_frame(&U64Frame(gen.next_u64()));
    }
    for k in [0usize, 1, 4] {
        check_frame(&Blocks(Cow::Owned(gen.blocks(k))));
    }
    let err = U64Frame::decode(&[0u8; 7]).unwrap_err();
    assert_eq!(err.got, WireGot::Len(7));
    let err = Blocks::decode(&[0u8; 15]).unwrap_err();
    assert_eq!(err.context, "block batch frame length");
}

#[test]
fn ot_frames_round_trip_and_are_total() {
    use abnn2::ot::frames::*;
    check_exact_frame(BasePoint, 64, 0x10);
    check_byte_frame(BasePointBatch, 64, 0x11);
    check_byte_frame(BaseCtBatch, 32, 0x12);
    check_byte_frame(IknpColumns, abnn2::ot::KAPPA, 0x13);
    check_block_frame(IknpCts, 2, 0x14);
    check_byte_frame(OtCorrections, 1, 0x15);
    check_byte_frame(OtVecPayload, 1, 0x16);
    check_byte_frame(KkColumns, 256, 0x17);
    check_byte_frame(SilentBaseColumns, abnn2::ot::KAPPA, 0x18);
    check_byte_frame(SilentDerand, 1, 0x19);
    check_byte_frame(SilentSpcotMasks, 32, 0x1A);
    check_byte_frame(SilentSpcotSums, 16, 0x1B);
}

#[test]
fn gc_frames_round_trip_and_are_total() {
    use abnn2::gc::frames::*;
    check_block_frame(GcLabels, 1, 0x20);
    check_block_frame(GcTables, 2, 0x21);
    check_byte_frame(GcDecodeMap, 1, 0x22);
}

#[test]
fn core_frames_round_trip_and_are_total() {
    use abnn2::core::frames::*;
    check_exact_frame(Hello, abnn2::core::handshake::HELLO_LEN, 0x30);
    // The layout older peers send decodes too, so they can be told why
    // they are refused.
    check_frame(&Hello(vec![0x5A; abnn2::core::handshake::LEGACY_HELLO_LEN]));
    check_byte_frame(TripletMasked, 1, 0x31);
    check_byte_frame(BlindedInput, 1, 0x32);
    check_byte_frame(OutputShares, 1, 0x33);
    check_byte_frame(SignBits, 1, 0x34);
    check_byte_frame(NegShares, 1, 0x35);
    check_exact_frame(MaskedClass, 1, 0x36);
    check_byte_frame(Bundle, 1, 0x38);
    check_byte_frame(MatmulOpenings, 1, 0x39);
}

/// Frame TAGs must agree with the central registry — a frame whose TAG
/// drifted from `tags::ALL` would make `WireError::Display` and the
/// DESIGN.md table lie about what crossed the wire.
#[test]
fn frame_tags_match_the_registry() {
    fn check<F: Frame>() {
        assert!(
            tags::ALL.iter().any(|&(t, _)| t == F::TAG),
            "{} (tag 0x{:02x}) is not in the registry",
            F::NAME,
            F::TAG
        );
        assert!(F::TAG_ERR.ends_with("frame tag"), "{}", F::TAG_ERR);
    }
    check::<U64Frame>();
    check::<Blocks>();
    {
        use abnn2::ot::frames::*;
        check::<BasePoint>();
        check::<BasePointBatch>();
        check::<BaseCtBatch>();
        check::<IknpColumns>();
        check::<IknpCts>();
        check::<OtCorrections>();
        check::<OtVecPayload>();
        check::<KkColumns>();
        check::<SilentBaseColumns>();
        check::<SilentDerand>();
        check::<SilentSpcotMasks>();
        check::<SilentSpcotSums>();
    }
    {
        use abnn2::gc::frames::*;
        check::<GcLabels>();
        check::<GcTables>();
        check::<GcDecodeMap>();
    }
    {
        use abnn2::core::frames::*;
        check::<Hello>();
        check::<TripletMasked>();
        check::<BlindedInput>();
        check::<OutputShares>();
        check::<SignBits>();
        check::<NegShares>();
        check::<MaskedClass>();
        check::<Bundle>();
        check::<MatmulOpenings>();
    }
}

/// Receiving frame type A where B is expected fails with B's tag error and
/// leaves the connection usable — the cross-type safety net the tag byte
/// buys.
#[test]
fn mismatched_frame_types_surface_as_tag_errors() {
    use abnn2::core::frames::Hello;
    use abnn2::gc::frames::GcTables;
    let (mut a, mut b) = Endpoint::pair(NetworkModel::instant());

    a.send_frame(&U64Frame(7)).unwrap();
    a.flush().unwrap();
    assert_eq!(
        b.recv_frame::<Hello>(),
        Err(TransportError::Malformed("hello frame tag")),
        "u64 where hello expected"
    );

    a.send_frame(&GcTables(vec![Block::from(1u128), Block::from(2u128)])).unwrap();
    a.flush().unwrap();
    assert_eq!(
        b.recv_frame::<U64Frame>(),
        Err(TransportError::Malformed("u64 frame tag")),
        "garbled tables where u64 expected"
    );

    // The violation is not a disconnection: traffic continues.
    a.send_frame(&U64Frame(99)).unwrap();
    a.flush().unwrap();
    assert_eq!(b.recv_frame::<U64Frame>(), Ok(U64Frame(99)));
}

/// The hello is the one frame a server parses before it knows anything
/// about its peer, and since v6 its last 16 bytes and three of its flag
/// bits steer a claim on the checkpoint store. Whatever a peer puts there
/// — any length, any flag byte, a zero or unknown lineage token, halves
/// the server does not hold, the bits only a server sets — the server
/// answers with a typed handshake error or admits a session that
/// continues exactly the halves both sides hold and sets up the rest.
#[test]
fn every_hello_length_and_lineage_flag_combination_is_an_error_or_a_session() {
    use abnn2::core::handshake::{
        handshake_client_ext, handshake_server_ext, Halves, HelloRequest, SessionParams, HELLO_LEN,
        LEGACY_HELLO_LEN,
    };
    use abnn2::core::{ProtocolError, PublicModel};
    use abnn2::math::{FragmentScheme, Ring};
    use abnn2::nn::graph::LayerGraph;
    use abnn2::nn::quant::QuantConfig;

    let config = QuantConfig {
        ring: Ring::new(32),
        frac_bits: 8,
        weight_frac_bits: 2,
        scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
    };
    let model = PublicModel::from(LayerGraph::mlp(&[8, 4, 2], config));
    let ours = SessionParams::for_public(&model, Default::default(), 1);

    // A well-formed v6 hello as the client puts it on the wire.
    let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
    let good = std::thread::scope(|scope| {
        scope.spawn(|| {
            let _ = handshake_client_ext(&mut c, ours, &[7; 16], HelloRequest::default());
        });
        let frame = Transport::recv(&mut s).expect("client hello");
        drop(s);
        frame
    });
    assert_eq!((good[0], good.len()), (tags::HELLO, 1 + HELLO_LEN));
    const FLAGS_AT: usize = 1 + 7;
    const LINEAGE_AT: usize = 1 + 56;

    // One hello into a server that parks lineages and holds `held` under
    // token [6; 16]; the result, and the tokens it was asked to claim.
    let serve = |frame: &[u8], held: Halves| {
        let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
        Transport::send(&mut c, frame).expect("send");
        let mut claims = Vec::new();
        let result = handshake_server_ext(
            &mut s,
            |_| ours,
            |_| false,
            |_, _| false,
            true,
            |token, _| {
                claims.push(*token);
                if *token == [6; 16] {
                    held
                } else {
                    Halves::default()
                }
            },
        );
        (result, claims)
    };

    // Every length: only the two layouts decode, and a legacy-length
    // prefix of a v6 hello is a v6 peer speaking the old layout — a
    // session with no lineage, not a crash.
    let mut gen = Gen(0x6E110);
    for len in 0..=2 * HELLO_LEN {
        let mut frame = good[..good.len().min(1 + len)].to_vec();
        frame.extend(gen.bytes((1 + len).saturating_sub(frame.len())));
        let (result, claims) = serve(&frame, Halves { kk: true, yao: true });
        match result {
            Ok((_, _, reply)) => {
                assert!(len == HELLO_LEN || len == LEGACY_HELLO_LEN, "length {len} decoded");
                assert!(!reply.continued.any() && claims.is_empty(), "length {len}");
            }
            Err(e) => {
                assert!(len != HELLO_LEN && len != LEGACY_HELLO_LEN, "length {len}: {e}");
                assert_eq!(e, ProtocolError::Handshake("hello frame length"), "length {len}");
            }
        }
    }

    // Every flag byte, under the zero token, an unknown one and the held
    // one, against a server holding nothing, one half or both.
    let some = [
        Halves::default(),
        Halves { kk: false, yao: true },
        Halves { kk: true, yao: false },
        Halves { kk: true, yao: true },
    ];
    for flags in 0..=u8::MAX {
        for token in [[0u8; 16], [5; 16], [6; 16]] {
            for held in some {
                let mut frame = good.clone();
                frame[FLAGS_AT] = flags;
                frame[LINEAGE_AT..].copy_from_slice(&token);
                let (result, claims) = serve(&frame, held);
                let (_, _, reply) = result.expect("matching parameters are always admitted");
                let offered = Halves { kk: flags & 16 != 0, yao: flags & 32 != 0 };
                let real_offer = offered.any() && token != [0; 16];
                let want = if token == [6; 16] {
                    Halves { kk: offered.kk && held.kk, yao: offered.yao && held.yao }
                } else {
                    Halves::default()
                };
                let what = format!("flags {flags:#010b} token {} held {held:?}", token[0]);
                assert_eq!(reply.continued, want, "{what}");
                assert_eq!(claims, if real_offer { vec![token] } else { vec![] }, "{what}");
                // Nothing else in the reply depends on the lineage bits,
                // and the busy and park bits mean nothing from a client.
                assert_eq!(
                    (reply.resume, reply.bundle, reply.silent, reply.park),
                    (false, false, flags & 8 != 0, true),
                    "{what}"
                );
            }
        }
    }
}

/// Every tag in the central registry must declare a per-tag payload
/// ceiling: the decode path sizes its allocation from the length prefix,
/// so a registered frame without a ceiling would let a malicious peer
/// demand up to the global frame cap per message. Unregistered tags fall
/// back to a deliberately tight default.
#[test]
fn every_registered_tag_declares_a_decode_ceiling() {
    for &(tag, name) in tags::ALL {
        let ceiling = tags::max_len(tag);
        assert!(ceiling.is_some(), "{name} (tag 0x{tag:02x}) declares no payload ceiling");
        assert!(ceiling.unwrap() >= 1, "{name}: ceiling must admit at least a bare tag frame");
    }
    // Unknown tags must get a tight ceiling, not the global frame cap.
    const { assert!(tags::UNREGISTERED_MAX_LEN <= 1 << 20) };
    // Spot-pin the fixed-size frames so the table cannot silently loosen.
    assert_eq!(tags::max_len(tags::U64), Some(8));
    assert_eq!(tags::max_len(tags::HELLO), Some(abnn2::core::handshake::HELLO_LEN));
    assert_eq!(tags::max_len(tags::MASKED_CLASS), Some(1));
    // The matmul-openings ceiling must admit a D‖E opening pair for the
    // largest supported secret×secret matmul, same class as Beaver openings.
    assert_eq!(tags::max_len(tags::MATMUL_OPENINGS), Some(1 << 26));
}

/// A length prefix claiming a payload far above its tag's ceiling must be
/// rejected as a typed [`TransportError::Malformed`] at the framing layer
/// — *before* the receiver allocates the claimed buffer. The claimed
/// length here sits inside the global frame cap, so only the per-tag
/// ceiling can be the thing that catches it.
#[test]
fn oversized_frame_is_rejected_by_tag_ceiling_before_allocation() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let mut sender = std::net::TcpStream::connect(addr).expect("connect");
    let (stream, _) = listener.accept().expect("accept");
    let mut ch = TcpTransport::from_stream(stream).expect("transport");
    ch.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");

    // A u64 frame (ceiling: 8 payload bytes) claiming just under 1 GiB.
    let len: u32 = (1 << 30) - 1;
    sender.write_all(&len.to_le_bytes()).expect("header");
    sender.write_all(&[tags::U64]).expect("tag");
    sender.flush().expect("flush");
    let err = Transport::recv(&mut ch).expect_err("oversized frame must not decode");
    assert_eq!(err, TransportError::Malformed("frame length exceeds tag ceiling"));
}

/// A flipped tag byte on an otherwise valid frame is caught before the
/// payload is interpreted, whatever the frame type.
#[test]
fn corrupted_tag_byte_is_caught_for_every_registered_tag() {
    let (mut a, mut b) = Endpoint::pair(NetworkModel::instant());
    for &(tag, _) in tags::ALL {
        // A well-formed u64 frame re-tagged as `tag ^ 0xA5` (never a valid
        // registry tag for u64) must fail u64 reception on the tag byte.
        let mut raw = vec![tag ^ 0xA5];
        raw.extend_from_slice(&7u64.to_le_bytes());
        Transport::send(&mut a, &raw).unwrap();
        a.flush().unwrap();
        let got = b.recv_u64();
        if tag ^ 0xA5 == tags::U64 {
            assert_eq!(got, Ok(7));
        } else {
            assert_eq!(got, Err(TransportError::Malformed("u64 frame tag")));
        }
    }
}
