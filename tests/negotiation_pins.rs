//! Negotiation stability: what two parties must agree on is a function of
//! the model's layer graph alone, so how the code *represents* a model may
//! change without any peer noticing. The digests and bundle keys below were
//! recorded from `SessionParams::for_public` at commit 0bca088 (the
//! per-architecture `Public*Info` surface) for one MLP, one CNN and one
//! encoder block; a deployed peer built at that commit negotiates with a
//! peer built from this tree only while they stay byte-for-byte equal.
//!
//! Re-recorded for protocol v6: the digests are unchanged, the version
//! field reads 6, and the hello grew a lineage token. A v5 peer can no
//! longer run a session, but it must still be *told* so the way it always
//! was, by a `Negotiation` error on both sides.

use abnn2::core::frames::Hello;
use abnn2::core::handshake::{handshake_server_ext, Halves};
use abnn2::core::{
    BundleKey, OfflineMode, ProtocolError, PublicModel, ReluVariant, SessionParams,
    BUNDLE_LAYOUT_VERSION, PROTOCOL_VERSION,
};
use abnn2::math::{FragmentScheme, Ring};
use abnn2::net::{Endpoint, NetworkModel, Transport};
use abnn2::nn::quant::{QuantConfig, QuantizedDense, QuantizedNetwork};
use abnn2::nn::transformer::QuantizedTransformer;
use abnn2::nn::{ConvShape, Network, QuantizedCnn, QuantizedConv};
use rand::SeedableRng;

fn mlp() -> PublicModel {
    let config = QuantConfig {
        ring: Ring::new(32),
        frac_bits: 8,
        weight_frac_bits: 2,
        scheme: FragmentScheme::signed_bit_fields(&[2, 2]),
    };
    PublicModel::from(&QuantizedNetwork::quantize(&Network::new(&[12, 8, 6, 4], 1), config))
}

fn cnn() -> PublicModel {
    let dense = |out_dim: usize, in_dim: usize| QuantizedDense {
        out_dim,
        in_dim,
        weights: vec![1; out_dim * in_dim],
        bias: vec![0; out_dim],
    };
    PublicModel::from(&QuantizedCnn {
        config: QuantConfig {
            ring: Ring::new(32),
            frac_bits: 6,
            weight_frac_bits: 0,
            scheme: FragmentScheme::ternary(),
        },
        conv: QuantizedConv {
            out_channels: 2,
            in_shape: ConvShape { channels: 1, height: 8, width: 8 },
            kh: 3,
            kw: 3,
            stride: 1,
            weights: vec![1; 18],
            bias: vec![0, 0],
        },
        pool_window: 2,
        dense: vec![dense(6, 18), dense(4, 6)],
    })
}

fn encoder() -> PublicModel {
    let config = QuantConfig {
        ring: Ring::new(16),
        frac_bits: 6,
        weight_frac_bits: 2,
        scheme: FragmentScheme::optimal(4),
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    PublicModel::from(&QuantizedTransformer::random(4, 4, 8, 3, config, &mut rng).expect("encoder"))
}

#[test]
fn wire_versions_are_unchanged() {
    assert_eq!(PROTOCOL_VERSION, 6);
    assert_eq!(BUNDLE_LAYOUT_VERSION, 3);
}

#[test]
fn digests_and_bundle_keys_match_the_parent_commit() {
    // (model, batch, ring bits, f, f_w, scheme digest, model digest)
    type Pin = (PublicModel, usize, u32, u32, u32, [u8; 8], [u8; 8]);
    let pins: [Pin; 3] = [
        (
            mlp(),
            2,
            32,
            8,
            2,
            [41, 196, 31, 2, 208, 224, 140, 102],
            [236, 219, 58, 77, 15, 224, 180, 141],
        ),
        (
            cnn(),
            1,
            32,
            6,
            0,
            [88, 23, 66, 235, 98, 139, 208, 197],
            [219, 141, 65, 104, 136, 30, 26, 116],
        ),
        (
            encoder(),
            1,
            16,
            6,
            2,
            [243, 252, 2, 177, 73, 3, 77, 107],
            [75, 241, 230, 134, 40, 202, 209, 250],
        ),
    ];
    for (model, batch, ring_bits, frac_bits, weight_frac_bits, scheme_digest, model_digest) in pins
    {
        let params = SessionParams::for_public(&model, ReluVariant::Oblivious, batch);
        let expected = SessionParams {
            version: 6,
            ring_bits,
            frac_bits,
            weight_frac_bits,
            scheme_digest,
            variant: 0,
            batch: batch as u32,
            model_digest,
        };
        assert_eq!(params, expected);

        let key =
            BundleKey { model_digest, scheme_digest, batch: batch as u32, mode: OfflineMode::Iknp };
        assert_eq!(BundleKey::from_params(&params), key);
        assert_eq!(BundleKey::for_graph(&model.graph(), batch), key);
    }
}

/// A hello in the 56-byte layout a v5 build sends and reads, field for
/// field.
fn v5_layout(p: &SessionParams, flags: u8, token: [u8; 16]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(56);
    frame.extend_from_slice(b"ABN2");
    frame.extend_from_slice(&p.version.to_le_bytes());
    frame.extend_from_slice(&[p.variant, flags]);
    for field in [p.ring_bits, p.frac_bits, p.weight_frac_bits, p.batch] {
        frame.extend_from_slice(&field.to_le_bytes());
    }
    frame.extend_from_slice(&p.scheme_digest);
    frame.extend_from_slice(&p.model_digest);
    frame.extend_from_slice(&token);
    frame
}

/// A v5 client dials a v6 server. The server reports the version mismatch
/// and answers in the v5 layout: 56 bytes that a v5 decoder accepts
/// (length, magic) and that differ from the client's own parameters in the
/// version field alone, which is exactly what makes that decoder raise its
/// own `Negotiation` error. (The other direction cannot be symmetric: a v5
/// *server* stops at the length of a v6 hello, before any version field.)
#[test]
fn a_v5_peer_still_gets_the_symmetric_negotiation_error() {
    let ours = SessionParams::for_public(&mlp(), ReluVariant::Oblivious, 2);
    let theirs = SessionParams { version: 5, ..ours };
    let (mut c, mut s) = Endpoint::pair(NetworkModel::instant());
    c.send_frame(&Hello(v5_layout(&theirs, 1, [9; 16]))).expect("send");
    let err = handshake_server_ext(
        &mut s,
        |batch| SessionParams::for_public(&mlp(), ReluVariant::Oblivious, batch),
        |_| panic!("a mismatched peer must not reach the store"),
        |_, _| panic!("a mismatched peer must not reach the pool"),
        true,
        |_, _| -> Halves { panic!("a mismatched peer must not reach the store") },
    )
    .expect_err("v5 and v6 do not negotiate");
    assert_eq!(err, ProtocolError::Negotiation { ours, theirs });

    let Hello(reply) = c.recv_frame().expect("the reply is sent before the error is raised");
    // What the v5 peer reads: its own layout, our parameters, its token
    // echoed, no request granted.
    assert_eq!(reply, v5_layout(&ours, 0, [9; 16]));
}
