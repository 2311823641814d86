//! Typed wire frames for the ABNN² protocol layer.
//!
//! Every message the handshake, offline phase, and online phase exchange is
//! one of the frames below, moved exclusively through
//! [`Transport::send_frame`]/[`Transport::recv_frame`]. Frame-level checks
//! cover each payload's *shape* (the hello is [`HELLO_LEN`] bytes,
//! the masked class index is one byte); batch- and ring-dependent exact
//! lengths stay with the protocol code, which reports them as
//! [`ProtocolError::Malformed`](crate::ProtocolError::Malformed).
//!
//! [`Transport::send_frame`]: abnn2_net::Transport::send_frame
//! [`Transport::recv_frame`]: abnn2_net::Transport::recv_frame
//! [`HELLO_LEN`]: crate::handshake::HELLO_LEN

use crate::handshake::{HELLO_LEN, LEGACY_HELLO_LEN};
use abnn2_net::byte_frame;
use abnn2_net::wire::{tags, Frame, WireError, WireGot};

/// A handshake hello: magic, version, negotiated parameters, the session's
/// token and the lineage token ([`crate::handshake`] documents the
/// layout). Exactly [`HELLO_LEN`] bytes, or [`LEGACY_HELLO_LEN`] from a
/// peer older than protocol v6, which is answered in kind.
///
/// [`LEGACY_HELLO_LEN`]: crate::handshake::LEGACY_HELLO_LEN
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello(pub Vec<u8>);

impl Frame for Hello {
    const TAG: u8 = tags::HELLO;
    const NAME: &'static str = "hello";
    const TAG_ERR: &'static str = "hello frame tag";

    fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0);
    }

    fn decode(payload: &[u8]) -> Result<Self, WireError> {
        if payload.len() != HELLO_LEN && payload.len() != LEGACY_HELLO_LEN {
            return Err(WireError {
                expected: Self::NAME,
                got: WireGot::Len(payload.len()),
                context: "hello frame length",
            });
        }
        Ok(Hello(payload.to_vec()))
    }
}

byte_frame! {
    /// The client's masked triplet messages for one fragment group:
    /// `per_ot` ring-element vectors per OT (the paper's γ(N−1) count in
    /// one-batch mode).
    pub struct TripletMasked, tag = tags::TRIPLET_MASKED, name = "triplet ciphertext batch", unit = 1
}

byte_frame! {
    /// The client's blinded input matrix `x − R`, ring-encoded.
    pub struct BlindedInput, tag = tags::BLINDED_INPUT, name = "blinded input", unit = 1
}

byte_frame! {
    /// The server's logit shares `y₀`, opened toward the client at the end
    /// of the online phase.
    pub struct OutputShares, tag = tags::OUTPUT_SHARES, name = "output share batch", unit = 1
}

byte_frame! {
    /// Packed per-neuron sign bits revealed by the optimized ReLU's
    /// comparison phase.
    pub struct SignBits, tag = tags::SIGN_BITS, name = "sign-bit batch", unit = 1
}

byte_frame! {
    /// The client's re-shares `−z₁` for the negative-neuron subset in the
    /// optimized ReLU.
    pub struct NegShares, tag = tags::NEG_SHARES, name = "negative-neuron share batch", unit = 1
}

byte_frame! {
    /// The masked argmax output: one byte, `class ⊕ mask`.
    pub struct MaskedClass, tag = tags::MASKED_CLASS, name = "masked class index", exact = 1
}

byte_frame! {
    /// A serialized offline bundle (dealer mode / warm-pool transfer).
    pub struct Bundle, tag = tags::BUNDLE, name = "offline bundle", unit = 1
}

byte_frame! {
    /// One party's matrix-Beaver openings `D‖E` (`D = A − X`, `E = B − Y`,
    /// row-major, ring-encoded) for one secret×secret matmul op.
    pub struct MatmulOpenings, tag = tags::MATMUL_OPENINGS, name = "matmul opening batch", unit = 1
}
