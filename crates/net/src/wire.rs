//! Typed, versioned wire layer: one frame codec for every protocol message.
//!
//! Every message a protocol layer puts on a [`Transport`] is a **frame**: a
//! one-byte tag identifying the frame type, followed by that type's payload.
//! The [`Frame`] trait is the codec contract — a compile-time [`TAG`], a
//! human-readable [`NAME`], an allocation-free [`encode_into`], and a
//! [`decode`] that validates the payload and can only fail with a typed
//! [`WireError`], never panic. [`Transport::send_frame`] and
//! [`Transport::recv_frame`] are the only sanctioned way to move protocol
//! payloads (but for the garbled tables, which are sent as the buffer they
//! were garbled into); they prepend/verify the tag and reuse the
//! connection's scratch buffer so hot loops do not allocate per message.
//!
//! A mis-paired send/recv (one side sends garbled tables where the other
//! expects input labels) is caught at the tag byte and surfaces as a
//! [`WireError`] naming both the expected frame and the tag that actually
//! arrived, which flows through the OT and GC layers as a `TransportError`
//! and into `ProtocolError` as a `Malformed` variant carrying the expected
//! frame's name. Truncated or corrupted payloads fail the same way through
//! [`Frame::decode`].
//!
//! The tag space is a protocol-versioned registry ([`tags`]): adding,
//! removing, or re-numbering a tag changes what crosses the wire and
//! requires a `PROTOCOL_VERSION` bump in the handshake (see DESIGN.md §3f
//! for the full frame table and the version-bump policy).
//!
//! This crate holds the codec, the registry and the two frame macros
//! ([`byte_frame!`](crate::byte_frame), [`block_frame!`](crate::block_frame))
//! but defines no frame: each frame type lives with the protocol that
//! sends it (`abnn2_ot::frames`, `abnn2_gc::frames`, `abnn2_core::frames`).
//!
//! [`TAG`]: Frame::TAG
//! [`NAME`]: Frame::NAME
//! [`encode_into`]: Frame::encode_into
//! [`decode`]: Frame::decode
//! [`Transport`]: crate::Transport
//! [`Transport::send_frame`]: crate::Transport::send_frame
//! [`Transport::recv_frame`]: crate::Transport::recv_frame

/// What actually arrived when a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireGot {
    /// A frame with the wrong tag byte.
    Tag(u8),
    /// A payload of the wrong length (in bytes, tag excluded).
    Len(usize),
    /// An empty message: not even a tag byte.
    Empty,
    /// A structurally sized payload whose contents are invalid.
    Value,
}

/// Typed decode failure: the single error every frame codec funnels into.
///
/// `context` is a static string naming the expected frame and the violated
/// check (e.g. `"hello frame length"`); it is what flows into
/// [`TransportError::Malformed`](crate::TransportError::Malformed) and from
/// there through every protocol error enum, so a failure deep inside a
/// session names the frame that was expected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError {
    /// Name of the frame type the decoder expected ([`Frame::NAME`]).
    pub expected: &'static str,
    /// What arrived instead.
    pub got: WireGot,
    /// Static check description, used as the `Malformed` payload.
    pub context: &'static str,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.got {
            WireGot::Tag(t) => write!(
                f,
                "expected {} frame (tag 0x{:02x}), got tag 0x{t:02x} ({})",
                self.expected,
                tags::ALL.iter().find(|(_, n)| *n == self.expected).map_or(0, |&(t, _)| t),
                tags::name(t),
            ),
            WireGot::Len(n) => {
                write!(f, "{} ({} frame payload of {n} bytes)", self.context, self.expected)
            }
            WireGot::Empty => {
                write!(f, "empty message where a {} frame was expected", self.expected)
            }
            WireGot::Value => write!(f, "{} ({} frame)", self.context, self.expected),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for crate::TransportError {
    fn from(e: WireError) -> Self {
        crate::TransportError::Malformed(e.context)
    }
}

/// One typed protocol message: a tagged, versioned, validated codec.
///
/// Implementations must uphold two contracts checked by the repo's property
/// suite (`tests/wire_roundtrip.rs`):
///
/// 1. **Round trip**: `decode(encode(x)) == x` for every value.
/// 2. **Totality**: `decode` of *any* byte string returns `Ok` or a
///    [`WireError`] — it never panics, whatever truncation or corruption
///    the bytes suffered.
pub trait Frame: Sized {
    /// Registry tag prepended to every encoded frame (see [`tags`]).
    const TAG: u8;
    /// Human-readable frame name, carried inside [`WireError`].
    const NAME: &'static str;
    /// `Malformed` context for a tag mismatch on this frame type.
    const TAG_ERR: &'static str;

    /// Appends the payload (tag excluded) to `buf` without reallocation
    /// beyond what the payload itself requires.
    fn encode_into(&self, buf: &mut Vec<u8>);

    /// Parses and validates a payload (tag already stripped).
    ///
    /// # Errors
    ///
    /// [`WireError`] if the payload's length or contents are invalid.
    fn decode(payload: &[u8]) -> Result<Self, WireError>;

    /// Parses one whole message: the tag byte, then [`decode`](Self::decode)
    /// of what follows it.
    ///
    /// # Errors
    ///
    /// [`WireError`] if the message is empty, tagged as a different frame,
    /// or fails the frame's payload validation.
    fn decode_tagged(msg: &[u8]) -> Result<Self, WireError> {
        Self::decode(untag::<Self>(msg)?)
    }
}

/// What follows the tag byte of a message for frame `F`, once the tag is
/// checked.
fn untag<F: Frame>(msg: &[u8]) -> Result<&[u8], WireError> {
    let (expected, context) = (F::NAME, F::TAG_ERR);
    match msg.split_first() {
        None => Err(WireError { expected, got: WireGot::Empty, context }),
        Some((&tag, _)) if tag != F::TAG => {
            Err(WireError { expected, got: WireGot::Tag(tag), context })
        }
        Some((_, payload)) => Ok(payload),
    }
}

/// The frame tag registry: every tag that may appear on the wire, in one
/// place, so the space is auditable and collisions are impossible.
///
/// Re-numbering, adding, or removing a tag changes the transcript and MUST
/// be accompanied by a `PROTOCOL_VERSION` bump (DESIGN.md §3f).
pub mod tags {
    /// Reserved: a generic `u64` scalar frame that no protocol sent. The
    /// tag stays registered so no later frame reuses it.
    pub const U64: u8 = 0x01;
    /// Reserved: a generic block-batch frame that no protocol sent. The
    /// tag stays registered so no later frame reuses it.
    pub const BLOCKS: u8 = 0x02;
    /// Base-OT sender's 64-byte Edwards setup point.
    pub const BASE_POINT: u8 = 0x10;
    /// Base-OT chooser's batch of 64-byte Edwards points.
    pub const BASE_POINT_BATCH: u8 = 0x11;
    /// Base-OT sender's batch of 32-byte ciphertext pairs.
    pub const BASE_CT_BATCH: u8 = 0x12;
    /// IKNP receiver's `u` column matrix (κ columns).
    pub const IKNP_COLUMNS: u8 = 0x13;
    /// IKNP sender's masked block pairs (2 blocks per OT).
    pub const IKNP_CTS: u8 = 0x14;
    /// Correlated-OT correction batch (ring elements).
    pub const OT_CORRECTIONS: u8 = 0x15;
    /// Vector-correlated-OT correction payload.
    pub const OT_VEC_PAYLOAD: u8 = 0x16;
    /// KK13 receiver's code-word column matrix (256 columns).
    pub const KK_COLUMNS: u8 = 0x17;
    /// Garbler's own input labels.
    pub const GC_LABELS: u8 = 0x20;
    /// Garbled AND-gate tables (2 blocks per gate).
    pub const GC_TABLES: u8 = 0x21;
    /// Packed output-wire decode bits.
    pub const GC_DECODE_MAP: u8 = 0x22;
    /// 72-byte handshake hello / reply / busy-reject frame.
    pub const HELLO: u8 = 0x30;
    /// KK13 masked triplet messages (the paper's γ(N−1) count).
    pub const TRIPLET_MASKED: u8 = 0x31;
    /// Blinded input shares entering the online phase.
    pub const BLINDED_INPUT: u8 = 0x32;
    /// Server's output logit shares.
    pub const OUTPUT_SHARES: u8 = 0x33;
    /// Packed ReLU sign bits (optimized comparison).
    pub const SIGN_BITS: u8 = 0x34;
    /// Refreshed shares for negative neurons (optimized ReLU).
    pub const NEG_SHARES: u8 = 0x35;
    /// Masked argmax class index (single byte).
    pub const MASKED_CLASS: u8 = 0x36;
    /// Reserved: the scalar Beaver openings frame, removed with its only
    /// sender. The tag stays registered so no later frame reuses it.
    pub const BEAVER_OPENINGS: u8 = 0x37;
    /// Precomputed triplet bundle (warm-pool serving).
    pub const BUNDLE: u8 = 0x38;
    /// Matrix-Beaver openings `D‖E` for one secret×secret matmul.
    pub const MATMUL_OPENINGS: u8 = 0x39;
    /// Silent-OT bootstrap column matrix (raw IKNP COT extension).
    pub const SILENT_BASE_COLUMNS: u8 = 0x40;
    /// Silent-OT derandomization bit vector (SPCOT paths and fragment
    /// choices).
    pub const SILENT_DERAND: u8 = 0x41;
    /// SPCOT per-level masked GGM sums (two blocks per tree level).
    pub const SILENT_SPCOT_MASKS: u8 = 0x42;
    /// SPCOT per-tree punctured correction blocks.
    pub const SILENT_SPCOT_SUMS: u8 = 0x43;

    /// Every registered tag with its frame name, in tag order. The
    /// wire-format table in DESIGN.md §3f mirrors this list.
    pub const ALL: &[(u8, &str)] = &[
        (U64, "u64"),
        (BLOCKS, "block batch"),
        (BASE_POINT, "base-OT setup point"),
        (BASE_POINT_BATCH, "base-OT point batch"),
        (BASE_CT_BATCH, "base-OT ciphertext batch"),
        (IKNP_COLUMNS, "IKNP column matrix"),
        (IKNP_CTS, "IKNP ciphertext batch"),
        (OT_CORRECTIONS, "C-OT correction batch"),
        (OT_VEC_PAYLOAD, "vector C-OT payload"),
        (KK_COLUMNS, "KK13 column matrix"),
        (GC_LABELS, "garbler input labels"),
        (GC_TABLES, "garbled AND tables"),
        (GC_DECODE_MAP, "output decode map"),
        (HELLO, "hello"),
        (TRIPLET_MASKED, "masked triplet batch"),
        (BLINDED_INPUT, "blinded input shares"),
        (OUTPUT_SHARES, "output shares"),
        (SIGN_BITS, "ReLU sign bits"),
        (NEG_SHARES, "negative-neuron shares"),
        (MASKED_CLASS, "masked class index"),
        (BEAVER_OPENINGS, "beaver openings"),
        (BUNDLE, "triplet bundle"),
        (MATMUL_OPENINGS, "matmul openings"),
        (SILENT_BASE_COLUMNS, "silent bootstrap column matrix"),
        (SILENT_DERAND, "silent derandomization bits"),
        (SILENT_SPCOT_MASKS, "SPCOT level masks"),
        (SILENT_SPCOT_SUMS, "SPCOT punctured sums"),
    ];

    /// Frame name for a tag, `"unregistered"` if the tag is not in [`ALL`].
    #[must_use]
    pub fn name(tag: u8) -> &'static str {
        ALL.iter().find(|&&(t, _)| t == tag).map_or("unregistered", |&(_, n)| n)
    }

    /// Allocation ceiling applied to frames whose tag is not in [`ALL`]:
    /// decoders reject unregistered tags anyway, so the pump only needs a
    /// bound tight enough to stop a hostile length prefix from reserving
    /// gigabytes before the tag check fires.
    pub const UNREGISTERED_MAX_LEN: usize = 1 << 20;

    /// Per-tag ceiling on the payload bytes that may follow the tag byte.
    ///
    /// These are denial-of-service allocation bounds, not protocol shapes:
    /// each ceiling is sized well above any legitimate payload for that tag
    /// (matrix-shaped frames scale with model size and get generous room)
    /// while staying far below the blanket
    /// [`MAX_FRAME_LEN`](crate::tcp::MAX_FRAME_LEN) so a forged length prefix can
    /// no longer reserve a gigabyte. Exact-size frames (hello, scalars,
    /// single bytes) are pinned to their wire size. Returns `None` for tags
    /// outside [`ALL`]; receivers bound those with
    /// [`UNREGISTERED_MAX_LEN`].
    #[must_use]
    pub const fn max_len(tag: u8) -> Option<usize> {
        match tag {
            U64 => Some(8),
            BASE_POINT => Some(64),
            HELLO => Some(72),
            MASKED_CLASS => Some(1),
            GC_DECODE_MAP => Some(1 << 24),
            BASE_POINT_BATCH | BASE_CT_BATCH => Some(1 << 20),
            SILENT_BASE_COLUMNS | SILENT_DERAND | SILENT_SPCOT_MASKS | SILENT_SPCOT_SUMS => {
                Some(1 << 20)
            }
            OUTPUT_SHARES | SIGN_BITS => Some(1 << 24),
            BLINDED_INPUT | NEG_SHARES | BEAVER_OPENINGS | MATMUL_OPENINGS => Some(1 << 26),
            BLOCKS | IKNP_COLUMNS | IKNP_CTS | OT_CORRECTIONS | OT_VEC_PAYLOAD | KK_COLUMNS
            | GC_LABELS | GC_TABLES | TRIPLET_MASKED | BUNDLE => Some(1 << 28),
            _ => None,
        }
    }
}

/// Defines a frame whose payload is a raw byte vector with a length
/// constraint: `exact = N` pins the payload to exactly `N` bytes, `unit =
/// N` requires a (possibly empty) multiple of `N` bytes. Generates the
/// struct, its [`Frame`] impl, and the static error contexts.
///
/// Call-site length checks that depend on runtime parameters (matrix
/// dimensions, ring width) stay with the protocol code operating on the
/// decoded payload; the frame enforces only its shape invariant.
#[macro_export]
macro_rules! byte_frame {
    ($(#[$doc:meta])* $vis:vis struct $name:ident, tag = $tag:expr, name = $fname:literal, exact = $len:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        $vis struct $name(pub Vec<u8>);

        impl $crate::wire::Frame for $name {
            const TAG: u8 = $tag;
            const NAME: &'static str = $fname;
            const TAG_ERR: &'static str = concat!($fname, " frame tag");

            fn encode_into(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.0);
            }

            fn decode(payload: &[u8]) -> Result<Self, $crate::wire::WireError> {
                if payload.len() != $len {
                    return Err($crate::wire::WireError {
                        expected: Self::NAME,
                        got: $crate::wire::WireGot::Len(payload.len()),
                        context: concat!($fname, " frame length"),
                    });
                }
                Ok($name(payload.to_vec()))
            }
        }
    };
    ($(#[$doc:meta])* $vis:vis struct $name:ident, tag = $tag:expr, name = $fname:literal, unit = $unit:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        $vis struct $name(pub Vec<u8>);

        impl $crate::wire::Frame for $name {
            const TAG: u8 = $tag;
            const NAME: &'static str = $fname;
            const TAG_ERR: &'static str = concat!($fname, " frame tag");

            fn encode_into(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.0);
            }

            fn decode(payload: &[u8]) -> Result<Self, $crate::wire::WireError> {
                if !payload.len().is_multiple_of($unit) {
                    return Err($crate::wire::WireError {
                        expected: Self::NAME,
                        got: $crate::wire::WireGot::Len(payload.len()),
                        context: concat!($fname, " frame length"),
                    });
                }
                Ok($name(payload.to_vec()))
            }
        }
    };
}

/// Defines a frame whose payload is a vector of 128-bit [`WireBlock`]s, with a
/// granularity of `unit` blocks per logical element (e.g. 2 blocks per
/// garbled AND gate).
#[macro_export]
macro_rules! block_frame {
    ($(#[$doc:meta])* $vis:vis struct $name:ident, tag = $tag:expr, name = $fname:literal, unit = $unit:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        $vis struct $name(pub Vec<$crate::wire::WireBlock>);

        impl $crate::wire::Frame for $name {
            const TAG: u8 = $tag;
            const NAME: &'static str = $fname;
            const TAG_ERR: &'static str = concat!($fname, " frame tag");

            fn encode_into(&self, buf: &mut Vec<u8>) {
                buf.reserve(self.0.len() * 16);
                for b in &self.0 {
                    buf.extend_from_slice(&b.to_bytes());
                }
            }

            fn decode(payload: &[u8]) -> Result<Self, $crate::wire::WireError> {
                if !payload.len().is_multiple_of(16 * $unit) {
                    return Err($crate::wire::WireError {
                        expected: Self::NAME,
                        got: $crate::wire::WireGot::Len(payload.len()),
                        context: concat!($fname, " frame length"),
                    });
                }
                Ok($name(
                    payload
                        .chunks_exact(16)
                        .map(|c| $crate::wire::WireBlock::from_bytes(c.try_into().expect("16 bytes")))
                        .collect(),
                ))
            }
        }
    };
}

/// Re-export so the frame macros can name `Block` from any crate.
pub use abnn2_crypto::Block as WireBlock;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    // Two frames as their protocols define them (`abnn2_core::frames` and
    // `abnn2_gc::frames`), one of each shape, for this crate's own tests:
    // an exact-length byte frame and a block frame.
    crate::byte_frame! {
        pub(crate) struct MaskedClass, tag = tags::MASKED_CLASS, name = "masked class index", exact = 1
    }
    crate::block_frame! {
        pub(crate) struct GcLabels, tag = tags::GC_LABELS, name = "garbler input labels", unit = 1
    }

    #[test]
    fn tag_registry_has_no_collisions() {
        let mut seen = std::collections::HashSet::new();
        for &(tag, name) in tags::ALL {
            assert!(seen.insert(tag), "tag 0x{tag:02x} ({name}) registered twice");
        }
        assert_eq!(tags::name(tags::HELLO), "hello");
        assert_eq!(tags::name(0xFF), "unregistered");
    }

    #[test]
    fn blocks_frame_rejects_ragged_payload() {
        let err = GcLabels::decode(&[0u8; 17]).unwrap_err();
        assert_eq!(err.got, WireGot::Len(17));
        assert_eq!(err.context, "garbler input labels frame length");
    }

    #[test]
    fn wire_error_display_names_both_frames() {
        let e = WireError {
            expected: "hello",
            got: WireGot::Tag(tags::GC_TABLES),
            context: "hello frame tag",
        };
        let msg = e.to_string();
        assert!(msg.contains("hello"), "{msg}");
        assert!(msg.contains("garbled AND tables"), "{msg}");
    }
}
