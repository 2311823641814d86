//! Typed wire frames for the garbled-circuit transfer.
//!
//! The garbler ships three frames per circuit execution — its own input
//! labels, the AND-gate tables, and the output decode bits — and the
//! evaluator receives them through
//! [`Transport::recv_frame`](abnn2_net::Transport::recv_frame), except the
//! tables: those it evaluates from the message
//! [`Transport::recv`](abnn2_net::Transport::recv) returns, checked by
//! [`GcTables`]' rules. Frame-level checks cover block
//! granularity; circuit-dependent exact counts stay with
//! [`YaoEvaluator`](crate::yao::YaoEvaluator), which reports them as
//! [`TransportError::Malformed`].

use abnn2_net::wire::tags;
use abnn2_net::{block_frame, byte_frame, Frame, TransportError};

block_frame! {
    /// The garbler's selected input labels, one block per garbler wire.
    pub struct GcLabels, tag = tags::GC_LABELS, name = "garbler input labels", unit = 1
}

block_frame! {
    /// The garbled AND tables: two ciphertext blocks per AND gate.
    pub struct GcTables, tag = tags::GC_TABLES, name = "garbled table stream", unit = 2
}

byte_frame! {
    /// The output decode map: packed point-and-permute bits, one bit per
    /// circuit output.
    pub struct GcDecodeMap, tag = tags::GC_DECODE_MAP, name = "output decode map", unit = 1
}

/// The payload of a received [`GcTables`] message, checked by the rules
/// [`GcTables`]' decoding applies — its tag, whole AND gates of 32 bytes —
/// with the same `Malformed` texts, but left where it lies: the evaluator
/// reads the tables from the message instead of a decoded copy.
///
/// # Errors
///
/// [`TransportError::Malformed`] naming the tag or the length check.
pub(crate) fn table_payload(message: &[u8]) -> Result<&[u8], TransportError> {
    match message.split_first() {
        Some((&GcTables::TAG, payload)) if payload.len().is_multiple_of(32) => Ok(payload),
        Some((&GcTables::TAG, _)) => {
            Err(TransportError::Malformed("garbled table stream frame length"))
        }
        _ => Err(TransportError::Malformed(GcTables::TAG_ERR)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kind of message the decoder tells apart gets the answer
    /// decoding it as a [`GcTables`] frame gives.
    #[test]
    fn table_payload_follows_the_frame_rules() {
        let tagged = |tag: u8, len: usize| [tag].into_iter().chain((0..len).map(|i| i as u8));
        let messages: Vec<Vec<u8>> = [(tags::GC_TABLES, 0), (tags::GC_TABLES, 64)]
            .into_iter()
            .chain([16, 31, 33, 48].map(|len| (tags::GC_TABLES, len)))
            .chain([(tags::GC_LABELS, 32), (tags::U64, 8), (0xEE, 0)])
            .map(|(tag, len)| tagged(tag, len).collect())
            .chain([Vec::new()])
            .collect();
        for message in &messages {
            let decoded = GcTables::decode_tagged(message).map_err(TransportError::from);
            assert_eq!(
                table_payload(message).map(<[u8]>::len),
                decoded.map(|GcTables(blocks)| 16 * blocks.len()),
                "{message:?}"
            );
        }
        let message: Vec<u8> = tagged(tags::GC_TABLES, 64).collect();
        assert_eq!(table_payload(&message), Ok(&message[1..]), "the bytes after the tag");
    }
}
