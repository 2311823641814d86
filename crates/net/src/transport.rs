//! The `Transport` abstraction every protocol layer is generic over.
//!
//! A [`Transport`] is a reliable, ordered, message-oriented duplex channel to
//! the single peer of a two-party protocol. The simulated in-process
//! [`Endpoint`](crate::Endpoint) and the real [`TcpTransport`](crate::TcpTransport)
//! both implement it, and decorators ([`FaultyTransport`](crate::FaultyTransport),
//! [`InstrumentedTransport`](crate::InstrumentedTransport)) wrap any inner
//! transport to add fault injection or per-phase accounting.
//!
//! Byte accounting is defined at the **application framing layer**: a message
//! of `n` payload bytes counts `n` against `bytes_sent`, regardless of
//! transport-level overhead such as TCP/IP headers or length prefixes. This
//! is the layer at which the paper's Comm. columns are measured, so counts
//! are identical across transports by construction.

use crate::channel::CommSnapshot;
use crate::wire::{Blocks, Frame, U64Frame};
use abnn2_crypto::Block;
use std::borrow::Cow;
use std::time::Duration;

/// Transport-level failure, split by root cause so protocol layers can
/// surface the *right* error: a vanished peer ([`Closed`]) versus a peer (or
/// a corrupted link) that delivered bytes violating the framing contract
/// ([`Malformed`]) versus a peer that is *silent* past the configured
/// deadline ([`TimedOut`]).
///
/// [`Closed`]: TransportError::Closed
/// [`Malformed`]: TransportError::Malformed
/// [`TimedOut`]: TransportError::TimedOut
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The peer disconnected (or the underlying connection was lost).
    Closed,
    /// A message arrived but its contents violate the framing contract
    /// (wrong length, oversized frame, ...). The payload names the check.
    Malformed(&'static str),
    /// No message arrived within the configured read timeout, or the
    /// phase deadline budget was exhausted. The connection may still be
    /// alive: a silent peer is distinguishable from a dead one.
    TimedOut,
    /// A non-blocking transport has no message available *right now*. Only
    /// raised by readiness-driven transports (the session driver's replay
    /// channel); blocking transports never surface it. Event loops treat it
    /// as "park and retry when readable", never as a failure.
    WouldBlock,
}

impl TransportError {
    /// Whether reconnecting and retrying could plausibly clear the error.
    /// `Closed` and `TimedOut` are transient link conditions; `Malformed`
    /// indicates a protocol bug or a hostile peer and is fatal.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            TransportError::Closed | TransportError::TimedOut | TransportError::WouldBlock
        )
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "peer transport closed"),
            TransportError::Malformed(what) => write!(f, "malformed message: {what}"),
            TransportError::TimedOut => write!(f, "peer silent past deadline"),
            TransportError::WouldBlock => write!(f, "no message available (would block)"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Reliable, ordered, message-oriented duplex channel between the two
/// protocol parties.
///
/// Implementors provide the byte-message primitives ([`send`](Transport::send),
/// [`recv`](Transport::recv), [`snapshot`](Transport::snapshot)); the typed
/// helpers (`u64`s, 128-bit [`Block`]s) are provided methods layered on top,
/// so every implementation — including decorators — inherits consistent
/// framing and error semantics.
pub trait Transport {
    /// Sends one message to the peer.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] if the peer is gone.
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError>;

    /// Sends one message, taking ownership of the buffer.
    ///
    /// Implementations that queue messages (the in-process [`Endpoint`]
    /// moves the buffer straight into the channel) override this to avoid a
    /// copy. The default borrows for the send, then recycles the buffer
    /// into the connection's scratch slot ([`store_scratch`]) so the next
    /// [`send_frame`] does not have to allocate.
    ///
    /// [`Endpoint`]: crate::Endpoint
    /// [`store_scratch`]: Transport::store_scratch
    /// [`send_frame`]: Transport::send_frame
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] if the peer is gone.
    fn send_owned(&mut self, payload: Vec<u8>) -> Result<(), TransportError> {
        let result = self.send(&payload);
        self.store_scratch(payload);
        result
    }

    /// Receives the next message from the peer, blocking until it arrives.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] if the peer is gone, or
    /// [`TransportError::Malformed`] if the transport's own framing is
    /// violated (e.g. an oversized TCP frame header).
    fn recv(&mut self) -> Result<Vec<u8>, TransportError>;

    /// Flushes any write-coalescing buffer down to the wire.
    ///
    /// Message-queue transports deliver eagerly and keep the no-op default;
    /// buffered byte-stream transports (TCP) must push pending frames out.
    /// Implementations of [`recv`](Transport::recv) on such transports flush
    /// implicitly, so protocol code only needs an explicit `flush` before
    /// going idle.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] if the peer is gone.
    fn flush(&mut self) -> Result<(), TransportError> {
        Ok(())
    }

    /// Current cumulative communication statistics (application-layer bytes).
    fn snapshot(&self) -> CommSnapshot;

    /// Bounds how long a single [`recv`](Transport::recv) may block before
    /// failing with [`TransportError::TimedOut`]. `None` (the default)
    /// blocks forever.
    ///
    /// The default implementation ignores the timeout (in-process message
    /// queues cannot go silent without the peer being dropped, which already
    /// surfaces as `Closed`); real-socket transports honor it via
    /// `SO_RCVTIMEO`. Decorators MUST forward this call to their inner
    /// transport.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] if the timeout cannot be applied.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        let _ = timeout;
        Ok(())
    }

    /// Starts a deadline budget covering *all* subsequent operations: once
    /// the budget is exhausted, sends and receives fail with
    /// [`TransportError::TimedOut`] even if each individual read would have
    /// met its own timeout. `None` clears the budget.
    ///
    /// Real-time transports measure the budget on the wall clock; the
    /// simulated endpoint charges it against its virtual clock, so a phase
    /// that would overrun its budget on the modelled network times out in
    /// simulation too. Decorators MUST forward this call.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] if the budget cannot be applied.
    fn set_phase_budget(&mut self, budget: Option<Duration>) -> Result<(), TransportError> {
        let _ = budget;
        Ok(())
    }

    /// Labels subsequent traffic for instrumentation purposes (e.g.
    /// `"offline:op2/relu"`). A no-op everywhere except metering
    /// decorators, which attribute bytes/messages/time to the label;
    /// protocol code may call it freely without changing the transcript.
    /// Decorators that wrap another transport MUST forward this call.
    fn mark_phase(&mut self, label: &str) {
        let _ = label;
    }

    /// Takes the connection's reusable scratch buffer (empty capacity if
    /// none is stored). Transports with a real per-connection buffer
    /// override this pair; decorators MUST forward both calls so the frame
    /// layer reuses the innermost transport's buffer.
    fn take_scratch(&mut self) -> Vec<u8> {
        Vec::new()
    }

    /// Returns a buffer to the scratch slot for reuse by the next
    /// [`send_frame`](Transport::send_frame). The default discards it.
    fn store_scratch(&mut self, buf: Vec<u8>) {
        let _ = buf;
    }

    /// Sends one typed [`Frame`]: the frame's one-byte tag followed by its
    /// encoded payload, serialized through the connection's scratch buffer
    /// so hot loops do not allocate per message.
    ///
    /// This — with [`recv_frame`](Transport::recv_frame) — is the only
    /// sanctioned way to move protocol payloads; raw
    /// [`send`](Transport::send)/[`recv`](Transport::recv) are reserved for
    /// transport-internal uses in this crate.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] if the peer is gone.
    fn send_frame<F: Frame>(&mut self, frame: &F) -> Result<(), TransportError>
    where
        Self: Sized,
    {
        let mut buf = self.take_scratch();
        buf.clear();
        buf.push(F::TAG);
        frame.encode_into(&mut buf);
        let result = self.send(&buf);
        self.store_scratch(buf);
        result
    }

    /// Receives one typed [`Frame`], verifying the tag byte before handing
    /// the payload to [`Frame::decode`].
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] if the peer is gone;
    /// [`TransportError::Malformed`] — carrying the expected frame's name —
    /// if the message is empty, tagged as a different frame, or fails the
    /// frame's payload validation.
    fn recv_frame<F: Frame>(&mut self) -> Result<F, TransportError>
    where
        Self: Sized,
    {
        F::decode_tagged(&self.recv()?).map_err(TransportError::from)
    }

    /// Sends a single `u64` as a tagged [`U64Frame`].
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] if the peer is gone.
    fn send_u64(&mut self, v: u64) -> Result<(), TransportError>
    where
        Self: Sized,
    {
        self.send_frame(&U64Frame(v))
    }

    /// Receives a single `u64` frame.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] if the peer is gone;
    /// [`TransportError::Malformed`] on a wrong tag or a payload that is
    /// not exactly 8 bytes.
    fn recv_u64(&mut self) -> Result<u64, TransportError>
    where
        Self: Sized,
    {
        Ok(self.recv_frame::<U64Frame>()?.0)
    }

    /// Sends a slice of 128-bit blocks as one tagged [`Blocks`] frame
    /// (borrowing the slice; no copy besides serialization).
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] if the peer is gone.
    fn send_blocks(&mut self, blocks: &[Block]) -> Result<(), TransportError>
    where
        Self: Sized,
    {
        self.send_frame(&Blocks(Cow::Borrowed(blocks)))
    }

    /// Receives a tagged [`Blocks`] frame.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] if the peer is gone;
    /// [`TransportError::Malformed`] on a wrong tag or a payload length
    /// that is not a multiple of 16 bytes.
    fn recv_blocks(&mut self) -> Result<Vec<Block>, TransportError>
    where
        Self: Sized,
    {
        Ok(self.recv_frame::<Blocks>()?.0.into_owned())
    }
}
