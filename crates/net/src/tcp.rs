//! Real TCP implementation of [`Transport`] with length-prefixed framing and
//! a write-coalescing buffer.
//!
//! ## Framing
//!
//! Each message is one frame: a 4-byte little-endian payload length followed
//! by the payload. Frames longer than [`MAX_FRAME_LEN`], or longer than the
//! registry ceiling of their tag byte, are rejected as malformed on receive,
//! before the payload is allocated, bounding allocation against a corrupt or
//! hostile peer. The parser, the write queue and the error latch are the one
//! codec in `framing.rs`, shared with the event-loop
//! [`FrameBuffer`](crate::FrameBuffer); this type is its blocking face and
//! adds only what blocking needs: read deadlines, byte counters and the
//! scratch slot.
//!
//! ## Write coalescing
//!
//! The OT and GC layers emit thousands of small messages (often single
//! `u64`s). Issuing one `write(2)` per 8-byte message would dominate runtime
//! with syscalls, so outgoing frames accumulate in a buffer flushed when it
//! exceeds a fixed threshold, before any blocking receive, and on drop.
//! Flushing before a receive keeps the protocol deadlock-free: each party's
//! pending requests always reach the peer before either side blocks.
//!
//! ## Accounting
//!
//! [`CommSnapshot`] counts **application payload bytes only** — the 4-byte
//! frame headers are excluded, so byte counts are identical to the simulated
//! [`Endpoint`](crate::Endpoint) run of the same protocol. `vtime` reports
//! real wall-clock time since the transport was created.

use crate::channel::CommSnapshot;
use crate::framing::FrameCodec;
use crate::transport::{Transport, TransportError};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Upper bound on a single frame's payload, checked on receive.
pub const MAX_FRAME_LEN: usize = 1 << 30;

/// Outgoing buffer size that triggers an automatic flush.
const FLUSH_THRESHOLD: usize = 1 << 16;

/// [`Transport`] over a real TCP stream. See the module docs for framing,
/// coalescing, and accounting semantics.
///
/// ## Deadlines
///
/// [`set_read_timeout`](Transport::set_read_timeout) bounds each blocking
/// read via `SO_RCVTIMEO`; [`set_phase_budget`](Transport::set_phase_budget)
/// starts a wall-clock budget covering every subsequent operation. Both
/// surface as [`TransportError::TimedOut`], so a silent-but-connected peer
/// is distinguishable from a dead one (`Closed`).
///
/// ## Error stickiness
///
/// Once the connection fails (`Closed`; a length prefix over
/// [`MAX_FRAME_LEN`] or over its tag's ceiling, after which the unread
/// payload would parse as the next header; or a timeout that interrupted a
/// frame mid-read, after which the framing boundary is lost), the error is
/// latched and every subsequent operation reports it, exactly as
/// [`FrameBuffer`](crate::FrameBuffer) does. This also surfaces write/flush
/// failures that would otherwise only be observable — and silently
/// swallowed — during drop. A timeout at a frame boundary, and a tag
/// mismatch reported by [`recv_frame`](Transport::recv_frame) over an
/// intact frame, leave the connection usable.
pub struct TcpTransport {
    stream: TcpStream,
    /// Frame reader, pending framed output and the sticky error latch.
    codec: FrameCodec,
    /// Reusable frame-serialization buffer (see [`Transport::take_scratch`]).
    scratch: Vec<u8>,
    bytes_sent: u64,
    bytes_received: u64,
    messages_sent: u64,
    created: Instant,
    deadline: ReadDeadline,
}

/// The `SO_RCVTIMEO` bookkeeping of one socket.
#[derive(Default)]
struct ReadDeadline {
    /// Per-read timeout requested via `set_read_timeout`.
    per_read: Option<Duration>,
    /// Wall-clock deadline of the current phase budget, if any.
    phase: Option<Instant>,
    /// `SO_RCVTIMEO` currently applied to the socket (avoids a syscall per
    /// read when the effective timeout has not changed).
    applied: Option<Duration>,
}

/// The socket as the codec's source: every `read` first applies the
/// effective `SO_RCVTIMEO`, the tighter of the per-read timeout and the
/// remaining phase budget, and is `TimedOut` if the budget is already spent.
struct Deadlined<'a>(&'a TcpStream, &'a mut ReadDeadline);

impl Read for Deadlined<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Deadlined(stream, deadline) = self;
        let mut effective = deadline.per_read;
        if let Some(dl) = deadline.phase {
            let remaining = dl
                .checked_duration_since(Instant::now())
                .filter(|r| !r.is_zero())
                .ok_or(ErrorKind::TimedOut)?;
            effective = Some(effective.map_or(remaining, |t| t.min(remaining)));
        }
        if effective != deadline.applied {
            stream.set_read_timeout(effective)?;
            deadline.applied = effective;
        }
        stream.read(buf)
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("peer", &self.stream.peer_addr().ok())
            .field("bytes_sent", &self.bytes_sent)
            .field("bytes_received", &self.bytes_received)
            .finish()
    }
}

impl TcpTransport {
    /// Wraps an already-connected stream. Disables Nagle's algorithm: the
    /// write-coalescing buffer already batches small messages, and the
    /// protocols are latency-bound request/response exchanges.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] if the socket options cannot be set
    /// (the stream is unusable).
    pub fn from_stream(stream: TcpStream) -> Result<Self, TransportError> {
        stream.set_nodelay(true).map_err(|_| TransportError::Closed)?;
        Ok(Self {
            stream,
            // Room for one flush's worth up front: the small frames that
            // coalesce here never grow the queue by reallocation.
            codec: FrameCodec::new(FLUSH_THRESHOLD),
            scratch: Vec::new(),
            bytes_sent: 0,
            bytes_received: 0,
            messages_sent: 0,
            created: Instant::now(),
            deadline: ReadDeadline::default(),
        })
    }

    /// Connects to a listening peer.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] if the connection cannot be
    /// established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, TransportError> {
        let stream = TcpStream::connect(addr).map_err(|_| TransportError::Closed)?;
        Self::from_stream(stream)
    }

    /// Binds `addr`, accepts exactly one connection, and wraps it.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] if binding or accepting fails.
    pub fn accept(addr: impl ToSocketAddrs) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(addr).map_err(|_| TransportError::Closed)?;
        let (stream, _) = listener.accept().map_err(|_| TransportError::Closed)?;
        Self::from_stream(stream)
    }

    /// The local socket address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] if the socket is gone.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, TransportError> {
        self.stream.local_addr().map_err(|_| TransportError::Closed)
    }

    /// Writes every queued frame to the socket. A blocking socket that
    /// refuses bytes has hit a send timeout, which loses the boundary.
    fn flush_queue(&mut self) -> Result<(), TransportError> {
        if self.codec.drain_into(&mut &self.stream)? {
            Ok(())
        } else {
            Err(self.codec.fail(TransportError::TimedOut))
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.codec.check()?;
        if self.deadline.phase.is_some_and(|dl| Instant::now() >= dl) {
            return Err(self.codec.fail(TransportError::TimedOut));
        }
        self.codec.push(payload);
        self.bytes_sent += payload.len() as u64;
        self.messages_sent += 1;
        if self.codec.queued() >= FLUSH_THRESHOLD {
            self.flush_queue()?;
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        // Push our pending requests out before blocking on the peer's reply.
        self.flush_queue()?;
        match self.codec.read_from(&mut Deadlined(&self.stream, &mut self.deadline))? {
            Some(payload) => {
                self.bytes_received += payload.len() as u64;
                Ok(payload)
            }
            // A deadline expired. Mid-frame the boundary is lost, so the
            // timeout is latched; at a boundary the connection stays usable.
            None if self.codec.mid_frame() => Err(self.codec.fail(TransportError::TimedOut)),
            None => Err(TransportError::TimedOut),
        }
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        self.flush_queue()?;
        (&self.stream).flush().map_err(|_| self.codec.fail(TransportError::Closed))
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.deadline.per_read = timeout;
        Ok(())
    }

    fn set_phase_budget(&mut self, budget: Option<Duration>) -> Result<(), TransportError> {
        self.deadline.phase = budget.map(|b| Instant::now() + b);
        Ok(())
    }

    fn snapshot(&self) -> CommSnapshot {
        CommSnapshot {
            bytes_sent: self.bytes_sent,
            bytes_received: self.bytes_received,
            messages_sent: self.messages_sent,
            vtime: self.created.elapsed(),
        }
    }

    fn take_scratch(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.scratch)
    }

    fn store_scratch(&mut self, buf: Vec<u8>) {
        if buf.capacity() > self.scratch.capacity() {
            self.scratch = buf;
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Best-effort and guaranteed non-panicking: deliver anything still
        // coalescing so the peer's in-flight recv sees the data before the
        // FIN. A failure here is already latched as sticky (and was thus
        // observable on the explicit send/recv/flush paths); there is no one
        // left to report to during drop.
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_crypto::Block;
    use std::net::TcpListener;
    use std::thread;

    /// Connected localhost transport pair.
    fn tcp_pair() -> (TcpTransport, TcpTransport) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = thread::spawn(move || TcpTransport::connect(addr).expect("connect"));
        let (stream, _) = listener.accept().expect("accept");
        let server = TcpTransport::from_stream(stream).expect("wrap");
        (server, client.join().expect("join"))
    }

    #[test]
    fn round_trip_and_accounting() {
        let (mut s, mut c) = tcp_pair();
        thread::scope(|scope| {
            scope.spawn(|| {
                c.send(b"ping").unwrap();
                c.send_u64(7).unwrap();
                c.send_blocks(&[Block::from(9u128)]).unwrap();
                assert_eq!(c.recv().unwrap(), b"pong");
            });
            assert_eq!(s.recv().unwrap(), b"ping");
            assert_eq!(s.recv_u64().unwrap(), 7);
            assert_eq!(s.recv_blocks().unwrap(), vec![Block::from(9u128)]);
            s.send(b"pong").unwrap();
            s.flush().unwrap();
        });
        // Payload-only accounting: 4 raw + (1+8) u64 frame + (1+16) block
        // frame bytes sent by the client.
        assert_eq!(c.snapshot().bytes_sent, 30);
        assert_eq!(c.snapshot().messages_sent, 3);
        assert_eq!(s.snapshot().bytes_received, 30);
    }

    #[test]
    fn coalesced_small_sends_arrive_in_order() {
        let (mut s, mut c) = tcp_pair();
        thread::scope(|scope| {
            scope.spawn(|| {
                for v in 0..1000u64 {
                    c.send_u64(v).unwrap();
                }
                // Messages are still coalescing; the recv below flushes them.
                assert_eq!(c.recv().unwrap(), b"done");
            });
            for v in 0..1000u64 {
                assert_eq!(s.recv_u64().unwrap(), v);
            }
            s.send(b"done").unwrap();
            s.flush().unwrap();
        });
    }

    #[test]
    fn disconnect_is_closed() {
        let (s, mut c) = tcp_pair();
        drop(s);
        assert_eq!(c.recv(), Err(TransportError::Closed));
    }

    #[test]
    fn oversized_frame_header_is_malformed() {
        let (s, mut c) = tcp_pair();
        let mut raw = s.stream.try_clone().expect("clone");
        drop(s);
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        raw.flush().unwrap();
        assert_eq!(c.recv(), Err(TransportError::Malformed("frame length exceeds maximum")));
    }

    /// A rejected length prefix leaves its payload unread, so the framing
    /// boundary is gone: the same `Malformed` is reported from then on, as
    /// on `FrameBuffer`, instead of the payload bytes parsing as a header.
    #[test]
    fn rejected_prefix_is_malformed_and_sticky() {
        let over_ceiling = [&10u32.to_le_bytes()[..], &[crate::wire::tags::U64]].concat();
        for (prefix, what) in [
            (u32::MAX.to_le_bytes().to_vec(), "frame length exceeds maximum"),
            (over_ceiling, "frame length exceeds tag ceiling"),
        ] {
            let (s, mut c) = tcp_pair();
            let mut raw = s.stream.try_clone().expect("clone");
            drop(s);
            raw.write_all(&prefix).unwrap();
            // What follows would read as a well-formed frame "abc".
            raw.write_all(&3u32.to_le_bytes()).unwrap();
            raw.write_all(b"abc").unwrap();
            raw.flush().unwrap();
            assert_eq!(c.recv(), Err(TransportError::Malformed(what)));
            assert_eq!(c.recv(), Err(TransportError::Malformed(what)));
            assert_eq!(c.send(b"x"), Err(TransportError::Malformed(what)));
        }
    }

    /// A frame whose header and payload arrive in four separate TCP
    /// segments must be reassembled, not misreported as malformed.
    #[test]
    fn frame_split_across_segments_is_reassembled() {
        let (s, mut c) = tcp_pair();
        let mut raw = s.stream.try_clone().expect("clone");
        drop(s);
        let writer = thread::spawn(move || {
            let frame: Vec<u8> = 6u32.to_le_bytes().iter().copied().chain(*b"abcdef").collect();
            for chunk in frame.chunks(3) {
                raw.write_all(chunk).unwrap();
                raw.flush().unwrap();
                thread::sleep(std::time::Duration::from_millis(5));
            }
        });
        assert_eq!(c.recv().unwrap(), b"abcdef");
        writer.join().unwrap();
    }

    /// EOF in the middle of a frame is a vanished peer (`Closed`), not a
    /// framing violation (`Malformed`).
    #[test]
    fn eof_mid_frame_is_closed() {
        let (s, mut c) = tcp_pair();
        let mut raw = s.stream.try_clone().expect("clone");
        drop(s);
        raw.write_all(&10u32.to_le_bytes()).unwrap();
        raw.write_all(b"abc").unwrap();
        raw.flush().unwrap();
        drop(raw);
        assert_eq!(c.recv(), Err(TransportError::Closed));
    }

    /// A read timeout at a frame boundary is `TimedOut` and leaves the
    /// connection usable once the peer speaks again.
    #[test]
    fn silent_peer_times_out_then_recovers() {
        let (mut s, mut c) = tcp_pair();
        c.set_read_timeout(Some(std::time::Duration::from_millis(40))).unwrap();
        let start = std::time::Instant::now();
        assert_eq!(c.recv(), Err(TransportError::TimedOut));
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
        s.send(b"late").unwrap();
        s.flush().unwrap();
        assert_eq!(c.recv().unwrap(), b"late");
    }

    /// A timeout that interrupts a frame mid-read loses the framing
    /// boundary: the error is latched and every later operation reports it.
    #[test]
    fn mid_frame_timeout_is_sticky() {
        let (s, mut c) = tcp_pair();
        let raw = s.stream.try_clone().expect("clone");
        drop(s);
        let mut raw = raw;
        raw.write_all(&8u32.to_le_bytes()).unwrap();
        raw.write_all(b"abc").unwrap();
        raw.flush().unwrap();
        c.set_read_timeout(Some(std::time::Duration::from_millis(40))).unwrap();
        assert_eq!(c.recv(), Err(TransportError::TimedOut));
        // Even after the rest arrives, the boundary is gone: still failed.
        raw.write_all(b"defgh").unwrap();
        raw.flush().unwrap();
        assert_eq!(c.recv(), Err(TransportError::TimedOut));
        assert_eq!(c.send(b"x"), Err(TransportError::TimedOut));
    }

    /// An exhausted phase budget fails sends and receives with `TimedOut`
    /// even when no per-read timeout is configured.
    #[test]
    fn phase_budget_exhaustion_times_out() {
        let (_s, mut c) = tcp_pair();
        c.set_phase_budget(Some(std::time::Duration::from_millis(30))).unwrap();
        let start = std::time::Instant::now();
        assert_eq!(c.recv(), Err(TransportError::TimedOut));
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
        thread::sleep(std::time::Duration::from_millis(35));
        assert_eq!(c.send(b"x"), Err(TransportError::TimedOut));
    }
}
