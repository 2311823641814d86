//! Real TCP implementation of [`Transport`] with length-prefixed framing, a
//! write-coalescing buffer, and reads while it writes.
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
//! adds only what blocking needs: the wait, deadlines, the inbox, byte
//! counters and the scratch slot.
//!
//! ## Write coalescing
//!
//! The OT and GC layers emit thousands of small messages (often single
//! `u64`s). Issuing one `write(2)` per 8-byte message would dominate runtime
//! with syscalls, so outgoing frames accumulate in a buffer flushed when it
//! exceeds a fixed threshold, before any receive that has to wait, and on
//! drop. A frame at least that large skips the buffer: the queue is flushed
//! and the frame written from the caller's bytes, so the buffer never grows
//! to the size of the garbled tables.
//!
//! ## Full duplex
//!
//! A party may send ahead: the server's offline walk sends every fragment
//! group's columns, megabytes, before it reads the first reply, while the
//! client writes its replies. Two parties that each block in a write nobody
//! reads would deadlock once both socket buffers fill, and flushing before
//! a receive does not prevent that. So the socket is non-blocking and every
//! call that has to wait does so in [`ready::wait`] for room to write *and*
//! for input: a send or flush the socket cannot take whole reads the frames
//! arriving meanwhile into an inbox, and [`recv`](Transport::recv) returns
//! the inbox's frames before it reads the socket. Neither party's write
//! ever waits on the other's.
//!
//! ## Accounting
//!
//! [`CommSnapshot`] counts **application payload bytes only** — the 4-byte
//! frame headers are excluded, so byte counts are identical to the simulated
//! [`Endpoint`](crate::Endpoint) run of the same protocol. A frame counts as
//! received when `recv` returns it, wherever it waited. `vtime` reports real
//! wall-clock time since the transport was created. The wait needs
//! `poll(2)`, so this type is Unix-only, as [`ready`] is.

use crate::channel::CommSnapshot;
use crate::framing::FrameCodec;
use crate::ready::{self, Interest};
use crate::transport::{Transport, TransportError};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Upper bound on a single frame's payload, checked on receive.
pub const MAX_FRAME_LEN: usize = 1 << 30;

/// Outgoing buffer size that triggers an automatic flush.
const FLUSH_THRESHOLD: usize = 1 << 16;

/// [`Transport`] over a real TCP stream. See the module docs for framing,
/// coalescing, full duplex and accounting semantics.
///
/// ## Deadlines
///
/// [`set_read_timeout`](Transport::set_read_timeout) bounds how long any
/// wait may pass with no byte moving either way;
/// [`set_phase_budget`](Transport::set_phase_budget) starts a wall-clock
/// budget covering every subsequent operation. Both are the timeout of the
/// wait and surface as [`TransportError::TimedOut`], so a
/// silent-but-connected peer is distinguishable from a dead one (`Closed`).
///
/// ## Error stickiness
///
/// Once the connection fails (`Closed`; a length prefix over
/// [`MAX_FRAME_LEN`] or over its tag's ceiling, after which the unread
/// payload would parse as the next header; a timeout that interrupted a
/// frame mid-read, after which the framing boundary is lost; or a timeout
/// while output waited for room, part of which may be on the wire), the
/// error is latched and every subsequent operation reports it, exactly as
/// [`FrameBuffer`](crate::FrameBuffer) does. This also surfaces write/flush
/// failures that would otherwise only be observable — and silently
/// swallowed — during drop. A timeout in a receive at a frame boundary, and
/// a tag mismatch reported by [`recv_frame`](Transport::recv_frame) over an
/// intact frame, leave the connection usable.
pub struct TcpTransport {
    stream: TcpStream,
    /// Frame reader, pending framed output and the sticky error latch.
    codec: FrameCodec,
    /// Frames read while output waited for room, oldest first.
    inbox: VecDeque<Vec<u8>>,
    /// Reusable frame-serialization buffer (see [`Transport::take_scratch`]).
    scratch: Vec<u8>,
    bytes_sent: u64,
    bytes_received: u64,
    messages_sent: u64,
    created: Instant,
    /// Per-wait timeout requested via `set_read_timeout`.
    read_timeout: Option<Duration>,
    /// Wall-clock deadline of the current phase budget, if any.
    phase_deadline: Option<Instant>,
}

/// The socket as the codec's source, noting whether any read returned
/// bytes: progress that restarts the read timeout.
struct Moved<'a>(&'a TcpStream, bool);

impl Read for Moved<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.0.read(buf)?;
        self.1 |= n > 0;
        Ok(n)
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
    /// Wraps an already-connected stream, switching it to non-blocking
    /// mode (every wait is [`ready::wait`]). Disables Nagle's algorithm:
    /// the write-coalescing buffer already batches small messages, and the
    /// protocols are latency-bound request/response exchanges.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] if the socket options cannot be set
    /// (the stream is unusable).
    pub fn from_stream(stream: TcpStream) -> Result<Self, TransportError> {
        stream.set_nonblocking(true).map_err(|_| TransportError::Closed)?;
        stream.set_nodelay(true).map_err(|_| TransportError::Closed)?;
        Ok(Self {
            stream,
            // Room for one flush's worth up front: the small frames that
            // coalesce here never grow the queue by reallocation.
            codec: FrameCodec::new(FLUSH_THRESHOLD),
            inbox: VecDeque::new(),
            scratch: Vec::new(),
            bytes_sent: 0,
            bytes_received: 0,
            messages_sent: 0,
            created: Instant::now(),
            read_timeout: None,
            phase_deadline: None,
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

    /// Waits until the socket has input, or room for output if `writable`,
    /// or the deadline passes: the read timeout counted from `since` (when
    /// a byte last moved) or the phase budget, whichever is first. May
    /// return early; the caller tries again.
    fn wait(&self, writable: bool, since: Instant) -> Result<(), TransportError> {
        let idle = self.read_timeout.and_then(|t| since.checked_add(t));
        let deadline = idle.into_iter().chain(self.phase_deadline);
        let timeout = match deadline.min() {
            Some(dl) => dl
                .checked_duration_since(Instant::now())
                .filter(|left| !left.is_zero())
                .ok_or(TransportError::TimedOut)?,
            None => Duration::MAX,
        };
        ready::wait(None, &[Interest::new(&self.stream, true, writable)], timeout);
        Ok(())
    }

    /// Reads every frame the socket holds into the inbox; whether any
    /// bytes came.
    fn read_into_inbox(&mut self) -> Result<bool, TransportError> {
        let mut src = Moved(&self.stream, false);
        while let Some(frame) = self.codec.read_from(&mut src)? {
            self.inbox.push_back(frame);
        }
        Ok(src.1)
    }

    /// Waits for room to write, reading what arrives meanwhile. A deadline
    /// that passes here is latched: part of the output may be on the wire.
    fn wait_writable(&mut self, since: &mut Instant) -> Result<(), TransportError> {
        self.wait(true, *since).map_err(|e| self.codec.fail(e))?;
        if self.read_into_inbox()? {
            *since = Instant::now();
        }
        Ok(())
    }

    /// The next frame from the socket.
    fn read_frame(&mut self) -> Result<Vec<u8>, TransportError> {
        let mut since = Instant::now();
        loop {
            let mut src = Moved(&self.stream, false);
            if let Some(frame) = self.codec.read_from(&mut src)? {
                return Ok(frame);
            }
            if src.1 {
                since = Instant::now();
            }
            if let Err(e) = self.wait(false, since) {
                // Mid-frame the boundary is lost, so the timeout is
                // latched; at a boundary the connection stays usable.
                return Err(if self.codec.mid_frame() { self.codec.fail(e) } else { e });
            }
        }
    }

    /// Writes every queued frame to the socket.
    fn flush_queue(&mut self) -> Result<(), TransportError> {
        let mut since = Instant::now();
        loop {
            let queued = self.codec.queued();
            if self.codec.drain_into(&mut &self.stream)? {
                return Ok(());
            }
            if self.codec.queued() < queued {
                since = Instant::now();
            }
            self.wait_writable(&mut since)?;
        }
    }

    /// Writes a large frame's payload from the caller's buffer, its length
    /// prefix already queued.
    fn write_through(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.flush_queue()?;
        let (mut written, mut since) = (0, Instant::now());
        loop {
            let n = self.codec.write_through(&payload[written..], &mut &self.stream)?;
            written += n;
            if written == payload.len() {
                return Ok(());
            }
            if n > 0 {
                since = Instant::now();
            }
            self.wait_writable(&mut since)?;
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.codec.check()?;
        if self.phase_deadline.is_some_and(|dl| Instant::now() >= dl) {
            return Err(self.codec.fail(TransportError::TimedOut));
        }
        self.bytes_sent += payload.len() as u64;
        self.messages_sent += 1;
        if payload.len() < FLUSH_THRESHOLD {
            self.codec.push(payload);
            if self.codec.queued() >= FLUSH_THRESHOLD {
                self.flush_queue()?;
            }
            return Ok(());
        }
        // A large frame goes from the caller's buffer to the socket: copied
        // into the queue, it would grow the queue to its size for the rest
        // of the connection.
        self.codec.push_header(payload.len());
        self.write_through(payload)
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        self.codec.check()?;
        if self.phase_deadline.is_some_and(|dl| Instant::now() >= dl) {
            return Err(if self.codec.mid_frame() {
                self.codec.fail(TransportError::TimedOut)
            } else {
                TransportError::TimedOut
            });
        }
        // Push our pending requests out before waiting on the peer's reply.
        self.flush_queue()?;
        let frame = match self.inbox.pop_front() {
            Some(frame) => frame,
            None => self.read_frame()?,
        };
        self.bytes_received += frame.len() as u64;
        Ok(frame)
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        self.flush_queue()?;
        (&self.stream).flush().map_err(|_| self.codec.fail(TransportError::Closed))
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.read_timeout = timeout;
        Ok(())
    }

    fn set_phase_budget(&mut self, budget: Option<Duration>) -> Result<(), TransportError> {
        self.phase_deadline = budget.map(|b| Instant::now() + b);
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
    use crate::wire::tests::{GcLabels, MaskedClass};
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
                c.send_frame(&MaskedClass(vec![7])).unwrap();
                c.send_frame(&GcLabels(vec![Block::from(9u128)])).unwrap();
                assert_eq!(c.recv().unwrap(), b"pong");
            });
            assert_eq!(s.recv().unwrap(), b"ping");
            assert_eq!(s.recv_frame(), Ok(MaskedClass(vec![7])));
            assert_eq!(s.recv_frame(), Ok(GcLabels(vec![Block::from(9u128)])));
            s.send(b"pong").unwrap();
            s.flush().unwrap();
        });
        // Payload-only accounting: 4 raw + (1+1) class frame + (1+16) block
        // frame bytes sent by the client.
        assert_eq!(c.snapshot().bytes_sent, 23);
        assert_eq!(c.snapshot().messages_sent, 3);
        assert_eq!(s.snapshot().bytes_received, 23);
    }

    #[test]
    fn coalesced_small_sends_arrive_in_order() {
        let (mut s, mut c) = tcp_pair();
        thread::scope(|scope| {
            scope.spawn(|| {
                for v in 0..1000u128 {
                    c.send_frame(&GcLabels(vec![Block::from(v)])).unwrap();
                }
                // Messages are still coalescing; the recv below flushes them.
                assert_eq!(c.recv().unwrap(), b"done");
            });
            for v in 0..1000u128 {
                assert_eq!(s.recv_frame(), Ok(GcLabels(vec![Block::from(v)])));
            }
            s.send(b"done").unwrap();
            s.flush().unwrap();
        });
    }

    #[test]
    fn large_frames_written_through_keep_their_place() {
        // Small frames queue; a frame of FLUSH_THRESHOLD bytes or more goes
        // straight to the socket behind them. Order and bytes must not
        // depend on which path a frame took.
        let sizes = [3, FLUSH_THRESHOLD - 5, FLUSH_THRESHOLD, 7, 5 * FLUSH_THRESHOLD + 1, 0, 9];
        let frame =
            |i: usize, len: usize| (0..len).map(|j| (i * 31 + j) as u8).collect::<Vec<u8>>();
        let (mut s, mut c) = tcp_pair();
        thread::scope(|scope| {
            scope.spawn(|| {
                for (i, &len) in sizes.iter().enumerate() {
                    c.send(&frame(i, len)).unwrap();
                }
                assert_eq!(c.recv().unwrap(), b"done");
            });
            for (i, &len) in sizes.iter().enumerate() {
                assert_eq!(s.recv().unwrap(), frame(i, len), "frame {i}");
            }
            s.send(b"done").unwrap();
            s.flush().unwrap();
        });
        let total: usize = sizes.iter().sum();
        assert_eq!(c.snapshot().bytes_sent, total as u64);
        assert_eq!(c.snapshot().messages_sent, sizes.len() as u64);
        assert_eq!(s.snapshot().bytes_received, total as u64);
    }

    /// Two parties that each send 16 MiB before either receives both
    /// finish: a send the socket cannot take reads the peer's frames
    /// meanwhile. Large frames are written through, small ones coalesce
    /// between them. A watchdog fails the test instead of letting a
    /// regression hang it.
    #[test]
    fn both_parties_sending_ahead_do_not_deadlock() {
        let frame = |side: u8, i: usize| {
            let len = if i.is_multiple_of(2) { 1 << 20 } else { 100 };
            let mut f: Vec<u8> = (0..len).map(|j| (i * 31 + j) as u8 ^ side).collect();
            f[0] = 0xEE;
            f
        };
        let (done_tx, done) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let (mut s, mut c) = tcp_pair();
            let party = |ch: &mut TcpTransport, side: u8| {
                for i in 0..32 {
                    ch.send(&frame(side, i)).unwrap();
                }
                for i in 0..32 {
                    assert_eq!(ch.recv().unwrap(), frame(side ^ 1, i), "frame {i}");
                }
            };
            thread::scope(|scope| {
                scope.spawn(|| party(&mut c, 1));
                party(&mut s, 0);
            });
            let _ = done_tx.send((s.snapshot(), c.snapshot()));
        });
        let (s, c) = done.recv_timeout(Duration::from_secs(60)).expect("the two sends deadlocked");
        let total = 16 * (1 << 20) + 16 * 100;
        assert_eq!((s.bytes_sent, s.bytes_received), (total, total));
        assert_eq!((c.bytes_sent, c.bytes_received), (total, total));
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
