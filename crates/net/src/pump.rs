//! Non-blocking frame pump for readiness-based event loops.
//!
//! [`FrameBuffer`] is the event-loop face of the one length-prefixed
//! stream codec (`framing.rs`) that [`TcpTransport`](crate::TcpTransport)
//! is the blocking face of: same wire format (a 4-byte little-endian
//! payload length followed by the payload), same
//! [`MAX_FRAME_LEN`](crate::tcp::MAX_FRAME_LEN) and per-tag ceilings, same
//! code. The difference is only what "no bytes right now" means: over a
//! socket in non-blocking mode it is `Ok(None)` with the partial frame
//! kept, so one event-loop thread can sweep many connections without ever
//! parking on any single one, and queued output survives partial writes
//! across sweeps.
//!
//! Errors are latched ("sticky") exactly like the blocking transport,
//! because it is the same latch: once a connection reports `Closed` or a
//! framing-level `Malformed`, every later poll reports the same error.

use crate::framing::FrameCodec;
use crate::transport::TransportError;
use std::net::TcpStream;

/// Incremental length-prefixed framing over a non-blocking [`TcpStream`].
///
/// ```text
/// loop {                         // one event-loop sweep
///     while let Some(frame) = fb.poll_read()? { driver.feed(frame); }
///     ... step the session driver, queue its Send effects ...
///     fb.poll_write()?;          // drain as much as the socket takes
/// }
/// ```
#[derive(Debug)]
pub struct FrameBuffer {
    stream: TcpStream,
    codec: FrameCodec,
}

impl FrameBuffer {
    /// Wraps `stream`, switching it to non-blocking mode and disabling
    /// Nagle's algorithm (queued frames are already coalesced).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] if the socket options cannot be
    /// set (the stream is unusable).
    pub fn new(stream: TcpStream) -> Result<Self, TransportError> {
        stream.set_nonblocking(true).map_err(|_| TransportError::Closed)?;
        stream.set_nodelay(true).map_err(|_| TransportError::Closed)?;
        Ok(FrameBuffer { stream, codec: FrameCodec::new(0) })
    }

    /// The underlying stream (e.g. to inspect the peer address).
    #[must_use]
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Reads whatever the socket has toward the current frame. Returns
    /// `Ok(Some(payload))` when a frame completed, `Ok(None)` when the
    /// socket has no more bytes right now (the event loop parks the
    /// connection until it is readable again). Call in a loop: several
    /// frames may be ready in one sweep.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] on EOF or a socket error,
    /// [`TransportError::Malformed`] on an oversized length prefix or a
    /// payload larger than its tag's registry ceiling
    /// ([`wire::tags::max_len`](crate::wire::tags::max_len)). All are
    /// sticky.
    pub fn poll_read(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        self.codec.read_from(&mut &self.stream)
    }

    /// Queues one frame (length prefix added here) for a later
    /// [`poll_write`](Self::poll_write).
    pub fn queue_send(&mut self, payload: &[u8]) {
        self.codec.push(payload);
    }

    /// Writes as much queued output as the socket accepts. Returns whether
    /// the queue fully drained; `false` means the connection should be
    /// watched for writability and polled again.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] (sticky) on a socket error.
    pub fn poll_write(&mut self) -> Result<bool, TransportError> {
        self.codec.drain_into(&mut &self.stream)
    }

    /// Whether queued output is still waiting for the socket.
    #[must_use]
    pub fn has_pending_write(&self) -> bool {
        self.codec.queued() > 0
    }

    /// Bytes of framed output queued but not yet accepted by the socket —
    /// the quantity a serving governor bounds to evict peers that stop
    /// draining their connection.
    #[must_use]
    pub fn pending_write_bytes(&self) -> usize {
        self.codec.queued()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    fn pair() -> (FrameBuffer, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = TcpStream::connect(addr).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        (FrameBuffer::new(stream).expect("wrap"), peer)
    }

    /// Polls until a frame arrives, with a wall-clock bound so a broken
    /// pump fails the test instead of hanging it.
    fn read_frame(fb: &mut FrameBuffer) -> Vec<u8> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(frame) = fb.poll_read().expect("poll_read") {
                return frame;
            }
            assert!(Instant::now() < deadline, "no frame within deadline");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn empty_socket_polls_none_without_blocking() {
        let (mut fb, _peer) = pair();
        let start = Instant::now();
        assert_eq!(fb.poll_read().expect("poll"), None);
        assert!(start.elapsed() < Duration::from_secs(1), "poll_read must not block");
    }

    #[test]
    fn frame_split_across_many_writes_is_reassembled() {
        let (mut fb, mut peer) = pair();
        let payload = b"hello pump";
        let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(payload);
        for (i, chunk) in framed.chunks(3).enumerate() {
            peer.write_all(chunk).expect("write");
            peer.flush().expect("flush");
            // Give the kernel a moment so most chunks arrive separately;
            // correctness does not depend on the timing.
            std::thread::sleep(Duration::from_millis(2));
            if i == 0 {
                assert_eq!(fb.poll_read().expect("poll"), None, "frame is still partial");
            }
        }
        assert_eq!(read_frame(&mut fb), payload);
    }

    #[test]
    fn multiple_frames_in_one_sweep() {
        let (mut fb, mut peer) = pair();
        for payload in [b"one".as_slice(), b"two", b"three"] {
            peer.write_all(&(payload.len() as u32).to_le_bytes()).expect("len");
            peer.write_all(payload).expect("payload");
        }
        peer.flush().expect("flush");
        assert_eq!(read_frame(&mut fb), b"one");
        assert_eq!(read_frame(&mut fb), b"two");
        assert_eq!(read_frame(&mut fb), b"three");
        assert_eq!(fb.poll_read().expect("poll"), None);
    }

    #[test]
    fn oversized_length_prefix_is_malformed_and_sticky() {
        let (mut fb, mut peer) = pair();
        peer.write_all(&u32::MAX.to_le_bytes()).expect("write");
        peer.flush().expect("flush");
        let deadline = Instant::now() + Duration::from_secs(10);
        let err = loop {
            match fb.poll_read() {
                Ok(Some(_)) => panic!("oversized frame must not complete"),
                Ok(None) => {
                    assert!(Instant::now() < deadline, "no error within deadline");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => break e,
            }
        };
        assert_eq!(err, TransportError::Malformed("frame length exceeds maximum"));
        assert_eq!(fb.poll_read(), Err(TransportError::Malformed("frame length exceeds maximum")));
    }

    #[test]
    fn payload_above_tag_ceiling_is_malformed_before_allocation() {
        let (mut fb, mut peer) = pair();
        // A u64 frame (8-byte ceiling) claiming half a gigabyte must be
        // rejected from the five header+tag bytes alone — the payload
        // buffer is never allocated.
        peer.write_all(&((1u32 << 29) + 1).to_le_bytes()).expect("len");
        peer.write_all(&[crate::wire::tags::U64]).expect("tag");
        peer.flush().expect("flush");
        let deadline = Instant::now() + Duration::from_secs(10);
        let err = loop {
            match fb.poll_read() {
                Ok(Some(_)) => panic!("oversized frame must not complete"),
                Ok(None) => {
                    assert!(Instant::now() < deadline, "no error within deadline");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => break e,
            }
        };
        assert_eq!(err, TransportError::Malformed("frame length exceeds tag ceiling"));
        assert_eq!(
            fb.poll_read(),
            Err(TransportError::Malformed("frame length exceeds tag ceiling")),
            "tag-ceiling rejection must latch"
        );
    }

    #[test]
    fn frame_at_its_tag_ceiling_still_completes() {
        let (mut fb, mut peer) = pair();
        let mut payload = vec![crate::wire::tags::U64];
        payload.extend_from_slice(&7u64.to_le_bytes());
        peer.write_all(&(payload.len() as u32).to_le_bytes()).expect("len");
        peer.write_all(&payload).expect("payload");
        peer.flush().expect("flush");
        assert_eq!(read_frame(&mut fb), payload);
    }

    #[test]
    fn peer_eof_is_closed() {
        let (mut fb, peer) = pair();
        drop(peer);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match fb.poll_read() {
                Ok(None) => {
                    assert!(Instant::now() < deadline, "no EOF within deadline");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(Some(_)) => panic!("no frame was sent"),
                Err(e) => {
                    assert_eq!(e, TransportError::Closed);
                    break;
                }
            }
        }
    }

    #[test]
    fn queued_frames_drain_and_round_trip() {
        let (mut fb, mut peer) = pair();
        fb.queue_send(b"alpha");
        fb.queue_send(b"beta");
        assert!(fb.has_pending_write());
        let deadline = Instant::now() + Duration::from_secs(10);
        while !fb.poll_write().expect("poll_write") {
            assert!(Instant::now() < deadline, "write did not drain");
        }
        assert!(!fb.has_pending_write());
        for expected in [b"alpha".as_slice(), b"beta"] {
            let mut len = [0u8; 4];
            peer.read_exact(&mut len).expect("len");
            let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
            peer.read_exact(&mut payload).expect("payload");
            assert_eq!(payload, expected);
        }
    }
}
