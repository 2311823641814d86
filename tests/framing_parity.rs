//! Framing parity: the blocking face ([`TcpTransport::recv`]) and the
//! event-loop face ([`FrameBuffer::poll_read`]) of the length-prefixed
//! stream must agree byte for byte. One corpus of raw byte streams is
//! written into a real localhost socket pair, split into two segments at
//! every position, and both faces must return the same frames followed by
//! the same first error — which is also the outcome each corpus entry
//! states up front, so a change that moves both faces together still fails.

use abnn2::net::tcp::MAX_FRAME_LEN;
use abnn2::net::wire::tags;
use abnn2::net::{FrameBuffer, TcpTransport, Transport, TransportError};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Frames received before the stream ended, and the error that ended it.
type Outcome = (Vec<Vec<u8>>, TransportError);

/// `payload` behind its 4-byte little-endian length prefix.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

/// A `U64` frame: the one-byte tag plus exactly the 8 bytes its registry
/// ceiling allows.
fn u64_frame(v: u64) -> Vec<u8> {
    let mut payload = vec![tags::U64];
    payload.extend_from_slice(&v.to_le_bytes());
    payload
}

/// Writes `bytes[..split]` and `bytes[split..]` as two segments into one end
/// of a fresh socket pair, then closes it; returns the other end. Write
/// errors are ignored: a reader that rejected a prefix hangs up early.
fn feed(listener: &TcpListener, bytes: &[u8], split: usize) -> (TcpStream, thread::JoinHandle<()>) {
    let mut peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (stream, _) = listener.accept().expect("accept");
    peer.set_nodelay(true).expect("nodelay");
    let (head, tail) = (bytes[..split].to_vec(), bytes[split..].to_vec());
    let writer = thread::spawn(move || {
        let _ = peer.write_all(&head);
        if !head.is_empty() && !tail.is_empty() {
            // Let the first segment arrive alone; correctness does not
            // depend on the timing, only how often the split is observed.
            thread::sleep(Duration::from_millis(1));
        }
        let _ = peer.write_all(&tail);
    });
    (stream, writer)
}

/// Everything the blocking face returns up to its first error.
fn drain_blocking(stream: TcpStream) -> Outcome {
    let mut t = TcpTransport::from_stream(stream).expect("wrap");
    // A hang guard only: it would surface as `TimedOut` and fail the parity.
    t.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut frames = Vec::new();
    loop {
        match t.recv() {
            Ok(frame) => frames.push(frame),
            Err(e) => return (frames, e),
        }
    }
}

/// Everything the event-loop face returns up to its first error.
fn drain_polling(stream: TcpStream) -> Outcome {
    let mut fb = FrameBuffer::new(stream).expect("wrap");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut frames = Vec::new();
    loop {
        match fb.poll_read() {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => {
                assert!(Instant::now() < deadline, "no progress within deadline");
                thread::sleep(Duration::from_micros(100));
            }
            Err(e) => return (frames, e),
        }
    }
}

/// Runs `bytes` through both faces at every two-segment split and checks
/// each against `expected`.
fn check_at_every_split(listener: &TcpListener, name: &str, bytes: &[u8], expected: &Outcome) {
    for split in 0..=bytes.len() {
        let (stream, writer) = feed(listener, bytes, split);
        let blocking = drain_blocking(stream);
        writer.join().expect("writer");
        let (stream, writer) = feed(listener, bytes, split);
        let polling = drain_polling(stream);
        writer.join().expect("writer");
        assert_eq!(&blocking, expected, "{name}: TcpTransport::recv, split at {split}");
        assert_eq!(&polling, expected, "{name}: FrameBuffer::poll_read, split at {split}");
    }
}

#[test]
fn both_faces_return_the_same_frames_and_the_same_first_error() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let seven = u64_frame(7);
    let mut blocks = vec![tags::BLOCKS];
    blocks.extend_from_slice(&[0xA5; 17]);
    let mut over = vec![tags::U64];
    over.extend_from_slice(&[1; 9]);
    let closed = TransportError::Closed;
    let ceiling = TransportError::Malformed("frame length exceeds tag ceiling");
    let maximum = TransportError::Malformed("frame length exceeds maximum");

    // Several frames back to back: an unregistered tag, a typed scalar, a
    // block batch of the wrong shape (framing does not care), one byte.
    let several: Vec<Vec<u8>> = vec![b"one".to_vec(), seven.clone(), blocks, b"x".to_vec()];
    let stream: Vec<u8> = several.iter().flat_map(|f| framed(f)).collect();
    check_at_every_split(&listener, "several", &stream, &(several, closed));

    // An empty frame is a frame: no tag byte to bound, delivered as is.
    let with_empty: Vec<Vec<u8>> = vec![b"ab".to_vec(), Vec::new(), b"c".to_vec()];
    let stream: Vec<u8> = with_empty.iter().flat_map(|f| framed(f)).collect();
    check_at_every_split(&listener, "empty", &stream, &(with_empty, closed));

    // Exactly at the tag's ceiling: completes, and so does what follows.
    let at_ceiling: Vec<Vec<u8>> = vec![seven.clone(), b"ok".to_vec()];
    let stream: Vec<u8> = at_ceiling.iter().flat_map(|f| framed(f)).collect();
    check_at_every_split(&listener, "at ceiling", &stream, &(at_ceiling, closed));

    // One byte over it: rejected from header and tag alone; the frame
    // behind it is never delivered.
    let mut stream = framed(b"ok");
    stream.extend(framed(&over));
    stream.extend(framed(b"no"));
    check_at_every_split(&listener, "over ceiling", &stream, &(vec![b"ok".to_vec()], ceiling));

    // A prefix over MAX_FRAME_LEN: rejected from the header alone.
    let mut stream = framed(b"ok");
    stream.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
    stream.extend(framed(b"no"));
    check_at_every_split(&listener, "over maximum", &stream, &(vec![b"ok".to_vec()], maximum));
}

#[test]
fn eof_at_every_offset_of_a_frame_is_closed_on_both_faces() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let frames = [b"ab".to_vec(), u64_frame(9)];
    let stream: Vec<u8> = frames.iter().flat_map(|f| framed(f)).collect();
    let first_end = 4 + frames[0].len();
    for cut in 0..=stream.len() {
        // Whole frames inside the prefix arrive; EOF is `Closed` whether it
        // falls on a boundary, inside a header, after the tag or mid-payload.
        let whole = match cut {
            c if c == stream.len() => frames.to_vec(),
            c if c >= first_end => frames[..1].to_vec(),
            _ => Vec::new(),
        };
        let name = format!("eof at {cut}");
        check_at_every_split(&listener, &name, &stream[..cut], &(whole, TransportError::Closed));
    }
}
