//! The length-prefixed stream, once: the socket-free codec under both
//! [`TcpTransport`](crate::TcpTransport) (blocking) and
//! [`FrameBuffer`](crate::FrameBuffer) (event loop).
//!
//! A frame on the wire is a 4-byte little-endian payload length followed by
//! the payload, whose first byte is the frame's tag. [`FrameCodec`] holds
//! the three things every face of that stream needs and nothing that knows
//! about sockets:
//!
//! * a **reader** state machine (header → tag → payload) fed from any
//!   [`Read`]. The length is checked against
//!   [`MAX_FRAME_LEN`] and, once the tag byte
//!   is in, against the tag's registry ceiling
//!   ([`tags::max_len`], [`tags::UNREGISTERED_MAX_LEN`]) *before* the
//!   payload is allocated; the payload is then read straight into the
//!   `Vec` the caller receives. A source that has no bytes right now
//!   (`WouldBlock`/`TimedOut`) leaves the state where it is:
//!   `Ok(None)`, with [`mid_frame`](FrameCodec::mid_frame) telling a
//!   blocking caller whether the framing boundary is still intact;
//! * a **writer** queue: length prefix and payload appended to one buffer
//!   that drains into any [`Write`] with as few calls as the sink
//!   accepts, keeping its place across partial writes;
//! * one **sticky latch**: the first `Closed` or framing-level `Malformed`
//!   (and whatever a face adds through [`fail`](FrameCodec::fail)) is what
//!   every later read and drain reports, on both faces alike.

use crate::tcp::MAX_FRAME_LEN;
use crate::transport::TransportError;
use crate::wire::tags;
use std::io::{ErrorKind, Read, Write};

/// Which part of the current inbound frame the next bytes belong to.
#[derive(Debug)]
enum ReadState {
    /// Accumulating the 4-byte length prefix.
    Header { buf: [u8; 4], filled: usize },
    /// Length known; awaiting the tag byte that bounds the allocation.
    Tag { len: usize },
    /// Accumulating the payload of a frame whose length passed both bounds.
    Payload { buf: Vec<u8>, filled: usize },
}

const BOUNDARY: ReadState = ReadState::Header { buf: [0; 4], filled: 0 };

/// Reads into `buf[*filled..]` until it is full (`Ok(true)`) or the source
/// has nothing more right now (`Ok(false)`). EOF and every other error are
/// a vanished peer.
fn fill(src: &mut impl Read, buf: &mut [u8], filled: &mut usize) -> Result<bool, TransportError> {
    while *filled < buf.len() {
        match src.read(&mut buf[*filled..]) {
            Ok(0) => return Err(TransportError::Closed),
            Ok(n) => *filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if would_block(&e) => return Ok(false),
            Err(_) => return Err(TransportError::Closed),
        }
    }
    Ok(true)
}

/// A non-blocking socket with nothing to give or take, or a blocking one
/// whose `SO_RCVTIMEO` expired.
fn would_block(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Reader, writer queue and error latch of one length-prefixed stream. See
/// the module docs.
#[derive(Debug)]
pub(crate) struct FrameCodec {
    read: ReadState,
    /// Framed outbound bytes not yet accepted by the sink.
    wbuf: Vec<u8>,
    /// Prefix of `wbuf` already written (reset when fully drained).
    wpos: usize,
    /// First fatal error observed; latched and re-reported thereafter.
    sticky: Option<TransportError>,
}

impl FrameCodec {
    /// A codec at a frame boundary whose write queue starts with room for
    /// `write_capacity` bytes.
    pub(crate) fn new(write_capacity: usize) -> Self {
        let wbuf = Vec::with_capacity(write_capacity);
        FrameCodec { read: BOUNDARY, wbuf, wpos: 0, sticky: None }
    }

    /// Latches `err` as the stream's terminal state (the first one wins)
    /// and returns it.
    pub(crate) fn fail(&mut self, err: TransportError) -> TransportError {
        *self.sticky.get_or_insert(err)
    }

    /// Re-reports the latched failure, if any.
    pub(crate) fn check(&self) -> Result<(), TransportError> {
        self.sticky.map_or(Ok(()), Err)
    }

    /// Whether part of a frame has been consumed: a caller that gives up
    /// now (a read deadline) has lost the framing boundary.
    pub(crate) fn mid_frame(&self) -> bool {
        !matches!(self.read, ReadState::Header { filled: 0, .. })
    }

    /// Advances the current frame with whatever `src` has. `Ok(Some)` is a
    /// completed payload, `Ok(None)` means `src` would block.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] on EOF or a source error,
    /// [`TransportError::Malformed`] on a length prefix over
    /// [`MAX_FRAME_LEN`] or over the tag's ceiling. All are latched.
    pub(crate) fn read_from(
        &mut self,
        src: &mut impl Read,
    ) -> Result<Option<Vec<u8>>, TransportError> {
        self.check()?;
        loop {
            let mut tag = [0u8; 1];
            let full = match &mut self.read {
                ReadState::Header { buf, filled } => fill(src, buf, filled),
                ReadState::Tag { .. } => fill(src, &mut tag, &mut 0),
                ReadState::Payload { buf, filled } => fill(src, buf, filled),
            };
            match full {
                Ok(true) => {}
                Ok(false) => return Ok(None),
                Err(e) => return Err(self.fail(e)),
            }
            self.read = match std::mem::replace(&mut self.read, BOUNDARY) {
                ReadState::Header { buf, .. } => match u32::from_le_bytes(buf) as usize {
                    // Empty message: no tag byte to bound against; the
                    // decoder surfaces it as a typed Empty error.
                    0 => return Ok(Some(Vec::new())),
                    len if len > MAX_FRAME_LEN => {
                        return Err(
                            self.fail(TransportError::Malformed("frame length exceeds maximum"))
                        );
                    }
                    len => ReadState::Tag { len },
                },
                ReadState::Tag { len } => {
                    let ceiling = tags::max_len(tag[0]).unwrap_or(tags::UNREGISTERED_MAX_LEN);
                    if len - 1 > ceiling {
                        return Err(self
                            .fail(TransportError::Malformed("frame length exceeds tag ceiling")));
                    }
                    let mut buf = vec![0u8; len];
                    buf[0] = tag[0];
                    ReadState::Payload { buf, filled: 1 }
                }
                ReadState::Payload { buf, .. } => return Ok(Some(buf)),
            };
        }
    }

    /// Queues one frame: `payload` behind its length prefix.
    pub(crate) fn push(&mut self, payload: &[u8]) {
        debug_assert!(payload.len() <= MAX_FRAME_LEN, "oversized frame");
        self.wbuf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.wbuf.extend_from_slice(payload);
    }

    /// Queued bytes the sink has not accepted yet.
    pub(crate) fn queued(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Writes queued bytes until the queue is empty (`Ok(true)`) or `dst`
    /// would block (`Ok(false)`).
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] (latched) on a sink error.
    pub(crate) fn drain_into(&mut self, dst: &mut impl Write) -> Result<bool, TransportError> {
        self.check()?;
        while self.wpos < self.wbuf.len() {
            match dst.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(self.fail(TransportError::Closed)),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if would_block(&e) => return Ok(false),
                Err(_) => return Err(self.fail(TransportError::Closed)),
            }
        }
        // Fully drained: recycle the buffer's capacity for the next batch.
        self.wbuf.clear();
        self.wpos = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A source that serves `data` in bursts: `WouldBlock` once at each
    /// offset in `cuts` (sorted), EOF after the last byte. Records how
    /// often it was read and the largest buffer it was handed, which is
    /// the reader's largest allocation: payloads are read in place.
    struct Script<'a> {
        data: &'a [u8],
        pos: usize,
        cuts: &'a [usize],
        reads: usize,
        max_request: usize,
    }

    impl<'a> Script<'a> {
        fn new(data: &'a [u8], cuts: &'a [usize]) -> Self {
            Script { data, pos: 0, cuts, reads: 0, max_request: 0 }
        }
    }

    impl Read for Script<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.max_request = self.max_request.max(buf.len());
            let mut end = self.data.len();
            if let Some((&cut, rest)) = self.cuts.split_first() {
                if cut == self.pos {
                    self.cuts = rest;
                    return Err(ErrorKind::WouldBlock.into());
                }
                end = cut;
            }
            let n = buf.len().min(end - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Every frame up to the first error, riding out `Ok(None)`.
    fn drain(codec: &mut FrameCodec, src: &mut Script<'_>) -> (Vec<Vec<u8>>, TransportError) {
        let mut frames = Vec::new();
        loop {
            match codec.read_from(src) {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => {}
                Err(e) => return (frames, e),
            }
        }
    }

    /// Sorted, distinct offsets in `0..=len`, each with probability 1/3.
    fn random_cuts(rng: &mut StdRng, len: usize) -> Vec<usize> {
        (0..=len).filter(|_| rng.gen_range(0..3) == 0).collect()
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(payload);
        out
    }

    /// The registry ceiling the reader applies to `tag`.
    fn ceiling(tag: u8) -> usize {
        tags::max_len(tag).unwrap_or(tags::UNREGISTERED_MAX_LEN)
    }

    /// Largest legitimate frame the structured generator emits.
    const SMALL: usize = 48;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Valid frames, then one hostile header claiming up to a gigabyte,
        /// then more frames: in any chunking the reader yields exactly the
        /// valid prefix and the hostile header's error, never asks for a
        /// buffer larger than a legitimate frame, and answers from the
        /// latch afterwards without touching the source.
        #[test]
        fn hostile_header_is_rejected_before_allocation_in_any_chunking(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stream = Vec::new();
            let mut expected = Vec::new();
            for _ in 0..rng.gen_range(0..5) {
                let tag: u8 = rng.gen();
                let mut frame = vec![tag];
                let body = rng.gen_range(0..=ceiling(tag).min(SMALL - 1));
                frame.extend((0..body).map(|_| rng.gen::<u8>()));
                if rng.gen_range(0..6) == 0 {
                    frame.clear();
                }
                stream.extend(framed(&frame));
                expected.push(frame);
            }
            let error = match rng.gen_range(0..3) {
                0 => TransportError::Closed,
                1 => {
                    let over = rng.gen_range(MAX_FRAME_LEN as u32 + 1..=u32::MAX);
                    stream.extend_from_slice(&over.to_le_bytes());
                    TransportError::Malformed("frame length exceeds maximum")
                }
                _ => {
                    let small = [tags::U64, tags::MASKED_CLASS, tags::HELLO, 0xEE];
                    let tag = small[rng.gen_range(0..small.len())];
                    let len = rng.gen_range(ceiling(tag) + 2..=MAX_FRAME_LEN) as u32;
                    stream.extend_from_slice(&len.to_le_bytes());
                    stream.push(tag);
                    TransportError::Malformed("frame length exceeds tag ceiling")
                }
            };
            stream.extend(framed(b"never delivered"));
            if error == TransportError::Closed {
                // No hostile header: the stream just ends, mid-frame.
                stream.truncate(stream.len() - rng.gen_range(1..8usize));
            }

            let cuts = random_cuts(&mut rng, stream.len());
            let mut codec = FrameCodec::new(0);
            let mut src = Script::new(&stream, &cuts);
            prop_assert_eq!(drain(&mut codec, &mut src), (expected, error));
            prop_assert!(src.max_request <= SMALL, "asked for {} bytes", src.max_request);

            let reads = src.reads;
            prop_assert_eq!(codec.read_from(&mut src), Err(error));
            prop_assert_eq!(codec.drain_into(&mut Vec::new()), Err(error));
            prop_assert_eq!(src.reads, reads, "a latched reader must not read");
        }

        /// Arbitrary bytes (skewed toward small prefixes so parsing gets
        /// past the first header) never panic the reader, and any chunking
        /// yields what one-shot feeding yields.
        #[test]
        fn arbitrary_bytes_parse_the_same_in_any_chunking(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let alphabet = [0, 0, 0, 1, 2, 9, 10, tags::U64, tags::MASKED_CLASS, 0xFF];
            let stream: Vec<u8> = (0..rng.gen_range(0..96))
                .map(|_| match rng.gen() {
                    true => alphabet[rng.gen_range(0..alphabet.len())],
                    false => rng.gen(),
                })
                .collect();
            let one_shot = drain(&mut FrameCodec::new(0), &mut Script::new(&stream, &[]));
            let cuts = random_cuts(&mut rng, stream.len());
            let mut codec = FrameCodec::new(0);
            let chunked = drain(&mut codec, &mut Script::new(&stream, &cuts));
            prop_assert_eq!(&chunked, &one_shot);
            prop_assert_eq!(codec.check(), Err(one_shot.1));
            let delivered: usize = one_shot.0.iter().map(|f| 4 + f.len()).sum();
            prop_assert!(delivered <= stream.len());
        }

        /// The writer queue hands a sink that accepts a few bytes at a time
        /// exactly the prefixed frames, in order, whatever the pattern.
        #[test]
        fn queue_drains_through_partial_writes(seed: u64) {
            /// Accepts at most `step` bytes per call and would block on
            /// every other call.
            struct Trickle {
                out: Vec<u8>,
                step: usize,
                calls: usize,
            }
            impl Write for Trickle {
                fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                    self.calls += 1;
                    if self.calls.is_multiple_of(2) {
                        return Err(ErrorKind::WouldBlock.into());
                    }
                    let n = buf.len().min(self.step);
                    self.out.extend_from_slice(&buf[..n]);
                    Ok(n)
                }
                fn flush(&mut self) -> std::io::Result<()> {
                    Ok(())
                }
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let mut codec = FrameCodec::new(0);
            let mut sink = Trickle { out: Vec::new(), step: rng.gen_range(1..9), calls: 0 };
            let mut expected = Vec::new();
            for _ in 0..rng.gen_range(1..5) {
                let payload: Vec<u8> = (0..rng.gen_range(0..20)).map(|_| rng.gen()).collect();
                codec.push(&payload);
                expected.extend(framed(&payload));
                // Sometimes a sweep runs between two queued frames.
                if rng.gen() {
                    let _ = codec.drain_into(&mut sink).expect("drain");
                }
            }
            while !codec.drain_into(&mut sink).expect("drain") {
                prop_assert_eq!(codec.queued(), expected.len() - sink.out.len());
            }
            prop_assert_eq!(codec.queued(), 0);
            prop_assert_eq!(sink.out, expected);
        }
    }

    #[test]
    fn mid_frame_is_false_only_at_a_boundary() {
        let stream = framed(b"abc");
        for cut in 0..stream.len() {
            let cuts = [cut];
            let mut codec = FrameCodec::new(0);
            let mut src = Script::new(&stream, &cuts);
            assert_eq!(codec.read_from(&mut src), Ok(None));
            assert_eq!(codec.mid_frame(), cut > 0, "blocked after {cut} bytes");
            assert_eq!(codec.read_from(&mut src), Ok(Some(b"abc".to_vec())));
            assert!(!codec.mid_frame());
        }
    }

    #[test]
    fn the_first_failure_wins_the_latch() {
        let mut codec = FrameCodec::new(0);
        assert_eq!(codec.check(), Ok(()));
        assert_eq!(codec.fail(TransportError::TimedOut), TransportError::TimedOut);
        assert_eq!(codec.fail(TransportError::Closed), TransportError::TimedOut);
        assert_eq!(codec.check(), Err(TransportError::TimedOut));
    }
}
