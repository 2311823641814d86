//! Transport contract suite: every [`Transport`] implementation must agree
//! on round-trip delivery, typed-frame framing, error classification
//! (`Closed` vs `Malformed`) and application-byte accounting. The same
//! checks run against the simulated [`Endpoint`], a real localhost
//! [`TcpTransport`] pair, and the two decorators — a [`FaultyTransport`]
//! with an empty fault plan and an [`InstrumentedTransport`] — which must
//! be fully transparent.

use abnn2::core::frames::{MaskedClass, OutputShares};
use abnn2::crypto::Block;
use abnn2::gc::frames::GcLabels;
use abnn2::net::wire::tags;
use abnn2::net::{
    CommSnapshot, Endpoint, Fault, FaultyTransport, InstrumentedTransport, NetworkModel,
    TcpTransport, Transport, TransportError,
};
use std::net::TcpListener;
use std::thread;

/// Bidirectional delivery of raw bytes, a byte frame, a block frame and
/// the empty message, plus payload-only accounting — identical for every
/// transport.
fn check_round_trip_and_stats<A: Transport, B: Transport>(a: &mut A, b: &mut B) {
    let shares = OutputShares(0xDEAD_BEEF_u64.to_le_bytes().to_vec());
    let labels = GcLabels(vec![Block::from(1u128), Block::from(2u128)]);
    a.send(b"ping").unwrap();
    a.send_frame(&shares).unwrap();
    a.send_frame(&labels).unwrap();
    a.send(b"").unwrap();
    a.flush().unwrap();

    assert_eq!(b.recv().unwrap(), b"ping");
    assert_eq!(b.recv_frame(), Ok(shares));
    assert_eq!(b.recv_frame(), Ok(labels));
    assert_eq!(b.recv().unwrap(), b"");

    b.send_owned(vec![7u8; 3]).unwrap();
    b.flush().unwrap();
    assert_eq!(a.recv().unwrap(), vec![7u8; 3]);

    // Application payload bytes only: raw sends are untagged (4 + 0),
    // typed frames carry a one-byte tag (9 + 33); 3 the other way.
    let snap_a = a.snapshot();
    assert_eq!(snap_a.bytes_sent, 46);
    assert_eq!(snap_a.messages_sent, 4);
    assert_eq!(snap_a.bytes_received, 3);
    assert_eq!(b.snapshot().bytes_received, 46);
}

/// Typed receives must reject mistagged and wrong-length messages as
/// `Malformed`, naming the violated frame kind, and leave the connection
/// usable.
fn check_malformed_frames<A: Transport, B: Transport>(a: &mut A, b: &mut B) {
    a.send(b"123").unwrap();
    a.flush().unwrap();
    let got = b.recv_frame::<MaskedClass>();
    assert_eq!(got, Err(TransportError::Malformed("masked class index frame tag")));

    a.send(&[tags::MASKED_CLASS]).unwrap();
    a.flush().unwrap();
    let got = b.recv_frame::<MaskedClass>();
    assert_eq!(got, Err(TransportError::Malformed("masked class index frame length")));

    let mut blocks = vec![tags::GC_LABELS];
    blocks.extend_from_slice(&[0u8; 17]);
    a.send(&blocks).unwrap();
    a.flush().unwrap();
    let got = b.recv_frame::<GcLabels>();
    assert_eq!(got, Err(TransportError::Malformed("garbler input labels frame length")));

    // A framing violation is not a disconnection: traffic continues.
    a.send_frame(&MaskedClass(vec![99])).unwrap();
    a.flush().unwrap();
    assert_eq!(b.recv_frame(), Ok(MaskedClass(vec![99])));
}

/// Dropping one side must surface as `Closed` — never a hang or a panic.
fn check_disconnect<A: Transport, B: Transport>(a: A, b: &mut B) {
    drop(a);
    assert_eq!(b.recv(), Err(TransportError::Closed));
}

/// Connected localhost TCP pair.
fn tcp_pair() -> (TcpTransport, TcpTransport) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let client = thread::spawn(move || TcpTransport::connect(addr).expect("connect"));
    let (stream, _) = listener.accept().expect("accept");
    (TcpTransport::from_stream(stream).expect("wrap"), client.join().expect("join"))
}

mod endpoint {
    use super::*;

    #[test]
    fn round_trip_and_stats() {
        let (mut a, mut b) = Endpoint::pair(NetworkModel::instant());
        check_round_trip_and_stats(&mut a, &mut b);
    }

    #[test]
    fn malformed_frames() {
        let (mut a, mut b) = Endpoint::pair(NetworkModel::instant());
        check_malformed_frames(&mut a, &mut b);
    }

    #[test]
    fn disconnect() {
        let (a, mut b) = Endpoint::pair(NetworkModel::instant());
        check_disconnect(a, &mut b);
    }
}

mod tcp {
    use super::*;

    #[test]
    fn round_trip_and_stats() {
        let (mut a, mut b) = tcp_pair();
        check_round_trip_and_stats(&mut a, &mut b);
    }

    #[test]
    fn malformed_frames() {
        let (mut a, mut b) = tcp_pair();
        check_malformed_frames(&mut a, &mut b);
    }

    #[test]
    fn disconnect() {
        let (a, mut b) = tcp_pair();
        check_disconnect(a, &mut b);
    }
}

mod faulty_transparent {
    use super::*;

    fn pair() -> (FaultyTransport<Endpoint>, FaultyTransport<Endpoint>) {
        let (a, b) = Endpoint::pair(NetworkModel::instant());
        (FaultyTransport::new(a, Fault::None), FaultyTransport::new(b, Fault::None))
    }

    #[test]
    fn round_trip_and_stats() {
        let (mut a, mut b) = pair();
        check_round_trip_and_stats(&mut a, &mut b);
    }

    #[test]
    fn malformed_frames() {
        let (mut a, mut b) = pair();
        check_malformed_frames(&mut a, &mut b);
    }

    #[test]
    fn disconnect() {
        let (a, mut b) = pair();
        check_disconnect(a, &mut b);
    }
}

mod instrumented {
    use super::*;

    fn pair() -> (InstrumentedTransport<Endpoint>, InstrumentedTransport<Endpoint>) {
        let (a, b) = Endpoint::pair(NetworkModel::instant());
        (InstrumentedTransport::new(a), InstrumentedTransport::new(b))
    }

    #[test]
    fn round_trip_and_stats() {
        let (mut a, mut b) = pair();
        check_round_trip_and_stats(&mut a, &mut b);
    }

    #[test]
    fn malformed_frames() {
        let (mut a, mut b) = pair();
        check_malformed_frames(&mut a, &mut b);
    }

    #[test]
    fn disconnect() {
        let (a, mut b) = pair();
        check_disconnect(a, &mut b);
    }
}

/// An endpoint that records the phase marks that reach it.
struct MarkLog {
    inner: Endpoint,
    marks: Vec<String>,
}

impl Transport for MarkLog {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.inner.send(payload)
    }
    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        self.inner.recv()
    }
    fn snapshot(&self) -> CommSnapshot {
        self.inner.snapshot()
    }
    fn mark_phase(&mut self, label: &str) {
        self.marks.push(label.to_string());
    }
}

/// A phase mark is metered by the instrumented decorator and still reaches
/// the innermost transport through it and the faulty one.
#[test]
fn phase_marks_reach_the_innermost_transport_through_both_decorators() {
    let (a, _b) = Endpoint::pair(NetworkModel::instant());
    let log = MarkLog { inner: a, marks: Vec::new() };
    let mut ch = InstrumentedTransport::new(FaultyTransport::new(log, Fault::None));
    ch.mark_phase("offline");
    ch.mark_phase("online");
    let names: Vec<String> = ch.phases().into_iter().map(|(name, _)| name).collect();
    assert_eq!(names, ["setup", "offline", "online"]);
    assert_eq!(ch.into_inner().into_inner().marks, ["offline", "online"]);
}

/// The decorators compose over TCP exactly as over the simulator.
#[test]
fn faulty_over_tcp_truncates_one_message() {
    let (s, c) = tcp_pair();
    let mut s = FaultyTransport::new(s, Fault::TruncateMessage { index: 0, keep: 2 });
    let mut c = c;
    s.send_frame(&GcLabels(vec![Block::from(u128::MAX)])).unwrap();
    s.flush().unwrap();
    // keep = 2 leaves the tag byte plus one payload byte: the tag check
    // passes, the length check rejects.
    let got = c.recv_frame::<GcLabels>();
    assert_eq!(got, Err(TransportError::Malformed("garbler input labels frame length")));
}
