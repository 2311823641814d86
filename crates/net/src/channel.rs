//! Duplex in-process channels with byte accounting and a virtual clock.

use crate::transport::{Transport, TransportError};
use crate::NetworkModel;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

struct Packet {
    payload: Vec<u8>,
    /// Sender-side virtual departure time in seconds.
    depart_vtime: f64,
}

/// Point-in-time communication statistics, used to attribute traffic to
/// protocol phases (offline vs online).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CommSnapshot {
    /// Bytes this endpoint has sent so far.
    pub bytes_sent: u64,
    /// Bytes this endpoint has received so far.
    pub bytes_received: u64,
    /// Messages sent so far.
    pub messages_sent: u64,
    /// Virtual elapsed time so far.
    pub vtime: Duration,
}

impl CommSnapshot {
    /// Traffic between an earlier snapshot and this one.
    #[must_use]
    pub fn since(&self, earlier: &CommSnapshot) -> CommSnapshot {
        CommSnapshot {
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            bytes_received: self.bytes_received - earlier.bytes_received,
            messages_sent: self.messages_sent - earlier.messages_sent,
            vtime: self.vtime.saturating_sub(earlier.vtime),
        }
    }

    /// Total bytes crossing the wire in both directions.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }
}

/// One side of a duplex channel between the two protocol parties: the
/// simulated in-process implementation of [`Transport`].
///
/// Every [`Endpoint::send`]/[`Endpoint::recv`] advances a *virtual clock*:
/// real compute time since the previous channel operation is added, then the
/// network model charges serialization time (`len / bandwidth`) on send and
/// enforces `arrival ≥ departure + latency` on receive. The larger of the
/// two endpoints' final clocks is the simulated end-to-end protocol time.
pub struct Endpoint {
    tx: Sender<Packet>,
    rx: Receiver<Packet>,
    model: NetworkModel,
    vtime: f64,
    last_op: Instant,
    bytes_sent: u64,
    bytes_received: u64,
    messages_sent: u64,
    /// Real-time bound on a single blocking `recv` (a silent in-process
    /// peer is silent on the wall clock too).
    read_timeout: Option<Duration>,
    /// Virtual-clock deadline of the current phase budget: once `vtime`
    /// passes it, operations fail with `TimedOut`. This is the simulated
    /// equivalent of the TCP transport's wall-clock budget — a phase that
    /// would overrun its budget on the modelled network times out here too.
    vdeadline: Option<f64>,
    /// Reusable frame-serialization buffer (see [`Transport::take_scratch`]).
    scratch: Vec<u8>,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("bytes_sent", &self.bytes_sent)
            .field("bytes_received", &self.bytes_received)
            .field("vtime", &self.vtime)
            .finish()
    }
}

impl Endpoint {
    /// Creates a connected pair of endpoints sharing a network model.
    #[must_use]
    pub fn pair(model: NetworkModel) -> (Endpoint, Endpoint) {
        let (tx_ab, rx_ab) = channel();
        let (tx_ba, rx_ba) = channel();
        let mk = |tx, rx| Endpoint {
            tx,
            rx,
            model,
            vtime: 0.0,
            last_op: Instant::now(),
            bytes_sent: 0,
            bytes_received: 0,
            messages_sent: 0,
            read_timeout: None,
            vdeadline: None,
            scratch: Vec::new(),
        };
        (mk(tx_ab, rx_ba), mk(tx_ba, rx_ab))
    }

    fn absorb_compute(&mut self) {
        let now = Instant::now();
        self.vtime += now.duration_since(self.last_op).as_secs_f64();
        self.last_op = now;
    }

    /// Sends a byte message, taking ownership of the buffer. This is the
    /// zero-copy fast path: the buffer moves straight into the channel.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] if the peer endpoint was dropped.
    pub fn send_owned(&mut self, payload: Vec<u8>) -> Result<(), TransportError> {
        self.absorb_compute();
        if self.budget_spent() {
            return Err(TransportError::TimedOut);
        }
        self.vtime += self.model.transfer_secs(payload.len());
        self.bytes_sent += payload.len() as u64;
        self.messages_sent += 1;
        self.tx
            .send(Packet { payload, depart_vtime: self.vtime })
            .map_err(|_| TransportError::Closed)
    }

    /// Whether the virtual-clock phase budget has been exhausted.
    fn budget_spent(&self) -> bool {
        self.vdeadline.is_some_and(|dl| self.vtime > dl)
    }

    /// Sends a byte message to the peer.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] if the peer endpoint was dropped.
    pub fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.send_owned(payload.to_vec())
    }

    /// Receives the next byte message from the peer (blocking).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] if the peer endpoint was dropped.
    pub fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        if self.budget_spent() {
            return Err(TransportError::TimedOut);
        }
        let pkt = match self.read_timeout {
            None => self.rx.recv().map_err(|_| TransportError::Closed)?,
            Some(t) => self.rx.recv_timeout(t).map_err(|e| match e {
                RecvTimeoutError::Timeout => TransportError::TimedOut,
                RecvTimeoutError::Disconnected => TransportError::Closed,
            })?,
        };
        self.absorb_compute();
        let arrival = pkt.depart_vtime + self.model.one_way_latency().as_secs_f64();
        self.vtime = self.vtime.max(arrival);
        self.bytes_received += pkt.payload.len() as u64;
        if self.budget_spent() {
            // The message arrived, but only after the phase's virtual-time
            // budget ran out: on the modelled network this phase overran.
            return Err(TransportError::TimedOut);
        }
        Ok(pkt.payload)
    }

    /// Current communication statistics.
    #[must_use]
    pub fn snapshot(&self) -> CommSnapshot {
        CommSnapshot {
            bytes_sent: self.bytes_sent,
            bytes_received: self.bytes_received,
            messages_sent: self.messages_sent,
            vtime: Duration::from_secs_f64(self.vtime),
        }
    }

    /// Simulated elapsed time at this endpoint (compute + modelled network).
    #[must_use]
    pub fn vtime(&self) -> Duration {
        Duration::from_secs_f64(self.vtime)
    }

    /// The network model in force.
    #[must_use]
    pub fn model(&self) -> NetworkModel {
        self.model
    }
}

impl Transport for Endpoint {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        Endpoint::send(self, payload)
    }

    fn send_owned(&mut self, payload: Vec<u8>) -> Result<(), TransportError> {
        Endpoint::send_owned(self, payload)
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        Endpoint::recv(self)
    }

    fn snapshot(&self) -> CommSnapshot {
        Endpoint::snapshot(self)
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.read_timeout = timeout;
        Ok(())
    }

    fn set_phase_budget(&mut self, budget: Option<Duration>) -> Result<(), TransportError> {
        self.vdeadline = budget.map(|b| self.vtime + b.as_secs_f64());
        Ok(())
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

/// The dialing side of a simulated reconnectable link: every
/// [`dial`](SimDialer::dial) mints a fresh [`Endpoint`] pair and hands the
/// peer half to the matching [`SimListener`] — the in-process analogue of
/// `TcpTransport::connect` against a listening socket, used to exercise
/// reconnect-and-resume logic without real sockets.
#[derive(Debug)]
pub struct SimDialer {
    tx: Sender<Endpoint>,
    model: NetworkModel,
}

impl SimDialer {
    /// Establishes a fresh connection to the listener.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] if the listener is gone.
    pub fn dial(&self) -> Result<Endpoint, TransportError> {
        let (ours, theirs) = Endpoint::pair(self.model);
        self.tx.send(theirs).map_err(|_| TransportError::Closed)?;
        Ok(ours)
    }
}

/// The accepting side of a simulated reconnectable link.
#[derive(Debug)]
pub struct SimListener {
    rx: Receiver<Endpoint>,
}

impl SimListener {
    /// Blocks until the dialer connects.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] if the dialer is gone.
    pub fn accept(&self) -> Result<Endpoint, TransportError> {
        self.rx.recv().map_err(|_| TransportError::Closed)
    }

    /// Blocks until the dialer connects, or `timeout` elapses.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] if the dialer is gone, or
    /// [`TransportError::TimedOut`] if nothing dialed in time.
    pub fn accept_timeout(&self, timeout: Duration) -> Result<Endpoint, TransportError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => TransportError::TimedOut,
            RecvTimeoutError::Disconnected => TransportError::Closed,
        })
    }
}

/// Creates a simulated reconnectable link: a dialer/listener pair whose
/// connections are fresh [`Endpoint`] pairs under `model`.
#[must_use]
pub fn sim_link(model: NetworkModel) -> (SimDialer, SimListener) {
    let (tx, rx) = channel();
    (SimDialer { tx, model }, SimListener { rx })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::tags;
    use crate::wire::tests::{GcLabels, MaskedClass};
    use abnn2_crypto::Block;

    #[test]
    fn ping_pong_bytes_counted() {
        let (mut a, mut b) = Endpoint::pair(NetworkModel::instant());
        a.send(b"hello").unwrap();
        assert_eq!(b.recv().unwrap(), b"hello");
        b.send(b"worlds!").unwrap();
        assert_eq!(a.recv().unwrap(), b"worlds!");
        assert_eq!(a.snapshot().bytes_sent, 5);
        assert_eq!(a.snapshot().bytes_received, 7);
        assert_eq!(b.snapshot().bytes_sent, 7);
        assert_eq!(b.snapshot().messages_sent, 1);
    }

    #[test]
    fn exact_frame_round_trip() {
        let (mut a, mut b) = Endpoint::pair(NetworkModel::instant());
        a.send_frame(&MaskedClass(vec![0xA7])).unwrap();
        assert_eq!(b.recv_frame(), Ok(MaskedClass(vec![0xA7])));
        // One tag byte plus the 1-byte payload.
        assert_eq!(a.snapshot().bytes_sent, 2);
    }

    #[test]
    fn block_round_trip() {
        let (mut a, mut b) = Endpoint::pair(NetworkModel::instant());
        let blocks = GcLabels(vec![Block::from(1u128), Block::from(2u128)]);
        a.send_frame(&blocks).unwrap();
        assert_eq!(b.recv_frame(), Ok(blocks));
        assert_eq!(a.snapshot().bytes_sent, 33);
    }

    #[test]
    fn disconnect_surfaces_as_closed() {
        let (mut a, b) = Endpoint::pair(NetworkModel::instant());
        drop(b);
        assert_eq!(a.send(b"x"), Err(TransportError::Closed));
        assert_eq!(a.recv(), Err(TransportError::Closed));
    }

    #[test]
    fn mistagged_frame_rejected() {
        let (mut a, mut b) = Endpoint::pair(NetworkModel::instant());
        a.send(b"abc").unwrap();
        let got = b.recv_frame::<MaskedClass>();
        assert_eq!(got, Err(TransportError::Malformed("masked class index frame tag")));
    }

    #[test]
    fn short_exact_payload_rejected() {
        let (mut a, mut b) = Endpoint::pair(NetworkModel::instant());
        a.send(&[tags::MASKED_CLASS]).unwrap();
        let got = b.recv_frame::<MaskedClass>();
        assert_eq!(got, Err(TransportError::Malformed("masked class index frame length")));
    }

    #[test]
    fn malformed_blocks_rejected() {
        let (mut a, mut b) = Endpoint::pair(NetworkModel::instant());
        let mut ragged = vec![tags::GC_LABELS];
        ragged.extend_from_slice(&[0u8; 17]);
        a.send(&ragged).unwrap();
        let got = b.recv_frame::<GcLabels>();
        assert_eq!(got, Err(TransportError::Malformed("garbler input labels frame length")));
    }

    #[test]
    fn latency_charged_on_receive() {
        let model = NetworkModel::new(Duration::from_millis(100), 1e9);
        let (mut a, mut b) = Endpoint::pair(model);
        a.send(b"x").unwrap();
        let _ = b.recv().unwrap();
        assert!(b.vtime() >= Duration::from_millis(50), "vtime = {:?}", b.vtime());
    }

    #[test]
    fn bandwidth_charged_on_send() {
        let model = NetworkModel::new(Duration::ZERO, 1000.0); // 1 KB/s
        let (mut a, _b) = Endpoint::pair(model);
        a.send(&[0u8; 500]).unwrap();
        assert!(a.vtime() >= Duration::from_millis(499), "vtime = {:?}", a.vtime());
    }

    #[test]
    fn snapshot_delta() {
        let (mut a, mut b) = Endpoint::pair(NetworkModel::instant());
        a.send(b"12345").unwrap();
        let s1 = a.snapshot();
        a.send(b"678").unwrap();
        let d = a.snapshot().since(&s1);
        assert_eq!(d.bytes_sent, 3);
        assert_eq!(d.messages_sent, 1);
        let _ = b.recv();
        let _ = b.recv();
    }

    #[test]
    fn pipelined_sends_share_latency() {
        // Two back-to-back sends: receiver should not pay 2x latency because
        // arrivals overlap (max, not sum).
        let model = NetworkModel::new(Duration::from_millis(100), f64::INFINITY);
        let (mut a, mut b) = Endpoint::pair(model);
        a.send(b"1").unwrap();
        a.send(b"2").unwrap();
        let _ = b.recv().unwrap();
        let _ = b.recv().unwrap();
        assert!(b.vtime() < Duration::from_millis(70), "vtime = {:?}", b.vtime());
    }

    #[test]
    fn owned_send_counts_like_borrowed() {
        let (mut a, mut b) = Endpoint::pair(NetworkModel::instant());
        a.send_owned(vec![1, 2, 3, 4]).unwrap();
        assert_eq!(b.recv().unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(a.snapshot().bytes_sent, 4);
        assert_eq!(a.snapshot().messages_sent, 1);
    }
}
