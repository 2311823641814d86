//! Fault-injecting [`Transport`] decorator: a reusable robustness harness.
//!
//! [`FaultyTransport`] wraps any inner transport and perturbs its traffic
//! according to a [`FaultPlan`] — a composable sequence of [`Fault`]s
//! covering both directions: cut the connection after N sends or N
//! receives, cut once cumulative bytes exceed a budget, truncate or corrupt
//! individual messages, or delay a message's delivery. All typed helpers
//! (`send_u64`, `send_blocks`) route through `send`/`send_owned` and
//! `recv`, so a single interception point per direction covers every
//! protocol message kind — truncating "message 3" truncates a GC table or
//! an OT matrix just the same.
//!
//! Plans compose: every fault in the plan is consulted for every message,
//! cuts first (any cut that fires wins), then perturbations accumulate in
//! plan order. [`FaultPlan::seeded`] derives a reproducible random plan
//! from a seed, the unit of the chaos property suite: for *any* seed, a
//! protocol run must either complete exactly or fail with a typed error —
//! never hang, panic, or return a wrong answer.

use crate::channel::CommSnapshot;
use crate::transport::{Transport, TransportError};
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// One perturbation of a transport's traffic. Send-side faults key on the
/// 0-based send index; recv-side faults on the 0-based receive index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Deliver everything faithfully (baseline for contract tests).
    None,
    /// Fail with [`TransportError::Closed`] on send index `n` (0-based) and
    /// every send after it, simulating a peer that dies mid-protocol.
    CutAfterMessages(u64),
    /// Fail with [`TransportError::Closed`] once cumulative payload bytes
    /// sent would exceed `n`.
    CutAfterBytes(u64),
    /// Fail with [`TransportError::Closed`] on receive index `n` (0-based)
    /// and every receive after it: the *incoming* half of the link dies, so
    /// a receiver can be tested against a vanishing peer without wrapping
    /// the peer's side.
    CutRecvAfterMessages(u64),
    /// Deliver send index `n` truncated to `keep` bytes (saturating).
    TruncateMessage {
        /// 0-based index of the send to truncate.
        index: u64,
        /// Number of leading bytes to keep.
        keep: usize,
    },
    /// Deliver send index `n` with one byte XOR-flipped.
    CorruptMessage {
        /// 0-based index of the send to corrupt.
        index: u64,
        /// Byte offset to flip (reduced modulo the message length).
        byte: usize,
    },
    /// Deliver send index `n` with byte 0 — the frame's tag byte —
    /// XOR-flipped. Unlike a payload corruption (undetectable in the
    /// semi-honest model without MACs), a flipped tag is *always* caught by
    /// the typed wire layer: the receiver's `recv_frame` fails with a
    /// `Malformed` error naming the frame it expected.
    FlipTag {
        /// 0-based index of the send whose tag byte to flip.
        index: u64,
    },
    /// Stall send index `n` for `millis` before handing it to the inner
    /// transport (a congestion spike; trips read timeouts on the peer).
    DelaySend {
        /// 0-based index of the send to delay.
        index: u64,
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// Stall receive index `n` for `millis` before asking the inner
    /// transport for it (slow local delivery; trips phase budgets).
    DelayRecv {
        /// 0-based index of the receive to delay.
        index: u64,
        /// Stall duration in milliseconds.
        millis: u64,
    },
}

/// A composable sequence of [`Fault`]s applied together.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: fully transparent.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with a single fault.
    #[must_use]
    pub fn single(fault: Fault) -> Self {
        FaultPlan { faults: vec![fault] }
    }

    /// A plan composing the given faults (applied in order per message).
    #[must_use]
    pub fn of(faults: Vec<Fault>) -> Self {
        FaultPlan { faults }
    }

    /// Appends a fault (builder-style).
    #[must_use]
    pub fn and(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// The faults in this plan.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether the plan perturbs anything at all.
    #[must_use]
    pub fn is_transparent(&self) -> bool {
        self.faults.iter().all(|f| matches!(f, Fault::None))
    }

    /// Derives a reproducible random plan from `seed`: zero to two faults
    /// drawn from the full catalogue, with indices in `0..horizon` (the
    /// expected message-count scale of the protocol under test) and delays
    /// bounded by 50 ms. Roughly a quarter of seeds yield the transparent
    /// plan, so chaos suites also cover the fault-free path.
    #[must_use]
    pub fn seeded(seed: u64, horizon: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let horizon = horizon.max(1);
        let n_faults = match rng.gen_range(0u32..4) {
            0 => 0,
            1 | 2 => 1,
            _ => 2,
        };
        let mut faults = Vec::with_capacity(n_faults as usize);
        for _ in 0..n_faults {
            let index = rng.gen_range(0..horizon);
            faults.push(match rng.gen_range(0u32..7) {
                0 => Fault::CutAfterMessages(index),
                1 => Fault::CutAfterBytes(rng.gen_range(0..horizon * 64)),
                2 => Fault::CutRecvAfterMessages(index),
                3 => Fault::TruncateMessage { index, keep: rng.gen_range(0..64) },
                4 => Fault::CorruptMessage { index, byte: rng.gen_range(0..64) },
                5 => Fault::FlipTag { index },
                _ => Fault::DelaySend { index, millis: rng.gen_range(1..50) },
            });
        }
        FaultPlan { faults }
    }
}

impl From<Fault> for FaultPlan {
    fn from(fault: Fault) -> Self {
        FaultPlan::single(fault)
    }
}

/// Decorator applying a [`FaultPlan`] to an inner transport's traffic.
#[derive(Debug)]
pub struct FaultyTransport<T> {
    inner: T,
    plan: FaultPlan,
    sends: u64,
    recvs: u64,
    payload_bytes_sent: u64,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` with a single-fault plan (the common case).
    pub fn new(inner: T, fault: Fault) -> Self {
        Self::with_plan(inner, FaultPlan::single(fault))
    }

    /// Wraps `inner` with a composable fault plan.
    pub fn with_plan(inner: T, plan: FaultPlan) -> Self {
        Self { inner, plan, sends: 0, recvs: 0, payload_bytes_sent: 0 }
    }

    /// Unwraps the decorator, returning the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Number of sends attempted so far (including faulted ones).
    #[must_use]
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// Number of receives attempted so far (including faulted ones).
    #[must_use]
    pub fn recvs(&self) -> u64 {
        self.recvs
    }

    /// Replaces the fault plan mid-stream (counters keep running), letting
    /// a harness arm a fault at a point only known at runtime — e.g. "cut
    /// two sends after the offline phase completed".
    pub fn set_fault(&mut self, fault: Fault) {
        self.plan = FaultPlan::single(fault);
    }

    /// Applies the send-side faults for the current send index.
    /// `Ok(None)` means "deliver unchanged".
    fn perturb(&mut self, payload: &[u8]) -> Result<Option<Vec<u8>>, TransportError> {
        let index = self.sends;
        self.sends += 1;
        // Cuts fire before any delivery-altering fault.
        for fault in self.plan.faults.clone() {
            match fault {
                Fault::CutAfterMessages(n) if index >= n => return Err(TransportError::Closed),
                Fault::CutAfterBytes(n) if self.payload_bytes_sent + payload.len() as u64 > n => {
                    return Err(TransportError::Closed)
                }
                _ => {}
            }
        }
        let mut replacement: Option<Vec<u8>> = None;
        for fault in self.plan.faults.clone() {
            match fault {
                Fault::TruncateMessage { index: target, keep } if index == target => {
                    let cur = replacement.as_deref().unwrap_or(payload);
                    replacement = Some(cur[..keep.min(cur.len())].to_vec());
                }
                Fault::CorruptMessage { index: target, byte } if index == target => {
                    let mut cur = replacement.take().unwrap_or_else(|| payload.to_vec());
                    if !cur.is_empty() {
                        let at = byte % cur.len();
                        cur[at] ^= 0xA5;
                    }
                    replacement = Some(cur);
                }
                Fault::FlipTag { index: target } if index == target => {
                    let mut cur = replacement.take().unwrap_or_else(|| payload.to_vec());
                    if !cur.is_empty() {
                        cur[0] ^= 0xA5;
                    }
                    replacement = Some(cur);
                }
                Fault::DelaySend { index: target, millis } if index == target => {
                    std::thread::sleep(Duration::from_millis(millis));
                }
                _ => {}
            }
        }
        Ok(replacement)
    }

    /// Applies the recv-side faults for the current receive index before
    /// delegating to the inner transport.
    fn pre_recv(&mut self) -> Result<(), TransportError> {
        let index = self.recvs;
        self.recvs += 1;
        for fault in self.plan.faults.clone() {
            match fault {
                Fault::CutRecvAfterMessages(n) if index >= n => return Err(TransportError::Closed),
                Fault::DelayRecv { index: target, millis } if index == target => {
                    std::thread::sleep(Duration::from_millis(millis));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        match self.perturb(payload)? {
            Some(perturbed) => {
                self.payload_bytes_sent += perturbed.len() as u64;
                self.inner.send_owned(perturbed)
            }
            None => {
                self.payload_bytes_sent += payload.len() as u64;
                self.inner.send(payload)
            }
        }
    }

    fn send_owned(&mut self, payload: Vec<u8>) -> Result<(), TransportError> {
        match self.perturb(&payload)? {
            Some(perturbed) => {
                self.payload_bytes_sent += perturbed.len() as u64;
                self.inner.send_owned(perturbed)
            }
            None => {
                self.payload_bytes_sent += payload.len() as u64;
                self.inner.send_owned(payload)
            }
        }
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        self.pre_recv()?;
        self.inner.recv()
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        self.inner.flush()
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_read_timeout(timeout)
    }

    fn set_phase_budget(&mut self, budget: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_phase_budget(budget)
    }

    fn mark_phase(&mut self, label: &str) {
        self.inner.mark_phase(label);
    }

    fn snapshot(&self) -> CommSnapshot {
        self.inner.snapshot()
    }

    fn take_scratch(&mut self) -> Vec<u8> {
        self.inner.take_scratch()
    }

    fn store_scratch(&mut self, buf: Vec<u8>) {
        self.inner.store_scratch(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Endpoint, NetworkModel};

    fn faulty_pair(fault: Fault) -> (FaultyTransport<Endpoint>, Endpoint) {
        let (a, b) = Endpoint::pair(NetworkModel::instant());
        (FaultyTransport::new(a, fault), b)
    }

    #[test]
    fn none_is_transparent() {
        let (mut a, mut b) = faulty_pair(Fault::None);
        a.send_u64(5).unwrap();
        assert_eq!(b.recv_u64().unwrap(), 5);
        assert_eq!(a.snapshot().bytes_sent, 9);
    }

    #[test]
    fn cut_after_messages() {
        let (mut a, mut b) = faulty_pair(Fault::CutAfterMessages(2));
        a.send(b"1").unwrap();
        a.send(b"2").unwrap();
        assert_eq!(a.send(b"3"), Err(TransportError::Closed));
        assert_eq!(b.recv().unwrap(), b"1");
        assert_eq!(b.recv().unwrap(), b"2");
    }

    #[test]
    fn cut_after_bytes() {
        let (mut a, _b) = faulty_pair(Fault::CutAfterBytes(10));
        a.send(&[0u8; 8]).unwrap();
        assert_eq!(a.send(&[0u8; 8]), Err(TransportError::Closed));
    }

    #[test]
    fn truncation_shortens_exactly_one_message() {
        let (mut a, mut b) = faulty_pair(Fault::TruncateMessage { index: 1, keep: 3 });
        a.send(b"first").unwrap();
        a.send(b"second").unwrap();
        a.send(b"third").unwrap();
        assert_eq!(b.recv().unwrap(), b"first");
        assert_eq!(b.recv().unwrap(), b"sec");
        assert_eq!(b.recv().unwrap(), b"third");
    }

    #[test]
    fn corruption_flips_one_byte() {
        let (mut a, mut b) = faulty_pair(Fault::CorruptMessage { index: 0, byte: 1 });
        a.send(&[1, 2, 3]).unwrap();
        assert_eq!(b.recv().unwrap(), vec![1, 2 ^ 0xA5, 3]);
    }

    #[test]
    fn helpers_route_through_fault_plan() {
        // send_u64 / send_blocks must hit the same interception point. The
        // truncated frame keeps its tag byte, so the payload check fires.
        let (mut a, mut b) = faulty_pair(Fault::TruncateMessage { index: 0, keep: 4 });
        a.send_u64(u64::MAX).unwrap();
        assert_eq!(b.recv_u64(), Err(TransportError::Malformed("u64 frame length")));
        let _ = a;
    }

    #[test]
    fn flipped_tag_is_a_typed_frame_error() {
        let (mut a, mut b) = faulty_pair(Fault::FlipTag { index: 1 });
        a.send_u64(1).unwrap();
        a.send_u64(2).unwrap();
        assert_eq!(b.recv_u64().unwrap(), 1);
        // The payload is intact but the tag no longer matches: typed error
        // naming the expected frame, not a garbage value.
        assert_eq!(b.recv_u64(), Err(TransportError::Malformed("u64 frame tag")));
    }

    #[test]
    fn recv_cut_fails_the_receiving_side() {
        let (a, b) = Endpoint::pair(NetworkModel::instant());
        let mut a = FaultyTransport::new(a, Fault::CutRecvAfterMessages(1));
        let mut b = b;
        b.send(b"one").unwrap();
        b.send(b"two").unwrap();
        assert_eq!(a.recv().unwrap(), b"one");
        assert_eq!(a.recv(), Err(TransportError::Closed));
        // Sends are unaffected by a recv-side cut.
        a.send(b"still up").unwrap();
        assert_eq!(b.recv().unwrap(), b"still up");
    }

    #[test]
    fn delayed_recv_still_delivers() {
        let (a, mut b) = Endpoint::pair(NetworkModel::instant());
        let mut a = FaultyTransport::new(a, Fault::DelayRecv { index: 0, millis: 20 });
        b.send(b"slow").unwrap();
        let start = std::time::Instant::now();
        assert_eq!(a.recv().unwrap(), b"slow");
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn composed_plan_applies_faults_in_order() {
        let (a, mut b) = Endpoint::pair(NetworkModel::instant());
        let plan = FaultPlan::of(vec![
            Fault::TruncateMessage { index: 0, keep: 3 },
            Fault::CorruptMessage { index: 0, byte: 0 },
            Fault::CutAfterMessages(2),
        ]);
        let mut a = FaultyTransport::with_plan(a, plan);
        a.send(b"abcdef").unwrap();
        a.send(b"next").unwrap();
        assert_eq!(a.send(b"dead"), Err(TransportError::Closed));
        assert_eq!(b.recv().unwrap(), vec![b'a' ^ 0xA5, b'b', b'c']);
        assert_eq!(b.recv().unwrap(), b"next");
    }

    #[test]
    fn seeded_plans_are_reproducible_and_varied() {
        let a = FaultPlan::seeded(7, 40);
        let b = FaultPlan::seeded(7, 40);
        assert_eq!(a, b, "same seed, same plan");
        let distinct: std::collections::HashSet<String> =
            (0..32).map(|s| format!("{:?}", FaultPlan::seeded(s, 40))).collect();
        assert!(distinct.len() > 8, "plans must vary across seeds");
        assert!(
            (0..64).any(|s| FaultPlan::seeded(s, 40).is_transparent()),
            "some seeds must be fault-free"
        );
    }

    #[test]
    fn rearmed_fault_counts_from_wrap_time() {
        let (a, mut b) = Endpoint::pair(NetworkModel::instant());
        let mut a = FaultyTransport::new(a, Fault::None);
        a.send(b"1").unwrap();
        a.send(b"2").unwrap();
        // Arm a cut two sends from *now* using the running counter.
        a.set_fault(Fault::CutAfterMessages(a.sends() + 2));
        a.send(b"3").unwrap();
        a.send(b"4").unwrap();
        assert_eq!(a.send(b"5"), Err(TransportError::Closed));
        for expected in [b"1", b"2", b"3", b"4"] {
            assert_eq!(b.recv().unwrap(), expected);
        }
    }
}
