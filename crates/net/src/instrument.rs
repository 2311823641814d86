//! Per-phase accounting [`Transport`] decorator.
//!
//! [`InstrumentedTransport`] wraps any transport and attributes traffic to
//! named phases (e.g. `"base-ot"`, `"offline"`, `"online"`). The wrapper
//! counts application payload bytes and messages itself — independent of the
//! inner transport's own counters — so phase attribution works identically
//! over the simulated [`Endpoint`](crate::Endpoint), real TCP, or any future
//! transport, which is what the paper's per-phase Comm. tables need.
//!
//! Phase stats live behind a shared, cloneable [`InstrumentHandle`]: any
//! number of observers can snapshot the counters concurrently while the
//! transport is in use on another thread — a multi-session server
//! aggregates live per-phase traffic across all of its connections this
//! way, without `&mut` access to any transport.

use crate::channel::CommSnapshot;
use crate::transport::{Transport, TransportError};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Traffic and wall-clock time attributed to one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseStats {
    /// Payload bytes sent during the phase.
    pub bytes_sent: u64,
    /// Payload bytes received during the phase.
    pub bytes_received: u64,
    /// Messages sent during the phase.
    pub messages_sent: u64,
    /// Messages received during the phase.
    pub messages_received: u64,
    /// Wall-clock time spent in the phase.
    pub elapsed: Duration,
}

impl PhaseStats {
    /// Accumulates `other` into `self` (counter-wise sum; elapsed adds).
    pub fn merge(&mut self, other: &PhaseStats) {
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.messages_sent += other.messages_sent;
        self.messages_received += other.messages_received;
        self.elapsed += other.elapsed;
    }

    /// Total payload bytes crossing the wire in both directions.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }

    /// Sum of the entries of `phases` named `name` or `"{name}:…"`: a
    /// phase together with the sub-phases the graph executor labels under
    /// it (`offline:op0/dense`, …). Zero if the phase never ran.
    #[must_use]
    pub fn sum_named(phases: &[(String, PhaseStats)], name: &str) -> PhaseStats {
        let prefix = format!("{name}:");
        let mut total = PhaseStats::default();
        for (n, s) in phases {
            if n == name || n.starts_with(&prefix) {
                total.merge(s);
            }
        }
        total
    }

    /// Folds `more` into `into` name by name. A name `into` has not seen
    /// goes to its end, so a list folded over any number of sessions stays
    /// in first-seen order (and holds each name once, where a session's own
    /// log opens a fresh entry every time a phase is re-entered).
    pub fn merge_named(into: &mut Vec<(String, PhaseStats)>, more: &[(String, PhaseStats)]) {
        for (name, stats) in more {
            match into.iter_mut().find(|(n, _)| n == name) {
                Some((_, total)) => total.merge(stats),
                None => into.push((name.clone(), *stats)),
            }
        }
    }
}

/// Traffic attributed to one frame tag (see [`crate::wire::tags`]).
///
/// Unlike [`PhaseStats`], byte counts here **exclude** the one-byte frame
/// tag: they are the frames' payload bytes, directly comparable to the
/// paper's per-message counts (e.g. the γ(N−1) masked-message bytes of
/// §4.1.3 for the KK13 triplet frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TagStats {
    /// Payload bytes sent under this tag (tag byte excluded).
    pub bytes_sent: u64,
    /// Payload bytes received under this tag (tag byte excluded).
    pub bytes_received: u64,
    /// Frames sent under this tag.
    pub messages_sent: u64,
    /// Frames received under this tag.
    pub messages_received: u64,
}

impl TagStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &TagStats) {
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.messages_sent += other.messages_sent;
        self.messages_received += other.messages_received;
    }

    /// Total payload bytes under this tag in both directions.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }
}

/// Shared, cloneable handle onto one session's phase and tag counters.
/// An [`InstrumentedTransport`] counts into it as frames cross; an event
/// loop that meters frames it never holds as a transport counts into it
/// directly ([`record_send`](Self::record_send),
/// [`record_recv`](Self::record_recv), [`enter_phase`](Self::enter_phase)).
/// Snapshots never block the session for longer than a counter update, and
/// remain valid after the transport is dropped (they report the final
/// state).
#[derive(Debug, Clone)]
pub struct InstrumentHandle {
    phases: Arc<Mutex<PhaseLog>>,
    /// Per-frame-tag counters, keyed by each message's leading tag byte.
    tags: Arc<Mutex<BTreeMap<u8, TagStats>>>,
}

/// Chronological phase entries plus the instant up to which the current
/// (last) entry's clock has been rolled.
#[derive(Debug)]
struct PhaseLog {
    entries: Vec<(String, PhaseStats)>,
    rolled_to: Instant,
}

impl PhaseLog {
    /// The current phase, with its clock rolled up to now.
    fn current(&mut self) -> &mut PhaseStats {
        let now = Instant::now();
        let stats = &mut self.entries.last_mut().expect("at least one phase").1;
        stats.elapsed += now.duration_since(self.rolled_to);
        self.rolled_to = now;
        stats
    }
}

impl Default for InstrumentHandle {
    fn default() -> Self {
        Self::new()
    }
}

impl InstrumentHandle {
    /// A fresh set of counters, opening an initial phase named `"setup"`.
    #[must_use]
    pub fn new() -> Self {
        let entries = vec![("setup".to_string(), PhaseStats::default())];
        InstrumentHandle {
            phases: Arc::new(Mutex::new(PhaseLog { entries, rolled_to: Instant::now() })),
            tags: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// Counts one sent frame of `len` bytes in total whose leading byte is
    /// `tag`. The current phase counts all `len` bytes; the tag counts the
    /// payload without its tag byte. An empty frame has no tag to count.
    pub fn record_send(&self, tag: u8, len: usize) {
        {
            let mut log = self.phases.lock().expect("instrument lock");
            let phase = log.current();
            phase.bytes_sent += len as u64;
            phase.messages_sent += 1;
        }
        if let Some(payload) = len.checked_sub(1) {
            let mut tags = self.tags.lock().expect("instrument lock");
            let entry = tags.entry(tag).or_default();
            entry.bytes_sent += payload as u64;
            entry.messages_sent += 1;
        }
    }

    /// Counts one received frame; see [`record_send`](Self::record_send).
    pub fn record_recv(&self, tag: u8, len: usize) {
        {
            let mut log = self.phases.lock().expect("instrument lock");
            let phase = log.current();
            phase.bytes_received += len as u64;
            phase.messages_received += 1;
        }
        if let Some(payload) = len.checked_sub(1) {
            let mut tags = self.tags.lock().expect("instrument lock");
            let entry = tags.entry(tag).or_default();
            entry.bytes_received += payload as u64;
            entry.messages_received += 1;
        }
    }

    /// Closes the current phase and opens a new one. Re-entering a name
    /// opens a fresh entry; entries are reported in chronological order.
    pub fn enter_phase(&self, name: &str) {
        let mut log = self.phases.lock().expect("instrument lock");
        log.current();
        log.entries.push((name.to_string(), PhaseStats::default()));
    }

    /// Snapshot of all phases in chronological order (current phase last,
    /// with its clock up to date as of the last channel operation).
    #[must_use]
    pub fn phases(&self) -> Vec<(String, PhaseStats)> {
        self.phases.lock().expect("instrument lock").entries.clone()
    }

    /// Sum over all phases.
    #[must_use]
    pub fn total(&self) -> PhaseStats {
        let mut total = PhaseStats::default();
        for (_, s) in self.phases.lock().expect("instrument lock").entries.iter() {
            total.merge(s);
        }
        total
    }

    /// Whether this is the last handle standing — the transport (and every
    /// other clone) has been dropped, so the counters are final. Lets a
    /// long-lived registry fold finished sessions into a frozen total
    /// instead of holding live handles forever.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        Arc::strong_count(&self.phases) == 1
    }

    /// Counters for one frame tag (zero if the tag never crossed the wire).
    #[must_use]
    pub fn tag(&self, tag: u8) -> TagStats {
        self.tags.lock().expect("instrument lock").get(&tag).copied().unwrap_or_default()
    }

    /// Every tag observed on the wire with its counters, in tag order.
    #[must_use]
    pub fn tags(&self) -> Vec<(u8, TagStats)> {
        self.tags.lock().expect("instrument lock").iter().map(|(&t, &s)| (t, s)).collect()
    }
}

/// Decorator recording per-phase byte/message/time counters, readable
/// concurrently through [`InstrumentHandle`]s.
pub struct InstrumentedTransport<T> {
    inner: T,
    handle: InstrumentHandle,
}

impl<T: Transport> InstrumentedTransport<T> {
    /// Wraps `inner`, opening an initial phase named `"setup"`.
    pub fn new(inner: T) -> Self {
        Self { inner, handle: InstrumentHandle::new() }
    }

    /// A cloneable read handle onto this transport's phase counters.
    #[must_use]
    pub fn handle(&self) -> InstrumentHandle {
        self.handle.clone()
    }

    /// Closes the current phase and opens a new one. Re-entering a name
    /// opens a fresh entry; entries are reported in chronological order.
    pub fn enter_phase(&mut self, name: &str) {
        self.handle.enter_phase(name);
    }

    /// All phases in chronological order (current phase last, with its
    /// clock up to date as of the last channel operation).
    #[must_use]
    pub fn phases(&self) -> Vec<(String, PhaseStats)> {
        self.handle.phases()
    }

    /// Unwraps the decorator, returning the inner transport. Handles stay
    /// valid and report the final counters.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Transport> Transport for InstrumentedTransport<T> {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.inner.send(payload)?;
        self.handle.record_send(payload.first().copied().unwrap_or(0), payload.len());
        Ok(())
    }

    fn send_owned(&mut self, payload: Vec<u8>) -> Result<(), TransportError> {
        let (tag, len) = (payload.first().copied().unwrap_or(0), payload.len());
        self.inner.send_owned(payload)?;
        self.handle.record_send(tag, len);
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        let payload = self.inner.recv()?;
        self.handle.record_recv(payload.first().copied().unwrap_or(0), payload.len());
        Ok(payload)
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
        self.enter_phase(label);
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

    #[test]
    fn traffic_is_attributed_to_phases() {
        let (a, mut b) = Endpoint::pair(NetworkModel::instant());
        let mut a = InstrumentedTransport::new(a);
        a.send(b"xy").unwrap();
        a.enter_phase("online");
        a.send_u64(1).unwrap();
        a.send_u64(2).unwrap();
        b.send(b"reply").unwrap();
        let _ = a.recv().unwrap();

        let setup = PhaseStats::sum_named(&a.phases(), "setup");
        assert_eq!(setup.bytes_sent, 2);
        assert_eq!(setup.messages_sent, 1);
        assert_eq!(setup.bytes_received, 0);

        let online = PhaseStats::sum_named(&a.phases(), "online");
        assert_eq!(online.bytes_sent, 18, "two u64 frames: 2 × (1 tag + 8 payload)");
        assert_eq!(online.messages_sent, 2);
        assert_eq!(online.bytes_received, 5);
        assert_eq!(online.messages_received, 1);

        // Global counters come from the inner transport, unchanged.
        assert_eq!(a.snapshot().bytes_sent, 20);
    }

    #[test]
    fn traffic_is_attributed_to_frame_tags() {
        use crate::wire::tags;
        let (a, mut b) = Endpoint::pair(NetworkModel::instant());
        let mut a = InstrumentedTransport::new(a);
        let handle = a.handle();
        a.send_u64(1).unwrap();
        a.send_u64(2).unwrap();
        a.send_blocks(&[abnn2_crypto::Block::from(7u128)]).unwrap();
        b.send_u64(3).unwrap();
        let _ = a.recv_u64().unwrap();

        // Tag counters exclude the tag byte: pure payload bytes.
        let u64s = handle.tag(tags::U64);
        assert_eq!(u64s.bytes_sent, 16);
        assert_eq!(u64s.messages_sent, 2);
        assert_eq!(u64s.bytes_received, 8);
        assert_eq!(u64s.messages_received, 1);
        let blocks = handle.tag(tags::BLOCKS);
        assert_eq!(blocks.bytes_sent, 16);
        assert_eq!(blocks.messages_sent, 1);
        assert_eq!(handle.tag(tags::HELLO), TagStats::default());
        assert_eq!(handle.tags().len(), 2);
        for _ in 0..3 {
            let _ = b.recv().unwrap();
        }
    }

    #[test]
    fn reentered_phase_gets_fresh_entry() {
        let (a, _b) = Endpoint::pair(NetworkModel::instant());
        let mut a = InstrumentedTransport::new(a);
        a.enter_phase("layer");
        a.enter_phase("relu");
        a.enter_phase("layer");
        assert_eq!(a.phases().len(), 4);
        assert_eq!(a.phases()[1].0, "layer");
        assert_eq!(a.phases()[3].0, "layer");
    }

    #[test]
    fn handle_snapshots_concurrently_and_survives_drop() {
        let (a, mut b) = Endpoint::pair(NetworkModel::instant());
        let mut a = InstrumentedTransport::new(a);
        let handle = a.handle();
        a.enter_phase("offline");

        std::thread::scope(|scope| {
            let watcher = scope.spawn(|| {
                // Live snapshot from another thread, no &mut access.
                loop {
                    if PhaseStats::sum_named(&handle.phases(), "offline").messages_sent >= 3 {
                        return;
                    }
                    std::thread::yield_now();
                }
            });
            for v in 0..3u64 {
                a.send_u64(v).unwrap();
            }
            watcher.join().unwrap();
        });
        for _ in 0..3 {
            let _ = b.recv().unwrap();
        }

        let handle2 = handle.clone();
        drop(a);
        assert_eq!(PhaseStats::sum_named(&handle2.phases(), "offline").bytes_sent, 27);
        assert_eq!(handle2.total().bytes_sent, 27);
    }

    #[test]
    fn merge_and_totals() {
        let mut a = PhaseStats {
            bytes_sent: 1,
            bytes_received: 2,
            messages_sent: 3,
            messages_received: 4,
            elapsed: Duration::from_millis(5),
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.bytes_sent, 2);
        assert_eq!(a.messages_received, 8);
        assert_eq!(a.elapsed, Duration::from_millis(10));
        assert_eq!(a.total_bytes(), 6);
    }

    #[test]
    fn named_lists_sum_by_prefix_and_merge_in_first_seen_order() {
        let sent = |bytes_sent| PhaseStats { bytes_sent, ..PhaseStats::default() };
        let list = |entries: &[(&str, u64)]| -> Vec<(String, PhaseStats)> {
            entries.iter().map(|&(n, b)| (n.to_string(), sent(b))).collect()
        };
        // One session's log: `setup` twice (the initial entry, then the mark).
        let first = list(&[("setup", 1), ("handshake", 2), ("setup", 4), ("offline:op0/dense", 8)]);
        let second = list(&[("handshake", 16), ("bundle", 32), ("offline", 64), ("offline2", 128)]);
        let mut merged = Vec::new();
        PhaseStats::merge_named(&mut merged, &first);
        PhaseStats::merge_named(&mut merged, &second);
        assert_eq!(
            merged,
            list(&[
                ("setup", 5),
                ("handshake", 18),
                ("offline:op0/dense", 8),
                ("bundle", 32),
                ("offline", 64),
                ("offline2", 128),
            ])
        );
        // A phase is its own entry and every `name:` sub-phase, nothing else.
        assert_eq!(PhaseStats::sum_named(&merged, "offline"), sent(8 + 64));
        assert_eq!(PhaseStats::sum_named(&merged, "setup"), sent(5));
        assert_eq!(PhaseStats::sum_named(&merged, "online"), PhaseStats::default());
    }
}
