//! Thread-safe serving metrics.
//!
//! One [`MetricsRegistry`] serves a whole [`Server`](crate::Server):
//! admission counters are lock-free atomics, and per-phase traffic is
//! aggregated lazily from each connection's
//! [`InstrumentHandle`]. Handles whose
//! transport has finished are folded into a frozen accumulator on the next
//! registration, so the registry's memory stays proportional to *live*
//! sessions, not total sessions served.

use abnn2_core::driver::ReplayCounters;
use abnn2_core::LineageStats;
use abnn2_net::{InstrumentHandle, PhaseStats, TagStats};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::pool::PoolSnapshot;

/// Point-in-time view of a server's counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Connections admitted into the accept queue.
    pub accepted: u64,
    /// Connections refused with a busy frame (queue full or draining).
    pub rejected: u64,
    /// Sessions that ran the protocol to completion.
    pub completed: u64,
    /// Sessions that ended in a protocol or transport error.
    pub failed: u64,
    /// Sessions the governor evicted for exceeding a resource budget
    /// (idle park deadline, outbound-queue cap, or inbound quota). Also
    /// counted in `failed`.
    pub evicted: u64,
    /// Sessions quarantined after panicking mid-protocol; their worker
    /// and sibling sessions kept running. Also counted in `failed`.
    pub panicked: u64,
    /// Event-loop worker restarts: panics that escaped a worker's loop
    /// and were caught on its own thread.
    pub worker_respawns: u64,
    /// Sessions currently being served by a worker.
    pub active: u64,
    /// Precompute-pool counters (zeroed when the pool is disabled).
    pub pool: PoolSnapshot,
    /// What the checkpoint store has seen of lineages — parked at a clean
    /// end, claimed by the next session, presented but not held, dropped
    /// unclaimed — and the bytes of them it holds now.
    pub lineage: LineageStats,
    /// What the session drivers spent on re-running starved steps, summed
    /// over every session that has ended.
    pub driver: ReplayCounters,
    /// Per-phase traffic summed over every session ever registered, in
    /// first-seen phase order (`handshake`, `setup`, `bundle`/`offline`,
    /// `online` for a typical server).
    pub phases: Vec<(String, PhaseStats)>,
    /// Per-frame-tag traffic summed over every session ever registered,
    /// ordered by tag byte ([`abnn2_net::wire::tags`] names them). Byte
    /// counts exclude the tag byte itself.
    pub tags: Vec<(u8, TagStats)>,
}

impl MetricsSnapshot {
    /// Total traffic for the phase and its `"{name}:…"` sub-phases
    /// ([`PhaseStats::sum_named`]), zero if the phase never ran.
    #[must_use]
    pub fn phase(&self, name: &str) -> PhaseStats {
        PhaseStats::sum_named(&self.phases, name)
    }

    /// Total traffic carried under the frame tag, zero if the tag was
    /// never seen.
    #[must_use]
    pub fn tag(&self, tag: u8) -> TagStats {
        self.tags.iter().find(|&&(t, _)| t == tag).map(|&(_, s)| s).unwrap_or_default()
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): admission counters, the session drivers' replay
    /// counters, the active-session and pool-ready gauges, and per-phase /
    /// per-frame-tag traffic as labelled counters. Tags are labelled with
    /// both the raw byte and the wire name from
    /// [`abnn2_net::wire::tags::name`]; tag byte counts
    /// exclude the tag byte itself, exactly as [`MetricsSnapshot::tags`]
    /// reports them.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter(
            "abnn2_serve_connections_accepted_total",
            "Connections admitted into the accept queue.",
            self.accepted,
        );
        counter(
            "abnn2_serve_connections_rejected_total",
            "Connections refused with a busy frame.",
            self.rejected,
        );
        counter(
            "abnn2_serve_sessions_completed_total",
            "Sessions that ran the protocol to completion.",
            self.completed,
        );
        counter(
            "abnn2_serve_sessions_failed_total",
            "Sessions that ended in a protocol or transport error.",
            self.failed,
        );
        counter(
            "abnn2_serve_sessions_evicted_total",
            "Sessions evicted by the governor for exceeding a resource budget.",
            self.evicted,
        );
        counter(
            "abnn2_serve_sessions_panicked_total",
            "Sessions quarantined after panicking mid-protocol.",
            self.panicked,
        );
        counter(
            "abnn2_serve_worker_respawns_total",
            "Event-loop worker loops restarted after a panic.",
            self.worker_respawns,
        );
        counter(
            "abnn2_serve_pool_produced_total",
            "Offline bundle pairs manufactured by the precompute pool.",
            self.pool.produced,
        );
        counter(
            "abnn2_serve_pool_hits_total",
            "Sessions served from a warm pool bundle.",
            self.pool.hits,
        );
        counter(
            "abnn2_serve_pool_misses_total",
            "Bundle requests that fell back to the cold offline phase.",
            self.pool.misses,
        );
        counter(
            "abnn2_serve_lineage_parked_total",
            "OT-extension lineages parked by sessions that ended cleanly.",
            self.lineage.parked,
        );
        counter(
            "abnn2_serve_lineage_claimed_total",
            "Sessions that continued a parked lineage instead of running base OTs.",
            self.lineage.claimed,
        );
        counter(
            "abnn2_serve_lineage_missed_total",
            "Lineage tokens presented that the store held nothing under.",
            self.lineage.missed,
        );
        counter(
            "abnn2_serve_lineage_evicted_total",
            "Parked lineages dropped unclaimed (store bounds, or overwritten).",
            self.lineage.evicted,
        );
        counter(
            "abnn2_serve_driver_attempts_total",
            "Session-driver step attempts: one per step plus one per park inside it.",
            self.driver.attempts,
        );
        counter(
            "abnn2_serve_driver_frames_reread_total",
            "Inbound frames handed to protocol code again after a starved attempt.",
            self.driver.frames_read - self.driver.frames_consumed,
        );
        for (name, help, ns) in [
            (
                "abnn2_serve_driver_replayed_seconds_total",
                "Time attempts spent repeating what an earlier attempt of the same step did.",
                self.driver.replayed_ns,
            ),
            (
                "abnn2_serve_driver_step_seconds_total",
                "All other time session drivers spent inside step attempts.",
                self.driver.step_ns,
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {:.6}", ns as f64 / 1e9);
        }

        let _ =
            writeln!(out, "# HELP abnn2_serve_sessions_active Sessions currently being served.");
        let _ = writeln!(out, "# TYPE abnn2_serve_sessions_active gauge");
        let _ = writeln!(out, "abnn2_serve_sessions_active {}", self.active);
        let _ = writeln!(
            out,
            "# HELP abnn2_serve_pool_ready Bundle pairs currently buffered in the pool."
        );
        let _ = writeln!(out, "# TYPE abnn2_serve_pool_ready gauge");
        let _ = writeln!(out, "abnn2_serve_pool_ready {}", self.pool.ready);
        let _ = writeln!(
            out,
            "# HELP abnn2_serve_lineage_parked_bytes Bytes of lineages parked in the store."
        );
        let _ = writeln!(out, "# TYPE abnn2_serve_lineage_parked_bytes gauge");
        let _ = writeln!(out, "abnn2_serve_lineage_parked_bytes {}", self.lineage.parked_bytes);

        let _ = writeln!(
            out,
            "# HELP abnn2_serve_phase_bytes_total Payload bytes per protocol phase and direction."
        );
        let _ = writeln!(out, "# TYPE abnn2_serve_phase_bytes_total counter");
        for (name, s) in &self.phases {
            let _ = writeln!(
                out,
                "abnn2_serve_phase_bytes_total{{phase=\"{name}\",direction=\"sent\"}} {}",
                s.bytes_sent
            );
            let _ = writeln!(
                out,
                "abnn2_serve_phase_bytes_total{{phase=\"{name}\",direction=\"received\"}} {}",
                s.bytes_received
            );
        }
        let _ = writeln!(
            out,
            "# HELP abnn2_serve_phase_messages_total Messages per protocol phase and direction."
        );
        let _ = writeln!(out, "# TYPE abnn2_serve_phase_messages_total counter");
        for (name, s) in &self.phases {
            let _ = writeln!(
                out,
                "abnn2_serve_phase_messages_total{{phase=\"{name}\",direction=\"sent\"}} {}",
                s.messages_sent
            );
            let _ = writeln!(
                out,
                "abnn2_serve_phase_messages_total{{phase=\"{name}\",direction=\"received\"}} {}",
                s.messages_received
            );
        }

        let _ = writeln!(
            out,
            "# HELP abnn2_serve_tag_bytes_total Frame payload bytes per wire tag and direction \
             (tag byte excluded)."
        );
        let _ = writeln!(out, "# TYPE abnn2_serve_tag_bytes_total counter");
        for &(tag, s) in &self.tags {
            let name = abnn2_net::wire::tags::name(tag);
            let _ = writeln!(
                out,
                "abnn2_serve_tag_bytes_total{{tag=\"0x{tag:02x}\",name=\"{name}\",\
                 direction=\"sent\"}} {}",
                s.bytes_sent
            );
            let _ = writeln!(
                out,
                "abnn2_serve_tag_bytes_total{{tag=\"0x{tag:02x}\",name=\"{name}\",\
                 direction=\"received\"}} {}",
                s.bytes_received
            );
        }
        let _ = writeln!(
            out,
            "# HELP abnn2_serve_tag_messages_total Frames per wire tag and direction."
        );
        let _ = writeln!(out, "# TYPE abnn2_serve_tag_messages_total counter");
        for &(tag, s) in &self.tags {
            let name = abnn2_net::wire::tags::name(tag);
            let _ = writeln!(
                out,
                "abnn2_serve_tag_messages_total{{tag=\"0x{tag:02x}\",name=\"{name}\",\
                 direction=\"sent\"}} {}",
                s.messages_sent
            );
            let _ = writeln!(
                out,
                "abnn2_serve_tag_messages_total{{tag=\"0x{tag:02x}\",name=\"{name}\",\
                 direction=\"received\"}} {}",
                s.messages_received
            );
        }
        out
    }
}

#[derive(Default)]
struct PhaseAggregate {
    /// Folded totals of finished sessions, in first-seen phase order.
    frozen: Vec<(String, PhaseStats)>,
    /// Folded per-frame-tag totals of finished sessions.
    frozen_tags: BTreeMap<u8, TagStats>,
    /// Handles of sessions that may still be producing traffic.
    live: Vec<InstrumentHandle>,
}

impl PhaseAggregate {
    fn fold_into_frozen(&mut self, handle: &InstrumentHandle) {
        PhaseStats::merge_named(&mut self.frozen, &handle.phases());
        for (tag, stats) in handle.tags() {
            self.frozen_tags.entry(tag).or_default().merge(&stats);
        }
    }

    fn compact(&mut self) {
        let mut i = 0;
        while i < self.live.len() {
            if self.live[i].is_finished() {
                let handle = self.live.swap_remove(i);
                self.fold_into_frozen(&handle);
            } else {
                i += 1;
            }
        }
    }

    fn totals(&self) -> Vec<(String, PhaseStats)> {
        let mut merged = self.frozen.clone();
        for handle in &self.live {
            PhaseStats::merge_named(&mut merged, &handle.phases());
        }
        merged
    }

    fn tag_totals(&self) -> Vec<(u8, TagStats)> {
        let mut merged = self.frozen_tags.clone();
        for handle in &self.live {
            for (tag, stats) in handle.tags() {
                merged.entry(tag).or_default().merge(&stats);
            }
        }
        merged.into_iter().collect()
    }
}

/// Shared counters and per-phase aggregation for one serving frontend.
#[derive(Default)]
pub struct MetricsRegistry {
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    evicted: AtomicU64,
    panicked: AtomicU64,
    worker_respawns: AtomicU64,
    active: AtomicU64,
    driver: Mutex<ReplayCounters>,
    phases: Mutex<PhaseAggregate>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("snapshot", &self.snapshot(PoolSnapshot::default(), LineageStats::default()))
            .finish()
    }
}

impl MetricsRegistry {
    /// Fresh registry with all counters at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an admitted connection.
    pub fn connection_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a busy-rejected connection.
    pub fn connection_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a session as started (bumps the active gauge).
    pub fn session_started(&self) {
        self.active.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a session as ended, recording its outcome.
    pub fn session_ended(&self, ok: bool) {
        self.active.fetch_sub(1, Ordering::Relaxed);
        if ok {
            self.completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sessions currently being served by a worker.
    #[must_use]
    pub fn active(&self) -> u64 {
        self.active.load(Ordering::Relaxed)
    }

    /// Records a governor eviction (the session also ends as failed via
    /// [`session_ended`](Self::session_ended)).
    pub fn session_evicted(&self) {
        self.evicted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a quarantined panicking session (the session also ends as
    /// failed via [`session_ended`](Self::session_ended)).
    pub fn session_panicked(&self) {
        self.panicked.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a worker loop restarted after a panic.
    pub fn worker_respawned(&self) {
        self.worker_respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds an ended session's driver counters to the totals.
    pub fn driver_finished(&self, c: ReplayCounters) {
        let mut total = self.driver.lock().expect("metrics lock");
        total.attempts += c.attempts;
        total.frames_read += c.frames_read;
        total.frames_consumed += c.frames_consumed;
        total.replayed_ns += c.replayed_ns;
        total.step_ns += c.step_ns;
    }

    /// Adds a session's instrument handle to the per-phase aggregation.
    /// Finished sessions are folded into the frozen totals as a side
    /// effect, bounding live-handle growth.
    pub fn register(&self, handle: InstrumentHandle) {
        let mut agg = self.phases.lock().expect("metrics lock");
        agg.compact();
        agg.live.push(handle);
    }

    /// Point-in-time snapshot; `pool` supplies the precompute-pool gauges
    /// (pass `PoolSnapshot::default()` when no pool is attached) and
    /// `lineage` the checkpoint store's lineage counters, which the store
    /// keeps because evictions happen inside it.
    #[must_use]
    pub fn snapshot(&self, pool: PoolSnapshot, lineage: LineageStats) -> MetricsSnapshot {
        let agg = self.phases.lock().expect("metrics lock");
        MetricsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            pool,
            lineage,
            driver: *self.driver.lock().expect("metrics lock"),
            phases: agg.totals(),
            tags: agg.tag_totals(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_net::{Endpoint, InstrumentedTransport, NetworkModel, Transport};

    #[test]
    fn counters_and_phase_aggregation() {
        let reg = MetricsRegistry::new();
        reg.connection_accepted();
        reg.connection_accepted();
        reg.connection_rejected();
        reg.session_started();
        reg.session_ended(true);
        reg.session_started();
        reg.session_ended(false);

        let (a, mut b) = Endpoint::pair(NetworkModel::instant());
        let mut t = InstrumentedTransport::new(a);
        reg.register(t.handle());
        t.enter_phase("online");
        t.send_u64(12345).unwrap();
        let _ = b.recv_u64().unwrap();

        let snap = reg.snapshot(PoolSnapshot::default(), LineageStats::default());
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.active, 0);
        // One u64 frame: 1 tag byte + 8 payload bytes.
        assert_eq!(snap.phase("online").bytes_sent, 9);
        assert_eq!(snap.phase("nonexistent"), PhaseStats::default());
        // Per-tag counters exclude the tag byte.
        assert_eq!(snap.tag(abnn2_net::wire::tags::U64).bytes_sent, 8);
        assert_eq!(snap.tag(abnn2_net::wire::tags::U64).messages_sent, 1);
        assert_eq!(snap.tag(abnn2_net::wire::tags::BLOCKS), TagStats::default());
    }

    #[test]
    fn prometheus_rendering_covers_every_counter_family() {
        let reg = MetricsRegistry::new();
        reg.connection_accepted();
        reg.connection_rejected();
        reg.session_started();
        reg.session_ended(true);

        let (a, mut b) = Endpoint::pair(NetworkModel::instant());
        let mut t = InstrumentedTransport::new(a);
        reg.register(t.handle());
        t.enter_phase("online");
        t.send_u64(42).unwrap();
        let _ = b.recv_u64().unwrap();

        reg.driver_finished(ReplayCounters {
            attempts: 7,
            frames_read: 12,
            frames_consumed: 9,
            replayed_ns: 1_500_000,
            step_ns: 2_000_000_000,
        });

        let lineage =
            LineageStats { parked: 5, claimed: 3, missed: 2, evicted: 1, parked_bytes: 96_256 };
        let text = reg.snapshot(PoolSnapshot::default(), lineage).render_prometheus();
        assert!(text.contains("abnn2_serve_driver_attempts_total 7"));
        assert!(text.contains("abnn2_serve_driver_frames_reread_total 3"));
        assert!(text.contains("abnn2_serve_driver_replayed_seconds_total 0.001500"));
        assert!(text.contains("abnn2_serve_driver_step_seconds_total 2.000000"));
        assert!(text.contains("abnn2_serve_lineage_parked_total 5"));
        assert!(text.contains("abnn2_serve_lineage_claimed_total 3"));
        assert!(text.contains("abnn2_serve_lineage_missed_total 2"));
        assert!(text.contains("abnn2_serve_lineage_evicted_total 1"));
        assert!(text.contains("abnn2_serve_lineage_parked_bytes 96256"));
        assert!(text.contains("abnn2_serve_connections_accepted_total 1"));
        assert!(text.contains("abnn2_serve_connections_rejected_total 1"));
        assert!(text.contains("abnn2_serve_sessions_completed_total 1"));
        assert!(text.contains("abnn2_serve_sessions_active 0"));
        // One u64 frame in the online phase: 9 bytes with the tag byte...
        assert!(
            text.contains("abnn2_serve_phase_bytes_total{phase=\"online\",direction=\"sent\"} 9")
        );
        // ...and 8 without it under the tag family, labelled by wire name.
        let tag = abnn2_net::wire::tags::U64;
        let name = abnn2_net::wire::tags::name(tag);
        assert!(text.contains(&format!(
            "abnn2_serve_tag_bytes_total{{tag=\"0x{tag:02x}\",name=\"{name}\",direction=\"sent\"}} 8"
        )));
        // Every sample line belongs to a HELPed family.
        for family in [
            "abnn2_serve_phase_messages_total",
            "abnn2_serve_tag_messages_total",
            "abnn2_serve_pool_ready",
            "abnn2_serve_lineage_parked_bytes",
        ] {
            assert!(text.contains(&format!("# TYPE {family} ")), "missing TYPE for {family}");
        }
    }

    #[test]
    fn finished_sessions_fold_into_frozen_totals() {
        let reg = MetricsRegistry::new();
        for _ in 0..3 {
            let (a, mut b) = Endpoint::pair(NetworkModel::instant());
            let mut t = InstrumentedTransport::new(a);
            reg.register(t.handle());
            t.enter_phase("online");
            t.send_u64(7).unwrap();
            let _ = b.recv_u64().unwrap();
            // Dropping the transport finishes its handle.
        }
        // Registration compacts; a fresh live session keeps counting.
        let (a, _b) = Endpoint::pair(NetworkModel::instant());
        let t = InstrumentedTransport::new(a);
        reg.register(t.handle());
        {
            let agg = reg.phases.lock().unwrap();
            assert_eq!(agg.live.len(), 1, "finished handles must be folded away");
            assert!(!agg.frozen.is_empty());
        }
        let snap = reg.snapshot(PoolSnapshot::default(), LineageStats::default());
        assert_eq!(snap.phase("online").bytes_sent, 27);
        assert_eq!(snap.phase("online").messages_sent, 3);
        // Frozen tag totals survive compaction: 3 × 8 payload bytes.
        assert_eq!(snap.tag(abnn2_net::wire::tags::U64).bytes_sent, 24);
    }
}
