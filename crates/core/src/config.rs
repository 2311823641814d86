//! Shared execution options for the secure-inference parties.
//!
//! [`SecureServer`](crate::inference::SecureServer) and
//! [`SecureClient`](crate::inference::SecureClient) carry the same two knobs — the activation variant and the triplet
//! worker-thread count — with the same defaults and the same validation.
//! [`ExecConfig`] holds them once; the party types embed it and delegate
//! their builder methods here.

use crate::matmul::{TripletConfig, TripletMode};
use crate::relu::ReluVariant;
use abnn2_net::{Transport, TransportError};
use std::time::Duration;

/// Validates a worker-thread count.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub(crate) fn checked_threads(threads: usize) -> usize {
    assert!(threads > 0, "thread count must be positive");
    threads
}

/// Execution options shared by every inference party: activation variant
/// (must match the peer's) and triplet worker threads (local-only; the
/// transcript is identical for any thread count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Activation protocol variant. Both parties must agree.
    pub variant: ReluVariant,
    /// Worker threads for triplet mask computation (1 = the paper's
    /// single-core setting).
    pub threads: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { variant: ReluVariant::Oblivious, threads: 1 }
    }
}

impl ExecConfig {
    /// The paper's defaults: oblivious ReLU, single-core.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the activation variant.
    #[must_use]
    pub fn with_variant(mut self, variant: ReluVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Sets the worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = checked_threads(threads);
        self
    }

    /// The triplet configuration for an explicit message-layout mode.
    #[must_use]
    pub fn triplet(&self, mode: TripletMode) -> TripletConfig {
        TripletConfig::new(mode).with_threads(self.threads)
    }

    /// The triplet configuration with the paper's batch-size selection rule.
    #[must_use]
    pub fn triplet_for_batch(&self, o: usize) -> TripletConfig {
        TripletConfig::for_batch(o).with_threads(self.threads)
    }
}

/// Deadline budget for a resilient session, applied via
/// [`Transport::set_read_timeout`] and [`Transport::set_phase_budget`].
///
/// `None` anywhere means "unbounded" for that knob. The defaults
/// ([`SessionDeadlines::default`]) are deliberately unbounded so plain
/// (non-resilient) runs behave exactly as before; the resilient drivers
/// default to [`SessionDeadlines::lan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionDeadlines {
    /// Longest a single `recv` may block waiting for the peer.
    pub read_timeout: Option<Duration>,
    /// Budget for the whole offline phase (handshake + base OTs +
    /// triplets).
    pub offline_budget: Option<Duration>,
    /// Budget for the whole online phase.
    pub online_budget: Option<Duration>,
}

impl SessionDeadlines {
    /// No deadlines at all: every operation may block forever.
    #[must_use]
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Generous defaults for a LAN: 10 s per read, 120 s per phase.
    #[must_use]
    pub fn lan() -> Self {
        SessionDeadlines {
            read_timeout: Some(Duration::from_secs(10)),
            offline_budget: Some(Duration::from_secs(120)),
            online_budget: Some(Duration::from_secs(120)),
        }
    }

    /// Uniform read timeout with phase budgets at 20× that, handy for
    /// tests that want everything to fail fast.
    #[must_use]
    pub fn uniform(read_timeout: Duration) -> Self {
        SessionDeadlines {
            read_timeout: Some(read_timeout),
            offline_budget: Some(read_timeout * 20),
            online_budget: Some(read_timeout * 20),
        }
    }

    /// The phase budget a session is under from the mark `mark` on, for
    /// the marks that change it: `"setup"` (the hellos are over) arms the
    /// offline budget across setup, bundle and offline phase, `"online"`
    /// the online budget, `"done"` lifts it. Both parties and every pump
    /// place their budgets by this one rule.
    #[must_use]
    pub fn budget_from(&self, mark: &str) -> Option<Option<Duration>> {
        match mark {
            "setup" => Some(self.offline_budget),
            "online" => Some(self.online_budget),
            "done" => Some(None),
            _ => None,
        }
    }

    /// [`budget_from`](Self::budget_from) applied to a blocking transport.
    ///
    /// # Errors
    ///
    /// Whatever [`Transport::set_phase_budget`] reports.
    pub fn arm<T: Transport>(&self, ch: &mut T, mark: &str) -> Result<(), TransportError> {
        match self.budget_from(mark) {
            Some(budget) => ch.set_phase_budget(budget),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let cfg = ExecConfig::new();
        assert_eq!(cfg.variant, ReluVariant::Oblivious);
        assert_eq!(cfg.threads, 1);
    }

    #[test]
    fn builders_compose() {
        let cfg = ExecConfig::new().with_variant(ReluVariant::Optimized).with_threads(4);
        assert_eq!(cfg.variant, ReluVariant::Optimized);
        assert_eq!(cfg.triplet_for_batch(1).threads, 4);
        assert_eq!(cfg.triplet_for_batch(1).mode, TripletMode::OneBatch);
        assert_eq!(cfg.triplet_for_batch(3).mode, TripletMode::MultiBatch);
        assert_eq!(cfg.triplet(TripletMode::OneBatch).mode, TripletMode::OneBatch);
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_threads_rejected() {
        let _ = ExecConfig::new().with_threads(0);
    }

    #[test]
    fn deadline_presets() {
        assert_eq!(SessionDeadlines::unbounded(), SessionDeadlines::default());
        assert!(SessionDeadlines::unbounded().read_timeout.is_none());
        let lan = SessionDeadlines::lan();
        assert!(lan.read_timeout.unwrap() < lan.offline_budget.unwrap());
        let u = SessionDeadlines::uniform(Duration::from_millis(100));
        assert_eq!(u.read_timeout, Some(Duration::from_millis(100)));
        assert_eq!(u.online_budget, Some(Duration::from_secs(2)));
    }

    #[test]
    fn marks_arm_the_budget_of_the_phase_they_open() {
        let d = SessionDeadlines {
            read_timeout: None,
            offline_budget: Some(Duration::from_secs(3)),
            online_budget: None,
        };
        assert_eq!(d.budget_from("setup"), Some(Some(Duration::from_secs(3))));
        assert_eq!(d.budget_from("online"), Some(None), "unbounded, but it replaces offline's");
        assert_eq!(d.budget_from("done"), Some(None));
        for inside in ["handshake", "bundle", "offline", "offline:op0/dense", "online:op1/relu"] {
            assert_eq!(d.budget_from(inside), None, "{inside} runs under the budget in force");
        }
    }
}
