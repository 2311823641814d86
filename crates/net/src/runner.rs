//! Two-party protocol runner and the reconnect-and-resume driver.

use crate::transport::TransportError;
use crate::{CommSnapshot, Endpoint, NetworkModel};
use std::time::{Duration, Instant};

/// End-of-run traffic and timing report for a two-party execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficReport {
    /// Final statistics at the server endpoint.
    pub server: CommSnapshot,
    /// Final statistics at the client endpoint.
    pub client: CommSnapshot,
    /// Wall-clock duration of the run (both threads).
    pub wall: Duration,
}

impl TrafficReport {
    /// Total bytes on the wire in both directions.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.server.bytes_sent + self.client.bytes_sent
    }

    /// Total bytes as mebibytes, the unit of the paper's tables.
    #[must_use]
    pub fn total_mib(&self) -> f64 {
        self.total_bytes() as f64 / (1024.0 * 1024.0)
    }

    /// Simulated end-to-end protocol time: the later of the two endpoints'
    /// virtual clocks.
    #[must_use]
    pub fn simulated_time(&self) -> Duration {
        self.server.vtime.max(self.client.vtime)
    }
}

/// Runs a server closure and a client closure on two threads connected by a
/// channel pair under `model`, returning both results and the traffic
/// report.
///
/// # Panics
///
/// Panics if either party panics (the panic is propagated).
pub fn run_pair<A, B, FS, FC>(model: NetworkModel, server: FS, client: FC) -> (A, B, TrafficReport)
where
    A: Send,
    B: Send,
    FS: FnOnce(&mut Endpoint) -> A + Send,
    FC: FnOnce(&mut Endpoint) -> B + Send,
{
    let (mut ep_s, mut ep_c) = Endpoint::pair(model);
    let start = Instant::now();
    let (a, snap_s, b, snap_c) = std::thread::scope(|scope| {
        let hs = scope.spawn(move || {
            let a = server(&mut ep_s);
            (a, ep_s.snapshot())
        });
        let hc = scope.spawn(move || {
            let b = client(&mut ep_c);
            (b, ep_c.snapshot())
        });
        let (a, snap_s) = hs.join().expect("server thread panicked");
        let (b, snap_c) = hc.join().expect("client thread panicked");
        (a, snap_s, b, snap_c)
    });
    let report = TrafficReport { server: snap_s, client: snap_c, wall: start.elapsed() };
    (a, b, report)
}

/// Errors that can classify themselves as transient (worth reconnecting and
/// retrying) or fatal (a protocol violation or negotiation failure that a
/// fresh connection cannot fix).
pub trait Retryable {
    /// Whether reconnecting and retrying could plausibly clear the error.
    fn is_retryable(&self) -> bool;

    /// The wait the peer asked for before the next attempt, when the error
    /// is a refusal that names one (a busy server's hint). An error with a
    /// hint is retried after that wait even if it is not
    /// [`is_retryable`](Self::is_retryable); a zero hint defers to the
    /// caller's own backoff.
    fn retry_after(&self) -> Option<Duration> {
        None
    }
}

impl Retryable for TransportError {
    fn is_retryable(&self) -> bool {
        TransportError::is_retryable(self)
    }
}

/// Reconnection schedule: capped exponential backoff with deterministic
/// jitter.
///
/// Attempt `k` (0-based) sleeps `min(base_delay * 2^k, max_delay)` scaled by
/// a jitter factor in `[0.5, 1.0]` derived from `jitter_seed` and `k`
/// (SplitMix64), so two parties retrying simultaneously with different seeds
/// do not reconnect in lockstep, yet every schedule is reproducible in
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total connection attempts (first try included). Must be ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_delay: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` retries and zero backoff, for tests that
    /// must not sleep.
    #[must_use]
    pub fn no_delay(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter_seed: 0,
        }
    }

    /// The backoff sleep before retry number `attempt` (1-based retry index:
    /// `backoff(1)` precedes the second connection attempt).
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let raw = self.base_delay.saturating_mul(1u32 << exp);
        let capped = raw.min(self.max_delay);
        // SplitMix64 on (seed, attempt) -> jitter factor in [0.5, 1.0].
        let mut z =
            self.jitter_seed.wrapping_add(u64::from(attempt)).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let factor = 0.5 + (z >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
        capped.mul_f64(factor)
    }
}

/// Drives a fallible protocol body through connect → run → reconnect cycles
/// under a [`RetryPolicy`].
///
/// The driver owns only the *schedule*; what state survives a reconnect
/// (e.g. checkpointed offline-phase triplets) is the body's business — the
/// body closure is handed the attempt number so it can distinguish a fresh
/// run from a resumption.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResilientDriver {
    /// The reconnection schedule.
    pub policy: RetryPolicy,
}

impl ResilientDriver {
    /// Creates a driver with the given policy.
    #[must_use]
    pub fn new(policy: RetryPolicy) -> Self {
        ResilientDriver { policy }
    }

    /// Runs `body` over transports minted by `connect`, reconnecting and
    /// retrying on retryable errors until the policy's attempt budget is
    /// exhausted.
    ///
    /// `connect(attempt)` establishes a fresh transport for the given
    /// 0-based attempt; `body(&mut transport, attempt)` runs the protocol.
    /// An error that carries a [`retry_after`](Retryable::retry_after) hint
    /// is retried after sleeping the hint (the policy's backoff when it is
    /// zero) instead of the policy's backoff; each such wait uses one
    /// attempt of the same budget. Any other fatal (non-retryable) error
    /// from either closure aborts immediately; the last error is returned
    /// when attempts run out.
    ///
    /// # Errors
    ///
    /// The first fatal error, or the last retryable error once
    /// `policy.max_attempts` attempts have failed.
    pub fn run<T, S, E, C, F>(&self, mut connect: C, mut body: F) -> Result<S, E>
    where
        E: Retryable + From<TransportError>,
        C: FnMut(u32) -> Result<T, TransportError>,
        F: FnMut(&mut T, u32) -> Result<S, E>,
    {
        let attempts = self.policy.max_attempts.max(1);
        let mut last_err: Option<E> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                let hint = last_err.as_ref().and_then(E::retry_after).filter(|d| !d.is_zero());
                let pause = hint.unwrap_or_else(|| self.policy.backoff(attempt));
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
            let mut transport = match connect(attempt) {
                Ok(t) => t,
                Err(e) => {
                    let retryable = e.is_retryable();
                    let e = E::from(e);
                    if !retryable {
                        return Err(e);
                    }
                    last_err = Some(e);
                    continue;
                }
            };
            match body(&mut transport, attempt) {
                Ok(out) => return Ok(out),
                Err(e) => {
                    if !e.is_retryable() && e.retry_after().is_none() {
                        return Err(e);
                    }
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.expect("at least one attempt ran"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;

    #[test]
    fn results_and_report() {
        let (a, b, report) = run_pair(
            NetworkModel::instant(),
            |ch| {
                ch.send_u64(21).unwrap();
                ch.recv_u64().unwrap()
            },
            |ch| {
                let v = ch.recv_u64().unwrap();
                ch.send_u64(v * 2).unwrap();
                v
            },
        );
        assert_eq!(a, 42);
        assert_eq!(b, 21);
        // Two u64 frames: 2 × (1 tag + 8 payload) bytes.
        assert_eq!(report.total_bytes(), 18);
        assert!(report.simulated_time() <= report.wall + Duration::from_millis(50));
    }

    #[test]
    fn wan_latency_dominates_round_trips() {
        let rounds = 5u64;
        let (_, _, report) = run_pair(
            NetworkModel::wan_secureml(),
            |ch| {
                for i in 0..rounds {
                    ch.send_u64(i).unwrap();
                    ch.recv_u64().unwrap();
                }
            },
            |ch| {
                for _ in 0..rounds {
                    let v = ch.recv_u64().unwrap();
                    ch.send_u64(v).unwrap();
                }
            },
        );
        // 5 round trips at 72 ms RTT ≈ 360 ms simulated, regardless of the
        // (much smaller) wall time.
        assert!(report.simulated_time() >= Duration::from_millis(350));
        assert!(report.wall < Duration::from_millis(200));
    }

    #[test]
    fn mib_conversion() {
        let report = TrafficReport {
            server: CommSnapshot { bytes_sent: 1024 * 1024, ..Default::default() },
            client: CommSnapshot::default(),
            wall: Duration::ZERO,
        };
        assert_eq!(report.total_mib(), 1.0);
    }

    #[test]
    fn backoff_grows_capped_and_jittered() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_millis(450),
            jitter_seed: 3,
        };
        // Jitter keeps each sleep within [0.5, 1.0] of the capped nominal.
        for (attempt, nominal_ms) in [(1u32, 100u64), (2, 200), (3, 400), (4, 450), (9, 450)] {
            let b = p.backoff(attempt);
            let nominal = Duration::from_millis(nominal_ms);
            assert!(b >= nominal / 2, "attempt {attempt}: {b:?} < {:?}", nominal / 2);
            assert!(b <= nominal, "attempt {attempt}: {b:?} > {nominal:?}");
        }
        // Deterministic per (seed, attempt); varies across seeds.
        assert_eq!(p.backoff(2), p.backoff(2));
        let q = RetryPolicy { jitter_seed: 4, ..p };
        assert_ne!(p.backoff(2), q.backoff(2));
    }

    #[test]
    fn driver_retries_then_succeeds() {
        let driver = ResilientDriver::new(RetryPolicy::no_delay(3));
        let mut bodies = 0u32;
        let out: Result<u32, TransportError> = driver.run(
            |_attempt| Ok(()),
            |_t, attempt| {
                bodies += 1;
                if attempt < 2 {
                    Err(TransportError::Closed)
                } else {
                    Ok(attempt)
                }
            },
        );
        assert_eq!(out, Ok(2));
        assert_eq!(bodies, 3);
    }

    #[test]
    fn driver_stops_on_fatal_error() {
        let driver = ResilientDriver::new(RetryPolicy::no_delay(5));
        let mut bodies = 0u32;
        let out: Result<(), TransportError> = driver.run(
            |_attempt| Ok(()),
            |_t, _attempt| {
                bodies += 1;
                Err(TransportError::Malformed("protocol bug"))
            },
        );
        assert_eq!(out, Err(TransportError::Malformed("protocol bug")));
        assert_eq!(bodies, 1, "fatal errors must not be retried");
    }

    /// A refusal that names its own wait, beside a link error.
    #[derive(Debug, PartialEq)]
    enum Refusal {
        Busy(Duration),
        Link(TransportError),
    }

    impl Retryable for Refusal {
        fn is_retryable(&self) -> bool {
            matches!(self, Refusal::Link(e) if e.is_retryable())
        }
        fn retry_after(&self) -> Option<Duration> {
            match self {
                Refusal::Busy(wait) => Some(*wait),
                Refusal::Link(_) => None,
            }
        }
    }

    impl From<TransportError> for Refusal {
        fn from(e: TransportError) -> Self {
            Refusal::Link(e)
        }
    }

    #[test]
    fn driver_waits_out_a_hint_and_each_wait_uses_an_attempt() {
        let wait = Duration::from_millis(20);
        let driver = ResilientDriver::new(RetryPolicy::no_delay(3));
        let mut bodies = 0u32;
        let start = Instant::now();
        let out: Result<(), Refusal> = driver.run(
            |_attempt| Ok(()),
            |_t, _attempt| {
                bodies += 1;
                Err(Refusal::Busy(wait))
            },
        );
        assert_eq!(out, Err(Refusal::Busy(wait)));
        assert_eq!(bodies, 3, "one budget for busy and broken attempts alike");
        assert!(start.elapsed() >= 2 * wait, "the hint, not the zero backoff, spaced the dials");
    }

    #[test]
    fn driver_retries_failed_connects_and_reports_last_error() {
        let driver = ResilientDriver::new(RetryPolicy::no_delay(3));
        let mut connects = 0u32;
        let out: Result<(), TransportError> = driver.run(
            |_attempt| {
                connects += 1;
                Err(TransportError::Closed)
            },
            |_t: &mut (), _attempt| Ok(()),
        );
        assert_eq!(out, Err(TransportError::Closed));
        assert_eq!(connects, 3);
    }
}
