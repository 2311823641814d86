//! Latency/bandwidth profiles matching the paper's test environments.

use std::time::Duration;

/// A symmetric network profile: one-way latency plus bandwidth.
///
/// The paper's environments:
/// * LAN — same rack, sub-millisecond RTT, ~1 GB/s,
/// * WAN (Table 3, as in SecureML's setup) — 9 MB/s, 72 ms RTT,
/// * WAN (Table 5, as in QUOTIENT's setup) — 24.3 MB/s, 40 ms RTT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    one_way_latency: Duration,
    bandwidth_bytes_per_sec: f64,
}

impl NetworkModel {
    /// Builds a profile from an RTT and a bandwidth in bytes/second.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bytes_per_sec` is not strictly positive.
    #[must_use]
    pub fn new(rtt: Duration, bandwidth_bytes_per_sec: f64) -> Self {
        assert!(bandwidth_bytes_per_sec > 0.0, "bandwidth must be positive");
        NetworkModel { one_way_latency: rtt / 2, bandwidth_bytes_per_sec }
    }

    /// An instantaneous link: no latency or bandwidth cost is charged, so
    /// the virtual clock reflects pure compute time. Used for LAN numbers
    /// (the paper's LAN link is fast enough that compute dominates).
    #[must_use]
    pub fn instant() -> Self {
        NetworkModel { one_way_latency: Duration::ZERO, bandwidth_bytes_per_sec: f64::INFINITY }
    }

    /// Local-area network: 0.2 ms RTT, 1.25 GB/s (10 Gbit/s).
    #[must_use]
    pub fn lan() -> Self {
        NetworkModel::new(Duration::from_micros(200), 1.25e9)
    }

    /// The Table 3 WAN: 9 MB/s bandwidth, 72 ms RTT (SecureML's setting).
    #[must_use]
    pub fn wan_secureml() -> Self {
        NetworkModel::new(Duration::from_millis(72), 9.0e6)
    }

    /// The Table 4/5 WAN: 24.3 MB/s bandwidth, 40 ms RTT (QUOTIENT's
    /// setting).
    #[must_use]
    pub fn wan_quotient() -> Self {
        NetworkModel::new(Duration::from_millis(40), 24.3e6)
    }

    /// One-way propagation latency.
    #[must_use]
    pub fn one_way_latency(&self) -> Duration {
        self.one_way_latency
    }

    /// Link bandwidth in bytes per second.
    #[must_use]
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        self.bandwidth_bytes_per_sec
    }

    /// Seconds needed to push `bytes` onto the wire.
    #[must_use]
    pub fn transfer_secs(&self, bytes: usize) -> f64 {
        if self.bandwidth_bytes_per_sec.is_infinite() {
            0.0
        } else {
            bytes as f64 / self.bandwidth_bytes_per_sec
        }
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::instant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        assert_eq!(NetworkModel::wan_secureml().one_way_latency(), Duration::from_millis(36));
        assert_eq!(NetworkModel::wan_secureml().bandwidth_bytes_per_sec(), 9.0e6);
        assert_eq!(NetworkModel::wan_quotient().one_way_latency(), Duration::from_millis(20));
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let m = NetworkModel::wan_secureml();
        assert!((m.transfer_secs(9_000_000) - 1.0).abs() < 1e-9);
        assert_eq!(NetworkModel::instant().transfer_secs(1 << 30), 0.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = NetworkModel::new(Duration::ZERO, 0.0);
    }
}
