//! Calibrated time: a fixed kernel that calls no repo code is timed next
//! to every measured operation, and a sample is reported as
//! `raw × REF_MS / calibration`. Machine-speed drift on a shared VM is
//! multiplicative and moves the kernel and the workload together, so it
//! divides out; a change to the program moves only the workload.
//!
//! The kernel has two parts because the drift has two causes. When the
//! whole host slows down (frequency, memory pressure) every instruction
//! stream slows alike, and a tight loop tracks it. When a neighbour takes
//! the sibling hyperthread, code that lives in the µop cache barely slows
//! (1.1× measured here) while code with a large footprint, like the
//! program's curve and protocol code, loses its share of the decoders
//! (1.5×); only a kernel with a large footprint of its own tracks that.
//! The mix below (≈ 30 % tight loop, ≈ 70 % wide body by time) kept the
//! ratio of served latency to kernel time within 1-2 % across both kinds
//! of drift on all four workloads.

use std::time::Instant;

/// What one kernel run costs on the machine the bounds were set on.
/// Calibrated milliseconds are milliseconds on a machine where the kernel
/// takes exactly this long.
pub const REF_MS: f64 = 7.0;

/// Tight part: xorshift-multiply steps, each adding into a random slot
/// of the table (≈ 2.1 ms).
const TIGHT_STEPS: usize = 900_000;
/// 512 KiB of `u64` slots: larger than L1, inside L2.
const TABLE_SLOTS: usize = 512 * 1024 / 8;
/// Wide part: passes over a straight-line body of 12 288 statements,
/// far more code than the µop cache or L1i hold (≈ 4.9 ms).
const WIDE_PASSES: usize = 930;

macro_rules! x4 {
    ($($body:tt)*) => { $($body)* $($body)* $($body)* $($body)* };
}

/// 4⁵ = 1024 copies of a 12-statement block, each depending on the last
/// through `v`, so the compiler can neither merge nor re-roll them.
#[inline(never)]
fn wide_body(v: &mut [u64; 16]) {
    x4! { x4! { x4! { x4! { x4! {
        v[0] = v[0].wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(v[9]);
        v[3] ^= v[12] >> 17;
        v[5] = v[5].wrapping_add(v[1] ^ 0x2545_F491);
        v[7] = v[7].rotate_left(23) ^ v[14];
        v[2] = ((u128::from(v[2]) * u128::from(v[10] | 1)) >> 32) as u64;
        v[11] = v[11].wrapping_mul(0xD6E8_FEB8_6659_FD93).wrapping_add(v[4]);
        v[13] ^= v[6] >> 29;
        v[8] = v[8].wrapping_add(v[15] ^ 0x1F83_D9AB);
        v[1] = v[1].rotate_left(41) ^ v[0];
        v[6] = ((u128::from(v[6]) * u128::from(v[3] | 1)) >> 32) as u64;
        v[15] = v[15].wrapping_mul(0xA076_1D64_78BD_642F).wrapping_add(v[7]);
        v[4] ^= v[2] >> 11;
    } } } } }
}

/// The calibration kernel with its working set.
pub struct Calibrator {
    table: Vec<u64>,
    state: u64,
    lanes: [u64; 16],
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator {
            table: vec![0; TABLE_SLOTS],
            state: 0x9E37_79B9_7F4A_7C15,
            lanes: std::array::from_fn(|i| 0x2545_F491_4F6C_DD1D ^ i as u64),
        }
    }

    /// Runs the kernel once and returns how long it took, in milliseconds.
    pub fn run(&mut self) -> f64 {
        let started = Instant::now();
        let mut x = self.state;
        for _ in 0..TIGHT_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let y = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let slot = (y >> 40) as usize % TABLE_SLOTS;
            self.table[slot] = self.table[slot].wrapping_add(y);
        }
        self.state = std::hint::black_box(x);
        for _ in 0..WIDE_PASSES {
            wide_body(std::hint::black_box(&mut self.lanes));
        }
        std::hint::black_box(&self.table);
        started.elapsed().as_secs_f64() * 1e3
    }
}

/// One measurement bracketed by two kernel runs.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub raw: f64,
    pub calib_before_ms: f64,
    pub calib_after_ms: f64,
}

impl Sample {
    /// The measurement in calibrated units.
    pub fn calibrated(&self) -> f64 {
        scale(self.raw, (self.calib_before_ms + self.calib_after_ms) / 2.0)
    }
}

/// Scales a raw duration (any unit) by one calibration reading.
pub fn scale(raw: f64, calib_ms: f64) -> f64 {
    raw * REF_MS / calib_ms
}

/// Times `op` between two kernel runs; returns its result and the sample
/// (raw in milliseconds).
pub fn timed<T>(calib: &mut Calibrator, op: impl FnOnce() -> T) -> (T, Sample) {
    let calib_before_ms = calib.run();
    let started = Instant::now();
    let out = op();
    let raw = started.elapsed().as_secs_f64() * 1e3;
    let calib_after_ms = calib.run();
    (out, Sample { raw, calib_before_ms, calib_after_ms })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_uniform_slowdown_divides_out() {
        let fast = Sample { raw: 240.0, calib_before_ms: 6.9, calib_after_ms: 7.3 };
        let slow = Sample {
            raw: fast.raw * 1.3,
            calib_before_ms: fast.calib_before_ms * 1.3,
            calib_after_ms: fast.calib_after_ms * 1.3,
        };
        assert!((fast.calibrated() - slow.calibrated()).abs() < 1e-9);
        assert!((scale(3.0 * 1.3, 7.1 * 1.3) - scale(3.0, 7.1)).abs() < 1e-12);
    }

    #[test]
    fn at_reference_speed_calibrated_equals_raw() {
        let s = Sample { raw: 12.5, calib_before_ms: REF_MS, calib_after_ms: REF_MS };
        assert!((s.calibrated() - 12.5).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_does_its_work_each_run() {
        let mut c = Calibrator::new();
        let (state, lanes) = (c.state, c.lanes);
        assert!(c.run() > 0.0);
        assert_ne!(c.state, state);
        assert_ne!(c.lanes, lanes);
        assert!(c.table.iter().any(|&v| v != 0));
    }
}
