//! Order statistics over one run's samples.

/// Nearest-rank percentile (`p` in 1..=100) of `samples`, refused (`None`)
/// unless at least `min_beyond` samples lie beyond the chosen rank: a tail
/// percentile read off fewer samples than that is mostly noise, so p90
/// with ten samples beyond needs n ≥ 100.
pub fn percentile(samples: &[f64], p: u32, min_beyond: usize) -> Option<f64> {
    assert!((1..=100).contains(&p), "percentile out of range");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (n * p as usize).div_ceil(100).max(1);
    (n - rank >= min_beyond).then(|| sorted[rank - 1])
}

/// Median as the mean of the two middle values for even counts.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Distance between the nearest-rank first and third quartiles.
pub fn iqr(samples: &[f64]) -> f64 {
    match (percentile(samples, 25, 0), percentile(samples, 75, 0)) {
        (Some(q1), Some(q3)) => q3 - q1,
        _ => 0.0,
    }
}

/// `total / count` for counters that must divide evenly (every prediction
/// of a workload moves the same bytes and frames); `None` when they do
/// not, which the caller reports as a failed run.
pub fn exact_per(total: u64, count: u64) -> Option<u64> {
    (count > 0 && total.is_multiple_of(count)).then(|| total / count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_example() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 5, 0), Some(15.0));
        assert_eq!(percentile(&v, 30, 0), Some(20.0));
        assert_eq!(percentile(&v, 40, 0), Some(20.0));
        assert_eq!(percentile(&v, 50, 0), Some(35.0));
        assert_eq!(percentile(&v, 100, 0), Some(50.0));
        assert_eq!(percentile(&[], 50, 0), None);
    }

    #[test]
    fn p90_is_refused_below_a_hundred_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90, 10), Some(90.0));
        assert_eq!(percentile(&v[..99], 90, 10), None);
        // The median of the same 99 samples has plenty beyond it.
        assert_eq!(percentile(&v[..99], 50, 10), Some(50.0));
    }

    #[test]
    fn input_order_does_not_matter() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50, 0), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(iqr(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn counters_divide_exactly_or_not_at_all() {
        assert_eq!(exact_per(120 * 3_977, 120), Some(3_977));
        assert_eq!(exact_per(120 * 3_977 + 1, 120), None);
        assert_eq!(exact_per(5, 0), None);
    }
}
