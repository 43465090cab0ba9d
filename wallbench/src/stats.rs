//! Order statistics used by every workload: medians of repeated wall
//! times and the nearest-rank percentiles reported for latencies.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Nearest-rank percentile `p` (in percent) of an ascending slice: the
/// smallest sample with at least `p`% of the samples at or below it.
/// Always one of the samples, never an interpolation.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    sorted[rank_index(sorted.len(), p)]
}

/// Zero-based index of the nearest-rank `p`-th percentile among `n`
/// samples: `ceil(p/100 · n) - 1`. Computed in per-mille integers so
/// that 99% of 1000 is exactly rank 990.
fn rank_index(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n) - 1
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank_index(n, p)
}

/// The highest of the percentiles 99.9, 99, 90 and 75 that has at least
/// ten samples beyond it among `n`, or `None` when fewer than forty
/// samples leave no tail worth reporting (the median is then reported
/// alone).
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n < 40 {
        return None;
    }
    [99.9, 99.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_picks_samples() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 500.0);
        assert_eq!(nearest_rank(&v, 99.0), 990.0);
        assert_eq!(nearest_rank(&v, 99.9), 999.0);
        assert_eq!(nearest_rank(&v, 100.0), 1000.0);
        let small = [5.0, 7.0, 9.0];
        assert_eq!(nearest_rank(&small, 50.0), 7.0);
        assert_eq!(nearest_rank(&small, 1.0), 5.0);
    }

    #[test]
    fn ten_samples_beyond_p99_needs_a_thousand() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(10_000, 99.9), 10);
    }

    #[test]
    fn reported_tail_follows_sample_count() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(4000), Some(99.0));
        assert_eq!(tail_percentile(9999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
