//! Order statistics and the geometric mean used to combine per-program medians.

/// Median of `values` (sorts in place). Empty input is a harness bug, so it panics.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// Linear-interpolated percentile `p` (0..=1) of an already sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The highest percentile, capped at p99, that still has at least ten samples beyond it.
pub fn tail_percentile(samples: usize) -> f64 {
    (1.0 - 10.0 / samples.max(1) as f64).clamp(0.5, 0.99)
}

/// Geometric mean of positive values.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v.max(1e-12).ln(), n + 1));
    assert!(n > 0, "geomean of no values");
    (sum / n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 1.0), 3.0);
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(tail_percentile(2000), 0.99);
        assert_eq!(tail_percentile(100), 0.9);
    }
}
