//! The small statistics the harness reports: medians, percentiles with
//! their sample count, quartile spread, and the completion-free gap after a
//! fault.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `p`-quantile (0..=1) of `values` by nearest rank, with the sample
/// count it rests on.
pub fn percentile(values: &[f64], p: f64) -> (f64, usize) {
    if values.is_empty() {
        return (0.0, 0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    (sorted[rank.min(sorted.len() - 1)], sorted.len())
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median — the spread the driver
/// holds against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// `(max - min) / median`.
pub fn relative_range(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / m.abs()
}

/// Longest interval without a completion inside `[from, from + horizon]`.
/// `completions` are sorted times; the interval ends count as events, so a
/// horizon with no completion at all yields `horizon`.
pub fn longest_gap_after(completions: &[f64], from: f64, horizon: f64) -> f64 {
    let end = from + horizon;
    let first = completions.partition_point(|&t| t < from);
    let mut last = from;
    let mut longest = 0.0f64;
    for &t in &completions[first..] {
        if t > end {
            break;
        }
        longest = longest.max(t - last);
        last = t;
    }
    longest.max(end - last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_reports_its_sample_count() {
        let values: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), (51.0, 101));
        assert_eq!(percentile(&values, 0.99), (100.0, 101));
        assert_eq!(percentile(&values, 1.0), (101.0, 101));
        assert_eq!(percentile(&[], 0.5), (0.0, 0));
        assert_eq!(percentile(&[9.0], 0.99), (9.0, 1));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&values) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relative_range_is_over_the_median() {
        assert!((relative_range(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-12);
        assert_eq!(relative_range(&[]), 0.0);
    }

    #[test]
    fn longest_gap_is_measured_inside_the_horizon_only() {
        let completions = [0.5, 1.0, 1.1, 1.2, 9.0, 9.1, 9.2, 30.0];
        // Injected at 1.15: gaps are 0.05, 7.8, 0.1, 0.1, then 20.8 to 30
        // which the 10-unit horizon cuts at 11.15 (1.95 after 9.2).
        assert!((longest_gap_after(&completions, 1.15, 10.0) - 7.8).abs() < 1e-9);
        // Nothing completes in the horizon: the whole horizon is the gap.
        assert!((longest_gap_after(&completions, 10.0, 5.0) - 5.0).abs() < 1e-9);
        // Steady completions: the gap is the completion spacing.
        let steady: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.9).collect();
        assert!((longest_gap_after(&steady, 9.0, 30.0) - 0.9).abs() < 1e-9);
    }
}
