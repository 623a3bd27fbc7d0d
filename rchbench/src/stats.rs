//! Order statistics: percentiles, medians and quartiles.

/// The `p`-th percentile (0–100) of ascending `sorted`, interpolating
/// linearly between the two closest ranks. `NaN` for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The highest of p99 / p95 / p90 / p50 that still leaves at least ten
/// of `n` samples beyond it — the tail a sample of this size supports.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
}

/// The median of `values` (any order).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// First, second and third quartile of `values`, computed exactly like
/// Python's `statistics.quantiles(values, n=4)` (the default
/// `exclusive` method), so spreads match the ones an outside checker
/// computes from the same runs.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => [f64::NAN; 3],
        1 => [data[0]; 3],
        _ => {
            let m = ld + 1;
            let mut out = [0.0; 3];
            for (k, q) in out.iter_mut().enumerate() {
                let i = k + 1;
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert!((percentile(&v, 90.0) - 4.6).abs() < 1e-12);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 4.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0] (extrapolated)
        assert_eq!(quartiles(&[5.0, 1.0]), [0.0, 3.0, 6.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
