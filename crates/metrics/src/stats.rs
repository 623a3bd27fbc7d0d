//! Small statistics helpers used by every experiment harness.

use core::fmt;

/// Summary statistics over a sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Computes a summary; empty input yields the all-zero summary.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / count as f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in samples {
            min = min.min(x);
            max = max.max(x);
        }
        Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }

    /// Coefficient of variation (σ/µ); 0 for a zero mean.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }

    /// Relative saving of `self` (the faster system) versus `baseline`:
    /// `(baseline.mean - self.mean) / baseline.mean`.
    pub fn saving_vs(&self, baseline: &Summary) -> f64 {
        if baseline.mean == 0.0 {
            0.0
        } else {
            (baseline.mean - self.mean) / baseline.mean
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} sd={:.2} min={:.2} max={:.2}",
            self.count, self.mean, self.std_dev, self.min, self.max
        )
    }
}

/// The mean of a sample (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    Summary::of(samples).mean
}

/// Linear-interpolation percentile (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "q must be in [0, 1]");
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in samples"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }
}

/// An accumulating sample distribution.
///
/// Samples are kept exactly (the simulator's batch counts are small, so
/// there is no need for bucketing); summaries and percentiles are computed
/// on demand. Used by the migration engine to track per-batch sizes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    samples: Vec<f64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Adds one observation. Non-finite values are rejected so that
    /// percentiles stay well-defined.
    pub fn record(&mut self, value: f64) {
        assert!(value.is_finite(), "histogram sample must be finite");
        self.samples.push(value);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        mean(&self.samples)
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// Linear-interpolation percentile (`q` in `[0, 1]`; 0 when empty).
    pub fn percentile(&self, q: f64) -> f64 {
        percentile(&self.samples, q)
    }

    /// Full summary statistics over the recorded observations.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.samples)
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} p50={:.2} p95={:.2} max={:.2}",
            self.count(),
            self.mean(),
            self.percentile(0.5),
            self.percentile(0.95),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn empty_sample_is_zeroes() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn saving_vs_baseline() {
        let fast = Summary::of(&[75.0, 75.0]);
        let slow = Summary::of(&[100.0, 100.0]);
        assert!((fast.saving_vs(&slow) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert!((percentile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn cv_of_constant_sample_is_zero() {
        let s = Summary::of(&[5.0; 10]);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    #[should_panic(expected = "q must be in")]
    fn percentile_rejects_bad_q() {
        percentile(&[1.0], 1.5);
    }

    #[test]
    fn histogram_accumulates_and_summarises() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 2.5).abs() < 1e-12);
        assert_eq!(h.max(), 4.0);
        assert!((h.percentile(0.5) - 2.5).abs() < 1e-12);
        assert_eq!(h.summary().min, 1.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn histogram_rejects_nan() {
        Histogram::new().record(f64::NAN);
    }
}
