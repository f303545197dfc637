//! Descriptive summaries: moments and percentile boxes.

use serde::{Deserialize, Serialize};

/// First- and second-moment summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean. `NaN` when `n == 0`.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected). Zero when `n < 2`.
    pub std: f64,
    /// Smallest observation. `NaN` when `n == 0`.
    pub min: f64,
    /// Largest observation. `NaN` when `n == 0`.
    pub max: f64,
}

impl Summary {
    /// Computes mean / std / extremes in a single pass (Welford's online
    /// algorithm, numerically stable for long price streams).
    pub fn of(values: &[f64]) -> Summary {
        let mut n = 0usize;
        let mut mean = 0.0f64;
        let mut m2 = 0.0f64;
        let mut min = f64::NAN;
        let mut max = f64::NAN;
        for &x in values {
            n += 1;
            let delta = x - mean;
            mean += delta / n as f64;
            m2 += delta * (x - mean);
            if min.is_nan() || x < min {
                min = x;
            }
            if max.is_nan() || x > max {
                max = x;
            }
        }
        let std = if n >= 2 {
            (m2 / (n - 1) as f64).sqrt()
        } else {
            0.0
        };
        Summary {
            n,
            mean: if n == 0 { f64::NAN } else { mean },
            std,
            min,
            max,
        }
    }
}

/// The percentile box used by Figures 5–7, 10 and 13: 5th, 10th, 50th, 90th
/// and 95th percentiles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PercentileSummary {
    /// Number of observations.
    pub n: usize,
    /// 5th percentile.
    pub p5: f64,
    /// 10th percentile.
    pub p10: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl PercentileSummary {
    /// Computes the five-percentile box. Sorts a copy of the input.
    /// Returns all-`NaN` percentiles for an empty sample.
    pub fn of(values: &[f64]) -> PercentileSummary {
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        PercentileSummary {
            n: sorted.len(),
            p5: quantile_sorted(&sorted, 0.05),
            p10: quantile_sorted(&sorted, 0.10),
            p50: quantile_sorted(&sorted, 0.50),
            p90: quantile_sorted(&sorted, 0.90),
            p95: quantile_sorted(&sorted, 0.95),
        }
    }

    /// Spread between the 95th and 5th percentile — the "fluctuation" the
    /// paper observes to be larger in big cities (Fig. 5).
    pub fn spread(&self) -> f64 {
        self.p95 - self.p5
    }
}

/// Linear-interpolation quantile (type 7, the R/NumPy default) over a
/// **pre-sorted** slice. Returns `NaN` on an empty slice.
///
/// ```
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(yav_stats::summary::quantile_sorted(&xs, 0.5), 2.5);
/// assert_eq!(yav_stats::summary::quantile_sorted(&xs, 0.0), 1.0);
/// assert_eq!(yav_stats::summary::quantile_sorted(&xs, 1.0), 4.0);
/// ```
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Convenience: quantile of an unsorted slice (sorts a copy).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    quantile_sorted(&sorted, q)
}

/// Median of an unsorted slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = Summary::of(&xs);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Naive sample variance: sum((x-5)^2)/7 = 32/7.
        assert!((s.std - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn empty_and_singleton() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert!(s.mean.is_nan());
        assert_eq!(s.std, 0.0);
        let s1 = Summary::of(&[3.5]);
        assert_eq!(s1.mean, 3.5);
        assert_eq!(s1.std, 0.0);
        assert_eq!(s1.min, 3.5);
        assert_eq!(s1.max, 3.5);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&xs, 0.5), 30.0);
        assert_eq!(quantile(&xs, 0.25), 20.0);
        assert!((quantile(&xs, 0.1) - 14.0).abs() < 1e-12);
        assert_eq!(quantile(&xs, -1.0), 10.0); // clamped
        assert_eq!(quantile(&xs, 2.0), 50.0); // clamped
    }

    #[test]
    fn percentile_summary_ordering() {
        let xs: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let p = PercentileSummary::of(&xs);
        assert!(p.p5 < p.p10 && p.p10 < p.p50 && p.p50 < p.p90 && p.p90 < p.p95);
        assert!((p.p50 - 499.5).abs() < 1.0);
        assert!(p.spread() > 0.0);
    }

    #[test]
    fn percentile_summary_empty() {
        let p = PercentileSummary::of(&[]);
        assert_eq!(p.n, 0);
        assert!(p.p50.is_nan());
    }

    #[test]
    fn median_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
