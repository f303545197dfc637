//! Empirical cumulative distribution functions.
//!
//! Figures 11, 16 and 17 are all empirical CDFs over charge prices on a
//! logarithmic x-axis. [`Ecdf`] owns a sorted sample and answers
//! `F(x)`-style queries and inverse quantiles.

use crate::summary::quantile_sorted;
use serde::{Deserialize, Serialize};

/// An empirical CDF over a finite sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF, sorting (a copy of) the sample. Non-finite values
    /// are dropped — they have no place on a CDF axis.
    pub fn new(values: &[f64]) -> Ecdf {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Ecdf { sorted }
    }

    /// Number of (finite) observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the sample was empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)` — the fraction of observations `<= x`. Returns 0 for an empty
    /// sample.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point gives the count of elements <= x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF — the `q`-quantile of the sample.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_sorted(&self.sorted, q)
    }

    /// Median shortcut.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The underlying sorted sample.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_steps() {
        let e = Ecdf::new(&[1.0, 2.0, 2.0, 3.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(2.5), 0.75);
        assert_eq!(e.eval(3.0), 1.0);
        assert_eq!(e.eval(99.0), 1.0);
    }

    #[test]
    fn drops_non_finite() {
        let e = Ecdf::new(&[1.0, f64::NAN, f64::INFINITY, 2.0]);
        assert_eq!(e.len(), 2);
        assert_eq!(e.eval(1.5), 0.5);
    }

    #[test]
    fn quantiles() {
        let e = Ecdf::new(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(e.median(), 2.5);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(1.0), 4.0);
    }

    #[test]
    fn empty_is_safe() {
        let e = Ecdf::new(&[]);
        assert!(e.is_empty());
        assert_eq!(e.eval(1.0), 0.0);
        assert!(e.median().is_nan());
    }
}
