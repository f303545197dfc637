//! Ordinary-least-squares regression — the baseline the paper discarded.
//!
//! §5.4: "we first applied regression models … however, the high
//! variability of charge prices lead to low performance (high error) of
//! the regression models. Therefore, we proceeded to split the prices
//! into groups for classification." The experiment harness reproduces
//! that negative result; this module provides the regressor and its error
//! metrics (RMSE, R²).
//!
//! The normal equations are solved by Gaussian elimination with partial
//! pivoting over the (d+1)×(d+1) Gram matrix — tiny for the ≤ dozens of
//! features used here — with a ridge fallback when the system is
//! near-singular.

use serde::{Deserialize, Serialize};

/// A fitted linear model `y ≈ w·x + b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearRegression {
    /// Coefficients, one per feature.
    pub weights: Vec<f64>,
    /// Intercept.
    pub intercept: f64,
}

impl LinearRegression {
    /// Fits OLS on rows/targets. A small ridge term (1e-8 on the
    /// diagonal) keeps collinear feature sets solvable.
    ///
    /// # Panics
    /// Panics on empty input or ragged rows.
    pub fn fit(rows: &[Vec<f64>], targets: &[f64]) -> LinearRegression {
        assert!(!rows.is_empty(), "need at least one row");
        assert_eq!(rows.len(), targets.len(), "one target per row");
        let d = rows[0].len();
        let dim = d + 1; // + intercept

        // Gram matrix A = XᵀX and vector b = Xᵀy, with X augmented by 1s.
        let mut a = vec![vec![0.0f64; dim]; dim];
        let mut b = vec![0.0f64; dim];
        for (row, &y) in rows.iter().zip(targets) {
            assert_eq!(row.len(), d, "ragged rows");
            for i in 0..dim {
                let xi = if i < d { row[i] } else { 1.0 };
                b[i] += xi * y;
                for j in 0..dim {
                    let xj = if j < d { row[j] } else { 1.0 };
                    a[i][j] += xi * xj;
                }
            }
        }
        for (i, row) in a.iter_mut().enumerate().take(dim) {
            row[i] += 1e-8; // ridge jitter
        }

        let w = solve(a, b);
        LinearRegression {
            weights: w[..d].to_vec(),
            intercept: w[d],
        }
    }

    /// Predicts one row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        self.intercept
            + self
                .weights
                .iter()
                .zip(row)
                .map(|(w, x)| w * x)
                .sum::<f64>()
    }

    /// Root-mean-square error over a test set.
    pub fn rmse(&self, rows: &[Vec<f64>], targets: &[f64]) -> f64 {
        let n = rows.len().max(1) as f64;
        (rows
            .iter()
            .zip(targets)
            .map(|(r, &y)| {
                let e = self.predict(r) - y;
                e * e
            })
            .sum::<f64>()
            / n)
            .sqrt()
    }

    /// Coefficient of determination R² over a test set.
    pub fn r2(&self, rows: &[Vec<f64>], targets: &[f64]) -> f64 {
        let n = targets.len() as f64;
        let mean = targets.iter().sum::<f64>() / n;
        let ss_tot: f64 = targets.iter().map(|&y| (y - mean) * (y - mean)).sum();
        let ss_res: f64 = rows
            .iter()
            .zip(targets)
            .map(|(r, &y)| {
                let e = self.predict(r) - y;
                e * e
            })
            .sum();
        if ss_tot == 0.0 {
            // Constant target: perfect if residuals are numerically zero.
            return if ss_res < 1e-9 * n.max(1.0) {
                1.0
            } else {
                f64::NEG_INFINITY
            };
        }
        1.0 - ss_res / ss_tot
    }
}

/// Gaussian elimination with partial pivoting. Index loops mirror the
/// textbook algorithm and stay clearer than iterator chains here.
#[expect(
    clippy::needless_range_loop,
    reason = "index loops mirror the textbook elimination"
)]
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("non-empty");
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        if diag.abs() < 1e-12 {
            continue; // ridge term makes this unreachable in practice
        }
        for row in (col + 1)..n {
            let factor = a[row][col] / diag;
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0f64; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for k in (col + 1)..n {
            acc -= a[col][k] * x[k];
        }
        x[col] = if a[col][col].abs() < 1e-12 {
            0.0
        } else {
            acc / a[col][col]
        };
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_linear_relation() {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64, (i * i % 7) as f64])
            .collect();
        let targets: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] - 2.0 * r[1] + 5.0).collect();
        let m = LinearRegression::fit(&rows, &targets);
        assert!((m.weights[0] - 3.0).abs() < 1e-6);
        assert!((m.weights[1] + 2.0).abs() < 1e-6);
        assert!((m.intercept - 5.0).abs() < 1e-5);
        assert!(m.rmse(&rows, &targets) < 1e-6);
        assert!((m.r2(&rows, &targets) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn high_variance_targets_fit_poorly() {
        // The §5.4 negative result in miniature: targets the features
        // cannot explain leave R² near zero.
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![(i % 4) as f64]).collect();
        let targets: Vec<f64> = (0..200)
            .map(|i| ((i as f64 * 12.9898).sin() * 43758.5453).fract().abs() * 100.0)
            .collect();
        let m = LinearRegression::fit(&rows, &targets);
        assert!(m.r2(&rows, &targets) < 0.1, "r2 {}", m.r2(&rows, &targets));
        assert!(m.rmse(&rows, &targets) > 10.0);
    }

    #[test]
    fn collinear_features_survive() {
        // Second column duplicates the first; ridge keeps it solvable.
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, i as f64]).collect();
        let targets: Vec<f64> = (0..30).map(|i| 2.0 * i as f64).collect();
        let m = LinearRegression::fit(&rows, &targets);
        assert!(m.rmse(&rows, &targets) < 1e-3);
    }

    #[test]
    fn constant_target() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let targets = vec![7.0; 10];
        let m = LinearRegression::fit(&rows, &targets);
        assert!((m.predict(&[3.0]) - 7.0).abs() < 1e-6);
        assert!((m.r2(&rows, &targets) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one target per row")]
    fn mismatched_lengths_rejected() {
        LinearRegression::fit(&[vec![1.0]], &[1.0, 2.0]);
    }
}
