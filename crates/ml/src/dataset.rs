//! Feature matrices.

use serde::{Deserialize, Serialize};

/// A row-major feature matrix with integer class labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Flattened features, `rows × n_features`.
    data: Vec<f64>,
    /// Class label per row.
    labels: Vec<usize>,
    /// Number of columns.
    n_features: usize,
    /// Number of distinct classes (labels are `0..n_classes`).
    n_classes: usize,
    /// Column names (for importances and reports).
    feature_names: Vec<String>,
}

impl Dataset {
    /// Creates a dataset.
    ///
    /// # Panics
    /// Panics if row lengths disagree, labels and rows differ in count, a
    /// feature is NaN (tree training groups values by `==`, which NaN
    /// breaks), or a label is `>= n_classes`.
    pub fn new(
        rows: Vec<Vec<f64>>,
        labels: Vec<usize>,
        n_classes: usize,
        feature_names: Vec<String>,
    ) -> Dataset {
        assert_eq!(rows.len(), labels.len(), "one label per row");
        let n_features = rows.first().map(|r| r.len()).unwrap_or(feature_names.len());
        assert_eq!(feature_names.len(), n_features, "one name per column");
        let mut data = Vec::with_capacity(rows.len() * n_features);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), n_features, "ragged rows");
            for (f, v) in r.iter().enumerate() {
                assert!(
                    !v.is_nan(),
                    "NaN feature at row {i}, column {f} ({})",
                    feature_names[f]
                );
            }
            data.extend_from_slice(r);
        }
        for &l in &labels {
            assert!(
                l < n_classes,
                "label {l} out of range (n_classes {n_classes})"
            );
        }
        Dataset {
            data,
            labels,
            n_features,
            n_classes,
            feature_names,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Column names.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// One row's features.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n_features..(i + 1) * self.n_features]
    }

    /// One row's label.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// A new dataset containing the given row indices (in order). Only
    /// tests build row subsets as datasets: cross-validation bins once
    /// and passes row indices.
    #[cfg(test)]
    pub fn select(&self, indices: &[usize]) -> Dataset {
        let mut data = Vec::with_capacity(indices.len() * self.n_features);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(self.row(i));
            labels.push(self.labels[i]);
        }
        Dataset {
            data,
            labels,
            n_features: self.n_features,
            n_classes: self.n_classes,
            feature_names: self.feature_names.clone(),
        }
    }

    /// A new dataset restricted to the given columns.
    pub fn select_features(&self, cols: &[usize]) -> Dataset {
        let mut data = Vec::with_capacity(self.len() * cols.len());
        for i in 0..self.len() {
            let row = self.row(i);
            for &c in cols {
                data.push(row[c]);
            }
        }
        Dataset {
            data,
            labels: self.labels.clone(),
            n_features: cols.len(),
            n_classes: self.n_classes,
            feature_names: cols
                .iter()
                .map(|&c| self.feature_names[c].clone())
                .collect(),
        }
    }

    /// Per-class row counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> Dataset {
        Dataset::new(
            vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
            vec![0, 1, 0],
            2,
            vec!["a".into(), "b".into()],
        )
    }

    #[test]
    fn accessors() {
        let d = ds();
        assert_eq!(d.len(), 3);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.row(1), &[3.0, 4.0]);
        assert_eq!(d.label(2), 0);
        assert_eq!(d.class_counts(), vec![2, 1]);
    }

    #[test]
    fn select_rows_and_features() {
        let d = ds();
        let sub = d.select(&[2, 0]);
        assert_eq!(sub.row(0), &[5.0, 6.0]);
        assert_eq!(sub.labels(), &[0, 0]);
        let cols = d.select_features(&[1]);
        assert_eq!(cols.n_features(), 1);
        assert_eq!(cols.row(1), &[4.0]);
        assert_eq!(cols.feature_names(), &["b".to_owned()]);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn ragged_rejected() {
        Dataset::new(
            vec![vec![1.0], vec![1.0, 2.0]],
            vec![0, 0],
            1,
            vec!["a".into()],
        );
    }

    #[test]
    #[should_panic(expected = "NaN feature at row 1, column 1 (b)")]
    fn nan_rejected() {
        Dataset::new(
            vec![vec![1.0, 2.0], vec![3.0, f64::NAN]],
            vec![0, 0],
            1,
            vec!["a".into(), "b".into()],
        );
    }

    #[test]
    #[should_panic(expected = "label 3 out of range")]
    fn label_range_checked() {
        Dataset::new(vec![vec![1.0]], vec![3], 2, vec!["a".into()]);
    }
}
