//! Stratified k-fold cross-validation.
//!
//! §5.4's protocol: "we applied 10-fold cross validation, and averaged
//! results over 10 runs". [`cross_validate`] reproduces exactly that,
//! collecting the confusion statistics and weighted AUCROC of every fold.
//! It bins the dataset once per call and grows every fold's forest from
//! those bins through the fold's training rows.

use crate::dataset::Dataset;
use crate::forest::{self, RandomForestConfig};
use crate::metrics::{auc_roc_ovr, ConfusionMatrix};
use crate::tree::Bins;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Aggregated cross-validation results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CvReport {
    /// Folds per run.
    pub folds: usize,
    /// Repeated runs.
    pub runs: usize,
    /// Mean accuracy (== weighted TP rate).
    pub accuracy: f64,
    /// Mean weighted precision.
    pub precision: f64,
    /// Mean weighted recall.
    pub recall: f64,
    /// Mean weighted FP rate.
    pub fp_rate: f64,
    /// Mean weighted one-vs-rest AUCROC.
    pub auc_roc: f64,
    /// Per-class mean recall (to check "no class worse than 5 % from the
    /// average", §5.4).
    pub per_class_recall: Vec<f64>,
}

impl CvReport {
    /// Largest gap between any class's recall and the overall recall.
    pub fn worst_class_gap(&self) -> f64 {
        self.per_class_recall
            .iter()
            .filter(|r| r.is_finite())
            .map(|r| (self.recall - r).max(0.0))
            .fold(0.0, f64::max)
    }
}

/// Stratified fold assignment: each class's rows are shuffled and dealt
/// round-robin, so every fold mirrors the class balance.
pub fn stratified_folds(data: &Dataset, folds: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut assignment = vec![0usize; data.len()];
    for class in 0..data.n_classes() {
        let mut rows: Vec<usize> = (0..data.len())
            .filter(|&i| data.label(i) == class)
            .collect();
        rows.shuffle(rng);
        for (j, &row) in rows.iter().enumerate() {
            assignment[row] = j % folds;
        }
    }
    assignment
}

/// Runs `runs` × `folds`-fold stratified CV of a random forest and
/// averages the §5.4 metric suite.
pub fn cross_validate(
    data: &Dataset,
    config: &RandomForestConfig,
    folds: usize,
    runs: usize,
    seed: u64,
) -> CvReport {
    assert!(folds >= 2, "need at least two folds");
    assert!(runs >= 1, "need at least one run");
    let mut acc = Vec::new();
    let mut prec = Vec::new();
    let mut rec = Vec::new();
    let mut fpr = Vec::new();
    let mut auc = Vec::new();
    let mut class_rec = vec![Vec::new(); data.n_classes()];
    let bins = Bins::new(data);

    for run in 0..runs {
        let mut rng = StdRng::seed_from_u64(seed ^ (run as u64).wrapping_mul(0x9E37_79B9));
        let assignment = stratified_folds(data, folds, &mut rng);
        for fold in 0..folds {
            let train: Vec<usize> = (0..data.len()).filter(|&i| assignment[i] != fold).collect();
            let test: Vec<usize> = (0..data.len()).filter(|&i| assignment[i] == fold).collect();
            if train.is_empty() || test.is_empty() {
                continue;
            }
            // Nothing reads a fold forest's OOB error or importances, so
            // its trees are grown and voted with, never assembled.
            let (trees, _, _) = forest::grow(
                &bins,
                &train,
                &RandomForestConfig {
                    seed: config.seed ^ ((run * folds + fold) as u64) << 8,
                    ..*config
                },
            );
            let mut actual = Vec::with_capacity(test.len());
            let mut predicted = Vec::with_capacity(test.len());
            let mut probs = Vec::with_capacity(test.len());
            for &i in &test {
                let mut p = vec![0.0f64; data.n_classes()];
                forest::vote_into(&trees, data.row(i), &mut p, |_, _| {});
                predicted.push(crate::tree::argmax(&p));
                probs.push(p);
                actual.push(data.label(i));
            }
            let cm = ConfusionMatrix::from_labels(data.n_classes(), &actual, &predicted);
            acc.push(cm.accuracy());
            prec.push(cm.weighted_precision());
            rec.push(cm.weighted_recall());
            fpr.push(cm.weighted_fp_rate());
            let a = auc_roc_ovr(&probs, &actual, data.n_classes());
            if a.is_finite() {
                auc.push(a);
            }
            for (c, bucket) in class_rec.iter_mut().enumerate() {
                let r = cm.recall(c);
                if r.is_finite() {
                    bucket.push(r);
                }
            }
        }
    }

    let mean = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    CvReport {
        folds,
        runs,
        accuracy: mean(&acc),
        precision: mean(&prec),
        recall: mean(&rec),
        fp_rate: mean(&fpr),
        auc_roc: mean(&auc),
        per_class_recall: class_rec.iter().map(|v| mean(v)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeConfig;

    fn dataset() -> Dataset {
        // Separable 3-class problem with mild label noise.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..450usize {
            let x = (i % 45) as f64 / 45.0;
            let y = ((i * 11) % 45) as f64 / 45.0;
            let mut label = if x < 0.33 {
                0
            } else if y < 0.5 {
                1
            } else {
                2
            };
            if i % 29 == 0 {
                label = (label + 1) % 3; // noise
            }
            rows.push(vec![x, y]);
            labels.push(label);
        }
        Dataset::new(rows, labels, 3, vec!["x".into(), "y".into()])
    }

    fn quick_config() -> RandomForestConfig {
        RandomForestConfig {
            n_trees: 10,
            tree: TreeConfig {
                max_depth: 8,
                ..TreeConfig::default()
            },
            seed: 3,
            threads: 2,
        }
    }

    #[test]
    fn stratified_folds_balance_classes() {
        let data = dataset();
        let mut rng = StdRng::seed_from_u64(5);
        let assignment = stratified_folds(&data, 10, &mut rng);
        for fold in 0..10 {
            for class in 0..3 {
                let in_fold = (0..data.len())
                    .filter(|&i| assignment[i] == fold && data.label(i) == class)
                    .count();
                let total = data.class_counts()[class];
                let expected = total as f64 / 10.0;
                assert!(
                    (in_fold as f64 - expected).abs() <= 1.0,
                    "fold {fold} class {class}: {in_fold} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn cv_report_on_learnable_data() {
        let report = cross_validate(&dataset(), &quick_config(), 5, 2, 1);
        assert!(report.accuracy > 0.85, "accuracy {}", report.accuracy);
        assert!(report.auc_roc > 0.9, "auc {}", report.auc_roc);
        assert!(report.precision > 0.8);
        assert!(report.fp_rate < 0.15);
        assert_eq!(report.per_class_recall.len(), 3);
        assert!(report.worst_class_gap() < 0.2);
    }

    /// The protocol with every fold forest fitted in full by
    /// `RandomForest::fit`, out-of-bag pass included, and voted through
    /// `predict_proba_into`: the oracle for `cross_validate`'s grown-only
    /// fold forests.
    fn reference_cv(
        data: &Dataset,
        config: &RandomForestConfig,
        folds: usize,
        runs: usize,
        seed: u64,
    ) -> CvReport {
        let k = data.n_classes();
        let [mut acc, mut prec, mut rec, mut fpr, mut auc] = [(); 5].map(|_| Vec::new());
        let mut class_rec = vec![Vec::new(); k];
        for run in 0..runs {
            let mut rng = StdRng::seed_from_u64(seed ^ (run as u64).wrapping_mul(0x9E37_79B9));
            let assignment = stratified_folds(data, folds, &mut rng);
            for fold in 0..folds {
                let train: Vec<usize> =
                    (0..data.len()).filter(|&i| assignment[i] != fold).collect();
                let forest = crate::RandomForest::fit(
                    &data.select(&train),
                    &RandomForestConfig {
                        seed: config.seed ^ ((run * folds + fold) as u64) << 8,
                        ..*config
                    },
                );
                let (actual, probs): (Vec<usize>, Vec<Vec<f64>>) = (0..data.len())
                    .filter(|&i| assignment[i] == fold)
                    .map(|i| {
                        let mut p = vec![0.0f64; k];
                        forest.predict_proba_into(data.row(i), &mut p);
                        (data.label(i), p)
                    })
                    .unzip();
                let predicted: Vec<usize> = probs.iter().map(|p| crate::tree::argmax(p)).collect();
                let cm = ConfusionMatrix::from_labels(k, &actual, &predicted);
                acc.push(cm.accuracy());
                prec.push(cm.weighted_precision());
                rec.push(cm.weighted_recall());
                fpr.push(cm.weighted_fp_rate());
                auc.extend(Some(auc_roc_ovr(&probs, &actual, k)).filter(|a| a.is_finite()));
                for (c, bucket) in class_rec.iter_mut().enumerate() {
                    bucket.extend(Some(cm.recall(c)).filter(|r| r.is_finite()));
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        CvReport {
            folds,
            runs,
            accuracy: mean(&acc),
            precision: mean(&prec),
            recall: mean(&rec),
            fp_rate: mean(&fpr),
            auc_roc: mean(&auc),
            per_class_recall: class_rec.iter().map(|v| mean(v)).collect(),
        }
    }

    /// Fold forests grown without the out-of-bag pass report what fully
    /// fitted ones do, field for field, at any thread count. A 257-value
    /// column is wider than most nodes, so the split search's sort side
    /// runs too.
    #[test]
    fn grown_fold_forests_match_fully_fitted_ones() {
        let base = dataset();
        let data = Dataset::new(
            (0..base.len())
                .map(|i| {
                    let mut row = base.row(i).to_vec();
                    row.push(((i * 101) % 257) as f64);
                    row
                })
                .collect(),
            base.labels().to_vec(),
            3,
            vec!["x".into(), "y".into(), "wide".into()],
        );
        for threads in [1, 2] {
            let config = RandomForestConfig {
                threads,
                ..quick_config()
            };
            assert_eq!(
                format!("{:?}", cross_validate(&data, &config, 5, 2, 4)),
                format!("{:?}", reference_cv(&data, &config, 5, 2, 4)),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn cv_is_deterministic() {
        let a = cross_validate(&dataset(), &quick_config(), 4, 1, 9);
        let b = cross_validate(&dataset(), &quick_config(), 4, 1, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn unlearnable_labels_score_near_chance() {
        // Labels depend on nothing the features know.
        let rows: Vec<Vec<f64>> = (0..300).map(|i| vec![(i % 10) as f64]).collect();
        let labels: Vec<usize> = (0..300).map(|i| (i * 7 + i / 13) % 3).collect();
        let data = Dataset::new(rows, labels, 3, vec!["junk".into()]);
        let report = cross_validate(&data, &quick_config(), 5, 1, 2);
        assert!(
            report.accuracy < 0.55,
            "accuracy {} should be near 1/3",
            report.accuracy
        );
        assert!((report.auc_roc - 0.5).abs() < 0.2, "auc {}", report.auc_roc);
    }
}
