//! Dimensionality reduction (§5.1).
//!
//! The 288 available features would make probing campaigns ruinously
//! expensive (thousands of setups at tens of euros each), so the PME
//! selects a small core subset `S ⊆ F` that still explains the cleartext
//! price classes:
//!
//! 1. log-transform the cleartext prices and discretise into 4 balanced
//!    classes (leave-one-out entropy, [`yav_ml::Discretizer`]);
//! 2. drop constant features and the top-variance tail (likely noise);
//! 3. rank the survivors with per-group Random-Forest importances
//!    (the paper's semantically related subsets A–H), keeping the best of
//!    each group plus the global top;
//! 4. verify the reduction with cross-validation on the full vs the
//!    reduced set — the paper reports < 2 % precision and < 6 % recall
//!    loss.
//!
//! When cleartext targets are scarce, [`correlation_filter`] offers the
//! §5.1 fallback that needs no target at all.

use serde::{Deserialize, Serialize};
use yav_analyzer::features::{FeatureGroup, FeatureSchema};
use yav_ml::{cross_validate, CvReport, Dataset, Discretizer, RandomForest, RandomForestConfig};
use yav_stats::pearson;

/// Reduction configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReductionConfig {
    /// Price classes for the target variable.
    pub classes: usize,
    /// Features whose variance ranks above this percentile (0–1) of the
    /// per-feature variance distribution are dropped as noise.
    pub variance_percentile: f64,
    /// Forest used for importance ranking and verification.
    pub forest: RandomForestConfig,
    /// Core-set size to select.
    pub target_size: usize,
    /// Verification CV folds.
    pub cv_folds: usize,
    /// Row cap (reduction runs on a deterministic subsample).
    pub max_rows: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for ReductionConfig {
    fn default() -> ReductionConfig {
        ReductionConfig {
            classes: 4,
            variance_percentile: 0.99,
            forest: RandomForestConfig {
                n_trees: 30,
                tree: yav_ml::TreeConfig {
                    max_depth: 16,
                    ..yav_ml::TreeConfig::default()
                },
                ..RandomForestConfig::default()
            },
            target_size: 24,
            cv_folds: 5,
            max_rows: 8_000,
            seed: 0x5E1E,
        }
    }
}

/// The reduction outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Reduction {
    /// Indices (into the 288-schema) surviving the variance filters.
    pub kept_after_filters: Vec<usize>,
    /// The selected core subset, importance-ranked.
    pub selected: Vec<usize>,
    /// Verification CV on the filtered full set.
    pub full_report: CvReport,
    /// Verification CV on the selected subset.
    pub reduced_report: CvReport,
}

impl Reduction {
    /// Precision lost by the reduction (positive = worse).
    pub fn precision_loss(&self) -> f64 {
        self.full_report.precision - self.reduced_report.precision
    }

    /// Recall lost by the reduction.
    pub fn recall_loss(&self) -> f64 {
        self.full_report.recall - self.reduced_report.recall
    }

    /// Names of the selected features.
    pub fn selected_names(&self) -> Vec<String> {
        let schema = FeatureSchema::get();
        self.selected
            .iter()
            .map(|&i| schema.name_of(i).to_owned())
            .collect()
    }
}

/// Runs the §5.1 reduction over analyzer feature rows with cleartext
/// price targets (CPM).
///
/// # Panics
/// Panics if rows/prices are empty or misaligned.
pub fn reduce(rows: &[Vec<f64>], prices_cpm: &[f64], config: &ReductionConfig) -> Reduction {
    assert_eq!(rows.len(), prices_cpm.len(), "one price per row");
    assert!(!rows.is_empty(), "need data to reduce");
    let schema = FeatureSchema::get();

    // Deterministic subsample.
    let (rows, prices): (Vec<&Vec<f64>>, Vec<f64>) = if rows.len() > config.max_rows {
        let stride = rows.len() as f64 / config.max_rows as f64;
        (0..config.max_rows)
            .map(|i| {
                let j = (i as f64 * stride) as usize;
                (&rows[j], prices_cpm[j])
            })
            .unzip()
    } else {
        (rows.iter().collect(), prices_cpm.to_vec())
    };

    // Target variable: 4 balanced log-price classes.
    let discretizer = Discretizer::fit(&prices, config.classes);
    let labels: Vec<usize> = prices.iter().map(|&p| discretizer.assign(p)).collect();

    // Variance filters: drop constants, drop the top-variance tail.
    let n_features = rows[0].len();
    let variances: Vec<f64> = (0..n_features)
        .map(|f| {
            let col: Vec<f64> = rows.iter().map(|r| r[f]).collect();
            yav_stats::Summary::of(&col).std.powi(2)
        })
        .collect();
    let mut positive: Vec<f64> = variances.iter().copied().filter(|&v| v > 0.0).collect();
    positive.sort_by(|a, b| a.total_cmp(b));
    let cut = yav_stats::summary::quantile_sorted(&positive, config.variance_percentile);
    let kept_after_filters: Vec<usize> = (0..n_features)
        .filter(|&f| variances[f] > 0.0 && variances[f] <= cut)
        .collect();

    let full_rows: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| kept_after_filters.iter().map(|&f| r[f]).collect())
        .collect();
    let full_names: Vec<String> = kept_after_filters
        .iter()
        .map(|&f| schema.name_of(f).to_owned())
        .collect();
    let full_data = Dataset::new(full_rows, labels.clone(), config.classes, full_names);

    // Per-group importance ranking (the paper's grouped RF models).
    let forest = RandomForest::fit(&full_data, &config.forest);
    let importances = forest.importances();

    let groups = [
        FeatureGroup::Time,
        FeatureGroup::Http,
        FeatureGroup::Ad,
        FeatureGroup::Dsp,
        FeatureGroup::Publisher,
        FeatureGroup::UserHttp,
        FeatureGroup::UserInterests,
        FeatureGroup::UserLocations,
    ];
    let mut selected: Vec<usize> = Vec::new();
    // Best two features per group first (every aspect represented)…
    for group in groups {
        let mut members: Vec<(usize, f64)> = kept_after_filters
            .iter()
            .enumerate()
            .filter(|(_, &orig)| schema.group_of(orig) == group)
            .map(|(local, &orig)| (orig, importances[local]))
            .collect();
        members.sort_by(|a, b| b.1.total_cmp(&a.1));
        for &(orig, _) in members.iter().take(2) {
            if !selected.contains(&orig) {
                selected.push(orig);
            }
        }
    }
    // …then fill with the global top until target size.
    let mut global: Vec<(usize, f64)> = kept_after_filters
        .iter()
        .enumerate()
        .map(|(local, &orig)| (orig, importances[local]))
        .collect();
    global.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (orig, _) in global {
        if selected.len() >= config.target_size {
            break;
        }
        if !selected.contains(&orig) {
            selected.push(orig);
        }
    }

    // Verification: CV on full vs reduced.
    let full_report = cross_validate(&full_data, &config.forest, config.cv_folds, 1, config.seed);
    let reduced_rows: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| selected.iter().map(|&f| r[f]).collect())
        .collect();
    let reduced_names: Vec<String> = selected
        .iter()
        .map(|&f| schema.name_of(f).to_owned())
        .collect();
    let reduced_data = Dataset::new(reduced_rows, labels, config.classes, reduced_names);
    let reduced_report = cross_validate(
        &reduced_data,
        &config.forest,
        config.cv_folds,
        1,
        config.seed,
    );

    Reduction {
        kept_after_filters,
        selected,
        full_report,
        reduced_report,
    }
}

/// The target-free fallback: greedily keeps features, dropping any whose
/// absolute Pearson correlation with an already-kept feature exceeds
/// `threshold`. Returns kept column indices.
pub fn correlation_filter(rows: &[Vec<f64>], threshold: f64) -> Vec<usize> {
    if rows.is_empty() {
        return Vec::new();
    }
    let n_features = rows[0].len();
    let columns: Vec<Vec<f64>> = (0..n_features)
        .map(|f| rows.iter().map(|r| r[f]).collect())
        .collect();
    let mut kept: Vec<usize> = Vec::new();
    for f in 0..n_features {
        // Constants carry no information at all.
        if columns[f].iter().all(|&v| v == columns[f][0]) {
            continue;
        }
        let redundant = kept.iter().any(|&k| {
            pearson(&columns[f], &columns[k])
                .map(|r| r.abs() > threshold)
                .unwrap_or(false)
        });
        if !redundant {
            kept.push(f);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use yav_analyzer::WeblogAnalyzer;
    use yav_auction::MarketConfig;
    use yav_weblog::{WeblogConfig, WeblogGenerator};

    /// Analyzer feature rows + cleartext prices from a tiny dataset D.
    fn analyzer_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let generator = WeblogGenerator::new(WeblogConfig::tiny());
        let mut analyzer = WeblogAnalyzer::new();
        let mut rows = Vec::new();
        let mut prices = Vec::new();
        generator.run(
            &MarketConfig::default(),
            |req| {
                if let Some(rec) = analyzer.ingest(req) {
                    if let Some(p) = rec.meta.cleartext_cpm {
                        rows.push(rec.features);
                        prices.push(p.as_f64());
                    }
                }
            },
            |_| {},
        );
        (rows, prices)
    }

    fn quick_config() -> ReductionConfig {
        ReductionConfig {
            forest: RandomForestConfig {
                n_trees: 12,
                ..RandomForestConfig::default()
            },
            cv_folds: 3,
            max_rows: 2_000,
            ..ReductionConfig::default()
        }
    }

    #[test]
    fn reduction_selects_small_informative_subset() {
        let (rows, prices) = analyzer_data();
        assert!(
            rows.len() > 100,
            "need some cleartext impressions, got {}",
            rows.len()
        );
        let r = reduce(&rows, &prices, &quick_config());
        assert_eq!(r.selected.len(), 24);
        assert!(r.kept_after_filters.len() < 288);
        assert!(r.kept_after_filters.len() > 50);
        // The verification must show modest loss (paper: <2 % precision,
        // <6 % recall; we allow a wider band at tiny scale).
        assert!(
            r.precision_loss() < 0.15,
            "precision loss {}",
            r.precision_loss()
        );
        assert!(r.recall_loss() < 0.15, "recall loss {}", r.recall_loss());
    }

    #[test]
    fn selected_set_covers_multiple_groups() {
        let (rows, prices) = analyzer_data();
        let r = reduce(&rows, &prices, &quick_config());
        let schema = FeatureSchema::get();
        let groups: std::collections::BTreeSet<_> = r
            .selected
            .iter()
            .map(|&i| format!("{:?}", schema.group_of(i)))
            .collect();
        assert!(
            groups.len() >= 5,
            "core set should span groups, got {groups:?}"
        );
    }

    #[test]
    fn correlation_filter_drops_duplicates() {
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let x = i as f64;
                vec![x, 2.0 * x, 7.0, (x * 1.7).sin()]
            })
            .collect();
        let kept = correlation_filter(&rows, 0.95);
        // Column 1 duplicates column 0; column 2 is constant.
        assert_eq!(kept, vec![0, 3]);
    }

    #[test]
    fn correlation_filter_empty() {
        assert!(correlation_filter(&[], 0.9).is_empty());
    }
}
