//! Encrypted-price modeling (§5.4).
//!
//! Campaign ground truth (features → true charge price) trains a Random
//! Forest over four entropy-balanced price classes. The shipped client
//! artifact is a single representative decision tree, the flat node
//! table training wrote, plus one price per class — small enough for a
//! browser extension, exactly the form §3.2 describes.
//!
//! The feature set is the §5.4 core set `S`: city, day of week, time of
//! day, ad format, mobile OS, publisher IAB category, exchange and device
//! type. A `with_publisher` variant adds publisher identity (hash
//! buckets); the paper shows it reaches ~95 % in cross-validation but is
//! classic overfitting to the campaign's publisher subset, so the
//! default model excludes it.

use serde::{Deserialize, Serialize};
use yav_analyzer::DetectedImpression;
use yav_campaign::ProbeImpression;
use yav_ml::{
    cross_validate, CvReport, Dataset, DecisionTree, Discretizer, LinearRegression, RandomForest,
    RandomForestConfig,
};
use yav_types::{
    AdSlotSize, Adx, City, Cpm, DeviceType, IabCategory, InteractionType, Os, SimTime,
};

/// The auction context the core feature set is built from — the common
/// denominator of analyzer detections and campaign report rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreContext {
    /// User city, when known.
    pub city: Option<City>,
    /// Delivery time.
    pub time: SimTime,
    /// Device class.
    pub device: DeviceType,
    /// Operating system.
    pub os: Os,
    /// App vs web inventory.
    pub interaction: InteractionType,
    /// Creative format, when known.
    pub format: Option<AdSlotSize>,
    /// Exchange.
    pub adx: Adx,
    /// Publisher IAB category, when known.
    pub iab: Option<IabCategory>,
    /// Publisher name (only used by the overfitting variant).
    pub publisher: Option<String>,
}

impl From<&ProbeImpression> for CoreContext {
    fn from(r: &ProbeImpression) -> CoreContext {
        CoreContext {
            city: Some(r.city),
            time: r.time,
            device: r.device,
            os: r.os,
            interaction: r.interaction,
            format: Some(r.format),
            adx: r.adx,
            iab: Some(r.iab),
            publisher: Some(r.publisher.clone()),
        }
    }
}

impl From<&DetectedImpression> for CoreContext {
    fn from(d: &DetectedImpression) -> CoreContext {
        CoreContext {
            city: d.city,
            time: d.time,
            device: d.device,
            os: d.os,
            interaction: d.interaction,
            format: d.slot,
            adx: d.adx,
            iab: d.iab,
            publisher: d.publisher.clone(),
        }
    }
}

/// Number of publisher hash buckets in the overfitting variant.
const PUBLISHER_BUCKETS: u64 = 256;

/// Encodes a context into the core feature row. Ordinal encoding keeps
/// the client model tiny; trees carve the categorical ranges themselves.
pub fn encode(ctx: &CoreContext, with_publisher: bool) -> Vec<f64> {
    let mut row = Vec::with_capacity(13);
    encode_append(ctx, with_publisher, &mut row);
    row
}

/// Appends one encoded row to `out` without clearing it first — the
/// allocation-free form of [`encode`] (same row, same order), and the
/// building block for flat row-major feature matrices in batch
/// prediction (`rows.len() == n * n_features`).
pub fn encode_append(ctx: &CoreContext, with_publisher: bool, out: &mut Vec<f64>) {
    out.extend_from_slice(&[
        ctx.city.map(|c| c.index() as f64).unwrap_or(10.0),
        ctx.time.time_of_day() as usize as f64,
        ctx.time.day_of_week().index() as f64,
        if ctx.time.is_weekend() { 1.0 } else { 0.0 },
        ctx.device as usize as f64,
        ctx.os as usize as f64,
        if ctx.interaction == InteractionType::MobileApp {
            1.0
        } else {
            0.0
        },
        // Ad format as geometry, not as an ordinal id: the probing
        // campaigns only buy 8 of the ~17 formats seen in the wild, and
        // geometric features let the tree interpolate over unseen sizes
        // instead of extrapolating over an arbitrary enum order.
        ctx.format.map(|f| f.area() as f64).unwrap_or(0.0),
        ctx.format.map(|f| f.width() as f64).unwrap_or(0.0),
        ctx.format.map(|f| f.height() as f64).unwrap_or(0.0),
        ctx.adx.index() as f64,
        ctx.iab.map(|c| c.index() as f64).unwrap_or(18.0),
    ]);
    if with_publisher {
        let bucket = ctx
            .publisher
            .as_deref()
            .map(|p| fxhash(p) % PUBLISHER_BUCKETS)
            .unwrap_or(PUBLISHER_BUCKETS);
        out.push(bucket as f64);
    }
}

/// Feature names matching [`encode`]'s order.
pub fn feature_names(with_publisher: bool) -> Vec<String> {
    let mut names: Vec<String> = [
        "city",
        "time_of_day",
        "day_of_week",
        "is_weekend",
        "device_type",
        "os",
        "is_app",
        "format_area",
        "format_width",
        "format_height",
        "adx",
        "iab",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if with_publisher {
        names.push("publisher_bucket".into());
    }
    names
}

fn fxhash(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Training configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of price classes (the paper settles on 4).
    pub classes: usize,
    /// Include publisher identity (the overfitting variant).
    pub with_publisher: bool,
    /// Forest hyper-parameters.
    pub forest: RandomForestConfig,
    /// Cross-validation folds (paper: 10).
    pub cv_folds: usize,
    /// Cross-validation repetitions (paper: 10).
    pub cv_runs: usize,
    /// Subsample cap on training rows (exact-split CART costs O(n) per
    /// node and feature, or O(n log n) where a feature has more distinct
    /// values than the node has rows; campaign reports can be 600 k
    /// rows).
    pub max_rows: usize,
    /// Seed for subsampling and CV.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig {
            classes: 4,
            with_publisher: false,
            forest: RandomForestConfig {
                n_trees: 40,
                tree: yav_ml::TreeConfig {
                    max_depth: 20,
                    ..yav_ml::TreeConfig::default()
                },
                ..RandomForestConfig::default()
            },
            cv_folds: 10,
            cv_runs: 10,
            max_rows: 36_000,
            seed: 0x9E1,
        }
    }
}

impl TrainConfig {
    /// A fast configuration for tests: fewer trees, folds and runs.
    pub fn quick() -> TrainConfig {
        TrainConfig {
            forest: RandomForestConfig {
                n_trees: 15,
                ..RandomForestConfig::default()
            },
            cv_folds: 5,
            cv_runs: 1,
            max_rows: 6_000,
            ..TrainConfig::default()
        }
    }
}

/// A fully trained PME-side model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedModel {
    /// Price discretiser fitted on the campaign's charge prices.
    pub discretizer: Discretizer,
    /// The forest (server-side estimator).
    pub forest: RandomForest,
    /// Cross-validation metrics (the §5.4 table).
    pub cv: CvReport,
    /// The shipped client artifact.
    pub client: ClientModel,
    /// Rows used for training (after subsampling).
    pub trained_rows: usize,
    /// Regression-baseline diagnostics (the §5.4 negative result):
    /// `(rmse_cpm, r2)` of OLS on the same features.
    pub regression_baseline: (f64, f64),
}

/// The compact artifact YourAdValue downloads: the representative
/// decision tree, one price per class, and the encoding recipe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientModel {
    /// Model version (assigned by the serving engine).
    pub version: u32,
    /// Whether rows must be encoded with the publisher bucket.
    pub with_publisher: bool,
    /// The representative decision tree of the trained forest, as
    /// training wrote it — what the client walks.
    pub compiled: DecisionTree,
    /// Representative CPM per class, precomputed for the client.
    pub class_prices: Vec<f64>,
}

/// A reusable row buffer plus pre-resolved telemetry handles for
/// [`ClientModel::estimate_into`] — the allocation-free estimation
/// path. Looking metric handles up by name costs a registry lock per
/// event; a long-lived scratch pays it once.
#[derive(Debug, Clone)]
pub struct EstimateScratch {
    row: Vec<f64>,
    predictions: yav_telemetry::Counter,
}

impl EstimateScratch {
    /// A fresh scratch (resolves the `pme.predictions_total` counter
    /// once).
    pub fn new() -> EstimateScratch {
        EstimateScratch {
            row: Vec::with_capacity(13),
            predictions: yav_telemetry::counter("pme.predictions_total"),
        }
    }
}

impl Default for EstimateScratch {
    fn default() -> EstimateScratch {
        EstimateScratch::new()
    }
}

impl ClientModel {
    /// Estimates a charge price for one auction context — the
    /// `ESe(S_i)` of the paper's Equation 3. Encodes into the scratch
    /// row, walks the tree, and records the `pme.predict` span
    /// (the `pme.predict.us` latency histogram) and the
    /// `pme.predictions_total` counter; nothing is allocated per call.
    pub fn estimate_into(&self, ctx: &CoreContext, scratch: &mut EstimateScratch) -> Cpm {
        let _span = yav_telemetry::span!("pme.predict");
        scratch.row.clear();
        encode_append(ctx, self.with_publisher, &mut scratch.row);
        debug_assert_eq!(scratch.row.len(), self.compiled.n_features());
        // The class is on the leaf: no probability vector is read.
        let class = self.compiled.predict(&scratch.row);
        scratch.predictions.inc();
        yav_telemetry::instant!("pme.predict.class", class);
        Cpm::from_f64(self.class_prices[class])
    }
}

/// Trains the §5.4 model from campaign ground truth.
///
/// # Panics
/// Panics if `rows` has fewer than `classes` entries.
pub fn train(rows: &[ProbeImpression], config: &TrainConfig) -> TrainedModel {
    let pairs: Vec<(CoreContext, f64)> = rows
        .iter()
        .map(|r| (CoreContext::from(r), r.charge.as_f64()))
        .collect();
    train_pairs(&pairs, config)
}

/// Trains from raw (context, price-CPM) pairs — the common denominator of
/// campaign performance reports and anonymous client contributions.
///
/// # Panics
/// Panics if `pairs` has fewer than `classes` entries.
pub fn train_pairs(pairs: &[(CoreContext, f64)], config: &TrainConfig) -> TrainedModel {
    assert!(pairs.len() >= config.classes, "not enough ground truth");

    // Deterministic subsample when the report is huge.
    let take: Vec<&(CoreContext, f64)> = if pairs.len() > config.max_rows {
        let stride = pairs.len() as f64 / config.max_rows as f64;
        (0..config.max_rows)
            .map(|i| &pairs[(i as f64 * stride) as usize])
            .collect()
    } else {
        pairs.iter().collect()
    };

    let prices: Vec<f64> = take.iter().map(|(_, p)| *p).collect();
    let discretizer = Discretizer::fit(&prices, config.classes);

    let features: Vec<Vec<f64>> = take
        .iter()
        .map(|(ctx, _)| encode(ctx, config.with_publisher))
        .collect();
    let labels: Vec<usize> = prices.iter().map(|&p| discretizer.assign(p)).collect();
    let data = Dataset::new(
        features.clone(),
        labels,
        config.classes,
        feature_names(config.with_publisher),
    );

    let cv = cross_validate(
        &data,
        &config.forest,
        config.cv_folds,
        config.cv_runs,
        config.seed,
    );
    let forest = RandomForest::fit(&data, &config.forest);
    let compiled = forest.representative_tree(&data).clone();

    // The §5.4 regression baseline: OLS on the same features, evaluated
    // in-sample (its failure is evident even there).
    let reg = LinearRegression::fit(&features, &prices);
    let regression_baseline = (reg.rmse(&features, &prices), reg.r2(&features, &prices));

    // Representative price per class: the 5 %-trimmed mean of the
    // training prices in the class. The plain mean is dominated by
    // whichever slice of the heavy upper tail the campaign happened to
    // buy, and the geometric mid of the log cuts undervalues skewed
    // classes; the trimmed mean stays tail-aware without either.
    let class_prices: Vec<f64> = (0..config.classes)
        .map(|c| {
            let mut members: Vec<f64> = prices
                .iter()
                .copied()
                .filter(|&p| discretizer.assign(p) == c)
                .collect();
            if members.is_empty() {
                discretizer.class_price(c)
            } else {
                members.sort_by(|a, b| a.total_cmp(b));
                let lo = members.len() / 20;
                let hi = members.len() - lo;
                let slice = &members[lo..hi.max(lo + 1)];
                slice.iter().sum::<f64>() / slice.len() as f64
            }
        })
        .collect();
    TrainedModel {
        client: ClientModel {
            version: 0,
            with_publisher: config.with_publisher,
            compiled,
            class_prices,
        },
        discretizer,
        forest,
        cv,
        trained_rows: take.len(),
        regression_baseline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yav_auction::MarketConfig;
    use yav_campaign::Campaign;
    use yav_weblog::PublisherUniverse;

    fn ground_truth(per_setup: u32) -> Vec<ProbeImpression> {
        let universe = PublisherUniverse::build(0xD474, 300, 120);
        // The default pool: campaign rows never depend on the thread count.
        yav_campaign::execute_parallel(
            &MarketConfig::default(),
            &universe,
            &Campaign::a1().scaled(per_setup),
            &Default::default(),
        )
        .rows
    }

    #[test]
    fn training_produces_accurate_classifier() {
        let rows = ground_truth(40);
        let model = train(&rows, &TrainConfig::quick());
        // The §5.4 ballpark: strong multi-class performance on 4 balanced
        // classes (chance = 25 %).
        assert!(
            model.cv.accuracy > 0.55,
            "cv accuracy {}",
            model.cv.accuracy
        );
        assert!(model.cv.auc_roc > 0.80, "auc {}", model.cv.auc_roc);
        assert!(model.forest.oob_error() < 0.45);
        // The shipped artifact is one tree and one price per class.
        let client = &model.client;
        assert_eq!(client.class_prices.len(), 4);
        assert_eq!(client.class_prices.len(), client.compiled.n_classes());
    }

    #[test]
    fn regression_baseline_is_poor() {
        let rows = ground_truth(25);
        let model = train(&rows, &TrainConfig::quick());
        let (rmse, r2) = model.regression_baseline;
        // High-variance prices leave OLS with a large share of the
        // variance unexplained — the reason the paper switched to classes.
        assert!(r2 < 0.6, "r2 {r2}");
        assert!(rmse > 0.1, "rmse {rmse}");
    }

    #[test]
    fn client_model_estimates_sane_prices() {
        let rows = ground_truth(25);
        let model = train(&rows, &TrainConfig::quick());
        let ctx = CoreContext::from(&rows[0]);
        let est = model
            .client
            .estimate_into(&ctx, &mut EstimateScratch::new());
        assert!(est.is_positive());
        // The estimate lands within the observed price range.
        let min = rows.iter().map(|r| r.charge).min().unwrap();
        let max = rows.iter().map(|r| r.charge).max().unwrap();
        assert!(
            est >= min && est <= max,
            "estimate {est} outside [{min}, {max}]"
        );
    }

    #[test]
    fn estimates_price_the_predicted_class() {
        // `estimate_into` walks the tree to its leaf's class and fills no
        // probability vector: every context of a grid over the encoded
        // fields must be priced at the class `predict_with`'s vote
        // names, with and without the publisher bucket.
        let rows = ground_truth(10);
        for with_publisher in [false, true] {
            let model = train(
                &rows,
                &TrainConfig {
                    with_publisher,
                    ..TrainConfig::quick()
                },
            )
            .client;
            let mut scratch = EstimateScratch::new();
            let mut probs = vec![0.0; model.compiled.n_classes()];
            let devices = [DeviceType::Smartphone, DeviceType::Tablet, DeviceType::Pc];
            let formats = [None, Some(AdSlotSize::S320x50), Some(AdSlotSize::S300x250)];
            // `n` walks every combination of city (or none), day, device,
            // OS, channel and exchange; hour, format, IAB category (or
            // none) and publisher vary along with it.
            for n in 0..11 * 7 * 3 * 4 * 2 * 17 {
                let ctx = CoreContext {
                    city: City::ALL.get(n % 11).copied(),
                    time: SimTime::from_minutes((n / 11 % 7 * 1_440 + n % 24 * 60) as i64),
                    device: devices[n / 77 % 3],
                    os: Os::ALL[n / 231 % 4],
                    interaction: InteractionType::ALL[n / 924 % 2],
                    format: formats[n % 3],
                    adx: Adx::ALL[n / 1_848],
                    iab: IabCategory::ALL.get(n % 19).copied(),
                    publisher: Some(format!("pub{}", n % 7)),
                };
                let class = model
                    .compiled
                    .predict_with(&encode(&ctx, with_publisher), &mut probs);
                assert_eq!(
                    model.estimate_into(&ctx, &mut scratch),
                    Cpm::from_f64(model.class_prices[class]),
                    "{ctx:?}"
                );
            }
        }
    }

    #[test]
    fn estimates_track_truth_in_aggregate() {
        let rows = ground_truth(30);
        let model = train(&rows, &TrainConfig::quick());
        let truth_sum: f64 = rows.iter().map(|r| r.charge.as_f64()).sum();
        let mut scratch = EstimateScratch::new();
        let est_sum: f64 = rows
            .iter()
            .map(|r| {
                model
                    .client
                    .estimate_into(&CoreContext::from(r), &mut scratch)
                    .as_f64()
            })
            .sum();
        let ratio = est_sum / truth_sum;
        assert!(
            (0.6..=1.6).contains(&ratio),
            "aggregate estimate/truth ratio {ratio:.2}"
        );
    }

    #[test]
    fn publisher_variant_overfits_upward() {
        let rows = ground_truth(25);
        let base = train(&rows, &TrainConfig::quick());
        let with_pub = train(
            &rows,
            &TrainConfig {
                with_publisher: true,
                ..TrainConfig::quick()
            },
        );
        // Publisher identity can only add apparent skill on the campaign's
        // own publishers (the §5.4 overfitting caution).
        assert!(
            with_pub.cv.accuracy >= base.cv.accuracy - 0.02,
            "with_pub {} vs base {}",
            with_pub.cv.accuracy,
            base.cv.accuracy
        );
    }

    #[test]
    fn encode_handles_unknowns() {
        let ctx = CoreContext {
            city: None,
            time: SimTime::EPOCH,
            device: DeviceType::Smartphone,
            os: Os::Other,
            interaction: InteractionType::MobileWeb,
            format: None,
            adx: Adx::MoPub,
            iab: None,
            publisher: None,
        };
        let row = encode(&ctx, true);
        let names = feature_names(true);
        assert_eq!(row.len(), names.len());
        let at = |n: &str| row[names.iter().position(|x| x == n).unwrap()];
        assert_eq!(at("city"), 10.0); // unknown city sentinel
        assert_eq!(at("iab"), 18.0); // unknown IAB sentinel
        assert_eq!(at("format_area"), 0.0);
        assert_eq!(*row.last().unwrap(), PUBLISHER_BUCKETS as f64);
    }

    #[test]
    fn client_model_serde_round_trip() {
        let rows = ground_truth(10);
        let model = train(&rows, &TrainConfig::quick());
        let json = serde_json::to_string(&model.client).unwrap();
        let back: ClientModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back, model.client);
        let mut scratch = EstimateScratch::new();
        for row in &rows {
            let ctx = CoreContext::from(row);
            assert_eq!(
                back.estimate_into(&ctx, &mut scratch),
                model.client.estimate_into(&ctx, &mut scratch)
            );
        }
    }

    /// The shipped tree carries what the client walks and nothing the
    /// forest needed only while training.
    #[test]
    fn client_artifact_has_no_importances() {
        let model = train(&ground_truth(10), &TrainConfig::quick());
        let json = serde_json::to_string(&model.client).unwrap();
        assert!(json.contains("\"nodes\""), "{json}");
        assert!(!json.contains("\"importances\""), "{json}");
    }

    #[test]
    fn subsampling_caps_training_rows() {
        let rows = ground_truth(30);
        let model = train(
            &rows,
            &TrainConfig {
                max_rows: 500,
                ..TrainConfig::quick()
            },
        );
        assert_eq!(model.trained_rows, 500);
    }
}
