//! World assembly: dataset D + campaigns + trained PME at a chosen scale.

use yav_analyzer::{AnalyzerReport, WeblogAnalyzer};
use yav_auction::{MarketConfig, MarketTemplate};
use yav_campaign::{Campaign, CampaignReport};
use yav_exec::ExecConfig;
use yav_ml::RandomForestConfig;
use yav_pme::model::TrainConfig;
use yav_pme::{Pme, TimeShift};
use yav_types::Adx;
use yav_weblog::{GroundTruth, HttpRequest, WeblogConfig, WeblogGenerator};

/// Experiment scales. Every scale runs the same code; only sizes differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~100-user panel over two months; campaigns at 40 impressions per
    /// setup. Seconds. Good for smoke runs and tests.
    Small,
    /// ~500-user panel over the full 2015; campaigns at 200 impressions
    /// per setup. A couple of minutes. The default for `figures all`.
    Mid,
    /// The paper's sizes: 1 594 users over 2015 (≈78 k RTB impressions),
    /// A1/A2 at 4 394/2 215 impressions per setup (≈632 k/319 k rows).
    /// Tens of minutes.
    Paper,
    /// One million users over one simulated day (~11 M HTTP events).
    /// Only the constant-memory streaming builder
    /// ([`crate::stream::StreamWorld`]) runs this scale — [`World`]
    /// would hold every detection and truth record in RAM.
    Huge,
}

impl Scale {
    /// Parses a CLI scale name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "mid" => Some(Scale::Mid),
            "paper" => Some(Scale::Paper),
            "huge" => Some(Scale::Huge),
            _ => None,
        }
    }

    pub(crate) fn weblog(self) -> WeblogConfig {
        match self {
            Scale::Small => WeblogConfig::small(),
            Scale::Mid => WeblogConfig {
                users: 500,
                days: 365,
                rtb_slot_prob: 0.072,
                views_per_user_day: 2.2,
                aux_requests_per_view: 4.0,
                ..WeblogConfig::paper()
            },
            Scale::Paper => WeblogConfig::paper(),
            Scale::Huge => WeblogConfig::huge(),
        }
    }

    /// Panel size at this scale.
    pub fn users(self) -> u32 {
        self.weblog().users
    }

    pub(crate) fn campaign_impressions(self) -> (u32, u32) {
        match self {
            Scale::Small | Scale::Huge => (40, 30),
            Scale::Mid => (200, 120),
            Scale::Paper => (4394, 2215),
        }
    }

    /// Training configuration matched to the scale (the paper's 10-fold
    /// ×10-run protocol at full size; lighter below).
    pub fn train_config(self) -> TrainConfig {
        match self {
            // Huge spends its budget on the million-user stream, not on
            // campaign training — the quick forest is plenty for the
            // estimator the tenant monitors share.
            Scale::Small | Scale::Huge => TrainConfig::quick(),
            Scale::Mid => TrainConfig {
                cv_folds: 10,
                cv_runs: 2,
                forest: RandomForestConfig {
                    n_trees: 40,
                    threads: 8,
                    ..TrainConfig::default().forest
                },
                ..TrainConfig::default()
            },
            Scale::Paper => TrainConfig {
                cv_folds: 10,
                cv_runs: 3,
                forest: RandomForestConfig {
                    n_trees: 40,
                    threads: 8,
                    ..TrainConfig::default().forest
                },
                ..TrainConfig::default()
            },
        }
    }
}

/// Everything the figure builders consume.
pub struct World {
    /// The scale this world was built at.
    pub scale: Scale,
    /// The analyzer's view of dataset D.
    pub report: AnalyzerReport,
    /// Simulator ground truth for D (validation-only fields).
    pub truth: Vec<GroundTruth>,
    /// Campaign A1 (encrypting exchanges).
    pub a1: CampaignReport,
    /// Campaign A2 (MoPub cleartext).
    pub a2: CampaignReport,
    /// The trained engine.
    pub pme: Pme,
    /// The §6.2 time-shift correction, already fitted.
    pub shift: TimeShift,
    /// Total HTTP requests streamed.
    pub http_requests: u64,
    /// Cleartext feature rows sampled for the dimensionality-reduction
    /// experiment (288-vector, price) pairs.
    pub feature_sample: Vec<(Vec<f64>, f64)>,
}

/// What one weblog shard contributes to the world: its analyzer pass,
/// its ground truth, and its cleartext feature rows (keyed for the
/// canonical merge order).
struct ShardPart {
    report: AnalyzerReport,
    truth: Vec<GroundTruth>,
    http_requests: u64,
    /// `(minutes, user, features, price)` per cleartext detection.
    clear_rows: Vec<(i64, u32, Vec<f64>, f64)>,
    /// Input-order detection keys for the canonical re-sort.
    detection_keys: Vec<(i64, u32)>,
}

impl ShardPart {
    fn new() -> ShardPart {
        ShardPart {
            report: AnalyzerReport::default(),
            truth: Vec::new(),
            http_requests: 0,
            clear_rows: Vec::new(),
            detection_keys: Vec::new(),
        }
    }

    /// Feeds one HTTP request through `analyzer`, folding any detection
    /// into this part with its canonical-order key.
    fn ingest(&mut self, analyzer: &mut WeblogAnalyzer, req: &HttpRequest) {
        self.http_requests += 1;
        if let Some(rec) = analyzer.ingest(req) {
            let key = (req.time.minutes(), req.user.0);
            self.detection_keys.push(key);
            if let Some(p) = rec.meta.cleartext_cpm {
                self.clear_rows
                    .push((key.0, key.1, rec.features, p.as_f64()));
            }
        }
    }
}

/// Runs both Table-5 probe campaigns at `scale` and trains the PME on
/// A1. Shared by [`World`] and the streaming builder (campaigns never
/// depend on the weblog).
pub(crate) fn campaigns_and_pme(
    scale: Scale,
    exec: &ExecConfig,
    market_config: &MarketConfig,
    universe: &yav_weblog::PublisherUniverse,
) -> (CampaignReport, CampaignReport, Pme) {
    let (a1_imps, a2_imps) = scale.campaign_impressions();
    let a1 = yav_campaign::execute_parallel(
        market_config,
        universe,
        &Campaign::a1().scaled(a1_imps),
        exec,
    );
    let a2 = yav_campaign::execute_parallel(
        market_config,
        universe,
        &Campaign::a2().scaled(a2_imps),
        exec,
    );
    let pme = Pme::new();
    let mut train = scale.train_config();
    train.forest.threads = exec.threads();
    pme.train_from_campaign(&a1.rows, &train);
    (a1, a2, pme)
}

/// A2's cleartext prices per IAB stratum — the *recent* side of the §6.2
/// time-shift fit, shared by both fit paths.
pub(crate) fn a2_strata(a2: &CampaignReport) -> Vec<Vec<f64>> {
    yav_types::IabCategory::ALL
        .iter()
        .map(|&iab| {
            a2.rows
                .iter()
                .filter(|r| r.iab == iab)
                .map(|r| r.charge.as_f64())
                .collect()
        })
        .collect()
}

impl World {
    /// Builds the world with default parallelism. Deterministic per scale.
    pub fn build(scale: Scale) -> World {
        World::build_with(scale, &ExecConfig::default())
    }

    /// Builds the world on `exec`'s worker pool.
    ///
    /// The weblog/analyzer stage runs fused, one logical shard per
    /// [`yav_weblog::USERS_PER_SHARD`]-user block against its own shard
    /// market; campaigns run one shard per setup. Shard boundaries are
    /// structural, so **the result is identical for every thread count**
    /// (the determinism test suite enforces this). The weblog is the
    /// `generator.run` stream: the stream-equivalence suite checks every
    /// report field, the truth and the request count against one serial
    /// analyzer over `generator.collect`, re-sorted by (minute, user).
    pub fn build_with(scale: Scale, exec: &ExecConfig) -> World {
        let _span = yav_telemetry::span!("bench.world.build");
        let _trace = yav_trace::trace_span!("bench.world_build");
        let config = WeblogConfig {
            exec: *exec,
            ..scale.weblog()
        };
        let generator = WeblogGenerator::new(config);
        let market_config = MarketConfig::default();
        let shards = generator.shard_count();
        yav_telemetry::gauge("exec.world.weblog_shards").set(shards as f64);
        let market_template = MarketTemplate::new(market_config.clone());

        let parts = yav_exec::par_map_indexed(exec, shards, |s| {
            let mut market = market_template.shard(s as u64);
            let mut analyzer = WeblogAnalyzer::new();
            let mut part = ShardPart::new();
            let mut truth = Vec::new();
            generator.run_shard(
                s,
                &mut market,
                |req| part.ingest(&mut analyzer, req),
                |t| truth.push(t),
            );
            part.truth = truth;
            part.report = analyzer.finish();
            part
        });

        World::assemble(scale, exec, &generator, &market_config, parts)
    }

    /// Merges shard parts and finishes the world: canonical re-sort,
    /// feature sampling, campaigns, PME training, time-shift fit.
    fn assemble(
        scale: Scale,
        exec: &ExecConfig,
        generator: &WeblogGenerator,
        market_config: &MarketConfig,
        parts: Vec<ShardPart>,
    ) -> World {
        // Merge: commutative aggregates fold in; ordered streams are
        // restored to the canonical (time, user) order. Ties share a user
        // (users never span shards), so the stable sort keeps their
        // within-shard generation order.
        let mut report = AnalyzerReport::default();
        let mut truth = Vec::new();
        let mut http_requests = 0u64;
        let mut detections: Vec<((i64, u32), yav_analyzer::DetectedImpression)> = Vec::new();
        let mut clear_rows: Vec<(i64, u32, Vec<f64>, f64)> = Vec::new();
        for mut part in parts {
            debug_assert_eq!(part.report.detections.len(), part.detection_keys.len());
            detections.extend(
                part.detection_keys
                    .drain(..)
                    .zip(std::mem::take(&mut part.report.detections)),
            );
            clear_rows.append(&mut part.clear_rows);
            truth.append(&mut part.truth);
            http_requests += part.http_requests;
            report.merge(part.report);
        }
        detections.sort_by_key(|&(key, _)| key);
        report.detections = detections.into_iter().map(|(_, d)| d).collect();
        truth.sort_by_key(|t| (t.time.minutes(), t.user.0));
        clear_rows.sort_by_key(|&(minutes, user, _, _)| (minutes, user));

        // Deterministic reservoir over the canonical cleartext stream:
        // keep every k-th row once the cap fills.
        const SAMPLE_CAP: usize = 12_000;
        let mut feature_sample: Vec<(Vec<f64>, f64)> = Vec::new();
        for (seen_clear, (_, _, features, price)) in (1usize..).zip(clear_rows) {
            if feature_sample.len() < SAMPLE_CAP {
                feature_sample.push((features, price));
            } else if seen_clear.is_multiple_of(7) {
                let slot = (seen_clear / 7) % SAMPLE_CAP;
                feature_sample[slot] = (features, price);
            }
        }

        let (a1, a2, pme) = campaigns_and_pme(scale, exec, market_config, generator.universe());
        // §6.2: time shift fitted within matched IAB strata (A2 vs the
        // MoPub side of D) so content-mix differences between the
        // campaign and organic traffic cancel out.
        let strata: Vec<(Vec<f64>, Vec<f64>)> = yav_types::IabCategory::ALL
            .iter()
            .zip(a2_strata(&a2))
            .map(|(&iab, recent)| {
                let hist: Vec<f64> = report
                    .detections
                    .iter()
                    .filter(|d| d.adx == Adx::MoPub && d.iab == Some(iab))
                    .filter_map(|d| d.cleartext_cpm.map(|p| p.as_f64()))
                    .collect();
                (hist, recent)
            })
            .collect();
        let shift = TimeShift::fit_stratified(&strata, 30);
        pme.set_time_shift(shift);

        World {
            scale,
            report,
            truth,
            a1,
            a2,
            pme,
            shift,
            http_requests,
            feature_sample,
        }
    }

    /// Cleartext prices (CPM) in D.
    pub fn d_cleartext(&self) -> Vec<f64> {
        self.report
            .detections
            .iter()
            .filter_map(|d| d.cleartext_cpm.map(|p| p.as_f64()))
            .collect()
    }

    /// Cleartext MoPub prices in D.
    pub fn d_mopub(&self) -> Vec<f64> {
        self.report
            .detections
            .iter()
            .filter(|d| d.adx == Adx::MoPub)
            .filter_map(|d| d.cleartext_cpm.map(|p| p.as_f64()))
            .collect()
    }

    /// First month index (0-based) of the trace's final two observed
    /// months — the "2 m" subset window of Figures 11, 15 and 16.
    pub fn last_two_months_start(&self) -> usize {
        self.report
            .detections
            .iter()
            .map(|d| {
                if d.time.year() <= 2015 {
                    d.time.month().index()
                } else {
                    11
                }
            })
            .max()
            .unwrap_or(11)
            .saturating_sub(1)
    }

    /// The trace's final two months of MoPub cleartext prices (the "2 m"
    /// series of Figures 11, 15 and 16).
    pub fn d_mopub_2m(&self) -> Vec<f64> {
        let start = self.last_two_months_start();
        self.report
            .detections
            .iter()
            .filter(|d| d.adx == Adx::MoPub && d.time.month().index() >= start)
            .filter_map(|d| d.cleartext_cpm.map(|p| p.as_f64()))
            .collect()
    }
}
