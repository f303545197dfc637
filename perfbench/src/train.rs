//! `train`: the back-end model refresh.
//!
//! One refresh runs probe campaign A1 and retrains the engine on it with
//! the paper's forest and 10-fold cross-validation, ending with the
//! packaged client model. Forest fitting dominates the figure suite and
//! most of every set-up; this workload measures it at a length a run can
//! afford, and skips `weblog`, `analyzer` and `core`.

use crate::harness::{coverage_note, measure};
use crate::metrics::{median, Outcome};
use crate::setup::{self, bring_up, repeat_setup, Seeds};
use crate::spans::{timed, Name, Tracer};
use yav_campaign::ProbeImpression;
use yav_exec::ExecConfig;
use yav_ml::{Dataset, Discretizer, RandomForest};
use yav_pme::model::{self, CoreContext, TrainConfig};
use yav_pme::Pme;
use yav_weblog::WeblogConfig;

/// Campaign A1 impressions per Table-5 setup in one refresh.
const REFRESH_IMPRESSIONS: u32 = 15;

/// The price classes the paper's model predicts.
const CLASSES: usize = 4;

/// Lowest acceptable cross-validated accuracy by workload seed: one
/// point under what the seed measured, truncated to whole points. The
/// forest is deterministic, so a seed's accuracy only moves when the
/// training code does.
const CV_FLOORS: &[(u64, f64)] = &[
    (0, 0.66),
    (1, 0.66),
    (2, 0.7),
    (3, 0.69),
    (4, 0.68),
    (5, 0.67),
    (6, 0.67),
    (7, 0.66),
    (8, 0.68),
    (9, 0.71),
    (10, 0.67),
    (11, 0.65),
    (12, 0.66),
];

/// The accuracy floor of seeds without a recorded one: under every
/// recorded seed's (0.67–0.72), far above the 0.25 of guessing among
/// four classes.
const FLOOR_OTHER_SEEDS: f64 = 0.6;

/// The floor `seed`'s refresh must reach.
fn cv_floor(seed: u64) -> f64 {
    CV_FLOORS
        .iter()
        .find(|(s, _)| *s == seed)
        .map_or(FLOOR_OTHER_SEEDS, |&(_, floor)| floor)
}

/// The paper's training protocol, one cross-validation run, one thread.
fn train_config() -> TrainConfig {
    let mut config = TrainConfig {
        cv_runs: 1,
        ..TrainConfig::default()
    };
    config.forest.threads = 1;
    config
}

/// What one refresh produced.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Refreshed {
    rows: usize,
    accuracy: f64,
    classes: usize,
    trees: usize,
    version: u32,
}

/// The same dataset `Pme::train_from_campaign` fits, rebuilt from the
/// campaign rows through the engine's public encoding.
fn dataset(rows: &[ProbeImpression], config: &TrainConfig) -> Dataset {
    assert!(rows.len() <= config.max_rows, "a refresh never subsamples");
    let prices: Vec<f64> = rows.iter().map(|r| r.charge.as_f64()).collect();
    let discretizer = Discretizer::fit(&prices, config.classes);
    let features = rows
        .iter()
        .map(|r| model::encode(&CoreContext::from(r), config.with_publisher))
        .collect();
    let labels = prices.iter().map(|&p| discretizer.assign(p)).collect();
    Dataset::new(
        features,
        labels,
        config.classes,
        model::feature_names(config.with_publisher),
    )
}

/// Runs the `train` workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let seeds = Seeds::for_workload(seed);
    let weblog = WeblogConfig {
        seed: seeds.weblog,
        exec: ExecConfig::serial(),
        ..WeblogConfig::huge()
    };
    let mut tracer = trace.then(Tracer::new);
    let (service, setups) = repeat_setup(|| bring_up(weblog.clone(), &seeds, tracer.as_mut()));
    let config = train_config();
    let market = seeds.market_config();
    let campaign = seeds.a1(REFRESH_IMPRESSIONS);
    let exec = ExecConfig::serial();
    let pme: &Pme = &service.pme;

    let mut out = Outcome::default();
    let mut first: Option<Refreshed> = None;
    let mut last_rows: Vec<ProbeImpression> = Vec::new();
    let mut steps: Vec<(f64, f64)> = Vec::new();
    let mut diverged = 0usize;
    let floor = cv_floor(seed);
    let m = measure(
        seconds,
        tracer.as_mut(),
        || (),
        |(), mut t| {
            let root = t.as_deref_mut().map(|t| t.begin(Name::Refresh, 0));
            let id = root.map_or(0, |o| o.id());
            let (report, campaign_s) = timed(t.as_deref_mut(), Name::Campaign, id, || {
                yav_campaign::execute_parallel(
                    &market,
                    service.generator.universe(),
                    &campaign,
                    &exec,
                )
            });
            let (version, train_s) = timed(t.as_deref_mut(), Name::Train, id, || {
                pme.train_from_campaign(&report.rows, &config)
            });
            let (client, _) = timed(t.as_deref_mut(), Name::Package, id, || pme.current_model());
            if let (Some(t), Some(o)) = (t, root) {
                t.end(o);
                steps.push((campaign_s, train_s));
            }
            let trained = pme.trained_model();
            let refreshed = Refreshed {
                rows: trained.as_ref().map_or(0, |m| m.trained_rows),
                accuracy: trained.as_ref().map_or(0.0, |m| m.cv.accuracy),
                classes: client
                    .as_ref()
                    .map_or(0, |c| c.class_prices.len().min(c.compiled.n_classes())),
                trees: trained.as_ref().map_or(0, |m| m.forest.n_trees()),
                version,
            };
            let ok = refreshed.classes == CLASSES
                && refreshed.trees == config.forest.n_trees
                && refreshed.accuracy >= floor
                && client.map(|c| c.version) == Some(version);
            out.failed += u64::from(!ok);
            match first {
                None => {
                    first = Some(refreshed);
                    last_rows = report.rows;
                }
                Some(f) if (f.rows, f.accuracy) != (refreshed.rows, refreshed.accuracy) => {
                    diverged += 1
                }
                Some(_) => {}
            }
            1
        },
    );
    if diverged > 0 {
        out.problem(format!("{diverged} refreshes differ from the first"));
    }
    for problem in m.thread_problems("refreshes") {
        out.problem(problem);
    }
    if let Some(problem) = setup::thread_problem(&setups) {
        out.problem(problem);
    }
    out.attempted = m.ops;
    out.notes.push(m.describe());

    out.notes.push(setup::describe(&setups));
    out.metrics.set("ops_per_ref_s", m.ops_per_ref_s());
    out.metrics.set("setup_s", setup::setup_s(&setups));
    out.metrics
        .set("peak_rss_mib", crate::machine::peak_rss_mib());
    out.metrics.set("machine.steal_pct", m.steal_pct);
    out.metrics.set("machine.cpu_per_wall", m.cpu_per_wall);
    out.metrics.set("machine.reference_ms", m.reference_ms());
    let folds_fitted = config.cv_folds * config.cv_runs + 1;
    if let Some(f) = first {
        out.metrics.set("train.rows", f.rows as f64);
        out.metrics
            .set("train.trees_fitted", (folds_fitted * f.trees) as f64);
        out.metrics.set("train.pme.cv_accuracy", f.accuracy);
        out.notes.push(format!(
            "train: {} rows, {} forests of {} trees per refresh, cv accuracy {} (floor {floor}), \
             {} refreshes",
            f.rows,
            folds_fitted,
            f.trees,
            f.accuracy,
            m.passes(),
        ));
    }
    out.notes
        .push(format!("train.train_ref_s {} s", 1.0 / m.ops_per_ref_s()));

    if let Some(t) = tracer.as_mut() {
        let data = dataset(&last_rows, &config);
        let (_, fit_s) = timed(Some(&mut *t), Name::ForestFit, 0, || {
            RandomForest::fit(&data, &config.forest)
        });
        let metrics = &mut out.metrics;
        metrics.set(
            "train.campaign.wall_s",
            median(&steps.iter().map(|s| s.0).collect::<Vec<_>>()),
        );
        metrics.set(
            "train.pme.wall_s",
            median(&steps.iter().map(|s| s.1).collect::<Vec<_>>()),
        );
        metrics.set("train.ml.forest_fit_s", fit_s);
        let layers: u64 = [Name::Campaign, Name::Train, Name::Package]
            .iter()
            .map(|&n| t.total_ns(n))
            .sum();
        let coverage = layers as f64 / t.total_ns(Name::Pass).max(1) as f64;
        metrics.set("train.layer_sum_ratio", coverage);
        metrics.set("train.trace_overhead_pct", m.trace_overhead_pct());
        out.notes.push(coverage_note("train", coverage));
    }
    out.tracer = tracer;
    out
}
