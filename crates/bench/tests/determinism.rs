//! Thread-count-independence proofs for the parallel pipeline.
//!
//! The invariant the whole `yav-exec` design rests on: worker threads
//! are a *scheduling* resource, never a *semantic* input. Every stage
//! shards on structural boundaries (user blocks, campaign setups) and
//! merges into a canonical order, so the same seed must produce the
//! same bytes on 1, 2 or 8 threads. The weblog and analyzer stages are
//! checked against a serial oracle in `stream_equivalence.rs`. Model
//! training runs forests on threads of its own, and the trained model
//! is held to the same rule.

use yav_auction::MarketConfig;
use yav_bench::{Scale, World};
use yav_campaign::Campaign;
use yav_exec::ExecConfig;
use yav_pme::TrainConfig;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn campaign_identical_across_thread_counts() {
    let universe = yav_weblog::PublisherUniverse::build(0xD474, 300, 120);
    let market_config = MarketConfig::default();
    // Small-scale A1: 40 impressions per setup, as `Scale::Small` runs it.
    let campaign = Campaign::a1().scaled(40);
    let mut reports = THREAD_COUNTS.iter().map(|&threads| {
        yav_campaign::execute_parallel(
            &market_config,
            &universe,
            &campaign,
            &ExecConfig::with_threads(threads),
        )
    });
    let base = reports.next().unwrap();
    assert_eq!(base.setups_completed, 144);
    assert_eq!(base.rows.len(), 144 * 40);
    for report in reports {
        assert_eq!(report.rows, base.rows);
        assert_eq!(report.spent, base.spent);
        assert_eq!(report.auctions_entered, base.auctions_entered);
        assert_eq!(report.setups_completed, base.setups_completed);
        assert_eq!(report.budget_exhausted, base.budget_exhausted);
    }
}

/// Forest threads schedule trees and never choose them: the §5.4 model
/// trained on the same A1 rows is the same, cross-validation report and
/// shipped client model included, on 1, 2 or 8 threads.
#[test]
fn trained_model_identical_across_thread_counts() {
    let universe = yav_weblog::PublisherUniverse::build(0xD474, 300, 120);
    let rows = yav_campaign::execute_parallel(
        &MarketConfig::default(),
        &universe,
        &Campaign::a1().scaled(10),
        &ExecConfig::serial(),
    )
    .rows;
    assert_eq!(rows.len(), 144 * 10);
    let mut models = THREAD_COUNTS.iter().map(|&threads| {
        let mut config = TrainConfig {
            cv_runs: 1,
            ..TrainConfig::default()
        };
        config.forest.threads = threads;
        serde_json::to_string(&yav_pme::model::train(&rows, &config)).expect("serialises")
    });
    let base = models.next().unwrap();
    for (model, threads) in models.zip(&THREAD_COUNTS[1..]) {
        assert!(model == base, "model trained on {threads} threads differs");
    }
}

#[test]
fn world_identical_across_thread_counts() {
    let base = World::build_with(Scale::Small, &ExecConfig::serial());
    let par = World::build_with(Scale::Small, &ExecConfig::with_threads(3));
    assert_eq!(par.http_requests, base.http_requests);
    assert_eq!(par.report.detections, base.report.detections);
    assert_eq!(par.report.total_requests, base.report.total_requests);
    assert_eq!(par.truth, base.truth);
    assert_eq!(par.a1.rows, base.a1.rows);
    assert_eq!(par.a2.rows, base.a2.rows);
    assert_eq!(par.a1.spent, base.a1.spent);
    assert_eq!(par.a2.spent, base.a2.spent);
    assert_eq!(par.feature_sample, base.feature_sample);
    assert_eq!(par.shift.coefficient, base.shift.coefficient);
}
