//! Equivalence proofs for the two world builders.
//!
//! * [`World::build_with`] (fused generate→analyze per shard, on a
//!   worker pool) must equal the materialising **oracle** below on every
//!   [`AnalyzerReport`] field, on the truth and on the request count, for
//!   any thread count. The oracle is built only from public calls:
//!   `generator.collect` the whole weblog, run one serial
//!   [`WeblogAnalyzer`] over it, and re-sort detections and truth by
//!   (minute, user).
//! * [`StreamWorld::build_with`] (constant-memory fold, bounded
//!   retention) must agree exactly with [`World::build_with`] on every
//!   aggregate it retains, for any thread count.
//!
//! Together with `determinism.rs` this pins the claim that you can swap
//! builders (and thread counts) freely and every figure that can still
//! be computed comes out the same bytes.

use yav_analyzer::{AnalyzerReport, WeblogAnalyzer};
use yav_auction::MarketConfig;
use yav_bench::{Scale, StreamWorld, World};
use yav_exec::ExecConfig;
use yav_weblog::{GroundTruth, WeblogConfig, WeblogGenerator};

/// The materialising reference: what a world build must reproduce.
struct Oracle {
    report: AnalyzerReport,
    truth: Vec<GroundTruth>,
    http_requests: u64,
}

fn oracle(config: WeblogConfig) -> Oracle {
    let log = WeblogGenerator::new(config).collect(&MarketConfig::default());
    let mut analyzer = WeblogAnalyzer::new();
    for req in &log.requests {
        analyzer.ingest(req);
    }
    let mut report = analyzer.finish();
    report
        .detections
        .sort_by_key(|d| (d.time.minutes(), d.user.0));
    let mut truth = log.truth;
    truth.sort_by_key(|t| (t.time.minutes(), t.user.0));
    Oracle {
        report,
        truth,
        http_requests: log.requests.len() as u64,
    }
}

fn assert_world_matches_oracle(world: &World, oracle: &Oracle) {
    let (a, b) = (&world.report, &oracle.report);
    assert_eq!(a.detections, b.detections);
    assert_eq!(a.summary, b.summary);
    assert_eq!(a.malformed_nurls, b.malformed_nurls);
    assert_eq!(a.class_counts, b.class_counts);
    assert_eq!(a.pairs.figure2(), b.pairs.figure2());
    assert_eq!(a.pairs.figure3(), b.pairs.figure3());
    assert_eq!(a.monthly_os_requests, b.monthly_os_requests);
    assert_eq!(a.total_requests, b.total_requests);
    assert_eq!(a.users_seen, b.users_seen);
    assert_eq!(world.truth, oracle.truth);
    assert_eq!(world.http_requests, oracle.http_requests);
}

#[test]
fn world_equals_oracle_at_one_and_four_threads() {
    let config = WeblogConfig::small();
    assert_eq!(config.users, Scale::Small.users());
    let oracle = oracle(config);
    assert!(
        oracle.report.detections.len() > 500,
        "small world too thin to prove anything"
    );
    for threads in [1usize, 4] {
        let world = World::build_with(Scale::Small, &ExecConfig::with_threads(threads));
        assert_world_matches_oracle(&world, &oracle);
    }
}

#[test]
fn stream_aggregates_equal_materialized_at_small() {
    // The streaming builder drops the detection list; everything it
    // keeps must match the materialising builder exactly — and the
    // figures computable from summaries must therefore match too.
    let exec = ExecConfig::with_threads(2);
    let stream = StreamWorld::build_with(Scale::Small, &exec);
    let world = World::build_with(Scale::Small, &exec);

    assert!(stream.report.detections.is_empty());
    assert_eq!(stream.report.summary, world.report.summary);
    assert_eq!(stream.report.class_counts, world.report.class_counts);
    assert_eq!(
        stream.report.monthly_os_requests,
        world.report.monthly_os_requests
    );
    assert_eq!(stream.report.total_requests, world.report.total_requests);
    assert_eq!(stream.report.users_seen, world.report.users_seen);
    assert_eq!(stream.report.malformed_nurls, world.report.malformed_nurls);
    assert_eq!(stream.http_requests, world.http_requests);
    assert_eq!(stream.a1.rows, world.a1.rows);
    assert_eq!(stream.a2.rows, world.a2.rows);
    assert_eq!(stream.truth.impressions as usize, world.truth.len());

    // The tenant fleet observed the same stream the analyzer did: every
    // detection is a cleartext tally, a valued estimate, or a counted
    // model-less skip.
    let fleet = &stream.tenants;
    assert_eq!(
        fleet.fleet.cleartext_count + fleet.fleet.encrypted_count + fleet.skipped_no_model,
        stream.report.summary.total,
    );

    // The summary-driven mean must equal the detection-driven mean to
    // the last bit of the shared f64 arithmetic.
    let d_clear = world.d_cleartext();
    let mean_mat = d_clear.iter().sum::<f64>() / d_clear.len() as f64;
    let mean_stream = stream.report.summary.mean_cleartext_cpm().unwrap();
    assert!(
        (mean_mat - mean_stream).abs() < 1e-9,
        "cleartext means diverge: {mean_mat} vs {mean_stream}"
    );

    // The bounded §6.2 fit mirrors `TimeShift::fit_stratified`: the
    // recent side reads the same A2 rows, the historical side reads
    // histogram medians, so it may sit up to one 0.01-CPM bin off, and
    // the coefficient within 3 % (half a bin over a ~0.17 CPM median).
    let (s, w) = (&stream.shift, &world.shift);
    assert_eq!(s.recent_median.to_bits(), w.recent_median.to_bits());
    assert!(
        (s.historical_median - w.historical_median).abs() <= 0.01,
        "historical medians {} vs {}",
        s.historical_median,
        w.historical_median
    );
    assert!(
        (s.coefficient / w.coefficient - 1.0).abs() <= 0.03,
        "coefficients {} vs {}",
        s.coefficient,
        w.coefficient
    );
}

#[test]
fn stream_is_thread_count_independent() {
    let one = StreamWorld::build_with(Scale::Small, &ExecConfig::serial());
    let many = StreamWorld::build_with(Scale::Small, &ExecConfig::with_threads(8));
    assert_eq!(one.report.summary, many.report.summary);
    assert_eq!(one.report.class_counts, many.report.class_counts);
    assert_eq!(
        one.report.monthly_os_requests,
        many.report.monthly_os_requests
    );
    assert_eq!(one.truth, many.truth);
    assert_eq!(one.tenants, many.tenants);
    assert_eq!(one.http_requests, many.http_requests);
    assert_eq!(one.shift, many.shift);
}

#[test]
#[ignore = "minutes-long: run with --ignored for the mid-scale proof"]
fn stream_aggregates_equal_world_at_mid() {
    let exec = ExecConfig::with_threads(2);
    let world = World::build_with(Scale::Mid, &exec);
    let stream = StreamWorld::build_with(Scale::Mid, &exec);
    assert_eq!(stream.report.summary, world.report.summary);
    assert_eq!(stream.http_requests, world.http_requests);
}
