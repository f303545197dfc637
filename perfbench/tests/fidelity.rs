//! The `stream` driver is the streaming world builder's loop, not a
//! look-alike: on the default seeds it reproduces `StreamWorld`'s
//! aggregates exactly, tracing changes none of its outputs, and another
//! workload seed changes its inputs.
//!
//! Run in release: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use yav_bench::stream::StreamWorld;
use yav_exec::ExecConfig;
use yav_perfbench::setup::{bring_up, Seeds};
use yav_perfbench::spans::Tracer;
use yav_perfbench::stream::{run_pass, weblog_config, Pass};

/// Ten shards: small enough for a test, several shard folds deep.
const USERS: u32 = 320;

fn pass(seed: u64, tracer: Option<&mut Tracer>) -> (Pass, yav_pme::model::ClientModel) {
    let seeds = Seeds::for_workload(seed);
    let config = weblog_config(&seeds, USERS);
    let (service, _) = bring_up(config.clone(), &seeds, None);
    (run_pass(&service, &config, tracer), service.model)
}

#[test]
fn default_seed_reproduces_stream_world() {
    let (pass, model) = pass(0, None);
    let world = StreamWorld::build_with_users(USERS, &ExecConfig::serial());

    assert_eq!(pass.failed_events, 0);
    assert_eq!(Some(model), world.pme.current_model());
    assert_eq!(pass.shards, world.shards);
    assert_eq!(pass.events, world.http_requests);
    assert_eq!(pass.report.summary, world.report.summary);
    assert_eq!(pass.report.class_counts, world.report.class_counts);
    assert_eq!(pass.report.total_requests, world.report.total_requests);
    assert_eq!(pass.report.users_seen, world.report.users_seen);
    assert_eq!(pass.report.malformed_nurls, world.report.malformed_nurls);
    assert_eq!(
        pass.report.monthly_os_requests,
        world.report.monthly_os_requests
    );
    assert_eq!(pass.tenants, world.tenants);
    assert_eq!(
        (
            pass.truth.sold,
            pass.truth.cleartext,
            pass.truth.encrypted,
            pass.truth.charge_micros
        ),
        (
            world.truth.impressions,
            world.truth.cleartext,
            world.truth.encrypted,
            world.truth.charge_micros
        )
    );
}

#[test]
fn tracing_changes_no_output_and_the_seed_changes_the_inputs() {
    let (plain, model) = pass(0, None);
    let mut tracer = Tracer::new();
    let (traced, _) = pass(0, Some(&mut tracer));
    assert!(tracer.count(yav_perfbench::spans::Name::Shard) as usize == traced.shards);
    assert_eq!(traced.events, plain.events);
    assert_eq!(traced.truth, plain.truth);
    assert_eq!(traced.report.summary, plain.report.summary);
    assert_eq!(traced.tenants, plain.tenants);

    let (other, other_model) = pass(7, None);
    assert_eq!(other.failed_events, 0);
    assert_ne!(other.events, plain.events);
    assert_ne!(other.truth, plain.truth);
    assert_ne!(other_model, model);
}
