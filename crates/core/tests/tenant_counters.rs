//! The multi-tenant store's telemetry: `TenantStore::finish` publishes
//! the store's event, drop and tenant tallies once, and every encrypted
//! price the store values counts as one `pme.predictions_total`.
//!
//! Counters are process-global, so this file holds a single `#[test]`:
//! no other test in the binary can move them between the two reads.

use yav_auction::MarketConfig;
use yav_campaign::Campaign;
use yav_core::TenantStore;
use yav_pme::engine::Pme;
use yav_pme::model::TrainConfig;
use yav_weblog::{PublisherUniverse, WeblogConfig, WeblogGenerator};

#[test]
fn finish_publishes_the_store_tallies() {
    let universe = PublisherUniverse::build(0xD474, 300, 120);
    // The default pool: campaign rows never depend on the thread count.
    let rows = yav_campaign::execute_parallel(
        &MarketConfig::default(),
        &universe,
        &Campaign::a1().scaled(10),
        &Default::default(),
    )
    .rows;
    let pme = Pme::new();
    pme.train_from_campaign(&rows, &TrainConfig::quick());
    let model = pme.current_model().expect("trained");
    let generator = WeblogGenerator::new(WeblogConfig::tiny());
    let log = generator.collect(&MarketConfig::default());

    let events = yav_telemetry::counter("monitor.tenant.events");
    let rejected = yav_telemetry::counter("monitor.tenant.rejected");
    let predictions = yav_telemetry::counter("pme.predictions_total");
    let (events_before, rejected_before, predictions_before) =
        (events.get(), rejected.get(), predictions.get());

    let mut store = TenantStore::new();
    for user in generator.panel().users() {
        store.register(user.id, user.home);
    }
    for req in &log.requests {
        store.feed(Some(&model), req);
    }
    let tenants = store.tenant_count();
    let report = store.finish(Some(&model));
    assert!(report.fleet.encrypted_count > 0);
    assert!(report.drops.not_notification > 0);

    assert_eq!(events.get() - events_before, report.events);
    assert_eq!(
        rejected.get() - rejected_before,
        report.drops.parse_error + report.drops.not_notification
    );
    assert_eq!(
        predictions.get() - predictions_before,
        report.fleet.encrypted_count
    );
    assert_eq!(
        yav_telemetry::gauge("monitor.tenant.tenants").get(),
        tenants as f64
    );
}
