//! Where the monitor spends a span: once per `observe_batch`, never per
//! request.
//!
//! A span costs a clock pair, about as much as a whole request through
//! the monitor, so `YourAdValue::observe` writes only journal instants
//! and `observe_batch` is the one `ingest.observe` span. This binary
//! holds one test: it turns the process-global journal on.

use yav_core::YourAdValue;
use yav_telemetry::journal::{self, EventKind, Trace};
use yav_types::{City, SimTime};
use yav_weblog::{HttpRequest, WeblogConfig, WeblogGenerator};

fn journaled(f: impl FnOnce()) -> Trace {
    journal::clear();
    journal::set_enabled(true);
    f();
    journal::set_enabled(false);
    journal::drain()
}

fn spans(trace: &Trace) -> Vec<(EventKind, String, u64)> {
    trace
        .streams
        .iter()
        .flat_map(|s| &s.records)
        .filter(|r| r.kind != EventKind::Instant)
        .map(|r| (r.kind, journal::name_of(r.name), r.arg))
        .collect()
}

#[test]
fn observe_writes_instants_only_and_observe_batch_one_span() {
    let mut batch: Vec<HttpRequest> = WeblogGenerator::new(WeblogConfig::tiny())
        .collect(&yav_auction::MarketConfig::default())
        .requests
        .into_iter()
        .take(4_000)
        .collect();
    let t = SimTime::from_ymd_hm(2015, 10, 1, 12, 0);
    batch.push(HttpRequest::bare(
        t,
        "http://cpp.imp.mpx.mopub.com/imp?currency=USD",
    ));
    let samples = || yav_telemetry::histogram("ingest.observe.us").count();

    // No model: encrypted prices are counted, not estimated, so no
    // `pme.predict` span opens either.
    let mut yav = YourAdValue::new(Some(City::Madrid));
    let before = samples();
    let trace = journaled(|| {
        for req in &batch {
            yav.observe(req);
        }
    });
    assert_eq!(
        samples(),
        before,
        "observe adds no ingest.observe.us sample"
    );
    assert!(!trace.is_empty(), "drops and parses still write instants");
    assert_eq!(spans(&trace), [], "observe opens no span");
    // The batch is mixed: ordinary traffic, both price kinds, a malformed nURL.
    let drops = yav.drop_stats();
    assert!(drops.not_notification > 0 && drops.parse_error > 0);
    assert!(yav.ledger().summary().cleartext_count > 0);
    assert!(yav.skipped_no_model() > 0);

    let mut yav = YourAdValue::new(Some(City::Madrid));
    let trace = journaled(|| {
        yav.observe_batch(&batch);
    });
    assert_eq!(samples(), before + 1, "one sample per observe_batch");
    let n = batch.len() as u64;
    assert_eq!(
        spans(&trace),
        [
            (EventKind::Begin, "ingest.observe".to_owned(), n),
            (EventKind::End, "ingest.observe".to_owned(), 0),
        ]
    );
    journal::clear();
}
