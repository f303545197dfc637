//! Negative fixture: well-formed `area.name[.unit]` registrations, spans
//! and instants with consistent kinds (linted as crate `analyzer`).

pub fn record(n: u64) {
    yav_telemetry::counter("analyzer.requests").add(n);
    yav_telemetry::counter("analyzer.requests").inc();
    yav_telemetry::gauge("analyzer.queue_depth").set(n as f64);
    yav_telemetry::histogram("analyzer.parse.us").observe(1.0);
    let _span = yav_telemetry::span!("analyzer.ingest", n);
    yav_telemetry::instant!("analyzer.drop", 1);
}
