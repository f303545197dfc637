//! Positive fixture: telemetry registrations, spans and instants
//! violating the `area.name[.unit]` convention (linted as crate
//! `analyzer`).

pub fn record() {
    // Not kebab/snake lowercase, single segment.
    yav_telemetry::counter("BadName").inc();
    // First segment is not a workspace area.
    yav_telemetry::counter("zebra.requests").inc();
    // Too many segments.
    yav_telemetry::counter("analyzer.a.b.c.d").inc();
    // Same name registered as two different kinds: a collision.
    yav_telemetry::counter("analyzer.requests").inc();
    yav_telemetry::gauge("analyzer.requests").set(1.0);
    // Span and instant names follow the same convention.
    let _span = yav_telemetry::span!("AnalyzerIngest");
    let _phase = yav_telemetry::span!("mystery.op", 3);
    yav_telemetry::instant!("analyzer");
}
