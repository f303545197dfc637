//! Positive span-hygiene fixture: every span call here is wrong.

pub fn observe(reqs: &[u64]) -> usize {
    // Unbound guard: the span closes on this same line.
    yav_telemetry::span!("ingest.observe");
    // Bound to `_`, which also drops immediately.
    let _ = yav_telemetry::span!("ingest.sift", reqs.len());
    // Name ignores the dotted `area.op` convention.
    let _g = span!("IngestObserve");
    // Unknown area.
    let _h = yav_telemetry::span!("mystery.op");
    // Instants share the name convention.
    yav_telemetry::instant!("ingest");
    reqs.len()
}
