//! Negative span-hygiene fixture: idiomatic spans, nothing to flag.

pub fn observe(reqs: &[u64]) -> usize {
    let _span = yav_telemetry::span!("ingest.observe");
    let _phase = span!("ingest.sift", reqs.len());
    let mut guard = yav_telemetry::span!("pme.train", 10);
    let _keep = &mut guard;
    yav_telemetry::instant!("ingest.drop", 1);
    reqs.len()
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_out_of_scope() {
        yav_telemetry::span!("anything goes in tests");
    }
}
