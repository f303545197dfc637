//! Negative fixture for `stream-materialize`: bounded state only —
//! commutative aggregates, fixed-size buffers with a justified
//! suppression, scalar folds. Linted under the identity
//! `crates/bench/src/stream.rs`.

/// Commutative aggregates: scalars and fixed-size histograms, never
/// per-event records.
struct BoundedStream {
    events: u64,
    charge_micros: i64,
    cost_hist: [u64; 64],
    rows: Vec<f64>,
    staged: Vec<(u32, Cpm)>,
    // yav-lint: allow(stream-materialize) — bounded: flushed at BATCH requests, never grows with the population
    buf: Vec<HttpRequest>,
}

fn build_bounded(generator: &WeblogGenerator, market: &MarketConfig) -> BoundedStream {
    let mut out = BoundedStream::default();
    let mut analyzer = WeblogAnalyzer::with_retention(Retention::Bounded);
    generator.run_shard(
        0,
        &mut Market::new_shard(market.clone(), 0),
        |req| {
            out.events += 1;
            analyzer.ingest(&req);
        },
        |t| out.charge_micros += t.charge.micros(),
    );
    // `Iterator::collect()` takes no argument: not a weblog materialiser.
    out.rows = out.cost_hist.iter().map(|&n| n as f64).collect();
    out
}
