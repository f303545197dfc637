//! Positive fixture for `stream-materialize`: a "streaming" module that
//! quietly holds the whole population in memory. Linted under the
//! identity `crates/bench/src/stream.rs`.

/// Every request of the run, retained — the exact bug the streaming
/// builder exists to remove.
struct LeakyStream {
    all_requests: Vec<HttpRequest>,
    truth: VecDeque<GroundTruth>,
    by_user: BTreeMap<u32, Vec<DetectedImpression>>,
}

fn build_leaky(generator: &WeblogGenerator, market: &MarketConfig) -> LeakyStream {
    // Materialises the full weblog before "streaming" it.
    let log = generator.collect(market);
    let panel: Vec<PanelUser> = generator.panel().users().to_vec();
    let mut analyzer = WeblogAnalyzer::with_retention(Retention::Full);
    for req in &log.requests {
        analyzer.ingest(req);
    }
    let _ = panel;
    LeakyStream {
        all_requests: log.requests,
        truth: VecDeque::new(),
        by_user: BTreeMap::new(),
    }
}
