//! The generator's counters against the stream it emitted.
//!
//! The generator tallies requests, RTB slots and RTB impressions in each
//! shard's scratch and adds them to its counters once per shard call.
//! Telemetry is process-global, so this file holds one test: no other
//! generator runs in its process to move the counts.

use yav_auction::MarketConfig;
use yav_weblog::{WeblogConfig, WeblogGenerator};

#[test]
fn counters_match_the_emitted_stream() {
    let requests = yav_telemetry::counter("weblog.generator.requests");
    let slots = yav_telemetry::counter("weblog.generator.rtb_slots");
    let impressions = yav_telemetry::counter("weblog.generator.rtb_impressions");
    let log = WeblogGenerator::new(WeblogConfig::tiny()).collect(&MarketConfig::default());

    assert_eq!(requests.get(), log.requests.len() as u64);
    // Every slot sends one ad request to its exchange.
    let ad_requests = log
        .requests
        .iter()
        .filter(|r| r.url.contains("/ad?pub="))
        .count();
    assert_eq!(slots.get(), ad_requests as u64);
    // Every sale is one impression and one ground-truth record.
    assert_eq!(impressions.get(), log.truth.len() as u64);
    assert!(impressions.get() > 0 && impressions.get() <= slots.get());
}
