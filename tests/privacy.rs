//! Privacy and information-flow invariants.
//!
//! The system's design promises: (a) the observer side can never read an
//! encrypted price; (b) the client estimates locally and only uploads
//! anonymised contexts on explicit opt-in; (c) honest pipeline stages
//! never touch simulator ground truth. These tests pin those properties
//! at the API boundary.

use your_ad_value::crypto::{EncryptedPrice, PriceCrypter, PriceKeys};
use your_ad_value::prelude::*;

#[test]
fn encrypted_tokens_are_opaque_to_observers() {
    // Everything a detection exposes about an encrypted price is the
    // token's wire form; decoding it without the integration keys fails
    // closed.
    let generator = WeblogGenerator::new(WeblogConfig::tiny());
    let mut analyzer = WeblogAnalyzer::new();
    generator.run(
        &MarketConfig::default(),
        |req| {
            analyzer.ingest(req);
        },
        |_| {},
    );
    let report = analyzer.finish();

    let wrong_keys = PriceCrypter::new(PriceKeys::derive("attacker guess"));
    let mut tokens = 0;
    for det in &report.detections {
        if let Some(wire) = &det.encrypted_token_wire {
            tokens += 1;
            assert!(
                det.cleartext_cpm.is_none(),
                "encrypted detections carry no price"
            );
            let token = EncryptedPrice::from_wire(wire).expect("token shape is public");
            assert!(
                wrong_keys.decrypt(&token).is_err(),
                "wrong keys must never decrypt a real token"
            );
        }
    }
    assert!(
        tokens > 0,
        "the trace should contain encrypted notifications"
    );
}

#[test]
fn identical_prices_produce_unlinkable_tokens() {
    // Token unlinkability: an observer cannot even tell whether two
    // encrypted notifications carried the same price.
    let c = PriceCrypter::new(PriceKeys::derive("some integration"));
    let t1 = c.encrypt(1_000_000, [1u8; 16]);
    let t2 = c.encrypt(1_000_000, [2u8; 16]);
    assert_ne!(t1.to_wire(), t2.to_wire());
    // And the price field bytes share nothing recognisable.
    let p1 = &t1.as_bytes()[16..24];
    let p2 = &t2.as_bytes()[16..24];
    assert_ne!(p1, p2);
}

#[test]
fn contributions_carry_no_user_identifier() {
    // Serialise a contribution batch and assert no user-id field exists
    // in the payload (the anonymity property of §3.3).
    let generator = WeblogGenerator::new(WeblogConfig::tiny());
    let mut yav = YourAdValue::new(Some(City::Madrid));
    generator.run(
        &MarketConfig::default(),
        |req| {
            yav.observe(req);
        },
        |_| {},
    );

    let batch = yav.take_contributions();
    assert!(!batch.is_empty());
    let json = serde_json::to_string(&batch).unwrap();
    assert!(
        !json.contains("\"user\""),
        "contribution payload must not name users"
    );
    assert!(
        !json.contains("user_id"),
        "contribution payload must not name users"
    );
}

#[test]
fn estimation_happens_client_side() {
    // With a model installed, estimating requires no further PME calls:
    // the engine can be dropped before any traffic is observed.
    let generator = WeblogGenerator::new(WeblogConfig::tiny());
    let universe = generator.universe().clone();
    let a1 = campaign::execute_parallel(
        &MarketConfig::default(),
        &universe,
        &Campaign::a1().scaled(8),
        &ExecConfig::serial(),
    );

    let model = {
        let pme = Pme::new();
        pme.train_from_campaign(&a1.rows, &TrainConfig::quick());
        pme.current_model().unwrap()
        // `pme` dropped here.
    };

    let mut yav = YourAdValue::new(None);
    yav.install_model(model);
    generator.run(
        &MarketConfig::default(),
        |req| {
            yav.observe(req);
        },
        |_| {},
    );
    let s = yav.ledger().summary();
    assert!(s.encrypted_count > 0, "estimates flowed without a live PME");
}

#[test]
fn exports_carry_no_raw_urls_and_no_per_user_ledger_state() {
    // The runtime counterpart of yav-lint's privacy-taint pass: run a
    // mid-scale world through the monitor with tracing on, then render
    // every export surface — Prometheus text, the JSON snapshot and the
    // Chrome trace — and assert none of them contains a raw URL, a
    // request host, or per-user ledger serialisation.
    use your_ad_value::telemetry;
    use your_ad_value::trace;

    let generator = WeblogGenerator::new(WeblogConfig::small());
    let mut yav = YourAdValue::new(Some(City::Madrid));
    let mut urls: Vec<String> = Vec::new();
    trace::set_enabled(true);
    generator.run(
        &MarketConfig::default(),
        |req| {
            if urls.len() < 128 {
                urls.push(req.url.clone());
            }
            yav.observe(req);
        },
        |_| {},
    );
    trace::set_enabled(false);

    let prometheus = telemetry::prometheus_text();
    let snapshot = telemetry::json_snapshot();
    let chrome = trace::chrome_trace_json(&trace::drain());

    assert!(!urls.is_empty(), "the world produced no requests");
    assert!(
        prometheus.contains("yav_"),
        "the sim should have registered metrics"
    );

    for (surface, text) in [
        ("prometheus", &prometheus),
        ("json_snapshot", &snapshot),
        ("chrome_trace", &chrome),
    ] {
        for url in &urls {
            assert!(
                !text.contains(url.as_str()),
                "{surface} export contains a raw URL: {url}"
            );
            // The host alone is already identifying (browsing history).
            let host = url
                .split_once("://")
                .map_or(url.as_str(), |(_, rest)| rest)
                .split('/')
                .next()
                .unwrap_or_default();
            if host.len() >= 8 {
                assert!(
                    !text.contains(host),
                    "{surface} export contains a request host: {host}"
                );
            }
        }
        // Field names that only appear when a request or a ledger entry
        // is serialised wholesale (aggregate metric *names* like
        // `ledger_cleartext_cpm` are fine — they are sums, not rows).
        for marker in ["user_id", "\"user\"", "\"url\"", "user_agent"] {
            assert!(
                !text.contains(marker),
                "{surface} export contains per-user serialisation: {marker}"
            );
        }
    }
}
