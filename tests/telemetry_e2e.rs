//! End-to-end telemetry: drive the whole pipeline once and check the
//! process-wide registry captured every stage, exporting cleanly as
//! Prometheus text and JSON.

use your_ad_value::prelude::*;

#[test]
fn pipeline_run_produces_a_full_snapshot() {
    // --- Drive every stage at test scale.
    let generator = WeblogGenerator::new(WeblogConfig::tiny());
    let mut analyzer = WeblogAnalyzer::new();
    let mut yav = YourAdValue::new(Some(City::Madrid));
    let mut requests = Vec::new();
    generator.run(
        &MarketConfig::default(),
        |req| requests.push(req.clone()),
        |_| {},
    );
    for req in &requests {
        analyzer.ingest(req);
        yav.observe(req);
    }
    let universe = your_ad_value::weblog::PublisherUniverse::build(0xD474, 300, 120);
    let rows = campaign::execute_parallel(
        &MarketConfig::default(),
        &universe,
        &Campaign::a1().scaled(2),
        &ExecConfig::serial(),
    )
    .rows;
    let pme = Pme::new();
    pme.train_from_campaign(&rows, &TrainConfig::quick());
    yav.refresh_model(&pme);
    yav.observe(&requests[0]);
    yav.contribute_to(&pme);
    pme.set_baseline(&[1.0, 2.0, 3.0]);
    pme.recalibration_due(&[1.0, 2.0, 3.0], 0.05);

    // --- The snapshot covers all five pipeline stages, with real counts.
    let counters: std::collections::BTreeMap<String, u64> =
        telemetry::registry().counters().into_iter().collect();
    let stage_counters = [
        "weblog.generator.requests",
        "auction.market.runs",
        "nurl.template.matched",
        "pme.engine.rows_trained",
        "core.monitor.events",
        "campaign.executor.auctions_entered",
    ];
    for name in stage_counters {
        let value = counters.get(name).copied().unwrap_or(0);
        assert!(
            value > 0,
            "stage counter {name} missing or zero (counters: {counters:?})"
        );
    }
    // Drops are tracked both on the monitor and in the registry.
    let drops = yav.drop_stats();
    assert!(
        drops.not_notification > 0,
        "ordinary traffic must be counted"
    );
    assert_eq!(
        counters["core.monitor.nurl.not_notification"],
        drops.not_notification
    );

    // Span timers fired for the heavy stages.
    let histograms: std::collections::BTreeMap<String, _> =
        telemetry::registry().histograms().into_iter().collect();
    for name in [
        "weblog.generator.run.ms",
        "pme.engine.train.ms",
        "auction.market.run.ms",
    ] {
        assert!(
            histograms[name].count > 0,
            "span histogram {name} never recorded"
        );
    }
    // Charge histograms exist per exchange and their quantiles are sane.
    let charge = histograms
        .iter()
        .find(|(n, _)| n.starts_with("auction.market.charge_cpm."))
        .map(|(_, s)| *s)
        .expect("per-exchange charge histogram");
    assert!(charge.p50 > 0.0 && charge.p50 <= charge.p99);

    // --- Prometheus text: every sample line is `yav_* <value>`.
    let text = telemetry::prometheus_text();
    assert!(text.contains("# TYPE yav_auction_market_runs counter"));
    assert!(text.contains("# TYPE yav_pme_engine_estimate_vs_baseline_drift gauge"));
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (name, value) = line.rsplit_once(' ').expect("name/value pair");
        assert!(name.starts_with("yav_"), "bad prometheus name: {line}");
        assert!(
            value == "NaN" || value.parse::<f64>().is_ok(),
            "bad value: {line}"
        );
    }

    // --- JSON: parses, and mirrors the registry contents.
    let json = telemetry::json_snapshot();
    let value: serde_json::Value = serde_json::from_str(&json).expect("snapshot is valid JSON");
    let sections = value.as_object().expect("top-level object");
    let section = |key: &str| {
        sections
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_object())
            .unwrap_or_else(|| panic!("missing {key} section"))
    };
    assert_eq!(section("counters").len(), counters.len());
    assert!(!section("gauges").is_empty());
    assert_eq!(section("histograms").len(), histograms.len());
}
