//! End-to-end pipeline integration: generator → analyzer → PME →
//! YourAdValue, exercised through the public facade only.

use your_ad_value::core::methodology::PopulationSummary;
use your_ad_value::prelude::*;
use your_ad_value::weblog::GroundTruth;

/// One shared world for the whole test file (building it is the
/// expensive part).
struct World {
    report: AnalyzerReport,
    truth: Vec<GroundTruth>,
    a1: your_ad_value::campaign::CampaignReport,
    a2: your_ad_value::campaign::CampaignReport,
    pme: Pme,
}

fn build_world() -> World {
    let generator = WeblogGenerator::new(WeblogConfig::tiny());
    let mut analyzer = WeblogAnalyzer::new();
    let mut truth = Vec::new();
    generator.run(
        &MarketConfig::default(),
        |req| {
            analyzer.ingest(req);
        },
        |t| truth.push(t),
    );
    let report = analyzer.finish();

    let universe = generator.universe().clone();
    let a1 = campaign::execute_parallel(
        &MarketConfig::default(),
        &universe,
        &Campaign::a1().scaled(15),
        &ExecConfig::serial(),
    );
    let a2 = campaign::execute_parallel(
        &MarketConfig::default(),
        &universe,
        &Campaign::a2().scaled(10),
        &ExecConfig::serial(),
    );

    let pme = Pme::new();
    pme.train_from_campaign(&a1.rows, &TrainConfig::quick());
    World {
        report,
        truth,
        a1,
        a2,
        pme,
    }
}

#[test]
fn full_pipeline_reproduces_the_headline_quantities() {
    let w = build_world();

    // --- Detection completeness: the analyzer sees exactly the sold
    //     impressions the market produced.
    assert_eq!(w.report.detections.len(), w.truth.len());

    // --- The encrypted share of mobile RTB sits in the paper's band.
    let enc = w
        .report
        .detections
        .iter()
        .filter(|d| d.visibility == PriceVisibility::Encrypted)
        .count();
    let share = enc as f64 / w.report.detections.len() as f64;
    assert!((0.18..=0.42).contains(&share), "encrypted share {share:.2}");

    // --- §6.1: the campaign-measured encrypted premium.
    let med = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    let ratio = med(w.a1.prices_cpm()) / med(w.a2.prices_cpm());
    assert!(
        (1.25..=2.4).contains(&ratio),
        "encrypted premium {ratio:.2}"
    );

    // --- §6.2: per-user accounting with the time-shift correction.
    let historical: Vec<f64> = w
        .report
        .detections
        .iter()
        .filter(|d| d.adx == Adx::MoPub)
        .filter_map(|d| d.cleartext_cpm.map(|p| p.as_f64()))
        .collect();
    let shift = w.pme.fit_time_shift(&historical, &w.a2.prices_cpm());
    assert!(shift.coefficient > 1.0, "2016 prices above 2015: {shift:?}");

    let model = w.pme.current_model().expect("trained");
    let costs = per_user_costs(&w.report.detections, &model, &shift);
    let summary = PopulationSummary::of(&costs);
    assert!(summary.users > 10);
    assert!(summary.median_total > 0.0);
    assert!(summary.encrypted_uplift > 0.0);

    // --- Cleartext tallies are *exact* against ground truth.
    let total_clear_truth: f64 = w
        .truth
        .iter()
        .filter(|t| t.visibility == PriceVisibility::Cleartext)
        .map(|t| t.charge.as_f64())
        .sum();
    let total_clear_tallied: f64 = costs.iter().map(|c| c.cleartext.as_f64()).sum();
    assert!((total_clear_truth - total_clear_tallied).abs() < 1e-6);

    // --- Estimated encrypted totals track the (hidden) truth.
    let total_enc_truth: f64 = w
        .truth
        .iter()
        .filter(|t| t.visibility == PriceVisibility::Encrypted)
        .map(|t| t.charge.as_f64())
        .sum();
    let total_enc_est: f64 = costs.iter().map(|c| c.encrypted_estimated.as_f64()).sum();
    let agg_ratio = total_enc_est / total_enc_truth;
    // The class-based estimator is median-faithful but conservative on
    // sums: the heavy tail lies beyond its class representatives (see
    // EXPERIMENTS.md, "truth"). Whale users carry most of the true
    // encrypted spend, yet the probe's max-bid cap keeps them out of the
    // training data and the core feature set has no user-value signal,
    // so aggregate ratios sit well below 1. A wide band still catches
    // regressions.
    assert!(
        (0.1..=2.0).contains(&agg_ratio),
        "estimated/true encrypted aggregate {agg_ratio:.2}"
    );
}

#[test]
fn client_and_offline_methodology_agree() {
    // The YourAdValue client and the offline per-user driver implement
    // the same equations; on identical traffic with the same model their
    // sums must agree (the client lacks geo enrichment, so compare only
    // totals that don't depend on city — i.e. run the model without the
    // city feature mattering: compare cleartext exactly, encrypted counts
    // exactly).
    let generator = WeblogGenerator::new(WeblogConfig::tiny());
    let mut analyzer = WeblogAnalyzer::new();
    let mut clients: std::collections::HashMap<UserId, YourAdValue> =
        std::collections::HashMap::new();

    let universe = generator.universe().clone();
    let a1 = campaign::execute_parallel(
        &MarketConfig::default(),
        &universe,
        &Campaign::a1().scaled(10),
        &ExecConfig::serial(),
    );
    let pme = Pme::new();
    pme.train_from_campaign(&a1.rows, &TrainConfig::quick());
    let model = pme.current_model().unwrap();

    let panel = generator.panel().users().to_vec();
    generator.run(
        &MarketConfig::default(),
        |req| {
            analyzer.ingest(req);
            let home = panel.get(req.user.0 as usize).map(|u| u.home);
            let client = clients.entry(req.user).or_insert_with(|| {
                let mut c = YourAdValue::new(home);
                c.install_model(model.clone());
                c
            });
            client.observe(req);
        },
        |_| {},
    );
    let report = analyzer.finish();
    let costs = per_user_costs(&report.detections, &model, &TimeShift::fit(&[1.0], &[1.0]));

    for cost in &costs {
        let client = &clients[&cost.user];
        let s = client.ledger().summary();
        assert_eq!(
            s.cleartext, cost.cleartext,
            "user {:?} cleartext",
            cost.user
        );
        assert_eq!(s.cleartext_count, cost.cleartext_count);
        assert_eq!(s.encrypted_count, cost.encrypted_count);
    }
}

#[test]
fn determinism_end_to_end() {
    let a = build_world();
    let b = build_world();
    assert_eq!(a.truth, b.truth);
    assert_eq!(a.report.detections, b.report.detections);
    assert_eq!(a.a1.rows.len(), b.a1.rows.len());
    assert_eq!(a.a1.spent, b.a1.spent);
    let ma = a.pme.current_model().unwrap();
    let mb = b.pme.current_model().unwrap();
    assert_eq!(ma, mb);
}
