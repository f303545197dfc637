//! A year in ads: the full §6 per-user cost study on a mid-sized panel.
//!
//! ```sh
//! cargo run --release --example year_in_ads
//! ```
//!
//! Generates a two-month panel trace, analyses it with the Weblog Ads
//! Analyzer, trains the PME from a probing campaign, applies the §6.2
//! time-shift correction and prints the per-user cost distribution —
//! the data behind Figures 17–19.
//!
//! Generation and analysis run on the calling thread; the probing
//! campaigns shard across the `yav-exec` worker pool, and the end-of-run
//! telemetry report shows the `exec.*` pool metrics. The printed numbers
//! are identical for any thread count.

use your_ad_value::core::methodology::PopulationSummary;
use your_ad_value::prelude::*;
use your_ad_value::stats::summary::median;

fn main() {
    // --- Dataset D (scaled): generate and analyse ----------------------
    let exec = ExecConfig::default();
    let generator = WeblogGenerator::new(WeblogConfig::small());
    let market_config = MarketConfig::default();
    println!("generating and analysing the panel trace …");
    let mut log = generator.collect(&market_config);
    log.sort_canonical();
    let requests = log.requests.len();
    let mut analyzer = WeblogAnalyzer::new();
    for req in &log.requests {
        analyzer.ingest(req);
    }
    let report = analyzer.finish();
    println!(
        "  {requests} HTTP requests | {} users | {} RTB impressions detected",
        report.users_seen,
        report.detections.len()
    );
    let enc = report
        .detections
        .iter()
        .filter(|d| d.visibility == PriceVisibility::Encrypted)
        .count();
    println!(
        "  encrypted share: {:.1} % (the paper reports ≈26 % for 2015 mobile)",
        enc as f64 / report.detections.len() as f64 * 100.0
    );

    // --- Ground truth + model -----------------------------------------
    println!("running probing campaigns and training the PME …");
    let universe = generator.universe().clone();
    let a1 =
        campaign::execute_parallel(&market_config, &universe, &Campaign::a1().scaled(60), &exec);
    let a2 =
        campaign::execute_parallel(&market_config, &universe, &Campaign::a2().scaled(40), &exec);
    let pme = Pme::new();
    pme.train_from_campaign(&a1.rows, &TrainConfig::quick());
    let model = pme.current_model().expect("trained");

    // --- §6.2: the time-shift correction -------------------------------
    let historical: Vec<f64> = report
        .detections
        .iter()
        .filter(|d| d.adx == Adx::MoPub)
        .filter_map(|d| d.cleartext_cpm.map(|p| p.as_f64()))
        .collect();
    let shift = pme.fit_time_shift(&historical, &a2.prices_cpm());
    println!(
        "  time shift 2015→2016: ×{:.2} (median {:.3} → {:.3} CPM)",
        shift.coefficient, shift.historical_median, shift.recent_median
    );

    // --- Per-user accounts ---------------------------------------------
    let costs = per_user_costs(&report.detections, &model, &shift);
    let summary = PopulationSummary::of(&costs);
    let totals: Vec<f64> = costs.iter().map(|c| c.total_corrected().as_f64()).collect();

    println!("\n=== per-user advertiser spend over the trace ===");
    println!("users with RTB impressions : {}", summary.users);
    println!(
        "median user cost           : {:.1} CPM",
        summary.median_total
    );
    println!(
        "users under 100 CPM        : {:.0} %",
        summary.under_100_cpm * 100.0
    );
    println!(
        "1 000+ CPM tail            : {:.1} %",
        summary.tail_1000 * 100.0
    );
    println!(
        "encrypted uplift            : +{:.0} % on top of cleartext (paper: ≈55 %)",
        summary.encrypted_uplift * 100.0
    );

    // A tiny text histogram of the cost distribution (log buckets).
    println!("\ncost distribution (CPM):");
    let edges = [
        0.0,
        1.0,
        3.0,
        10.0,
        30.0,
        100.0,
        300.0,
        1000.0,
        f64::INFINITY,
    ];
    for w in edges.windows(2) {
        let n = totals.iter().filter(|&&t| t >= w[0] && t < w[1]).count();
        let bar = "#".repeat(n * 60 / totals.len().max(1));
        let label = if w[1].is_finite() {
            format!("{:>5}–{:<5}", w[0], w[1])
        } else {
            format!("{:>5}+     ", w[0])
        };
        println!("  {label} {bar} {n}");
    }

    println!(
        "\nmedian total (uncorrected): {:.1} CPM",
        median(&costs.iter().map(|c| c.total().as_f64()).collect::<Vec<_>>())
    );

    // What the pipeline did, stage by stage, from the process-wide
    // telemetry registry.
    println!("\n{}", your_ad_value::telemetry::report());
}
