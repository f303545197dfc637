//! Probe-campaign anatomy: plan, sweep, and compare A1 vs A2.
//!
//! ```sh
//! cargo run --release --example probe_campaign
//! ```
//!
//! Walks through the §5.2 campaign-sizing mathematics, executes both of
//! the paper's campaigns (scaled), and reports the headline contrast:
//! encrypted charge prices run ≈1.7× above cleartext ones.

use your_ad_value::campaign::{execute_parallel, Campaign, CampaignPlan};
use your_ad_value::prelude::*;
use your_ad_value::stats::summary::median;
use your_ad_value::weblog::PublisherUniverse;

fn main() {
    // --- §5.2: how big must the campaigns be? -------------------------
    // Historical MoPub campaigns in dataset D: mean 1.84 CPM, std 2.15.
    let plan = CampaignPlan::paper_reference();
    println!("campaign plan (95 % CI):");
    println!("  setups            : {}", plan.setups);
    println!("  error on mean     : ±{:.2} CPM", plan.setup_margin);
    println!("  imps per campaign : ≥{}", plan.impressions_per_setup);

    // --- Execute both campaigns (scaled for a laptop run) -------------
    let universe = PublisherUniverse::build(0xD474, 1800, 700);

    let scale = 60; // impressions per setup (paper: 4 394 / 2 215)
    println!("\nexecuting A1 (4 encrypting exchanges, May 2016) …");
    let a1 = execute_parallel(
        &MarketConfig::default(),
        &universe,
        &Campaign::a1().scaled(scale),
        &ExecConfig::serial(),
    );
    println!(
        "  {} impressions | {} publishers | {} IABs | spend {}",
        a1.rows.len(),
        a1.distinct_publishers(),
        a1.distinct_iabs(),
        a1.spent,
    );

    println!("executing A2 (MoPub cleartext, June 2016) …");
    let a2 = execute_parallel(
        &MarketConfig::default(),
        &universe,
        &Campaign::a2().scaled(scale),
        &ExecConfig::serial(),
    );
    println!(
        "  {} impressions | {} publishers | {} IABs | spend {}",
        a2.rows.len(),
        a2.distinct_publishers(),
        a2.distinct_iabs(),
        a2.spent,
    );

    // --- §6.1: the encrypted premium ----------------------------------
    let m1 = median(&a1.prices_cpm());
    let m2 = median(&a2.prices_cpm());
    println!("\nmedian charge price A1 (encrypted) : {m1:.3} CPM");
    println!("median charge price A2 (cleartext) : {m2:.3} CPM");
    println!(
        "encrypted / cleartext ratio        : {:.2}× (paper: ≈1.7×)",
        m1 / m2
    );

    // Every A1 notification was opaque on the wire; the prices above are
    // only known because the *buyer side* (our probing DSP) gets the
    // performance report. That is the paper's entire trick.
    let opaque = a1
        .rows
        .iter()
        .filter(|r| r.visibility == PriceVisibility::Encrypted)
        .count();
    println!(
        "\n{opaque}/{} A1 impressions had encrypted browser-side notifications",
        a1.rows.len()
    );
}
