//! User-cost experiments: §6.2's Figures 17–19 and the §6.3 ARPU
//! validation — the paper's motivating question answered per user.

use crate::world::World;
use yav_campaign::Campaign;
use yav_core::methodology::{per_user_costs, PopulationSummary, UserCost};
use yav_core::validation::{ArpuEstimate, MarketFactors};
use yav_stats::{pearson, Ecdf};
use yav_types::PriceVisibility;

/// Computes the per-user cost accounts once per world.
pub fn costs(w: &World) -> Vec<UserCost> {
    let model = w.pme.current_model().expect("world trains the PME");
    per_user_costs(&w.report.detections, &model, &w.shift)
}

/// Figure 17 — CDFs of cumulative user cost.
pub fn fig17(w: &World) -> String {
    let costs = costs(w);
    let series: Vec<(&str, Vec<f64>)> = vec![
        (
            "cleartext",
            costs.iter().map(|c| c.cleartext.as_f64()).collect(),
        ),
        (
            "cleartext (time corr.)",
            costs
                .iter()
                .map(|c| c.cleartext_corrected.as_f64())
                .collect(),
        ),
        (
            "est. encrypted",
            costs
                .iter()
                .map(|c| c.encrypted_estimated.as_f64())
                .collect(),
        ),
        (
            "total",
            costs.iter().map(|c| c.total_corrected().as_f64()).collect(),
        ),
    ];
    let mut out = String::from("Figure 17: cumulative cost per user (CPM over the trace)\n");
    out += &format!(
        "{:<22} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
        "series", "p10", "p25", "p50", "p75", "p90"
    );
    for (name, values) in &series {
        let positive: Vec<f64> = values.iter().copied().filter(|&v| v > 0.0).collect();
        if positive.is_empty() {
            continue;
        }
        let e = Ecdf::new(&positive);
        out += &format!(
            "{:<22} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}\n",
            name,
            e.quantile(0.10),
            e.quantile(0.25),
            e.median(),
            e.quantile(0.75),
            e.quantile(0.90)
        );
    }
    let s = PopulationSummary::of(&costs);
    out += &format!("\nusers: {}\n", s.users);
    out += &format!(
        "median total user cost: {:.1} CPM (paper: ~25 CPM)\n",
        s.median_total
    );
    out += &format!(
        "users under 100 CPM: {:.0}% (paper: ~73%)\n",
        s.under_100_cpm * 100.0
    );
    out += &format!(
        "1000+ CPM tail: {:.1}% of users (paper: ~2% at 1000-10000 CPM)\n",
        s.tail_1000 * 100.0
    );
    out += &format!(
        "mean encrypted uplift over cleartext: +{:.0}% (paper: ~55% for 60% of users)\n",
        s.encrypted_uplift * 100.0
    );
    out
}

/// Figure 18 — total cleartext vs total estimated encrypted cost per user.
pub fn fig18(w: &World) -> String {
    let costs = costs(w);
    let both: Vec<&UserCost> = costs
        .iter()
        .filter(|c| c.cleartext.is_positive() && c.encrypted_estimated.is_positive())
        .collect();
    let mut out =
        String::from("Figure 18: total cleartext vs total est. encrypted cost per user\n");
    if both.is_empty() {
        return out + "no users with both price kinds\n";
    }
    let ratios: Vec<f64> = both
        .iter()
        .map(|c| c.encrypted_estimated.as_f64() / c.cleartext.as_f64())
        .collect();
    let e = Ecdf::new(&ratios);
    out += &format!("users with both kinds: {}\n", both.len());
    out += &format!(
        "enc/clear total ratio: p10 {:.2}, p50 {:.2}, p90 {:.2}\n",
        e.quantile(0.10),
        e.median(),
        e.quantile(0.90)
    );
    let clear_dominant = ratios.iter().filter(|&&r| r < 1.0).count() as f64 / ratios.len() as f64;
    let enc_2x = ratios.iter().filter(|&&r| r >= 2.0).count() as f64 / ratios.len() as f64;
    out += &format!(
        "users with cleartext > encrypted: {:.0}% (paper: ~75%)\n",
        clear_dominant * 100.0
    );
    out += &format!(
        "users costing 2x+ more encrypted: {:.1}% (paper: small ~2% portion up to 32x)\n",
        enc_2x * 100.0
    );
    let xs: Vec<f64> = both.iter().map(|c| c.cleartext.as_f64().ln()).collect();
    let ys: Vec<f64> = both
        .iter()
        .map(|c| c.encrypted_estimated.as_f64().ln())
        .collect();
    if let Some(r) = pearson(&xs, &ys) {
        out += &format!("log-log correlation of the two totals: {r:.2}\n");
    }
    out
}

/// Figure 19 — average price per impression, cleartext vs encrypted.
pub fn fig19(w: &World) -> String {
    let costs = costs(w);
    let both: Vec<&UserCost> = costs
        .iter()
        .filter(|c| c.cleartext_count > 0 && c.encrypted_count > 0)
        .collect();
    let mut out =
        String::from("Figure 19: avg cleartext vs avg est. encrypted price per impression\n");
    if both.is_empty() {
        return out + "no users with both price kinds\n";
    }
    let avg_ratios: Vec<f64> = both
        .iter()
        .map(|c| c.avg_encrypted() / c.avg_cleartext())
        .collect();
    let e = Ecdf::new(&avg_ratios);
    out += &format!("users with both kinds: {}\n", both.len());
    out += &format!(
        "avg-enc/avg-clear per impression: p10 {:.2}, p50 {:.2}, p90 {:.2}\n",
        e.quantile(0.10),
        e.median(),
        e.quantile(0.90)
    );
    let enc_above =
        avg_ratios.iter().filter(|&&r| r > 1.0).count() as f64 / avg_ratios.len() as f64;
    out += &format!(
        "users whose encrypted impressions average dearer: {:.0}%\n",
        enc_above * 100.0
    );
    let big = avg_ratios.iter().filter(|&&r| r >= 5.0).count() as f64 / avg_ratios.len() as f64;
    out += &format!(
        "5x+ dearer encrypted: {:.1}% (paper: ~2% up to 5x)\n",
        big * 100.0
    );
    out
}

/// §6.3 — the ARPU extrapolation.
pub fn arpu(w: &World) -> String {
    let costs = costs(w);
    let totals: Vec<f64> = costs.iter().map(|c| c.total_corrected().as_f64()).collect();
    // Normalise to a full user-year when the trace is shorter.
    let days = match w.scale {
        crate::world::Scale::Small => 60.0,
        _ => 365.0,
    };
    let yearly: Vec<f64> = totals.iter().map(|t| t * 365.0 / days).collect();
    let est = ArpuEstimate::extrapolate(&yearly, &MarketFactors::paper());
    let mut out = String::from("§6.3 ARPU validation\n");
    out += &format!(
        "panel yearly cost, 25th-75th pct: {:.1}-{:.1} CPM (paper: 8-102 CPM)\n",
        est.panel_p25_cpm, est.panel_p75_cpm
    );
    out += &format!(
        "market-factor multiplier: x{:.1}\n",
        MarketFactors::paper().multiplier()
    );
    out += &format!(
        "extrapolated yearly ad value per user: ${:.2}-${:.2} (paper: $0.54-$6.85)\n",
        est.dollars.0, est.dollars.1
    );
    out += &format!(
        "within order of magnitude of Twitter ($7-8) / Facebook ($14-17): {}\n",
        est.within_order_of_magnitude_of_platforms()
    );
    out
}

/// Validation against simulator ground truth (not available to the
/// paper's authors — our advantage as a simulation): how close do the
/// estimated encrypted totals come to the hidden truth?
pub fn truth_check(w: &World) -> String {
    let costs = costs(w);
    let est_total: f64 = costs.iter().map(|c| c.encrypted_estimated.as_f64()).sum();
    let true_total: f64 = w
        .truth
        .iter()
        .filter(|t| t.visibility == PriceVisibility::Encrypted)
        .map(|t| t.charge.as_f64())
        .sum();
    let clear_total: f64 = costs.iter().map(|c| c.cleartext.as_f64()).sum();
    let mut out = String::from("Ground-truth check (simulator-only validation)\n");
    out += &format!("true encrypted total:      {true_total:.1} CPM\n");
    out += &format!("estimated encrypted total: {est_total:.1} CPM\n");
    out += &format!(
        "aggregate estimation error: {:+.1}%\n",
        (est_total / true_total - 1.0) * 100.0
    );

    // Decompose: the probing campaign whose rows train the model (A1)
    // never bids above its `max_bid`, so the training data never
    // contains the whale tail. Compare against the truth *within the
    // observable price range* as well.
    let cap = Campaign::a1().max_bid.as_f64();
    let trimmed_truth: f64 = w
        .truth
        .iter()
        .filter(|t| t.visibility == PriceVisibility::Encrypted)
        .map(|t| t.charge.as_f64().min(cap))
        .sum();
    let tail = true_total - trimmed_truth;
    out += &format!(
        "truth within the campaign-observable range (≤{cap} CPM): {trimmed_truth:.1} CPM\n"
    );
    out += &format!(
        "whale tail beyond the bid cap: {tail:.1} CPM ({:.0}% of the true total)\n",
        tail / true_total * 100.0
    );
    out += &format!(
        "estimation error vs observable-range truth: {:+.1}%\n",
        (est_total / trimmed_truth - 1.0) * 100.0
    );
    out += &format!(
        "encrypted adds {:.0}% on top of cleartext (true: {:.0}%)\n",
        est_total / clear_total * 100.0,
        true_total / clear_total * 100.0
    );
    out
}
