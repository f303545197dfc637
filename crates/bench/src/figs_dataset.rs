//! Dataset-D figures: the §4 measurement study (Figures 2–14, Tables 3–4).

use crate::world::World;
use std::collections::{BTreeMap, BTreeSet};
use yav_analyzer::features::{FeatureGroup, FeatureSchema};
use yav_stats::{ks_two_sample, PercentileSummary};
use yav_types::{AdSlotSize, Adx, City, DayOfWeek, Os, PriceVisibility, TimeOfDay};

/// Renders a percentile box as a fixed-width text row.
fn box_row(label: &str, p: &PercentileSummary) -> String {
    format!(
        "{label:<24} n={:<7} p5={:<8.3} p10={:<8.3} p50={:<8.3} p90={:<8.3} p95={:<8.3}",
        p.n, p.p5, p.p10, p.p50, p.p90, p.p95
    )
}

/// Figure 2 — portion of encrypted vs cleartext ADX-DSP pairs per month.
pub fn fig2(w: &World) -> String {
    let mut out = String::from("Figure 2: encrypted vs cleartext ADX-DSP pairs over 2015\n");
    out += "month  pairs  encrypted  cleartext  encrypted%\n";
    for m in w.report.pairs.figure2() {
        let total = m.encrypted_pairs + m.cleartext_pairs;
        if total == 0 {
            continue;
        }
        out += &format!(
            "{:>5}  {:>5}  {:>9}  {:>9}  {:>9.1}%\n",
            m.month,
            total,
            m.encrypted_pairs,
            m.cleartext_pairs,
            m.encrypted_fraction() * 100.0
        );
    }
    let f = w.report.pairs.figure2();
    let first = f.iter().find(|m| m.encrypted_pairs + m.cleartext_pairs > 0);
    let last = f
        .iter()
        .rev()
        .find(|m| m.encrypted_pairs + m.cleartext_pairs > 0);
    if let (Some(a), Some(b)) = (first, last) {
        out += &format!(
            "trend: {:.1}% -> {:.1}% (paper: steadily increasing)\n",
            a.encrypted_fraction() * 100.0,
            b.encrypted_fraction() * 100.0
        );
    }
    out
}

/// Figure 3 — cumulative cleartext share vs entity RTB share.
pub fn fig3(w: &World) -> String {
    let mut out =
        String::from("Figure 3: cumulative portion of cleartext prices vs RTB share of entities\n");
    out += "entity            rtb_share  cleartext_share  cum_cleartext\n";
    let mut cum = 0.0;
    for e in w.report.pairs.figure3() {
        cum += e.cleartext_share;
        out += &format!(
            "{:<16}  {:>8.2}%  {:>14.2}%  {:>12.2}%\n",
            e.name,
            e.rtb_share * 100.0,
            e.cleartext_share * 100.0,
            cum * 100.0
        );
    }
    out += "(paper: MoPub 33.55% of RTB and ~45.4% of cleartext prices)\n";
    out
}

/// Table 3 — dataset and campaign summary.
pub fn table3(w: &World) -> String {
    // Distinct RTB publishers per month in D.
    let mut monthly_pubs: BTreeMap<usize, BTreeSet<&str>> = BTreeMap::new();
    for d in &w.report.detections {
        if let Some(p) = &d.publisher {
            monthly_pubs
                .entry(d.time.month().index())
                .or_default()
                .insert(p);
        }
    }
    let avg_pubs = if monthly_pubs.is_empty() {
        0.0
    } else {
        monthly_pubs.values().map(|s| s.len()).sum::<usize>() as f64 / monthly_pubs.len() as f64
    };
    let d_iabs: BTreeSet<_> = w.report.detections.iter().filter_map(|d| d.iab).collect();
    let mut out = String::from("Table 3: dataset and ad-campaign summary\n");
    out += &format!("{:<22} {:>12} {:>12} {:>12}\n", "metric", "D", "A1", "A2");
    out += &format!(
        "{:<22} {:>12} {:>12} {:>12}\n",
        "time period", "12 months", "13 days", "8 days"
    );
    out += &format!(
        "{:<22} {:>12} {:>12} {:>12}\n",
        "impressions",
        w.report.detections.len(),
        w.a1.rows.len(),
        w.a2.rows.len()
    );
    out += &format!(
        "{:<22} {:>12} {:>12} {:>12}\n",
        "RTB publishers",
        format!("~{avg_pubs:.0}/month"),
        w.a1.distinct_publishers(),
        w.a2.distinct_publishers()
    );
    out += &format!(
        "{:<22} {:>12} {:>12} {:>12}\n",
        "IAB categories",
        d_iabs.len(),
        w.a1.distinct_iabs(),
        w.a2.distinct_iabs()
    );
    out += &format!(
        "{:<22} {:>12} {:>12} {:>12}\n",
        "users", w.report.users_seen, "-", "-"
    );
    out += "(paper: D 78 560 imps / ~5.6k pubs/month / 18 IABs / 1 594 users; A1 632 667; A2 318 964)\n";
    out
}

/// Figure 5 — charge-price percentiles per city (cleartext detections).
pub fn fig5(w: &World) -> String {
    let mut out = String::from("Figure 5: charge price distribution per city (CPM, cleartext)\n");
    for city in City::ALL {
        let prices: Vec<f64> = w
            .report
            .detections
            .iter()
            .filter(|d| d.city == Some(city))
            .filter_map(|d| d.cleartext_cpm.map(|p| p.as_f64()))
            .collect();
        if prices.is_empty() {
            continue;
        }
        out += &box_row(city.name(), &PercentileSummary::of(&prices));
        out.push('\n');
    }
    out += "(paper: big cities lower medians, wider fluctuation)\n";
    out
}

/// Figure 6 — price by time of day, with the footnote-5 KS test.
pub fn fig6(w: &World) -> String {
    let mut out = String::from("Figure 6: charge prices by time of day (CPM, cleartext)\n");
    let mut by_bucket: Vec<Vec<f64>> = vec![Vec::new(); 6];
    for d in &w.report.detections {
        if let Some(p) = d.cleartext_cpm {
            by_bucket[d.time.time_of_day() as usize].push(p.as_f64());
        }
    }
    for t in TimeOfDay::ALL {
        out += &box_row(t.label(), &PercentileSummary::of(&by_bucket[t as usize]));
        out.push('\n');
    }
    // KS: morning block vs late-evening block (the extremes).
    if let Some(ks) = ks_two_sample(
        &by_bucket[TimeOfDay::Morning as usize],
        &by_bucket[TimeOfDay::LateEvening as usize],
    ) {
        out += &format!(
            "KS morning vs late-evening: D={:.4}, p={:.2e} (paper: p_tod < 0.0002)\n",
            ks.statistic, ks.p_value
        );
    }
    out
}

/// Figure 7 — price by day of week, with KS test.
pub fn fig7(w: &World) -> String {
    let mut out = String::from("Figure 7: charge prices by day of week (CPM, cleartext)\n");
    let mut by_day: Vec<Vec<f64>> = vec![Vec::new(); 7];
    for d in &w.report.detections {
        if let Some(p) = d.cleartext_cpm {
            by_day[d.time.day_of_week().index()].push(p.as_f64());
        }
    }
    for day in DayOfWeek::PAPER_ORDER {
        out += &box_row(
            &day.to_string(),
            &PercentileSummary::of(&by_day[day.index()]),
        );
        out.push('\n');
    }
    let weekday: Vec<f64> = DayOfWeek::ALL[..5]
        .iter()
        .flat_map(|d| by_day[d.index()].iter().copied())
        .collect();
    let weekend: Vec<f64> = DayOfWeek::ALL[5..]
        .iter()
        .flat_map(|d| by_day[d.index()].iter().copied())
        .collect();
    if let Some(ks) = ks_two_sample(&weekday, &weekend) {
        out += &format!(
            "KS weekday vs weekend: D={:.4}, p={:.2e} (paper: p_dow < 0.002)\n",
            ks.statistic, ks.p_value
        );
    }
    out
}

/// Figures 8 and 9 — RTB share per OS over the year, raw and normalised.
pub fn fig8_9(w: &World) -> String {
    let mut out = String::from("Figure 8: RTB share per OS per month (of detections)\n");
    out += "month  Android      iOS  WinMob   Other\n";
    let mut monthly: Vec<[u64; 4]> = vec![[0; 4]; 12];
    for d in &w.report.detections {
        let m = if d.time.year() <= 2015 {
            d.time.month().index()
        } else {
            11
        };
        monthly[m][yav_analyzer::analyzer::os_index(d.os)] += 1;
    }
    for (m, counts) in monthly.iter().enumerate() {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            continue;
        }
        out += &format!(
            "{:>5}  {:>6.1}%  {:>6.1}%  {:>6.1}%  {:>6.1}%\n",
            m + 1,
            counts[0] as f64 / total as f64 * 100.0,
            counts[1] as f64 / total as f64 * 100.0,
            counts[2] as f64 / total as f64 * 100.0,
            counts[3] as f64 / total as f64 * 100.0,
        );
    }
    out += "(paper: Android ≈2x iOS in auction volume)\n\n";

    out += "Figure 9: RTB share normalised by each OS's total traffic\n";
    out += "month  Android      iOS\n";
    for (m, counts) in monthly.iter().enumerate() {
        let android_total = w.report.monthly_os_requests[m][0];
        let ios_total = w.report.monthly_os_requests[m][1];
        if android_total == 0 || ios_total == 0 {
            continue;
        }
        out += &format!(
            "{:>5}  {:>6.2}%  {:>6.2}%\n",
            m + 1,
            counts[0] as f64 / android_total as f64 * 100.0,
            counts[1] as f64 / ios_total as f64 * 100.0,
        );
    }
    out += "(paper: per-OS normalised shares roughly equal)\n";
    out
}

/// Figure 10 — charge prices per mobile OS (MoPub subset).
pub fn fig10(w: &World) -> String {
    let mut out = String::from("Figure 10: charge prices per OS (MoPub subset, CPM)\n");
    for os in [Os::Android, Os::Ios] {
        let prices: Vec<f64> = w
            .report
            .detections
            .iter()
            .filter(|d| d.adx == Adx::MoPub && d.os == os)
            .filter_map(|d| d.cleartext_cpm.map(|p| p.as_f64()))
            .collect();
        out += &box_row(os.label(), &PercentileSummary::of(&prices));
        out.push('\n');
    }
    out += "(paper: iOS draws higher median prices despite Android's volume)\n";
    out
}

/// Figure 11 — cost distribution per IAB category (MoPub, 2-month subset).
pub fn fig11(w: &World) -> String {
    let start = w.last_two_months_start();
    let mut out = format!(
        "Figure 11: charge-price distribution per IAB (MoPub, months {}-{} subset)\n",
        start + 1,
        start + 2
    );
    for iab in yav_types::IabCategory::ALL {
        let prices: Vec<f64> = w
            .report
            .detections
            .iter()
            .filter(|d| {
                d.adx == Adx::MoPub && d.iab == Some(iab) && d.time.month().index() >= start
            })
            .filter_map(|d| d.cleartext_cpm.map(|p| p.as_f64()))
            .collect();
        if prices.len() < 5 {
            continue;
        }
        out += &box_row(&iab.label(), &PercentileSummary::of(&prices));
        out.push('\n');
    }
    out += "(paper: IAB3 Business dearest ~5 CPM median; IAB15 Science cheapest <0.2)\n";
    out
}

/// Figure 12 — ad-slot popularity per month (size-carrying detections).
pub fn fig12(w: &World) -> String {
    let mut out = String::from("Figure 12: ad-slot size share per month (size-carrying nURLs)\n");
    let tracked = [
        AdSlotSize::S320x50,
        AdSlotSize::S300x250,
        AdSlotSize::S728x90,
    ];
    out += "month  320x50  300x250  728x90  (other sizes omitted)\n";
    let mut monthly: BTreeMap<usize, BTreeMap<AdSlotSize, u64>> = BTreeMap::new();
    for d in &w.report.detections {
        if let Some(slot) = d.slot {
            let m = if d.time.year() <= 2015 {
                d.time.month().index()
            } else {
                11
            };
            *monthly.entry(m).or_default().entry(slot).or_insert(0) += 1;
        }
    }
    let mut crossover = None;
    for (m, counts) in &monthly {
        let total: u64 = counts.values().sum();
        if total == 0 {
            continue;
        }
        let share =
            |s: AdSlotSize| counts.get(&s).copied().unwrap_or(0) as f64 / total as f64 * 100.0;
        out += &format!(
            "{:>5}  {:>5.1}%  {:>6.1}%  {:>5.1}%\n",
            m + 1,
            share(tracked[0]),
            share(tracked[1]),
            share(tracked[2])
        );
        if crossover.is_none() && share(AdSlotSize::S300x250) > share(AdSlotSize::S320x50) {
            crossover = Some(m + 1);
        }
    }
    out += &format!(
        "MPU overtakes the 320x50 banner in month {:?} (paper: from May 2015)\n",
        crossover
    );
    out
}

/// Figure 13 — price per ad-slot size (Turn subset).
pub fn fig13(w: &World) -> String {
    let mut out = String::from("Figure 13: charge prices per ad-slot size (Turn subset, CPM)\n");
    for slot in AdSlotSize::FIGURE13 {
        let prices: Vec<f64> = w
            .report
            .detections
            .iter()
            .filter(|d| d.adx == Adx::Turn && d.slot == Some(slot))
            .filter_map(|d| d.cleartext_cpm.map(|p| p.as_f64()))
            .collect();
        if prices.is_empty() {
            continue;
        }
        out += &box_row(&slot.to_string(), &PercentileSummary::of(&prices));
        out.push('\n');
    }
    out += "(paper: MPU 300x250 dearest at 0.47 median; area does not order price)\n";
    out
}

/// Figure 14 — accumulated revenue per ad-slot size (Turn subset).
pub fn fig14(w: &World) -> String {
    let mut out = String::from("Figure 14: accumulated revenue per ad-slot size (Turn subset)\n");
    let mut revenue: BTreeMap<AdSlotSize, f64> = BTreeMap::new();
    for d in &w.report.detections {
        if d.adx == Adx::Turn {
            if let (Some(slot), Some(p)) = (d.slot, d.cleartext_cpm) {
                *revenue.entry(slot).or_insert(0.0) += p.as_f64();
            }
        }
    }
    let total: f64 = revenue.values().sum();
    let mut rows: Vec<(AdSlotSize, f64)> = revenue.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (slot, rev) in rows {
        out += &format!(
            "{:<10} {:>10.2} CPM  {:>5.1}% of Turn revenue\n",
            slot.to_string(),
            rev,
            rev / total * 100.0
        );
    }
    out += "(paper: MPU accumulates 64.3% and the leaderboard 20.6% of Turn revenue)\n";
    out
}

/// Table 4 — the feature catalogue.
pub fn table4(_w: &World) -> String {
    let schema = FeatureSchema::get();
    let mut out = String::from("Table 4: extracted feature catalogue (288 features)\n");
    for (group, label) in [
        (FeatureGroup::Time, "A time"),
        (FeatureGroup::Http, "B http"),
        (FeatureGroup::Ad, "C advertisement"),
        (FeatureGroup::Dsp, "D DSP"),
        (FeatureGroup::Publisher, "E publisher interests"),
        (FeatureGroup::UserHttp, "F user http stats"),
        (FeatureGroup::UserInterests, "G user interests"),
        (FeatureGroup::UserLocations, "H user locations"),
    ] {
        let idx = schema.group_indices(group);
        let sample: Vec<&str> = idx.iter().take(4).map(|&i| schema.name_of(i)).collect();
        out += &format!(
            "{label:<24} {:>3} features  e.g. {}\n",
            idx.len(),
            sample.join(", ")
        );
    }
    out += &format!("total: {} features\n", schema.len());
    out
}

/// The §2.4 aggregate: encrypted share of detections (vs the paper's
/// ~26 % mobile figure) and the split of visibility per house style.
pub fn encrypted_share(w: &World) -> String {
    let total = w.report.detections.len();
    let enc = w
        .report
        .detections
        .iter()
        .filter(|d| d.visibility == PriceVisibility::Encrypted)
        .count();
    format!(
        "Encrypted notifications: {enc}/{total} = {:.1}% (paper: ~26% of 2015 mobile RTB)\n",
        enc as f64 / total.max(1) as f64 * 100.0
    )
}
