//! Campaign execution against the simulated market.
//!
//! For each setup the executor synthesises auction traffic matching the
//! filter tuple (the open market the DSP would bid on), submits the
//! probe's capped bid, and books every win into the performance report.
//! Wins carry the *true* charge price — the buyer side of the protocol
//! always learns it, which is precisely why the paper's probing
//! campaigns can collect encrypted-price ground truth.

use crate::setups::Setup;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use yav_auction::{AdRequest, Market, MarketConfig, ProbeBid};
use yav_exec::ExecConfig;
use yav_types::time::CampaignShift;
use yav_types::{
    AdSlotSize, Adx, CampaignId, City, Cpm, DeviceType, DspId, IabCategory, InteractionType,
    MicroUsd, Os, PriceVisibility, PublisherId, SimTime, UserId,
};
use yav_weblog::PublisherUniverse;

/// A probing campaign configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Campaign {
    /// Campaign identity (booked into won impressions).
    pub id: CampaignId,
    /// Human-readable name ("A1", "A2").
    pub name: String,
    /// Exchanges to sweep.
    pub adxs: Vec<Adx>,
    /// Publisher categories to target.
    pub iabs: Vec<IabCategory>,
    /// First day of the delivery window.
    pub window_start: SimTime,
    /// Window length in days.
    pub window_days: u32,
    /// Impressions to buy per setup (§5.2 suggests ≥185).
    pub impressions_per_setup: u32,
    /// Bid cap handed to the DSP (budget safeguard, §5.3).
    pub max_bid: Cpm,
    /// Total budget; execution stops when it is exhausted.
    pub budget: MicroUsd,
    /// The cooperating DSP.
    pub dsp: DspId,
    /// Maximum distinct publishers the DSP buys from (real campaigns
    /// clear on a limited inventory list; Table 3 reports ~0.2-0.3 k).
    pub publisher_cap: usize,
    /// Traffic-synthesis seed.
    pub seed: u64,
}

impl Campaign {
    /// Campaign **A1**: the four encrypting exchanges, 13 days in May
    /// 2016 (Table 3), 16 IAB categories.
    pub fn a1() -> Campaign {
        Campaign {
            id: CampaignId(1),
            name: "A1".into(),
            adxs: Adx::ENCRYPTED_TARGETS.to_vec(),
            iabs: IabCategory::ALL[..16].to_vec(),
            window_start: SimTime::from_ymd_hm(2016, 5, 9, 0, 0),
            window_days: 13,
            impressions_per_setup: 4394, // ≈ 632 667 / 144 (Table 3)
            max_bid: Cpm::from_whole(30),
            budget: MicroUsd::from_dollars(2500),
            dsp: DspId(0),
            publisher_cap: 220,
            seed: 0xA1,
        }
    }

    /// Campaign **A2**: MoPub only, 8 days in June 2016, 7 IAB
    /// categories (Table 3).
    pub fn a2() -> Campaign {
        Campaign {
            id: CampaignId(2),
            name: "A2".into(),
            adxs: vec![Adx::MoPub],
            iabs: IabCategory::ALL[..7].to_vec(),
            window_start: SimTime::from_ymd_hm(2016, 6, 13, 0, 0),
            window_days: 8,
            impressions_per_setup: 2215, // ≈ 318 964 / 144 (Table 3)
            max_bid: Cpm::from_whole(30),
            budget: MicroUsd::from_dollars(1200),
            dsp: DspId(0),
            publisher_cap: 320,
            seed: 0xA2,
        }
    }

    /// A scaled copy for tests and quick runs.
    pub fn scaled(&self, impressions_per_setup: u32) -> Campaign {
        Campaign {
            impressions_per_setup,
            ..self.clone()
        }
    }
}

/// One bought impression, as the DSP's performance report records it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeImpression {
    /// The setup that bought it.
    pub setup_id: u32,
    /// Delivery time.
    pub time: SimTime,
    /// Audience city.
    pub city: City,
    /// Device OS.
    pub os: Os,
    /// Device class.
    pub device: DeviceType,
    /// App vs web inventory.
    pub interaction: InteractionType,
    /// Creative format.
    pub format: AdSlotSize,
    /// Exchange.
    pub adx: Adx,
    /// Publisher IAB category.
    pub iab: IabCategory,
    /// Publisher name.
    pub publisher: String,
    /// **True** charge price, from the buyer-side report.
    pub charge: Cpm,
    /// How the browser-side notification reported the price.
    pub visibility: PriceVisibility,
}

/// The result of one campaign execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Every bought impression.
    pub rows: Vec<ProbeImpression>,
    /// Total spend.
    pub spent: MicroUsd,
    /// Setups completed in full before any budget stop.
    pub setups_completed: usize,
    /// True if the budget ran out mid-sweep.
    pub budget_exhausted: bool,
    /// Auctions entered (wins + losses) — the DSP's fill diagnostics.
    pub auctions_entered: u64,
}

impl CampaignReport {
    /// Distinct publishers reached (Table 3 reports ~0.2 k / ~0.3 k).
    pub fn distinct_publishers(&self) -> usize {
        let set: std::collections::BTreeSet<&str> =
            self.rows.iter().map(|r| r.publisher.as_str()).collect();
        set.len()
    }

    /// Distinct IAB categories reached.
    pub fn distinct_iabs(&self) -> usize {
        let set: std::collections::BTreeSet<IabCategory> =
            self.rows.iter().map(|r| r.iab).collect();
        set.len()
    }

    /// Charge prices as floating CPM (for statistics).
    pub fn prices_cpm(&self) -> Vec<f64> {
        self.rows.iter().map(|r| r.charge.as_f64()).collect()
    }
}

/// Audience publishers: category-eligible inventory, capped to the
/// campaign's publisher list (most popular first — that is where a DSP
/// finds volume).
fn eligible_publishers<'u>(
    universe: &'u PublisherUniverse,
    campaign: &Campaign,
) -> Vec<&'u yav_weblog::Publisher> {
    let mut eligible: Vec<&yav_weblog::Publisher> = universe
        .all()
        .iter()
        .filter(|p| campaign.iabs.contains(&p.iab))
        .collect();
    eligible.sort_by(|a, b| b.weight.total_cmp(&a.weight));
    eligible.truncate(campaign.publisher_cap.max(1));
    assert!(
        !eligible.is_empty(),
        "universe has no publishers in the target categories"
    );
    eligible
}

/// One setup's worth of buying, executed without budget knowledge.
/// The merge step replays the setup-order budget walk over these.
struct SetupRun {
    rows: Vec<ProbeImpression>,
    /// Auctions entered within this setup up to and including the one
    /// that bought `rows[i]` (for mid-setup budget stops).
    attempts_at: Vec<u64>,
    /// Auctions entered for the whole setup.
    attempts_total: u64,
    /// Whether the setup bought its full allotment.
    completed: bool,
}

/// Buys one setup's impressions against a dedicated shard market.
fn run_setup(
    market: &mut Market,
    rng: &mut StdRng,
    setup: &Setup,
    campaign: &Campaign,
    eligible: &[&yav_weblog::Publisher],
) -> SetupRun {
    let mut run = SetupRun {
        rows: Vec::with_capacity(campaign.impressions_per_setup as usize),
        attempts_at: Vec::with_capacity(campaign.impressions_per_setup as usize),
        attempts_total: 0,
        completed: false,
    };
    let probe = ProbeBid {
        dsp: campaign.dsp,
        max_bid: campaign.max_bid,
        campaign: campaign.id,
    };
    // The notification the browser would fire; the report reads the
    // sale itself, so the rendered URL only needs a reused buffer.
    let mut nurl = String::new();
    let mut bought = 0u32;
    let mut attempts = 0u32;
    let max_attempts = campaign.impressions_per_setup.saturating_mul(4).max(16);
    while bought < campaign.impressions_per_setup && attempts < max_attempts {
        attempts += 1;
        run.attempts_total += 1;
        let req = synthesize_request(rng, setup, campaign, eligible);
        let Some(win) = market
            .run_auction(&req, Some(&probe), &mut nurl)
            .filter(|sale| sale.winner == probe.dsp)
        else {
            continue;
        };
        bought += 1;
        run.attempts_at.push(run.attempts_total);
        run.rows.push(ProbeImpression {
            setup_id: setup.id,
            time: req.time,
            city: setup.city,
            os: setup.os,
            device: setup.device,
            interaction: setup.interaction,
            format: setup.format,
            adx: setup.adx,
            iab: req.iab,
            publisher: req.publisher_name.clone(),
            charge: win.charge,
            visibility: win.visibility,
        });
    }
    run.completed = bought == campaign.impressions_per_setup;
    run
}

/// Market-shard id for one campaign setup. Weblog user shards occupy the
/// low shard numbers, so campaign markets live in a disjoint namespace.
fn campaign_shard(campaign: &Campaign, setup_id: u32) -> u64 {
    0x10_0000 + campaign.id.0 as u64 * 0x1000 + setup_id as u64
}

/// Executes a campaign: sweeps all 144 Table-5 setups, one logical shard
/// per setup, on `exec`'s worker pool. `ExecConfig::serial()` runs them
/// in order on the calling thread; the result never depends on the
/// worker count.
///
/// Each setup buys against its own deterministic shard market — see
/// [`Market::new_shard`]. Workers buy without budget knowledge, and the
/// merge walks the setups in order — accumulating spend and truncating
/// at the first row that pushes spend past the budget, discarding every
/// later row and setup.
pub fn execute_parallel(
    market_config: &MarketConfig,
    universe: &PublisherUniverse,
    campaign: &Campaign,
    exec: &ExecConfig,
) -> CampaignReport {
    let _span = yav_telemetry::span!("exec.campaign.execute_parallel");
    let setups_counter = yav_telemetry::counter("campaign.executor.setups_completed");
    let auctions_counter = yav_telemetry::counter("campaign.executor.auctions_entered");
    let bought_counter = yav_telemetry::counter("campaign.executor.impressions_bought");
    let setups = crate::setups::table5(&campaign.adxs);
    let eligible = eligible_publishers(universe, campaign);
    yav_telemetry::gauge("exec.campaign.shards").set(setups.len() as f64);

    let template = yav_auction::MarketTemplate::new(market_config.clone());
    let runs = yav_exec::par_map_indexed(exec, setups.len(), |i| {
        let setup = &setups[i];
        let mut market = template.shard(campaign_shard(campaign, setup.id));
        let mut rng = StdRng::seed_from_u64(yav_exec::derive_seed(
            campaign.seed ^ 0xCA4B_0000_0000_0007,
            setup.id as u64 + 1,
        ));
        run_setup(&mut market, &mut rng, setup, campaign, &eligible)
    });

    // Budget replay: the setup-order walk over the per-setup streams.
    let mut report = CampaignReport {
        name: campaign.name.clone(),
        rows: Vec::new(),
        spent: MicroUsd::ZERO,
        setups_completed: 0,
        budget_exhausted: false,
        auctions_entered: 0,
    };
    'sweep: for run in runs {
        let SetupRun {
            rows,
            attempts_at,
            attempts_total,
            completed,
        } = run;
        for (row, &attempts) in rows.into_iter().zip(&attempts_at) {
            report.spent = report.spent.saturating_add(row.charge.per_impression());
            report.rows.push(row);
            bought_counter.inc();
            if report.spent > campaign.budget {
                report.budget_exhausted = true;
                report.auctions_entered += attempts;
                auctions_counter.add(attempts);
                break 'sweep;
            }
        }
        report.auctions_entered += attempts_total;
        auctions_counter.add(attempts_total);
        if completed {
            report.setups_completed += 1;
            setups_counter.inc();
        }
    }
    report
}

/// Synthesises one open-market ad request matching a setup's filters.
fn synthesize_request(
    rng: &mut StdRng,
    setup: &Setup,
    campaign: &Campaign,
    eligible: &[&yav_weblog::Publisher],
) -> AdRequest {
    // Delivery time: a day in the window with the right day-type, an hour
    // inside the shift.
    let time = loop {
        let day = rng.gen_range(0..campaign.window_days as i64);
        let midnight = campaign.window_start.plus_days(day);
        if !setup.day_type.matches(midnight.is_weekend()) {
            continue;
        }
        let hour = loop {
            let h = rng.gen_range(0..24u32);
            if CampaignShift::from_hour(h) == setup.shift {
                break h;
            }
        };
        break midnight.plus_minutes(hour as i64 * 60 + rng.gen_range(0..60i64));
    };

    // The audience member: an open-market user (outside the panel's id
    // space), so the DMP draws fresh value factors.
    let user = UserId(1_000_000 + rng.gen_range(0..200_000u32));

    // Publisher: any eligible one matching the channel.
    let publisher = loop {
        let p = eligible[rng.gen_range(0..eligible.len())];
        if p.is_app == (setup.interaction == InteractionType::MobileApp) {
            break p;
        }
    };

    AdRequest {
        time,
        user,
        city: setup.city,
        os: setup.os,
        device: setup.device,
        interaction: setup.interaction,
        publisher: PublisherId(publisher.id.0),
        publisher_name: publisher.name.clone(),
        iab: publisher.iab,
        slot: setup.format,
        adx: setup.adx,
        interest_match: rng.gen_range(0.0..0.3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yav_auction::MarketConfig;

    fn universe() -> PublisherUniverse {
        PublisherUniverse::build(0xD474, 300, 120)
    }

    fn run(campaign: &Campaign, exec: &ExecConfig) -> CampaignReport {
        execute_parallel(&MarketConfig::default(), &universe(), campaign, exec)
    }

    #[test]
    fn encrypted_campaign_prices_run_higher() {
        // The §6.1 headline must be visible in the raw campaign data.
        let a1 = run(&Campaign::a1().scaled(30), &ExecConfig::serial());
        let a2 = run(&Campaign::a2().scaled(30), &ExecConfig::serial());
        let median = |mut v: Vec<f64>| {
            v.sort_by(|a, b| a.total_cmp(b));
            v[v.len() / 2]
        };
        let ratio = median(a1.prices_cpm()) / median(a2.prices_cpm());
        assert!(
            (1.25..=2.4).contains(&ratio),
            "A1/A2 median ratio {ratio:.2}"
        );
    }

    #[test]
    fn parallel_is_thread_count_invariant() {
        let campaign = Campaign::a1().scaled(4);
        let base = run(&campaign, &ExecConfig::serial());
        assert_eq!(base.setups_completed, 144);
        assert_eq!(base.rows.len(), 144 * 4);
        assert!(!base.budget_exhausted);
        assert!(base.spent > MicroUsd::ZERO);
        // Every A1 exchange encrypts: browser-side the prices are opaque,
        // yet the report knows every charge.
        for row in &base.rows {
            assert_eq!(row.visibility, PriceVisibility::Encrypted);
            assert!(row.charge.is_positive());
            assert!(row.charge <= campaign.max_bid);
        }
        for threads in [2usize, 8] {
            let par = run(&campaign, &ExecConfig::with_threads(threads));
            assert_eq!(par.rows, base.rows, "threads={threads}");
            assert_eq!(par.spent, base.spent);
            assert_eq!(par.setups_completed, base.setups_completed);
            assert_eq!(par.auctions_entered, base.auctions_entered);
            assert_eq!(par.budget_exhausted, base.budget_exhausted);
        }
    }

    #[test]
    fn parallel_rows_respect_setup_filters() {
        let report = run(&Campaign::a2().scaled(3), &ExecConfig::with_threads(4));
        let setups = crate::setups::table5(&[Adx::MoPub]);
        // Setup-major order: the setups are walked in index order.
        let mut last_setup = 0u32;
        for row in &report.rows {
            assert!(row.setup_id >= last_setup);
            last_setup = row.setup_id;
            let s = &setups[row.setup_id as usize];
            assert_eq!(row.city, s.city);
            assert_eq!(row.os, s.os);
            assert_eq!(row.device, s.device);
            assert_eq!(row.format, s.format);
            assert_eq!(row.adx, Adx::MoPub);
            assert_eq!(row.visibility, PriceVisibility::Cleartext);
            assert_eq!(
                CampaignShift::from_hour(row.time.hour()),
                s.shift,
                "delivery inside the shift"
            );
            assert!(s.day_type.matches(row.time.is_weekend()));
        }
        assert!(report.distinct_iabs() <= 7);
        assert!(report.distinct_publishers() > 10);
    }

    #[test]
    fn parallel_budget_stop_matches_serial_semantics() {
        let mut tiny = Campaign::a1().scaled(50);
        tiny.budget = MicroUsd(3_000); // three tenths of a cent
        let serial = run(&tiny, &ExecConfig::serial());
        let par = run(&tiny, &ExecConfig::with_threads(8));
        for report in [&serial, &par] {
            assert!(report.budget_exhausted);
            assert!(report.rows.len() < 144 * 50);
            assert!(report.spent >= tiny.budget);
            // The last row is the one that broke the budget.
            let spent_before: MicroUsd = report.rows[..report.rows.len() - 1]
                .iter()
                .fold(MicroUsd::ZERO, |acc, r| {
                    acc.saturating_add(r.charge.per_impression())
                });
            assert!(spent_before <= tiny.budget);
        }
        assert_eq!(serial.rows, par.rows);
        assert_eq!(serial.setups_completed, par.setups_completed);
        assert_eq!(serial.auctions_entered, par.auctions_entered);
    }
}
