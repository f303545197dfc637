//! Constant-memory streaming world builder.
//!
//! [`crate::World::build_with`] holds every detection, ground-truth
//! record and HTTP-derived row it will ever need until assembly — fine at
//! paper scale, impossible at the ROADMAP's "millions of users".
//! [`StreamWorld`] rebuilds the same pipeline as a **streaming fold**:
//!
//! 1. shards are processed in fixed windows (`window = f(threads)`, a
//!    scheduling knob that bounds live memory and never touches results);
//! 2. each shard runs generate → market → analyze → tenant-monitor fused,
//!    retaining only commutative aggregates ([`yav_analyzer::Retention::
//!    Bounded`], [`TruthStats`], [`yav_core::TenantReport`]);
//! 3. window results fold into the running totals in shard-index order
//!    and are dropped.
//!
//! Because every retained piece merges commutatively and the fold order
//! is the shard order — never the thread schedule — the stream run is
//! deterministic for any thread count and any window size, and its
//! aggregates (`AnalyzerReport::summary`, class counts, pairs) are
//! bit-identical to what [`crate::World::build_with`] computes at scales
//! where both fit (the stream-equivalence suite pins this).
//!
//! Peak memory is `O(window × shard)` + the running aggregates: a
//! million-user day streams ~11 M HTTP events through a few tens of
//! megabytes.

use crate::world::{a2_strata, campaigns_and_pme, Scale};
use yav_analyzer::{AnalyzerReport, DetectionSummary, Retention, WeblogAnalyzer};
use yav_auction::{MarketConfig, MarketTemplate};
use yav_campaign::CampaignReport;
use yav_core::{TenantReport, TenantStore};
use yav_exec::ExecConfig;
use yav_pme::{Pme, TimeShift};
use yav_stats::summary::median;
use yav_weblog::{GroundTruth, Panel, PanelUser, WeblogConfig, WeblogGenerator, USERS_PER_SHARD};

/// Commutative aggregates over the simulator's ground truth — what the
/// streaming run keeps instead of a `Vec<GroundTruth>`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TruthStats {
    /// Sold impressions.
    pub impressions: u64,
    /// Impressions whose notification carried a cleartext price.
    pub cleartext: u64,
    /// Impressions with an encrypted price token.
    pub encrypted: u64,
    /// Exact sum of all charges in micro-CPM.
    pub charge_micros: i64,
}

impl TruthStats {
    /// Folds one ground-truth record in.
    pub fn record(&mut self, t: &GroundTruth) {
        self.impressions += 1;
        match t.visibility {
            yav_types::PriceVisibility::Cleartext => self.cleartext += 1,
            yav_types::PriceVisibility::Encrypted => self.encrypted += 1,
        }
        self.charge_micros = self.charge_micros.saturating_add(t.charge.micros());
    }

    /// Folds another stats block in (commutative).
    pub fn merge(&mut self, other: &TruthStats) {
        self.impressions += other.impressions;
        self.cleartext += other.cleartext;
        self.encrypted += other.encrypted;
        self.charge_micros = self.charge_micros.saturating_add(other.charge_micros);
    }

    /// Mean charge in CPM.
    pub fn mean_charge_cpm(&self) -> Option<f64> {
        (self.impressions > 0)
            .then(|| self.charge_micros as f64 / 1_000_000.0 / self.impressions as f64)
    }
}

/// What one streamed shard hands back before being dropped.
struct StreamPart {
    report: AnalyzerReport,
    truth: TruthStats,
    tenants: TenantReport,
    http_requests: u64,
}

/// The streaming world: every aggregate the materialised [`crate::World`]
/// computes that survives bounded retention, plus the multi-tenant
/// monitor fleet's report.
pub struct StreamWorld {
    /// The scale this world streamed at.
    pub scale: Scale,
    /// Bounded analyzer report: `detections` is empty, `summary` (and
    /// every other aggregate) is exact.
    pub report: AnalyzerReport,
    /// Ground-truth aggregates.
    pub truth: TruthStats,
    /// The multi-tenant YourAdValue fleet's view of the same stream.
    pub tenants: TenantReport,
    /// Campaign A1 (encrypting exchanges).
    pub a1: CampaignReport,
    /// Campaign A2 (MoPub cleartext).
    pub a2: CampaignReport,
    /// The trained engine (model shared by every tenant monitor).
    pub pme: Pme,
    /// The §6.2 time shift, fitted from the summary histograms.
    pub shift: TimeShift,
    /// Total HTTP requests streamed.
    pub http_requests: u64,
    /// Panel size.
    pub users: u32,
    /// Weblog shards streamed.
    pub shards: usize,
}

impl StreamWorld {
    /// Streams the world with default parallelism.
    pub fn build(scale: Scale) -> StreamWorld {
        StreamWorld::build_with(scale, &ExecConfig::default())
    }

    /// Streams the world on `exec`'s worker pool.
    ///
    /// The shard cut, per-shard markets and per-request analyzer walk are
    /// exactly [`crate::World::build_with`]'s; only retention differs.
    /// Thread count and window size affect scheduling and peak memory,
    /// never results.
    pub fn build_with(scale: Scale, exec: &ExecConfig) -> StreamWorld {
        let config = WeblogConfig {
            exec: *exec,
            ..scale.weblog()
        };
        StreamWorld::build_from_config(scale, config)
    }

    /// Streams the Huge profile (one simulated day, lazy panel) at a
    /// custom panel size; perfbench's fidelity test checks its stream
    /// workload against this builder.
    pub fn build_with_users(users: u32, exec: &ExecConfig) -> StreamWorld {
        let config = WeblogConfig {
            users,
            exec: *exec,
            ..WeblogConfig::huge()
        };
        StreamWorld::build_from_config(Scale::Huge, config)
    }

    fn build_from_config(scale: Scale, config: WeblogConfig) -> StreamWorld {
        let _span = yav_telemetry::span!("bench.world.stream", config.users);
        let exec = &config.exec;
        let generator = WeblogGenerator::new(config.clone());
        let market_config = MarketConfig::default();
        // One template build per run: the integration matrix's key
        // derivation is milliseconds of SHA-256, identical across all
        // shards — stamping per-shard markets from the template is what
        // keeps per-shard setup off the stream's critical path.
        let market_template = MarketTemplate::new(market_config.clone());
        let shards = generator.shard_count();
        yav_telemetry::gauge("world.stream.shards").set(shards as f64);

        // Campaigns and PME first: they are weblog-independent, and the
        // tenant monitors need the client model while the stream runs.
        let (a1, a2, pme) = campaigns_and_pme(scale, exec, &market_config, generator.universe());
        let model = pme.current_model();

        // The live window: how many shards exist in memory at once. A
        // few shards per worker keeps the pool busy across uneven shard
        // costs; the fold below consumes each window before the next
        // starts, so peak memory is `O(window)` regardless of shard
        // count (1 M users = 31 250 shards — materialising all their
        // parts before folding is exactly the bug this builder removes).
        let window = exec.threads().max(1) * 4;
        yav_telemetry::gauge("world.stream.window").set(window as f64);
        let events = yav_telemetry::counter("world.stream.events");
        let windows_done = yav_telemetry::counter("world.stream.windows");

        let mut report = AnalyzerReport::default();
        let mut truth = TruthStats::default();
        let mut tenants = TenantReport::default();
        let mut http_requests = 0u64;

        for lo in (0..shards).step_by(window) {
            let n = window.min(shards - lo);
            let _window = yav_telemetry::span!("world.stream_window", lo);
            let parts = yav_exec::par_map_indexed(exec, n, |i| {
                let s = lo + i;
                let mut market = market_template.shard(s as u64);
                let mut analyzer = WeblogAnalyzer::with_retention(Retention::Bounded);
                let mut store = TenantStore::new();
                // One panel-block draw per shard: registering tenants and
                // generating traffic share the same user list instead of
                // drawing the lazy block twice.
                let users = shard_users(&generator, &config, s);
                for user in &users {
                    store.register(user.id, user.home);
                }
                let mut http = 0u64;
                let mut truth = TruthStats::default();
                generator.run_shard_with_users(
                    &users,
                    &mut market,
                    |req| {
                        http += 1;
                        analyzer.ingest_quiet(req);
                        store.feed(model.as_ref(), req);
                    },
                    |t| truth.record(&t),
                );
                StreamPart {
                    report: analyzer.finish(),
                    truth,
                    tenants: store.finish(model.as_ref()),
                    http_requests: http,
                }
            });
            // Sequential fold in shard-index order; every merged piece is
            // commutative, so the window cut cannot show through.
            for part in parts {
                report.merge(part.report);
                truth.merge(&part.truth);
                tenants.merge(&part.tenants);
                http_requests += part.http_requests;
                events.add(part.http_requests);
            }
            windows_done.inc();
        }

        let shift = fit_shift_bounded(&report.summary, &a2);
        pme.set_time_shift(shift);

        StreamWorld {
            scale,
            report,
            truth,
            tenants,
            a1,
            a2,
            pme,
            shift,
            http_requests,
            users: config.users,
            shards,
        }
    }
}

/// The panel users of shard `s` — copied from the eager panel, or drawn
/// as a lazy block (32 users, dropped with the shard). The stream loop
/// hands this one list to both the tenant registry and
/// [`WeblogGenerator::run_shard_with_users`], so the block is drawn
/// exactly once per shard.
fn shard_users(
    generator: &WeblogGenerator,
    config: &WeblogConfig,
    s: usize,
    // yav-lint: allow(stream-materialize) — bounded: one USERS_PER_SHARD block, dropped with its shard
) -> Vec<PanelUser> {
    let n = config.users as usize;
    let lo = (s * USERS_PER_SHARD).min(n);
    let hi = (lo + USERS_PER_SHARD).min(n);
    if config.lazy_panel {
        Panel::build_block(config.seed, lo as u32, hi as u32)
    } else {
        generator.panel().users()[lo..hi].to_vec()
    }
}

/// The §6.2 stratified time-shift fit over bounded retention: the
/// historical side comes from the summary's per-IAB MoPub price
/// histograms (medians quantised to half a 0.01-CPM bin) instead of the
/// materialised detection list; the recent side is the A2 campaign's
/// exact rows, as in [`TimeShift::fit_stratified`]. Per-stratum median
/// ratios (strata under 30 prices on either side skipped) go through the
/// same [`TimeShift::from_ratios`] rule.
fn fit_shift_bounded(summary: &DetectionSummary, a2: &CampaignReport) -> TimeShift {
    const MIN_N: u64 = 30;
    let recent_strata = a2_strata(a2);
    let mut ratios = Vec::new();
    let mut recent_all: Vec<f64> = Vec::new();
    for (hist, recent) in summary.mopub_iab_prices.iter().zip(&recent_strata) {
        recent_all.extend_from_slice(recent);
        if hist.count() >= MIN_N && recent.len() as u64 >= MIN_N {
            if let Some(h) = hist.median() {
                let r = median(recent);
                if h > 0.0 && r > 0.0 {
                    ratios.push(r / h);
                }
            }
        }
    }
    let historical_median = summary.mopub_all_prices().median().unwrap_or(0.0);
    TimeShift::from_ratios(&ratios, historical_median, median(&recent_all))
}

/// The `stream` experiment text: what the constant-memory builder can
/// report without a materialised detection list — dataset aggregates,
/// the tenant fleet's per-user value distribution, and the fitted shift.
pub fn report(world: &StreamWorld) -> String {
    let mut out = String::new();
    let s = &world.report.summary;
    let t = &world.tenants;
    let fleet_total = t
        .fleet
        .cleartext
        .saturating_add(t.fleet.encrypted_estimated);
    out.push_str(&format!(
        "Streaming world at {:?}: {} users in {} shards, {} HTTP requests\n",
        world.scale, world.users, world.shards, world.http_requests
    ));
    out.push_str(&format!(
        "dataset D: {} detections ({} cleartext, {} encrypted), mean cleartext {:.4} CPM\n",
        s.total,
        s.cleartext,
        s.encrypted,
        s.mean_cleartext_cpm().unwrap_or(0.0)
    ));
    out.push_str(&format!(
        "ground truth: {} impressions ({} cleartext, {} encrypted), mean charge {:.4} CPM\n",
        world.truth.impressions,
        world.truth.cleartext,
        world.truth.encrypted,
        world.truth.mean_charge_cpm().unwrap_or(0.0)
    ));
    out.push_str(&format!(
        "tenant fleet: {} monitors saw priced ads, {} valued events, total {:.2} \
         CPM-equivalent ({:.2} cleartext + {:.2} estimated), {} skipped for want of a model\n",
        t.users,
        t.events,
        fleet_total.as_f64(),
        t.fleet.cleartext.as_f64(),
        t.fleet.encrypted_estimated.as_f64(),
        t.skipped_no_model
    ));
    out.push_str(&format!(
        "per-user total cost quantiles (CPM): p50 {:.3}, p90 {:.3}, p99 {:.3}\n",
        t.quantile_total_cpm(0.50).unwrap_or(0.0),
        t.quantile_total_cpm(0.90).unwrap_or(0.0),
        t.quantile_total_cpm(0.99).unwrap_or(0.0)
    ));
    out.push_str(&format!(
        "time shift: historical median {:.4}, recent median {:.4}, coefficient {:.4}\n",
        world.shift.historical_median, world.shift.recent_median, world.shift.coefficient
    ));
    if let Some(rss) = yav_telemetry::peak_rss_bytes() {
        out.push_str(&format!(
            "process peak RSS: {:.1} MiB\n",
            rss as f64 / (1024.0 * 1024.0)
        ));
    }
    out
}

/// One-line JSON-ish summary for logs and the figures binary.
pub fn describe(world: &StreamWorld) -> String {
    format!(
        "scale={:?} users={} shards={} http_requests={} detections={} cleartext={} encrypted={} \
         mean_clear_cpm={:.4} tenant_users={} tenant_total_cpm={:.2} shift={:.4}",
        world.scale,
        world.users,
        world.shards,
        world.http_requests,
        world.report.summary.total,
        world.report.summary.cleartext,
        world.report.summary.encrypted,
        world.report.summary.mean_cleartext_cpm().unwrap_or(0.0),
        world.tenants.users,
        (world
            .tenants
            .fleet
            .cleartext
            .saturating_add(world.tenants.fleet.encrypted_estimated))
        .as_f64(),
        world.shift.coefficient,
    )
}
