//! Multi-tenant YourAdValue: one monitor process, many users.
//!
//! The single-user [`crate::YourAdValue`] models the browser extension:
//! one device, one ledger. The follow-up deployment (YourAdValue as a
//! service, PAPERS.md) runs the same sift/estimate pipeline over a
//! *multiplexed* stream carrying many users' traffic — an ISP vantage
//! point or a fleet of opted-in clients. [`TenantStore`] is that runtime:
//! a sharded per-user state store where each tenant accumulates only a
//! constant-size [`CostSummary`]-shaped total (no per-event ledger), so a
//! million concurrent tenants fit in memory that a thousand single-user
//! monitors would spend on ledgers alone.
//!
//! Each request is priced the moment it arrives, with the exact pieces
//! the single-user client uses — the crate-private `sift_request` for
//! the zero-copy screen-first sift and [`ClientModel::estimate_into`] for
//! valuing encrypted notifications — so a tenant's totals are
//! bit-identical to what a dedicated [`crate::YourAdValue`] fed only that
//! tenant's requests would report (the tenant-equivalence test pins
//! this).

use crate::ledger::CostSummary;
use crate::monitor::{sift_request, DropStats, SiftDrop, SiftScratch};
use yav_nurl::fields::PricePayload;

use yav_pme::model::{ClientModel, EstimateScratch};
use yav_types::{City, Cpm, UserId};
use yav_weblog::HttpRequest;

/// Tenants per internal store shard. Sharding is by `user % SHARDS` —
/// structural, so the shard a tenant lands in never depends on arrival
/// order or thread count.
pub const TENANT_SHARDS: usize = 64;

/// Per-tenant accumulated state: the running totals a single-user
/// monitor's ledger summary would report, without the ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantState {
    /// The tenant's home city (model input when notifications carry no
    /// location), as registered.
    pub home: Option<City>,
    /// Sum of readable cleartext prices, `C_u`.
    pub cleartext: Cpm,
    /// Sum of model-estimated encrypted prices, `E_u`.
    pub encrypted_estimated: Cpm,
    /// Cleartext notifications seen.
    pub cleartext_count: u64,
    /// Encrypted notifications valued.
    pub encrypted_count: u64,
    /// Encrypted notifications seen with no model installed.
    pub skipped_no_model: u64,
}

impl TenantState {
    /// The tenant's totals in [`CostSummary`] form (what the single-user
    /// monitor's `ledger().summary()` reports).
    pub fn summary(&self) -> CostSummary {
        CostSummary {
            cleartext: self.cleartext,
            encrypted_estimated: self.encrypted_estimated,
            cleartext_count: self.cleartext_count,
            encrypted_count: self.encrypted_count,
        }
    }

    /// Total ad value attributed to this tenant, `V_u = C_u + E_u`.
    pub fn total(&self) -> Cpm {
        self.cleartext.saturating_add(self.encrypted_estimated)
    }
}

/// Number of log-2 buckets in the per-tenant total-cost histogram (one
/// per possible `i64` bit length, plus bucket 0 for zero/negative).
pub const COST_BUCKETS: usize = 64;

/// Fleet-level summary of a [`TenantStore`] (or a merge of many).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenants that saw at least one priced notification.
    pub users: u64,
    /// Priced notifications committed across the fleet.
    pub events: u64,
    /// Fleet-wide cost totals (sum of every tenant's summary).
    pub fleet: CostSummary,
    /// Log-2-bucketed histogram of per-tenant total cost in micro-CPM:
    /// bucket `b ≥ 1` holds tenants with `total ∈ [2^(b-1), 2^b)` µCPM,
    /// bucket 0 holds zero totals. The year-in-ads cost curve at fleet
    /// scale, in constant space.
    pub cost_hist: [u64; COST_BUCKETS],
    /// Encrypted sightings that could not be valued (no model).
    pub skipped_no_model: u64,
    /// Stream-level drop accounting (shared across tenants).
    pub drops: DropStats,
}

impl Default for TenantReport {
    fn default() -> TenantReport {
        TenantReport {
            users: 0,
            events: 0,
            fleet: CostSummary {
                cleartext: Cpm::ZERO,
                encrypted_estimated: Cpm::ZERO,
                cleartext_count: 0,
                encrypted_count: 0,
            },
            cost_hist: [0; COST_BUCKETS],
            skipped_no_model: 0,
            drops: DropStats::default(),
        }
    }
}

impl TenantReport {
    /// Folds another report in. Commutative and associative, so
    /// per-shard reports merge in any grouping to the same fleet view.
    pub fn merge(&mut self, other: &TenantReport) {
        self.users += other.users;
        self.events += other.events;
        self.fleet.cleartext = self.fleet.cleartext.saturating_add(other.fleet.cleartext);
        self.fleet.encrypted_estimated = self
            .fleet
            .encrypted_estimated
            .saturating_add(other.fleet.encrypted_estimated);
        self.fleet.cleartext_count += other.fleet.cleartext_count;
        self.fleet.encrypted_count += other.fleet.encrypted_count;
        for (a, b) in self.cost_hist.iter_mut().zip(&other.cost_hist) {
            *a += b;
        }
        self.skipped_no_model += other.skipped_no_model;
        self.drops.parse_error += other.drops.parse_error;
        self.drops.not_notification += other.drops.not_notification;
    }

    /// Approximate `q`-quantile of per-tenant total cost (CPM), read off
    /// the log histogram as the geometric midpoint of the bucket holding
    /// the quantile observation. `None` until a tenant has a total.
    pub fn quantile_total_cpm(&self, q: f64) -> Option<f64> {
        if self.users == 0 {
            return None;
        }
        let rank = ((self.users as f64 * q.clamp(0.0, 1.0)).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.cost_hist.iter().enumerate() {
            seen += n;
            if seen >= rank {
                if b == 0 {
                    return Some(0.0);
                }
                let lo = (1u64 << (b - 1)) as f64;
                return Some(lo * std::f64::consts::SQRT_2 / 1_000_000.0);
            }
        }
        None
    }
}

/// Histogram bucket of a per-tenant total (micro-CPM).
fn cost_bucket(total: Cpm) -> usize {
    let micros = total.micros();
    if micros <= 0 {
        0
    } else {
        (64 - micros.leading_zeros() as usize).min(COST_BUCKETS - 1)
    }
}

/// Pre-resolved `monitor.tenant.*` telemetry handles, published once per
/// store by [`TenantStore::finish`].
#[derive(Debug, Clone)]
struct TenantMetrics {
    events: yav_telemetry::Counter,
    rejected: yav_telemetry::Counter,
    tenants: yav_telemetry::Gauge,
}

/// The multi-tenant monitor-state store.
///
/// The store does **not** own the estimation model: every
/// [`TenantStore::feed`] borrows an optional [`ClientModel`]. A fleet
/// shares one model, and at 31 250 weblog shards an owned ~100 kB model
/// clone per store would be three gigabytes of copies.
#[derive(Debug)]
pub struct TenantStore {
    /// Per-user state, sharded by `user % TENANT_SHARDS`. BTreeMaps so
    /// every iteration (the [`TenantStore::report`] fold) is in user
    /// order — deterministic regardless of arrival order.
    shards: Vec<std::collections::BTreeMap<u32, TenantState>>,
    /// Stream-level drop accounting (drops are not attributable to a
    /// tenant: rejected URLs never reach user routing).
    drops: DropStats,
    /// Reusable sift scratch (URL decode, UA memo).
    sift: SiftScratch,
    /// Reusable row/probability buffers for valuing encrypted prices.
    estimate: EstimateScratch,
    metrics: TenantMetrics,
}

impl Default for TenantStore {
    fn default() -> TenantStore {
        TenantStore::new()
    }
}

impl TenantStore {
    /// An empty store.
    pub fn new() -> TenantStore {
        TenantStore {
            shards: vec![std::collections::BTreeMap::new(); TENANT_SHARDS],
            drops: DropStats::default(),
            sift: SiftScratch::default(),
            estimate: EstimateScratch::new(),
            metrics: TenantMetrics {
                events: yav_telemetry::counter("monitor.tenant.events"),
                rejected: yav_telemetry::counter("monitor.tenant.rejected"),
                tenants: yav_telemetry::gauge("monitor.tenant.tenants"),
            },
        }
    }

    /// Registers a tenant's home city (model input). Unregistered
    /// tenants are created on first sight with no city.
    pub fn register(&mut self, user: UserId, home: City) {
        self.state_mut(user.0).home = Some(home);
    }

    /// Tenants currently holding state.
    pub fn tenant_count(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// A tenant's accumulated state, if it exists.
    // yav-lint: allow(boundary-escape) — single-tenant inspection hook for the simulator harness; exports go through summary()/take_contributions(), never this accessor (privacy-taint guards the exporters)
    pub fn tenant(&self, user: UserId) -> Option<&TenantState> {
        self.shards[user.0 as usize % TENANT_SHARDS].get(&user.0)
    }

    /// Stream-level drop accounting.
    pub fn drop_stats(&self) -> DropStats {
        self.drops
    }

    fn state_mut(&mut self, user: u32) -> &mut TenantState {
        self.shards[user as usize % TENANT_SHARDS]
            .entry(user)
            .or_default()
    }

    /// Observes one request of a multiplexed stream, routed by
    /// `req.user` — [`crate::YourAdValue::observe`]'s sift → estimate →
    /// commit, into the tenant's totals instead of a ledger. A cleartext
    /// price is added as read; an encrypted one is valued with `model`,
    /// or counted as `skipped_no_model` when there is none.
    pub fn feed(&mut self, model: Option<&ClientModel>, req: &HttpRequest) {
        // The estimator context is only built for an encrypted price a
        // model will value, and owns the publisher name (the sift's only
        // allocating piece) only for a model that reads it, so every
        // other request stays heap-quiet.
        let want_ctx =
            |price: &PricePayload| model.is_some() && matches!(price, PricePayload::Encrypted(_));
        let with_publisher = model.is_some_and(|m| m.with_publisher);
        let (_, price, ctx) = match sift_request(req, &mut self.sift, want_ctx, with_publisher) {
            Ok(found) => found,
            Err(SiftDrop::ParseError) => {
                self.drops.parse_error += 1;
                return;
            }
            Err(SiftDrop::NotNotification) => {
                self.drops.not_notification += 1;
                return;
            }
        };
        match (price, model.zip(ctx)) {
            (PricePayload::Cleartext(price), _) => {
                let t = self.state_mut(req.user.0);
                t.cleartext = t.cleartext.saturating_add(price);
                t.cleartext_count += 1;
            }
            (PricePayload::Encrypted(_), Some((m, mut ctx))) => {
                // Only the model reads the home city, so only a request it
                // values looks the tenant up.
                ctx.city = self.tenant(req.user).and_then(|t| t.home);
                let estimate = m.estimate_into(&ctx, &mut self.estimate);
                let t = self.state_mut(req.user.0);
                t.encrypted_estimated = t.encrypted_estimated.saturating_add(estimate);
                t.encrypted_count += 1;
            }
            (PricePayload::Encrypted(_), None) => {
                self.state_mut(req.user.0).skipped_no_model += 1;
            }
        }
    }

    /// Summarises the fleet. Tenants are walked in user order (BTreeMap
    /// iteration), so the report is deterministic for any arrival order.
    pub fn report(&self) -> TenantReport {
        let mut report = TenantReport {
            drops: self.drops,
            ..TenantReport::default()
        };
        for shard in &self.shards {
            for t in shard.values() {
                let s = t.summary();
                if s.impressions() > 0 {
                    report.users += 1;
                    report.events += s.impressions();
                    report.cost_hist[cost_bucket(t.total())] += 1;
                }
                report.fleet.cleartext = report.fleet.cleartext.saturating_add(s.cleartext);
                report.fleet.encrypted_estimated = report
                    .fleet
                    .encrypted_estimated
                    .saturating_add(s.encrypted_estimated);
                report.fleet.cleartext_count += s.cleartext_count;
                report.fleet.encrypted_count += s.encrypted_count;
                report.skipped_no_model += t.skipped_no_model;
            }
        }
        report
    }

    /// Finishes the store: publishes its event, drop and tenant tallies
    /// to `monitor.tenant.{events, rejected, tenants}` and returns the
    /// fleet report, dropping all tenant state. `model` is unused, as
    /// `feed` prices every request when it arrives; the parameter stays
    /// because the benchmark (`perfbench/`) calls `finish(model)`.
    pub fn finish(self, _model: Option<&ClientModel>) -> TenantReport {
        let report = self.report();
        self.metrics.events.add(report.events);
        self.metrics
            .rejected
            .add(report.drops.parse_error + report.drops.not_notification);
        self.metrics.tenants.set(self.tenant_count() as f64);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::YourAdValue;
    use yav_auction::MarketConfig;
    use yav_campaign::Campaign;
    use yav_pme::engine::Pme;
    use yav_pme::model::TrainConfig;
    use yav_weblog::{PublisherUniverse, WeblogConfig, WeblogGenerator};

    fn client_model() -> ClientModel {
        let universe = PublisherUniverse::build(0xD474, 300, 120);
        // The default pool: campaign rows never depend on the thread count.
        let rows = yav_campaign::execute_parallel(
            &MarketConfig::default(),
            &universe,
            &Campaign::a1().scaled(10),
            &Default::default(),
        )
        .rows;
        let pme = Pme::new();
        pme.train_from_campaign(&rows, &TrainConfig::quick());
        pme.current_model().expect("trained")
    }

    fn world() -> (yav_weblog::Weblog, WeblogGenerator) {
        let generator = WeblogGenerator::new(WeblogConfig::tiny());
        let log = generator.collect(&MarketConfig::default());
        (log, generator)
    }

    #[test]
    fn tenant_totals_match_dedicated_monitors() {
        let model = client_model();
        let (log, generator) = world();

        let mut store = TenantStore::new();
        for user in generator.panel().users() {
            store.register(user.id, user.home);
        }
        for req in &log.requests {
            store.feed(Some(&model), req);
        }
        let report = store.report();
        assert!(report.users > 0);
        assert!(report.fleet.cleartext.is_positive());
        assert!(report.fleet.encrypted_count > 0);

        // A dedicated single-user monitor fed only one tenant's requests
        // reports exactly the tenant's totals.
        for user in generator.panel().users() {
            let mut solo = YourAdValue::new(Some(user.home));
            solo.install_model(model.clone());
            let mine: Vec<_> = log
                .requests
                .iter()
                .filter(|r| r.user == user.id)
                .cloned()
                .collect();
            for req in &mine {
                solo.observe(req);
            }
            let expected = solo.ledger().summary();
            let got = store.tenant(user.id).copied().unwrap_or_default().summary();
            assert_eq!(got, expected, "user {:?}", user.id);
        }
    }

    #[test]
    fn default_store_is_a_new_store() {
        let (log, _) = world();
        let run = |mut store: TenantStore| {
            for req in log.requests.iter().take(2_000) {
                store.feed(None, req);
            }
            store.finish(None)
        };
        assert_eq!(run(TenantStore::default()), run(TenantStore::new()));
    }

    #[test]
    fn no_model_counts_skips_and_reports_merge() {
        let (log, _) = world();
        let mid = log.requests.len() / 2;

        let fed = |reqs: &[HttpRequest]| {
            let mut store = TenantStore::new();
            for req in reqs {
                store.feed(None, req);
            }
            store.report()
        };
        let whole = fed(&log.requests);
        assert!(whole.skipped_no_model > 0);
        assert_eq!(whole.fleet.encrypted_count, 0);

        let mut merged = fed(&log.requests[mid..]);
        merged.merge(&fed(&log.requests[..mid]));
        // Fleet sums and drops are exact under any split; per-user
        // buckets are too when users do not straddle the split, which a
        // user-major tiny log satisfies for almost all users — compare
        // the commutative fields.
        assert_eq!(merged.fleet.cleartext, whole.fleet.cleartext);
        assert_eq!(merged.fleet.cleartext_count, whole.fleet.cleartext_count);
        assert_eq!(merged.skipped_no_model, whole.skipped_no_model);
        assert_eq!(merged.drops, whole.drops);
        assert_eq!(merged.events, whole.events);
    }

    #[test]
    fn quantiles_read_off_the_log_histogram() {
        let mut report = TenantReport::default();
        assert_eq!(report.quantile_total_cpm(0.5), None);
        report.users = 3;
        report.cost_hist[0] = 1; // a zero-total tenant
        report.cost_hist[21] = 2; // ~1–2 CPM (2^20..2^21 µCPM)
        let median = report.quantile_total_cpm(0.5).unwrap();
        assert!(median > 1.0 && median < 2.1, "median {median}");
        assert_eq!(report.quantile_total_cpm(0.0).unwrap(), 0.0);
    }
}
