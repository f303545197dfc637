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
//! The pipeline reuses the exact pieces the single-user paths use —
//! [`crate::monitor::sift_request`] for the zero-copy screen-first sift
//! and `CompiledForest::predict_batch` for valuing encrypted
//! notifications — so a tenant's totals are bit-identical to what a
//! dedicated [`crate::YourAdValue`] fed only that tenant's requests would
//! report (the tenant-equivalence test pins this).

use crate::ledger::CostSummary;
use crate::monitor::{sift_request, DropStats, SiftDrop};
use yav_nurl::fields::PricePayload;

use yav_pme::model::{self, ClientModel};
use yav_types::{City, Cpm, UserId};
use yav_weblog::HttpRequest;

/// Tenants per internal store shard. Sharding is by `user % SHARDS` —
/// structural, so the shard a tenant lands in never depends on arrival
/// order or thread count.
pub const TENANT_SHARDS: usize = 64;

/// Internal buffer size of the push-style [`TenantStore::feed`] path:
/// requests accumulate to this many, then flush through one batched
/// observe (sift + one `predict_batch` + fold).
pub const TENANT_BATCH: usize = 4096;

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

/// Pre-resolved `monitor.tenant.*` telemetry handles.
#[derive(Debug, Clone)]
struct TenantMetrics {
    events: yav_telemetry::Counter,
    batches: yav_telemetry::Counter,
    rejected: yav_telemetry::Counter,
    predictions: yav_telemetry::Counter,
    tenants: yav_telemetry::Gauge,
}

impl Default for TenantMetrics {
    fn default() -> TenantMetrics {
        TenantMetrics {
            events: yav_telemetry::counter("monitor.tenant.events"),
            batches: yav_telemetry::counter("monitor.tenant.batches"),
            rejected: yav_telemetry::counter("monitor.tenant.rejected"),
            predictions: yav_telemetry::counter("monitor.tenant.predictions"),
            tenants: yav_telemetry::gauge("monitor.tenant.tenants"),
        }
    }
}

/// The multi-tenant monitor-state store.
///
/// The store does **not** own the estimation model: every observe call
/// borrows an optional [`ClientModel`]. A fleet shares one model, and at
/// 31 250 weblog shards an owned ~100 kB model clone per store would be
/// three gigabytes of copies.
#[derive(Debug, Default)]
pub struct TenantStore {
    /// Per-user state, sharded by `user % TENANT_SHARDS`. BTreeMaps so
    /// every iteration (the [`TenantStore::report`] fold) is in user
    /// order — deterministic regardless of arrival order.
    shards: Vec<std::collections::BTreeMap<u32, TenantState>>,
    /// Push-path staging slots, bounded by [`TENANT_BATCH`]. Slots are
    /// pooled: a flush resets `buf_len`, not the vector, so steady-state
    /// feeding copies into retained string capacity instead of cloning.
    // yav-lint: allow(stream-materialize) — bounded: flushed at TENANT_BATCH requests, never grows with the population
    buf: Vec<HttpRequest>,
    /// Live prefix of `buf` (slots past it hold reusable stale records).
    buf_len: usize,
    /// Stream-level drop accounting (drops are not attributable to a
    /// tenant: rejected URLs never reach user routing).
    drops: DropStats,
    /// Reusable sift/staging scratch.
    sift: crate::monitor::SiftScratch,
    rows: Vec<f64>,
    staged: Vec<(u32, Cpm)>,
    metrics: TenantMetrics,
}

impl TenantStore {
    /// An empty store.
    pub fn new() -> TenantStore {
        TenantStore {
            shards: vec![std::collections::BTreeMap::new(); TENANT_SHARDS],
            ..TenantStore::default()
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
        if self.shards.is_empty() {
            self.shards = vec![std::collections::BTreeMap::new(); TENANT_SHARDS];
        }
        self.shards[user as usize % TENANT_SHARDS]
            .entry(user)
            .or_default()
    }

    /// Push-style ingestion: buffers the request and flushes through
    /// [`TenantStore::observe_batch`] every [`TENANT_BATCH`] requests.
    /// Call [`TenantStore::flush`] when the stream ends. Staging reuses
    /// pooled slots, so once every slot exists and has grown to the
    /// stream's line-length high-water mark, feeding allocates nothing.
    pub fn feed(&mut self, model: Option<&ClientModel>, req: &HttpRequest) {
        if self.buf_len < self.buf.len() {
            self.buf[self.buf_len].copy_from(req);
        } else {
            self.buf.push(req.clone());
        }
        self.buf_len += 1;
        if self.buf_len >= TENANT_BATCH {
            self.flush(model);
        }
    }

    /// Processes any buffered [`TenantStore::feed`] requests.
    pub fn flush(&mut self, model: Option<&ClientModel>) {
        if self.buf_len == 0 {
            return;
        }
        let buf = std::mem::take(&mut self.buf);
        self.observe_batch(model, &buf[..self.buf_len]);
        self.buf = buf;
        self.buf_len = 0;
    }

    /// Observes a multiplexed batch: requests from any mix of tenants,
    /// routed by `req.user`. Three passes, same shape as the single-user
    /// batch path: sift + stage (cleartext folds immediately), one
    /// `predict_batch` over every staged encrypted row, fold estimates.
    pub fn observe_batch(&mut self, model: Option<&ClientModel>, reqs: &[HttpRequest]) {
        let _trace = yav_trace::trace_span!("monitor.tenant_batch", reqs.len());
        self.metrics.batches.inc();
        let mut rows = std::mem::take(&mut self.rows);
        let mut staged = std::mem::take(&mut self.staged);
        rows.clear();
        staged.clear();

        // Pass 1: sift and route. Drops tally locally (same deferred-
        // flush discipline as the single-user batch path).
        let mut drop_parse_error = 0u64;
        let mut drop_not_notification = 0u64;
        let mut events = 0u64;
        // The estimator context is the sift's only allocating piece
        // (owned publisher string); it is only built when a model will
        // actually encode it, so the model-free fleet stays heap-quiet.
        let want_ctx = model.is_some();
        for req in reqs {
            let home = self.tenant(req.user).and_then(|t| t.home);
            let (_, price, ctx) = match sift_request(home, req, &mut self.sift, want_ctx) {
                Ok(found) => found,
                Err(SiftDrop::ParseError) => {
                    drop_parse_error += 1;
                    continue;
                }
                Err(SiftDrop::NotNotification) => {
                    drop_not_notification += 1;
                    continue;
                }
            };
            events += 1;
            match price {
                PricePayload::Cleartext(price) => {
                    let t = self.state_mut(req.user.0);
                    t.cleartext = t.cleartext.saturating_add(price);
                    t.cleartext_count += 1;
                }
                PricePayload::Encrypted(_) => match model {
                    Some(m) => {
                        let ctx = ctx.expect("context built whenever a model is loaded");
                        model::encode_append(&ctx, m.with_publisher, &mut rows);
                        staged.push((req.user.0, Cpm::ZERO));
                    }
                    None => {
                        self.state_mut(req.user.0).skipped_no_model += 1;
                        events -= 1;
                    }
                },
            }
        }
        self.drops.parse_error += drop_parse_error;
        self.drops.not_notification += drop_not_notification;
        self.metrics
            .rejected
            .add(drop_parse_error + drop_not_notification);

        // Pass 2: one batched forest traversal values every staged row.
        if !staged.is_empty() {
            if let Some(m) = model {
                let classes = m.compiled.predict_batch(&rows, m.compiled.n_features());
                for (slot, &class) in staged.iter_mut().zip(&classes) {
                    if let Some(&price) = m.class_prices.get(class) {
                        slot.1 = Cpm::from_f64(price);
                    }
                }
                self.metrics.predictions.add(staged.len() as u64);
            }
        }

        // Pass 3: fold estimates into their tenants, in request order.
        for &(user, amount) in &staged {
            let t = self.state_mut(user);
            t.encrypted_estimated = t.encrypted_estimated.saturating_add(amount);
            t.encrypted_count += 1;
        }
        self.metrics.events.add(events);
        self.metrics.tenants.set(self.tenant_count() as f64);

        self.rows = rows;
        self.staged = staged;
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

    /// Finishes the store: flushes any buffered requests and returns the
    /// fleet report, dropping all tenant state.
    pub fn finish(mut self, model: Option<&ClientModel>) -> TenantReport {
        self.flush(model);
        self.report()
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
        store.observe_batch(Some(&model), &log.requests);
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
    fn feed_chunking_is_invariant() {
        let model = client_model();
        let (log, generator) = world();
        let registered: Vec<_> = generator.panel().users().to_vec();

        let run = |chunk: usize| {
            let mut store = TenantStore::new();
            for u in &registered {
                store.register(u.id, u.home);
            }
            for batch in log.requests.chunks(chunk) {
                store.observe_batch(Some(&model), batch);
            }
            store.report()
        };
        let whole = run(log.requests.len());
        assert_eq!(run(1), whole);
        assert_eq!(run(333), whole);

        // The push path lands in the same place.
        let mut fed = TenantStore::new();
        for u in &registered {
            fed.register(u.id, u.home);
        }
        for req in &log.requests {
            fed.feed(Some(&model), req);
        }
        assert_eq!(fed.finish(Some(&model)), whole);
    }

    #[test]
    fn no_model_counts_skips_and_reports_merge() {
        let (log, _) = world();
        let mid = log.requests.len() / 2;

        let mut whole = TenantStore::new();
        whole.observe_batch(None, &log.requests);
        let whole = whole.report();
        assert!(whole.skipped_no_model > 0);
        assert_eq!(whole.fleet.encrypted_count, 0);

        let mut a = TenantStore::new();
        a.observe_batch(None, &log.requests[..mid]);
        let mut b = TenantStore::new();
        b.observe_batch(None, &log.requests[mid..]);
        let mut merged = b.report();
        merged.merge(&a.report());
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
