//! The YourAdValue extension runtime.
//!
//! [`YourAdValue`] is the client: it observes the device's HTTP requests
//! (the browser's webRequest hook in the real extension), filters
//! winning-price notifications, tallies cleartext prices directly and
//! estimates encrypted ones locally with the downloaded decision-tree
//! model — privacy-preserving: no browsing data leaves the device unless
//! the user opts into anonymous contribution (§3.3).

use crate::ledger::{Ledger, PriceEvent};
use yav_analyzer::taxonomy;
use yav_analyzer::ua::{parse_user_agent, UaFingerprint};
use yav_nurl::fields::PricePayload;
use yav_nurl::{template, UrlRef, UrlScratch};
use yav_pme::engine::{ContributionBatch, Pme};
use yav_pme::model::{self, ClientModel, CoreContext, EstimateScratch};
use yav_types::{Adx, City, Cpm, PriceVisibility, SimTime};
use yav_weblog::HttpRequest;

/// Pre-resolved telemetry handles for the ingestion path. Looking a
/// metric up by name costs a registry lock; the monitor observes every
/// HTTP request the device makes, so it pays that cost once at
/// construction instead of per request.
#[derive(Debug, Clone)]
struct MonitorMetrics {
    parse_error: yav_telemetry::Counter,
    not_notification: yav_telemetry::Counter,
    rejected_total: yav_telemetry::Counter,
    skipped_no_model: yav_telemetry::Counter,
    events: yav_telemetry::Counter,
    ledger_cleartext_cpm: yav_telemetry::Gauge,
    ledger_estimated_cpm: yav_telemetry::Gauge,
    observe_us: yav_telemetry::Histogram,
    /// Per-phase wall time of [`YourAdValue::observe_batch`]'s three
    /// passes — the breakdown that explains where a batch's
    /// `ingest.observe.us` actually goes.
    sift_us: yav_telemetry::Histogram,
    predict_us: yav_telemetry::Histogram,
    commit_us: yav_telemetry::Histogram,
    /// Mirror of the counter [`EstimateScratch`] bumps per serial
    /// estimate; the batch path adds its whole count at once.
    predictions: yav_telemetry::Counter,
    /// The SIMD dispatch tier the ingest hot path resolved to, as
    /// [`yav_simd::Level`]'s numeric value (0 scalar … 4 neon). A gauge
    /// so dashboards can tell a portable-fallback deployment from a
    /// native one without parsing logs.
    simd_level: yav_telemetry::Gauge,
}

impl Default for MonitorMetrics {
    fn default() -> MonitorMetrics {
        MonitorMetrics {
            parse_error: yav_telemetry::counter("core.monitor.nurl.parse_error"),
            not_notification: yav_telemetry::counter("core.monitor.nurl.not_notification"),
            rejected_total: yav_telemetry::counter("ingest.rejected_total"),
            skipped_no_model: yav_telemetry::counter("core.monitor.skipped_no_model"),
            events: yav_telemetry::counter("core.monitor.events"),
            ledger_cleartext_cpm: yav_telemetry::gauge("core.monitor.ledger_cleartext_cpm"),
            ledger_estimated_cpm: yav_telemetry::gauge("core.monitor.ledger_estimated_cpm"),
            observe_us: yav_telemetry::histogram("ingest.observe.us"),
            sift_us: yav_telemetry::histogram("ingest.batch.sift.us"),
            predict_us: yav_telemetry::histogram("ingest.batch.predict.us"),
            commit_us: yav_telemetry::histogram("ingest.batch.commit.us"),
            predictions: yav_telemetry::counter("pme.predictions_total"),
            simd_level: {
                let g = yav_telemetry::gauge("ingest.simd_level");
                g.set(yav_simd::level() as u8 as f64);
                g
            },
        }
    }
}

/// Reusable buffers for the zero-copy ingestion path: URL decode
/// scratch shared by every observed request, plus the flat feature
/// matrix and slot map [`YourAdValue::observe_batch`] stages encrypted
/// notifications into. Capacity grows to the high-water mark and stays.
#[derive(Debug, Default)]
pub struct ObserveScratch {
    /// Per-request sift state (URL decode, UA memo).
    sift: SiftScratch,
    /// Row-major encoded features, one row per staged encrypted event.
    rows: Vec<f64>,
    /// For each feature row, the index of its staged event.
    slots: Vec<usize>,
    /// Events staged by pass 1 of [`YourAdValue::observe_batch`], reused
    /// across batches (the old per-call `Vec::new` was one of the batch
    /// path's losses to serial on reject-heavy streams).
    staged: Vec<PriceEvent>,
}

/// Reusable state every sift path carries: the URL decode scratch and a
/// user-agent memo. Serial, batch and multi-tenant ingestion each own
/// one, so they share the sift without sharing monitor state.
#[derive(Debug, Default)]
pub(crate) struct SiftScratch {
    url: UrlScratch,
    ua: UaMemo,
}

/// A one-entry user-agent fingerprint memo. A device sends the same UA
/// string on essentially every request, so repeat fingerprinting
/// collapses to one string compare.
#[derive(Debug, Default)]
struct UaMemo {
    raw: String,
    fp: Option<UaFingerprint>,
}

impl UaMemo {
    /// The memoized [`parse_user_agent`].
    fn fingerprint(&mut self, ua: &str) -> UaFingerprint {
        match self.fp {
            Some(fp) if self.raw == ua => fp,
            _ => {
                let fp = parse_user_agent(ua);
                self.raw.clear();
                self.raw.push_str(ua);
                self.fp = Some(fp);
                fp
            }
        }
    }
}

/// Why [`sift_request`] discarded a URL. The caller owns the accounting:
/// the serial path bumps counters per drop, the batch paths tally
/// locally and flush once per batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SiftDrop {
    /// Unparseable URL or malformed notification payload.
    ParseError,
    /// Ordinary traffic (non-exchange host or non-notification endpoint).
    NotNotification,
}

/// Screens one request down to its notification's exchange and price —
/// the one sift behind [`YourAdValue::observe`],
/// [`YourAdValue::observe_batch`] and the multi-tenant store. Pure with
/// respect to the monitor: all accounting stays with the caller.
///
/// The estimator's [`CoreContext`] is built only when `want_ctx` is
/// set. It is the sift's one allocating piece (the owned publisher
/// name), so a caller with no model to feed skips it and the whole sift
/// stays heap-free — what keeps the multi-tenant feed path inside the
/// steady-state zero-allocation contract (`no_alloc_gen.rs`).
///
/// Non-nURL traffic — the overwhelming majority — leaves through one of
/// the early rejects without touching the heap: [`yav_nurl::screen_adx`]
/// inspects only the scheme prefix and authority, [`UrlRef::parse`]
/// borrows subslices of the raw request, and the verdict carries the
/// matched exchange into the borrowed template parse, so true nURLs scan
/// the host roster exactly once.
pub(crate) fn sift_request(
    home_city: Option<City>,
    req: &HttpRequest,
    scratch: &mut SiftScratch,
    want_ctx: bool,
) -> Result<(Adx, PricePayload, Option<CoreContext>), SiftDrop> {
    let adx = match yav_nurl::screen_adx(&req.url) {
        Ok(adx) => adx,
        // Scheme-less strings could never parse as URLs.
        Err(yav_nurl::FastReject::Scheme) => return Err(SiftDrop::ParseError),
        Err(yav_nurl::FastReject::Host) => return Err(SiftDrop::NotNotification),
    };
    // Post-screen structural failure: the scheme and host already
    // passed, so this is unreachable in practice, but the accounting
    // stays total.
    let url = UrlRef::parse(&req.url).map_err(|_| SiftDrop::ParseError)?;
    let fields = match template::parse_borrowed_screened(adx, &url, &mut scratch.url) {
        Ok(Some(fields)) => fields,
        Ok(None) => return Err(SiftDrop::NotNotification),
        Err(_) => return Err(SiftDrop::ParseError),
    };
    let ctx = want_ctx.then(|| {
        let fp = scratch.ua.fingerprint(&req.user_agent);
        CoreContext {
            city: home_city,
            time: req.time,
            device: fp.device,
            os: fp.os,
            interaction: fp.interaction,
            format: fields.slot,
            adx,
            iab: fields.publisher.and_then(taxonomy::categorize),
            publisher: fields.publisher.map(str::to_owned),
        }
    });
    Ok((adx, fields.price, ctx))
}

/// The client-side monitor.
#[derive(Debug, Default)]
pub struct YourAdValue {
    /// The user's home city as configured (or detected) by the extension;
    /// used as model input when a notification carries no location.
    home_city: Option<City>,
    /// The downloaded estimation model, if any.
    model: Option<ClientModel>,
    /// Local storage.
    ledger: Ledger,
    /// Pending anonymous contributions (drained on opt-in upload).
    pending: ContributionBatch,
    /// Encrypted notifications skipped because no model was installed.
    skipped_no_model: u64,
    /// Observed URLs dropped, by reason.
    drops: DropStats,
    /// Reusable buffers + telemetry handles for per-impression
    /// estimation (the extension values every encrypted notification, so
    /// the estimate path must not allocate).
    scratch: EstimateScratch,
    /// Reusable ingestion buffers (URL decoding, batch staging).
    obs: ObserveScratch,
    /// Pre-resolved telemetry handles.
    metrics: MonitorMetrics,
}

/// Trace payload code on `ingest.drop` instants: malformed URL or
/// payload.
const DROP_PARSE_ERROR: u64 = 1;
/// Trace payload code on `ingest.drop` instants: ordinary traffic.
const DROP_NOT_NOTIFICATION: u64 = 2;

/// Why observed requests were silently discarded — the monitor's own
/// loss accounting (every non-notification or malformed URL used to
/// vanish without a trace).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropStats {
    /// URLs with no parseable scheme, candidate URLs that failed the
    /// full parse, or notification endpoints with a malformed payload.
    pub parse_error: u64,
    /// Ordinary traffic: URLs on non-exchange hosts (fast-rejected
    /// before full parsing) or exchange URLs that are not notifications.
    pub not_notification: u64,
}

impl YourAdValue {
    /// A fresh installation with no model.
    pub fn new(home_city: Option<City>) -> YourAdValue {
        YourAdValue {
            home_city,
            ..YourAdValue::default()
        }
    }

    /// Installs (or replaces) the estimation model — the result of the
    /// extension's periodic "check for new versions" poll.
    pub fn install_model(&mut self, model: ClientModel) {
        self.model = Some(model);
    }

    /// The installed model version (0 = none).
    pub fn model_version(&self) -> u32 {
        self.model.as_ref().map(|m| m.version).unwrap_or(0)
    }

    /// Polls a PME for a fresher model; installs it if the version
    /// advanced. Returns true when an update was installed.
    pub fn refresh_model(&mut self, pme: &Pme) -> bool {
        match pme.current_model() {
            Some(m) if m.version > self.model_version() => {
                self.model = Some(m);
                true
            }
            _ => false,
        }
    }

    /// [`sift_request`] with the estimator context, plus this monitor's
    /// per-drop accounting — [`YourAdValue::observe`]'s sift.
    /// [`YourAdValue::observe_batch`] runs the same sift with a
    /// batch-local drop tally.
    fn sift(&mut self, req: &HttpRequest) -> Option<(Adx, PricePayload, CoreContext)> {
        match sift_request(self.home_city, req, &mut self.obs.sift, true) {
            // Asked for, so the context is always there.
            Ok((adx, price, ctx)) => ctx.map(|ctx| (adx, price, ctx)),
            Err(SiftDrop::ParseError) => {
                self.drops.parse_error += 1;
                self.metrics.parse_error.inc();
                self.metrics.rejected_total.inc();
                yav_trace::trace_instant!("ingest.drop", DROP_PARSE_ERROR);
                None
            }
            Err(SiftDrop::NotNotification) => {
                self.drops.not_notification += 1;
                self.metrics.not_notification.inc();
                self.metrics.rejected_total.inc();
                yav_trace::trace_instant!("ingest.drop", DROP_NOT_NOTIFICATION);
                None
            }
        }
    }

    /// Stores one finished event: ledger, event counter, running totals
    /// split the way the paper splits them.
    fn commit(&mut self, event: PriceEvent) -> PriceEvent {
        self.ledger.push(event.clone());
        self.metrics.events.inc();
        if event.estimated {
            self.metrics.ledger_estimated_cpm.add(event.amount.as_f64());
        } else {
            self.metrics.ledger_cleartext_cpm.add(event.amount.as_f64());
        }
        event
    }

    /// Observes one HTTP request. Returns the stored event if it was a
    /// winning-price notification.
    pub fn observe(&mut self, req: &HttpRequest) -> Option<PriceEvent> {
        let _trace = yav_trace::trace_span!("ingest.observe");
        let (adx, price, ctx) = self.sift(req)?;
        let event = match price {
            PricePayload::Cleartext(price) => {
                self.pending.cleartext.push((ctx, price));
                PriceEvent {
                    time: req.time,
                    adx,
                    visibility: PriceVisibility::Cleartext,
                    amount: price,
                    estimated: false,
                }
            }
            PricePayload::Encrypted(_) => {
                let Some(model) = &self.model else {
                    // No model yet: the price is counted as an encrypted
                    // sighting but cannot be valued.
                    self.skipped_no_model += 1;
                    self.metrics.skipped_no_model.inc();
                    self.pending.encrypted.push(ctx);
                    return None;
                };
                let estimate = model.estimate_into(&ctx, &mut self.scratch);
                self.pending.encrypted.push(ctx);
                PriceEvent {
                    time: req.time,
                    adx,
                    visibility: PriceVisibility::Encrypted,
                    amount: estimate,
                    estimated: true,
                }
            }
        };
        Some(self.commit(event))
    }

    /// Observes a batch of HTTP requests, returning the stored events in
    /// request order. Bit-identical side effects to calling
    /// [`YourAdValue::observe`] per request — same ledger, drop stats and
    /// pending contributions — but encrypted notifications are valued
    /// through `CompiledForest::predict_batch`'s level-synchronous
    /// traversal instead of row-at-a-time tree walks,
    /// and all scratch (URL decode buffers, the feature matrix) is
    /// reused across the batch.
    ///
    /// Batches record one `ingest.observe.us` sample and add their
    /// prediction count to `pme.predictions_total` in one step; the
    /// per-prediction `pme.predict.us` histogram is a serial-path-only
    /// metric.
    pub fn observe_batch(&mut self, reqs: &[HttpRequest]) -> Vec<PriceEvent> {
        let _timer = self.metrics.observe_us.time_us();
        // Refresh the dispatch-tier gauge: `force_level` can retier the
        // kernels at any time (tests and the parity bench do), and one
        // atomic store per batch is free.
        self.metrics.simd_level.set(yav_simd::level() as u8 as f64);
        let _trace = yav_trace::trace_span!("ingest.observe_batch", reqs.len());
        // The staging buffers move out of `self` for the duration of the
        // borrow-heavy first pass and return before exit.
        let mut rows = std::mem::take(&mut self.obs.rows);
        let mut slots = std::mem::take(&mut self.obs.slots);
        let mut staged = std::mem::take(&mut self.obs.staged);
        rows.clear();
        slots.clear();
        staged.clear();

        // Pass 1: sift every request in order, staging events and (for
        // encrypted notifications under a model) one encoded feature row
        // each, with a placeholder amount until pass 2 fills it in.
        //
        // Drops are tallied in two locals and flushed to the counters
        // once per batch: the final `DropStats` and counter values are
        // identical to the serial path's, but the dominant reject case
        // pays one register increment instead of three atomic RMWs —
        // without that, batch observe *lost* to serial on reject-heavy
        // streams (BENCH_ingest.json had it at 0.95× on the mixed
        // stream).
        let mut drop_parse_error = 0u64;
        let mut drop_not_notification = 0u64;
        {
            let _phase = yav_trace::trace_span!("ingest.sift", reqs.len());
            let _phase_us = self.metrics.sift_us.time_us();
            for req in reqs {
                let (adx, price, ctx) =
                    match sift_request(self.home_city, req, &mut self.obs.sift, true) {
                        Ok(found) => found,
                        Err(SiftDrop::ParseError) => {
                            drop_parse_error += 1;
                            yav_trace::trace_instant!("ingest.drop", DROP_PARSE_ERROR);
                            continue;
                        }
                        Err(SiftDrop::NotNotification) => {
                            drop_not_notification += 1;
                            yav_trace::trace_instant!("ingest.drop", DROP_NOT_NOTIFICATION);
                            continue;
                        }
                    };
                // Asked for, so the context is always there.
                let Some(ctx) = ctx else { continue };
                match price {
                    PricePayload::Cleartext(price) => {
                        self.pending.cleartext.push((ctx, price));
                        staged.push(PriceEvent {
                            time: req.time,
                            adx,
                            visibility: PriceVisibility::Cleartext,
                            amount: price,
                            estimated: false,
                        });
                    }
                    PricePayload::Encrypted(_) => {
                        let Some(model) = &self.model else {
                            self.skipped_no_model += 1;
                            self.metrics.skipped_no_model.inc();
                            self.pending.encrypted.push(ctx);
                            continue;
                        };
                        model::encode_append(&ctx, model.with_publisher, &mut rows);
                        slots.push(staged.len());
                        self.pending.encrypted.push(ctx);
                        staged.push(PriceEvent {
                            time: req.time,
                            adx,
                            visibility: PriceVisibility::Encrypted,
                            amount: Cpm::ZERO,
                            estimated: true,
                        });
                    }
                }
            }
        }
        self.drops.parse_error += drop_parse_error;
        self.drops.not_notification += drop_not_notification;
        self.metrics.parse_error.add(drop_parse_error);
        self.metrics.not_notification.add(drop_not_notification);
        self.metrics
            .rejected_total
            .add(drop_parse_error + drop_not_notification);

        // Pass 2: one batched forest traversal values every staged
        // encrypted event.
        if !slots.is_empty() {
            let _phase = yav_trace::trace_span!("ingest.predict", slots.len());
            let _phase_us = self.metrics.predict_us.time_us();
            if let Some(model) = &self.model {
                let classes = model
                    .compiled
                    .predict_batch(&rows, model.compiled.n_features());
                for (&slot, &class) in slots.iter().zip(&classes) {
                    if let (Some(event), Some(&price)) =
                        (staged.get_mut(slot), model.class_prices.get(class))
                    {
                        event.amount = Cpm::from_f64(price);
                    }
                }
                self.metrics.predictions.add(slots.len() as u64);
            }
        }

        // Pass 3: commit in request order, so ledger contents, counters
        // and the running gauge sums match the serial path exactly.
        let mut out = Vec::with_capacity(staged.len());
        {
            let _phase = yav_trace::trace_span!("ingest.commit", staged.len());
            let _phase_us = self.metrics.commit_us.time_us();
            for event in staged.drain(..) {
                out.push(self.commit(event));
            }
        }
        self.obs.rows = rows;
        self.obs.slots = slots;
        self.obs.staged = staged;
        out
    }

    /// Convenience for URL-only observation (no headers available).
    pub fn observe_url(&mut self, time: SimTime, url: &str) -> Option<PriceEvent> {
        self.observe(&HttpRequest::bare(time, url))
    }

    /// The local ledger.
    // yav-lint: allow(boundary-escape) — the ledger is the user's own price history, read in-process by the extension UI; it never crosses a network or exporter boundary (privacy-taint guards the exporters)
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Encrypted notifications that could not be valued (no model).
    pub fn skipped_no_model(&self) -> u64 {
        self.skipped_no_model
    }

    /// How many observed URLs were discarded, by reason.
    pub fn drop_stats(&self) -> DropStats {
        self.drops
    }

    /// Drains and returns the pending anonymous-contribution batch (what
    /// an opted-in client uploads to the PME).
    pub fn take_contributions(&mut self) -> ContributionBatch {
        std::mem::take(&mut self.pending)
    }

    /// Uploads pending contributions to a PME (opt-in path). Returns the
    /// number of observations sent.
    pub fn contribute_to(&mut self, pme: &Pme) -> usize {
        let batch = self.take_contributions();
        let n = batch.len();
        if n > 0 {
            pme.contribute(batch);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yav_auction::MarketConfig;
    use yav_campaign::Campaign;
    use yav_pme::model::TrainConfig;
    use yav_weblog::{PublisherUniverse, WeblogConfig, WeblogGenerator};

    fn trained_pme() -> Pme {
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
        pme
    }

    fn traffic() -> Vec<HttpRequest> {
        WeblogGenerator::new(WeblogConfig::tiny())
            .collect(&MarketConfig::default())
            .requests
    }

    #[test]
    fn tallies_cleartext_without_model() {
        let mut yav = YourAdValue::new(Some(City::Madrid));
        let mut events = 0;
        for req in traffic() {
            if yav.observe(&req).is_some() {
                events += 1;
            }
        }
        assert!(events > 0);
        let s = yav.ledger().summary();
        assert!(s.cleartext.is_positive());
        // Without a model every encrypted sighting is skipped.
        assert_eq!(s.encrypted_count, 0);
        assert!(yav.skipped_no_model() > 0);
    }

    #[test]
    fn drop_stats_account_for_every_discarded_url() {
        let mut yav = YourAdValue::new(None);
        let mut observed = 0u64;
        let requests = traffic();
        for req in &requests {
            if yav.observe(req).is_some() {
                observed += 1;
            }
        }
        let drops = yav.drop_stats();
        // The weblog is overwhelmingly ordinary traffic: every request is
        // either an event, an unvalued encrypted sighting, or a counted
        // drop — nothing vanishes silently.
        assert!(drops.not_notification > 0);
        assert_eq!(
            observed + yav.skipped_no_model() + drops.not_notification + drops.parse_error,
            requests.len() as u64
        );

        // A scheme-less string cannot even be parsed as a URL.
        let t = SimTime::from_ymd_hm(2015, 10, 1, 12, 0);
        assert!(yav.observe_url(t, "definitely not a url").is_none());
        // A known notification endpoint with the price stripped is
        // malformed payload, not ordinary traffic.
        assert!(yav
            .observe_url(t, "http://cpp.imp.mpx.mopub.com/imp?currency=USD")
            .is_none());
        let drops = yav.drop_stats();
        assert_eq!(drops.parse_error, 2);
    }

    #[test]
    fn model_unlocks_encrypted_estimation() {
        let pme = trained_pme();
        let mut yav = YourAdValue::new(Some(City::Madrid));
        assert!(yav.refresh_model(&pme));
        assert!(!yav.refresh_model(&pme), "same version: no reinstall");
        assert_eq!(yav.model_version(), 1);
        for req in traffic() {
            yav.observe(&req);
        }
        let s = yav.ledger().summary();
        assert!(s.encrypted_count > 0);
        assert!(s.encrypted_estimated.is_positive());
        assert_eq!(yav.skipped_no_model(), 0);
        assert!(s.total() > s.cleartext, "Eq. 1: total includes E_u");
    }

    #[test]
    fn contributions_flow_to_pme() {
        let pme = trained_pme();
        let mut yav = YourAdValue::new(None);
        yav.refresh_model(&pme);
        for req in traffic().into_iter().take(40_000) {
            yav.observe(&req);
        }
        let sent = yav.contribute_to(&pme);
        assert!(sent > 0);
        let (clear, enc) = pme.contribution_count();
        assert!(clear > 0);
        assert!(enc > 0);
        // Draining empties the buffer.
        assert_eq!(yav.take_contributions().len(), 0);
    }

    #[test]
    fn ordinary_traffic_is_ignored() {
        let mut yav = YourAdValue::new(None);
        assert!(yav
            .observe_url(SimTime::EPOCH, "http://www.example.com/page.html")
            .is_none());
        assert!(yav
            .observe_url(SimTime::EPOCH, "not a url at all")
            .is_none());
        assert!(yav.ledger().is_empty());
    }

    #[test]
    fn estimates_are_deterministic_per_context() {
        let pme = trained_pme();
        let mut a = YourAdValue::new(Some(City::Seville));
        let mut b = YourAdValue::new(Some(City::Seville));
        a.refresh_model(&pme);
        b.refresh_model(&pme);
        for req in traffic() {
            let ea = a.observe(&req);
            let eb = b.observe(&req);
            assert_eq!(ea, eb);
        }
    }
}
