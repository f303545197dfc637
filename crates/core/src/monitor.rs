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
use yav_analyzer::ua::UaMemo;
use yav_nurl::fields::PricePayload;
use yav_nurl::{template, UrlRef, UrlScratch};
use yav_pme::engine::{ContributionBatch, Pme};
use yav_pme::model::{ClientModel, CoreContext, EstimateScratch};
use yav_types::{Adx, City, PriceVisibility, SimTime};
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
        }
    }
}

/// Reusable state [`sift_request`] carries: the URL decode scratch and
/// the same [`UaMemo`] the analyzer owns. The monitor and the
/// multi-tenant store each own one, so they share the sift without
/// sharing monitor state.
#[derive(Debug, Default)]
pub(crate) struct SiftScratch {
    url: UrlScratch,
    ua: UaMemo,
}

/// Why [`sift_request`] discarded a URL. The caller owns the accounting:
/// the monitor bumps counters per drop, the multi-tenant store tallies
/// its drops and publishes them once when it finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SiftDrop {
    /// Unparseable URL or malformed notification payload.
    ParseError,
    /// Ordinary traffic (non-exchange host or non-notification endpoint).
    NotNotification,
}

/// Screens one request down to its notification's exchange and price —
/// the one sift behind [`YourAdValue::observe`] and the multi-tenant
/// store. Pure with respect to the monitor: all accounting stays with
/// the caller.
///
/// The estimator's [`CoreContext`] is built only when `want_ctx`
/// accepts the notification's price, and owns the echoed publisher name,
/// the sift's one allocating piece, only when `with_publisher` asks for
/// it. A caller that reads the context only to value encrypted prices
/// with a model that ignores the publisher keeps the sift heap-free —
/// what keeps the multi-tenant feed path inside the steady-state
/// zero-allocation contract (`no_alloc_gen.rs`). Its `city` is left
/// unset: the home city is the caller's to look up, and only for a
/// request that survives the sift.
///
/// Non-nURL traffic — the overwhelming majority — leaves through one of
/// the early rejects without touching the heap: [`yav_nurl::screen_adx`]
/// inspects only the scheme prefix and authority, [`UrlRef::parse`]
/// borrows subslices of the raw request, and the verdict carries the
/// matched exchange into the borrowed template parse, so true nURLs scan
/// the host roster exactly once.
pub(crate) fn sift_request(
    req: &HttpRequest,
    scratch: &mut SiftScratch,
    want_ctx: impl FnOnce(&PricePayload) -> bool,
    with_publisher: bool,
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
    let ctx = want_ctx(&fields.price).then(|| {
        let fp = scratch.ua.fingerprint(&req.user_agent);
        CoreContext {
            city: None,
            time: req.time,
            device: fp.device,
            os: fp.os,
            interaction: fp.interaction,
            format: fields.slot,
            adx,
            iab: fields.publisher.and_then(taxonomy::categorize),
            publisher: fields
                .publisher
                .filter(|_| with_publisher)
                .map(str::to_owned),
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
    /// Reusable sift state (URL decoding, UA memo).
    sift: SiftScratch,
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
    fn sift(&mut self, req: &HttpRequest) -> Option<(Adx, PricePayload, CoreContext)> {
        // Contributions carry the context, publisher included, of
        // cleartext prices too.
        match sift_request(req, &mut self.sift, |_| true, true) {
            // Asked for, so the context is always there.
            Ok((adx, price, ctx)) => ctx.map(|mut ctx| {
                ctx.city = self.home_city;
                (adx, price, ctx)
            }),
            Err(SiftDrop::ParseError) => {
                self.drops.parse_error += 1;
                self.metrics.parse_error.inc();
                self.metrics.rejected_total.inc();
                yav_telemetry::instant!("ingest.drop", DROP_PARSE_ERROR);
                None
            }
            Err(SiftDrop::NotNotification) => {
                self.drops.not_notification += 1;
                self.metrics.not_notification.inc();
                self.metrics.rejected_total.inc();
                yav_telemetry::instant!("ingest.drop", DROP_NOT_NOTIFICATION);
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
    /// winning-price notification. Opens no span: a clock pair costs
    /// about as much as the request itself, so the batch is timed
    /// instead ([`YourAdValue::observe_batch`]).
    pub fn observe(&mut self, req: &HttpRequest) -> Option<PriceEvent> {
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
    /// request order: [`YourAdValue::observe`] per request, so every side
    /// effect is the serial loop's. The whole call is one
    /// `ingest.observe` span: one `ingest.observe.us` sample, the latency
    /// the health engine's `ingest` watch reads.
    pub fn observe_batch(&mut self, reqs: &[HttpRequest]) -> Vec<PriceEvent> {
        let _span = yav_telemetry::span!("ingest.observe", reqs.len());
        reqs.iter().filter_map(|req| self.observe(req)).collect()
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
