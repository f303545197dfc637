//! The streaming analyzer: orchestration of classification, detection,
//! enrichment and feature extraction.

use crate::classify::{classify_domain_lower, TrafficClass};
use crate::features::{self, FeatureSchema, NurlTransport};
use crate::geoip::GeoDb;
use crate::pairs::PairTracker;
use crate::summary::DetectionSummary;
use crate::taxonomy;
use crate::ua::UaMemo;
use crate::userstate::{GlobalState, UserState};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use yav_nurl::urlref::decoded_len;
use yav_nurl::{exchange_host, template, UrlRef, UrlScratch};
use yav_types::{
    AdSlotSize, Adx, City, Cpm, DeviceType, IabCategory, InteractionType, Os, PriceVisibility,
    SimTime, UserId,
};
use yav_weblog::HttpRequest;

/// One detected winning-price notification, fully enriched — the
/// analyzer's unit of output. All fields are *observations*: anything the
/// notification did not echo is `None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectedImpression {
    /// When the notification fired.
    pub time: SimTime,
    /// The panel user who rendered the ad.
    pub user: UserId,
    /// The exchange that emitted the notification.
    pub adx: Adx,
    /// The winning bidder's callback domain, if echoed.
    pub dsp_domain: Option<String>,
    /// Whether the price was readable.
    pub visibility: PriceVisibility,
    /// The cleartext charge price, when readable.
    pub cleartext_cpm: Option<Cpm>,
    /// The encrypted token's wire form, when opaque.
    pub encrypted_token_wire: Option<String>,
    /// Auctioned slot size, when echoed.
    pub slot: Option<AdSlotSize>,
    /// Publisher name, when echoed.
    pub publisher: Option<String>,
    /// Publisher IAB category (from the content taxonomy).
    pub iab: Option<IabCategory>,
    /// User's city (reverse geo-coded).
    pub city: Option<City>,
    /// Device OS (user agent).
    pub os: Os,
    /// Device class (user agent).
    pub device: DeviceType,
    /// App vs mobile web (user agent).
    pub interaction: InteractionType,
    /// Campaign wire-id, when echoed.
    pub campaign_wire: Option<String>,
    /// Auction latency (ms), when echoed.
    pub latency_ms: Option<u32>,
}

/// A detection plus its 288-feature snapshot (state *before* folding the
/// impression itself, i.e. "history up to now").
#[derive(Debug, Clone, PartialEq)]
pub struct ImpressionRecord {
    /// The enriched detection.
    pub meta: DetectedImpression,
    /// The Table-4 feature vector.
    pub features: Vec<f64>,
}

/// What the analyzer retains about individual detections.
///
/// [`Retention::Full`] keeps every enriched [`DetectedImpression`] in the
/// report (the default, and what every figure experiment expects).
/// [`Retention::Bounded`] drops the list and relies on the always-recorded
/// [`DetectionSummary`] — constant memory per analyzer, which is what lets
/// the streaming world builder run million-user populations. Every other
/// aggregate (class counts, pairs, state folds, returned
/// [`ImpressionRecord`]s) is identical in both modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Retention {
    /// Keep the full detection list (default).
    #[default]
    Full,
    /// Keep only constant-size aggregates; `report.detections` stays
    /// empty.
    Bounded,
}

/// Aggregates the analyzer keeps beyond the detection list.
#[derive(Debug, Clone, Default)]
pub struct AnalyzerReport {
    /// Every detection, in ingestion order (empty under
    /// [`Retention::Bounded`]).
    pub detections: Vec<DetectedImpression>,
    /// Constant-size aggregates over all detections (recorded in both
    /// retention modes).
    pub summary: DetectionSummary,
    /// Notifications that matched an exchange endpoint but were malformed.
    pub malformed_nurls: u64,
    /// Requests per traffic class.
    pub class_counts: BTreeMap<TrafficClass, u64>,
    /// ADX↔DSP pair and entity-share aggregates (Figures 2–3).
    pub pairs: PairTracker,
    /// All requests per OS per month (the Figure-9 denominator).
    pub monthly_os_requests: [[u64; 4]; 12],
    /// Total requests ingested.
    pub total_requests: u64,
    /// Distinct users seen.
    pub users_seen: usize,
}

impl AnalyzerReport {
    /// Folds another report into this one (the world builders' per-shard
    /// fold). Detections are *appended* in the other report's order;
    /// callers needing the canonical global order re-sort afterwards.
    /// `users_seen` sums, which is exact when shards partition users (the
    /// only way the weblog stream shards).
    pub fn merge(&mut self, other: AnalyzerReport) {
        self.detections.extend(other.detections);
        self.summary.merge(&other.summary);
        self.malformed_nurls += other.malformed_nurls;
        for (class, n) in other.class_counts {
            *self.class_counts.entry(class).or_insert(0) += n;
        }
        self.pairs.merge(other.pairs);
        for (mine, theirs) in self
            .monthly_os_requests
            .iter_mut()
            .zip(other.monthly_os_requests)
        {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
        self.total_requests += other.total_requests;
        self.users_seen += other.users_seen;
    }
}

/// The streaming Weblog Ads Analyzer.
pub struct WeblogAnalyzer {
    geo: GeoDb,
    // yav-lint: allow(nondet-iteration) — keyed lookups only (entry/get/len), never iterated, so order cannot reach output; O(1) access on the per-request hot path
    users: HashMap<UserId, UserState>,
    global: GlobalState,
    report: AnalyzerReport,
    retention: Retention,
    /// Reusable lowercased-host buffer (classification is
    /// case-insensitive; the borrowed parser keeps the raw case).
    host_lower: String,
    /// Reusable percent-decode scratch for notification parsing.
    url_scratch: UrlScratch,
    /// One-entry UA memo: consecutive requests mostly repeat a UA.
    ua: UaMemo,
    /// Reusable DSP-domain render buffer (bidder aggregates are keyed
    /// without materialising a `String` per notification).
    dsp_buf: String,
    /// Reusable campaign-wire render buffer (same role as `dsp_buf`).
    wire_buf: String,
}

impl Default for WeblogAnalyzer {
    fn default() -> Self {
        WeblogAnalyzer::new()
    }
}

impl WeblogAnalyzer {
    /// Creates an analyzer with the built-in blacklist, geo database and
    /// taxonomy.
    pub fn new() -> WeblogAnalyzer {
        WeblogAnalyzer::with_retention(Retention::Full)
    }

    /// Creates an analyzer with an explicit [`Retention`] policy. The
    /// streaming world builder uses [`Retention::Bounded`] so per-shard
    /// analyzer memory stays constant at any population size.
    pub fn with_retention(retention: Retention) -> WeblogAnalyzer {
        WeblogAnalyzer {
            geo: GeoDb::open(),
            // yav-lint: allow(nondet-iteration) — same map as the field above: lookup-only, never iterated
            users: HashMap::new(),
            global: GlobalState::default(),
            report: AnalyzerReport::default(),
            retention,
            host_lower: String::new(),
            url_scratch: UrlScratch::new(),
            ua: UaMemo::default(),
            dsp_buf: String::new(),
            wire_buf: String::new(),
        }
    }

    /// Ingests one HTTP request. Returns the enriched detection (with its
    /// feature snapshot) when the request was a winning-price
    /// notification.
    pub fn ingest(&mut self, req: &HttpRequest) -> Option<ImpressionRecord> {
        self.ingest_with(req, true)
    }

    /// Ingests one HTTP request without building the per-detection
    /// [`ImpressionRecord`]: both entry points run one body, so every
    /// aggregate — class counts, user and global state, pairs, summary,
    /// malformed counts — folds exactly as [`WeblogAnalyzer::ingest`]
    /// folds it, but the enriched metadata and the 288-feature snapshot
    /// are never built. This is the streaming window loop's path: after
    /// warm-up it touches no heap at all (the detection keys are rendered
    /// into reusable buffers and only first-sight map keys allocate).
    ///
    /// Retention is irrelevant here: a caller that wants
    /// `report.detections` needs the metadata and must use
    /// [`WeblogAnalyzer::ingest`].
    pub fn ingest_quiet(&mut self, req: &HttpRequest) {
        self.ingest_with(req, false);
    }

    /// The one ingest body; `want_record` asks for the enriched
    /// [`ImpressionRecord`] of a detected notification.
    fn ingest_with(&mut self, req: &HttpRequest, want_record: bool) -> Option<ImpressionRecord> {
        // Borrowed parse: components are subslices of the raw line, no
        // allocation. Validating the query up front keeps the owned
        // parser's accounting — a URL whose query cannot decode is an
        // unparseable line, not ad traffic — and guarantees every later
        // decode of this URL succeeds.
        let url = match UrlRef::parse(&req.url) {
            Ok(url) if url.validate_query().is_ok() => url,
            _ => {
                // Unparseable lines exist in every proxy log; they still
                // count.
                self.report.total_requests += 1;
                return None;
            }
        };

        self.host_lower.clear();
        self.host_lower.push_str(url.host_raw());
        self.host_lower.make_ascii_lowercase();
        let class = classify_domain_lower(&self.host_lower);
        *self.report.class_counts.entry(class).or_insert(0) += 1;
        self.report.total_requests += 1;

        let fp = self.ua.fingerprint(&req.user_agent);
        let city = self.geo.city_of(req.client_ip);
        let month = GlobalState::month_bucket(req.time);
        self.report.monthly_os_requests[month][os_index(fp.os)] += 1;

        let user = self.users.entry(req.user).or_default();
        user.record_request(
            req.time,
            req.bytes,
            req.duration_ms,
            fp.interaction == InteractionType::MobileApp,
            city,
        );

        match class {
            TrafficClass::Rest => {
                // Content request: learn the publisher and the interest.
                let host = normalize_publisher(&self.host_lower);
                if let Some(iab) = taxonomy::categorize(host) {
                    user.record_publisher(host, Some(iab));
                    bump_count(&mut self.global.publisher_views, host);
                } else {
                    user.record_publisher(host, None);
                }
                None
            }
            TrafficClass::Advertising => self.ingest_advertising(req, &url, fp, city, want_record),
            _ => None,
        }
    }

    /// Handles an advertising-class request: beacons, cookie syncs, and
    /// the main event — notification URLs.
    fn ingest_advertising(
        &mut self,
        req: &HttpRequest,
        url: &UrlRef<'_>,
        fp: crate::ua::UaFingerprint,
        city: Option<City>,
        want_record: bool,
    ) -> Option<ImpressionRecord> {
        let user = self
            .users
            .get_mut(&req.user)
            .expect("state created in ingest_with");
        if url.path().ends_with("/b.gif") {
            user.record_beacon();
            return None;
        }
        if url.path().contains("getuid") || url.query_raw("redir").is_some() {
            user.record_cookie_sync();
            return None;
        }

        // Only an exchange's notification host can carry a notification:
        // other ad traffic leaves before any decode.
        let adx = exchange_host(url.host_raw())?;
        let fields = match template::parse_borrowed_screened(adx, url, &mut self.url_scratch) {
            Ok(Some(f)) => f,
            Ok(None) => return None, // ad request / other ad traffic
            Err(_) => {
                // Decode errors cannot reach here (`ingest_with`
                // validated the query), so this is a malformed payload.
                self.report.malformed_nurls += 1;
                yav_telemetry::instant!("analyzer.malformed_nurl");
                return None;
            }
        };
        yav_telemetry::instant!("analyzer.detect", adx);

        let visibility = fields.price.visibility();
        let cleartext = fields.price.cleartext();
        let iab = fields.publisher.and_then(taxonomy::categorize);
        // The detection's keys render into reused buffers, so the folds
        // below allocate only on a key's first sight.
        self.dsp_buf.clear();
        fields.dsp.write_domain(&mut self.dsp_buf);

        // The enriched detection, with its feature snapshot taken BEFORE
        // folding this impression: history "up to now" (Table 4's
        // phrasing).
        let record = want_record.then(|| {
            let meta = DetectedImpression {
                time: req.time,
                user: req.user,
                adx,
                dsp_domain: Some(self.dsp_buf.clone()),
                visibility,
                cleartext_cpm: cleartext,
                encrypted_token_wire: fields.price.encrypted().map(|t| t.to_wire()),
                slot: fields.slot,
                publisher: fields.publisher.map(str::to_owned),
                iab,
                city,
                os: fp.os,
                device: fp.device,
                interaction: fp.interaction,
                campaign_wire: fields.campaign.map(|c| c.wire()),
                latency_ms: fields.latency_ms,
            };
            let transport = NurlTransport {
                bytes: req.bytes,
                duration_ms: req.duration_ms,
                param_count: url.query_pairs().count() as u32,
                https: url.is_https(),
                // ASCII lowercasing preserves byte length, so the raw
                // host's length is the normalized host's length.
                host_len: url.host_raw().len() as u32,
                path_depth: url.path().split('/').filter(|s| !s.is_empty()).count() as u32,
                // Decoded lengths without materialising the decoded
                // strings.
                query_len: url
                    .query_pairs()
                    .map(|(k, v)| decoded_len(k) + decoded_len(v) + 1)
                    .sum::<usize>() as u32,
                has_bid_price: fields.bid_price.is_some(),
                has_size: fields.slot.is_some(),
                has_publisher: fields.publisher.is_some(),
                token_len: meta
                    .encrypted_token_wire
                    .as_ref()
                    .map(|t| t.len())
                    .unwrap_or(0) as u32,
            };
            let features = features::extract(&meta, &transport, user, &self.global);
            ImpressionRecord { meta, features }
        });

        // Fold the impression into every state store.
        user.record_impression(adx, cleartext.map(|p| p.as_f64()));
        self.report
            .pairs
            .record(req.time, adx, Some(&self.dsp_buf), visibility);
        if let Some(slot) = fields.slot {
            let m = GlobalState::month_bucket(req.time);
            self.global.monthly_slots[m][features::slot_index(slot)] += 1;
        }
        if let Some(c) = fields.campaign {
            self.wire_buf.clear();
            c.wire_into(&mut self.wire_buf);
            bump_count(&mut self.global.campaigns, &self.wire_buf);
        }
        if let Some(p) = fields.publisher {
            bump_count(&mut self.global.publisher_imps, p);
        }
        fold_dsp_stats(&mut self.global, &self.dsp_buf, req, visibility);

        self.report.summary.record(adx, visibility, cleartext, iab);
        if let Some(record) = &record {
            if self.retention == Retention::Full {
                self.report.detections.push(record.meta.clone());
            }
        }
        record
    }

    /// Finishes the pass and returns the report.
    pub fn finish(self) -> AnalyzerReport {
        self.finish_with_state().0
    }

    /// Finishes the pass, also handing back the panel-wide global state
    /// (advertiser, campaign and publisher aggregates) that
    /// [`Self::finish`] drops.
    pub fn finish_with_state(mut self) -> (AnalyzerReport, GlobalState) {
        yav_telemetry::instant!("analyzer.finish", self.report.total_requests);
        self.report.users_seen = self.users.len();
        (self.report, self.global)
    }

    /// The feature schema the analyzer emits.
    pub fn schema(&self) -> &'static FeatureSchema {
        FeatureSchema::get()
    }
}

/// Strips serving prefixes from a content host to get the publisher name
/// as nURLs echo it.
fn normalize_publisher(host: &str) -> &str {
    host.strip_prefix("www.")
        .or_else(|| host.strip_prefix("api."))
        .unwrap_or(host)
}

/// Bumps `map[key]`, materialising the owned key only on first sight —
/// the steady-state fold performs a lookup and no heap traffic.
fn bump_count(map: &mut BTreeMap<String, u64>, key: &str) {
    if let Some(n) = map.get_mut(key) {
        *n += 1;
        return;
    }
    map.insert(key.to_owned(), 1);
}

/// Folds one notification's transport facts into the bidder's aggregate,
/// materialising the owned domain key only on the bidder's first
/// notification.
fn fold_dsp_stats(
    global: &mut GlobalState,
    domain: &str,
    req: &HttpRequest,
    visibility: PriceVisibility,
) {
    if !global.dsps.contains_key(domain) {
        global.dsps.insert(domain.to_owned(), Default::default());
    }
    let stats = global.dsps.get_mut(domain).expect("just ensured");
    stats.requests += 1;
    stats.bytes += req.bytes as u64;
    stats.duration_ms += req.duration_ms as u64;
    stats.users.insert(req.user.0);
    if visibility == PriceVisibility::Encrypted {
        stats.encrypted += 1;
    }
}

/// Dense index for the four OS buckets.
pub fn os_index(os: Os) -> usize {
    match os {
        Os::Android => 0,
        Os::Ios => 1,
        Os::WindowsMobile => 2,
        Os::Other => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yav_auction::MarketConfig;
    use yav_weblog::{WeblogConfig, WeblogGenerator};

    fn run_tiny() -> (AnalyzerReport, Vec<ImpressionRecord>, yav_weblog::Weblog) {
        let generator = WeblogGenerator::new(WeblogConfig::tiny());
        let log = generator.collect(&MarketConfig::default());
        let mut analyzer = WeblogAnalyzer::new();
        let mut records = Vec::new();
        for r in &log.requests {
            if let Some(rec) = analyzer.ingest(r) {
                records.push(rec);
            }
        }
        (analyzer.finish(), records, log)
    }

    #[test]
    fn detects_exactly_the_ground_truth_impressions() {
        let (report, records, log) = run_tiny();
        assert_eq!(report.detections.len(), log.truth.len());
        assert_eq!(records.len(), log.truth.len());
        // Detection metadata must agree with ground truth on the
        // *observable* dimensions (time, user, exchange, visibility).
        for (det, truth) in report.detections.iter().zip(&log.truth) {
            assert_eq!(det.time, truth.time);
            assert_eq!(det.user, truth.user);
            assert_eq!(det.adx, truth.adx);
            assert_eq!(det.visibility, truth.visibility);
        }
    }

    #[test]
    fn cleartext_prices_match_ground_truth() {
        let (report, _, log) = run_tiny();
        for (det, truth) in report.detections.iter().zip(&log.truth) {
            match det.visibility {
                PriceVisibility::Cleartext => {
                    assert_eq!(det.cleartext_cpm, Some(truth.charge));
                    assert!(det.encrypted_token_wire.is_none());
                }
                PriceVisibility::Encrypted => {
                    assert!(det.cleartext_cpm.is_none());
                    assert!(det.encrypted_token_wire.is_some());
                }
            }
        }
    }

    #[test]
    fn traffic_classes_all_present() {
        let (report, _, _) = run_tiny();
        for class in TrafficClass::ALL {
            assert!(
                report.class_counts.get(&class).copied().unwrap_or(0) > 0,
                "class {class:?} absent"
            );
        }
        // Rest (content) should dominate raw request counts.
        assert!(
            report.class_counts[&TrafficClass::Rest] > report.class_counts[&TrafficClass::Social]
        );
    }

    #[test]
    fn feature_rows_are_valid() {
        let (_, records, _) = run_tiny();
        for rec in &records {
            assert!(crate::features::validate_row(&rec.features), "bad row");
        }
    }

    #[test]
    fn enrichment_recovers_context() {
        let (report, _, _) = run_tiny();
        // Cities resolve for essentially all detections.
        let with_city = report
            .detections
            .iter()
            .filter(|d| d.city.is_some())
            .count();
        assert_eq!(with_city, report.detections.len());
        // Both channels and at least two OSes appear.
        let apps = report
            .detections
            .iter()
            .filter(|d| d.interaction == InteractionType::MobileApp)
            .count();
        assert!(apps > 0 && apps < report.detections.len());
        let oses: std::collections::HashSet<Os> = report.detections.iter().map(|d| d.os).collect();
        assert!(oses.len() >= 2);
        // Publisher-rich exchanges yield IAB categories.
        assert!(report.detections.iter().any(|d| d.iab.is_some()));
    }

    #[test]
    fn users_and_requests_accounted() {
        let (report, _, log) = run_tiny();
        assert_eq!(report.total_requests, log.requests.len() as u64);
        assert!(report.users_seen > 0);
        assert_eq!(
            report.malformed_nurls, 0,
            "simulator emits well-formed nURLs"
        );
    }

    #[test]
    fn merge_of_empty_reports_is_empty() {
        let mut a = AnalyzerReport::default();
        a.merge(AnalyzerReport::default());
        assert_eq!(a.total_requests, 0);
        assert!(a.detections.is_empty());
    }

    #[test]
    fn quiet_ingest_folds_identically() {
        // `ingest_quiet` must fold every aggregate exactly as `ingest`
        // does — it only skips building the per-detection record. Drive
        // both over the same log and compare everything observable.
        let generator = WeblogGenerator::new(WeblogConfig::tiny());
        let log = generator.collect(&MarketConfig::default());
        let mut full = WeblogAnalyzer::with_retention(Retention::Bounded);
        let mut quiet = WeblogAnalyzer::with_retention(Retention::Bounded);
        let mut detections = 0usize;
        for r in &log.requests {
            if full.ingest(r).is_some() {
                detections += 1;
            }
            quiet.ingest_quiet(r);
        }
        assert!(detections > 0, "tiny log must contain notifications");
        let (fr, fg) = full.finish_with_state();
        let (qr, qg) = quiet.finish_with_state();
        assert_eq!(fr.summary, qr.summary);
        assert_eq!(fr.class_counts, qr.class_counts);
        assert_eq!(fr.total_requests, qr.total_requests);
        assert_eq!(fr.users_seen, qr.users_seen);
        assert_eq!(fr.malformed_nurls, qr.malformed_nurls);
        assert_eq!(fr.monthly_os_requests, qr.monthly_os_requests);
        assert_eq!(fr.pairs.figure2(), qr.pairs.figure2());
        assert_eq!(fr.pairs.figure3(), qr.pairs.figure3());
        assert!(qr.detections.is_empty());
        assert_eq!(fg.dsps, qg.dsps);
        assert_eq!(fg.campaigns, qg.campaigns);
        assert_eq!(fg.publisher_views, qg.publisher_views);
        assert_eq!(fg.publisher_imps, qg.publisher_imps);
        assert_eq!(fg.monthly_slots, qg.monthly_slots);
    }

    #[test]
    fn pair_tracker_sees_rising_encryption_on_paper_scale_only() {
        // At tiny scale just assert the tracker populated.
        let (report, _, _) = run_tiny();
        let f2 = report.figure2_nonempty();
        assert!(!f2.is_empty());
    }

    impl AnalyzerReport {
        fn figure2_nonempty(&self) -> Vec<crate::pairs::PairShare> {
            self.pairs
                .figure2()
                .into_iter()
                .filter(|m| m.encrypted_pairs + m.cleartext_pairs > 0)
                .collect()
        }
    }
}
