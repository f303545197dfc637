//! The browsing/session model: turning the panel into an HTTP stream.
//!
//! For every user-day the generator draws sessions (diurnal and weekly
//! rhythms), pages per session, publisher choices (interest-biased Zipf),
//! auxiliary asset/tracker/beacon requests, occasional cookie syncs, and
//! RTB ad slots that are auctioned live through a [`yav_auction::Market`].
//! Sold slots emit the exchange's ad response plus the notification URL —
//! the thing the whole pipeline exists to observe.
//!
//! Events are streamed to a visitor in strict time order *within each
//! user-day* (global order is user-major, which is what a proxy log
//! sorted by subscriber looks like; consumers needing global time order
//! sort downstream).

use crate::config::WeblogConfig;
use crate::domains;
use crate::event::{GroundTruth, HttpRequest};
use crate::population::{Panel, PanelUser};
use crate::publisher::{sample_slot, Publisher, PublisherUniverse};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::OnceLock;
use yav_arena::{Bump, Span};
use yav_auction::{AdRequest, Market, MarketConfig, MarketTemplate};
use yav_stats::AliasTable;
use yav_types::{
    AdSlotSize, Adx, City, DeviceType, IabCategory, InteractionType, Os, PublisherId, SimTime,
    UserId,
};

/// Users per logical generation shard. This is a **structural** constant:
/// the stream depends on the shard cut (each shard auctions against its
/// own derived market), so it must never be derived from the worker
/// count. 32 users keeps shards coarse enough to amortise market setup
/// yet fine enough to balance a 16-wide pool at Mid scale.
pub const USERS_PER_SHARD: usize = 32;

/// One standard-normal draw (Box–Muller). Shared with the population
/// model.
pub fn normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Relative browsing intensity per hour of day (sums to 24; the morning
/// and evening humps of mobile usage).
const HOURLY: [f64; 24] = [
    0.25, 0.15, 0.10, 0.08, 0.10, 0.20, 0.55, 0.95, 1.30, 1.45, 1.40, 1.30, //
    1.25, 1.20, 1.15, 1.20, 1.30, 1.45, 1.60, 1.75, 1.80, 1.60, 1.15, 0.72,
];

/// Weekly modulation (weekends browse a bit more, workdays a bit less).
const DAILY: [f64; 7] = [0.95, 0.95, 0.95, 0.97, 1.00, 1.12, 1.06];

/// A fully collected weblog (use only at test scales).
#[derive(Debug, Clone, Default)]
pub struct Weblog {
    /// The HTTP event stream.
    pub requests: Vec<HttpRequest>,
    /// Ground-truth impression records (validation only).
    pub truth: Vec<GroundTruth>,
}

impl Weblog {
    /// Sorts both streams into the canonical global order: minute, then
    /// user id, ties keeping their per-user emission order (the sort is
    /// stable). This is the merge order of the world builders; shard
    /// boundaries can never show through it.
    pub fn sort_canonical(&mut self) {
        self.requests.sort_by_key(|r| (r.time.minutes(), r.user.0));
        self.truth.sort_by_key(|t| (t.time.minutes(), t.user.0));
    }
}

/// Reusable per-shard buffers for the steady-state event loop. One
/// [`HttpRequest`] and one [`AdRequest`] are written in place and lent to
/// the sinks; the [`Bump`] arenas intern everything textual that varies
/// only per shard (exchange ad-URL prefixes) or per user (pre-rendered
/// user-agent strings). After the first few events warm the buffer
/// capacities, the loop performs zero heap allocations per event
/// (`crates/core/tests/no_alloc_gen.rs` proves it with a counting
/// allocator).
struct ShardScratch {
    req: HttpRequest,
    ad: AdRequest,
    /// Shard-lifetime corpus: `http://{adx}/ad?pub=` per exchange.
    corpus: Bump,
    ad_prefix: [Span; Adx::ALL.len()],
    /// Per-user arena, reset at each user switch.
    ua: Bump,
    web_ua: Span,
    app_ua: Span,
    rtb_slots: yav_telemetry::Counter,
    rtb_impressions: yav_telemetry::Counter,
}

impl ShardScratch {
    fn new() -> ShardScratch {
        let mut corpus = Bump::with_capacity(1024);
        let ad_prefix = std::array::from_fn(|i| {
            corpus.push_with(|out| {
                let _ = write!(out, "http://{}/ad?pub=", Adx::from_index(i).domain());
            })
        });
        ShardScratch {
            req: HttpRequest {
                time: SimTime::EPOCH,
                user: UserId(0),
                // yav-lint: allow(alloc-in-gen-path) — per-shard scratch setup, reused for every event
                url: String::with_capacity(256),
                client_ip: 0,
                // yav-lint: allow(alloc-in-gen-path) — per-shard scratch setup, reused for every event
                user_agent: String::with_capacity(160),
                bytes: 0,
                duration_ms: 0,
            },
            ad: AdRequest {
                time: SimTime::EPOCH,
                user: UserId(0),
                city: City::Madrid,
                os: Os::Android,
                device: DeviceType::Smartphone,
                interaction: InteractionType::MobileWeb,
                publisher: PublisherId(0),
                // yav-lint: allow(alloc-in-gen-path) — per-shard scratch setup, reused for every event
                publisher_name: String::with_capacity(48),
                iab: IabCategory::News,
                slot: AdSlotSize::S300x250,
                adx: Adx::ALL[0],
                interest_match: 0.0,
            },
            corpus,
            ad_prefix,
            ua: Bump::with_capacity(256),
            web_ua: Span::EMPTY,
            app_ua: Span::EMPTY,
            rtb_slots: yav_telemetry::counter("weblog.generator.rtb_slots"),
            rtb_impressions: yav_telemetry::counter("weblog.generator.rtb_impressions"),
        }
    }
}

/// The streaming generator.
pub struct WeblogGenerator {
    config: WeblogConfig,
    /// `None` when `config.lazy_panel`: shard blocks are materialised on
    /// demand inside [`Self::run_shard`] and dropped with the shard.
    panel: Option<Panel>,
    universe: PublisherUniverse,
}

impl WeblogGenerator {
    /// Builds the generator (panel and publisher universe are derived
    /// deterministically from the config seed). With
    /// [`WeblogConfig::lazy_panel`] set, no panel is materialised here —
    /// each shard draws its own 32-user block.
    pub fn new(config: WeblogConfig) -> WeblogGenerator {
        let panel = if config.lazy_panel {
            None
        } else {
            Some(Panel::build(config.seed, config.users))
        };
        let universe =
            PublisherUniverse::build(config.seed, config.web_publishers, config.app_publishers);
        WeblogGenerator {
            config,
            panel,
            universe,
        }
    }

    /// The panel (for experiment harnesses that need user metadata).
    ///
    /// # Panics
    /// In lazy-panel mode there is no whole panel to hand out; use
    /// [`Panel::build_block`] for the block you need instead.
    pub fn panel(&self) -> &Panel {
        self.panel
            .as_ref()
            .expect("lazy_panel generators hold no materialised panel; use Panel::build_block")
    }

    /// The publisher universe.
    pub fn universe(&self) -> &PublisherUniverse {
        &self.universe
    }

    /// Number of logical generation shards (fixed blocks of
    /// [`USERS_PER_SHARD`] users in panel-id order).
    pub fn shard_count(&self) -> usize {
        (self.config.users as usize)
            .div_ceil(USERS_PER_SHARD)
            .max(1)
    }

    /// Runs the full simulation, streaming every HTTP request to `on_req`
    /// and every ground-truth impression record to `on_truth`.
    ///
    /// Shard `s` auctions against `MarketTemplate::shard(s)`, and the
    /// shards play in index order on the calling thread. The stream is
    /// therefore exactly what the world builders feed their analyzers,
    /// shard by shard; a single-shard config plays only shard 0, which
    /// is the `Market::new(config)` market.
    ///
    /// The request is lent, not given: it lives in a per-shard scratch
    /// buffer that the next event overwrites. Sinks that need to keep an
    /// event clone it; sinks that only read (the analyzer, the monitor)
    /// touch no heap at all.
    pub fn run(
        &self,
        market_config: &MarketConfig,
        mut on_req: impl FnMut(&HttpRequest),
        mut on_truth: impl FnMut(GroundTruth),
    ) {
        let _span = yav_telemetry::span!("weblog.generator.run");
        let template = MarketTemplate::new(market_config.clone());
        for shard in 0..self.shard_count() {
            let mut market = template.shard(shard as u64);
            self.run_shard(shard, &mut market, &mut on_req, &mut on_truth);
        }
    }

    /// Runs one user shard against `market`. [`Self::run`] plays every
    /// shard in order against its `MarketTemplate::shard(s)` market; the
    /// world builders do the same on a worker pool and merge downstream.
    pub fn run_shard(
        &self,
        shard: usize,
        market: &mut Market,
        on_req: impl FnMut(&HttpRequest),
        on_truth: impl FnMut(GroundTruth),
    ) {
        let n = self.config.users as usize;
        let lo = (shard * USERS_PER_SHARD).min(n);
        let hi = (lo + USERS_PER_SHARD).min(n);
        // Lazy mode draws just this shard's block and drops it with the
        // shard; eager mode borrows the shared panel (byte-compatible
        // with the pre-lazy builds).
        let block;
        let users: &[PanelUser] = match &self.panel {
            Some(panel) => &panel.users()[lo..hi],
            None => {
                block = Panel::build_block(self.config.seed, lo as u32, hi as u32);
                &block
            }
        };
        self.run_shard_with_users(users, market, on_req, on_truth);
    }

    /// Runs a shard over an explicit, already-materialised user block.
    /// Streaming drivers that have the block in hand (the million-user
    /// pipeline materialises each lazy block to size its windows) call
    /// this directly instead of [`Self::run_shard`], which would derive
    /// the block a second time.
    pub fn run_shard_with_users(
        &self,
        users: &[PanelUser],
        market: &mut Market,
        on_req: impl FnMut(&HttpRequest),
        mut on_truth: impl FnMut(GroundTruth),
    ) {
        let requests = yav_telemetry::counter("weblog.generator.requests");
        let mut inner = on_req;
        let mut on_req = move |r: &HttpRequest| {
            requests.inc();
            inner(r)
        };
        let mut scratch = ShardScratch::new();
        for user in users {
            scratch.ua.reset();
            scratch.web_ua = scratch.ua.push_with(|b| user.write_web_user_agent(b));
            scratch.app_ua = scratch.ua.push_with(|b| user.write_app_user_agent(b));
            scratch.req.user = user.id;
            scratch.ad.user = user.id;
            scratch.ad.os = user.os;
            scratch.ad.device = user.device;
            // Per-user RNG: users are independent streams, so panel size
            // changes don't reshuffle existing users' behaviour.
            let mut rng =
                StdRng::seed_from_u64(self.config.seed ^ 0x6E6E_0000_0000_0006 ^ user.id.0 as u64);
            for day in 0..self.config.days {
                let midnight = self.config.start.plus_days(day as i64);
                self.run_user_day(
                    market,
                    user,
                    midnight,
                    &mut rng,
                    &mut scratch,
                    &mut on_req,
                    &mut on_truth,
                );
            }
        }
    }

    /// Convenience: collect [`Self::run`]'s stream into memory, in shard
    /// order (test scales only). [`Weblog::sort_canonical`] puts it in
    /// the global (minute, user) order.
    pub fn collect(&self, market_config: &MarketConfig) -> Weblog {
        let mut log = Weblog::default();
        self.run(
            market_config,
            |r| log.requests.push(r.clone()),
            |t| log.truth.push(t),
        );
        log
    }

    #[allow(clippy::too_many_arguments)]
    fn run_user_day(
        &self,
        market: &mut Market,
        user: &PanelUser,
        midnight: SimTime,
        rng: &mut StdRng,
        scratch: &mut ShardScratch,
        on_req: &mut impl FnMut(&HttpRequest),
        on_truth: &mut impl FnMut(GroundTruth),
    ) {
        let dow = midnight.day_of_week().index();
        let mean_views = self.config.views_per_user_day * user.activity * DAILY[dow];
        let views = poisson(rng, mean_views);
        if views == 0 {
            return;
        }
        // A "session city": travellers browse from elsewhere all day.
        let city = if rng.gen::<f64>() < user.mobility {
            City::ALL[rng.gen_range(0..City::ALL.len())]
        } else {
            user.home
        };

        let mut interest_buf = [IabCategory::News; 4];
        for _ in 0..views {
            let hour = sample_hour(rng);
            let minute = rng.gen_range(0..60i64);
            let time = midnight.plus_minutes(hour as i64 * 60 + minute);
            let in_app = rng.gen::<f64>() < user.app_propensity;
            let publisher = self.universe.sample(
                rng,
                in_app,
                user.interest_categories_into(&mut interest_buf),
                0.55,
            );
            self.emit_view(
                market, user, city, time, in_app, publisher, rng, scratch, on_req, on_truth,
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_view(
        &self,
        market: &mut Market,
        user: &PanelUser,
        city: City,
        time: SimTime,
        in_app: bool,
        publisher: &Publisher,
        rng: &mut StdRng,
        scratch: &mut ShardScratch,
        on_req: &mut impl FnMut(&HttpRequest),
        on_truth: &mut impl FnMut(GroundTruth),
    ) {
        let ua = if in_app {
            scratch.app_ua
        } else {
            scratch.web_ua
        };
        scratch.req.user_agent.clear();
        scratch.req.user_agent.push_str(scratch.ua.get(ua));
        scratch.req.client_ip = city_ip(city, user.id, rng.gen::<u8>());

        // 1. The content request itself (page or app API call).
        scratch.req.url.clear();
        if in_app {
            let _ = write!(
                scratch.req.url,
                "http://api.{}/v2/feed?sess={}",
                publisher.name,
                rng.gen::<u32>()
            );
        } else {
            let _ = write!(
                scratch.req.url,
                "http://www.{}/articulo/{}.html",
                publisher.name,
                rng.gen_range(1..5000)
            );
        }
        scratch.req.time = time;
        scratch.req.bytes = rng.gen_range(8_000..160_000);
        scratch.req.duration_ms = rng.gen_range(80..900);
        on_req(&scratch.req);

        // 2. Auxiliary requests: assets, analytics, social, trackers.
        let aux = poisson(rng, self.config.aux_requests_per_view);
        for i in 0..aux {
            let t = time.plus_minutes(0).plus_minutes((i as i64) / 12); // bursts within a minute
            let roll: f64 = rng.gen();
            scratch.req.url.clear();
            if roll < 0.45 {
                let host = domains::THIRD_PARTY[rng.gen_range(0..domains::THIRD_PARTY.len())];
                let _ = write!(
                    scratch.req.url,
                    "http://{host}/assets/{}.js",
                    rng.gen_range(1..400)
                );
            } else if roll < 0.62 {
                let host = domains::ANALYTICS[rng.gen_range(0..domains::ANALYTICS.len())];
                let _ = write!(
                    scratch.req.url,
                    "http://{host}/collect?pid={}&ev=pageview",
                    publisher.id.0
                );
            } else if roll < 0.74 {
                let host = domains::SOCIAL[rng.gen_range(0..domains::SOCIAL.len())];
                let _ = write!(
                    scratch.req.url,
                    "http://{host}/widget.js?ref={}",
                    publisher.name
                );
            } else if roll < 0.90 {
                let host = domains::BEACON_HOSTS[rng.gen_range(0..domains::BEACON_HOSTS.len())];
                let _ = write!(scratch.req.url, "http://{host}/b.gif?u=");
                user.id.wire_into(&mut scratch.req.url);
                let _ = write!(scratch.req.url, "&r={}", rng.gen::<u32>());
            } else {
                let _ = write!(
                    scratch.req.url,
                    "http://www.{}/static/img{}.jpg",
                    publisher.name,
                    rng.gen_range(1..900)
                );
            }
            scratch.req.time = t;
            scratch.req.bytes = rng.gen_range(200..40_000);
            scratch.req.duration_ms = rng.gen_range(15..400);
            on_req(&scratch.req);
        }

        // 3. Cookie synchronisation (SSP ↔ DSP identity bridging).
        if rng.gen::<f64>() < self.config.cookie_sync_prob {
            let host =
                domains::COOKIE_SYNC_HOSTS[rng.gen_range(0..domains::COOKIE_SYNC_HOSTS.len())];
            let partner =
                domains::COOKIE_SYNC_HOSTS[rng.gen_range(0..domains::COOKIE_SYNC_HOSTS.len())];
            scratch.req.url.clear();
            let _ = write!(scratch.req.url, "http://{host}/getuid?uid=");
            user.id.wire_into(&mut scratch.req.url);
            let _ = write!(scratch.req.url, "&redir=http%3A%2F%2F{partner}%2Fsetuid");
            scratch.req.time = time;
            scratch.req.bytes = rng.gen_range(100..600);
            scratch.req.duration_ms = rng.gen_range(20..200);
            on_req(&scratch.req);
            market.dmp_mut().record_cookie_sync(user.id);
        }

        // 4. The RTB slot, if this view carries one.
        if rng.gen::<f64>() >= self.config.rtb_slot_prob {
            return;
        }
        scratch.rtb_slots.inc();
        let slot = sample_slot(rng, time);
        let adx = yav_auction::config::sample_adx(rng.gen());
        scratch.ad.time = time;
        scratch.ad.city = city;
        scratch.ad.interaction = if in_app {
            InteractionType::MobileApp
        } else {
            InteractionType::MobileWeb
        };
        scratch.ad.publisher = publisher.id;
        scratch.ad.publisher_name.clear();
        scratch.ad.publisher_name.push_str(&publisher.name);
        scratch.ad.iab = publisher.iab;
        scratch.ad.slot = slot;
        scratch.ad.adx = adx;
        scratch.ad.interest_match = user.interest_weight(publisher.iab);

        // The ad request toward the exchange (step 2–3 of Figure 1).
        scratch.req.url.clear();
        scratch
            .req
            .url
            .push_str(scratch.corpus.get(scratch.ad_prefix[adx.index()]));
        let _ = write!(
            scratch.req.url,
            "{}&size={}&cat=IAB{}",
            publisher.id.0,
            slot,
            publisher.iab.code()
        );
        scratch.req.time = time;
        scratch.req.bytes = rng.gen_range(300..2_000);
        scratch.req.duration_ms = rng.gen_range(30..150);
        on_req(&scratch.req);

        // An organic slot: the market renders the notification URL
        // straight into the reused request buffer.
        if let Some(sale) = market.run_auction(&scratch.ad, None, &mut scratch.req.url) {
            // RTB impression rate = rtb_impressions / requests.
            scratch.rtb_impressions.inc();
            // The notification URL fires through the browser as the
            // impression renders (steps 6–7).
            scratch.req.bytes = rng.gen_range(40..400);
            scratch.req.duration_ms = rng.gen_range(10..120);
            on_req(&scratch.req);
            on_truth(GroundTruth {
                impression: sale.impression,
                user: user.id,
                time,
                adx,
                charge: sale.charge,
                visibility: sale.visibility,
            });
        }
    }
}

/// Allocates a carrier IP for one user's day in a city: each city owns the
/// `10.(40+index).0.0/16` pool (the synthetic MaxMind table in
/// `yav-analyzer::geoip` mirrors this layout), with the host part derived
/// from the subscriber id plus daily churn.
pub fn city_ip(city: City, user: yav_types::UserId, churn: u8) -> u32 {
    let octet2 = 40 + city.index() as u32;
    let host = (user.id_hash() ^ churn as u32) & 0xFFFF;
    (10 << 24) | (octet2 << 16) | host
}

/// Small extension trait giving `UserId` a stable 16-bit-ish hash for IP
/// host parts.
trait UserIdHash {
    fn id_hash(&self) -> u32;
}

impl UserIdHash for yav_types::UserId {
    fn id_hash(&self) -> u32 {
        let x = self.0.wrapping_mul(0x9E37_79B9);
        x ^ (x >> 16)
    }
}

/// Samples an hour of day from the diurnal intensity profile (alias
/// table built once; one uniform per draw, like the CDF it replaced).
fn sample_hour<R: Rng>(rng: &mut R) -> u32 {
    static TABLE: OnceLock<AliasTable> = OnceLock::new();
    TABLE.get_or_init(|| AliasTable::new(&HOURLY)).sample(rng) as u32
}

/// Knuth Poisson sampler (means here are small; fine without log-space).
fn poisson<R: Rng>(rng: &mut R, mean: f64) -> u32 {
    if mean <= 0.0 {
        return 0;
    }
    let l = (-mean).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // absurd mean guard
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yav_auction::MarketConfig;
    use yav_types::PriceVisibility;
    use yav_types::UserId;

    fn generate() -> Weblog {
        WeblogGenerator::new(WeblogConfig::tiny()).collect(&MarketConfig::default())
    }

    #[test]
    fn generates_events_and_truth() {
        let log = generate();
        assert!(log.requests.len() > 1000, "requests {}", log.requests.len());
        assert!(log.truth.len() > 50, "impressions {}", log.truth.len());
        // Every truth record corresponds to a notification URL in the log.
        let nurl_count = log
            .requests
            .iter()
            .filter(|r| {
                yav_nurl::Url::parse(&r.url)
                    .ok()
                    .and_then(|u| yav_nurl::NurlDetector::new().detect(&u))
                    .is_some()
            })
            .count();
        assert_eq!(nurl_count, log.truth.len());
    }

    #[test]
    fn deterministic_across_runs() {
        let a = generate();
        let b = generate();
        assert_eq!(a.requests.len(), b.requests.len());
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.requests[..50], b.requests[..50]);
    }

    #[test]
    fn both_visibilities_present() {
        let log = generate();
        let enc = log
            .truth
            .iter()
            .filter(|t| t.visibility == PriceVisibility::Encrypted)
            .count();
        let clear = log.truth.len() - enc;
        assert!(enc > 0, "no encrypted impressions");
        assert!(clear > enc, "cleartext should dominate 2015 mobile RTB");
        let share = enc as f64 / log.truth.len() as f64;
        assert!((0.15..=0.45).contains(&share), "encrypted share {share}");
    }

    #[test]
    fn multi_shard_stream_sorts_into_canonical_order() {
        let mut config = WeblogConfig::small();
        config.users = 70; // three shards, one ragged
        config.days = 10;
        let gen = WeblogGenerator::new(config);
        assert_eq!(gen.shard_count(), 3);
        let mut log = gen.collect(&MarketConfig::default());
        assert!(log.truth.len() > 50);
        log.sort_canonical();
        for w in log.requests.windows(2) {
            assert!(
                (w[0].time.minutes(), w[0].user.0) <= (w[1].time.minutes(), w[1].user.0),
                "canonical order violated"
            );
        }
        // The stream still carries detectable notifications.
        let nurls = log
            .requests
            .iter()
            .filter(|r| {
                yav_nurl::Url::parse(&r.url)
                    .ok()
                    .and_then(|u| yav_nurl::NurlDetector::new().detect(&u))
                    .is_some()
            })
            .count();
        assert_eq!(nurls, log.truth.len());
    }

    #[test]
    fn urls_all_parse() {
        let log = generate();
        for r in log.requests.iter().take(5000) {
            assert!(
                yav_nurl::Url::parse(&r.url).is_ok(),
                "unparseable URL {}",
                r.url
            );
        }
    }

    #[test]
    fn poisson_mean_matches() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| poisson(&mut rng, 3.5) as u64).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 3.5).abs() < 0.1, "poisson mean {mean}");
    }

    #[test]
    fn hours_follow_diurnal_profile() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0u32; 24];
        for _ in 0..50_000 {
            counts[sample_hour(&mut rng) as usize] += 1;
        }
        // Evenings beat small hours decisively.
        assert!(counts[20] > counts[3] * 4);
    }

    #[test]
    fn truth_is_time_ordered_per_user() {
        let log = generate();
        use std::collections::HashMap;
        let mut last: HashMap<UserId, SimTime> = HashMap::new();
        for t in &log.truth {
            if let Some(prev) = last.get(&t.user) {
                // Within a user, days advance monotonically (intra-day
                // view order is random, so compare day granularity).
                assert!(
                    t.time.minutes() / yav_types::MINUTES_PER_DAY
                        >= prev.minutes() / yav_types::MINUTES_PER_DAY
                );
            }
            last.insert(t.user, t.time);
        }
    }
}
