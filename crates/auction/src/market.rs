//! The market: Vickrey auctions end to end.
//!
//! [`Market`] wires the DSP roster, the DMP, the integration matrix and
//! the valuation model into a single deterministic auction engine. One
//! call to [`Market::run_auction`] plays out steps 3–7 of the paper's
//! Figure 1: bid solicitation, second-price resolution, charge-price
//! computation and notification-URL emission.

use crate::config::MarketConfig;
use crate::dsp::DspProfile;
use crate::exchange::{notification, IntegrationMatrix};
use crate::profile::{standard_normal, Dmp};
use crate::request::AdRequest;
use crate::valuation::ValuationModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yav_nurl::fields::{NurlFields, NurlFieldsRef, PricePayload};
use yav_nurl::template;
use yav_nurl::url::Url;
use yav_types::{Adx, AuctionId, CampaignId, Cpm, DspId, ImpressionId, PriceVisibility};

/// A probing campaign's standing order: bid up to `max_bid` through `dsp`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeBid {
    /// The DSP executing the campaign.
    pub dsp: DspId,
    /// Budget-safeguard cap (the paper gave its DSP an upper bound on the
    /// bidding CPM, §5.3).
    pub max_bid: Cpm,
    /// The campaign the impressions book against.
    pub campaign: CampaignId,
}

/// What the campaign's performance report records for one won impression.
/// Crucially it contains the *true* charge price even on encrypted
/// channels — the buyer holds the decryption keys. This is exactly the
/// ground-truth channel the paper's probing campaigns exploit.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeWin {
    /// True charge price from the buyer-side report.
    pub charge: Cpm,
    /// How the browser-visible notification reported the price.
    pub visibility: PriceVisibility,
    /// The notification payload as emitted.
    pub fields: NurlFields,
    /// The notification URL the user's browser fired.
    pub nurl: Url,
}

/// One resolved auction, with simulator-side ground truth attached.
#[derive(Debug, Clone, PartialEq)]
pub struct AuctionOutcome {
    /// The winning bidder.
    pub winner: DspId,
    /// The winner's bid.
    pub bid: Cpm,
    /// Ground-truth charge price (second-highest bid, floored).
    pub charge: Cpm,
    /// Whether the notification carried the price encrypted.
    pub visibility: PriceVisibility,
    /// Typed notification payload.
    pub fields: NurlFields,
    /// The notification URL fired through the user's browser.
    pub nurl: Url,
}

/// Auction resolution.
#[derive(Debug, Clone, PartialEq)]
pub enum AuctionResult {
    /// Fewer than the required bids arrived; the slot goes to backfill
    /// (no RTB notification fires).
    NoSale,
    /// The slot sold; a notification fired.
    Sale(Box<AuctionOutcome>),
}

impl AuctionResult {
    /// The outcome, if the slot sold.
    pub fn sale(&self) -> Option<&AuctionOutcome> {
        match self {
            AuctionResult::Sale(o) => Some(o),
            AuctionResult::NoSale => None,
        }
    }
}

/// A resolved sale on the allocation-free path: everything the streaming
/// generator needs to book ground truth, with the notification URL already
/// rendered into the caller's buffer instead of materialised as
/// [`NurlFields`] + [`Url`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaleLite {
    /// The winning bidder.
    pub winner: DspId,
    /// The winner's bid.
    pub bid: Cpm,
    /// Ground-truth charge price (second-highest bid, floored).
    pub charge: Cpm,
    /// Whether the notification carried the price encrypted.
    pub visibility: PriceVisibility,
    /// Impression identifier.
    pub impression: ImpressionId,
    /// Auction identifier.
    pub auction: AuctionId,
}

/// Everything [`Market::resolve_core`] decides before the notification
/// payload takes shape — shared by the owned and borrowed emitters so the
/// RNG stream, id counters, IV counters and telemetry stay identical.
struct ResolvedCore {
    winner: DspId,
    winner_bid: Cpm,
    charge: Cpm,
    visibility: PriceVisibility,
    impression: ImpressionId,
    auction: AuctionId,
    campaign: Option<CampaignId>,
    latency_ms: u32,
    price: PricePayload,
}

/// Pre-resolved `auction.market.*` metric handles. Auctions run millions
/// of times per window; looking the handles up by name (and formatting
/// the per-exchange histogram name) on every call was both a registry
/// lock and a heap allocation on the hot path.
struct MarketMetrics {
    runs: yav_telemetry::Counter,
    no_sale: yav_telemetry::Counter,
    sold_encrypted: yav_telemetry::Counter,
    sold_cleartext: yav_telemetry::Counter,
    /// Wall time per resolved auction, for the bench's phase breakdown.
    time_us: yav_telemetry::Histogram,
    /// `auction.market.charge_cpm.{adx}`, indexed by [`Adx::index`].
    charge_cpm: [yav_telemetry::Histogram; 17],
}

impl MarketMetrics {
    fn resolve() -> MarketMetrics {
        MarketMetrics {
            runs: yav_telemetry::counter("auction.market.runs"),
            no_sale: yav_telemetry::counter("auction.market.no_sale"),
            sold_encrypted: yav_telemetry::counter("auction.market.sold_encrypted"),
            sold_cleartext: yav_telemetry::counter("auction.market.sold_cleartext"),
            time_us: yav_telemetry::histogram("auction.market.us"),
            charge_cpm: std::array::from_fn(|i| {
                // yav-lint: allow(alloc-in-gen-path) — per-shard metric-handle resolution
                yav_telemetry::histogram(&format!(
                    "auction.market.charge_cpm.{}",
                    // yav-lint: allow(alloc-in-gen-path) — per-shard metric-handle resolution
                    Adx::from_index(i).name().to_ascii_lowercase()
                ))
            }),
        }
    }
}

/// The shard-invariant market structure: DSP roster, integration matrix
/// (with its derived per-pair price keys), cached participation weight.
///
/// Building this is the expensive part of standing up a market — the
/// matrix derives two HMAC-SHA256 keys per (exchange, DSP) pair, which
/// at the default 17 × 60 roster costs milliseconds. It is also a pure
/// function of `config`, identical for every shard. The parallel world
/// builders therefore build one template per run and stamp per-shard
/// markets out of it with [`MarketTemplate::shard`]: a clone of the
/// shared structure (a memcpy of already-derived keys) plus the shard's
/// own randomness streams, id namespaces and scratch.
#[derive(Clone)]
pub struct MarketTemplate {
    config: MarketConfig,
    dsps: Vec<DspProfile>,
    total_weight: f64,
    integrations: IntegrationMatrix,
}

impl MarketTemplate {
    /// Builds the shared structure once from configuration.
    pub fn new(config: MarketConfig) -> MarketTemplate {
        let dsps = DspProfile::roster(config.n_dsps);
        let integrations = IntegrationMatrix::build(
            config.seed,
            &dsps,
            config.migration_rate_major,
            config.migration_rate_minor,
        );
        let total_weight = dsps.iter().map(|d| d.participation).sum();
        MarketTemplate {
            config,
            dsps,
            total_weight,
            integrations,
        }
    }

    /// Stamps the market for one logical shard — bit-for-bit the market
    /// `Market::new_shard(config, shard)` builds, without re-deriving
    /// the shared structure. Only the auction and DMP randomness streams
    /// derive from `(config.seed, shard)`, and auction/impression ids
    /// live in a per-shard namespace so merged streams never collide.
    pub fn shard(&self, shard: u64) -> Market {
        let config = self.config.clone();
        let mix = if shard == 0 {
            0
        } else {
            yav_exec::derive_seed(config.seed, shard)
        };
        let dmp = Dmp::new(
            config.seed ^ mix,
            config.whale_fraction,
            config.user_value_sigma,
        );
        let rng = StdRng::seed_from_u64(config.seed ^ 0x3A2B_0000_0000_0003 ^ mix);
        Market {
            config,
            dsps: self.dsps.clone(),
            total_weight: self.total_weight,
            dmp,
            integrations: self.integrations.clone(),
            rng,
            next_auction: shard << 32,
            next_impression: shard << 32,
            metrics: MarketMetrics::resolve(),
            // yav-lint: allow(alloc-in-gen-path) — per-shard bid scratch, reused across auctions
            participants: Vec::with_capacity(16),
            // yav-lint: allow(alloc-in-gen-path) — per-shard bid scratch, reused across auctions
            bids: Vec::with_capacity(16),
        }
    }
}

/// The deterministic RTB market.
pub struct Market {
    config: MarketConfig,
    dsps: Vec<DspProfile>,
    /// Cached `Σ participation` over the roster — invariant per market.
    total_weight: f64,
    dmp: Dmp,
    integrations: IntegrationMatrix,
    rng: StdRng,
    next_auction: u64,
    next_impression: u64,
    metrics: MarketMetrics,
    /// Scratch for the turnout draw, reused across auctions.
    participants: Vec<usize>,
    /// Scratch for the collected bids, reused across auctions.
    bids: Vec<(DspId, Cpm)>,
}

impl Market {
    /// Builds a market from configuration. Everything downstream is a
    /// pure function of `config` (including its seed).
    pub fn new(config: MarketConfig) -> Market {
        Market::new_shard(config, 0)
    }

    /// Builds one logical shard of the market, for the parallel world
    /// builders. World *structure* — the DSP roster, the integration
    /// matrix (and thus the Figure-2 encryption drift), the valuation
    /// model — is a function of `config` alone and identical across
    /// shards; only the auction and DMP randomness streams derive from
    /// `(config.seed, shard)`, and auction/impression ids live in a
    /// per-shard namespace so merged streams never collide. Shard 0 is
    /// bit-for-bit the market [`Market::new`] builds.
    pub fn new_shard(config: MarketConfig, shard: u64) -> Market {
        MarketTemplate::new(config).shard(shard)
    }

    /// The valuation model in force.
    pub fn valuation(&self) -> &ValuationModel {
        &self.config.valuation
    }

    /// The DMP (market-side user knowledge).
    pub fn dmp_mut(&mut self) -> &mut Dmp {
        &mut self.dmp
    }

    /// Fraction of integrations reporting encrypted at `time` (Figure 2).
    pub fn encrypted_pair_share(&self, time: yav_types::SimTime) -> f64 {
        self.integrations.encrypted_pair_share(time)
    }

    /// Runs one organic auction (no probing campaign involved).
    pub fn run_auction(&mut self, req: &AdRequest) -> AuctionResult {
        let (result, _) = self.resolve(req, None);
        result
    }

    /// Runs one auction with a probing campaign participating. The probe
    /// bids its cap (the dominant strategy under Vickrey rules); when it
    /// wins, the returned [`ProbeWin`] carries buyer-side ground truth.
    pub fn run_auction_with_probe(
        &mut self,
        req: &AdRequest,
        probe: &ProbeBid,
    ) -> (AuctionResult, Option<ProbeWin>) {
        self.resolve(req, Some(probe))
    }

    /// Runs one organic auction on the allocation-free path. The decision
    /// process — RNG stream, id/IV counters, telemetry — is shared with
    /// [`Market::run_auction`]; the only difference is the output shape:
    /// the notification URL is rendered straight into `nurl_out` (cleared
    /// first) and the sale comes back as a plain-old-data [`SaleLite`],
    /// so a resolved auction touches the heap only to grow reused
    /// buffers. `None` means no sale (backfill), in which case `nurl_out`
    /// is left cleared.
    pub fn run_auction_into(&mut self, req: &AdRequest, nurl_out: &mut String) -> Option<SaleLite> {
        nurl_out.clear();
        let core = self.resolve_core(req, None)?;
        let fields = NurlFieldsRef {
            adx: req.adx,
            dsp: core.winner,
            price: core.price,
            bid_price: Some(core.winner_bid),
            impression: core.impression,
            auction: core.auction,
            campaign: core.campaign,
            slot: Some(req.slot),
            publisher: Some(&req.publisher_name),
            country: Some("ES"),
            latency_ms: Some(core.latency_ms),
            ad_domain: None,
        };
        template::render_into(&fields, nurl_out);
        Some(SaleLite {
            winner: core.winner,
            bid: core.winner_bid,
            charge: core.charge,
            visibility: core.visibility,
            impression: core.impression,
            auction: core.auction,
        })
    }

    /// Core resolution: collect bids, apply Vickrey rules, emit the nURL.
    fn resolve(
        &mut self,
        req: &AdRequest,
        probe: Option<&ProbeBid>,
    ) -> (AuctionResult, Option<ProbeWin>) {
        let _span = yav_telemetry::span!("auction.market.run");
        let Some(core) = self.resolve_core(req, probe) else {
            return (AuctionResult::NoSale, None);
        };
        let fields = notification(
            core.winner,
            core.price,
            core.winner_bid,
            req,
            core.impression,
            core.auction,
            core.campaign,
            core.latency_ms,
        );
        let nurl = template::emit(&fields);

        let outcome = AuctionOutcome {
            winner: core.winner,
            bid: core.winner_bid,
            charge: core.charge,
            visibility: core.visibility,
            fields: fields.clone(),
            nurl: nurl.clone(),
        };

        let probe_win = probe.filter(|p| p.dsp == core.winner).map(|_| ProbeWin {
            charge: core.charge,
            visibility: core.visibility,
            fields,
            nurl,
        });

        // yav-lint: allow(alloc-in-gen-path) — owned emitter for run_auction_with_probe, the campaign ground-truth path; the streamed sink uses run_auction_into
        (AuctionResult::Sale(Box::new(outcome)), probe_win)
    }

    /// Everything up to (and including) price encoding: bid solicitation,
    /// Vickrey resolution, id assignment and telemetry. Both emitters
    /// call this, so their observable side effects are identical.
    fn resolve_core(&mut self, req: &AdRequest, probe: Option<&ProbeBid>) -> Option<ResolvedCore> {
        let _t = self.metrics.time_us.time_us();
        self.metrics.runs.inc();
        let user_value = self.dmp.user_value(req.user).factor;
        let mu_base = self.config.valuation.mu(req, user_value);

        // Which DSPs show up: a stable-sized panel of bidders drawn
        // without replacement, weighted by each profile's participation
        // propensity. Real exchanges solicit a fairly constant set of
        // integrated bidders per request; a Binomial turnout would inject
        // artificial second-price variance through the order statistic.
        // A DSP executing a probing campaign routes the campaign's bid
        // instead of its organic demand: one DSP, one bid per auction.
        // Without this, the probe's DSP could "win" with an uncapped
        // organic bid and the impression would book against the campaign
        // at a charge above its max-bid safeguard.
        let excluded = probe.map(|p| p.dsp);
        let eligible = self.dsps.len() - usize::from(excluded.is_some());
        let turnout = {
            let jitter = (self.rng.gen_range(0..3) as i64 - 1).max(-1);
            ((self.config.mean_bidders.round() as i64 + jitter).max(2) as usize).min(eligible)
        };
        self.participants.clear();
        while self.participants.len() < turnout {
            let mut x = self.rng.gen::<f64>() * self.total_weight;
            let mut pick = 0usize;
            for (i, d) in self.dsps.iter().enumerate() {
                x -= d.participation;
                if x <= 0.0 {
                    pick = i;
                    break;
                }
            }
            if Some(self.dsps[pick].id) == excluded {
                continue;
            }
            if !self.participants.contains(&pick) {
                self.participants.push(pick);
            }
        }

        self.bids.clear();
        for &pi in &self.participants {
            let dsp = &self.dsps[pi];
            // The confidential-channel premium (§2.3's explanation for
            // dearer encrypted prices). It is an *exchange-level*
            // phenomenon: encrypted-house exchanges host the high-value
            // confidential demand, so every bidder there values the
            // inventory up — which leaves relative competition unchanged
            // and lifts the clearing price by the premium. A bidder whose
            // individual integration migrated to encryption on a
            // cleartext exchange is hiding its strategy, not outbidding
            // the room: it gets only a small edge.
            let premium = if req.adx.house_style() == PriceVisibility::Encrypted {
                self.config.valuation.encrypted_factor(true).ln()
            } else {
                let migrated = self
                    .integrations
                    .get(req.adx, dsp.id)
                    .map(|i| i.visibility(req.time) == PriceVisibility::Encrypted)
                    .unwrap_or(false);
                if migrated {
                    1.15f64.ln()
                } else {
                    0.0
                }
            };
            let mu = mu_base + dsp.mu_offset + dsp.match_premium * req.interest_match + premium;
            let sigma = self.config.valuation.sigma(req);
            let bid = (mu + sigma * standard_normal(&mut self.rng)).exp();
            self.bids.push((dsp.id, Cpm::from_f64(bid)));
        }

        if let Some(p) = probe {
            self.bids.push((p.dsp, p.max_bid));
        }

        // Vickrey: winner pays max(second bid, floor).
        self.bids.sort_by_key(|&(_, bid)| std::cmp::Reverse(bid));
        if self.bids.is_empty() || (self.bids.len() == 1 && probe.is_none()) {
            // A lone organic bidder gets backfilled in our market: real
            // exchanges need competition or a deal floor; probing
            // campaigns however buy remnant inventory at the floor.
            if probe.is_none() {
                self.metrics.no_sale.inc();
                return None;
            }
        }
        let (winner, winner_bid) = self.bids[0];
        let second = self
            .bids
            .get(1)
            .map(|&(_, b)| b)
            .unwrap_or(self.config.floor);
        let charge = second.max(self.config.floor);

        let auction = AuctionId(self.next_auction);
        let impression = ImpressionId(self.next_impression);
        self.next_auction += 1;
        self.next_impression += 1;

        let campaign = probe.filter(|p| p.dsp == winner).map(|p| p.campaign);
        let latency_ms = self.rng.gen_range(40..220);

        let integration = self
            .integrations
            .get_mut(req.adx, winner)
            .expect("winner always has an integration on its exchange");
        let visibility = integration.visibility(req.time);
        self.metrics.charge_cpm[req.adx.index()].observe(charge.as_f64());
        match visibility {
            PriceVisibility::Encrypted => self.metrics.sold_encrypted.inc(),
            PriceVisibility::Cleartext => self.metrics.sold_cleartext.inc(),
        }
        let price = integration.encode_price(charge, req.time);

        Some(ResolvedCore {
            winner,
            winner_bid,
            charge,
            visibility,
            impression,
            auction,
            campaign,
            latency_ms,
            price,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yav_types::{
        AdSlotSize, Adx, City, DeviceType, IabCategory, InteractionType, Os, PublisherId, SimTime,
        UserId,
    };

    fn request(adx: Adx, time: SimTime) -> AdRequest {
        AdRequest {
            time,
            user: UserId(5),
            city: City::Madrid,
            os: Os::Android,
            device: DeviceType::Smartphone,
            interaction: InteractionType::MobileWeb,
            publisher: PublisherId(1),
            publisher_name: "elperiodico.example".into(),
            iab: IabCategory::News,
            slot: AdSlotSize::S300x250,
            adx,
            interest_match: 0.3,
        }
    }

    fn market() -> Market {
        Market::new(MarketConfig::default())
    }

    #[test]
    fn auctions_resolve_and_emit_parseable_nurls() {
        let mut m = market();
        let t = SimTime::from_ymd_hm(2015, 3, 10, 11, 0);
        let mut sales = 0;
        for i in 0..200 {
            let mut req = request(Adx::MoPub, t.plus_minutes(i));
            req.user = UserId(i as u32 % 20);
            if let AuctionResult::Sale(o) = m.run_auction(&req) {
                sales += 1;
                let parsed = template::parse(&o.nurl).unwrap().unwrap();
                assert_eq!(parsed, o.fields);
                assert!(o.charge <= o.bid, "charge price cannot exceed the bid");
                assert!(o.charge >= MarketConfig::default().floor);
            }
        }
        assert!(sales > 150, "most auctions should clear, got {sales}");
    }

    #[test]
    fn vickrey_charge_below_winner_bid() {
        let mut m = market();
        let t = SimTime::from_ymd_hm(2015, 6, 1, 10, 0);
        for i in 0..100 {
            let req = request(Adx::Adnxs, t.plus_minutes(i * 7));
            if let AuctionResult::Sale(o) = m.run_auction(&req) {
                assert!(o.charge <= o.bid);
            }
        }
    }

    #[test]
    fn encrypted_house_reports_encrypted() {
        let mut m = market();
        let t = SimTime::from_ymd_hm(2015, 2, 2, 9, 0);
        let req = request(Adx::DoubleClick, t);
        for _ in 0..20 {
            if let AuctionResult::Sale(o) = m.run_auction(&req) {
                assert_eq!(o.visibility, PriceVisibility::Encrypted);
                assert!(o.fields.price.encrypted().is_some());
            }
        }
    }

    #[test]
    fn probe_at_high_cap_wins_and_reports_truth() {
        let mut m = market();
        let t = SimTime::from_ymd_hm(2016, 5, 10, 10, 0);
        let probe = ProbeBid {
            dsp: DspId(2),
            max_bid: Cpm::from_whole(500),
            campaign: CampaignId(7),
        };
        let mut wins = 0;
        for i in 0..50 {
            let req = request(Adx::OpenX, t.plus_minutes(i * 3));
            let (result, win) = m.run_auction_with_probe(&req, &probe);
            let outcome = result.sale().expect("probe guarantees a sale");
            if let Some(w) = win {
                wins += 1;
                assert_eq!(outcome.charge, w.charge);
                assert_eq!(w.visibility, PriceVisibility::Encrypted);
                // The browser-visible nURL hides the price; the report has it.
                assert!(w.fields.price.encrypted().is_some());
                assert_eq!(w.fields.campaign, Some(CampaignId(7)));
            }
        }
        assert!(
            wins >= 48,
            "a 500-CPM cap should nearly always win, got {wins}"
        );
    }

    #[test]
    fn probe_charge_is_competitive_price_not_cap() {
        let mut m = market();
        let t = SimTime::from_ymd_hm(2016, 6, 1, 12, 0);
        let probe = ProbeBid {
            dsp: DspId(0),
            max_bid: Cpm::from_whole(1000),
            campaign: CampaignId(1),
        };
        let req = request(Adx::MoPub, t);
        let (_, win) = m.run_auction_with_probe(&req, &probe);
        let w = win.expect("cap of 1000 CPM wins");
        assert!(
            w.charge < Cpm::from_whole(100),
            "charge {} should reflect competition, not the cap",
            w.charge
        );
    }

    #[test]
    fn determinism_same_seed_same_outcomes() {
        let run = || {
            let mut m = market();
            let t = SimTime::from_ymd_hm(2015, 4, 4, 16, 0);
            (0..50)
                .filter_map(|i| {
                    m.run_auction(&request(Adx::MoPub, t.plus_minutes(i)))
                        .sale()
                        .map(|o| o.charge)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shard_zero_is_the_legacy_market() {
        let t = SimTime::from_ymd_hm(2015, 4, 4, 16, 0);
        let run = |mut m: Market| {
            (0..50)
                .filter_map(|i| {
                    m.run_auction(&request(Adx::MoPub, t.plus_minutes(i)))
                        .sale()
                        .map(|o| (o.charge, o.winner, o.fields.impression))
                })
                .collect::<Vec<_>>()
        };
        let legacy = run(Market::new(MarketConfig::default()));
        let shard0 = run(Market::new_shard(MarketConfig::default(), 0));
        assert_eq!(legacy, shard0);
    }

    #[test]
    fn shards_share_structure_but_not_randomness() {
        let t = SimTime::from_ymd_hm(2015, 4, 4, 16, 0);
        let m0 = Market::new_shard(MarketConfig::default(), 0);
        let m7 = Market::new_shard(MarketConfig::default(), 7);
        // Structure (the integration matrix's encryption drift) is shared…
        assert_eq!(m0.encrypted_pair_share(t), m7.encrypted_pair_share(t));
        // …while auction randomness and id namespaces are not.
        let charges = |mut m: Market| {
            (0..30)
                .filter_map(|i| {
                    m.run_auction(&request(Adx::MoPub, t.plus_minutes(i)))
                        .sale()
                        .map(|o| o.charge)
                })
                .collect::<Vec<_>>()
        };
        let ids = |mut m: Market| {
            m.run_auction(&request(Adx::MoPub, t))
                .sale()
                .map(|o| o.fields.impression)
                .unwrap()
        };
        assert_ne!(
            charges(Market::new_shard(MarketConfig::default(), 0)),
            charges(Market::new_shard(MarketConfig::default(), 7))
        );
        assert_eq!(ids(m7).0 >> 32, 7, "shard id namespace");
        assert_eq!(ids(m0).0 >> 32, 0);
    }

    #[test]
    fn borrowed_auction_path_matches_owned() {
        // Two identically-seeded markets, one driven through the owned
        // API and one through the allocation-free path: every outcome —
        // including the rendered nURL bytes — must agree.
        let t = SimTime::from_ymd_hm(2015, 4, 4, 16, 0);
        let mut owned = market();
        let mut borrowed = market();
        let mut buf = String::new();
        let mut sales = 0;
        for i in 0usize..200 {
            let mut req = request(Adx::from_index(i % 17), t.plus_minutes(i as i64 * 11));
            req.user = UserId(i as u32 % 20);
            let a = owned.run_auction(&req);
            let b = borrowed.run_auction_into(&req, &mut buf);
            match (a, b) {
                (AuctionResult::Sale(o), Some(s)) => {
                    sales += 1;
                    assert_eq!(buf, o.nurl.to_string(), "nURL bytes at {i}");
                    assert_eq!(s.winner, o.winner);
                    assert_eq!(s.bid, o.bid);
                    assert_eq!(s.charge, o.charge);
                    assert_eq!(s.visibility, o.visibility);
                    assert_eq!(s.impression, o.fields.impression);
                    assert_eq!(s.auction, o.fields.auction);
                }
                (AuctionResult::NoSale, None) => assert!(buf.is_empty()),
                (a, b) => panic!("divergent outcomes at {i}: {a:?} vs {b:?}"),
            }
        }
        assert!(sales > 150, "most auctions should clear, got {sales}");
    }

    #[test]
    fn app_traffic_clears_higher() {
        let mut m = market();
        let t = SimTime::from_ymd_hm(2015, 5, 5, 13, 0);
        let mut web = Vec::new();
        let mut app = Vec::new();
        for i in 0..2000 {
            let mut req = request(Adx::MoPub, t.plus_minutes(i % 300));
            req.user = UserId(i as u32 % 50);
            req.interaction = if i % 2 == 0 {
                InteractionType::MobileWeb
            } else {
                InteractionType::MobileApp
            };
            if let AuctionResult::Sale(o) = m.run_auction(&req) {
                if req.interaction == InteractionType::MobileWeb {
                    web.push(o.charge.as_f64());
                } else {
                    app.push(o.charge.as_f64());
                }
            }
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.total_cmp(b));
            v[v.len() / 2]
        };
        let (mw, ma) = (median(&mut web), median(&mut app));
        assert!(
            ma > 1.8 * mw,
            "app {ma:.3} should clear well above web {mw:.3}"
        );
    }

    #[test]
    fn encrypted_channel_clears_higher() {
        // §6.1's headline: encrypted prices ≈1.7× cleartext. Compare
        // MoPub (cleartext house) with DoubleClick (encrypted house) on
        // identical request streams.
        let mut m = market();
        let t = SimTime::from_ymd_hm(2015, 7, 7, 11, 0);
        let mut clear = Vec::new();
        let mut enc = Vec::new();
        for i in 0..3000 {
            let mut req = request(
                if i % 2 == 0 {
                    Adx::MoPub
                } else {
                    Adx::DoubleClick
                },
                t.plus_minutes(i % 500),
            );
            req.user = UserId(i as u32 % 100);
            if let AuctionResult::Sale(o) = m.run_auction(&req) {
                match o.visibility {
                    PriceVisibility::Cleartext => clear.push(o.charge.as_f64()),
                    PriceVisibility::Encrypted => enc.push(o.charge.as_f64()),
                }
            }
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.total_cmp(b));
            v[v.len() / 2]
        };
        let ratio = median(&mut enc) / median(&mut clear);
        assert!(
            (1.3..=2.3).contains(&ratio),
            "encrypted/cleartext median ratio {ratio:.2} should be near 1.7"
        );
    }
}
