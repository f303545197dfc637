//! The market: Vickrey auctions end to end.
//!
//! [`Market`] wires the DSP roster, the DMP, the integration matrix and
//! the valuation model into a single deterministic auction engine. One
//! call to [`Market::run_auction`] plays out steps 3–7 of the paper's
//! Figure 1: bid solicitation, second-price resolution, charge-price
//! computation and notification-URL emission into the caller's buffer.
//! It serves both buyers of the simulation: the weblog's organic slots
//! pass no probe, and a probing campaign passes its [`ProbeBid`] and
//! reads the true charge from the returned [`Sale`].

use crate::config::MarketConfig;
use crate::dsp::DspProfile;
use crate::exchange::IntegrationMatrix;
use crate::profile::{standard_normal, Dmp};
use crate::request::AdRequest;
use crate::valuation::ValuationModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use yav_nurl::fields::{NurlFieldsRef, PricePayload};
use yav_nurl::template;
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

/// A resolved sale, with simulator-side ground truth attached; the
/// notification URL the browser fires goes into the caller's buffer.
/// The charge is the *true* price even on encrypted channels — the buyer
/// holds the decryption keys, which is exactly the ground-truth channel
/// the paper's probing campaigns exploit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sale {
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

/// Everything [`Market::resolve_core`] decides: the sale itself plus
/// the notification fields that only the rendered URL carries.
struct ResolvedCore {
    sale: Sale,
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
            charge_cpm: std::array::from_fn(|i| {
                // yav-lint: allow(alloc-in-gen-path) — metric-handle resolution, once per template
                yav_telemetry::histogram(&format!(
                    "auction.market.charge_cpm.{}",
                    // yav-lint: allow(alloc-in-gen-path) — metric-handle resolution, once per template
                    Adx::from_index(i).name().to_ascii_lowercase()
                ))
            }),
        }
    }
}

/// What every market stamped from one [`MarketTemplate`] shares.
struct Shared {
    config: MarketConfig,
    dsps: Vec<DspProfile>,
    /// Cached `Σ participation` over the roster.
    total_weight: f64,
    integrations: IntegrationMatrix,
    metrics: MarketMetrics,
}

/// The shard-invariant market structure: configuration, DSP roster,
/// cached participation weight, integration matrix (with its derived
/// per-pair price keys) and the resolved `auction.market.*` handles.
///
/// Building this is the expensive part of standing up a market — the
/// matrix derives two HMAC-SHA256 keys per (exchange, DSP) pair, which
/// at the default 17 × 60 roster costs milliseconds. It is also a pure
/// function of `config`, identical for every shard. The parallel world
/// builders therefore build one template per run and stamp per-shard
/// markets out of it with [`MarketTemplate::shard`]: every shard shares
/// the structure behind one `Arc` and owns only its randomness streams,
/// id namespaces and scratch.
#[derive(Clone)]
pub struct MarketTemplate {
    shared: Arc<Shared>,
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
            shared: Arc::new(Shared {
                config,
                dsps,
                total_weight,
                integrations,
                metrics: MarketMetrics::resolve(),
            }),
        }
    }

    /// Stamps the market for one logical shard — bit-for-bit the market
    /// `Market::new_shard(config, shard)` builds, without re-deriving
    /// the shared structure. Only the auction and DMP randomness streams
    /// derive from `(config.seed, shard)`, and auction/impression ids
    /// live in a per-shard namespace so merged streams never collide.
    pub fn shard(&self, shard: u64) -> Market {
        let config = &self.shared.config;
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
            shared: Arc::clone(&self.shared),
            dmp,
            rng,
            next_auction: shard << 32,
            next_impression: shard << 32,
            // yav-lint: allow(alloc-in-gen-path) — per-shard bid scratch, reused across auctions
            participants: Vec::with_capacity(16),
            // yav-lint: allow(alloc-in-gen-path) — per-shard bid scratch, reused across auctions
            bids: Vec::with_capacity(16),
        }
    }
}

/// The deterministic RTB market.
pub struct Market {
    shared: Arc<Shared>,
    dmp: Dmp,
    rng: StdRng,
    next_auction: u64,
    next_impression: u64,
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
        &self.shared.config.valuation
    }

    /// The DMP (market-side user knowledge).
    pub fn dmp_mut(&mut self) -> &mut Dmp {
        &mut self.dmp
    }

    /// Fraction of integrations reporting encrypted at `time` (Figure 2).
    pub fn encrypted_pair_share(&self, time: yav_types::SimTime) -> f64 {
        self.shared.integrations.encrypted_pair_share(time)
    }

    /// Runs one auction and renders its notification URL into
    /// `nurl_out` (cleared first), so a resolved auction touches the heap
    /// only to grow reused buffers. `None` means no sale (backfill), in
    /// which case `nurl_out` is left cleared.
    ///
    /// Organic slots pass no `probe`. A probing campaign passes its
    /// standing order: the probe bids its cap (the dominant strategy
    /// under Vickrey rules) and the impression books against the
    /// campaign exactly when `sale.winner == probe.dsp`.
    pub fn run_auction(
        &mut self,
        req: &AdRequest,
        probe: Option<&ProbeBid>,
        nurl_out: &mut String,
    ) -> Option<Sale> {
        nurl_out.clear();
        let core = self.resolve_core(req, probe)?;
        let sale = core.sale;
        let fields = NurlFieldsRef {
            adx: req.adx,
            dsp: sale.winner,
            price: core.price,
            bid_price: Some(sale.bid),
            impression: sale.impression,
            auction: sale.auction,
            campaign: core.campaign,
            slot: Some(req.slot),
            publisher: Some(&req.publisher_name),
            country: Some("ES"),
            latency_ms: Some(core.latency_ms),
            ad_domain: None,
        };
        template::render_into(&fields, nurl_out);
        Some(sale)
    }

    /// Everything up to (and including) price encoding: bid solicitation,
    /// Vickrey resolution, id assignment and telemetry.
    fn resolve_core(&mut self, req: &AdRequest, probe: Option<&ProbeBid>) -> Option<ResolvedCore> {
        let Shared {
            config,
            dsps,
            total_weight,
            integrations,
            metrics,
        } = &*self.shared;
        let _span = yav_telemetry::span!("auction.market");
        metrics.runs.inc();
        let user_value = self.dmp.user_value(req.user).factor;
        let mu_base = config.valuation.mu(req, user_value);

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
        let eligible = dsps.len() - usize::from(excluded.is_some());
        let turnout = {
            let jitter = (self.rng.gen_range(0..3) as i64 - 1).max(-1);
            ((config.mean_bidders.round() as i64 + jitter).max(2) as usize).min(eligible)
        };
        self.participants.clear();
        while self.participants.len() < turnout {
            let mut x = self.rng.gen::<f64>() * total_weight;
            let mut pick = 0usize;
            for (i, d) in dsps.iter().enumerate() {
                x -= d.participation;
                if x <= 0.0 {
                    pick = i;
                    break;
                }
            }
            if Some(dsps[pick].id) == excluded {
                continue;
            }
            if !self.participants.contains(&pick) {
                self.participants.push(pick);
            }
        }

        self.bids.clear();
        for &pi in &self.participants {
            let dsp = &dsps[pi];
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
                config.valuation.encrypted_factor(true).ln()
            } else {
                let migrated = integrations
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
            let sigma = config.valuation.sigma(req);
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
                metrics.no_sale.inc();
                return None;
            }
        }
        let (winner, winner_bid) = self.bids[0];
        let second = self.bids.get(1).map(|&(_, b)| b).unwrap_or(config.floor);
        let charge = second.max(config.floor);

        let auction = AuctionId(self.next_auction);
        let impression = ImpressionId(self.next_impression);
        self.next_auction += 1;
        self.next_impression += 1;

        let campaign = probe.filter(|p| p.dsp == winner).map(|p| p.campaign);
        let latency_ms = self.rng.gen_range(40..220);

        let integration = integrations
            .get(req.adx, winner)
            .expect("winner always has an integration on its exchange");
        let visibility = integration.visibility(req.time);
        metrics.charge_cpm[req.adx.index()].observe(charge.as_f64());
        match visibility {
            PriceVisibility::Encrypted => metrics.sold_encrypted.inc(),
            PriceVisibility::Cleartext => metrics.sold_cleartext.inc(),
        }
        let price = integration.encode_price(charge, req.time, impression);

        Some(ResolvedCore {
            sale: Sale {
                winner,
                bid: winner_bid,
                charge,
                visibility,
                impression,
                auction,
            },
            campaign,
            latency_ms,
            price,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yav_nurl::fields::NurlFields;
    use yav_nurl::{UrlRef, UrlScratch};
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

    /// Parses a rendered notification the way the monitor does: screen
    /// the host, split the URL, read the exchange's template fields.
    fn parse(nurl: &str) -> NurlFields {
        let adx = yav_nurl::screen_adx(nurl).expect("an exchange host");
        let url = UrlRef::parse(nurl).expect("a well-formed URL");
        let mut scratch = UrlScratch::new();
        template::parse_borrowed_screened(adx, &url, &mut scratch)
            .expect("a well-formed payload")
            .expect("a notification")
            .to_owned_fields()
    }

    #[test]
    fn auctions_resolve_and_emit_parseable_nurls() {
        // Organic and probe auctions on every exchange: each rendered
        // buffer must carry every field the sale decided.
        let t = SimTime::from_ymd_hm(2015, 4, 4, 16, 0);
        let mut m = market();
        let probe = ProbeBid {
            dsp: DspId(3),
            max_bid: Cpm::from_whole(1),
            campaign: CampaignId(9),
        };
        let mut buf = String::new();
        let (mut sales, mut mopub_sales, mut probe_wins, mut probe_losses) = (0, 0, 0, 0);
        for i in 0usize..300 {
            let mut req = request(Adx::from_index(i % 17), t.plus_minutes(i as i64 * 11));
            req.user = UserId(i as u32 % 20);
            let probe = (i % 3 == 0).then_some(&probe);
            let Some(sale) = m.run_auction(&req, probe, &mut buf) else {
                assert!(probe.is_none(), "a probe always clears");
                assert!(buf.is_empty(), "no sale leaves the buffer empty");
                continue;
            };
            sales += 1;
            assert!(
                sale.charge <= sale.bid,
                "charge price cannot exceed the bid"
            );
            assert!(sale.charge >= MarketConfig::default().floor);
            let f = parse(&buf);
            assert_eq!(f.adx, req.adx);
            assert_eq!(f.dsp, sale.winner);
            assert_eq!(f.price.visibility(), sale.visibility);
            match sale.visibility {
                PriceVisibility::Cleartext => assert_eq!(f.price.cleartext(), Some(sale.charge)),
                PriceVisibility::Encrypted => assert!(f.price.encrypted().is_some()),
            }
            assert_eq!(f.impression, sale.impression);
            assert_eq!(f.auction, sale.auction);
            let probe_won = probe.is_some_and(|p| p.dsp == sale.winner);
            assert_eq!(f.campaign, probe_won.then_some(CampaignId(9)), "at {i}");
            match probe {
                Some(_) if probe_won => probe_wins += 1,
                Some(_) => probe_losses += 1,
                None => {}
            }
            // The bid echo and the slot/publisher/country/latency metadata
            // ride only where the exchange's template carries them, and
            // MoPub's carries them all.
            if req.adx == Adx::MoPub {
                mopub_sales += 1;
                assert!(
                    f.bid_price.is_some()
                        && f.slot.is_some()
                        && f.publisher.is_some()
                        && f.country.is_some()
                        && f.latency_ms.is_some(),
                    "MoPub echoes every field: {buf}"
                );
            }
            assert!(f.bid_price.is_none_or(|b| b == sale.bid));
            assert!(f.slot.is_none_or(|s| s == req.slot));
            assert!(f.publisher.is_none_or(|p| p == "elperiodico.example"));
            assert!(f.country.is_none_or(|c| c == "ES"));
            assert!(f.latency_ms.is_none_or(|ms| (40..220).contains(&ms)));
        }
        assert!(sales > 225, "most auctions should clear, got {sales}");
        assert!(mopub_sales > 0);
        assert!(
            probe_wins > 0 && probe_losses > 0,
            "{probe_wins} / {probe_losses}"
        );

        // A lone bidder has no competition: the slot goes to backfill and
        // the previous sale's URL does not survive in the buffer.
        assert!(!buf.is_empty());
        let mut lone = Market::new(MarketConfig {
            n_dsps: 1,
            ..MarketConfig::default()
        });
        assert_eq!(
            lone.run_auction(&request(Adx::MoPub, t), None, &mut buf),
            None
        );
        assert!(buf.is_empty());
    }

    #[test]
    fn vickrey_charge_below_winner_bid() {
        let mut m = market();
        let mut buf = String::new();
        let t = SimTime::from_ymd_hm(2015, 6, 1, 10, 0);
        for i in 0..100 {
            let req = request(Adx::Adnxs, t.plus_minutes(i * 7));
            if let Some(s) = m.run_auction(&req, None, &mut buf) {
                assert!(s.charge <= s.bid);
            }
        }
    }

    #[test]
    fn encrypted_house_reports_encrypted() {
        let mut m = market();
        let mut buf = String::new();
        let t = SimTime::from_ymd_hm(2015, 2, 2, 9, 0);
        let req = request(Adx::DoubleClick, t);
        for _ in 0..20 {
            if let Some(s) = m.run_auction(&req, None, &mut buf) {
                assert_eq!(s.visibility, PriceVisibility::Encrypted);
                assert!(parse(&buf).price.encrypted().is_some());
            }
        }
    }

    #[test]
    fn probe_at_high_cap_wins_and_reports_truth() {
        let mut m = market();
        let mut buf = String::new();
        let t = SimTime::from_ymd_hm(2016, 5, 10, 10, 0);
        let probe = ProbeBid {
            dsp: DspId(2),
            max_bid: Cpm::from_whole(500),
            campaign: CampaignId(7),
        };
        let mut wins = 0;
        for i in 0..50 {
            let req = request(Adx::OpenX, t.plus_minutes(i * 3));
            let sale = m
                .run_auction(&req, Some(&probe), &mut buf)
                .expect("probe guarantees a sale");
            if sale.winner == probe.dsp {
                wins += 1;
                assert_eq!(sale.visibility, PriceVisibility::Encrypted);
                // The browser-visible nURL hides the price; the report has it.
                let f = parse(&buf);
                assert!(f.price.encrypted().is_some());
                assert_eq!(f.campaign, Some(CampaignId(7)));
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
        let w = m
            .run_auction(&req, Some(&probe), &mut String::new())
            .filter(|s| s.winner == probe.dsp)
            .expect("cap of 1000 CPM wins");
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
            let mut buf = String::new();
            let t = SimTime::from_ymd_hm(2015, 4, 4, 16, 0);
            (0..50)
                .filter_map(|i| {
                    m.run_auction(&request(Adx::MoPub, t.plus_minutes(i)), None, &mut buf)
                        .map(|s| s.charge)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shard_zero_is_the_legacy_market() {
        let t = SimTime::from_ymd_hm(2015, 4, 4, 16, 0);
        let run = |mut m: Market| {
            let mut buf = String::new();
            (0..50)
                .filter_map(|i| {
                    m.run_auction(&request(Adx::MoPub, t.plus_minutes(i)), None, &mut buf)
                        .map(|s| (s.charge, s.winner, parse(&buf).impression))
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
            let mut buf = String::new();
            (0..30)
                .filter_map(|i| {
                    m.run_auction(&request(Adx::MoPub, t.plus_minutes(i)), None, &mut buf)
                        .map(|s| s.charge)
                })
                .collect::<Vec<_>>()
        };
        let ids = |mut m: Market| {
            let mut buf = String::new();
            m.run_auction(&request(Adx::MoPub, t), None, &mut buf)
                .unwrap();
            parse(&buf).impression
        };
        assert_ne!(
            charges(Market::new_shard(MarketConfig::default(), 0)),
            charges(Market::new_shard(MarketConfig::default(), 7))
        );
        assert_eq!(ids(m7).0 >> 32, 7, "shard id namespace");
        assert_eq!(ids(m0).0 >> 32, 0);
    }

    #[test]
    fn stamped_shards_never_reuse_an_iv() {
        // Every shard shares the template's integrations and keys, so an
        // IV must never repeat across shards either: it carries the
        // impression id, whose namespace is the shard.
        let t = SimTime::from_ymd_hm(2015, 4, 4, 16, 0);
        let template = MarketTemplate::new(MarketConfig::default());
        let mut buf = String::new();
        let mut ivs = std::collections::HashSet::new();
        for s in 0..8 {
            let mut m = template.shard(s);
            for i in 0..40usize {
                let adx = Adx::ENCRYPTED_TARGETS[i % Adx::ENCRYPTED_TARGETS.len()];
                let mut req = request(adx, t.plus_minutes(i as i64));
                req.user = UserId(i as u32 % 7);
                if m.run_auction(&req, None, &mut buf).is_some() {
                    let price = parse(&buf).price;
                    let token = price.encrypted().expect("an encrypted house");
                    assert!(ivs.insert(token.iv().to_vec()), "IV repeated on shard {s}");
                }
            }
        }
        assert!(ivs.len() > 300, "{} encrypted sales", ivs.len());
    }

    #[test]
    fn interleaved_stamps_match_markets_built_alone() {
        // Shards stamped from one template share its structure; running
        // them interleaved must render exactly what each renders alone.
        let t = SimTime::from_ymd_hm(2015, 9, 1, 8, 0);
        let req = |i: usize| {
            let mut req = request(Adx::from_index(i % 17), t.plus_minutes(i as i64 * 5));
            req.user = UserId(i as u32 % 11);
            req
        };
        let alone = |s: u64| {
            let mut m = Market::new_shard(MarketConfig::default(), s);
            let mut buf = String::new();
            (0..120)
                .map(|i| {
                    m.run_auction(&req(i), None, &mut buf);
                    buf.clone()
                })
                .collect::<Vec<_>>()
        };
        let template = MarketTemplate::new(MarketConfig::default());
        let (mut m3, mut m7) = (template.shard(3), template.shard(7));
        let (mut b3, mut b7) = (Vec::new(), Vec::new());
        let mut buf = String::new();
        for i in 0..120 {
            m3.run_auction(&req(i), None, &mut buf);
            b3.push(buf.clone());
            m7.run_auction(&req(i), None, &mut buf);
            b7.push(buf.clone());
        }
        assert!(b3.iter().any(|u| parse(u).price.encrypted().is_some()));
        assert_eq!(b3, alone(3));
        assert_eq!(b7, alone(7));
    }

    #[test]
    fn app_traffic_clears_higher() {
        let mut m = market();
        let mut buf = String::new();
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
            if let Some(s) = m.run_auction(&req, None, &mut buf) {
                if req.interaction == InteractionType::MobileWeb {
                    web.push(s.charge.as_f64());
                } else {
                    app.push(s.charge.as_f64());
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
        let mut buf = String::new();
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
            if let Some(s) = m.run_auction(&req, None, &mut buf) {
                match s.visibility {
                    PriceVisibility::Cleartext => clear.push(s.charge.as_f64()),
                    PriceVisibility::Encrypted => enc.push(s.charge.as_f64()),
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
