//! The Table-4 feature catalogue: 288 features per detected impression.
//!
//! §5.1 reports 288 available features, grouped into semantically related
//! sets: A) time, B) http-related, C) advertisement-related, D)
//! DSP-related, E) publisher/host interests, F) user http statistics
//! (historical), G) user interests (historical), H) user locations
//! (historical). The schema below reconstructs a catalogue with exactly
//! that count and grouping; every feature is computable online from the
//! per-user and global state the analyzer maintains.

use crate::analyzer::DetectedImpression;
use crate::userstate::{GlobalState, UserState};
use std::sync::OnceLock;
use yav_types::{AdSlotSize, Adx, City, IabCategory};

/// Total number of features (§5.1: 288).
pub const FEATURE_COUNT: usize = 288;

/// The §5.1 feature groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureGroup {
    /// A — auction time.
    Time,
    /// B — http/transport facts of the notification.
    Http,
    /// C — advertisement (slot, exchange, campaign).
    Ad,
    /// D — DSP / bidder.
    Dsp,
    /// E — publisher and host interests.
    Publisher,
    /// F — user http statistics (historical).
    UserHttp,
    /// G — user interests (historical).
    UserInterests,
    /// H — user locations (historical).
    UserLocations,
}

/// Slot sizes indexable 0..19 for one-hots.
const SLOT_INDEX: [AdSlotSize; 19] = [
    AdSlotSize::S300x50,
    AdSlotSize::S320x50,
    AdSlotSize::S468x60,
    AdSlotSize::S200x200,
    AdSlotSize::S316x150,
    AdSlotSize::S728x90,
    AdSlotSize::S280x250,
    AdSlotSize::S120x600,
    AdSlotSize::S300x250,
    AdSlotSize::S336x280,
    AdSlotSize::S160x600,
    AdSlotSize::S800x130,
    AdSlotSize::S400x300,
    AdSlotSize::S320x480,
    AdSlotSize::S480x320,
    AdSlotSize::S300x600,
    AdSlotSize::S350x600,
    AdSlotSize::S768x1024,
    AdSlotSize::S1024x768,
];

/// Index of a slot in [`SLOT_INDEX`].
pub fn slot_index(slot: AdSlotSize) -> usize {
    SLOT_INDEX
        .iter()
        .position(|&s| s == slot)
        .expect("all sizes indexed")
}

/// Number of roster DSP domains given dedicated one-hot slots; everything
/// beyond maps to the shared "other" slot.
const DSP_ROSTER: usize = 12;

/// The named schema: feature names with their group, fixed order.
pub struct FeatureSchema {
    names: Vec<(&'static str, FeatureGroup, String)>,
}

impl FeatureSchema {
    /// The process-wide schema instance.
    pub fn get() -> &'static FeatureSchema {
        static SCHEMA: OnceLock<FeatureSchema> = OnceLock::new();
        SCHEMA.get_or_init(FeatureSchema::build)
    }

    fn build() -> FeatureSchema {
        use FeatureGroup::*;
        let mut names: Vec<(&'static str, FeatureGroup, String)> =
            Vec::with_capacity(FEATURE_COUNT);
        let mut push = |grp: FeatureGroup, name: String| names.push(("", grp, name));

        // A — time (52).
        for h in 0..24 {
            push(Time, format!("hour_{h:02}"));
        }
        for t in yav_types::TimeOfDay::ALL {
            push(Time, format!("tod_{}", t.label()));
        }
        for d in yav_types::DayOfWeek::ALL {
            push(Time, format!("dow_{d}"));
        }
        push(Time, "is_weekend".into());
        for m in yav_types::Month::ALL {
            push(Time, format!("month_{m}"));
        }
        push(Time, "day_of_month_norm".into());
        push(Time, "minutes_since_midnight".into());

        // B — http (12).
        for n in [
            "nurl_bytes",
            "nurl_duration_ms",
            "nurl_param_count",
            "nurl_latency_ms",
            "nurl_is_https",
            "nurl_host_len",
            "nurl_path_depth",
            "nurl_query_len",
            "nurl_has_bid_price",
            "nurl_has_size",
            "nurl_has_publisher",
            "nurl_token_len",
        ] {
            push(Http, n.into());
        }

        // C — advertisement (42).
        for s in SLOT_INDEX {
            push(Ad, format!("slot_{s}"));
        }
        push(Ad, "slot_width".into());
        push(Ad, "slot_height".into());
        push(Ad, "slot_area".into());
        push(Ad, "slot_aspect".into());
        push(Ad, "slot_month_share".into());
        for a in Adx::ALL {
            push(Ad, format!("adx_{a}"));
        }
        push(Ad, "campaign_popularity".into());

        // D — DSP (19).
        for i in 0..DSP_ROSTER {
            push(Dsp, format!("dsp_roster_{i}"));
        }
        push(Dsp, "dsp_other".into());
        for n in [
            "dsp_total_reqs",
            "dsp_total_bytes",
            "dsp_avg_duration_ms",
            "dsp_reqs_per_user",
            "dsp_users_reached",
            "dsp_encrypted_share",
        ] {
            push(Dsp, n.into());
        }

        // E — publisher/host interests (38).
        for c in IabCategory::ALL {
            push(Publisher, format!("pub_iab_{c}"));
        }
        push(Publisher, "pub_iab_unknown".into());
        push(Publisher, "pub_views".into());
        push(Publisher, "pub_impressions".into());
        push(Publisher, "pub_is_app".into());
        for b in 0..16 {
            push(Publisher, format!("pub_hash_{b:02}"));
        }

        // F — user http statistics (64).
        for n in [
            "u_requests",
            "u_bytes",
            "u_duration_ms",
            "u_avg_bytes_per_req",
            "u_avg_duration_per_req",
            "u_beacons",
            "u_cookie_syncs",
            "u_publishers",
            "u_app_share",
            "u_active_days",
            "u_reqs_per_day",
            "u_ads_seen",
            "u_clear_prices_seen",
            "u_encrypted_seen",
            "u_mean_clear_price",
            "u_std_clear_price",
        ] {
            push(UserHttp, n.into());
        }
        for h in 0..24 {
            push(UserHttp, format!("u_hourly_{h:02}"));
        }
        for d in yav_types::DayOfWeek::ALL {
            push(UserHttp, format!("u_daily_{d}"));
        }
        for a in Adx::ALL {
            push(UserHttp, format!("u_adx_imps_{a}"));
        }

        // G — user interests (37).
        for c in IabCategory::ALL {
            push(UserInterests, format!("u_interest_{c}"));
        }
        for c in IabCategory::ALL {
            push(UserInterests, format!("u_top_interest_{c}"));
        }
        push(UserInterests, "u_interest_match".into());

        // H — user locations (24).
        for c in City::ALL {
            push(UserLocations, format!("city_{c}"));
        }
        push(UserLocations, "city_unknown".into());
        for c in City::ALL {
            push(UserLocations, format!("u_city_share_{c}"));
        }
        push(UserLocations, "u_unique_cities".into());
        push(UserLocations, "city_log_population".into());
        push(UserLocations, "city_rank".into());

        assert_eq!(
            names.len(),
            FEATURE_COUNT,
            "schema must have exactly 288 features"
        );
        FeatureSchema { names }
    }

    /// Feature names in extraction order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(|(_, _, n)| n.as_str())
    }

    /// Number of features (always [`FEATURE_COUNT`]).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Group of a feature index.
    pub fn group_of(&self, idx: usize) -> FeatureGroup {
        self.names[idx].1
    }

    /// Name of a feature index.
    pub fn name_of(&self, idx: usize) -> &str {
        &self.names[idx].2
    }

    /// Column indices belonging to one group.
    pub fn group_indices(&self, group: FeatureGroup) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.group_of(i) == group)
            .collect()
    }
}

/// Transport facts about the notification request itself (group B inputs).
#[derive(Debug, Clone, Copy, Default)]
pub struct NurlTransport {
    /// Response bytes of the notification request.
    pub bytes: u32,
    /// Duration of the notification request (ms).
    pub duration_ms: u32,
    /// Number of query parameters.
    pub param_count: u32,
    /// Whether the notification travelled over https.
    pub https: bool,
    /// Host length in bytes.
    pub host_len: u32,
    /// Path depth (number of `/`-separated segments).
    pub path_depth: u32,
    /// Total query-string length (decoded).
    pub query_len: u32,
    /// Whether a bid price co-occurred.
    pub has_bid_price: bool,
    /// Whether a slot size was echoed.
    pub has_size: bool,
    /// Whether a publisher name was echoed.
    pub has_publisher: bool,
    /// Length of the encrypted token (0 for cleartext).
    pub token_len: u32,
}

/// Extracts the full 288-feature vector for one detected impression.
pub fn extract(
    meta: &DetectedImpression,
    transport: &NurlTransport,
    user: &UserState,
    global: &GlobalState,
) -> Vec<f64> {
    let mut f = Vec::with_capacity(FEATURE_COUNT);
    extract_into(&mut f, meta, transport, user, global);
    f
}

/// Like [`extract`], but writes into a caller-owned buffer so hot loops
/// (one vector per detected impression) can reuse a single allocation.
fn extract_into(
    out: &mut Vec<f64>,
    meta: &DetectedImpression,
    transport: &NurlTransport,
    user: &UserState,
    global: &GlobalState,
) {
    out.clear();
    out.reserve(FEATURE_COUNT);
    let f = out;
    let time = meta.time;

    // A — time.
    for h in 0..24u32 {
        f.push(if time.hour() == h { 1.0 } else { 0.0 });
    }
    for t in yav_types::TimeOfDay::ALL {
        f.push(if time.time_of_day() == t { 1.0 } else { 0.0 });
    }
    for d in yav_types::DayOfWeek::ALL {
        f.push(if time.day_of_week() == d { 1.0 } else { 0.0 });
    }
    f.push(if time.is_weekend() { 1.0 } else { 0.0 });
    for m in yav_types::Month::ALL {
        f.push(if time.month() == m { 1.0 } else { 0.0 });
    }
    f.push(time.ymd().2 as f64 / 31.0);
    f.push((time.minutes().rem_euclid(yav_types::MINUTES_PER_DAY)) as f64);

    // B — http.
    f.push(transport.bytes as f64);
    f.push(transport.duration_ms as f64);
    f.push(transport.param_count as f64);
    f.push(meta.latency_ms.unwrap_or(0) as f64);
    f.push(if transport.https { 1.0 } else { 0.0 });
    f.push(transport.host_len as f64);
    f.push(transport.path_depth as f64);
    f.push(transport.query_len as f64);
    f.push(if transport.has_bid_price { 1.0 } else { 0.0 });
    f.push(if transport.has_size { 1.0 } else { 0.0 });
    f.push(if transport.has_publisher { 1.0 } else { 0.0 });
    f.push(transport.token_len as f64);

    // C — advertisement.
    for s in SLOT_INDEX {
        f.push(if meta.slot == Some(s) { 1.0 } else { 0.0 });
    }
    let (w, h) = meta.slot.map(|s| s.dimensions()).unwrap_or((0, 0));
    f.push(w as f64);
    f.push(h as f64);
    f.push((w * h) as f64);
    f.push(if h > 0 { w as f64 / h as f64 } else { 0.0 });
    let month_bucket = GlobalState::month_bucket(time);
    let month_total: u64 = global.monthly_slots[month_bucket].iter().sum();
    let slot_share = match meta.slot {
        Some(s) if month_total > 0 => {
            global.monthly_slots[month_bucket][slot_index(s)] as f64 / month_total as f64
        }
        _ => 0.0,
    };
    f.push(slot_share);
    for a in Adx::ALL {
        f.push(if meta.adx == a { 1.0 } else { 0.0 });
    }
    let campaign_pop = meta
        .campaign_wire
        .as_ref()
        .and_then(|c| global.campaigns.get(c))
        .copied()
        .unwrap_or(0);
    f.push(campaign_pop as f64);

    // D — DSP.
    let dsp_domain = meta.dsp_domain.as_deref().unwrap_or("");
    let roster_idx = (0..DSP_ROSTER as u32).find(|&i| yav_types::DspId(i).domain() == dsp_domain);
    for i in 0..DSP_ROSTER {
        f.push(if roster_idx == Some(i as u32) {
            1.0
        } else {
            0.0
        });
    }
    f.push(if roster_idx.is_none() { 1.0 } else { 0.0 });
    let dsp_stats = global.dsps.get(dsp_domain);
    f.push(dsp_stats.map(|s| s.requests as f64).unwrap_or(0.0));
    f.push(dsp_stats.map(|s| s.bytes as f64).unwrap_or(0.0));
    f.push(
        dsp_stats
            .map(|s| {
                if s.requests > 0 {
                    s.duration_ms as f64 / s.requests as f64
                } else {
                    0.0
                }
            })
            .unwrap_or(0.0),
    );
    f.push(global.dsp_avg_reqs_per_user(dsp_domain));
    f.push(dsp_stats.map(|s| s.users.len() as f64).unwrap_or(0.0));
    f.push(
        dsp_stats
            .map(|s| {
                if s.requests > 0 {
                    s.encrypted as f64 / s.requests as f64
                } else {
                    0.0
                }
            })
            .unwrap_or(0.0),
    );

    // E — publisher.
    for c in IabCategory::ALL {
        f.push(if meta.iab == Some(c) { 1.0 } else { 0.0 });
    }
    f.push(if meta.iab.is_none() { 1.0 } else { 0.0 });
    let pub_name = meta.publisher.as_deref().unwrap_or("");
    f.push(global.publisher_views.get(pub_name).copied().unwrap_or(0) as f64);
    f.push(global.publisher_imps.get(pub_name).copied().unwrap_or(0) as f64);
    f.push(if pub_name.starts_with("com.") {
        1.0
    } else {
        0.0
    });
    let hash = fxhash(pub_name) % 16;
    for b in 0..16u64 {
        f.push(if hash == b { 1.0 } else { 0.0 });
    }

    // F — user http statistics.
    let reqs = user.requests.max(1) as f64;
    let days = user.active_days.len().max(1) as f64;
    let ads_seen = user.clear_prices.0 + user.encrypted_seen;
    f.push(user.requests as f64);
    f.push(user.bytes as f64);
    f.push(user.duration_ms as f64);
    f.push(user.bytes as f64 / reqs);
    f.push(user.duration_ms as f64 / reqs);
    f.push(user.beacons as f64);
    f.push(user.cookie_syncs as f64);
    f.push(user.publishers.len() as f64);
    f.push(user.app_requests as f64 / reqs);
    f.push(user.active_days.len() as f64);
    f.push(user.requests as f64 / days);
    f.push(ads_seen as f64);
    f.push(user.clear_prices.0 as f64);
    f.push(user.encrypted_seen as f64);
    let mean_price = user.mean_clear_price();
    f.push(if mean_price.is_finite() {
        mean_price
    } else {
        0.0
    });
    f.push(user.std_clear_price());
    for h in 0..24 {
        f.push(user.hourly[h] as f64 / reqs);
    }
    for d in 0..7 {
        f.push(user.daily[d] as f64 / reqs);
    }
    for a in Adx::ALL {
        f.push(user.adx_impressions[a.index()] as f64);
    }

    // G — user interests.
    let profile = user.interest_profile();
    for p in profile {
        f.push(p);
    }
    let top = profile
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, &w)| if w > 0.0 { Some(i) } else { None })
        .unwrap_or(None);
    for (i, _) in IabCategory::ALL.iter().enumerate() {
        f.push(if top == Some(i) { 1.0 } else { 0.0 });
    }
    f.push(meta.iab.map(|c| profile[c.index()]).unwrap_or(0.0));

    // H — user locations.
    for c in City::ALL {
        f.push(if meta.city == Some(c) { 1.0 } else { 0.0 });
    }
    f.push(if meta.city.is_none() { 1.0 } else { 0.0 });
    let city_total: u64 = user.city_counts.iter().sum();
    for i in 0..10 {
        f.push(if city_total > 0 {
            user.city_counts[i] as f64 / city_total as f64
        } else {
            0.0
        });
    }
    f.push(user.cities.len() as f64);
    f.push(
        meta.city
            .map(|c| (c.population() as f64).ln())
            .unwrap_or(0.0),
    );
    f.push(meta.city.map(|c| c.index() as f64).unwrap_or(10.0));

    debug_assert_eq!(f.len(), FEATURE_COUNT);
}

/// A tiny deterministic string hash (FxHash-style) for bucket features.
fn fxhash(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Returns true if a feature row could plausibly come from [`extract`]:
/// right length, all finite. Used by downstream validation.
pub fn validate_row(row: &[f64]) -> bool {
    row.len() == FEATURE_COUNT && row.iter().all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use yav_types::{Cpm, PriceVisibility, SimTime};

    fn meta() -> DetectedImpression {
        DetectedImpression {
            time: SimTime::from_ymd_hm(2015, 6, 15, 10, 30),
            user: yav_types::UserId(3),
            adx: Adx::MoPub,
            dsp_domain: Some("mediamath.com".into()),
            visibility: PriceVisibility::Cleartext,
            cleartext_cpm: Some(Cpm::from_f64(0.8)),
            encrypted_token_wire: None,
            slot: Some(AdSlotSize::S300x250),
            publisher: Some("minoticias3.example".into()),
            iab: Some(IabCategory::News),
            city: Some(City::Madrid),
            os: yav_types::Os::Android,
            device: yav_types::DeviceType::Smartphone,
            interaction: yav_types::InteractionType::MobileWeb,
            campaign_wire: None,
            latency_ms: Some(120),
        }
    }

    #[test]
    fn schema_is_exactly_288() {
        let s = FeatureSchema::get();
        assert_eq!(s.len(), FEATURE_COUNT);
        assert_eq!(s.names().count(), 288);
        // Names are unique.
        let set: std::collections::HashSet<&str> = s.names().collect();
        assert_eq!(set.len(), 288);
    }

    #[test]
    fn groups_partition_the_schema() {
        use FeatureGroup::*;
        let s = FeatureSchema::get();
        let total: usize = [
            Time,
            Http,
            Ad,
            Dsp,
            Publisher,
            UserHttp,
            UserInterests,
            UserLocations,
        ]
        .iter()
        .map(|&g| s.group_indices(g).len())
        .sum();
        assert_eq!(total, 288);
        assert_eq!(s.group_indices(Time).len(), 52);
        assert_eq!(s.group_indices(Http).len(), 12);
        assert_eq!(s.group_indices(Ad).len(), 42);
        assert_eq!(s.group_indices(Dsp).len(), 19);
        assert_eq!(s.group_indices(Publisher).len(), 38);
        assert_eq!(s.group_indices(UserHttp).len(), 64);
        assert_eq!(s.group_indices(UserInterests).len(), 37);
        assert_eq!(s.group_indices(UserLocations).len(), 24);
    }

    #[test]
    fn extract_matches_schema_length_and_is_finite() {
        let user = UserState::new();
        let global = GlobalState::default();
        let row = extract(&meta(), &NurlTransport::default(), &user, &global);
        assert!(validate_row(&row));
    }

    #[test]
    fn extract_into_reuses_buffer_and_matches_extract() {
        let user = UserState::new();
        let global = GlobalState::default();
        let fresh = extract(&meta(), &NurlTransport::default(), &user, &global);
        let mut reused = vec![f64::NAN; 7]; // stale junk from a previous row
        extract_into(
            &mut reused,
            &meta(),
            &NurlTransport::default(),
            &user,
            &global,
        );
        assert_eq!(reused, fresh);
        // A second pass through the same buffer must not grow it.
        let cap = reused.capacity();
        extract_into(
            &mut reused,
            &meta(),
            &NurlTransport::default(),
            &user,
            &global,
        );
        assert_eq!(reused.capacity(), cap);
        assert_eq!(reused, fresh);
    }

    #[test]
    fn one_hots_fire_correctly() {
        let user = UserState::new();
        let global = GlobalState::default();
        let row = extract(&meta(), &NurlTransport::default(), &user, &global);
        let s = FeatureSchema::get();
        let by_name = |n: &str| {
            let i = (0..s.len())
                .find(|&i| s.name_of(i) == n)
                .unwrap_or_else(|| panic!("{n}"));
            row[i]
        };
        assert_eq!(by_name("hour_10"), 1.0);
        assert_eq!(by_name("hour_11"), 0.0);
        assert_eq!(by_name("dow_Monday"), 1.0); // 2015-06-15 was a Monday
        assert_eq!(by_name("month_June"), 1.0);
        assert_eq!(by_name("slot_300x250"), 1.0);
        assert_eq!(by_name("adx_MoPub"), 1.0);
        assert_eq!(by_name("adx_OpenX"), 0.0);
        assert_eq!(by_name("dsp_roster_0"), 1.0); // mediamath.com is DspId(0)
        assert_eq!(by_name("pub_iab_IAB12"), 1.0);
        assert_eq!(by_name("city_Madrid"), 1.0);
        assert_eq!(by_name("city_unknown"), 0.0);
        assert_eq!(by_name("slot_width"), 300.0);
        assert_eq!(by_name("slot_height"), 250.0);
        assert_eq!(by_name("nurl_latency_ms"), 120.0);
    }

    #[test]
    fn user_history_reflected() {
        let mut user = UserState::new();
        user.record_publisher("a.example", Some(IabCategory::News));
        user.record_publisher("b.example", Some(IabCategory::News));
        user.record_publisher("c.example", Some(IabCategory::Sports));
        user.record_impression(Adx::MoPub, Some(2.0));
        let global = GlobalState::default();
        let row = extract(&meta(), &NurlTransport::default(), &user, &global);
        let s = FeatureSchema::get();
        let by_name = |n: &str| {
            let i = (0..s.len()).find(|&i| s.name_of(i) == n).unwrap();
            row[i]
        };
        assert!((by_name("u_interest_IAB12") - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(by_name("u_top_interest_IAB12"), 1.0);
        assert!((by_name("u_interest_match") - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(by_name("u_publishers"), 3.0);
        assert_eq!(by_name("u_mean_clear_price"), 2.0);
    }

    #[test]
    fn missing_metadata_is_survivable() {
        let mut m = meta();
        m.slot = None;
        m.publisher = None;
        m.iab = None;
        m.city = None;
        m.dsp_domain = None;
        m.latency_ms = None;
        let row = extract(
            &m,
            &NurlTransport::default(),
            &UserState::new(),
            &GlobalState::default(),
        );
        assert!(validate_row(&row));
        let s = FeatureSchema::get();
        let by_name = |n: &str| {
            let i = (0..s.len()).find(|&i| s.name_of(i) == n).unwrap();
            row[i]
        };
        assert_eq!(by_name("pub_iab_unknown"), 1.0);
        assert_eq!(by_name("city_unknown"), 1.0);
        assert_eq!(by_name("dsp_other"), 1.0);
        assert_eq!(by_name("slot_area"), 0.0);
    }
}
