//! Per-user evolving state for online feature extraction.
//!
//! Table 4's "user" features are all *historical* aggregates — counts of
//! requests, beacons, cookie syncs, publishers, bytes, durations, the
//! interest profile inferred from browsing so far. [`UserState`] folds
//! each request in O(1) and can be snapshotted whenever an impression
//! needs a feature vector.

use std::collections::{BTreeMap, BTreeSet};
use yav_types::{Adx, City, IabCategory};

/// The analyzer's running knowledge about one user.
#[derive(Debug, Clone, Default)]
pub struct UserState {
    /// Total HTTP requests seen.
    pub requests: u64,
    /// Total response bytes.
    pub bytes: u64,
    /// Total request duration (ms).
    pub duration_ms: u64,
    /// Web-beacon (tracking pixel) requests.
    pub beacons: u64,
    /// Cookie-sync redirects.
    pub cookie_syncs: u64,
    /// Distinct publishers visited.
    pub publishers: BTreeSet<String>,
    /// Distinct cities observed (from geo-coded IPs).
    pub cities: BTreeSet<City>,
    /// Requests per city (the location-history features of Table 4).
    pub city_counts: [u64; 10],
    /// Most recent city.
    pub current_city: Option<City>,
    /// Requests per hour-of-day.
    pub hourly: [u64; 24],
    /// Requests per day-of-week.
    pub daily: [u64; 7],
    /// Content views per IAB category (the raw interest profile).
    pub iab_views: [u64; 18],
    /// RTB impressions detected per exchange.
    pub adx_impressions: [u64; 17],
    /// Cleartext charge prices seen (count, sum, sum of squares — CPM).
    pub clear_prices: (u64, f64, f64),
    /// Encrypted charge-price notifications seen.
    pub encrypted_seen: u64,
    /// App-originated requests.
    pub app_requests: u64,
    /// Distinct active days.
    pub active_days: BTreeSet<i64>,
}

impl UserState {
    /// Fresh state.
    pub fn new() -> UserState {
        UserState::default()
    }

    /// Folds one generic request's transport facts.
    pub fn record_request(
        &mut self,
        time: yav_types::SimTime,
        bytes: u32,
        duration_ms: u32,
        in_app: bool,
        city: Option<City>,
    ) {
        self.requests += 1;
        self.bytes += bytes as u64;
        self.duration_ms += duration_ms as u64;
        self.hourly[time.hour() as usize] += 1;
        self.daily[time.day_of_week().index()] += 1;
        self.active_days
            .insert(time.minutes() / yav_types::MINUTES_PER_DAY);
        if in_app {
            self.app_requests += 1;
        }
        if let Some(c) = city {
            self.cities.insert(c);
            self.city_counts[c.index()] += 1;
            self.current_city = Some(c);
        }
    }

    /// Folds a visited publisher (content request). The membership probe
    /// before the insert keeps revisits (the steady-state case) free of
    /// heap traffic — the owned key is only built for a first visit.
    pub fn record_publisher(&mut self, host: &str, iab: Option<IabCategory>) {
        if !self.publishers.contains(host) {
            self.publishers.insert(host.to_owned());
        }
        if let Some(c) = iab {
            self.iab_views[c.index()] += 1;
        }
    }

    /// Folds a web beacon.
    pub fn record_beacon(&mut self) {
        self.beacons += 1;
    }

    /// Folds a cookie-sync.
    pub fn record_cookie_sync(&mut self) {
        self.cookie_syncs += 1;
    }

    /// Folds a detected impression's observables.
    pub fn record_impression(&mut self, adx: Adx, cleartext_cpm: Option<f64>) {
        self.adx_impressions[adx.index()] += 1;
        match cleartext_cpm {
            Some(p) => {
                let (n, s, ss) = self.clear_prices;
                self.clear_prices = (n + 1, s + p, ss + p * p);
            }
            None => self.encrypted_seen += 1,
        }
    }

    /// The inferred interest profile: per-IAB weights summing to 1
    /// (all-zero for a user with no categorised views yet).
    pub fn interest_profile(&self) -> [f64; 18] {
        let total: u64 = self.iab_views.iter().sum();
        let mut out = [0.0f64; 18];
        if total == 0 {
            return out;
        }
        for (i, &v) in self.iab_views.iter().enumerate() {
            out[i] = v as f64 / total as f64;
        }
        out
    }

    /// Mean cleartext price seen so far (NaN if none).
    pub fn mean_clear_price(&self) -> f64 {
        let (n, s, _) = self.clear_prices;
        if n == 0 {
            f64::NAN
        } else {
            s / n as f64
        }
    }

    /// Std of cleartext prices seen so far (0 if fewer than 2).
    pub fn std_clear_price(&self) -> f64 {
        let (n, s, ss) = self.clear_prices;
        if n < 2 {
            return 0.0;
        }
        let mean = s / n as f64;
        ((ss / n as f64 - mean * mean).max(0.0)).sqrt()
    }
}

/// Panel-wide evolving state: advertiser (DSP) aggregates, campaign
/// popularity, publisher view counts — the Table-4 "ad" features that are
/// historical but not per-user.
#[derive(Debug, Clone, Default)]
pub struct GlobalState {
    /// Per-DSP-domain aggregates. Ordered maps throughout: iteration
    /// and any future serialization run in key order, so output is
    /// structurally independent of insertion order.
    pub dsps: BTreeMap<String, DspStats>,
    /// Notifications seen per campaign wire-id.
    pub campaigns: BTreeMap<String, u64>,
    /// Content views per publisher host.
    pub publisher_views: BTreeMap<String, u64>,
    /// Detected impressions per publisher name (as echoed in nURLs).
    pub publisher_imps: BTreeMap<String, u64>,
    /// Detected impressions per ad-slot size, per calendar month index
    /// (0-based within 2015; later months clamp to 11).
    pub monthly_slots: [[u64; 19]; 12],
}

/// Aggregates about one advertiser-side bidder (keyed by callback domain).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DspStats {
    /// Notifications observed.
    pub requests: u64,
    /// Total notification bytes.
    pub bytes: u64,
    /// Total notification duration (ms).
    pub duration_ms: u64,
    /// Distinct users this bidder reached.
    pub users: BTreeSet<u32>,
    /// Encrypted notifications among `requests`.
    pub encrypted: u64,
}

impl GlobalState {
    /// Month bucket (0–11) for the monthly slot table.
    pub fn month_bucket(time: yav_types::SimTime) -> usize {
        match time.ymd() {
            (year, month, _) if year <= 2015 => month as usize - 1,
            _ => 11,
        }
    }

    /// Average notifications per reached user for a bidder (0 if unseen).
    pub fn dsp_avg_reqs_per_user(&self, domain: &str) -> f64 {
        match self.dsps.get(domain) {
            Some(s) if !s.users.is_empty() => s.requests as f64 / s.users.len() as f64,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yav_types::SimTime;

    #[test]
    fn aggregates_fold() {
        let mut s = UserState::new();
        let t = SimTime::from_ymd_hm(2015, 3, 2, 9, 30); // Monday 09:30
        s.record_request(t, 1000, 50, false, Some(City::Madrid));
        s.record_request(t.plus_minutes(5), 500, 25, true, Some(City::Madrid));
        assert_eq!(s.requests, 2);
        assert_eq!(s.bytes, 1500);
        assert_eq!(s.duration_ms, 75);
        assert_eq!(s.app_requests, 1);
        assert_eq!(s.hourly[9], 2);
        assert_eq!(s.daily[0], 2);
        assert_eq!(s.cities.len(), 1);
        assert_eq!(s.active_days.len(), 1);
    }

    #[test]
    fn interest_profile_normalises() {
        let mut s = UserState::new();
        assert_eq!(s.interest_profile(), [0.0; 18]);
        s.record_publisher("a", Some(IabCategory::Sports));
        s.record_publisher("b", Some(IabCategory::Sports));
        s.record_publisher("c", Some(IabCategory::News));
        let p = s.interest_profile();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((p[IabCategory::Sports.index()] - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.publishers.len(), 3);
    }

    #[test]
    fn month_bucket_reads_the_calendar_once() {
        // Oracle: the two-walk form it replaced, one calendar walk for
        // the year and another for the month. Every day from before the
        // epoch into 2018 (past the wrap ymd applies after 2016).
        const DAY: i64 = 24 * 60;
        for day in -2..4 * 366 {
            let t = SimTime::from_minutes(day * DAY + 13 * 60);
            let want = if t.year() <= 2015 {
                t.month().index()
            } else {
                11
            };
            assert_eq!(GlobalState::month_bucket(t), want, "day {day}");
        }
    }

    #[test]
    fn price_moments() {
        let mut s = UserState::new();
        assert!(s.mean_clear_price().is_nan());
        s.record_impression(Adx::MoPub, Some(1.0));
        s.record_impression(Adx::MoPub, Some(3.0));
        s.record_impression(Adx::OpenX, None);
        assert_eq!(s.mean_clear_price(), 2.0);
        assert_eq!(s.std_clear_price(), 1.0);
        assert_eq!(s.encrypted_seen, 1);
        assert_eq!(s.adx_impressions[Adx::MoPub.index()], 2);
    }
}
