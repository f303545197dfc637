//! Weblog generator configuration and scale presets.

use serde::{Deserialize, Serialize};
use yav_exec::ExecConfig;
use yav_types::SimTime;

/// Parameters of the synthetic panel trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeblogConfig {
    /// Master seed for the generator's randomness streams (independent of
    /// the market's seed).
    pub seed: u64,
    /// Panel size (the paper's dataset D has 1 594 users).
    pub users: u32,
    /// First simulated day.
    pub start: SimTime,
    /// Number of simulated days (the paper covers all of 2015).
    pub days: u32,
    /// Mean page/app views per user per day (before per-user activity
    /// heterogeneity).
    pub views_per_user_day: f64,
    /// Probability a view carries an RTB-auctioned ad slot.
    pub rtb_slot_prob: f64,
    /// Mean auxiliary requests (assets, trackers, beacons) per view.
    pub aux_requests_per_view: f64,
    /// Probability a view triggers a cookie-synchronisation redirect.
    pub cookie_sync_prob: f64,
    /// Number of web publishers in the universe.
    pub web_publishers: u32,
    /// Number of app publishers in the universe.
    pub app_publishers: u32,
    /// Worker pool for builders that run shards side by side (the
    /// streaming world builder reads it from here). Generation itself is
    /// not pooled: [`crate::WeblogGenerator::run`] and `collect` play the
    /// shards in order on the calling thread. Scheduling only — no
    /// output depends on the thread count.
    pub exec: ExecConfig,
    /// Materialise panel users per shard block instead of up front.
    /// Lazy panels draw each user independently from `(seed, id)` (a
    /// *different* — equally valid — panel than the eager sequential
    /// draw), so a million-user run never holds more than one shard's
    /// users in memory. Leave `false` wherever byte-compatibility with
    /// the eager presets matters.
    pub lazy_panel: bool,
}

impl WeblogConfig {
    /// Paper-scale dataset D: 1 594 users over the whole of 2015, tuned to
    /// land near the 78 560 RTB impressions of Table 3. Generating it
    /// streams a few million HTTP events — use release builds.
    pub fn paper() -> WeblogConfig {
        WeblogConfig {
            seed: 0xD474,
            users: 1594,
            start: SimTime::EPOCH,
            days: 365,
            views_per_user_day: 2.2,
            rtb_slot_prob: 0.072,
            aux_requests_per_view: 6.0,
            cookie_sync_prob: 0.03,
            web_publishers: 1800,
            app_publishers: 700,
            exec: ExecConfig::default(),
            lazy_panel: false,
        }
    }

    /// Huge streaming scale: one simulated day of a million-user panel.
    /// Only meaningful through the constant-memory streaming builder —
    /// the panel is lazy (per-shard blocks) and the full weblog is never
    /// materialised. One day keeps the event count (~11 M HTTP requests)
    /// tractable on one core while exercising population-scale state.
    pub fn huge() -> WeblogConfig {
        WeblogConfig {
            seed: 0xD474,
            users: 1_000_000,
            start: SimTime::EPOCH,
            days: 1,
            views_per_user_day: 2.2,
            rtb_slot_prob: 0.072,
            aux_requests_per_view: 4.0,
            cookie_sync_prob: 0.03,
            web_publishers: 1800,
            app_publishers: 700,
            exec: ExecConfig::default(),
            lazy_panel: true,
        }
    }

    /// Test-scale configuration: ~100 users over two months, producing a
    /// few thousand impressions in well under a second.
    pub fn small() -> WeblogConfig {
        WeblogConfig {
            seed: 0xD474,
            users: 120,
            start: SimTime::EPOCH,
            days: 60,
            views_per_user_day: 3.0,
            rtb_slot_prob: 0.25,
            aux_requests_per_view: 3.0,
            cookie_sync_prob: 0.03,
            web_publishers: 300,
            app_publishers: 120,
            exec: ExecConfig::default(),
            lazy_panel: false,
        }
    }

    /// Even smaller: unit-test scale (tens of users, two weeks).
    pub fn tiny() -> WeblogConfig {
        WeblogConfig {
            seed: 0xD474,
            users: 30,
            start: SimTime::EPOCH,
            days: 14,
            views_per_user_day: 3.0,
            rtb_slot_prob: 0.3,
            aux_requests_per_view: 2.0,
            cookie_sync_prob: 0.05,
            web_publishers: 80,
            app_publishers: 40,
            exec: ExecConfig::default(),
            lazy_panel: false,
        }
    }

    /// Last simulated instant (exclusive).
    pub fn end(&self) -> SimTime {
        self.start.plus_days(self.days as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_table3_shape() {
        let c = WeblogConfig::paper();
        assert_eq!(c.users, 1594);
        assert_eq!(c.days, 365);
        // Expected sold impressions ≈ users·days·views·slot_prob·fill.
        let expected =
            c.users as f64 * c.days as f64 * c.views_per_user_day * c.rtb_slot_prob * 0.85;
        assert!(
            (60_000.0..=100_000.0).contains(&expected),
            "expected impressions {expected:.0} should be near Table 3's 78 560"
        );
    }

    #[test]
    fn end_is_start_plus_days() {
        let c = WeblogConfig::tiny();
        assert_eq!(c.end() - c.start, 14 * yav_types::MINUTES_PER_DAY);
    }
}
