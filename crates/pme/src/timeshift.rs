//! Time-shift correction (§6.2).
//!
//! Dataset D's prices are from 2015; the campaigns ran in 2016. The
//! MoPub-only campaign A2 exists precisely so this gap can be measured:
//! comparing A2's cleartext price distribution with D's MoPub cleartext
//! prices yields a multiplicative coefficient that "time-corrects" the
//! 2015 prices before aggregation (the `cleartext (time corr.)` series of
//! Figure 17).

use serde::{Deserialize, Serialize};
use yav_stats::summary::median;

/// A fitted time-shift coefficient.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeShift {
    /// Median of the historical (2015) cleartext prices (CPM).
    pub historical_median: f64,
    /// Median of the recent campaign's cleartext prices (CPM).
    pub recent_median: f64,
    /// The multiplicative correction `recent / historical`.
    pub coefficient: f64,
}

impl TimeShift {
    /// Fits the correction from the two price samples. Returns a neutral
    /// (1.0) shift if either sample is empty or non-positive.
    pub fn fit(historical_cpm: &[f64], recent_cpm: &[f64]) -> TimeShift {
        let h = median(historical_cpm);
        let r = median(recent_cpm);
        let coefficient = if h > 0.0 && r > 0.0 { r / h } else { 1.0 };
        TimeShift {
            historical_median: h,
            recent_median: r,
            coefficient,
        }
    }

    /// Applies the correction to one historical price.
    pub fn correct(&self, cpm: f64) -> f64 {
        cpm * self.coefficient
    }

    /// Stratified fit: one (historical, recent) sample pair per stratum
    /// (the paper's campaigns target "similar IAB categories" so the
    /// shift can be measured within matched content strata, cancelling
    /// composition differences). The coefficient is the median of the
    /// per-stratum median ratios; strata with fewer than `min_n` prices
    /// on either side are skipped. Falls back to the plain fit when no
    /// stratum qualifies.
    pub fn fit_stratified(strata: &[(Vec<f64>, Vec<f64>)], min_n: usize) -> TimeShift {
        let mut ratios = Vec::new();
        let mut hist_all = Vec::new();
        let mut recent_all = Vec::new();
        for (hist, recent) in strata {
            hist_all.extend_from_slice(hist);
            recent_all.extend_from_slice(recent);
            if hist.len() >= min_n && recent.len() >= min_n {
                let h = median(hist);
                let r = median(recent);
                if h > 0.0 && r > 0.0 {
                    ratios.push(r / h);
                }
            }
        }
        if ratios.is_empty() {
            return TimeShift::fit(&hist_all, &recent_all);
        }
        TimeShift {
            historical_median: median(&hist_all),
            recent_median: median(&recent_all),
            coefficient: median(&ratios),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_the_median_ratio() {
        let historical = [1.0, 2.0, 3.0];
        let recent = [2.5, 5.0, 7.5];
        let ts = TimeShift::fit(&historical, &recent);
        assert!((ts.coefficient - 2.5).abs() < 1e-12);
        assert!((ts.correct(2.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_samples_are_neutral() {
        assert_eq!(TimeShift::fit(&[], &[1.0]).coefficient, 1.0);
        assert_eq!(TimeShift::fit(&[1.0], &[]).coefficient, 1.0);
        assert_eq!(TimeShift::fit(&[0.0], &[1.0]).coefficient, 1.0);
    }

    #[test]
    fn simulated_drift_is_upward() {
        // The market's yearly drift must surface as a >1 coefficient when
        // comparing 2015 dataset prices with 2016 campaign prices.
        use yav_auction::MarketConfig;
        use yav_campaign::Campaign;
        use yav_weblog::{PublisherUniverse, WeblogConfig, WeblogGenerator};

        let generator = WeblogGenerator::new(WeblogConfig::tiny());
        let mut analyzer = yav_analyzer::WeblogAnalyzer::new();
        generator.run(
            &MarketConfig::default(),
            |req| {
                analyzer.ingest(req);
            },
            |_| {},
        );
        let report = analyzer.finish();
        let historical: Vec<f64> = report
            .detections
            .iter()
            .filter(|d| d.adx == yav_types::Adx::MoPub)
            .filter_map(|d| d.cleartext_cpm.map(|p| p.as_f64()))
            .collect();

        let universe = PublisherUniverse::build(0xD474, 300, 120);
        // The default pool: campaign rows never depend on the thread count.
        let a2 = yav_campaign::execute_parallel(
            &MarketConfig::default(),
            &universe,
            &Campaign::a2().scaled(20),
            &Default::default(),
        );
        let recent: Vec<f64> = a2.prices_cpm();

        let ts = TimeShift::fit(&historical, &recent);
        assert!(
            ts.coefficient > 1.0,
            "2016 campaign prices should exceed 2015 dataset prices: {ts:?}"
        );
    }
}
