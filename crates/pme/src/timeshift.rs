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
        TimeShift::from_ratios(&[], median(historical_cpm), median(recent_cpm))
    }

    /// The rule every fit ends in. The coefficient is the median of the
    /// per-stratum `recent / historical` median ratios; with no ratio it
    /// falls back to the pooled `recent_median / historical_median` when
    /// both are positive, else to a neutral 1.0.
    pub fn from_ratios(ratios: &[f64], historical_median: f64, recent_median: f64) -> TimeShift {
        let coefficient = if !ratios.is_empty() {
            median(ratios)
        } else if historical_median > 0.0 && recent_median > 0.0 {
            recent_median / historical_median
        } else {
            1.0
        };
        TimeShift {
            historical_median,
            recent_median,
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
    /// on either side are skipped. Falls back to the pooled fit when no
    /// stratum qualifies ([`TimeShift::from_ratios`]).
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
        TimeShift::from_ratios(&ratios, median(&hist_all), median(&recent_all))
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
    fn stratified_fit_takes_the_median_stratum_ratio() {
        // Stratum ratios 2, 3 and 4; the pooled medians (1 and 4) would
        // say 4, and the median stratum ratio wins.
        let strata = vec![
            (vec![1.0, 1.0], vec![2.0, 2.0]),
            (vec![2.0, 2.0], vec![6.0, 6.0]),
            (vec![1.0, 1.0], vec![4.0, 4.0]),
        ];
        let ts = TimeShift::fit_stratified(&strata, 2);
        assert_eq!(
            (ts.historical_median, ts.recent_median, ts.coefficient),
            (1.0, 4.0, 3.0)
        );
        // No stratum qualifies: the pooled fit, bit for bit.
        let hist: Vec<f64> = strata.iter().flat_map(|s| s.0.clone()).collect();
        let recent: Vec<f64> = strata.iter().flat_map(|s| s.1.clone()).collect();
        assert_eq!(
            TimeShift::fit_stratified(&strata, 3),
            TimeShift::fit(&hist, &recent)
        );
        assert_eq!(TimeShift::from_ratios(&[], 0.0, 2.0).coefficient, 1.0);
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
