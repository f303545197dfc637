//! The serving engine: versioned models and anonymous contributions.
//!
//! §3.2–3.3: clients periodically poll the PME for fresh model versions
//! and may anonymously contribute the (features, price) observations they
//! encounter, Floodwatch-style, to improve future retraining. The engine
//! is the only shared-mutable component in the workspace, so it wraps its
//! state in a `parking_lot::RwLock` and stays `Send + Sync`.

use crate::model::{self, ClientModel, CoreContext, TrainConfig, TrainedModel};
use crate::timeshift::TimeShift;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use yav_campaign::ProbeImpression;
use yav_stats::{ks_two_sample, KsResult};
use yav_types::Cpm;

/// An anonymous client contribution: auction contexts with the cleartext
/// prices the client could read. No user identifier is ever attached.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContributionBatch {
    /// Observed (context, cleartext price) pairs.
    pub cleartext: Vec<(CoreContext, Cpm)>,
    /// Contexts of encrypted notifications (no price known).
    pub encrypted: Vec<CoreContext>,
}

impl ContributionBatch {
    /// An empty batch.
    pub fn new() -> ContributionBatch {
        ContributionBatch {
            cleartext: Vec::new(),
            encrypted: Vec::new(),
        }
    }

    /// Total observations in the batch.
    pub fn len(&self) -> usize {
        self.cleartext.len() + self.encrypted.len()
    }

    /// True if nothing was contributed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ContributionBatch {
    fn default() -> Self {
        ContributionBatch::new()
    }
}

#[derive(Debug, Default)]
struct PmeState {
    model: Option<TrainedModel>,
    version: u32,
    time_shift: Option<TimeShift>,
    contributed_cleartext: Vec<(CoreContext, Cpm)>,
    contributed_encrypted: Vec<CoreContext>,
    /// Cleartext price baseline from the last calibration, for drift
    /// detection.
    baseline_cleartext: Vec<f64>,
}

/// The Price Modeling Engine service.
#[derive(Debug, Default)]
pub struct Pme {
    state: RwLock<PmeState>,
}

impl Pme {
    /// A fresh engine with no model.
    pub fn new() -> Pme {
        Pme::default()
    }

    /// Trains (or retrains) from campaign ground truth, bumping the model
    /// version. Returns the new version.
    pub fn train_from_campaign(&self, rows: &[ProbeImpression], config: &TrainConfig) -> u32 {
        let _span = yav_telemetry::span!("pme.engine.train");
        let _trace = yav_trace::trace_span!("pme.train", rows.len());
        self.install(model::train(rows, config))
    }

    /// Installs a freshly trained model under the next version, stamped
    /// on its client in place, and returns that version. Records the
    /// telemetry common to both training entry points: rows used and the
    /// drift of the tree estimator against the §5.4 regression baseline
    /// (class-median RMSE would be a modeling question; the gauge tracks
    /// the readily available CV accuracy instead of re-deriving it).
    fn install(&self, mut trained: TrainedModel) -> u32 {
        yav_telemetry::counter("pme.engine.trainings").inc();
        yav_telemetry::counter("pme.engine.rows_trained").add(trained.trained_rows as u64);
        yav_telemetry::gauge("pme.engine.cv_accuracy").set(trained.cv.accuracy);
        // Estimate-vs-baseline drift: how far the forest's CV accuracy
        // sits above the linear-regression baseline's R² (both in [0,1];
        // positive = the model is earning its keep).
        yav_telemetry::gauge("pme.engine.estimate_vs_baseline_drift")
            .set(trained.cv.accuracy - trained.regression_baseline.1.max(0.0));
        let mut state = self.state.write();
        state.version += 1;
        trained.client.version = state.version;
        state.model = Some(trained);
        state.version
    }

    /// Fits the §6.2 time-shift correction from historical vs recent
    /// cleartext prices.
    pub fn fit_time_shift(&self, historical_cpm: &[f64], recent_cpm: &[f64]) -> TimeShift {
        let ts = TimeShift::fit(historical_cpm, recent_cpm);
        self.state.write().time_shift = Some(ts);
        ts
    }

    /// Installs an externally fitted time-shift (e.g. a stratified fit).
    pub fn set_time_shift(&self, ts: TimeShift) {
        self.state.write().time_shift = Some(ts);
    }

    /// The current time-shift (neutral if never fitted).
    pub fn time_shift(&self) -> TimeShift {
        self.state.read().time_shift.unwrap_or(TimeShift {
            historical_median: f64::NAN,
            recent_median: f64::NAN,
            coefficient: 1.0,
        })
    }

    /// The latest client model, if any — what a YourAdValue poll returns.
    pub fn current_model(&self) -> Option<ClientModel> {
        self.state.read().model.as_ref().map(|m| m.client.clone())
    }

    /// The latest full trained model (server side).
    pub fn trained_model(&self) -> Option<TrainedModel> {
        self.state.read().model.clone()
    }

    /// Current model version (0 = none yet).
    pub fn version(&self) -> u32 {
        self.state.read().version
    }

    /// Accepts an anonymous contribution batch.
    pub fn contribute(&self, batch: ContributionBatch) {
        yav_telemetry::counter("pme.engine.rows_contributed").add(batch.len() as u64);
        let mut state = self.state.write();
        state.contributed_cleartext.extend(batch.cleartext);
        state.contributed_encrypted.extend(batch.encrypted);
    }

    /// Number of contributed observations held.
    pub fn contribution_count(&self) -> (usize, usize) {
        let state = self.state.read();
        (
            state.contributed_cleartext.len(),
            state.contributed_encrypted.len(),
        )
    }

    /// Contributed cleartext prices (CPM) — retraining inputs.
    pub fn contributed_prices(&self) -> Vec<f64> {
        self.state
            .read()
            .contributed_cleartext
            .iter()
            .map(|(_, p)| p.as_f64())
            .collect()
    }

    /// Records the cleartext price distribution observed at calibration
    /// time, the reference for later drift detection.
    pub fn set_baseline(&self, cleartext_cpm: &[f64]) {
        self.state.write().baseline_cleartext = cleartext_cpm.to_vec();
    }

    /// §5.2's re-launch trigger: campaigns "can be automated and
    /// re-launched … when the detected cleartext prices deviate from
    /// historical data". Runs a two-sample KS test of recently observed
    /// cleartext prices against the stored baseline; returns the test
    /// when it rejects at `alpha` (i.e. a fresh probing campaign is due),
    /// `None` when prices still match the baseline or no baseline exists.
    pub fn recalibration_due(&self, recent_cleartext: &[f64], alpha: f64) -> Option<KsResult> {
        let state = self.state.read();
        let ks = ks_two_sample(&state.baseline_cleartext, recent_cleartext)?;
        yav_telemetry::gauge("pme.engine.baseline_ks_statistic").set(ks.statistic);
        if ks.rejects_at(alpha) {
            yav_telemetry::counter("pme.engine.recalibrations_triggered").inc();
            Some(ks)
        } else {
            None
        }
    }

    /// Retrains using campaign ground truth *plus* every contributed
    /// cleartext observation (the crowdsourced channel of §3.2). Returns
    /// the new model version.
    pub fn retrain_with_contributions(
        &self,
        rows: &[ProbeImpression],
        config: &TrainConfig,
    ) -> u32 {
        let mut pairs: Vec<(CoreContext, f64)> = rows
            .iter()
            .map(|r| (CoreContext::from(r), r.charge.as_f64()))
            .collect();
        {
            let state = self.state.read();
            pairs.extend(
                state
                    .contributed_cleartext
                    .iter()
                    .map(|(ctx, p)| (ctx.clone(), p.as_f64())),
            );
        }
        let _span = yav_telemetry::span!("pme.engine.train");
        let _trace = yav_trace::trace_span!("pme.train", pairs.len());
        self.install(model::train_pairs(&pairs, config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yav_auction::MarketConfig;
    use yav_campaign::Campaign;
    use yav_types::SimTime;
    use yav_weblog::PublisherUniverse;

    fn ground_truth() -> Vec<ProbeImpression> {
        let universe = PublisherUniverse::build(0xD474, 300, 120);
        // The default pool: campaign rows never depend on the thread count.
        yav_campaign::execute_parallel(
            &MarketConfig::default(),
            &universe,
            &Campaign::a1().scaled(8),
            &Default::default(),
        )
        .rows
    }

    fn ctx() -> CoreContext {
        CoreContext {
            city: Some(yav_types::City::Madrid),
            time: SimTime::from_ymd_hm(2015, 7, 1, 10, 0),
            device: yav_types::DeviceType::Smartphone,
            os: yav_types::Os::Android,
            interaction: yav_types::InteractionType::MobileWeb,
            format: Some(yav_types::AdSlotSize::S300x250),
            adx: yav_types::Adx::MoPub,
            iab: Some(yav_types::IabCategory::News),
            publisher: None,
        }
    }

    #[test]
    fn versions_bump_on_retrain() {
        let pme = Pme::new();
        assert_eq!(pme.version(), 0);
        assert!(pme.current_model().is_none());
        let rows = ground_truth();
        let v1 = pme.train_from_campaign(&rows, &TrainConfig::quick());
        assert_eq!(v1, 1);
        let model1 = pme.current_model().unwrap();
        assert_eq!(model1.version, 1);
        let v2 = pme.train_from_campaign(&rows, &TrainConfig::quick());
        assert_eq!(v2, 2);
        assert_eq!(pme.current_model().unwrap().version, 2);
    }

    #[test]
    fn contributions_accumulate() {
        let pme = Pme::new();
        let mut batch = ContributionBatch::new();
        batch.cleartext.push((ctx(), Cpm::from_f64(0.5)));
        batch.encrypted.push(ctx());
        batch.encrypted.push(ctx());
        assert_eq!(batch.len(), 3);
        pme.contribute(batch.clone());
        pme.contribute(batch);
        assert_eq!(pme.contribution_count(), (2, 4));
        assert_eq!(pme.contributed_prices(), vec![0.5, 0.5]);
    }

    #[test]
    fn time_shift_round_trip() {
        let pme = Pme::new();
        assert_eq!(pme.time_shift().coefficient, 1.0);
        let ts = pme.fit_time_shift(&[1.0, 1.0], &[1.3, 1.3]);
        assert!((ts.coefficient - 1.3).abs() < 1e-12);
        assert_eq!(pme.time_shift(), ts);
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        let pme = std::sync::Arc::new(Pme::new());
        let rows = ground_truth();
        pme.train_from_campaign(&rows, &TrainConfig::quick());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pme = pme.clone();
                std::thread::spawn(move || {
                    let model = pme.current_model().unwrap();
                    let mut scratch = crate::model::EstimateScratch::new();
                    model
                        .estimate_into(&super::tests::ctx(), &mut scratch)
                        .micros()
                })
            })
            .collect();
        let estimates: Vec<i64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(estimates.windows(2).all(|w| w[0] == w[1]));
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::model::TrainConfig;
    use yav_auction::MarketConfig;
    use yav_campaign::Campaign;
    use yav_types::{Cpm, SimTime};
    use yav_weblog::PublisherUniverse;

    fn rows() -> Vec<ProbeImpression> {
        let universe = PublisherUniverse::build(0xD474, 300, 120);
        // The default pool: campaign rows never depend on the thread count.
        yav_campaign::execute_parallel(
            &MarketConfig::default(),
            &universe,
            &Campaign::a1().scaled(8),
            &Default::default(),
        )
        .rows
    }

    fn ctx() -> CoreContext {
        CoreContext {
            city: Some(yav_types::City::Madrid),
            time: SimTime::from_ymd_hm(2015, 7, 1, 10, 0),
            device: yav_types::DeviceType::Smartphone,
            os: yav_types::Os::Android,
            interaction: yav_types::InteractionType::MobileWeb,
            format: Some(yav_types::AdSlotSize::S300x250),
            adx: yav_types::Adx::MoPub,
            iab: Some(yav_types::IabCategory::News),
            publisher: None,
        }
    }

    #[test]
    fn drift_detection_triggers_on_shifted_prices() {
        let pme = Pme::new();
        let baseline: Vec<f64> = (0..400).map(|i| 0.2 + (i % 50) as f64 / 100.0).collect();
        pme.set_baseline(&baseline);
        // Same distribution: no recalibration.
        assert!(pme.recalibration_due(&baseline, 0.01).is_none());
        // Prices shifted up 60%: recalibration due.
        let shifted: Vec<f64> = baseline.iter().map(|p| p * 1.6).collect();
        let ks = pme
            .recalibration_due(&shifted, 0.01)
            .expect("drift must trigger");
        assert!(ks.p_value < 0.01);
    }

    #[test]
    fn no_baseline_means_no_trigger() {
        let pme = Pme::new();
        assert!(pme.recalibration_due(&[1.0, 2.0, 3.0], 0.05).is_none());
    }

    #[test]
    fn prediction_telemetry_is_exported() {
        let pme = Pme::new();
        pme.train_from_campaign(&rows(), &TrainConfig::quick());
        let model = pme.current_model().unwrap();
        let mut scratch = crate::model::EstimateScratch::new();
        let before = yav_telemetry::counter("pme.predictions_total").get();
        model.estimate_into(&ctx(), &mut scratch);
        assert!(yav_telemetry::counter("pme.predictions_total").get() > before);
        assert!(yav_telemetry::histogram("pme.predict.us").count() > 0);
        let prom = yav_telemetry::prometheus_text();
        assert!(prom.contains("yav_pme_predictions_total"), "{prom}");
        assert!(prom.contains("yav_pme_predict_us"), "{prom}");
        assert!(yav_telemetry::json_snapshot().contains("pme.predict.us"));
    }

    #[test]
    fn contributions_join_retraining() {
        let pme = Pme::new();
        let campaign_rows = rows();
        let v1 = pme.train_from_campaign(&campaign_rows, &TrainConfig::quick());
        // Contribute a block of consistent cleartext observations.
        let mut batch = ContributionBatch::new();
        for _ in 0..300 {
            batch.cleartext.push((ctx(), Cpm::from_f64(0.4)));
        }
        pme.contribute(batch);
        let v2 = pme.retrain_with_contributions(&campaign_rows, &TrainConfig::quick());
        assert_eq!(v2, v1 + 1);
        let model = pme.current_model().unwrap();
        assert_eq!(model.version, v2);
        // The retrained model still estimates sanely on the contributed
        // context.
        let est = model.estimate_into(&ctx(), &mut crate::model::EstimateScratch::new());
        assert!(est.is_positive());
    }
}
