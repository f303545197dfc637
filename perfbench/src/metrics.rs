//! The benchmark's metric vocabulary and its one-line JSON result.
//!
//! Every name printed on the result line comes from [`END_TO_END`] or
//! [`PER_LAYER`], the same lists `BENCHMARK.json` declares (a test keeps
//! them in step). Every workload prints every metric of its mode: a
//! per-layer metric of a layer the workload does not run reads 0, which
//! is how the traced split shows what a workload skips.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_ref_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("machine.steal_pct", "%"),
    ("machine.cpu_per_wall", "ratio"),
    ("machine.reference_ms", "ms"),
    ("stream.weblog.panel_ns_per_event", "ns"),
    ("stream.auction.stamp_ns_per_event", "ns"),
    ("stream.weblog-auction.ns_per_event", "ns"),
    ("stream.analyzer.ns_per_event", "ns"),
    ("stream.analyzer.finish_ns_per_event", "ns"),
    ("stream.core.ns_per_event", "ns"),
    ("stream.fold_ns_per_event", "ns"),
    ("stream.auction.template_s", "s"),
    ("stream.campaign.setup_s", "s"),
    ("stream.pme.setup_s", "s"),
    ("stream.events", "count"),
    ("stream.shards", "count"),
    ("stream.notifications", "count"),
    ("stream.encrypted_share", "ratio"),
    ("stream.detected_per_sold", "ratio"),
    ("stream.layer_sum_ratio", "ratio"),
    ("stream.trace_overhead_pct", "%"),
    ("client.core.observe_ns_p50", "ns"),
    ("client.core.observe_ns_p99", "ns"),
    ("client.core.reject_ns", "ns"),
    ("client.core.cleartext_ns", "ns"),
    ("client.core.encrypted_ns", "ns"),
    ("client.core.malformed_ns", "ns"),
    ("client.nurl.screen_ns", "ns"),
    ("client.nurl.parse_ns", "ns"),
    ("client.core.install_s", "s"),
    ("client.requests", "count"),
    ("client.notification_share", "ratio"),
    ("client.malformed_share", "ratio"),
    ("client.dropped.parse_error", "count"),
    ("client.dropped.not_notification", "count"),
    ("client.layer_sum_ratio", "ratio"),
    ("client.trace_overhead_pct", "%"),
    ("train.campaign.wall_s", "s"),
    ("train.pme.wall_s", "s"),
    ("train.ml.forest_fit_s", "s"),
    ("train.rows", "count"),
    ("train.trees_fitted", "count"),
    ("train.pme.cv_accuracy", "ratio"),
    ("train.layer_sum_ratio", "ratio"),
    ("train.trace_overhead_pct", "%"),
];

/// Metric values collected by one run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `name`, which must be a declared metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in END_TO_END or PER_LAYER"
        );
        self.values.insert(name, value);
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// The unit a declared metric is printed with.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: events, requests or refreshes.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Failed whole-run checks (determinism, thread count, model shape),
    /// each described in one line.
    pub problems: Vec<String>,
    /// Every metric the run measured.
    pub metrics: Metrics,
    /// Extra report lines printed above the result (aliases, counts).
    pub notes: Vec<String>,
    /// The traced run's span log, written out when the run ends.
    pub tracer: Option<crate::spans::Tracer>,
}

impl Outcome {
    /// Records a failed whole-run check.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// True when every operation and every whole-run check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }
}

/// Renders the result line: exactly the metrics of `mode`, each as
/// measured (0 for a per-layer metric of a layer the workload skips).
/// Non-finite values cannot be printed as JSON numbers; they read 0 and
/// mark the run incorrect.
pub fn result_line(outcome: &Outcome, mode: &[(&'static str, &'static str)]) -> String {
    let mut correct = outcome.correct();
    let mut body = Vec::with_capacity(mode.len());
    for &(name, unit) in mode {
        let mut value = outcome.metrics.get(name).unwrap_or(0.0);
        if !value.is_finite() {
            correct = false;
            value = 0.0;
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

/// A finite f64 in JSON syntax with every digit of Rust's shortest
/// round-trip form (which never uses an exponent).
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile `q` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn result_line_prints_every_metric_of_the_mode() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.metrics.set("ops_per_ref_s", 12.5);
        outcome.metrics.set("setup_s", 1.0);
        outcome.metrics.set("peak_rss_mib", f64::NAN);
        let line = result_line(&outcome, END_TO_END);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"ops_per_ref_s\": {\"value\": 12.5, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.0, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mib\": {\"value\": 0.0, \"unit\": \"MiB\"}"));
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }
}
