//! The SLO / health engine: rolling-window quantiles and anomaly flags
//! over the telemetry histograms.
//!
//! Telemetry metrics are cumulative-since-start, which hides regressions
//! behind hours of healthy history. [`HealthEngine::tick`] differences
//! successive reads of each watched histogram's log buckets (see
//! `Histogram::bucket_counts`) and counter pair, keeps the last
//! `window` per-tick deltas, and answers with a [`HealthReport`]:
//! windowed p50/p95/p99 latency, windowed drop rate, and two kinds of
//! flag per area —
//!
//! * **SLO breach**: the windowed value crossed an absolute limit from
//!   [`SloConfig`] (p99 latency, drop rate);
//! * **anomaly**: the latest tick sits more than `anomaly_sigma` sample
//!   standard deviations above the window mean (`yav_stats::Summary`
//!   over the tick history), i.e. a sudden shift even while still
//!   inside the SLO.
//!
//! The report exports as JSON and as Prometheus text, next to the
//! registry-wide exporters in `yav-telemetry`.

use std::collections::{BTreeMap, VecDeque};
use yav_stats::Summary;
use yav_telemetry::{Counter, Histogram};

/// One monitored pipeline area: a latency histogram plus an
/// events/drops counter pair from the telemetry registry.
#[derive(Debug, Clone)]
pub struct Watch {
    /// Report label (`"ingest"`, `"pme"`, ...).
    pub area: &'static str,
    /// Latency histogram metric name (microsecond-scale).
    pub latency_hist: &'static str,
    /// Throughput counter: successfully handled events.
    pub events_ctr: &'static str,
    /// Drop counter paired against `events_ctr`, if the area has one.
    pub drops_ctr: Option<&'static str>,
}

/// Thresholds and window shape for the health engine.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Rolling window length, in ticks.
    pub window: usize,
    /// Absolute SLO: windowed p99 latency limit, microseconds.
    pub p99_limit_us: f64,
    /// Absolute SLO: windowed drop-rate limit (drops / (events+drops)).
    pub drop_rate_limit: f64,
    /// Anomaly sensitivity: flag a tick this many sample standard
    /// deviations above the window mean (needs ≥ 5 ticks of history).
    pub anomaly_sigma: f64,
    /// The areas to monitor.
    pub watches: Vec<Watch>,
}

impl Default for SloConfig {
    /// The production defaults: watch nURL ingestion and PME prediction,
    /// 60-tick window, 500 µs p99 budget, 5 % drop budget, 3σ anomalies.
    ///
    /// `ingest.observe.us` gets one sample per `observe_batch` call, not
    /// one per request, so the p99 budget bounds a whole batch's wall
    /// time: 512 requests in `examples/trace_world.rs`, 80–150 µs at the
    /// median in two runs on a 2-vCPU VM. Ticked once per batch, a 60-tick
    /// window holds about 60 samples and its p99 is close to its slowest
    /// batch, so a single descheduled batch can breach the budget and
    /// flip the verdict.
    fn default() -> SloConfig {
        SloConfig {
            window: 60,
            p99_limit_us: 500.0,
            drop_rate_limit: 0.05,
            anomaly_sigma: 3.0,
            watches: vec![
                Watch {
                    area: "ingest",
                    latency_hist: "ingest.observe.us",
                    events_ctr: "core.monitor.events",
                    drops_ctr: Some("core.monitor.nurl.parse_error"),
                },
                Watch {
                    area: "pme",
                    latency_hist: "pme.predict.us",
                    events_ctr: "pme.predictions_total",
                    drops_ctr: None,
                },
            ],
        }
    }
}

/// Per-tick delta for one watch: latency bucket deltas (midpoint bits →
/// count) plus the counter movement.
#[derive(Debug, Clone, Default)]
struct TickDelta {
    buckets: BTreeMap<u64, u64>,
    events: u64,
    drops: u64,
    /// Tick-local p99 latency, for the anomaly history.
    p99_us: f64,
    /// Tick-local drop rate.
    drop_rate: f64,
}

struct WatchState {
    watch: Watch,
    hist: Histogram,
    events: Counter,
    drops: Option<Counter>,
    prev_buckets: BTreeMap<u64, u64>,
    prev_events: u64,
    prev_drops: u64,
    window: VecDeque<TickDelta>,
}

/// Differences cumulative telemetry into rolling windows and flags SLO
/// breaches and anomalies. One engine per process is typical; tick it
/// from the supervision loop (every simulated day in the world builder,
/// every few seconds in a live deployment).
pub struct HealthEngine {
    config: SloConfig,
    states: Vec<WatchState>,
    ticks: u64,
}

impl HealthEngine {
    /// An engine over the global telemetry registry.
    pub fn new(config: SloConfig) -> HealthEngine {
        let states = config
            .watches
            .iter()
            .map(|w| WatchState {
                watch: w.clone(),
                hist: yav_telemetry::histogram(w.latency_hist),
                events: yav_telemetry::counter(w.events_ctr),
                drops: w.drops_ctr.map(yav_telemetry::counter),
                prev_buckets: BTreeMap::new(),
                prev_events: 0,
                prev_drops: 0,
                window: VecDeque::new(),
            })
            .collect();
        HealthEngine {
            config,
            states,
            ticks: 0,
        }
    }

    /// An engine with the default watches and thresholds.
    pub fn with_defaults() -> HealthEngine {
        HealthEngine::new(SloConfig::default())
    }

    /// Reads every watched metric, appends one tick of deltas to each
    /// rolling window, and returns the current health snapshot.
    pub fn tick(&mut self) -> HealthReport {
        self.ticks += 1;
        let window = self.config.window.max(1);
        for st in &mut self.states {
            let now: BTreeMap<u64, u64> = st
                .hist
                .bucket_counts()
                .into_iter()
                .map(|(mid, c)| (mid.to_bits(), c))
                .collect();
            let mut delta = TickDelta::default();
            for (&bits, &c) in &now {
                let before = st.prev_buckets.get(&bits).copied().unwrap_or(0);
                if c > before {
                    delta.buckets.insert(bits, c - before);
                }
            }
            st.prev_buckets = now;

            let events_now = st.events.get();
            let drops_now = st.drops.as_ref().map_or(0, Counter::get);
            delta.events = events_now.saturating_sub(st.prev_events);
            delta.drops = drops_now.saturating_sub(st.prev_drops);
            st.prev_events = events_now;
            st.prev_drops = drops_now;

            delta.p99_us = weighted_quantile(&delta.buckets, 0.99);
            let denom = delta.events + delta.drops;
            delta.drop_rate = if denom == 0 {
                0.0
            } else {
                delta.drops as f64 / denom as f64
            };

            st.window.push_back(delta);
            while st.window.len() > window {
                st.window.pop_front();
            }
        }
        self.report()
    }

    /// The health snapshot for the current windows (no new reads).
    pub fn report(&self) -> HealthReport {
        let areas = self.states.iter().map(|st| self.area_health(st)).collect();
        HealthReport {
            ticks: self.ticks,
            areas,
        }
    }

    fn area_health(&self, st: &WatchState) -> AreaHealth {
        let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
        let mut events = 0u64;
        let mut drops = 0u64;
        for t in &st.window {
            for (&bits, &c) in &t.buckets {
                *merged.entry(bits).or_insert(0) += c;
            }
            events += t.events;
            drops += t.drops;
        }
        let p50_us = weighted_quantile(&merged, 0.50);
        let p95_us = weighted_quantile(&merged, 0.95);
        let p99_us = weighted_quantile(&merged, 0.99);
        let denom = events + drops;
        let drop_rate = if denom == 0 {
            0.0
        } else {
            drops as f64 / denom as f64
        };

        let mut flags = Vec::new();
        if p99_us.is_finite() && p99_us > self.config.p99_limit_us {
            flags.push(HealthFlag::LatencySlo {
                p99_us,
                limit_us: self.config.p99_limit_us,
            });
        }
        if drop_rate > self.config.drop_rate_limit {
            flags.push(HealthFlag::DropSlo {
                rate: drop_rate,
                limit: self.config.drop_rate_limit,
            });
        }
        // Anomalies: latest tick vs the window that preceded it.
        if st.window.len() >= 5 {
            let latest = st.window.back().expect("window checked non-empty");
            let history: Vec<&TickDelta> = st.window.iter().take(st.window.len() - 1).collect();
            let lat: Vec<f64> = history
                .iter()
                .map(|t| t.p99_us)
                .filter(|v| v.is_finite())
                .collect();
            if lat.len() >= 4 && latest.p99_us.is_finite() {
                let s = Summary::of(&lat);
                let bound = s.mean + self.config.anomaly_sigma * s.std;
                if latest.p99_us > bound && s.std > 0.0 {
                    flags.push(HealthFlag::LatencyAnomaly {
                        p99_us: latest.p99_us,
                        baseline_us: s.mean,
                    });
                }
            }
            let dr: Vec<f64> = history.iter().map(|t| t.drop_rate).collect();
            let s = Summary::of(&dr);
            let bound = s.mean + self.config.anomaly_sigma * s.std;
            if s.std > 0.0 && latest.drop_rate > bound {
                flags.push(HealthFlag::DropAnomaly {
                    rate: latest.drop_rate,
                    baseline: s.mean,
                });
            }
        }

        let status = if flags.iter().any(|f| {
            matches!(
                f,
                HealthFlag::LatencySlo { .. } | HealthFlag::DropSlo { .. }
            )
        }) {
            HealthStatus::Critical
        } else if flags.is_empty() {
            HealthStatus::Ok
        } else {
            HealthStatus::Warn
        };

        AreaHealth {
            area: st.watch.area.to_owned(),
            events,
            drops,
            drop_rate,
            p50_us,
            p95_us,
            p99_us,
            flags,
            status,
        }
    }
}

/// Weighted quantile over `(midpoint bits → count)` log buckets.
/// Positive floats order like their bit patterns, so the `BTreeMap`'s
/// key order is numeric order. `NaN` when empty.
fn weighted_quantile(buckets: &BTreeMap<u64, u64>, q: f64) -> f64 {
    let total: u64 = buckets.values().sum();
    if total == 0 {
        return f64::NAN;
    }
    let target = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cumulative = 0u64;
    for (&bits, &c) in buckets {
        cumulative += c;
        if cumulative >= target {
            return f64::from_bits(bits);
        }
    }
    f64::NAN
}

/// Area status, worst flag wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthStatus {
    /// Inside SLO, no anomalies.
    Ok,
    /// Inside SLO but the latest tick is anomalous.
    Warn,
    /// An absolute SLO is breached.
    Critical,
}

impl HealthStatus {
    /// Stable lowercase label (JSON / Prometheus value).
    pub fn label(self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Warn => "warn",
            HealthStatus::Critical => "critical",
        }
    }

    fn code(self) -> u8 {
        match self {
            HealthStatus::Ok => 0,
            HealthStatus::Warn => 1,
            HealthStatus::Critical => 2,
        }
    }
}

/// Why an area is not `Ok`.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthFlag {
    /// Windowed p99 latency above the absolute SLO.
    LatencySlo {
        /// Observed windowed p99, µs.
        p99_us: f64,
        /// Configured limit, µs.
        limit_us: f64,
    },
    /// Latest tick's p99 far above the window baseline.
    LatencyAnomaly {
        /// Latest tick p99, µs.
        p99_us: f64,
        /// Window mean p99, µs.
        baseline_us: f64,
    },
    /// Windowed drop rate above the absolute SLO.
    DropSlo {
        /// Observed windowed drop rate.
        rate: f64,
        /// Configured limit.
        limit: f64,
    },
    /// Latest tick's drop rate far above the window baseline.
    DropAnomaly {
        /// Latest tick drop rate.
        rate: f64,
        /// Window mean drop rate.
        baseline: f64,
    },
}

impl HealthFlag {
    /// Stable kind label.
    pub fn kind(&self) -> &'static str {
        match self {
            HealthFlag::LatencySlo { .. } => "latency_slo",
            HealthFlag::LatencyAnomaly { .. } => "latency_anomaly",
            HealthFlag::DropSlo { .. } => "drop_slo",
            HealthFlag::DropAnomaly { .. } => "drop_anomaly",
        }
    }
}

/// Windowed health of one watched area.
#[derive(Debug, Clone)]
pub struct AreaHealth {
    /// Watch label.
    pub area: String,
    /// Events handled inside the window.
    pub events: u64,
    /// Events dropped inside the window.
    pub drops: u64,
    /// `drops / (events + drops)` over the window.
    pub drop_rate: f64,
    /// Windowed median latency, µs (`NaN` when idle).
    pub p50_us: f64,
    /// Windowed 95th-percentile latency, µs.
    pub p95_us: f64,
    /// Windowed 99th-percentile latency, µs.
    pub p99_us: f64,
    /// Active flags, SLO breaches first.
    pub flags: Vec<HealthFlag>,
    /// Worst-flag status.
    pub status: HealthStatus,
}

/// One snapshot of every watched area.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Engine ticks so far.
    pub ticks: u64,
    /// Per-area health, in watch order.
    pub areas: Vec<AreaHealth>,
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

impl HealthReport {
    /// The overall status: worst area wins (`Ok` when nothing is
    /// watched).
    pub fn status(&self) -> HealthStatus {
        self.areas
            .iter()
            .map(|a| a.status)
            .max_by_key(|s| s.code())
            .unwrap_or(HealthStatus::Ok)
    }

    /// Renders the report as one JSON object (hand-rolled, like the
    /// telemetry exporters).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = format!(
            "{{\"ticks\":{},\"status\":\"{}\",\"areas\":[",
            self.ticks,
            self.status().label()
        );
        for (i, a) in self.areas.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"area\":\"{}\",\"status\":\"{}\",\"events\":{},\"drops\":{},\
                 \"drop_rate\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"flags\":[",
                a.area,
                a.status.label(),
                a.events,
                a.drops,
                json_num(a.drop_rate),
                json_num(a.p50_us),
                json_num(a.p95_us),
                json_num(a.p99_us),
            );
            for (j, f) in a.flags.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                match f {
                    HealthFlag::LatencySlo { p99_us, limit_us } => {
                        let _ = write!(
                            out,
                            "{{\"kind\":\"latency_slo\",\"p99_us\":{},\"limit_us\":{}}}",
                            json_num(*p99_us),
                            json_num(*limit_us)
                        );
                    }
                    HealthFlag::LatencyAnomaly {
                        p99_us,
                        baseline_us,
                    } => {
                        let _ = write!(
                            out,
                            "{{\"kind\":\"latency_anomaly\",\"p99_us\":{},\"baseline_us\":{}}}",
                            json_num(*p99_us),
                            json_num(*baseline_us)
                        );
                    }
                    HealthFlag::DropSlo { rate, limit } => {
                        let _ = write!(
                            out,
                            "{{\"kind\":\"drop_slo\",\"rate\":{},\"limit\":{}}}",
                            json_num(*rate),
                            json_num(*limit)
                        );
                    }
                    HealthFlag::DropAnomaly { rate, baseline } => {
                        let _ = write!(
                            out,
                            "{{\"kind\":\"drop_anomaly\",\"rate\":{},\"baseline\":{}}}",
                            json_num(*rate),
                            json_num(*baseline)
                        );
                    }
                }
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Renders the report in the Prometheus text exposition format, one
    /// labelled series family per statistic, next to
    /// `yav_telemetry::prometheus_text`.
    pub fn prometheus_text(&self) -> String {
        use std::fmt::Write;
        fn prom(v: f64) -> String {
            if v.is_nan() {
                "NaN".into()
            } else {
                format!("{v}")
            }
        }
        let mut out = String::new();
        for (family, kind) in [
            ("yav_health_status", "gauge"),
            ("yav_health_p50_us", "gauge"),
            ("yav_health_p95_us", "gauge"),
            ("yav_health_p99_us", "gauge"),
            ("yav_health_drop_rate", "gauge"),
            ("yav_health_events_window", "gauge"),
            ("yav_health_flags", "gauge"),
        ] {
            let _ = writeln!(out, "# TYPE {family} {kind}");
            for a in &self.areas {
                let v = match family {
                    "yav_health_status" => a.status.code() as f64,
                    "yav_health_p50_us" => a.p50_us,
                    "yav_health_p95_us" => a.p95_us,
                    "yav_health_p99_us" => a.p99_us,
                    "yav_health_drop_rate" => a.drop_rate,
                    "yav_health_events_window" => a.events as f64,
                    _ => a.flags.len() as f64,
                };
                let _ = writeln!(out, "{family}{{area=\"{}\"}} {}", a.area, prom(v));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_engine(suffix: &str) -> HealthEngine {
        // Unique metric names per test: the registry is process-global.
        let hist: &'static str = Box::leak(format!("health.test_{suffix}.us").into_boxed_str());
        let ev: &'static str = Box::leak(format!("health.test_{suffix}.events").into_boxed_str());
        let dr: &'static str = Box::leak(format!("health.test_{suffix}.drops").into_boxed_str());
        HealthEngine::new(SloConfig {
            window: 8,
            p99_limit_us: 100.0,
            drop_rate_limit: 0.10,
            anomaly_sigma: 3.0,
            watches: vec![Watch {
                area: "test",
                latency_hist: hist,
                events_ctr: ev,
                drops_ctr: Some(dr),
            }],
        })
    }

    #[test]
    fn windowed_quantiles_track_recent_load() {
        let mut eng = test_engine("quantiles");
        let w = &eng.config.watches[0];
        let hist = yav_telemetry::histogram(w.latency_hist);
        let events = yav_telemetry::counter(w.events_ctr);
        for _ in 0..100 {
            hist.observe(10.0);
            events.inc();
        }
        let r = eng.tick();
        let a = &r.areas[0];
        assert_eq!(a.events, 100);
        assert!(a.p99_us > 5.0 && a.p99_us < 20.0, "p99={}", a.p99_us);
        assert_eq!(a.status, HealthStatus::Ok);

        // A latency regression crosses the absolute SLO.
        for _ in 0..100 {
            hist.observe(5000.0);
            events.inc();
        }
        let r = eng.tick();
        let a = &r.areas[0];
        assert!(a.p99_us > 100.0);
        assert_eq!(a.status, HealthStatus::Critical);
        assert!(a.flags.iter().any(|f| f.kind() == "latency_slo"));
    }

    #[test]
    fn drop_rate_flags_and_exports() {
        let mut eng = test_engine("drops");
        let w = &eng.config.watches[0];
        let events = yav_telemetry::counter(w.events_ctr);
        let drops = yav_telemetry::counter(w.drops_ctr.expect("configured"));
        events.add(50);
        drops.add(50);
        let r = eng.tick();
        let a = &r.areas[0];
        assert!((a.drop_rate - 0.5).abs() < 1e-9);
        assert_eq!(a.status, HealthStatus::Critical);
        assert!(a.flags.iter().any(|f| f.kind() == "drop_slo"));

        let json = r.to_json();
        assert!(json.contains("\"drop_rate\":0.5"));
        assert!(json.contains("\"kind\":\"drop_slo\""));
        let prom = r.prometheus_text();
        assert!(prom.contains("yav_health_drop_rate{area=\"test\"} 0.5"));
        assert!(prom.contains("yav_health_status{area=\"test\"} 2"));
    }

    #[test]
    fn anomaly_fires_on_sudden_shift() {
        let mut eng = test_engine("anomaly");
        let w = &eng.config.watches[0];
        let events = yav_telemetry::counter(w.events_ctr);
        let drops = yav_telemetry::counter(w.drops_ctr.expect("configured"));
        // Steady state: ~2% drops, under the 10% SLO, with a little
        // jitter so std > 0.
        for i in 0..7u64 {
            events.add(98 + (i % 2));
            drops.add(2);
            eng.tick();
        }
        // Sudden shift to 8% — still inside the SLO, but anomalous.
        events.add(92);
        drops.add(8);
        let r = eng.tick();
        let a = &r.areas[0];
        assert_eq!(a.status, HealthStatus::Warn, "flags={:?}", a.flags);
        assert!(a.flags.iter().any(|f| f.kind() == "drop_anomaly"));
    }

    #[test]
    fn idle_engine_reports_ok_nulls() {
        let mut eng = test_engine("idle");
        let r = eng.tick();
        let a = &r.areas[0];
        assert_eq!(a.status, HealthStatus::Ok);
        assert!(a.p99_us.is_nan());
        assert!(r.to_json().contains("\"p99_us\":null"));
    }
}
