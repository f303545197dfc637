//! Lightweight process-wide telemetry for the your-ad-value pipeline.
//!
//! One [`Registry`] holds named [`Counter`]s, [`Gauge`]s and
//! log-bucketed [`Histogram`]s (p50/p90/p99/max). The [`span!`] macro
//! times a region into the histogram `<name>.ms`. Exporters render the
//! registry as Prometheus text, a JSON snapshot or a human report.
//!
//! Metric names follow `<crate>.<subsystem>.<name>` (see DESIGN.md,
//! "Telemetry"). Instrumentation is always on.
//!
//! ```
//! use yav_telemetry as telemetry;
//!
//! telemetry::counter("auction.runs").inc();
//! {
//!     let _span = telemetry::span!("auction.run");
//!     telemetry::histogram("auction.charge_cpm").observe(1.25);
//! }
//! assert!(telemetry::prometheus_text().contains("yav_auction_runs 1"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod export;
mod metrics;
mod registry;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HistogramTimer};
pub use registry::{registry, Registry};

/// Starts an RAII span timer: `let _span = span!("auction.run");`.
///
/// The name is a string literal. The guard is the histogram
/// `<name>.ms`'s [`Histogram::time_ms`] timer, so on drop the elapsed
/// milliseconds land there. Hold it in a named binding; binding to `_`
/// drops it at once and times nothing.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::histogram(concat!($name, ".ms")).time_ms()
    };
}

/// The global counter named `name` (created on first use).
pub fn counter(name: &str) -> Counter {
    registry().counter(name)
}

/// The global gauge named `name` (created on first use).
pub fn gauge(name: &str) -> Gauge {
    registry().gauge(name)
}

/// The global histogram named `name` (created on first use).
pub fn histogram(name: &str) -> Histogram {
    registry().histogram(name)
}

/// The global registry in Prometheus text exposition format.
pub fn prometheus_text() -> String {
    export::prometheus_text(registry())
}

/// The global registry as one JSON object.
pub fn json_snapshot() -> String {
    export::json_snapshot(registry())
}

/// The global registry as a human-readable report.
pub fn report() -> String {
    export::report(registry())
}

/// Renders any registry (not just the global one) as Prometheus text.
pub fn prometheus_text_of(registry: &Registry) -> String {
    export::prometheus_text(registry)
}

/// Renders any registry as a JSON snapshot.
pub fn json_snapshot_of(registry: &Registry) -> String {
    export::json_snapshot(registry)
}

/// The process's peak resident set size (high-water mark) in bytes.
///
/// Reads `VmHWM` from `/proc/self/status`, so it is Linux-only and
/// returns `None` elsewhere. The value is monotone over the process
/// lifetime: benchmarks that report it must run their measurements in
/// ascending memory order.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}
