//! Lightweight process-wide telemetry for the your-ad-value pipeline.
//!
//! One [`Registry`] holds named [`Counter`]s, [`Gauge`]s and
//! log-bucketed [`Histogram`]s (p50/p90/p99/max). Exporters render the
//! registry as Prometheus text, a JSON snapshot or a human report. The
//! registry is always on.
//!
//! [`span!`] is the one way to time a region: it always records the
//! elapsed microseconds into the histogram `<name>.us`, and it writes
//! Begin/End records into the causal [`journal`] only while the journal
//! is on (it is off by default). [`instant!`] writes a point event into
//! the journal and records no metric.
//!
//! Metric names follow `<crate>.<subsystem>.<name>` (see DESIGN.md,
//! "Telemetry").
//!
//! ```
//! use yav_telemetry as telemetry;
//!
//! telemetry::counter("auction.runs").inc();
//! {
//!     let _span = telemetry::span!("auction.run");
//!     telemetry::histogram("auction.charge_cpm").observe(1.25);
//! }
//! assert_eq!(telemetry::histogram("auction.run.us").count(), 1);
//! assert!(telemetry::prometheus_text().contains("yav_auction_runs 1"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod export;
pub mod journal;
mod metrics;
mod registry;
mod span;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{registry, Registry};
pub use span::Span;
#[doc(hidden)]
pub use span::{InstantSite, SpanSite};

/// Opens a span: `let _span = span!("auction.market");`, optionally with
/// a journal payload: `span!("ingest.observe", batch.len())`.
///
/// The name is a string literal following `area.op`. A `static` at the
/// call site resolves the histogram `<name>.us` and the journal name
/// once. The returned [`Span`] records the elapsed microseconds into
/// that histogram on drop, always; it writes a Begin record carrying
/// `arg` and the matching End only while [`journal::enabled`]. A span
/// costs a clock pair, so it marks a region that runs at most once per
/// auction, estimate, batch, shard or run — never once per request.
/// Hold it in a named binding; binding to `_` drops it at once and
/// times nothing.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span!($name, 0u64)
    };
    ($name:literal, $arg:expr) => {{
        static SITE: $crate::SpanSite = $crate::SpanSite::new($name);
        SITE.enter(($arg) as u64)
    }};
}

/// Writes a journal point event under the open span:
/// `instant!("ingest.drop", reason_code)`. Records no metric; while the
/// journal is off it costs one relaxed load and a branch.
#[macro_export]
macro_rules! instant {
    ($name:literal) => {
        $crate::instant!($name, 0u64)
    };
    ($name:literal, $arg:expr) => {{
        static SITE: $crate::InstantSite = $crate::InstantSite::new($name);
        SITE.record(($arg) as u64)
    }};
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
