//! Journal exporters and an SLO health engine for the your-ad-value
//! pipeline.
//!
//! The spans themselves live in `yav-telemetry`: [`yav_telemetry::span!`]
//! always times its region into the registry, which is always on, and
//! writes causal Begin/End records while [`yav_telemetry::journal`] is
//! on, which it is not by default; [`yav_telemetry::instant!`] writes
//! point events. This crate reads what they leave behind:
//!
//! * **exporters**: Chrome trace-event JSON ([`chrome_trace_json`],
//!   loadable in Perfetto) and folded-stack flamegraph text
//!   ([`folded_stacks`]) over a drained [`yav_telemetry::journal::Trace`];
//! * a **health engine** ([`health::HealthEngine`]) turning cumulative
//!   telemetry histograms into rolling-window p50/p95/p99, drop rates,
//!   and SLO/anomaly flags in one [`health::HealthReport`].
//!
//! ```
//! use yav_telemetry::journal;
//!
//! journal::set_enabled(true);
//! {
//!     let _span = yav_telemetry::span!("ingest.observe", 2);
//!     yav_telemetry::instant!("ingest.drop", 1);
//! }
//! journal::set_enabled(false);
//! let trace = journal::drain();
//! let json = yav_trace::chrome_trace_json(&trace);
//! assert!(json.contains("\"ingest.observe\""));
//! journal::clear();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod export;
pub mod health;

pub use export::{chrome_trace_json, folded_stacks};
pub use health::{
    AreaHealth, HealthEngine, HealthFlag, HealthReport, HealthStatus, SloConfig, Watch,
};
