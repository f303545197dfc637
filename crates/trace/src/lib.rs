//! Causal span tracing for the your-ad-value pipeline, plus an SLO
//! health engine.
//!
//! Where `yav-telemetry` answers "how many / how slow on aggregate",
//! this crate answers "*which request, which stage, in what order*":
//!
//! * a fixed-size, single-writer **ring journal** per stream of compact
//!   binary [`TraceRecord`]s stamped with **logical sequence numbers**
//!   — no wall clock, so traces of a deterministic sim run are
//!   themselves deterministic and the workspace's wall-clock-in-sim
//!   lint rule holds;
//! * **causal spans** ([`trace_span!`]) and point events
//!   ([`trace_instant!`]) that nest through the monitor's
//!   sift → decode → predict → commit stages and across `yav-exec`
//!   shard fan-outs ([`stream_scope`] gives every shard its own stream,
//!   merged in canonical `(group, shard)` order regardless of worker
//!   scheduling);
//! * **exporters**: Chrome trace-event JSON ([`chrome_trace_json`],
//!   loadable in Perfetto) and folded-stack flamegraph text
//!   ([`folded_stacks`]);
//! * a **health engine** ([`health::HealthEngine`]) turning cumulative
//!   telemetry histograms into rolling-window p50/p95/p99, drop rates,
//!   and SLO/anomaly flags in one [`health::HealthReport`].
//!
//! Tracing is **disabled by default**. Disabled call sites pay one
//! relaxed atomic load and a branch — no allocation, no TLS write — and
//! recording never feeds back into pipeline values, so world output is
//! bit-identical with tracing on or off (CI pins this).
//!
//! ```
//! yav_trace::set_enabled(true);
//! {
//!     let _span = yav_trace::trace_span!("ingest.observe");
//!     yav_trace::trace_instant!("ingest.drop", 2);
//! }
//! let trace = yav_trace::drain();
//! assert_eq!(trace.len(), 3);
//! let json = yav_trace::chrome_trace_json(&trace);
//! assert!(json.contains("\"ingest.observe\""));
//! yav_trace::set_enabled(false);
//! yav_trace::clear();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod collector;
mod export;
pub mod health;
mod record;
mod ring;

pub use collector::{
    clear, current_ctx, drain, enabled, flush_thread, instant, instant_cached, next_group,
    set_enabled, set_ring_capacity, stream_scope, SpanGuard, DEFAULT_RING_CAPACITY,
};
pub use export::{chrome_trace_json, folded_stacks};
pub use health::{
    AreaHealth, HealthEngine, HealthFlag, HealthReport, HealthStatus, SloConfig, Watch,
};
pub use record::{
    name_of, span_name, EventKind, NameId, SpanName, TraceRecord, NO_PARENT, WIRE_SIZE,
};
pub use ring::{StreamId, StreamTrace, Trace, TraceRing};

#[doc(hidden)]
pub use std::sync::OnceLock as __OnceName;

/// Opens an RAII trace span: `let _t = trace_span!("ingest.observe");`
/// (optionally with a payload: `trace_span!("ingest.observe_batch", batch_len)`).
///
/// The name is resolved through the interner once per call site and
/// cached in a hidden `static`; afterwards the enabled check is one
/// atomic load. Span names follow `area.op` like metric names — the
/// `span-hygiene` lint rule enforces this. Hold the guard in a named
/// binding; binding to `_` drops it immediately and traces nothing.
#[macro_export]
macro_rules! trace_span {
    ($name:literal) => {
        $crate::trace_span!($name, 0u64)
    };
    ($name:literal, $arg:expr) => {{
        static __NAME: $crate::__OnceName<$crate::SpanName> = $crate::__OnceName::new();
        $crate::SpanGuard::enter(&__NAME, $name, ($arg) as u64)
    }};
}

/// Records a point event under the current span:
/// `trace_instant!("ingest.drop", reason_code)`.
#[macro_export]
macro_rules! trace_instant {
    ($name:literal) => {
        $crate::trace_instant!($name, 0u64)
    };
    ($name:literal, $arg:expr) => {{
        static __NAME: $crate::__OnceName<$crate::SpanName> = $crate::__OnceName::new();
        $crate::instant_cached(&__NAME, $name, ($arg) as u64)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collector tests share the process-global collector, so they run
    /// under one lock to stay independent of test-thread scheduling.
    fn with_collector_lock<R>(f: impl FnOnce() -> R) -> R {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        clear();
        set_enabled(true);
        let out = f();
        set_enabled(false);
        clear();
        out
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        with_collector_lock(|| {
            set_enabled(false);
            let _s = trace_span!("core.test_span");
            trace_instant!("core.test_instant", 7);
            drop(_s);
            assert!(drain().is_empty());
        });
    }

    #[test]
    fn spans_nest_and_drain_in_order() {
        with_collector_lock(|| {
            {
                let _outer = trace_span!("core.outer", 1);
                let _inner = trace_span!("core.inner");
                trace_instant!("core.tick", 9);
            }
            let t = drain();
            assert_eq!(t.streams.len(), 1);
            let recs = &t.streams[0].records;
            assert_eq!(recs.len(), 5);
            assert_eq!(recs[0].kind, EventKind::Begin);
            assert_eq!(name_of(recs[0].name), "core.outer");
            assert_eq!(recs[0].arg, 1);
            assert_eq!(recs[1].parent, recs[0].seq);
            assert_eq!(recs[2].parent, recs[1].seq);
            // Guards drop LIFO: inner ends before outer.
            assert_eq!(name_of(recs[3].name), "core.inner");
            assert_eq!(name_of(recs[4].name), "core.outer");
        });
    }

    #[test]
    fn stream_scopes_merge_canonically() {
        with_collector_lock(|| {
            let _root = trace_span!("core.fanout_root");
            let origin = current_ctx();
            assert!(origin.is_some());
            let group = next_group();
            // Simulate shards finishing out of order.
            for index in [2u32, 0, 1] {
                stream_scope(StreamId { group, index }, origin, || {
                    let _s = trace_span!("core.shard_work", index as u64);
                });
            }
            drop(_root);
            let t = drain();
            // Canonical order: main thread (group 0) first, then shards
            // by index — not by completion order.
            let labels: Vec<String> = t.streams.iter().map(|s| s.stream.label()).collect();
            assert_eq!(labels, vec!["t0", "g1.s0", "g1.s1", "g1.s2"]);
            for s in &t.streams[1..] {
                assert_eq!(s.origin, origin);
            }
        });
    }

    #[test]
    fn ring_capacity_bounds_memory() {
        with_collector_lock(|| {
            set_ring_capacity(16);
            for i in 0..100u64 {
                trace_instant!("core.spin", i);
            }
            let t = drain();
            set_ring_capacity(DEFAULT_RING_CAPACITY);
            assert_eq!(t.len(), 16);
            assert_eq!(t.dropped(), 84);
        });
    }
}
