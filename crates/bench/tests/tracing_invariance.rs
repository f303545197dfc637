//! Tracing is an observer, never an input.
//!
//! The yav-trace kill switch, ring capacity and thread count must all be
//! invisible to the pipeline's output: the same seed produces the same
//! world bytes with tracing off, on, on a tiny ring, or on more workers.
//! Alongside the invariance proof, this suite pins the exporter formats
//! (the Chrome trace JSON `figures --trace` emits, and folded stacks)
//! and the SLO health engine's report surfaces.

use std::sync::{Mutex, MutexGuard, OnceLock};
use yav_bench::{Scale, World};
use yav_exec::ExecConfig;

/// The trace collector and telemetry registry are process-global;
/// every test in this binary serialises on this lock and resets the
/// collector so concurrent tests cannot cross-pollute streams.
fn collector_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    yav_trace::set_enabled(false);
    yav_trace::clear();
    yav_trace::set_ring_capacity(yav_trace::DEFAULT_RING_CAPACITY);
    guard
}

fn assert_worlds_equal(a: &World, b: &World, label: &str) {
    assert_eq!(a.http_requests, b.http_requests, "{label}");
    assert_eq!(a.report.detections, b.report.detections, "{label}");
    assert_eq!(
        a.report.malformed_nurls, b.report.malformed_nurls,
        "{label}"
    );
    assert_eq!(a.report.class_counts, b.report.class_counts, "{label}");
    assert_eq!(a.report.total_requests, b.report.total_requests, "{label}");
    assert_eq!(a.report.users_seen, b.report.users_seen, "{label}");
    assert_eq!(
        a.report.pairs.figure2(),
        b.report.pairs.figure2(),
        "{label}"
    );
    assert_eq!(a.truth, b.truth, "{label}");
    assert_eq!(a.a1.rows, b.a1.rows, "{label}");
    assert_eq!(a.a2.rows, b.a2.rows, "{label}");
    assert_eq!(a.a1.spent, b.a1.spent, "{label}");
    assert_eq!(a.a2.spent, b.a2.spent, "{label}");
    assert_eq!(a.feature_sample, b.feature_sample, "{label}");
    assert_eq!(a.shift.coefficient, b.shift.coefficient, "{label}");
}

#[test]
fn world_identical_with_tracing_off_on_and_across_rings_and_threads() {
    let _g = collector_lock();
    let base = World::build_with(Scale::Small, &ExecConfig::serial());

    // Tracing on, default ring.
    yav_trace::set_enabled(true);
    let traced = World::build_with(Scale::Small, &ExecConfig::serial());
    yav_trace::set_enabled(false);
    let trace = yav_trace::drain();
    assert!(!trace.is_empty(), "enabled tracing must record spans");
    assert_worlds_equal(&base, &traced, "tracing on");

    // Tracing on, a ring small enough to wrap constantly, more workers.
    yav_trace::set_ring_capacity(128);
    yav_trace::set_enabled(true);
    let wrapped = World::build_with(Scale::Small, &ExecConfig::with_threads(3));
    yav_trace::set_enabled(false);
    let trace = yav_trace::drain();
    assert!(
        trace.dropped() > 0,
        "128-slot ring must wrap on a world build"
    );
    assert_worlds_equal(&base, &wrapped, "tracing on, tiny ring, 3 threads");
}

/// Minimal schema check over the Chrome trace-event JSON `figures
/// --trace` writes: parses as JSON, events carry the fields Perfetto
/// requires per phase, and every Begin has a matching End per thread.
#[test]
fn chrome_trace_export_matches_event_schema() {
    let _g = collector_lock();
    yav_trace::set_enabled(true);
    // Two workers, so the export holds several trace streams.
    let _ = yav_campaign::execute_parallel(
        &yav_auction::MarketConfig::default(),
        &yav_weblog::PublisherUniverse::build(0xD474, 300, 120),
        &yav_campaign::Campaign::a2().scaled(2),
        &ExecConfig::with_threads(2),
    );
    yav_trace::set_enabled(false);
    let trace = yav_trace::drain();
    assert!(!trace.is_empty());
    assert!(trace.streams.len() > 1, "one trace stream per setup shard");

    let json = yav_trace::chrome_trace_json(&trace);
    let doc: serde_json::Value = serde_json::from_str(&json).expect("exporter emits valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut depth_per_tid = std::collections::BTreeMap::<i64, i64>::new();
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(serde_json::Value::as_str)
            .expect("ph");
        let tid = ev
            .get("tid")
            .and_then(serde_json::Value::as_i64)
            .expect("tid");
        assert!(ev.get("pid").and_then(serde_json::Value::as_i64).is_some());
        let name = ev.get("name").expect("every event is named");
        match ph {
            "M" => assert_eq!(name.as_str(), Some("thread_name")),
            "B" | "E" | "i" => {
                assert!(
                    ev.get("ts").and_then(serde_json::Value::as_i64).is_some(),
                    "timed events carry a logical timestamp"
                );
                let d = depth_per_tid.entry(tid).or_insert(0);
                match ph {
                    "B" => *d += 1,
                    "E" => {
                        *d -= 1;
                        assert!(*d >= 0, "E without matching B on tid {tid}");
                    }
                    _ => {}
                }
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for (tid, depth) in depth_per_tid {
        assert_eq!(depth, 0, "unclosed spans on tid {tid}");
    }

    // The folded-stack exporter agrees on the record count: one logical
    // tick per record, each attributed to exactly one stack.
    let folded = yav_trace::folded_stacks(&trace);
    let weight: u64 = folded
        .lines()
        .map(|l| {
            l.rsplit(' ')
                .next()
                .unwrap()
                .parse::<u64>()
                .expect("weight")
        })
        .sum();
    assert_eq!(weight, trace.len() as u64);
}

/// The health engine must surface ingest p99 latency and drop-rate
/// flags in both of its export formats.
#[test]
fn health_report_surfaces_ingest_latency_and_drop_flags() {
    let _g = collector_lock();
    use yav_trace::{HealthEngine, SloConfig, Watch};

    let mut engine = HealthEngine::new(SloConfig {
        // One-tick window: the report below reflects exactly the batch
        // this test feeds, not telemetry history from sibling tests.
        window: 1,
        // Thresholds tight enough that any real batch breaches them:
        // the test pins that breaches *surface*, not where the bar sits.
        p99_limit_us: 1e-6,
        drop_rate_limit: 1e-6,
        anomaly_sigma: 3.0,
        watches: vec![Watch {
            area: "ingest",
            latency_hist: "ingest.observe.us",
            events_ctr: "core.monitor.events",
            drops_ctr: Some("core.monitor.nurl.parse_error"),
        }],
    });
    engine.tick(); // absorb whatever cumulative history other tests left

    let t = yav_types::SimTime::from_ymd_hm(2015, 10, 1, 12, 0);
    let mut yav = yav_core::YourAdValue::new(None);
    let mut batch = Vec::new();
    for i in 0..64u64 {
        // Well-formed cleartext notifications (events) interleaved with
        // malformed payloads on a screened host (parse-error drops).
        let url = if i % 4 == 0 {
            "http://cpp.imp.mpx.mopub.com/imp?currency=USD".to_owned()
        } else {
            let fields = yav_nurl::NurlFields::minimal(
                yav_types::Adx::MoPub,
                yav_types::DspId(1),
                yav_nurl::PricePayload::Cleartext(yav_types::Cpm::from_f64(
                    0.10 + i as f64 / 100.0,
                )),
                yav_types::ImpressionId(i),
                yav_types::AuctionId(i + 1_000),
            );
            let mut url = String::new();
            yav_nurl::render_into(&fields.as_ref_fields(), &mut url);
            url
        };
        batch.push(yav_weblog::HttpRequest::bare(t, &url));
    }
    let events = yav.observe_batch(&batch);
    assert!(!events.is_empty());

    let report = engine.tick();
    let ingest = &report.areas[0];
    assert!(
        ingest.p99_us.is_finite() && ingest.p99_us > 0.0,
        "batch must record ingest latency, got {}",
        ingest.p99_us
    );
    assert!(
        ingest.drop_rate > 0.1,
        "malformed nURLs must count as drops"
    );
    let kinds: Vec<&str> = ingest.flags.iter().map(|f| f.kind()).collect();
    assert!(kinds.contains(&"latency_slo"), "flags: {kinds:?}");
    assert!(kinds.contains(&"drop_slo"), "flags: {kinds:?}");

    let json = report.to_json();
    let doc: serde_json::Value = serde_json::from_str(&json).expect("health JSON parses");
    let area = &doc
        .get("areas")
        .and_then(serde_json::Value::as_array)
        .expect("areas")[0];
    assert_eq!(
        area.get("area").and_then(serde_json::Value::as_str),
        Some("ingest")
    );
    assert!(
        area.get("p99_us")
            .and_then(serde_json::Value::as_f64)
            .expect("p99 in JSON")
            > 0.0
    );
    assert!(
        area.get("drop_rate")
            .and_then(serde_json::Value::as_f64)
            .expect("drop rate in JSON")
            > 0.0
    );
    let flag_kinds: Vec<&str> = area
        .get("flags")
        .and_then(serde_json::Value::as_array)
        .expect("flags array")
        .iter()
        .map(|f| {
            f.get("kind")
                .and_then(serde_json::Value::as_str)
                .expect("flag kind")
        })
        .collect();
    assert!(flag_kinds.contains(&"latency_slo"));
    assert!(flag_kinds.contains(&"drop_slo"));

    let prom = report.prometheus_text();
    assert!(
        prom.contains("yav_health_p99_us{area=\"ingest\"}"),
        "{prom}"
    );
    assert!(
        prom.contains("yav_health_drop_rate{area=\"ingest\"}"),
        "{prom}"
    );
    // Both breaches (and no anomalies yet — two ticks of history) count
    // into the flag gauge, and the area reads critical overall.
    assert!(
        prom.contains("yav_health_flags{area=\"ingest\"} 2"),
        "{prom}"
    );
    assert!(
        prom.contains("yav_health_status{area=\"ingest\"} 2"),
        "{prom}"
    );
}
