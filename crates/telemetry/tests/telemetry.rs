//! Integration tests: quantile accuracy against an exact reference,
//! concurrent writers, span nesting, the span/journal contract and
//! exporter output shape.
//!
//! Tests in this binary share the process-global registry, so each test
//! uses its own metric-name prefix.

use yav_telemetry as telemetry;

/// A tiny deterministic generator (SplitMix64) — no rand dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[test]
fn histogram_quantiles_track_exact_reference() {
    let registry = telemetry::Registry::new();
    let h = registry.histogram("q.accuracy");
    let mut rng = Rng(7);
    // Log-normal-ish spread: the shape charge prices actually have.
    let samples: Vec<f64> = (0..10_000)
        .map(|_| {
            let n = (0..12).map(|_| rng.f64()).sum::<f64>() - 6.0; // ~N(0,1)
            (0.4 + 1.1 * n).exp()
        })
        .collect();
    for &s in &samples {
        h.observe(s);
    }

    let mut sorted = samples.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let exact =
        |q: f64| sorted[((q * sorted.len() as f64).ceil() as usize - 1).min(sorted.len() - 1)];

    let snap = h.snapshot();
    for (estimate, q) in [(snap.p50, 0.50), (snap.p90, 0.90), (snap.p99, 0.99)] {
        let truth = exact(q);
        let rel = (estimate - truth).abs() / truth;
        // Bucket width is 2^(1/8) ≈ 9 %, and the estimate is the bucket's
        // geometric midpoint, so the error is bounded by ~4.5 %.
        assert!(
            rel < 0.05,
            "p{} estimate {estimate} vs exact {truth} (rel {rel:.4})",
            q * 100.0
        );
    }
    assert_eq!(snap.count, 10_000);
    assert_eq!(snap.min, *sorted.first().unwrap());
    assert_eq!(snap.max, *sorted.last().unwrap());
    let exact_sum: f64 = samples.iter().sum();
    assert!((snap.sum - exact_sum).abs() / exact_sum < 1e-9);
}

#[test]
fn counters_and_gauges_survive_concurrent_writers() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let counter = telemetry::counter("conc.counter");
    let gauge = telemetry::gauge("conc.gauge");
    let histogram = telemetry::histogram("conc.histogram");
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                // Mix cached-handle and by-name lookups: both paths are
                // what instrumented code does in practice.
                for i in 0..PER_THREAD {
                    counter.inc();
                    telemetry::counter("conc.counter_by_name").inc();
                    gauge.add(1.0);
                    if i % 64 == 0 {
                        histogram.observe(1.0 + (i % 7) as f64);
                    }
                }
            });
        }
    });
    assert_eq!(counter.get(), THREADS * PER_THREAD);
    assert_eq!(
        telemetry::counter("conc.counter_by_name").get(),
        THREADS * PER_THREAD
    );
    assert_eq!(gauge.get(), (THREADS * PER_THREAD) as f64);
    assert_eq!(histogram.count(), THREADS * (PER_THREAD / 64 + 1));
}

#[test]
fn spans_nest_and_unwind_in_order() {
    let outer = telemetry::histogram("nest.outer.us");
    let inner = telemetry::histogram("nest.inner.us");
    {
        let _outer = telemetry::span!("nest.outer");
        {
            let _inner = telemetry::span!("nest.inner");
        }
        // The inner span recorded on its own drop, before the outer one.
        assert_eq!(inner.count(), 1);
        assert_eq!(outer.count(), 0);
    }
    // Each span recorded exactly one duration into `<name>.us`.
    assert_eq!(outer.count(), 1);
    assert_eq!(inner.count(), 1);
}

/// The span contract: the registry sample is unconditional, the journal
/// records only while the journal is on. The only test in this binary
/// that turns the journal on, so no lock is needed.
#[test]
fn span_always_times_and_journals_only_when_enabled() {
    use telemetry::journal::{self, EventKind};
    fn run(arg: u64) {
        let _span = telemetry::span!("contract.region", arg);
        telemetry::instant!("contract.tick", arg);
    }
    let by_name = || telemetry::histogram("contract.region.us");

    journal::clear();
    run(1);
    assert_eq!(by_name().count(), 1, "journal off: one sample");
    assert!(journal::drain().is_empty(), "journal off: no record");

    journal::set_enabled(true);
    run(2);
    journal::set_enabled(false);
    assert_eq!(by_name().count(), 2, "journal on: one more sample");
    let trace = journal::drain();
    let records = &trace.streams[0].records;
    let kinds: Vec<EventKind> = records.iter().map(|r| r.kind).collect();
    assert_eq!(
        kinds,
        [EventKind::Begin, EventKind::Instant, EventKind::End]
    );
    assert_eq!(journal::name_of(records[0].name), "contract.region");
    assert_eq!(journal::name_of(records[1].name), "contract.tick");
    assert_eq!((records[0].arg, records[1].arg), (2, 2));
    assert_eq!(records[2].parent, records[0].seq);
}

#[test]
fn prometheus_text_has_the_exposition_shape() {
    let registry = telemetry::Registry::new();
    registry.counter("prom.events").add(3);
    registry.gauge("prom.drift").set(-0.25);
    let h = registry.histogram("prom.latency_ms");
    for v in [1.0, 2.0, 4.0] {
        h.observe(v);
    }

    let text = telemetry::prometheus_text_of(&registry);
    let lines: Vec<&str> = text.lines().collect();
    // Counter: TYPE header immediately followed by the sample.
    let i = lines
        .iter()
        .position(|l| *l == "# TYPE yav_prom_events counter")
        .unwrap();
    assert_eq!(lines[i + 1], "yav_prom_events 3");
    let g = lines
        .iter()
        .position(|l| *l == "# TYPE yav_prom_drift gauge")
        .unwrap();
    assert_eq!(lines[g + 1], "yav_prom_drift -0.25");
    // Histogram exports as a summary with quantiles, sum and count.
    assert!(lines.contains(&"# TYPE yav_prom_latency_ms summary"));
    assert!(text.contains("yav_prom_latency_ms{quantile=\"0.5\"} "));
    assert!(text.contains("yav_prom_latency_ms{quantile=\"0.9\"} "));
    assert!(text.contains("yav_prom_latency_ms{quantile=\"0.99\"} "));
    assert!(text.contains("yav_prom_latency_ms_sum 7"));
    assert!(text.contains("yav_prom_latency_ms_count 3"));
    // Every non-comment line is `name[{labels}] value`.
    for line in &lines {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').unwrap();
        assert!(name.starts_with("yav_"), "bad metric name in {line:?}");
        assert!(
            value == "NaN" || value.parse::<f64>().is_ok(),
            "bad sample value in {line:?}"
        );
    }
}

#[test]
fn json_snapshot_is_valid_and_complete() {
    let registry = telemetry::Registry::new();
    registry.counter("json.seen").inc();
    registry.gauge("json.level").set(2.5);
    registry.histogram("json.sizes").observe(10.0);
    let json = telemetry::json_snapshot_of(&registry);
    assert!(json.contains("\"json.seen\":1"));
    assert!(json.contains("\"json.level\":2.5"));
    assert!(json.contains("\"json.sizes\":{\"count\":1,"));
    // Empty histogram extrema serialize as null, never NaN.
    registry.histogram("json.empty");
    let json = telemetry::json_snapshot_of(&registry);
    assert!(json.contains("\"json.empty\":{\"count\":0,\"underflow\":0,\"sum\":0,\"min\":null"));
    assert!(!json.contains("NaN"));
}
