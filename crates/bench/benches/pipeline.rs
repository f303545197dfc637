//! Pipeline benchmarks: analyzer and client ingestion throughput.
//!
//! The analyzer streams millions of HTTP records per experiment; the
//! client sifts every request a device makes. Both must sustain well
//! over 10^5 requests per second.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use yav_analyzer::features::{extract, extract_into, NurlTransport};
use yav_analyzer::userstate::{GlobalState, UserState};
use yav_analyzer::WeblogAnalyzer;
use yav_auction::MarketConfig;
use yav_core::YourAdValue;
use yav_pme::model::TrainConfig;
use yav_pme::Pme;
use yav_weblog::{HttpRequest, PublisherUniverse, WeblogConfig, WeblogGenerator};

/// A deterministic mixed-traffic batch (content, trackers, nURLs).
fn traffic() -> Vec<HttpRequest> {
    WeblogGenerator::new(WeblogConfig::tiny())
        .collect(&MarketConfig::default())
        .requests
}

fn bench_analyzer(c: &mut Criterion) {
    let reqs = traffic();
    let mut g = c.benchmark_group("analyzer");
    g.throughput(Throughput::Elements(reqs.len() as u64));
    g.bench_function("ingest_stream", |b| {
        b.iter(|| {
            let mut analyzer = WeblogAnalyzer::new();
            for r in &reqs {
                black_box(analyzer.ingest(r));
            }
            analyzer.finish().detections.len()
        })
    });
    g.finish();
}

fn bench_features(c: &mut Criterion) {
    // Extract the 288-feature vector from a prepared detection.
    let reqs = traffic();
    let mut analyzer = WeblogAnalyzer::new();
    let mut sample = None;
    for r in &reqs {
        if let Some(rec) = analyzer.ingest(r) {
            sample = Some(rec.meta);
            break;
        }
    }
    let meta = sample.expect("trace contains detections");
    let user = UserState::new();
    let global = GlobalState::default();
    let transport = NurlTransport::default();
    c.bench_function("features/extract_288", |b| {
        b.iter(|| extract(black_box(&meta), &transport, &user, &global))
    });
    // Buffer-reusing variant: the allocation-free hot path.
    c.bench_function("features/extract_288_into", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            extract_into(&mut buf, black_box(&meta), &transport, &user, &global);
            black_box(buf.len())
        })
    });
}

fn bench_client(c: &mut Criterion) {
    let reqs = traffic();
    // Train a model once so encrypted estimation is exercised.
    let universe = PublisherUniverse::build(0xD474, 300, 120);
    let rows = yav_campaign::execute_parallel(
        &MarketConfig::default(),
        &universe,
        &yav_campaign::Campaign::a1().scaled(8),
        &yav_exec::ExecConfig::serial(),
    )
    .rows;
    let pme = Pme::new();
    pme.train_from_campaign(&rows, &TrainConfig::quick());
    let model = pme.current_model().unwrap();

    let mut g = c.benchmark_group("client");
    g.throughput(Throughput::Elements(reqs.len() as u64));
    g.bench_function("observe_stream", |b| {
        b.iter(|| {
            let mut yav = YourAdValue::new(Some(yav_types::City::Madrid));
            yav.install_model(model.clone());
            for r in &reqs {
                black_box(yav.observe(r));
            }
            yav.ledger().len()
        })
    });
    g.finish();
}

fn bench_generator(c: &mut Criterion) {
    c.bench_function("weblog/generate_tiny", |b| {
        b.iter(|| {
            let generator = WeblogGenerator::new(WeblogConfig::tiny());
            let mut n = 0u64;
            generator.run(&MarketConfig::default(), |_| n += 1, |_| {});
            n
        })
    });
}

fn bench_world(_c: &mut Criterion) {
    // A Small-scale world build runs for seconds — far past the harness's
    // minimum sample count — so this benchmark wall-clocks single builds
    // manually, once serial and once at the machine's parallelism. The
    // BENCH_world.json baseline is owned by `benches/world_stream.rs`,
    // which records the streaming builder's 10k/100k/1M ladder.
    use yav_bench::{Scale, World};
    use yav_exec::{default_threads, ExecConfig};
    let mut counts = vec![1usize, default_threads()];
    counts.dedup();
    for &threads in &counts {
        let t0 = std::time::Instant::now();
        let world = World::build_with(Scale::Small, &ExecConfig::with_threads(threads));
        let secs = t0.elapsed().as_secs_f64();
        println!(
            "world_build/small/threads={threads}: {secs:.2} s \
             ({} requests, {} detections, A1 {} rows)",
            world.http_requests,
            world.report.detections.len(),
            world.a1.rows.len()
        );
    }
}

criterion_group!(
    benches,
    bench_analyzer,
    bench_features,
    bench_client,
    bench_generator,
    bench_world
);
criterion_main!(benches);
