//! Ingestion-throughput benchmarks: the zero-copy nURL pipeline.
//!
//! The monitor and analyzer both sit on the device's full request
//! stream, of which ~95% is ordinary traffic that must be rejected as
//! cheaply as possible and ~5% is ad traffic worth parsing. This bench
//! wall-clocks two ingestion strategies over the same streams:
//!
//! * `owned` — parse every request with the owning `Url` parser, then
//!   template-parse exchange URLs (the analyzer's pre-zero-copy shape:
//!   several heap allocations per request, notification or not);
//! * `borrowed` — `UrlRef` + reusable `UrlScratch` end to end (the
//!   current shape: no steady-state allocation anywhere).
//!
//! plus the end-to-end monitor: serial `observe` vs `observe_batch`.
//! Results land in `BENCH_ingest.json`; the acceptance bar is borrowed
//! ≥ 3× owned on the mixed stream.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use yav_core::YourAdValue;
use yav_crypto::{PriceCrypter, PriceKeys};
use yav_nurl::fields::PricePayload;
use yav_nurl::{template, NurlFields, Url, UrlRef, UrlScratch};
use yav_pme::model::{ClientModel, TrainConfig};
use yav_types::{Adx, AuctionId, Cpm, DspId, ImpressionId, SimTime};
use yav_weblog::HttpRequest;

/// Ordinary-traffic URL shapes (hosts the exchange screen rejects).
fn ordinary_url(i: usize) -> String {
    match i % 5 {
        0 => format!(
            "http://www.dailynoticias{}.example/articles/{}?ref=home",
            i % 9,
            i
        ),
        1 => format!("https://cdn.fastassets.example/lib/v{}/app.min.js", i % 40),
        2 => format!(
            "https://metricsrus.example/collect?sid={}&ev=pv&ts={}",
            i * 7,
            i
        ),
        3 => format!(
            "http://api.superdeporte.app{}.example/feed?page={}&utm_source=social",
            i % 6,
            i % 30
        ),
        _ => format!(
            "https://fotogrid.example/u/{}/grid?size=200x200&cb=%7B%22v%22%3A{}%7D",
            i % 1000,
            i
        ),
    }
}

/// One well-formed notification per call, cycling exchanges and price
/// visibility.
fn nurl(i: usize, crypter: &PriceCrypter) -> String {
    let adx = Adx::ALL[i % Adx::ALL.len()];
    let price = if i.is_multiple_of(2) {
        PricePayload::Cleartext(Cpm::from_f64(0.10 + (i % 90) as f64 / 100.0))
    } else {
        PricePayload::Encrypted(crypter.encrypt(500_000 + i as u64, [i as u8; 16]))
    };
    let fields = NurlFields::minimal(
        adx,
        DspId((i % 11) as u32),
        price,
        ImpressionId(i as u64),
        AuctionId(i as u64 + 1_000_000),
    );
    yav_nurl::emit(&fields).to_string()
}

/// Hostile shapes: truncations, bad escapes, junk.
fn hostile_url(i: usize) -> String {
    match i % 6 {
        0 => String::new(),
        1 => "not a url at all".to_owned(),
        2 => "http://cpp.imp.mpx.mopub.com/imp?%zz=1".to_owned(),
        3 => "http://ex ample.com/".to_owned(),
        4 => format!(
            "http://cpp.imp.mpx.mopub.com/imp?charge_price=0.5&pad={}",
            "%".repeat(i % 50)
        ),
        _ => "http://cpp.imp.mpx.mopub.com/imp?charge_price=".to_owned(),
    }
}

/// The realistic stream: ~95% ordinary, ~4% notifications, ~1% hostile.
fn mixed_stream(n: usize, crypter: &PriceCrypter) -> Vec<String> {
    (0..n)
        .map(|i| match i % 100 {
            7 | 23 | 51 | 89 => nurl(i, crypter),
            99 => hostile_url(i),
            _ => ordinary_url(i),
        })
        .collect()
}

/// Owned-parser ingestion: every request pays `Url::parse`.
fn ingest_owned(urls: &[String]) -> usize {
    let mut matched = 0;
    for raw in urls {
        let Ok(url) = Url::parse(raw) else { continue };
        if yav_nurl::exchange_host(url.host()).is_some() {
            if let Ok(Some(_)) = template::parse(&url) {
                matched += 1;
            }
        }
    }
    matched
}

/// Borrowed zero-copy ingestion with a reusable scratch — the monitor's
/// sift shape: authority-only screen carrying its verdict into the
/// borrowed parse, so survivors never re-scan the host roster.
fn ingest_borrowed(urls: &[String], scratch: &mut UrlScratch) -> usize {
    let mut matched = 0;
    for raw in urls {
        let Ok(adx) = yav_nurl::screen_adx(raw) else {
            continue;
        };
        let Ok(url) = UrlRef::parse(raw) else {
            continue;
        };
        if let Ok(Some(_)) = template::parse_borrowed_screened(adx, &url, scratch) {
            matched += 1;
        }
    }
    matched
}

/// The §3.2 single-tree client from one paper-default 40-tree training
/// run. Cross-validation is cut to one 2-fold pass — the bench needs the
/// estimator, not the CV table.
fn trained_model() -> ClientModel {
    let universe = yav_weblog::PublisherUniverse::build(0xD474, 300, 120);
    let rows = yav_campaign::execute_parallel(
        &yav_auction::MarketConfig::default(),
        &universe,
        &yav_campaign::Campaign::a1().scaled(10),
        &yav_exec::ExecConfig::serial(),
    )
    .rows;
    let pme = yav_pme::engine::Pme::new();
    pme.train_from_campaign(
        &rows,
        &TrainConfig {
            cv_folds: 2,
            cv_runs: 1,
            max_rows: 6_000,
            ..TrainConfig::default()
        },
    );
    pme.current_model().expect("model just trained")
}

fn bench_parsers(c: &mut Criterion) {
    let crypter = PriceCrypter::new(PriceKeys::derive("ingest-bench"));
    let stream = mixed_stream(20_000, &crypter);
    let mut scratch = UrlScratch::new();
    let mut g = c.benchmark_group("ingest");
    g.sample_size(20);
    g.bench_function("owned_mixed_20k", |b| {
        b.iter(|| ingest_owned(black_box(&stream)))
    });
    g.bench_function("borrowed_mixed_20k", |b| {
        b.iter(|| ingest_borrowed(black_box(&stream), &mut scratch))
    });
    g.finish();
}

fn bench_baseline(_c: &mut Criterion) {
    // The BENCH_ingest.json baseline: per-request ns for each ingestion
    // strategy on each stream, plus the end-to-end monitor serial vs
    // batch — manual best-of wall clock so rows are directly comparable.
    let crypter = PriceCrypter::new(PriceKeys::derive("ingest-bench"));
    let n = 200_000;
    let mixed = mixed_stream(n, &crypter);
    let nurls: Vec<String> = (0..20_000).map(|i| nurl(i, &crypter)).collect();
    let hostile: Vec<String> = (0..20_000).map(hostile_url).collect();

    let per_req = |rows: usize, passes: usize, f: &mut dyn FnMut() -> usize| -> f64 {
        let mut best = f64::INFINITY;
        let mut sink = 0usize;
        for _ in 0..passes {
            let t0 = std::time::Instant::now();
            sink = sink.wrapping_add(f());
            best = best.min(t0.elapsed().as_secs_f64());
        }
        black_box(sink);
        best / rows as f64 * 1e9
    };

    let mut scratch = UrlScratch::new();
    let mut results = Vec::new();
    for (stream_name, urls) in [("mixed", &mixed), ("nurl", &nurls), ("hostile", &hostile)] {
        let owned = per_req(urls.len(), 10, &mut || ingest_owned(urls));
        let borrowed = per_req(urls.len(), 10, &mut || ingest_borrowed(urls, &mut scratch));
        println!(
            "ingest/{stream_name}: per-req ns owned {owned:.0}, \
             borrowed {borrowed:.0} ({:.1}x vs owned)",
            owned / borrowed
        );
        results.push((stream_name, owned, borrowed));
    }

    // SIMD dispatch smoke: the same borrowed ingest under every forced
    // tier — scalar reference, SWAR portable fallback, and whatever
    // native tiers the host offers. The cross_impl suite proves the
    // tiers bit-identical, so any delta here is pure kernel speed.
    let mut dispatch_rows = Vec::new();
    for lvl in yav_simd::Level::all()
        .iter()
        .copied()
        .filter(|l| l.available())
    {
        yav_simd::force_level(Some(lvl));
        let mixed_ns = per_req(mixed.len(), 10, &mut || {
            ingest_borrowed(&mixed, &mut scratch)
        });
        let nurl_ns = per_req(nurls.len(), 10, &mut || {
            ingest_borrowed(&nurls, &mut scratch)
        });
        println!(
            "ingest/simd_dispatch[{}]: per-req ns mixed {mixed_ns:.0}, nurl {nurl_ns:.0}",
            lvl.name()
        );
        dispatch_rows.push((lvl.name(), mixed_ns, nurl_ns));
    }
    yav_simd::force_level(None);

    // End-to-end monitor, serial vs batch, under the §3.2 single-tree
    // client. On the mixed stream the sift dominates (and is identical in
    // both paths), so batch ≈ serial; on the all-notification stream
    // prediction is still a rounding error next to the sift.
    let t = SimTime::from_ymd_hm(2015, 10, 1, 12, 0);
    let model = trained_model();
    let mut observe_rows = Vec::new();
    for (stream_name, urls) in [("mixed", &mixed), ("nurl", &nurls)] {
        let requests: Vec<HttpRequest> = urls.iter().map(|u| HttpRequest::bare(t, u)).collect();

        let mut serial = YourAdValue::new(None);
        serial.install_model(model.clone());
        let observe_serial = per_req(requests.len(), 5, &mut || {
            let mut events = 0;
            for req in &requests {
                if serial.observe(req).is_some() {
                    events += 1;
                }
            }
            drop(serial.take_contributions());
            events
        });

        let mut batched = YourAdValue::new(None);
        batched.install_model(model.clone());
        // The staged batch path times each pass into
        // `ingest.batch.{sift,predict,commit}.us`; delta the exact sums
        // around the run for a per-request phase breakdown.
        let phases = [
            yav_telemetry::histogram("ingest.batch.sift.us"),
            yav_telemetry::histogram("ingest.batch.predict.us"),
            yav_telemetry::histogram("ingest.batch.commit.us"),
        ];
        let sums_before: Vec<f64> = phases.iter().map(|h| h.snapshot().sum).collect();
        let passes = 5;
        let observe_batch = per_req(requests.len(), passes, &mut || {
            let mut events = 0;
            for chunk in requests.chunks(4096) {
                events += batched.observe_batch(chunk).len();
            }
            drop(batched.take_contributions());
            events
        });
        let total_reqs = (requests.len() * passes) as f64;
        let phase_ns: Vec<f64> = phases
            .iter()
            .zip(&sums_before)
            .map(|(h, before)| (h.snapshot().sum - before) * 1e3 / total_reqs)
            .collect();
        println!(
            "ingest/observe_{stream_name}[tree]: per-req ns serial {observe_serial:.0}, \
             batch {observe_batch:.0} ({:.2}x; sift {:.0} + predict {:.0} + commit {:.0})",
            observe_serial / observe_batch,
            phase_ns[0],
            phase_ns[1],
            phase_ns[2]
        );
        observe_rows.push((stream_name, observe_serial, observe_batch, phase_ns));
    }

    let mut json = String::from("[\n");
    json.push_str(&format!("  {},\n", yav_bench::machine_json()));
    for (stream_name, owned, borrowed) in &results {
        json.push_str(&format!(
            "  {{\"bench\":\"ingest_owned_{stream_name}\",\"ns_per_req\":{owned:.1}}},\n  \
             {{\"bench\":\"ingest_borrowed_{stream_name}\",\"ns_per_req\":{borrowed:.1},\
             \"speedup_vs_owned\":{:.2}}},\n",
            owned / borrowed
        ));
    }
    for (level, mixed_ns, nurl_ns) in &dispatch_rows {
        json.push_str(&format!(
            "  {{\"bench\":\"simd_dispatch_mixed\",\"level\":\"{level}\",\
             \"ns_per_req\":{mixed_ns:.1}}},\n  \
             {{\"bench\":\"simd_dispatch_nurl\",\"level\":\"{level}\",\
             \"ns_per_req\":{nurl_ns:.1}}},\n"
        ));
    }
    // The nurl rows keep their `_tree` suffix and every row its `client`
    // field, so they stay comparable with earlier recordings, whose
    // unsuffixed nurl rows were a full-forest client.
    for (i, (stream_name, serial, batch, phase_ns)) in observe_rows.iter().enumerate() {
        let tail = if i + 1 == observe_rows.len() {
            "\n]\n"
        } else {
            ",\n"
        };
        let suffix = if *stream_name == "nurl" { "_tree" } else { "" };
        json.push_str(&format!(
            "  {{\"bench\":\"observe_serial_{stream_name}{suffix}\",\"client\":\"tree\",\
             \"ns_per_req\":{serial:.1}}},\n  \
             {{\"bench\":\"observe_batch_{stream_name}{suffix}\",\"client\":\"tree\",\
             \"ns_per_req\":{batch:.1},\
             \"speedup_vs_serial\":{:.2},\"sift_ns\":{:.1},\"predict_ns\":{:.1},\
             \"commit_ns\":{:.1}}}{tail}",
            serial / batch,
            phase_ns[0],
            phase_ns[1],
            phase_ns[2]
        ));
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("cannot write {path}: {e}");
    } else {
        println!("ingest baseline written to {path}");
    }
}

criterion_group!(benches, bench_parsers, bench_baseline);
criterion_main!(benches);
