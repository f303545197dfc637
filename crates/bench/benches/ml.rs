//! Machine-learning benchmarks: the PME's training and prediction costs.
//!
//! Training happens server-side on campaign reports (tens of thousands of
//! rows); prediction happens on the client per encrypted notification and
//! must stay in the microsecond range.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use yav_ml::tree::argmax;
use yav_ml::{CompiledForest, Dataset, Discretizer, RandomForest, RandomForestConfig, TreeConfig};

/// A deterministic 3-class dataset shaped like campaign ground truth:
/// mixed ordinal features, feature-driven labels with mild noise.
fn dataset(n: usize) -> Dataset {
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let city = (i % 4) as f64;
        let tod = ((i / 4) % 6) as f64;
        let iab = ((i * 7) % 18) as f64;
        let app = ((i / 3) % 2) as f64;
        let noise = ((i * 131) % 17) as f64;
        let score = iab * 0.4 + app * 3.0 + tod * 0.3 + city * 0.1 + (noise - 8.0) * 0.05;
        let label = if score < 2.5 {
            0
        } else if score < 5.0 {
            1
        } else {
            2
        };
        rows.push(vec![city, tod, iab, app, noise]);
        labels.push(label);
    }
    Dataset::new(
        rows,
        labels,
        3,
        ["city", "tod", "iab", "app", "noise"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    )
}

fn bench_discretizer(c: &mut Criterion) {
    let prices: Vec<f64> = (0..5000)
        .map(|i| 0.05 * 1.002f64.powi(i % 2000) * (1.0 + (i % 7) as f64 / 7.0))
        .collect();
    c.bench_function("ml/discretizer_fit_5k", |b| {
        b.iter(|| Discretizer::fit(black_box(&prices), 4))
    });
    let d = Discretizer::fit(&prices, 4);
    c.bench_function("ml/discretizer_assign", |b| {
        b.iter(|| d.assign(black_box(1.3)))
    });
}

fn bench_forest(c: &mut Criterion) {
    let data = dataset(4000);
    let cfg = RandomForestConfig {
        n_trees: 15,
        tree: TreeConfig {
            max_depth: 12,
            ..TreeConfig::default()
        },
        seed: 1,
        threads: 4,
    };
    let mut g = c.benchmark_group("ml");
    g.sample_size(10);
    g.bench_function("forest_fit_4k_rows", |b| {
        b.iter(|| RandomForest::fit(&data, &cfg))
    });
    g.finish();

    let forest = RandomForest::fit(&data, &cfg);
    let row = data.row(17).to_vec();
    let mut g = c.benchmark_group("ml_predict");
    g.throughput(Throughput::Elements(1));
    let mut probs = vec![0.0f64; 3];
    g.bench_function("forest_predict", |b| {
        b.iter(|| {
            forest.predict_proba_into(black_box(&row), &mut probs);
            argmax(&probs)
        })
    });
    let tree = forest.representative_tree(&data);
    g.bench_function("tree_predict", |b| b.iter(|| tree.predict(black_box(&row))));
    let compiled = CompiledForest::compile(&forest);
    g.bench_function("compiled_predict_into", |b| {
        b.iter(|| {
            compiled.predict_into(black_box(&row), &mut probs);
            probs[0]
        })
    });
    g.finish();
}

fn bench_compiled(_c: &mut Criterion) {
    // The BENCH_ml.json baseline: training cost plus the two prediction
    // paths — the seed per-row arena walker and the compiled single-row
    // walker — wall-clocked manually over the whole dataset so the
    // numbers are directly comparable per row.
    //
    // Production-shaped forest: sklearn-default 100 trees over a
    // campaign-sized report (the PME trains on tens of thousands of
    // rows), large enough that the ensemble no longer fits in L1 and the
    // arena walker's pointer chasing pays real memory latency.
    let data = dataset(20_000);
    let cfg = RandomForestConfig {
        n_trees: 100,
        tree: TreeConfig {
            max_depth: 16,
            ..TreeConfig::default()
        },
        seed: 1,
        threads: 4,
    };

    let mut train_secs = f64::INFINITY;
    let mut forest = RandomForest::fit(&data, &cfg);
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        forest = RandomForest::fit(&data, &cfg);
        train_secs = train_secs.min(t0.elapsed().as_secs_f64());
    }
    let compiled = CompiledForest::compile(&forest);
    let n = data.len();

    // Per-path timing: whole-dataset passes, best-of to shed scheduler
    // noise; a checksum sink keeps the work observable.
    let time_per_row = |passes: usize, f: &mut dyn FnMut() -> usize| -> f64 {
        let mut best = f64::INFINITY;
        let mut sink = 0usize;
        for _ in 0..passes {
            let t0 = std::time::Instant::now();
            sink = sink.wrapping_add(f());
            best = best.min(t0.elapsed().as_secs_f64());
        }
        black_box(sink);
        best / n as f64
    };

    let mut probs = vec![0.0f64; data.n_classes()];
    let arena = time_per_row(30, &mut || {
        (0..n)
            .map(|r| {
                forest.predict_proba_into(data.row(r), &mut probs);
                argmax(&probs)
            })
            .sum()
    });
    let single = time_per_row(30, &mut || {
        (0..n)
            .map(|r| compiled.predict_with(data.row(r), &mut probs))
            .sum()
    });

    let speedup = arena / single;
    println!(
        "ml/train_20k_rows: {train_secs:.3} s; per-row ns: arena {:.0}, compiled single {:.0} \
         ({speedup:.1}x vs arena)",
        arena * 1e9,
        single * 1e9,
    );
    let json = format!(
        "[\n  {machine},\n  {{\"bench\":\"ml_train\",\"rows\":{n},\"trees\":{trees},\"seconds\":{train_secs:.3}}},\n  \
         {{\"bench\":\"ml_predict_arena_per_row\",\"ns_per_row\":{arena:.1}}},\n  \
         {{\"bench\":\"ml_predict_compiled_single\",\"ns_per_row\":{single:.1},\"speedup_vs_arena\":{speedup:.2}}}\n]\n",
        machine = yav_bench::machine_json(),
        trees = cfg.n_trees,
        arena = arena * 1e9,
        single = single * 1e9,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ml.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("cannot write {path}: {e}");
    } else {
        println!("ml baseline written to {path}");
    }
}

criterion_group!(benches, bench_discretizer, bench_forest, bench_compiled);
criterion_main!(benches);
