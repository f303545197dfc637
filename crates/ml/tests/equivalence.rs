//! Compiled-vs-arena equivalence: the flat [`CompiledForest`] must be a
//! pure re-layout of the trained model, never a re-approximation. Every
//! probability and class it produces is asserted **bit-identical** to
//! the arena walker across forests of varying depth, size and class
//! count — the property the client's hot path relies on.
//!
//! (The companion guarantee — presorted-column training produces trees
//! bit-identical to the seed implementation — lives next to the private
//! reference implementation in `tree::tests`.)

use yav_ml::tree::argmax;
use yav_ml::{CompiledForest, Dataset, RandomForest, RandomForestConfig, TreeConfig};

/// A deterministic multi-modal dataset: mixed integer-ish and fractional
/// columns with repeated values (ties exercise `<=` threshold edges).
fn dataset(n: usize, n_features: usize, n_classes: usize, salt: u64) -> Dataset {
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ salt;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64
    };
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..n_features)
                .map(|f| match f % 3 {
                    0 => (next() as u64 % 13) as f64,
                    1 => (next() as u64 % 997) as f64 / 31.0,
                    _ => (next() as u64 % 5) as f64 - 2.0,
                })
                .collect()
        })
        .collect();
    let labels: Vec<usize> = rows
        .iter()
        .map(|r| {
            let s: f64 = r.iter().sum();
            (s.abs() as usize) % n_classes
        })
        .collect();
    let names = (0..n_features).map(|f| format!("f{f}")).collect();
    Dataset::new(rows, labels, n_classes, names)
}

/// The grid of model shapes under test.
fn configs() -> Vec<(usize, RandomForestConfig)> {
    let mut out = Vec::new();
    for &(n_classes, n_trees, max_depth, features_per_split) in &[
        (2usize, 1usize, 2usize, None),
        (2, 9, 25, None),
        (3, 5, 6, Some(2)),
        (4, 12, 12, Some(1)),
        (5, 7, 20, Some(3)),
    ] {
        out.push((
            n_classes,
            RandomForestConfig {
                n_trees,
                seed: 0xEC0 + n_trees as u64,
                tree: TreeConfig {
                    max_depth,
                    features_per_split,
                    ..TreeConfig::default()
                },
                ..RandomForestConfig::default()
            },
        ));
    }
    out
}

#[test]
fn compiled_probabilities_are_bit_identical_to_arena() {
    for (i, (n_classes, config)) in configs().into_iter().enumerate() {
        let data = dataset(260, 5, n_classes, i as u64);
        let forest = RandomForest::fit(&data, &config);
        let compiled = CompiledForest::compile(&forest);
        assert_eq!(compiled.n_trees(), config.n_trees);
        assert_eq!(compiled.n_classes(), n_classes);
        assert_eq!(compiled.n_features(), data.n_features());

        let mut fast = vec![0.0f64; n_classes];
        let mut slow = vec![0.0f64; n_classes];
        for r in 0..data.len() {
            let row = data.row(r);
            compiled.predict_into(row, &mut fast);
            forest.predict_proba_into(row, &mut slow);
            // Bit-identity, not approximate equality: compare the raw bits
            // so -0.0 vs 0.0 or last-ulp drift would fail loudly.
            let fast_bits: Vec<u64> = fast.iter().map(|p| p.to_bits()).collect();
            let slow_bits: Vec<u64> = slow.iter().map(|p| p.to_bits()).collect();
            assert_eq!(fast_bits, slow_bits, "config {i}, row {r}");
            assert_eq!(
                compiled.predict_with(row, &mut fast),
                argmax(&slow),
                "config {i}, row {r}"
            );
        }
    }
}

#[test]
fn compiled_form_survives_serialization_next_to_the_arena_form() {
    let data = dataset(220, 5, 4, 77);
    let forest = RandomForest::fit(
        &data,
        &RandomForestConfig {
            n_trees: 6,
            seed: 0x5EDE,
            ..RandomForestConfig::default()
        },
    );
    let compiled = CompiledForest::compile(&forest);
    // The PME keeps the arena forest server-side and clients receive only
    // the compiled form; each must deserialise to the exact prediction
    // surface, the compiled one without re-lowering.
    let json = serde_json::to_string(&(&forest, &compiled)).unwrap();
    let (back_forest, back_compiled): (RandomForest, CompiledForest) =
        serde_json::from_str(&json).unwrap();
    assert_eq!(back_compiled, compiled);
    let mut fast = vec![0.0f64; 4];
    let mut slow = vec![0.0f64; 4];
    for r in 0..data.len() {
        let row = data.row(r);
        back_compiled.predict_into(row, &mut fast);
        back_forest.predict_proba_into(row, &mut slow);
        assert_eq!(fast, slow, "row {r}");
    }
}
