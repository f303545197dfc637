//! Random forests: bagging + feature subsampling + out-of-bag error.
//!
//! §5.1 justifies the choice: the RF "takes into account the target
//! variable, can be trained quickly on large datasets, maintains
//! interpretability of features and generally does not overfit". Trees
//! train in parallel with crossbeam scoped threads; each tree's RNG is
//! derived from the forest seed and the tree index, so parallelism never
//! affects the result.
//!
//! Fitting is two steps: `grow` fits the trees, then
//! `RandomForest::assemble` runs the out-of-bag pass and sums the
//! importances. Only [`RandomForest::fit`] assembles; the
//! cross-validation forests skip the OOB pass and vote with their grown
//! trees, since nothing reads a fold forest's OOB error or importances.
//! `grow` takes binned data and a list of its rows, so cross-validation
//! bins its dataset once and grows every fold's forest from those bins.

use crate::dataset::Dataset;
use crate::tree::{argmax, Bins, DecisionTree, Frame, TreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Forest hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree CART parameters. `features_per_split: None` here means
    /// "use √d", the standard forest default.
    pub tree: TreeConfig,
    /// Seed for bootstrap and feature subsampling.
    pub seed: u64,
    /// Worker threads for training (1 = serial).
    pub threads: usize,
}

impl Default for RandomForestConfig {
    fn default() -> RandomForestConfig {
        RandomForestConfig {
            n_trees: 40,
            tree: TreeConfig {
                max_depth: 14,
                ..TreeConfig::default()
            },
            seed: 0xF05E,
            threads: default_train_threads(),
        }
    }
}

/// Default training parallelism: one worker per available core, clamped
/// to [1, 8] (trees are coarse units; more workers than that just adds
/// scheduling noise). Thread count never affects the fitted forest.
fn default_train_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
}

/// A trained forest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
    /// Fraction of OOB rows misclassified during training.
    oob_error: f64,
    /// Normalised mean-decrease-impurity importances (sum to 1).
    importances: Vec<f64>,
}

impl RandomForest {
    /// Trains a forest on the full dataset: grows its trees, then runs
    /// the out-of-bag pass for [`RandomForest::oob_error`] and the
    /// importances.
    pub fn fit(data: &Dataset, config: &RandomForestConfig) -> RandomForest {
        let rows: Vec<usize> = (0..data.len()).collect();
        let (trees, importances, boots) = grow(&Bins::new(data), &rows, config);
        RandomForest::assemble(data, trees, &importances, &boots)
    }

    /// The forest of `trees`, fitted on `boots` with the unnormalised
    /// `importances` each fit credited: out-of-bag error over the rows
    /// each tree never saw, and the importances summed and normalised.
    fn assemble(
        data: &Dataset,
        trees: Vec<DecisionTree>,
        tree_importances: &[Vec<f64>],
        boots: &[Vec<usize>],
    ) -> RandomForest {
        let n = data.len();
        // Out-of-bag error: vote each row only with trees that never saw it.
        let mut oob_votes = vec![vec![0.0f64; data.n_classes()]; n];
        let mut in_bag = vec![false; n];
        for (t, tree) in trees.iter().enumerate() {
            in_bag.iter_mut().for_each(|b| *b = false);
            for &i in &boots[t] {
                in_bag[i] = true;
            }
            for (i, votes) in oob_votes.iter_mut().enumerate() {
                if !in_bag[i] {
                    tree.vote(data.row(i), votes);
                }
            }
        }
        let mut oob_wrong = 0usize;
        let mut oob_total = 0usize;
        for (i, votes) in oob_votes.iter().enumerate() {
            if votes.iter().any(|&v| v > 0.0) {
                oob_total += 1;
                if argmax(votes) != data.label(i) {
                    oob_wrong += 1;
                }
            }
        }
        let oob_error = if oob_total > 0 {
            oob_wrong as f64 / oob_total as f64
        } else {
            f64::NAN
        };

        // Aggregate and normalise importances.
        let mut importances = vec![0.0f64; data.n_features()];
        for tree in tree_importances {
            for (i, &v) in tree.iter().enumerate() {
                importances[i] += v;
            }
        }
        let total: f64 = importances.iter().sum();
        if total > 0.0 {
            importances.iter_mut().for_each(|v| *v /= total);
        }

        RandomForest {
            trees,
            n_classes: data.n_classes(),
            oob_error,
            importances,
        }
    }

    /// Averaged class probabilities for one row, written into `out`
    /// without allocating. Training-time code (CV, the representative
    /// tree) votes the same way.
    ///
    /// # Panics
    /// Panics if `out.len() != n_classes`.
    pub fn predict_proba_into(&self, row: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.n_classes, "probability buffer mismatch");
        vote_into(&self.trees, row, out, |_, _| {});
    }

    /// Out-of-bag error estimate from training.
    pub fn oob_error(&self) -> f64 {
        self.oob_error
    }

    /// Normalised feature importances.
    pub fn importances(&self) -> &[f64] {
        &self.importances
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The single most representative tree — the one whose lone
    /// predictions agree most often with the full forest over `data`
    /// (the first such tree on ties). This is the compact model the PME
    /// ships to YourAdValue clients ("apply the model M in the form of a
    /// decision tree", §3.2).
    pub fn representative_tree(&self, data: &Dataset) -> &DecisionTree {
        // One walk per (tree, row): each tree's vote also names its own
        // class.
        let mut probs = vec![0.0f64; self.n_classes];
        let mut own = vec![0usize; self.trees.len()];
        let mut agree = vec![0usize; self.trees.len()];
        for i in 0..data.len() {
            vote_into(&self.trees, data.row(i), &mut probs, |t, class| {
                own[t] = class
            });
            let vote = argmax(&probs);
            for (a, &class) in agree.iter_mut().zip(&own) {
                *a += usize::from(class == vote);
            }
        }
        // The first tree wins ties.
        let mut best = 0;
        for (t, &a) in agree.iter().enumerate() {
            if a > agree[best] {
                best = t;
            }
        }
        &self.trees[best]
    }
}

/// Grows a forest's trees on bootstraps of `rows`, row indices into
/// `bins`, and returns them with each tree's unnormalised importances
/// and the bootstraps, without the out-of-bag pass: [`RandomForest::fit`]
/// assembles the result, cross-validation votes with the trees alone.
/// The trees are those that bins of `rows` alone would grow, as a cut's
/// threshold depends only on the values its node's rows occupy.
pub(crate) fn grow(
    bins: &Bins,
    rows: &[usize],
    config: &RandomForestConfig,
) -> (Vec<DecisionTree>, Vec<Vec<f64>>, Vec<Vec<usize>>) {
    assert!(!rows.is_empty(), "cannot fit a forest on an empty dataset");
    assert!(config.n_trees > 0, "need at least one tree");
    let tree_config = tree_config(bins.n_features(), config);
    let (boots, seeds) = bootstraps(rows, config);

    // Each worker reuses one frame for all of its trees.
    let fit_tree = |frame: &mut Frame, t: usize| {
        let mut trng = StdRng::seed_from_u64(seeds[t]);
        DecisionTree::fit_binned(bins, frame, &boots[t], &tree_config, &mut trng)
    };
    let threads = config.threads.max(1).min(config.n_trees);
    let mut trees: Vec<Option<(DecisionTree, Vec<f64>)>> = vec![None; config.n_trees];
    if threads == 1 {
        let mut frame = Frame::new(bins);
        for (t, slot) in trees.iter_mut().enumerate() {
            *slot = Some(fit_tree(&mut frame, t));
        }
    } else {
        let chunks: Vec<Vec<usize>> = (0..threads)
            .map(|w| (w..config.n_trees).step_by(threads).collect())
            .collect();
        crossbeam::thread::scope(|scope| {
            let mut handles = Vec::new();
            for chunk in &chunks {
                let fit_tree = &fit_tree;
                handles.push(scope.spawn(move |_| {
                    let mut frame = Frame::new(bins);
                    chunk
                        .iter()
                        .map(|&t| (t, fit_tree(&mut frame, t)))
                        .collect::<Vec<_>>()
                }));
            }
            for h in handles {
                for (t, tree) in h.join().expect("tree trainer panicked") {
                    trees[t] = Some(tree);
                }
            }
        })
        .expect("training scope panicked");
    }
    let (trees, importances) = trees.into_iter().map(|t| t.expect("all trained")).unzip();
    (trees, importances, boots)
}

/// Averaged class probabilities of `trees` for one row, written into
/// `out`, handing each tree's own class to `each(tree_index, class)` as
/// its probabilities are summed.
pub(crate) fn vote_into(
    trees: &[DecisionTree],
    row: &[f64],
    out: &mut [f64],
    mut each: impl FnMut(usize, usize),
) {
    out.fill(0.0);
    for (t, tree) in trees.iter().enumerate() {
        each(t, tree.vote(row, out));
    }
    let n = trees.len() as f64;
    out.iter_mut().for_each(|p| *p /= n);
}

/// The per-tree CART parameters: `features_per_split: None` becomes
/// ⌈√d⌉.
pub(crate) fn tree_config(d: usize, config: &RandomForestConfig) -> TreeConfig {
    TreeConfig {
        features_per_split: config
            .tree
            .features_per_split
            .or(Some(((d as f64).sqrt().ceil() as usize).max(1))),
        ..config.tree
    }
}

/// Every tree's bootstrap of `rows` and RNG seed, drawn up front and
/// serially from the forest seed, so the thread count cannot change them.
pub(crate) fn bootstraps(
    rows: &[usize],
    config: &RandomForestConfig,
) -> (Vec<Vec<usize>>, Vec<u64>) {
    let n = rows.len();
    let mut boots: Vec<Vec<usize>> = Vec::with_capacity(config.n_trees);
    let mut seeds: Vec<u64> = Vec::with_capacity(config.n_trees);
    let mut rng = StdRng::seed_from_u64(config.seed);
    for _ in 0..config.n_trees {
        boots.push((0..n).map(|_| rows[rng.gen_range(0..n)]).collect());
        seeds.push(rng.gen());
    }
    (boots, seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::reference;

    /// Deterministic 3-class dataset with two informative features and one
    /// pure-noise feature.
    fn dataset(n: usize) -> Dataset {
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let x = (i % 30) as f64 / 30.0;
            let y = ((i * 7) % 30) as f64 / 30.0;
            let noise = ((i * 13) % 17) as f64;
            let label = if x < 0.33 {
                0
            } else if y < 0.5 {
                1
            } else {
                2
            };
            rows.push(vec![x, y, noise]);
            labels.push(label);
        }
        Dataset::new(
            rows,
            labels,
            3,
            vec!["x".into(), "y".into(), "noise".into()],
        )
    }

    /// The forest's majority-vote class for one row.
    fn vote(forest: &RandomForest, row: &[f64]) -> usize {
        let mut probs = vec![0.0f64; forest.n_classes];
        forest.predict_proba_into(row, &mut probs);
        argmax(&probs)
    }

    #[test]
    fn learns_and_reports_low_oob() {
        let data = dataset(600);
        let forest = RandomForest::fit(&data, &RandomForestConfig::default());
        let correct = (0..data.len())
            .filter(|&i| vote(&forest, data.row(i)) == data.label(i))
            .count();
        assert!(correct as f64 / data.len() as f64 > 0.97);
        assert!(forest.oob_error() < 0.1, "oob {}", forest.oob_error());
    }

    #[test]
    fn importances_rank_signal_over_noise() {
        let data = dataset(600);
        let forest = RandomForest::fit(&data, &RandomForestConfig::default());
        let imp = forest.importances();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > imp[2] && imp[1] > imp[2], "importances {imp:?}");
    }

    #[test]
    fn parallel_equals_serial() {
        let data = dataset(300);
        let mut cfg = RandomForestConfig {
            n_trees: 9,
            ..RandomForestConfig::default()
        };
        cfg.threads = 1;
        let serial = RandomForest::fit(&data, &cfg);
        cfg.threads = 4;
        let parallel = RandomForest::fit(&data, &cfg);
        assert_eq!(serial, parallel);
    }

    /// `RandomForest::fit` grows the `tree::reference` seed trees on the
    /// same bootstraps and seeds, node for node, at any thread count, and
    /// its out-of-bag error and importances are the seed trees'; a
    /// 257-value column sends small nodes to the sort side.
    #[test]
    fn binned_forest_matches_reference_trees() {
        let base = dataset(400);
        let data = Dataset::new(
            (0..base.len())
                .map(|i| {
                    let mut row = base.row(i).to_vec();
                    row.push(((i * 101) % 257) as f64);
                    row
                })
                .collect(),
            base.labels().to_vec(),
            3,
            vec!["x".into(), "y".into(), "noise".into(), "wide".into()],
        );
        let rows: Vec<usize> = (0..data.len()).collect();
        for threads in [1, 4] {
            let config = RandomForestConfig {
                n_trees: 8,
                threads,
                ..RandomForestConfig::default()
            };
            let forest = RandomForest::fit(&data, &config);
            let tree_config = tree_config(data.n_features(), &config);
            let (boots, seeds) = bootstraps(&rows, &config);
            let mut oob_votes = vec![vec![0.0f64; 3]; data.len()];
            let mut seed_importances = vec![0.0f64; data.n_features()];
            for (t, (boot, &seed)) in boots.iter().zip(&seeds).enumerate() {
                let mut rng = StdRng::seed_from_u64(seed);
                let oracle = reference::fit(&data, boot, &tree_config, &mut rng);
                let what = format!("threads {threads}, tree {t}");
                reference::assert_same(&forest.trees[t], None, &oracle, &what);
                for (sum, &v) in seed_importances.iter_mut().zip(oracle.importances()) {
                    *sum += v;
                }
                for (i, votes) in oob_votes.iter_mut().enumerate() {
                    if !boot.contains(&i) {
                        for (v, p) in votes.iter_mut().zip(oracle.predict_proba(data.row(i))) {
                            *v += p;
                        }
                    }
                }
            }
            let voted: Vec<usize> = (0..data.len())
                .filter(|&i| oob_votes[i].iter().any(|&v| v > 0.0))
                .collect();
            let wrong = voted
                .iter()
                .filter(|&&i| argmax(&oob_votes[i]) != data.label(i))
                .count();
            let oob_error = wrong as f64 / voted.len() as f64;
            assert_eq!(
                forest.oob_error().to_bits(),
                oob_error.to_bits(),
                "threads {threads}"
            );
            let total: f64 = seed_importances.iter().sum();
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(
                bits(forest.importances()),
                bits(
                    &seed_importances
                        .iter()
                        .map(|v| v / total)
                        .collect::<Vec<_>>()
                ),
                "threads {threads}: importances"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = dataset(300);
        let cfg = RandomForestConfig::default();
        let a = RandomForest::fit(&data, &cfg);
        let b = RandomForest::fit(&data, &cfg);
        assert_eq!(a, b);
        let c = RandomForest::fit(&data, &RandomForestConfig { seed: 99, ..cfg });
        assert_ne!(a, c, "different seeds should differ somewhere");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let data = dataset(300);
        let forest = RandomForest::fit(&data, &RandomForestConfig::default());
        let mut p = vec![0.0f64; 3];
        for i in (0..data.len()).step_by(37) {
            forest.predict_proba_into(data.row(i), &mut p);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn representative_tree_agrees_with_forest() {
        // On the clean set every tree agrees with the forest on every
        // row, so the tie rule decides. Flipping every seventh label,
        // independently of the features, makes the trees overfit
        // differently, so the agreement counts differ.
        let clean = dataset(400);
        let noisy = Dataset::new(
            (0..clean.len()).map(|i| clean.row(i).to_vec()).collect(),
            (0..clean.len())
                .map(|i| (clean.label(i) + usize::from(i % 7 == 0)) % 3)
                .collect(),
            3,
            vec!["x".into(), "y".into(), "noise".into()],
        );
        for data in [clean, noisy] {
            let forest = RandomForest::fit(&data, &RandomForestConfig::default());
            let tree = forest.representative_tree(&data);
            // Oracle: the per-tree formulation, re-voting the forest on
            // every row for every tree.
            let agreement: Vec<usize> = forest
                .trees
                .iter()
                .map(|t| {
                    (0..data.len())
                        .filter(|&i| t.predict(data.row(i)) == vote(&forest, data.row(i)))
                        .count()
                })
                .collect();
            let picked = forest
                .trees
                .iter()
                .position(|t| std::ptr::eq(t, tree))
                .expect("the representative is one of the forest's trees");
            let max = *agreement.iter().max().unwrap();
            assert_eq!(agreement[picked], max, "agreement {agreement:?}");
            // The first tree wins ties.
            assert!(
                agreement[..picked].iter().all(|&a| a < max),
                "agreement {agreement:?}, picked {picked}"
            );
            assert!(
                max as f64 / data.len() as f64 > 0.9,
                "agreement {max}/{}",
                data.len()
            );
        }
    }

    #[test]
    fn serde_round_trip() {
        let data = dataset(200);
        let cfg = RandomForestConfig {
            n_trees: 5,
            ..RandomForestConfig::default()
        };
        let forest = RandomForest::fit(&data, &cfg);
        let json = serde_json::to_string(&forest).unwrap();
        let back: RandomForest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, forest);
    }
}
