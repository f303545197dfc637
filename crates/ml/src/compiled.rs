//! Compiled forest inference: a flat lowering of a trained
//! [`RandomForest`] (or single [`DecisionTree`]).
//!
//! The arena walker in [`crate::tree`] pointer-chases enum-tagged nodes
//! — fine for training-time use, too slow for the client hot path where
//! every encrypted impression triggers a prediction inside an RTB
//! ~100 ms budget. [`CompiledForest`] lowers every tree of a forest into
//! flat arrays:
//!
//! ```text
//!   nodes:      one contiguous node table, 16 bytes per node:
//!                 f64 threshold — `row[feature] <= threshold` goes left
//!                 u32 left      — left-child index, children adjacent
//!                                 (right = left + 1), high bit = the
//!                                 internal/leaf discriminant
//!                 u16 feature   — column tested by an internal node
//!   leaf_probs: shared arena — `n_classes` slots per leaf
//!   roots:      root node index of each tree
//! ```
//!
//! A leaf has no children, so its `left` slot is free to carry the
//! discriminant bit plus its index into the shared probability arena —
//! no tag byte, no separate leaf table, no per-node enum dispatch. One
//! packed record per node keeps each level of a walk to a single
//! bounds-checked load from a single cache line; tree walks on a scalar
//! core are retire-throughput-bound, so every spared µop per level is
//! directly visible in ns/row. Trees are laid out breadth-first so the
//! most-travelled top levels of each tree sit in the same cache lines,
//! and sibling subtrees stay adjacent.
//!
//! Predictions are **bit-identical** to the arena walker: probabilities
//! accumulate over trees in the same order with the same float ops
//! (pinned by the `equivalence` integration tests).

use crate::forest::RandomForest;
use crate::tree::{argmax, DecisionTree, Node};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// High bit of a `left` entry: set ⇒ the node is a leaf.
const LEAF_BIT: u32 = 1 << 31;

/// Second-highest bit of a leaf's `left` entry: set ⇒ the leaf is
/// *pure* (a single nonzero class probability). A pure leaf carries its
/// entire payload in the node itself — the class in `feature`, the
/// probability in `threshold` — and has no arena entry, so accumulating
/// it is one addition instead of a `n_classes`-wide loop plus an arena
/// gather. Skipping the zero entries is bit-exact: vote cells only ever
/// hold non-negative sums, and `x + 0.0` is `x` for every such `x`.
/// Greedy CART grows most leaves to purity, so this is the common case.
/// For impure leaves the low 30 bits index the probability arena.
const PURE_BIT: u32 = 1 << 30;

/// Width of the fixed row buffer the fast walk reads through. Feature
/// indices are masked to `ROW_BUF - 1`, which lets the compiler drop the
/// per-level row bounds check entirely (every compiled feature index is
/// `< n_features ≤ ROW_BUF`, so the mask is the identity on valid data).
/// 16 covers the PME's core feature set (12–13 columns) with room.
const ROW_BUF: usize = 16;

/// One node of the flat table. 16 bytes, four to a cache line, ordered
/// so `threshold` sits at offset 0 (aligned) and the two small fields
/// pack behind it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct PackedNode {
    /// Split threshold; `row[feature] <= threshold` goes left. 0.0 for
    /// leaves.
    threshold: f64,
    /// Left-child node index, or `LEAF_BIT | leaf_slot` for leaves.
    left: u32,
    /// Feature column tested (0 for leaves).
    feature: u16,
}

/// A [`RandomForest`] lowered to flat form for fast, allocation-free
/// inference. Build one with [`CompiledForest::compile`] (whole forest)
/// or [`CompiledForest::from_tree`] (the single-tree client artifact).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledForest {
    /// The packed node table, all trees appended breadth-first.
    nodes: Vec<PackedNode>,
    /// Root node index of each tree.
    roots: Vec<u32>,
    /// Shared probability arena for impure leaves, `n_classes` slots
    /// per entry (pure leaves live entirely in their node).
    leaf_probs: Vec<f64>,
    /// Total leaves across all trees (pure and impure).
    n_leaves: usize,
    /// Classes per prediction.
    n_classes: usize,
    /// Feature columns expected per row.
    n_features: usize,
}

impl CompiledForest {
    /// Lowers a trained forest. O(total nodes); the result is immutable.
    pub fn compile(forest: &RandomForest) -> CompiledForest {
        Self::from_trees(forest.trees())
    }

    /// Lowers a single tree (a forest of one) — the form the client
    /// model ships.
    pub fn from_tree(tree: &DecisionTree) -> CompiledForest {
        Self::from_trees(std::slice::from_ref(tree))
    }

    /// Lowers any non-empty tree ensemble sharing a feature/class space.
    ///
    /// # Panics
    /// Panics on an empty slice, on disagreeing shapes, or if the
    /// ensemble exceeds the u16 feature / 31-bit node index budget.
    fn from_trees(trees: &[DecisionTree]) -> CompiledForest {
        assert!(!trees.is_empty(), "cannot compile an empty ensemble");
        let n_classes = trees[0].n_classes();
        let n_features = trees[0].n_features();
        assert!(n_features <= u16::MAX as usize, "feature index exceeds u16");
        let total_nodes: usize = trees.iter().map(|t| t.n_nodes()).sum();
        assert!(
            total_nodes < PURE_BIT as usize,
            "ensemble exceeds the 30-bit node budget"
        );

        let mut out = CompiledForest {
            nodes: Vec::with_capacity(total_nodes),
            roots: Vec::with_capacity(trees.len()),
            leaf_probs: Vec::new(),
            n_leaves: 0,
            n_classes,
            n_features,
        };
        for tree in trees {
            assert_eq!(tree.n_classes(), n_classes, "class spaces disagree");
            assert_eq!(tree.n_features(), n_features, "feature spaces disagree");
            let root = out.lower_tree(tree);
            out.roots.push(root);
        }
        assert!(
            out.leaf_probs.len() / n_classes < PURE_BIT as usize,
            "leaf arena exceeds the 30-bit slot budget"
        );
        out
    }

    /// Lays one arena tree out breadth-first, appending to the node
    /// table, and returns its root's flat index.
    fn lower_tree(&mut self, tree: &DecisionTree) -> u32 {
        let arena = tree.arena();
        let root = self.alloc_node();
        // (arena index, flat index) pairs pending lowering, FIFO = BFS.
        let mut queue: VecDeque<(usize, u32)> = VecDeque::new();
        queue.push_back((0, root));
        while let Some((arena_idx, flat)) = queue.pop_front() {
            match &arena[arena_idx] {
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    // Children take two adjacent slots so only the left
                    // index needs storing.
                    let l = self.alloc_node();
                    let r = self.alloc_node();
                    debug_assert_eq!(r, l + 1);
                    self.nodes[flat as usize] = PackedNode {
                        threshold: *threshold,
                        left: l,
                        feature: *feature as u16,
                    };
                    queue.push_back((*left, l));
                    queue.push_back((*right, r));
                }
                Node::Leaf { probs } => {
                    self.n_leaves += 1;
                    let mut nonzero = probs.iter().enumerate().filter(|(_, p)| **p != 0.0);
                    match (nonzero.next(), nonzero.next()) {
                        (Some((class, &p)), None) if class <= u16::MAX as usize => {
                            self.nodes[flat as usize] = PackedNode {
                                threshold: p,
                                left: LEAF_BIT | PURE_BIT,
                                feature: class as u16,
                            };
                        }
                        _ => {
                            let slot = (self.leaf_probs.len() / self.n_classes) as u32;
                            self.leaf_probs.extend_from_slice(probs);
                            self.nodes[flat as usize].left = LEAF_BIT | slot;
                        }
                    }
                }
            }
        }
        root
    }

    fn alloc_node(&mut self) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(PackedNode {
            threshold: 0.0,
            left: 0,
            feature: 0,
        });
        idx
    }

    /// Walks one tree for one row; returns the leaf node reached.
    #[inline]
    fn walk(&self, mut idx: usize, row: &[f64]) -> PackedNode {
        loop {
            let node = self.nodes[idx];
            if node.left & LEAF_BIT != 0 {
                return node;
            }
            let go_left = row[node.feature as usize] <= node.threshold;
            idx = node.left as usize + usize::from(!go_left);
        }
    }

    /// [`CompiledForest::walk`] through a fixed-width row buffer. The
    /// masked index cannot exceed `ROW_BUF - 1`, so the compiler elides
    /// the row bounds check; on valid compiled data the mask never
    /// changes the index (`feature < n_features ≤ ROW_BUF`).
    #[inline]
    fn walk_buf(&self, mut idx: usize, row: &[f64; ROW_BUF]) -> PackedNode {
        loop {
            let node = self.nodes[idx];
            if node.left & LEAF_BIT != 0 {
                return node;
            }
            let go_left = row[node.feature as usize & (ROW_BUF - 1)] <= node.threshold;
            idx = node.left as usize + usize::from(!go_left);
        }
    }

    /// Accumulates the probabilities of the leaf node `node` into
    /// `votes`.
    #[inline]
    fn accumulate(&self, node: PackedNode, votes: &mut [f64]) {
        if node.left & PURE_BIT != 0 {
            votes[node.feature as usize] += node.threshold;
            return;
        }
        let k = self.n_classes;
        let slot = (node.left & !LEAF_BIT) as usize;
        let probs = &self.leaf_probs[slot * k..(slot + 1) * k];
        for (o, &p) in votes.iter_mut().zip(probs) {
            *o += p;
        }
    }

    /// Averaged class probabilities for one row, written into `out` —
    /// the zero-allocation hot path. Bit-identical to
    /// [`RandomForest::predict_proba_into`].
    ///
    /// # Panics
    /// Panics if `row` or `out` have the wrong length.
    pub fn predict_into(&self, row: &[f64], out: &mut [f64]) {
        assert_eq!(row.len(), self.n_features, "row width mismatch");
        assert_eq!(out.len(), self.n_classes, "probability buffer mismatch");
        out.fill(0.0);
        if self.n_features <= ROW_BUF {
            let mut buf = [0.0f64; ROW_BUF];
            buf[..row.len()].copy_from_slice(row);
            for &root in &self.roots {
                let leaf = self.walk_buf(root as usize, &buf);
                self.accumulate(leaf, out);
            }
        } else {
            for &root in &self.roots {
                let leaf = self.walk(root as usize, row);
                self.accumulate(leaf, out);
            }
        }
        let n = self.roots.len() as f64;
        for o in out.iter_mut() {
            *o /= n;
        }
    }

    /// Majority-vote class for one row, using the caller's probability
    /// buffer. On return `probs` holds the averaged class probabilities.
    ///
    /// # Panics
    /// Panics if `row` or `probs` have the wrong length.
    pub fn predict_with(&self, row: &[f64], probs: &mut [f64]) -> usize {
        self.predict_into(row, probs);
        argmax(probs)
    }

    /// Number of trees compiled in.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Classes per prediction.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Feature columns expected per row.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Total nodes across all trees (size of the flat table).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total leaves across all trees.
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::forest::RandomForestConfig;
    use crate::tree::TreeConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset(n: usize, n_classes: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    (i % 29) as f64,
                    ((i * 7) % 31) as f64 / 3.0,
                    ((i / 5) % 11) as f64,
                ]
            })
            .collect();
        let labels: Vec<usize> = (0..n).map(|i| (i * 13 + 5) % n_classes).collect();
        Dataset::new(
            rows,
            labels,
            n_classes,
            vec!["a".into(), "b".into(), "c".into()],
        )
    }

    /// The arena forest's averaged probabilities and vote for one row.
    fn arena(forest: &RandomForest, row: &[f64], n_classes: usize) -> (Vec<f64>, usize) {
        let mut probs = vec![0.0; n_classes];
        forest.predict_proba_into(row, &mut probs);
        let class = argmax(&probs);
        (probs, class)
    }

    #[test]
    fn single_leaf_tree_compiles() {
        let data = Dataset::new(vec![vec![1.0], vec![2.0]], vec![1, 1], 2, vec!["x".into()]);
        let idx = vec![0, 1];
        let mut rng = StdRng::seed_from_u64(0);
        let tree = DecisionTree::fit(&data, &idx, &TreeConfig::default(), &mut rng);
        let compiled = CompiledForest::from_tree(&tree);
        assert_eq!(compiled.n_nodes(), 1);
        assert_eq!(compiled.n_leaves(), 1);
        let mut probs = vec![0.0; 2];
        assert_eq!(compiled.predict_with(&[9.0], &mut probs), 1);
        assert_eq!(probs, vec![0.0, 1.0]);
    }

    #[test]
    fn compiled_matches_arena_walker() {
        let data = dataset(400, 3);
        let forest = RandomForest::fit(
            &data,
            &RandomForestConfig {
                n_trees: 7,
                seed: 3,
                ..RandomForestConfig::default()
            },
        );
        let compiled = CompiledForest::compile(&forest);
        assert_eq!(compiled.n_trees(), 7);
        let mut buf = vec![0.0; 3];
        for i in 0..data.len() {
            let row = data.row(i);
            let (probs, class) = arena(&forest, row, 3);
            assert_eq!(compiled.predict_with(row, &mut buf), class, "row {i}");
            assert_eq!(buf, probs, "row {i}");
        }
    }

    #[test]
    fn wide_rows_take_the_general_walk() {
        // More features than the fixed row buffer: the unmasked fallback
        // must agree with the arena walker too.
        let n_features = ROW_BUF + 5;
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|i| {
                (0..n_features)
                    .map(|f| ((i * (f + 3)) % 23) as f64)
                    .collect()
            })
            .collect();
        let labels: Vec<usize> = (0..300).map(|i| (i * 7 + 1) % 3).collect();
        let names = (0..n_features).map(|f| format!("f{f}")).collect();
        let data = Dataset::new(rows, labels, 3, names);
        let forest = RandomForest::fit(
            &data,
            &RandomForestConfig {
                n_trees: 4,
                seed: 21,
                ..RandomForestConfig::default()
            },
        );
        let compiled = CompiledForest::compile(&forest);
        let mut buf = vec![0.0; 3];
        for i in 0..data.len() {
            let row = data.row(i);
            let (probs, vote) = arena(&forest, row, 3);
            let class = compiled.predict_with(row, &mut buf);
            assert_eq!(buf, probs, "row {i}");
            assert_eq!(class, vote, "row {i}");
        }
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let data = dataset(150, 2);
        let forest = RandomForest::fit(
            &data,
            &RandomForestConfig {
                n_trees: 3,
                seed: 9,
                ..RandomForestConfig::default()
            },
        );
        let compiled = CompiledForest::compile(&forest);
        let json = serde_json::to_string(&compiled).unwrap();
        let back: CompiledForest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, compiled);
        let mut probs = vec![0.0; 2];
        assert_eq!(
            back.predict_with(data.row(7), &mut probs),
            compiled.predict_with(data.row(7), &mut probs)
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_row_width_panics() {
        let data = dataset(60, 2);
        let forest = RandomForest::fit(
            &data,
            &RandomForestConfig {
                n_trees: 2,
                ..RandomForestConfig::default()
            },
        );
        CompiledForest::compile(&forest).predict_with(&[1.0], &mut [0.0; 2]);
    }
}
