//! CART decision trees.
//!
//! The model YourAdValue ships to clients is "a decision tree" (§3.2), so
//! trees here are plain serde-serialisable data. Training is exact CART:
//! at each node, candidate features (optionally a random subset — that is
//! the random-forest hook) are scanned over the midpoints between their
//! distinct values for the split with the best Gini-impurity decrease.
//!
//! Training bins every feature **once per forest** (`Bins`): its distinct
//! values in ascending order and a bin code per row. A tree keeps one list
//! of its rows (`Frame`); a node is a range of that list, and a split
//! partitions only that range, comparing each row's bin code with the
//! cut's lower bin, without a data-dependent branch; nothing depends on
//! the order of rows within a node. To search a feature, a node counts
//! classes per occupied bin — into a dense histogram when the feature has
//! no more bins than the node has rows, otherwise by sorting the node's
//! packed (bin, label) keys — and sweeps the bins in ascending order. The
//! §5.4 features have at most a few dozen values, so most scans take the
//! histogram; the sort keeps high-cardinality columns and small nodes
//! cheap.
//!
//! The fitted trees are bit-identical to the naive re-sorting
//! implementation (kept under `#[cfg(test)]` as `reference` and pinned by
//! equivalence tests): a cut between two occupied bins is a cut between
//! two distinct sorted values, its gain is computed from the same integer
//! class counts with the same float operations, and its threshold comes
//! from the same `threshold` rule.

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples a node needs to be split further.
    pub min_samples_split: usize,
    /// Minimum samples each child must keep.
    pub min_samples_leaf: usize,
    /// Features tried per split; `None` means all (plain CART), `Some(m)`
    /// samples `m` without replacement (random-forest mode).
    pub features_per_split: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> TreeConfig {
        TreeConfig {
            max_depth: 12,
            min_samples_split: 4,
            min_samples_leaf: 2,
            features_per_split: None,
        }
    }
}

/// Tree nodes. Stored as an arena (`Vec<Node>`) with index links, which
/// serialises compactly and keeps prediction cache-friendly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Node {
    /// Internal split: `row[feature] <= threshold` goes left.
    Split {
        /// Feature column index.
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Left child index.
        left: usize,
        /// Right child index.
        right: usize,
    },
    /// Leaf: class probability vector.
    Leaf {
        /// P(class) per class.
        probs: Vec<f64>,
    },
}

/// A trained classification tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_classes: usize,
    n_features: usize,
    /// Total Gini-impurity decrease credited to each feature during
    /// training (unnormalised mean-decrease-impurity importances).
    importances: Vec<f64>,
}

/// A dataset binned once for every tree trained on it: each feature's
/// distinct values in ascending `total_cmp` order, grouped by `==` (so
/// `-0.0` and `0.0` share a bin), and each row's bin code. `Dataset`
/// holds no NaN, so `==` groups runs of the sorted values, and a cut
/// between two bins is a cut between two distinct values.
pub(crate) struct Bins {
    /// Rows binned.
    n: usize,
    /// Number of classes.
    n_classes: usize,
    /// `values[f]`: feature `f`'s distinct values, ascending.
    values: Vec<Vec<f64>>,
    /// Column-major bin codes: `codes[f * n + i]` is row `i`'s bin on
    /// feature `f`.
    codes: Vec<u32>,
    /// Class label per row.
    labels: Vec<u32>,
}

impl Bins {
    /// Bins every feature of `data`.
    ///
    /// # Panics
    /// Panics if the row or class count does not fit a `u32`.
    pub(crate) fn new(data: &Dataset) -> Bins {
        let n = data.len();
        let d = data.n_features();
        let n32 = u32::try_from(n).expect("a tree's rows are indexed by u32");
        let mut values = Vec::with_capacity(d);
        let mut codes = vec![0u32; n * d];
        let mut order: Vec<u32> = (0..n32).collect();
        for f in 0..d {
            let column = &mut codes[f * n..(f + 1) * n];
            let value = |i: u32| data.row(i as usize)[f];
            order.sort_unstable_by(|&a, &b| value(a).total_cmp(&value(b)));
            let mut distinct: Vec<f64> = Vec::new();
            for &i in &order {
                let v = value(i);
                if distinct.last() != Some(&v) {
                    distinct.push(v);
                }
                column[i as usize] = (distinct.len() - 1) as u32;
            }
            values.push(distinct);
        }
        Bins {
            n,
            n_classes: data.n_classes(),
            values,
            codes,
            labels: data
                .labels()
                .iter()
                .map(|&l| u32::try_from(l).expect("class labels are packed into u32"))
                .collect(),
        }
    }

    /// Feature `f`'s bin code per row.
    fn column(&self, f: usize) -> &[u32] {
        &self.codes[f * self.n..(f + 1) * self.n]
    }
}

/// Per-worker training scratch, reused across every tree the worker
/// fits: the tree's row list, the buffers a node's split search fills
/// and the class counts of the nodes being built.
pub(crate) struct Frame {
    /// The tree's rows (bootstrap duplicates count separately); a node
    /// is a range `[lo, hi)` of it.
    rows: Vec<u32>,
    /// Dense class histogram: `hist[bin * n_classes + class]`.
    hist: Vec<u32>,
    /// Packed `bin << 32 | label` keys of a node's rows, for the sort
    /// side.
    keys: Vec<u64>,
    /// Running below-the-cut class counts.
    left_counts: Vec<usize>,
    /// Below-the-cut class counts of the best cut so far: the left
    /// child's class counts once `best_split` returns.
    best_left: Vec<usize>,
    /// Feature roster reused by the per-node shuffle.
    roster: Vec<usize>,
    /// Class counts of the nodes being built, two slots per depth: slot
    /// `s` is `counts[s * n_classes..]`, and depth `d`'s nodes use slots
    /// `2d` and `2d + 1`, so a right child waits in its slot while its
    /// left sibling's subtree grows below it.
    counts: Vec<usize>,
}

impl Frame {
    /// Empty scratch for trees on `bins`.
    pub(crate) fn new(bins: &Bins) -> Frame {
        Frame {
            rows: Vec::new(),
            hist: Vec::new(),
            keys: Vec::new(),
            left_counts: vec![0; bins.n_classes],
            best_left: vec![0; bins.n_classes],
            roster: (0..bins.values.len()).collect(),
            counts: Vec::new(),
        }
    }

    /// The class counts in `slot`.
    fn counts(&self, slot: usize) -> &[usize] {
        let k = self.best_left.len();
        &self.counts[slot * k..(slot + 1) * k]
    }

    /// Writes the children's class counts of the node in `slot`, the best
    /// cut's two sides, into the two slots of the children's `depth`, and
    /// returns those slots.
    fn child_counts(&mut self, slot: usize, depth: usize) -> (usize, usize) {
        let k = self.best_left.len();
        let left = 2 * depth;
        if self.counts.len() < (left + 2) * k {
            self.counts.resize((left + 2) * k, 0);
        }
        let (above, children) = self.counts.split_at_mut(left * k);
        let node = &above[slot * k..(slot + 1) * k];
        let (l, r) = children[..2 * k].split_at_mut(k);
        l.copy_from_slice(&self.best_left);
        for ((r, &t), &b) in r.iter_mut().zip(node).zip(&self.best_left) {
            *r = t - b;
        }
        (left, left + 1)
    }

    /// Splits the node `[lo, hi)` by `cut`, moving the rows whose bin
    /// code is at most `cut.bin` to the front, and returns the left
    /// child's size. Every row is swapped with the first right row and
    /// the left count grows by the comparison, so no branch depends on
    /// the data.
    fn partition(&mut self, bins: &Bins, lo: usize, hi: usize, cut: &Cut) -> usize {
        let codes = bins.column(cut.feature);
        let rows = &mut self.rows[lo..hi];
        let mut n_left = 0usize;
        for i in 0..rows.len() {
            let r = rows[i];
            rows.swap(i, n_left);
            n_left += usize::from(codes[r as usize] <= cut.bin);
        }
        n_left
    }

    /// Finds the best cut over the node `[lo, hi)`, whose class counts
    /// are in `slot`, leaving its left side's class counts in
    /// `best_left`; `None` if no split satisfies the leaf-size
    /// constraints. Each candidate feature's occupied bins are counted
    /// and swept in ascending order.
    #[allow(clippy::too_many_arguments)]
    fn best_split(
        &mut self,
        bins: &Bins,
        lo: usize,
        hi: usize,
        slot: usize,
        node_impurity: f64,
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> Option<Cut> {
        let Frame {
            rows,
            hist,
            keys,
            left_counts,
            best_left,
            roster,
            counts,
        } = self;
        // With feature subsampling, order the *full* roster with the random
        // subset first: the scan below stops after the subset if it found a
        // valid split, but keeps drawing further features when it did not
        // (sklearn semantics — a node only becomes a leaf when no feature
        // at all can split it).
        // The roster always restarts from the identity permutation so the
        // shuffle consumes the rng exactly as a fresh `(0..d).collect()`
        // would (the reference implementation reshuffles from scratch at
        // every node).
        for (i, f) in roster.iter_mut().enumerate() {
            *f = i;
        }
        let subset_len = match config.features_per_split {
            Some(m) if m < roster.len() => {
                for i in 0..roster.len() {
                    let j = rng.gen_range(i..roster.len());
                    roster.swap(i, j);
                }
                m
            }
            _ => roster.len(),
        };

        let rows = &rows[lo..hi];
        let n = rows.len();
        let k = bins.n_classes;
        let total_counts = &counts[slot * k..(slot + 1) * k];
        let mut best: Option<Cut> = None;
        for (fi, &f) in roster.iter().enumerate() {
            if fi >= subset_len && best.is_some() {
                break; // subset exhausted and a valid split exists
            }
            let sweep = Sweep {
                feature: f,
                values: &bins.values[f],
                total_counts,
                n,
                node_impurity,
                min_samples_leaf: config.min_samples_leaf,
            };
            let codes = bins.column(f);
            left_counts.fill(0);
            if sweep.values.len() <= n {
                // Dense histogram: one pass over the rows, one over the bins.
                let cells = sweep.values.len() * k;
                if hist.len() < cells {
                    hist.resize(cells, 0);
                }
                let hist = &mut hist[..cells];
                hist.fill(0);
                for &r in rows {
                    let r = r as usize;
                    hist[codes[r] as usize * k + bins.labels[r] as usize] += 1;
                }
                let mut n_left = 0usize;
                let mut below = None;
                for (bin, counts) in hist.chunks_exact(k).enumerate() {
                    let count = counts.iter().sum::<u32>() as usize;
                    if count == 0 {
                        continue;
                    }
                    if let Some(below) = below {
                        sweep.cut(&mut best, best_left, left_counts, n_left, below, bin);
                    }
                    for (l, &c) in left_counts.iter_mut().zip(counts) {
                        *l += c as usize;
                    }
                    n_left += count;
                    below = Some(bin);
                }
            } else {
                // More bins than rows: sort the rows' (bin, label) keys.
                keys.clear();
                keys.extend(rows.iter().map(|&r| {
                    u64::from(codes[r as usize]) << 32 | u64::from(bins.labels[r as usize])
                }));
                keys.sort_unstable();
                let mut below = (keys[0] >> 32) as usize;
                for (n_left, &key) in keys.iter().enumerate() {
                    let bin = (key >> 32) as usize;
                    if bin != below {
                        sweep.cut(&mut best, best_left, left_counts, n_left, below, bin);
                        below = bin;
                    }
                    left_counts[key as u32 as usize] += 1;
                }
            }
        }
        best
    }
}

/// A node's split: `feature`'s bins up to `bin`, its lower occupied bin
/// at the cut, go left. On the node's rows that is `value <= threshold`,
/// as the threshold lies between `bin`'s value and the next occupied
/// bin's, and no row of the node has a bin in between.
#[derive(Clone, Copy)]
struct Cut {
    feature: usize,
    bin: u32,
    threshold: f64,
    gain: f64,
}

/// One feature's scan over a node: scores a cut between two adjacent
/// occupied bins.
struct Sweep<'a> {
    feature: usize,
    /// The feature's distinct values (bin → value).
    values: &'a [f64],
    /// The node's class counts.
    total_counts: &'a [usize],
    /// The node's rows.
    n: usize,
    node_impurity: f64,
    min_samples_leaf: usize,
}

impl Sweep<'_> {
    /// Scores cutting the node between occupied bins `below` and `above`,
    /// with `left_counts` (`n_left` rows) the class counts of every bin up
    /// to `below`, and records it in `best` and `best_left` if it gains
    /// more.
    fn cut(
        &self,
        best: &mut Option<Cut>,
        best_left: &mut [usize],
        left_counts: &[usize],
        n_left: usize,
        below: usize,
        above: usize,
    ) {
        let n_right = self.n - n_left;
        if n_left < self.min_samples_leaf || n_right < self.min_samples_leaf {
            return;
        }
        let weighted = (n_left as f64 * gini(left_counts, n_left)
            + n_right as f64 * gini_complement(self.total_counts, left_counts, n_right))
            / self.n as f64;
        let gain = self.node_impurity - weighted;
        if gain > best.map(|c| c.gain).unwrap_or(1e-12) {
            *best = Some(Cut {
                feature: self.feature,
                bin: below as u32,
                threshold: threshold(self.values[below], self.values[above]),
                gain,
            });
            best_left.copy_from_slice(left_counts);
        }
    }
}

/// The threshold of a cut between adjacent distinct values `below <
/// above`: their midpoint, unless rounding or overflow puts it outside
/// `[below, above)` (adjacent floats, `±∞`, magnitudes past `f64::MAX /
/// 2`), where `row <= threshold` would send both sides one way; then the
/// largest float under `above`. The sign of a zero on either side never
/// changes the result, so a bin's `0.0` and `-0.0` are interchangeable.
fn threshold(below: f64, above: f64) -> f64 {
    let mid = (below + above) / 2.0;
    if below <= mid && mid < above {
        mid
    } else {
        above.next_down()
    }
}

impl DecisionTree {
    /// Fits a tree on (a subset of) a dataset. `indices` selects the
    /// training rows (bootstrap samples pass duplicates freely); `rng`
    /// drives feature subsampling only.
    ///
    /// # Panics
    /// Panics if `indices` is empty or holds an index past the data.
    pub fn fit(
        data: &Dataset,
        indices: &[usize],
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> DecisionTree {
        let bins = Bins::new(data);
        DecisionTree::fit_binned(&bins, &mut Frame::new(&bins), indices, config, rng)
    }

    /// [`DecisionTree::fit`] on bins built once for many trees, with a
    /// reused `frame` — the forest's per-tree entry.
    pub(crate) fn fit_binned(
        bins: &Bins,
        frame: &mut Frame,
        indices: &[usize],
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> DecisionTree {
        assert!(!indices.is_empty(), "cannot fit a tree on zero rows");
        frame.rows.clear();
        frame.rows.extend(indices.iter().map(|&i| {
            assert!(i < bins.n, "row {i} out of range ({} rows)", bins.n);
            i as u32
        }));
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            n_classes: bins.n_classes,
            n_features: bins.values.len(),
            importances: vec![0.0; bins.values.len()],
        };
        // The root's class counts, in slot 0.
        frame.counts.clear();
        frame.counts.resize(bins.n_classes, 0);
        for &r in &frame.rows {
            frame.counts[bins.labels[r as usize] as usize] += 1;
        }
        tree.build(bins, frame, 0, 0, indices.len(), 0, config, rng);
        tree
    }

    /// Read-only view of the node arena, for the compiled lowering.
    pub(crate) fn arena(&self) -> &[Node] {
        &self.nodes
    }

    /// Recursive node construction over the row range `[lo, hi)`, whose
    /// class counts are in the frame's `slot`; returns the node's arena
    /// index.
    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        bins: &Bins,
        frame: &mut Frame,
        slot: usize,
        lo: usize,
        hi: usize,
        depth: usize,
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> usize {
        let n = hi - lo;
        let counts = frame.counts(slot);
        let node_impurity = gini(counts, n);
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;

        if pure || depth >= config.max_depth || n < config.min_samples_split {
            return self.push_leaf(counts, n);
        }

        let Some(cut) = frame.best_split(bins, lo, hi, slot, node_impurity, config, rng) else {
            return self.push_leaf(frame.counts(slot), n);
        };

        self.importances[cut.feature] += cut.gain * n as f64;

        let n_left = frame.partition(bins, lo, hi, &cut);
        debug_assert!(n_left > 0 && n_left < n);
        debug_assert_eq!(n_left, frame.best_left.iter().sum::<usize>());
        let (left, right) = frame.child_counts(slot, depth + 1);

        let node_idx = self.nodes.len();
        self.nodes.push(Node::Split {
            feature: cut.feature,
            threshold: cut.threshold,
            left: 0,
            right: 0,
        });
        let l = self.build(bins, frame, left, lo, lo + n_left, depth + 1, config, rng);
        let r = self.build(bins, frame, right, lo + n_left, hi, depth + 1, config, rng);
        if let Node::Split { left, right, .. } = &mut self.nodes[node_idx] {
            *left = l;
            *right = r;
        }
        node_idx
    }

    fn push_leaf(&mut self, counts: &[usize], n: usize) -> usize {
        let probs = counts.iter().map(|&c| c as f64 / n.max(1) as f64).collect();
        self.nodes.push(Node::Leaf { probs });
        self.nodes.len() - 1
    }

    /// Class-probability vector for one feature row.
    pub fn predict_proba(&self, row: &[f64]) -> &[f64] {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
                Node::Leaf { probs } => return probs,
            }
        }
    }

    /// Most probable class for one row.
    pub fn predict(&self, row: &[f64]) -> usize {
        argmax(self.predict_proba(row))
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of feature columns expected.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Node count (size of the shipped model).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Tree depth.
    pub fn depth(&self) -> usize {
        self.depth_of(0)
    }

    fn depth_of(&self, idx: usize) -> usize {
        match &self.nodes[idx] {
            Node::Leaf { .. } => 0,
            Node::Split { left, right, .. } => 1 + self.depth_of(*left).max(self.depth_of(*right)),
        }
    }

    /// Unnormalised impurity-decrease importances.
    pub fn importances(&self) -> &[f64] {
        &self.importances
    }
}

/// Index of the largest element (first wins ties).
pub fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// Gini impurity of a count vector.
fn gini(counts: &[usize], n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let mut sum_sq = 0.0;
    for &c in counts {
        let p = c as f64 / n as f64;
        sum_sq += p * p;
    }
    1.0 - sum_sq
}

/// Gini impurity of `total - left` over `n_right` samples, computed
/// without materialising the right-count vector. Performs exactly the
/// float operations `gini(&right_counts, n_right)` would, in the same
/// class order, so results are bit-identical to the two-vector form.
fn gini_complement(total: &[usize], left: &[usize], n_right: usize) -> f64 {
    if n_right == 0 {
        return 0.0;
    }
    let mut sum_sq = 0.0;
    for (&t, &l) in total.iter().zip(left) {
        let p = (t - l) as f64 / n_right as f64;
        sum_sq += p * p;
    }
    1.0 - sum_sq
}

/// The seed training algorithm, kept as the ground truth for the
/// bit-identity equivalence tests: per node it re-collects and re-sorts
/// every candidate feature column. It shares only `gini` and the
/// `threshold` rule with the binned trainer.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Fits a tree exactly as the seed implementation did.
    pub fn fit(
        data: &Dataset,
        indices: &[usize],
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> DecisionTree {
        assert!(!indices.is_empty(), "cannot fit a tree on zero rows");
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            n_classes: data.n_classes(),
            n_features: data.n_features(),
            importances: vec![0.0; data.n_features()],
        };
        let mut idx = indices.to_vec();
        build(&mut tree, data, &mut idx, 0, config, rng);
        tree
    }

    fn class_counts(data: &Dataset, indices: &[usize], k: usize) -> Vec<usize> {
        let mut counts = vec![0usize; k];
        for &i in indices {
            counts[data.label(i)] += 1;
        }
        counts
    }

    fn build(
        tree: &mut DecisionTree,
        data: &Dataset,
        indices: &mut [usize],
        depth: usize,
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> usize {
        let counts = class_counts(data, indices, tree.n_classes);
        let node_impurity = gini(&counts, indices.len());
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;

        if pure || depth >= config.max_depth || indices.len() < config.min_samples_split {
            return tree.push_leaf(&counts, indices.len());
        }

        let Some((feature, threshold, gain)) =
            best_split(tree, data, indices, node_impurity, config, rng)
        else {
            return tree.push_leaf(&counts, indices.len());
        };

        tree.importances[feature] += gain * indices.len() as f64;

        let mut mid = 0usize;
        for i in 0..indices.len() {
            if data.row(indices[i])[feature] <= threshold {
                indices.swap(i, mid);
                mid += 1;
            }
        }
        debug_assert!(mid > 0 && mid < indices.len());

        let node_idx = tree.nodes.len();
        tree.nodes.push(Node::Split {
            feature,
            threshold,
            left: 0,
            right: 0,
        });
        let (l, r) = {
            let (left_idx, right_idx) = indices.split_at_mut(mid);
            let l = build(tree, data, left_idx, depth + 1, config, rng);
            let r = build(tree, data, right_idx, depth + 1, config, rng);
            (l, r)
        };
        if let Node::Split { left, right, .. } = &mut tree.nodes[node_idx] {
            *left = l;
            *right = r;
        }
        node_idx
    }

    fn best_split(
        tree: &DecisionTree,
        data: &Dataset,
        indices: &[usize],
        node_impurity: f64,
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> Option<(usize, f64, f64)> {
        let all: Vec<usize> = (0..tree.n_features).collect();
        let (features, subset_len): (Vec<usize>, usize) = match config.features_per_split {
            Some(m) if m < all.len() => {
                let mut shuffled = all.clone();
                for i in 0..shuffled.len() {
                    let j = rng.gen_range(i..shuffled.len());
                    shuffled.swap(i, j);
                }
                (shuffled, m)
            }
            _ => {
                let len = all.len();
                (all, len)
            }
        };

        let n = indices.len();
        let mut best: Option<(usize, f64, f64)> = None;
        let mut pairs: Vec<(f64, usize)> = Vec::with_capacity(n);
        for (fi, &f) in features.iter().enumerate() {
            if fi >= subset_len && best.is_some() {
                break;
            }
            pairs.clear();
            pairs.extend(indices.iter().map(|&i| (data.row(i)[f], data.label(i))));
            pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
            if pairs[0].0 == pairs[n - 1].0 {
                continue;
            }

            let mut left_counts = vec![0usize; tree.n_classes];
            let total_counts = {
                let mut t = vec![0usize; tree.n_classes];
                for &(_, l) in pairs.iter() {
                    t[l] += 1;
                }
                t
            };
            for split_at in 1..n {
                left_counts[pairs[split_at - 1].1] += 1;
                if pairs[split_at - 1].0 == pairs[split_at].0 {
                    continue;
                }
                let n_left = split_at;
                let n_right = n - split_at;
                if n_left < config.min_samples_leaf || n_right < config.min_samples_leaf {
                    continue;
                }
                let right_counts: Vec<usize> = total_counts
                    .iter()
                    .zip(&left_counts)
                    .map(|(&t, &l)| t - l)
                    .collect();
                let weighted = (n_left as f64 * gini(&left_counts, n_left)
                    + n_right as f64 * gini(&right_counts, n_right))
                    / n as f64;
                let gain = node_impurity - weighted;
                if gain > best.map(|(_, _, g)| g).unwrap_or(1e-12) {
                    let threshold = threshold(pairs[split_at - 1].0, pairs[split_at].0);
                    best = Some((f, threshold, gain));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// A hierarchical two-feature dataset: class 1 iff `a > 0.5 && b > 0.5`.
    /// Greedy CART needs both features (depth ≥ 2) to solve it exactly,
    /// and — unlike XOR — its first split has positive gain.
    fn xor_dataset() -> Dataset {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..200 {
            let a = (i % 2) as f64;
            let b = ((i / 2) % 2) as f64;
            // jitter that never crosses the 0.5 boundaries
            let j = (i % 10) as f64 * 0.01;
            rows.push(vec![a + j, b + j]);
            labels.push((a as usize) & (b as usize));
        }
        Dataset::new(rows, labels, 2, vec!["a".into(), "b".into()])
    }

    fn fit(data: &Dataset, config: TreeConfig) -> DecisionTree {
        let idx: Vec<usize> = (0..data.len()).collect();
        let mut rng = StdRng::seed_from_u64(1);
        DecisionTree::fit(data, &idx, &config, &mut rng)
    }

    #[test]
    fn solves_xor() {
        let data = xor_dataset();
        let tree = fit(&data, TreeConfig::default());
        for i in 0..data.len() {
            assert_eq!(tree.predict(data.row(i)), data.label(i), "row {i}");
        }
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn pure_node_is_single_leaf() {
        let data = Dataset::new(
            vec![vec![1.0], vec![2.0], vec![3.0]],
            vec![1, 1, 1],
            2,
            vec!["x".into()],
        );
        let tree = fit(&data, TreeConfig::default());
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.predict(&[42.0]), 1);
        assert_eq!(tree.predict_proba(&[42.0]), &[0.0, 1.0]);
    }

    #[test]
    fn max_depth_zero_is_majority_vote() {
        let data = xor_dataset();
        let tree = fit(
            &data,
            TreeConfig {
                max_depth: 0,
                ..TreeConfig::default()
            },
        );
        assert_eq!(tree.n_nodes(), 1);
        // The AND dataset is 75 % class 0 / 25 % class 1.
        let p = tree.predict_proba(&[0.0, 0.0]);
        assert!((p[0] - 0.75).abs() < 1e-9 && (p[1] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let data = xor_dataset();
        let tree = fit(
            &data,
            TreeConfig {
                min_samples_leaf: 60,
                ..TreeConfig::default()
            },
        );
        // With 200 rows and 60-sample leaves the tree can split at most
        // a couple of times.
        assert!(tree.n_nodes() <= 7, "nodes {}", tree.n_nodes());
    }

    #[test]
    fn importances_credit_used_features() {
        let data = xor_dataset();
        let tree = fit(&data, TreeConfig::default());
        let imp = tree.importances();
        assert!(
            imp[0] > 0.0 && imp[1] > 0.0,
            "xor needs both features: {imp:?}"
        );

        // A dataset where only feature 0 matters.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 2) as f64, (i % 7) as f64])
            .collect();
        let labels: Vec<usize> = (0..100).map(|i| i % 2).collect();
        let d2 = Dataset::new(rows, labels, 2, vec!["sig".into(), "noise".into()]);
        let t2 = fit(&d2, TreeConfig::default());
        assert!(t2.importances()[0] > 10.0 * t2.importances()[1].max(1e-9));
    }

    #[test]
    fn serde_round_trip() {
        let data = xor_dataset();
        let tree = fit(&data, TreeConfig::default());
        let json = serde_json::to_string(&tree).unwrap();
        let back: DecisionTree = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tree);
        assert_eq!(back.predict(data.row(3)), tree.predict(data.row(3)));
    }

    #[test]
    fn feature_subsampling_still_learns() {
        let data = xor_dataset();
        let idx: Vec<usize> = (0..data.len()).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let tree = DecisionTree::fit(
            &data,
            &idx,
            &TreeConfig {
                features_per_split: Some(1),
                ..TreeConfig::default()
            },
            &mut rng,
        );
        let correct = (0..data.len())
            .filter(|&i| tree.predict(data.row(i)) == data.label(i))
            .count();
        assert!(correct as f64 / data.len() as f64 > 0.9);
    }

    #[test]
    fn argmax_first_tie_wins() {
        assert_eq!(argmax(&[0.3, 0.3, 0.2]), 0);
        assert_eq!(argmax(&[0.1, 0.5, 0.4]), 1);
    }

    /// A messier multi-class dataset: heavy ties, a constant column, runs
    /// of duplicates, a 257-value column (wider than most nodes, like
    /// the publisher bucket), mixed `-0.0`/`0.0`, `±∞` and midpoints that
    /// overflow, and adjacent floats — the shapes that exercise both
    /// counting sides and the threshold rule.
    fn gnarly_dataset(n: usize, n_classes: usize, seed: u64) -> Dataset {
        let zeros = [-0.0, 0.0, 0.0, -0.0, 1.0, -1.0];
        let extremes = [
            f64::NEG_INFINITY,
            -1.5e308,
            -1e308,
            0.5,
            1e308,
            1.5e308,
            f64::INFINITY,
        ];
        let x0 = 1.0f64;
        let adjacent = [x0, x0.next_up(), x0.next_up().next_up(), 3.0];
        let s = seed as usize;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    ((i as u64).wrapping_mul(seed | 1) % 23) as f64, // heavy ties
                    ((i * 31 + s) % 101) as f64 / 7.0,
                    5.0,                          // constant
                    ((i / 3) % 13) as f64,        // duplicated in runs of 3
                    ((i * 101 + s) % 257) as f64, // 257 values
                    zeros[(i * 5 + s) % zeros.len()],
                    extremes[(i * 3 + s) % extremes.len()],
                    adjacent[(i * 7 + s) % adjacent.len()],
                ]
            })
            .collect();
        let labels: Vec<usize> = (0..n)
            .map(|i| (i.wrapping_mul(7) + s) % n_classes)
            .collect();
        let names = ["a", "b", "c", "d", "wide", "zeros", "extremes", "adjacent"];
        Dataset::new(
            rows,
            labels,
            n_classes,
            names.iter().map(|&s| s.to_owned()).collect(),
        )
    }

    /// The binned trainer must produce trees bit-identical to the
    /// re-sorting reference (same nodes, same threshold bits, same
    /// importances) across depths, leaf constraints, class counts,
    /// feature subsampling and bootstrap duplicates, on both counting
    /// sides.
    #[test]
    fn binned_training_matches_reference_bit_for_bit() {
        let configs = [
            TreeConfig::default(),
            TreeConfig {
                max_depth: 3,
                ..TreeConfig::default()
            },
            TreeConfig {
                min_samples_leaf: 9,
                min_samples_split: 20,
                ..TreeConfig::default()
            },
            TreeConfig {
                features_per_split: Some(1),
                ..TreeConfig::default()
            },
            TreeConfig {
                features_per_split: Some(3),
                max_depth: 30,
                min_samples_leaf: 1,
                min_samples_split: 2,
            },
        ];
        for seed in [1u64, 7, 42] {
            for n_classes in [2usize, 3, 5] {
                let data = gnarly_dataset(300, n_classes, seed);
                // A bootstrap: duplicates and missing rows.
                let mut draw = StdRng::seed_from_u64(seed);
                let indices: Vec<usize> = (0..data.len())
                    .map(|_| draw.gen_range(0..data.len()))
                    .collect();
                for config in &configs {
                    let mut rng_a = StdRng::seed_from_u64(seed ^ 0xBEEF);
                    let mut rng_b = StdRng::seed_from_u64(seed ^ 0xBEEF);
                    let fast = DecisionTree::fit(&data, &indices, config, &mut rng_a);
                    let slow = reference::fit(&data, &indices, config, &mut rng_b);
                    assert_eq!(
                        format!("{fast:?}"),
                        format!("{slow:?}"),
                        "binned != reference for seed {seed}, k {n_classes}, {config:?}"
                    );
                }
            }
        }
    }

    /// A tree depends on the multiset of its rows, never on their order:
    /// the split search counts dense histograms or sorts keys, so the
    /// order a partition leaves a node's rows in cannot change a split.
    /// Fitting any permutation of the same bootstrap gives the same tree.
    #[test]
    fn row_order_never_changes_the_tree() {
        let configs = [
            TreeConfig::default(),
            TreeConfig {
                features_per_split: Some(3),
                max_depth: 30,
                min_samples_leaf: 1,
                min_samples_split: 2,
            },
        ];
        for seed in [3u64, 11] {
            let data = gnarly_dataset(300, 3, seed);
            let mut draw = StdRng::seed_from_u64(seed);
            let boot: Vec<usize> = (0..data.len())
                .map(|_| draw.gen_range(0..data.len()))
                .collect();
            let mut reversed = boot.clone();
            reversed.reverse();
            let mut shuffled = boot.clone();
            for i in 0..shuffled.len() {
                let j = draw.gen_range(i..shuffled.len());
                shuffled.swap(i, j);
            }
            for config in &configs {
                let fit = |rows: &[usize]| {
                    let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
                    format!("{:?}", DecisionTree::fit(&data, rows, config, &mut rng))
                };
                let tree = fit(&boot);
                assert_eq!(fit(&reversed), tree, "reversed, seed {seed}, {config:?}");
                assert_eq!(fit(&shuffled), tree, "shuffled, seed {seed}, {config:?}");
            }
        }
    }

    #[test]
    fn binned_training_matches_reference_on_xor() {
        let data = xor_dataset();
        let idx: Vec<usize> = (0..data.len()).collect();
        let mut rng_a = StdRng::seed_from_u64(1);
        let mut rng_b = StdRng::seed_from_u64(1);
        let fast = DecisionTree::fit(&data, &idx, &TreeConfig::default(), &mut rng_a);
        let slow = reference::fit(&data, &idx, &TreeConfig::default(), &mut rng_b);
        assert_eq!(fast, slow);
    }

    /// Where the midpoint of two adjacent values rounds or overflows onto
    /// the upper one (or is NaN), the threshold drops just under it, so
    /// `row <= threshold` still separates the two sides.
    #[test]
    fn thresholds_separate_adjacent_and_unbounded_values() {
        let x1 = 1.0f64.next_up();
        let x2 = x1.next_up();
        assert_eq!((x1 + x2) / 2.0, x2, "this midpoint rounds upward");
        assert_eq!(threshold(1.0, 3.0), 2.0);
        for (below, above) in [
            (x1, x2),
            (1.0, f64::INFINITY),
            (f64::NEG_INFINITY, f64::INFINITY),
            (1e308, 1.5e308),
            (-1.5e308, -1e308),
            (-5e-324, 0.0),
        ] {
            let t = threshold(below, above);
            assert!(below <= t && t < above, "{below} | {above} -> {t}");
            let data = Dataset::new(
                vec![vec![below], vec![below], vec![above], vec![above]],
                vec![0, 0, 1, 1],
                2,
                vec!["x".into()],
            );
            let tree = fit(&data, TreeConfig::default());
            assert_eq!(tree.n_nodes(), 3, "{below} | {above}");
            for i in 0..data.len() {
                assert_eq!(
                    tree.predict(data.row(i)),
                    data.label(i),
                    "{below} | {above}"
                );
            }
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::dataset::Dataset;
    use proptest::prelude::*;
    use rand::SeedableRng;

    proptest! {
        /// A trained tree's probability vectors always form a simplex and
        /// its predictions stay within the trained label range, for any
        /// deterministic dataset shape and any query point.
        #[test]
        fn prop_tree_is_well_formed(
            seed in 0u64..500,
            n in 20usize..120,
            n_classes in 2usize..5,
            depth in 1usize..10,
            qx in -100.0f64..100.0,
            qy in -100.0f64..100.0,
        ) {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    let x = ((i as u64).wrapping_mul(seed + 7) % 97) as f64;
                    let y = ((i as u64).wrapping_mul(seed + 13) % 89) as f64;
                    vec![x, y]
                })
                .collect();
            let labels: Vec<usize> =
                (0..n).map(|i| (i.wrapping_mul(3) + seed as usize) % n_classes).collect();
            let data = Dataset::new(rows, labels, n_classes, vec!["x".into(), "y".into()]);
            let idx: Vec<usize> = (0..n).collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let tree = DecisionTree::fit(
                &data,
                &idx,
                &TreeConfig { max_depth: depth, ..TreeConfig::default() },
                &mut rng,
            );
            let probs = tree.predict_proba(&[qx, qy]);
            prop_assert_eq!(probs.len(), n_classes);
            prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
            prop_assert!(tree.predict(&[qx, qy]) < n_classes);
            prop_assert!(tree.depth() <= depth);
        }

        /// Training rows are always predicted to a class that actually
        /// occurs among them (the tree cannot invent labels).
        #[test]
        fn prop_predictions_use_seen_labels(seed in 0u64..200) {
            let rows: Vec<Vec<f64>> =
                (0..60).map(|i| vec![((i as u64 * (seed + 3)) % 31) as f64]).collect();
            // Only classes 1 and 3 of a 5-class space appear.
            let labels: Vec<usize> = (0..60).map(|i| if i % 2 == 0 { 1 } else { 3 }).collect();
            let data = Dataset::new(rows, labels, 5, vec!["x".into()]);
            let idx: Vec<usize> = (0..60).collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let tree = DecisionTree::fit(&data, &idx, &TreeConfig::default(), &mut rng);
            for q in [-5.0, 0.0, 15.5, 400.0] {
                let p = tree.predict(&[q]);
                prop_assert!(p == 1 || p == 3, "invented class {p}");
            }
        }
    }
}
