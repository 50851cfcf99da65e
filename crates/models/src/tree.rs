//! Rule-based detection: ID3 and C5.0-style decision trees (paper §3.3).
//!
//! Both trees consume **discretized** data — every feature value must be a
//! small non-negative integer bin index (see [`crate::Discretizer`]); the
//! paper notes that "rule-based ID3 and C5.0 cannot support continuous
//! values well, we discretize the data into different bins".
//!
//! * [`Id3Config`] reproduces Quinlan's original Iterative Dichotomiser 3:
//!   multiway splits chosen by **information gain**, no pruning, each
//!   feature used at most once per path.
//! * [`C50Config`] reproduces the C4.5/C5.0 family improvements the paper
//!   credits for its edge over ID3: the **gain ratio** criterion, a
//!   minimum-cases-per-branch constraint, and **pessimistic error pruning**
//!   with the classic CF = 0.25 confidence factor.
//!
//! Trained trees share the flat [`DecisionTree`] representation: nodes in a
//! vector, multiway children indexed by bin value, every node carrying its
//! class prior so unseen bins fall back gracefully.

use crate::dataset::Dataset;
use crate::traits::Classifier;
use serde::{Deserialize, Serialize};

/// Sentinel for "no child" / "leaf node".
const NONE: u32 = u32::MAX;

/// Cap on distinct bin values per feature; guards against accidentally
/// feeding raw continuous data.
const MAX_BINS: usize = 4096;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct TreeNode {
    /// Split feature, or `NONE` for a leaf.
    feature: u32,
    /// Child node index per bin value; `NONE` falls back to this node's prior.
    children: Vec<u32>,
    /// Positive-class fraction of the training rows that reached this node
    /// (Laplace-smoothed).
    prob: f32,
    /// Number of training rows at this node.
    n: u32,
}

/// A trained multiway decision tree (produced by [`Id3Config::fit`] or
/// [`C50Config::fit`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<TreeNode>,
    algorithm: Algorithm,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Algorithm {
    Id3,
    C50,
}

impl DecisionTree {
    /// Number of nodes (internal + leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum depth (root = 0). Walks the stored structure.
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[TreeNode], idx: u32, d: usize) -> usize {
            let node = &nodes[idx as usize];
            if node.feature == NONE {
                return d;
            }
            node.children
                .iter()
                .filter(|&&c| c != NONE)
                .map(|&c| walk(nodes, c, d + 1))
                .max()
                .unwrap_or(d)
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0, 0)
        }
    }
}

impl Classifier for DecisionTree {
    fn predict_proba(&self, features: &[f32]) -> f32 {
        let mut idx = 0u32;
        loop {
            let node = &self.nodes[idx as usize];
            if node.feature == NONE {
                return node.prob;
            }
            let bin = features[node.feature as usize];
            let bin = if bin.is_finite() && bin >= 0.0 {
                bin as usize
            } else {
                return node.prob;
            };
            match node.children.get(bin) {
                Some(&child) if child != NONE => idx = child,
                _ => return node.prob,
            }
        }
    }

    fn name(&self) -> &'static str {
        match self.algorithm {
            Algorithm::Id3 => "ID3",
            Algorithm::C50 => "C5.0",
        }
    }
}

/// Configuration for training an ID3 tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Id3Config {
    /// Hard depth cap (ID3 historically has none; the cap bounds worst-case
    /// blowup on noisy data). Default 25.
    pub max_depth: usize,
    /// Minimum information gain (nats) required to split. Default 1e-7 —
    /// effectively "any positive gain", the classic overfitting behaviour.
    pub min_gain: f64,
}

impl Default for Id3Config {
    fn default() -> Self {
        Self {
            max_depth: 25,
            min_gain: 1e-7,
        }
    }
}

impl Id3Config {
    /// Train on a discretized labelled dataset.
    pub fn fit(&self, data: &Dataset) -> DecisionTree {
        let ctx = TrainContext::new(data);
        let mut nodes = Vec::new();
        let rows: Vec<u32> = (0..data.n_rows() as u32).collect();
        grow(
            &ctx,
            &mut nodes,
            rows,
            &mut vec![false; data.n_cols()],
            0,
            &GrowParams {
                algorithm: Algorithm::Id3,
                max_depth: self.max_depth,
                min_gain: self.min_gain,
                min_cases: 1,
            },
        );
        DecisionTree {
            nodes,
            algorithm: Algorithm::Id3,
        }
    }
}

/// Configuration for training a C5.0-style tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct C50Config {
    /// Hard depth cap. Default 25.
    pub max_depth: usize,
    /// Minimum training cases in at least two branches of a split
    /// (C4.5's `-m`). Default 8.
    pub min_cases: usize,
    /// Confidence factor for pessimistic pruning (C5.0's `-c`, default 0.25).
    pub cf: f64,
}

impl Default for C50Config {
    fn default() -> Self {
        Self {
            max_depth: 25,
            min_cases: 8,
            cf: 0.25,
        }
    }
}

impl C50Config {
    /// Train on a discretized labelled dataset, then prune pessimistically.
    pub fn fit(&self, data: &Dataset) -> DecisionTree {
        let ctx = TrainContext::new(data);
        let mut nodes = Vec::new();
        let rows: Vec<u32> = (0..data.n_rows() as u32).collect();
        grow(
            &ctx,
            &mut nodes,
            rows,
            &mut vec![false; data.n_cols()],
            0,
            &GrowParams {
                algorithm: Algorithm::C50,
                max_depth: self.max_depth,
                min_gain: 1e-7,
                min_cases: self.min_cases,
            },
        );
        let mut tree = DecisionTree {
            nodes,
            algorithm: Algorithm::C50,
        };
        if !tree.nodes.is_empty() {
            prune(&mut tree.nodes, 0, self.cf);
        }
        tree
    }
}

struct GrowParams {
    algorithm: Algorithm,
    max_depth: usize,
    min_gain: f64,
    min_cases: usize,
}

/// Immutable training view: per-feature bin counts + raw data.
struct TrainContext<'d> {
    data: &'d Dataset,
    n_bins: Vec<usize>,
}

impl<'d> TrainContext<'d> {
    fn new(data: &'d Dataset) -> Self {
        assert!(data.is_labeled(), "tree training needs labels");
        assert!(data.n_rows() > 0, "tree training needs rows");
        let n_bins = (0..data.n_cols())
            .map(|j| {
                let max = (0..data.n_rows())
                    .map(|i| {
                        let v = data.row(i)[j];
                        assert!(
                            v.is_finite() && v >= 0.0 && v.fract() == 0.0,
                            "feature {j} is not discretized (value {v}); run a Discretizer first"
                        );
                        v as usize
                    })
                    .max()
                    .unwrap_or(0);
                assert!(
                    max < MAX_BINS,
                    "feature {j} has {max} bins, exceeding {MAX_BINS}"
                );
                max + 1
            })
            .collect();
        Self { data, n_bins }
    }

    #[inline]
    fn bin(&self, row: u32, feature: usize) -> usize {
        self.data.row(row as usize)[feature] as usize
    }

    #[inline]
    fn label(&self, row: u32) -> bool {
        self.data.label(row as usize) > 0.5
    }
}

/// Binary entropy in nats of a positive count within a total.
fn entropy(pos: usize, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let p = pos as f64 / n as f64;
    let mut h = 0.0;
    if p > 0.0 {
        h -= p * p.ln();
    }
    if p < 1.0 {
        h -= (1.0 - p) * (1.0 - p).ln();
    }
    h
}

/// Split evaluation: information gain and (for C5.0) gain ratio.
struct SplitScore {
    gain: f64,
    criterion: f64,
}

fn evaluate_split(
    ctx: &TrainContext,
    rows: &[u32],
    feature: usize,
    parent_entropy: f64,
    params: &GrowParams,
    counts: &mut [(usize, usize)],
) -> Option<SplitScore> {
    let k = ctx.n_bins[feature];
    for c in counts[..k].iter_mut() {
        *c = (0, 0);
    }
    for &r in rows {
        let b = ctx.bin(r, feature);
        counts[b].0 += 1;
        if ctx.label(r) {
            counts[b].1 += 1;
        }
    }
    let n = rows.len();
    let mut children_entropy = 0.0;
    let mut split_info = 0.0;
    let mut non_empty = 0usize;
    let mut branches_with_min = 0usize;
    for &(cn, cp) in &counts[..k] {
        if cn == 0 {
            continue;
        }
        non_empty += 1;
        if cn >= params.min_cases {
            branches_with_min += 1;
        }
        let frac = cn as f64 / n as f64;
        children_entropy += frac * entropy(cp, cn);
        split_info -= frac * frac.ln();
    }
    if non_empty < 2 {
        return None;
    }
    // C4.5's -m constraint: at least two branches hold min_cases rows.
    if params.algorithm == Algorithm::C50 && branches_with_min < 2 {
        return None;
    }
    let gain = parent_entropy - children_entropy;
    if gain < params.min_gain {
        return None;
    }
    let criterion = match params.algorithm {
        Algorithm::Id3 => gain,
        Algorithm::C50 => {
            if split_info <= 1e-12 {
                return None;
            }
            gain / split_info
        }
    };
    Some(SplitScore { gain, criterion })
}

/// Recursively grow the tree; returns the created node's index.
fn grow(
    ctx: &TrainContext,
    nodes: &mut Vec<TreeNode>,
    rows: Vec<u32>,
    used: &mut Vec<bool>,
    depth: usize,
    params: &GrowParams,
) -> u32 {
    let n = rows.len();
    let pos = rows.iter().filter(|&&r| ctx.label(r)).count();
    // Laplace smoothing keeps leaf probabilities usable for ranking.
    let prob = ((pos as f64 + 1.0) / (n as f64 + 2.0)) as f32;
    let idx = nodes.len() as u32;
    nodes.push(TreeNode {
        feature: NONE,
        children: Vec::new(),
        prob,
        n: n as u32,
    });

    if pos == 0 || pos == n || depth >= params.max_depth || n < 2 {
        return idx;
    }

    let parent_entropy = entropy(pos, n);
    let max_bins = ctx.n_bins.iter().copied().max().unwrap_or(1);
    let mut counts = vec![(0usize, 0usize); max_bins];

    // C4.5 heuristic: only consider features whose gain is at least the
    // average gain of all candidate splits, then pick max gain ratio.
    let mut candidates: Vec<(usize, SplitScore)> = Vec::new();
    #[allow(clippy::needless_range_loop)]
    for f in 0..ctx.data.n_cols() {
        if used[f] {
            continue;
        }
        if let Some(s) = evaluate_split(ctx, &rows, f, parent_entropy, params, &mut counts) {
            candidates.push((f, s));
        }
    }
    if candidates.is_empty() {
        return idx;
    }
    let best_feature = match params.algorithm {
        Algorithm::Id3 => {
            candidates
                .iter()
                .max_by(|a, b| a.1.criterion.total_cmp(&b.1.criterion))
                .unwrap()
                .0
        }
        Algorithm::C50 => {
            let mean_gain: f64 =
                candidates.iter().map(|(_, s)| s.gain).sum::<f64>() / candidates.len() as f64;
            candidates
                .iter()
                .filter(|(_, s)| s.gain >= mean_gain - 1e-12)
                .max_by(|a, b| a.1.criterion.total_cmp(&b.1.criterion))
                .unwrap()
                .0
        }
    };

    // Partition rows by bin of the chosen feature.
    let k = ctx.n_bins[best_feature];
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); k];
    for &r in &rows {
        buckets[ctx.bin(r, best_feature)].push(r);
    }
    drop(rows);

    let mut children = vec![NONE; k];
    used[best_feature] = true;
    for (b, bucket) in buckets.into_iter().enumerate() {
        if bucket.is_empty() {
            continue;
        }
        children[b] = grow(ctx, nodes, bucket, used, depth + 1, params);
    }
    used[best_feature] = false;

    nodes[idx as usize].feature = best_feature as u32;
    nodes[idx as usize].children = children;
    idx
}

/// Upper confidence bound on the error rate of `e` errors in `n` cases
/// (Wilson score upper bound at one-sided confidence `cf`, the standard
/// approximation of C4.5's pessimistic error).
fn pessimistic_error(n: f64, e: f64, cf: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    let z = one_sided_z(cf);
    let f = e / n;
    let z2 = z * z;
    let num = f + z2 / (2.0 * n) + z * (f / n - f * f / n + z2 / (4.0 * n * n)).max(0.0).sqrt();
    (num / (1.0 + z2 / n)).min(1.0)
}

/// z-score with upper-tail probability `cf` (e.g. cf = 0.25 -> z ~ 0.6745),
/// via a rational approximation of the inverse normal CDF.
fn one_sided_z(cf: f64) -> f64 {
    // Beasley-Springer-Moro style approximation, adequate for cf in (0, 0.5].
    let p = 1.0 - cf.clamp(1e-6, 0.5);
    let t = (-2.0 * (1.0 - p).ln()).sqrt();
    let z = t - (2.30753 + 0.27061 * t) / (1.0 + 0.99229 * t + 0.04481 * t * t);
    z.max(0.0)
}

/// Bottom-up pessimistic pruning; returns the subtree's pessimistic error
/// count and collapses subtrees whose split does not pay for itself.
fn prune(nodes: &mut Vec<TreeNode>, idx: u32, cf: f64) -> f64 {
    let (feature, children, prob, n) = {
        let node = &nodes[idx as usize];
        (
            node.feature,
            node.children.clone(),
            node.prob,
            node.n as f64,
        )
    };
    // Errors if this node were a leaf predicting its majority class.
    let pos = (prob as f64 * (n + 2.0) - 1.0).max(0.0); // invert Laplace
    let leaf_errors = pos.min(n - pos.min(n));
    let leaf_pess = pessimistic_error(n, leaf_errors, cf) * n;
    if feature == NONE {
        return leaf_pess;
    }
    let mut subtree_pess = 0.0;
    for &c in children.iter().filter(|&&c| c != NONE) {
        subtree_pess += prune(nodes, c, cf);
    }
    if leaf_pess <= subtree_pess + 1e-9 {
        // Collapse: the split's estimated error is no better than a leaf.
        let node = &mut nodes[idx as usize];
        node.feature = NONE;
        node.children.clear();
        leaf_pess
    } else {
        subtree_pess
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// XOR-ish dataset: label = f0 != f1, plus an irrelevant f2.
    fn xor_data(n_noise_rows: usize) -> Dataset {
        let mut d = Dataset::new(3);
        for rep in 0..8 {
            for (a, b) in [(0.0f32, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
                let label = if a != b { 1.0 } else { 0.0 };
                d.push_row(&[a, b, (rep % 3) as f32], label);
            }
        }
        for i in 0..n_noise_rows {
            d.push_row(&[0.0, 0.0, (i % 3) as f32], 1.0); // label noise
        }
        d
    }

    /// AND dataset: label = f0 & f1 — greedily learnable (both features have
    /// positive root gain, unlike XOR where ID3 provably stalls).
    fn and_data() -> Dataset {
        let mut d = Dataset::new(3);
        for rep in 0..8 {
            for (a, b) in [(0.0f32, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
                let label = if a == 1.0 && b == 1.0 { 1.0 } else { 0.0 };
                d.push_row(&[a, b, (rep % 3) as f32], label);
            }
        }
        d
    }

    #[test]
    fn id3_learns_conjunction_exactly() {
        let tree = Id3Config::default().fit(&and_data());
        for (a, b) in [(0.0f32, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            let want = if a == 1.0 && b == 1.0 { 1.0 } else { 0.0 };
            let got = tree.predict_proba(&[a, b, 0.0]);
            assert!(
                (got - want).abs() < 0.2,
                "and({a},{b}) predicted {got}, want ~{want}"
            );
        }
    }

    #[test]
    fn id3_with_informative_second_level_learns_xor_given_first_split() {
        // Pure XOR has zero root gain for every feature, so greedy ID3
        // cannot start — the canonical ID3 limitation. Verify the documented
        // behaviour: the tree degenerates to the prior.
        let tree = Id3Config::default().fit(&xor_data(0));
        let p = tree.predict_proba(&[0.0, 1.0, 0.0]);
        assert!((p - 0.5).abs() < 0.1, "expected prior ~0.5, got {p}");
    }

    #[test]
    fn c50_prunes_noise_smaller_than_id3() {
        // A single informative binary feature plus two high-cardinality
        // noise features that ID3 will happily split on.
        let mut d = Dataset::new(3);
        let mut state = 12345u64;
        let mut rand01 = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64).fract()
        };
        for i in 0..400 {
            let informative = (i % 2) as f32;
            let label = if rand01() < 0.9 {
                informative
            } else {
                1.0 - informative
            };
            d.push_row(
                &[informative, (i % 10) as f32, ((i / 3) % 10) as f32],
                label,
            );
        }
        let id3 = Id3Config::default().fit(&d);
        let c50 = C50Config::default().fit(&d);
        assert!(
            c50.node_count() < id3.node_count(),
            "C5.0 ({}) should be smaller than ID3 ({})",
            c50.node_count(),
            id3.node_count()
        );
        // Both should still get the informative feature right.
        assert!(c50.predict_proba(&[1.0, 0.0, 0.0]) > 0.6);
        assert!(c50.predict_proba(&[0.0, 0.0, 0.0]) < 0.4);
    }

    #[test]
    fn unseen_bin_falls_back_to_node_prior() {
        let mut d = Dataset::new(1);
        for _ in 0..10 {
            d.push_row(&[0.0], 0.0);
            d.push_row(&[1.0], 1.0);
        }
        let tree = Id3Config::default().fit(&d);
        // Bin 7 never seen during training -> root prior ~ 0.5.
        let p = tree.predict_proba(&[7.0]);
        assert!((p - 0.5).abs() < 0.1, "fallback prob {p}");
    }

    #[test]
    fn pure_dataset_is_single_leaf() {
        let mut d = Dataset::new(2);
        for i in 0..5 {
            d.push_row(&[i as f32, 0.0], 1.0);
        }
        let tree = Id3Config::default().fit(&d);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.depth(), 0);
        assert!(tree.predict_proba(&[0.0, 0.0]) > 0.8);
    }

    #[test]
    fn depth_cap_is_respected() {
        let d = xor_data(0);
        let tree = Id3Config {
            max_depth: 1,
            ..Default::default()
        }
        .fit(&d);
        assert!(tree.depth() <= 1);
    }

    #[test]
    fn pessimistic_error_increases_for_small_n() {
        // Same observed error rate, less data -> more pessimism.
        let small = pessimistic_error(10.0, 1.0, 0.25);
        let large = pessimistic_error(1000.0, 100.0, 0.25);
        assert!(small > large);
        assert!(small > 0.1 && small < 1.0);
    }

    #[test]
    fn z_score_approximation_sane() {
        // z for one-sided 25% tail is ~0.6745.
        let z = one_sided_z(0.25);
        assert!((z - 0.6745).abs() < 0.03, "z = {z}");
    }

    #[test]
    #[should_panic(expected = "not discretized")]
    fn continuous_values_are_rejected() {
        let mut d = Dataset::new(1);
        d.push_row(&[0.5], 0.0);
        Id3Config::default().fit(&d);
    }

    #[test]
    fn leaf_and_node_counts_consistent() {
        let d = xor_data(4);
        let tree = C50Config::default().fit(&d);
        let leaves = tree.nodes.iter().filter(|n| n.feature == NONE).count();
        assert!(leaves <= tree.node_count());
        assert!(leaves >= 1);
    }
}
