//! Compiled flat-ensemble inference: the GBDT serving engine.
//!
//! The reference serving walk ([`RegTree::predict_raw`]) descends a
//! `Vec<RegNode>` per tree through an enum match — every step chases a
//! pointer into a heap allocation, branches on the variant tag, and drags
//! the training-only fields (`bin_split`, `gain`) through the cache. At 400
//! trees per score that layout is the dominant serving cost once feature
//! fetch is cheap.
//!
//! [`FlatForest`] lowers the fitted ensemble once into contiguous
//! structure-of-arrays storage shared by **all** trees:
//!
//! * `feature: Vec<u32>`, `threshold: Vec<f32>` — one entry per *internal*
//!   node, nothing else. A depth-3 tree's whole split state fits in a
//!   couple of cache lines.
//! * `children: Vec<[i32; 2]>` — packed child references. A non-negative
//!   reference is an arena node index; a negative one encodes a leaf as
//!   `!index` into the separate `leaf_values` array, so the descent loop
//!   needs no variant tag at all.
//! * `roots: Vec<i32>` — one reference per tree (a single-leaf tree's root
//!   is itself a leaf reference).
//!
//! Trees are lowered in node order and concatenated, so an ensemble walk
//! streams forward through one arena instead of hopping between per-tree
//! heap `Vec`s.
//!
//! Two traversal kernels sit on top:
//!
//! * [`FlatForest::raw_score`] — branch-light single-row descent. The
//!   branch `v >= threshold` is `false` for NaN, which reproduces the
//!   reference walk's NaN-goes-left rule without testing `is_nan()`.
//!   Leaf values accumulate into an `f64` in tree order, so the sum is
//!   bit-identical to [`super::Gbdt::raw_score_reference`].
//! * [`FlatForest::predict_blocked_into`] — blocked batch scoring: rows are
//!   processed in fixed [`BLOCK_ROWS`]-row blocks *tree-at-a-time*, so one
//!   tree's nodes stay hot in cache across the whole block instead of being
//!   evicted by the other trees between consecutive rows. Per-block state
//!   is a stack array; the kernel allocates nothing per row.
//!
//! The [`TraversalCounts`] instrumentation mirrors both kernels so the
//! `predict` gate can rest the cache claim on *counted* work (the
//! container has one core, so wall clock alone proves nothing): node visits
//! must be conserved exactly between the two orders while the blocked order
//! performs strictly fewer node touches in a freshly-switched ("cold")
//! tree.

use super::tree::{RegNode, RegTree};
use crate::dataset::Dataset;
use std::ops::Range;

/// Rows per block of the blocked batch kernel. 64 rows keep the per-block
/// accumulator (512 B of `f64`) inside one page while amortising each
/// tree's node loads over enough descents to matter.
pub const BLOCK_ROWS: usize = 64;

/// Traversal-cost counters for the predict bench.
///
/// `node_visits` counts internal-node touches, `leaf_visits` terminal
/// touches. A descent is *cold* when it enters a tree other than the most
/// recently descended one — its node loads (`cold_node_visits`) are the
/// cache-line-equivalent cost model the blocked kernel exists to shrink:
/// per-row scoring switches trees on every descent, the blocked kernel
/// only once per tree per block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalCounts {
    /// Internal (split) nodes touched.
    pub node_visits: u64,
    /// Leaf values read.
    pub leaf_visits: u64,
    /// Descents that entered a different tree than the previous descent.
    pub tree_switches: u64,
    /// Node + leaf touches made by cold descents.
    pub cold_node_visits: u64,
    /// Most recently descended tree, carried across calls.
    last_tree: Option<u32>,
}

/// The compiled ensemble. Built once per fitted/loaded model by
/// [`super::Gbdt::flat`]; immutable afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatForest {
    /// Ensemble intercept, added before any tree output.
    base_score: f64,
    /// Input width the rows must have.
    n_features: usize,
    /// Per-tree root references (`>= 0` node index, `< 0` = `!leaf_index`).
    roots: Vec<i32>,
    /// Split feature per internal node, all trees concatenated.
    feature: Vec<u32>,
    /// Split threshold per internal node (`value < threshold` goes left,
    /// NaN goes left).
    threshold: Vec<f32>,
    /// Packed `[left, right]` child references per internal node.
    children: Vec<[i32; 2]>,
    /// Leaf outputs, indexed by `!reference`.
    leaf_values: Vec<f32>,
}

impl FlatForest {
    /// Lower a fitted ensemble. Each tree's children already follow their
    /// parent; internal nodes map onto the shared arena in that order and leaves
    /// into the leaf-value array, so the compiled descent touches nodes in
    /// the exact sequence the reference walk would.
    pub(crate) fn compile(trees: &[RegTree], base_score: f64, n_features: usize) -> Self {
        let total_nodes: usize = trees.iter().map(RegTree::node_count).sum();
        assert!(
            total_nodes < i32::MAX as usize,
            "ensemble too large for 32-bit node references"
        );
        let mut forest = FlatForest {
            base_score,
            n_features,
            roots: Vec::with_capacity(trees.len()),
            feature: Vec::new(),
            threshold: Vec::new(),
            children: Vec::new(),
            leaf_values: Vec::new(),
        };
        let mut refs: Vec<i32> = Vec::new();
        for tree in trees {
            let nodes = tree.nodes();
            // Pass 1: assign every node its arena reference.
            refs.clear();
            let mut next_split = forest.feature.len() as i32;
            let mut next_leaf = forest.leaf_values.len() as i32;
            for node in nodes {
                match node {
                    RegNode::Split { .. } => {
                        refs.push(next_split);
                        next_split += 1;
                    }
                    RegNode::Leaf { .. } => {
                        refs.push(!next_leaf);
                        next_leaf += 1;
                    }
                }
            }
            // Pass 2: emit, resolving children through the reference map.
            for node in nodes {
                match node {
                    RegNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                        ..
                    } => {
                        forest.feature.push(*feature);
                        forest.threshold.push(*threshold);
                        forest
                            .children
                            .push([refs[*left as usize], refs[*right as usize]]);
                    }
                    RegNode::Leaf { value } => forest.leaf_values.push(*value),
                }
            }
            forest.roots.push(refs[0]);
        }
        forest
    }

    /// Trees in the compiled ensemble.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Internal nodes across all trees.
    pub fn n_internal_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Expected input width.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// One branch-light descent: follow `v >= threshold` (false for NaN,
    /// so NaN goes left like the reference walk) until a leaf reference.
    #[inline(always)]
    fn descend(&self, root: i32, row: &[f32]) -> f64 {
        let mut node = root;
        while node >= 0 {
            let i = node as usize;
            let v = row[self.feature[i] as usize];
            node = self.children[i][usize::from(v >= self.threshold[i])];
        }
        f64::from(self.leaf_values[!node as usize])
    }

    /// Raw additive score of one row: base score plus every tree's leaf,
    /// accumulated as `f64` in tree order — bit-identical to the reference
    /// `RegNode` walk.
    #[inline]
    pub fn raw_score(&self, row: &[f32]) -> f64 {
        debug_assert_eq!(row.len(), self.n_features);
        let mut s = self.base_score;
        for &root in &self.roots {
            s += self.descend(root, row);
        }
        s
    }

    /// Blocked batch kernel: score rows `range` of `data` into `out`
    /// (`out.len() == range.len()`), applying `transform` (the objective's
    /// output map) to each raw sum.
    ///
    /// Rows are processed in [`BLOCK_ROWS`]-row blocks, and within a block
    /// the loop runs **tree-at-a-time**: tree `t`'s nodes are descended for
    /// all rows of the block before tree `t + 1` is touched, so each tree's
    /// slice of the arena is loaded once per block instead of once per row.
    /// The per-block accumulator lives on the stack — the kernel performs
    /// zero heap allocations.
    ///
    /// Each row's sum is still `base + tree₀ + tree₁ + …` in tree order, so
    /// every output is bit-identical to [`Self::raw_score`] of that row.
    pub fn predict_blocked_into<F: Fn(f64) -> f32>(
        &self,
        data: &Dataset,
        range: Range<usize>,
        transform: F,
        out: &mut [f32],
    ) {
        assert_eq!(range.len(), out.len(), "output width mismatch");
        let mut acc = [0f64; BLOCK_ROWS];
        let mut row0 = range.start;
        for out_block in out.chunks_mut(BLOCK_ROWS) {
            let acc = &mut acc[..out_block.len()];
            acc.fill(self.base_score);
            for &root in &self.roots {
                for (j, a) in acc.iter_mut().enumerate() {
                    *a += self.descend(root, data.row(row0 + j));
                }
            }
            for (a, o) in acc.iter().zip(out_block.iter_mut()) {
                *o = transform(*a);
            }
            row0 += acc.len();
        }
    }

    /// Raw blocked scores without an output transform (tests and the bench
    /// compare these bits against per-row walks).
    pub fn raw_scores_blocked(&self, data: &Dataset, range: Range<usize>) -> Vec<f64> {
        let mut raw = vec![0f64; range.len()];
        let mut counts = TraversalCounts::default();
        self.raw_scores_blocked_counted(data, range, &mut raw, &mut counts);
        raw
    }

    /// Instrumented single-row walk, trees in ensemble order — the per-row
    /// traversal the bench compares the blocked kernel against. Returns the
    /// same bits as [`Self::raw_score`].
    pub fn raw_score_counted(&self, row: &[f32], counts: &mut TraversalCounts) -> f64 {
        let mut s = self.base_score;
        for (t, &root) in self.roots.iter().enumerate() {
            s += self.descend_counted(t as u32, root, row, counts);
        }
        s
    }

    /// Instrumented blocked kernel: identical traversal order to
    /// [`Self::predict_blocked_into`], raw sums into `out`.
    pub fn raw_scores_blocked_counted(
        &self,
        data: &Dataset,
        range: Range<usize>,
        out: &mut [f64],
        counts: &mut TraversalCounts,
    ) {
        assert_eq!(range.len(), out.len(), "output width mismatch");
        let mut row0 = range.start;
        for block in out.chunks_mut(BLOCK_ROWS) {
            block.fill(self.base_score);
            for (t, &root) in self.roots.iter().enumerate() {
                for (j, a) in block.iter_mut().enumerate() {
                    *a += self.descend_counted(t as u32, root, data.row(row0 + j), counts);
                }
            }
            row0 += block.len();
        }
    }

    /// The counted twin of [`Self::descend`]. A test pins the two to the
    /// same bits so the instrumentation cannot drift from the hot path.
    fn descend_counted(
        &self,
        tree: u32,
        root: i32,
        row: &[f32],
        counts: &mut TraversalCounts,
    ) -> f64 {
        let cold = counts.last_tree != Some(tree);
        if cold {
            counts.tree_switches += 1;
            counts.last_tree = Some(tree);
        }
        let mut touches = 0u64;
        let mut node = root;
        while node >= 0 {
            let i = node as usize;
            let v = row[self.feature[i] as usize];
            node = self.children[i][usize::from(v >= self.threshold[i])];
            touches += 1;
        }
        counts.node_visits += touches;
        counts.leaf_visits += 1;
        if cold {
            counts.cold_node_visits += touches + 1;
        }
        f64::from(self.leaf_values[!node as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbdt::GbdtConfig;

    fn nonlinear(n: usize, n_cols: usize, seed: u64) -> Dataset {
        let mut d = Dataset::new(n_cols);
        let mut state = seed;
        let mut rand01 = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f32 / (1u64 << 31) as f32
        };
        for _ in 0..n {
            let row: Vec<f32> = (0..n_cols).map(|_| rand01()).collect();
            let label = ((row[0] > 0.5) != (row[n_cols - 1] > 0.4)) as u8 as f32;
            d.push_row(&row, label);
        }
        d
    }

    #[test]
    fn flat_matches_reference_walk_bit_for_bit() {
        let d = nonlinear(600, 4, 11);
        let m = GbdtConfig {
            n_trees: 25,
            subsample: 0.7,
            colsample: 1.0,
            ..Default::default()
        }
        .fit(&d);
        let flat = m.flat();
        for i in 0..d.n_rows() {
            let row = d.row(i);
            assert_eq!(
                flat.raw_score(row).to_bits(),
                m.raw_score_reference(row).to_bits(),
                "row {i}"
            );
        }
    }

    #[test]
    fn nan_goes_left_exactly_like_the_reference() {
        let d = nonlinear(400, 3, 23);
        let m = GbdtConfig {
            n_trees: 15,
            subsample: 0.9,
            colsample: 1.0,
            ..Default::default()
        }
        .fit(&d);
        let flat = m.flat();
        // NaN in every position, alone and mixed with extremes.
        let probes: Vec<Vec<f32>> = vec![
            vec![f32::NAN, 0.2, 0.9],
            vec![0.7, f32::NAN, 0.1],
            vec![0.3, 0.6, f32::NAN],
            vec![f32::NAN, f32::NAN, f32::NAN],
            vec![f32::NAN, f32::NEG_INFINITY, f32::INFINITY],
        ];
        for row in &probes {
            assert_eq!(
                flat.raw_score(row).to_bits(),
                m.raw_score_reference(row).to_bits(),
                "row {row:?}"
            );
        }
    }

    #[test]
    fn single_leaf_tree_compiles_to_a_leaf_root() {
        // min_samples_leaf too large to split: every tree is one leaf.
        let d = nonlinear(40, 2, 5);
        let m = GbdtConfig {
            n_trees: 3,
            subsample: 1.0,
            colsample: 1.0,
            min_samples_leaf: 100,
            ..Default::default()
        }
        .fit(&d);
        let flat = m.flat();
        assert_eq!(flat.n_trees(), 3);
        assert_eq!(flat.n_internal_nodes(), 0);
        assert_eq!(flat.leaf_values.len(), 3);
        for i in 0..d.n_rows() {
            assert_eq!(
                flat.raw_score(d.row(i)).to_bits(),
                m.raw_score_reference(d.row(i)).to_bits()
            );
        }
    }

    #[test]
    fn blocked_kernel_matches_single_row_bits_across_block_boundaries() {
        // 150 rows: two full 64-row blocks plus a 22-row tail.
        let d = nonlinear(150, 5, 31);
        let m = GbdtConfig {
            n_trees: 20,
            subsample: 0.8,
            colsample: 1.0,
            ..Default::default()
        }
        .fit(&d);
        let flat = m.flat();
        let blocked = flat.raw_scores_blocked(&d, 0..d.n_rows());
        for (i, b) in blocked.iter().enumerate() {
            assert_eq!(
                b.to_bits(),
                flat.raw_score(d.row(i)).to_bits(),
                "row {i} diverged across the block boundary"
            );
        }
        // A sub-range starts its own blocks but must score the same rows.
        let mid = flat.raw_scores_blocked(&d, 70..140);
        for (k, b) in mid.iter().enumerate() {
            assert_eq!(b.to_bits(), flat.raw_score(d.row(70 + k)).to_bits());
        }
    }

    #[test]
    fn counted_walks_return_the_same_bits_as_the_hot_path() {
        let d = nonlinear(100, 4, 47);
        let m = GbdtConfig {
            n_trees: 10,
            subsample: 0.9,
            colsample: 1.0,
            ..Default::default()
        }
        .fit(&d);
        let flat = m.flat();
        let mut counts = TraversalCounts::default();
        for i in 0..d.n_rows() {
            assert_eq!(
                flat.raw_score_counted(d.row(i), &mut counts).to_bits(),
                flat.raw_score(d.row(i)).to_bits()
            );
        }
        assert_eq!(counts.leaf_visits, (d.n_rows() * flat.n_trees()) as u64);
    }

    #[test]
    fn blocked_order_conserves_visits_and_cuts_cold_touches() {
        let d = nonlinear(256, 6, 53);
        let m = GbdtConfig {
            n_trees: 12,
            subsample: 0.8,
            colsample: 1.0,
            ..Default::default()
        }
        .fit(&d);
        let flat = m.flat();
        assert!(flat.n_trees() > 1, "cold-touch comparison needs >1 tree");

        let mut per_row = TraversalCounts::default();
        for i in 0..d.n_rows() {
            flat.raw_score_counted(d.row(i), &mut per_row);
        }
        let mut blocked = TraversalCounts::default();
        let mut out = vec![0f64; d.n_rows()];
        flat.raw_scores_blocked_counted(&d, 0..d.n_rows(), &mut out, &mut blocked);

        // Same descents, same total work…
        assert_eq!(per_row.node_visits, blocked.node_visits);
        assert_eq!(per_row.leaf_visits, blocked.leaf_visits);
        // …but the blocked order switches trees once per (tree, block)
        // instead of once per (tree, row).
        let n_blocks = d.n_rows().div_ceil(BLOCK_ROWS) as u64;
        let n_trees = flat.n_trees() as u64;
        assert_eq!(per_row.tree_switches, d.n_rows() as u64 * n_trees);
        assert_eq!(blocked.tree_switches, n_blocks * n_trees);
        assert!(
            blocked.cold_node_visits < per_row.cold_node_visits,
            "blocked {} !< per-row {}",
            blocked.cold_node_visits,
            per_row.cold_node_visits
        );
    }
}
