//! Histogram-grown regression trees — the weak learners inside GBDT.
//!
//! Each node accumulates per-bin `(Σg, Σh, count)` histograms over its rows
//! for the sampled features, then scans bins once to find the best split by
//! the second-order gain formula `G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)`.
//! Leaves output `−G/(H+λ)` (the Newton step). The bin scan is one
//! function, [`pick_split`], shared with KunPeng's distributed trainer,
//! which fills the same [`HistBin`]s from histograms merged on its
//! parameter server and grows the same [`RegTree`] level by level through
//! [`RegTree::root`] and [`RegTree::split_leaf`].
//!
//! Split finding is **feature-parallel**: the sampled features are chunked
//! across the pool's workers, each worker accumulates histograms for its
//! features into a private scratch buffer, and the per-chunk bests are
//! reduced in chunk order. Row accumulation order inside one feature never
//! changes and the strictly-greater / first-wins reduction matches the
//! serial scan exactly, so the chosen split — and therefore the whole tree
//! — is bit-identical for any thread count. The row partition after a
//! split is likewise chunked contiguously and concatenated in chunk order,
//! preserving the serial row order.

use super::binned::BinnedMatrix;
use serde::{Deserialize, Serialize};
use titant_parallel::Pool;

/// Tree-growing hyperparameters shared across all boosting rounds.
#[derive(Debug, Clone)]
pub struct TreeParams {
    pub max_depth: usize,
    pub reg_lambda: f64,
    pub min_samples_leaf: usize,
}

/// Below this many `rows × features` histogram cells a node's split search
/// runs inline — scoped-thread spawn overhead would dominate.
const PAR_HIST_MIN_CELLS: usize = 16 * 1024;
/// Below this many rows the post-split partition runs inline.
const PAR_PARTITION_MIN_ROWS: usize = 8 * 1024;

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum RegNode {
    Split {
        feature: u32,
        /// Serving predicate: `value < threshold` goes left.
        threshold: f32,
        /// Training predicate: `code < bin_split` goes left.
        bin_split: u8,
        left: u32,
        right: u32,
        /// Split gain, recorded for feature importance.
        gain: f32,
    },
    Leaf {
        value: f32,
    },
}

/// One regression tree of the ensemble.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegTree {
    nodes: Vec<RegNode>,
}

/// Gradient statistics of one histogram bin, or of a whole node: `Σg`,
/// `Σh` and the row count.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistBin {
    pub g: f64,
    pub h: f64,
    pub n: u32,
}

impl HistBin {
    /// The node's Newton step `−G/(H+λ)`, the value it holds as a leaf.
    fn leaf_value(&self, reg_lambda: f64) -> f32 {
        (-self.g / (self.h + reg_lambda)) as f32
    }

    /// The sums of the rows in `self` but not in `part`.
    fn minus(&self, part: &HistBin) -> HistBin {
        HistBin {
            g: self.g - part.g,
            h: self.h - part.h,
            n: self.n - part.n,
        }
    }
}

/// The best split found so far for one node: `code < bin_split` of
/// `feature` goes left, and `left` holds the left child's sums.
#[derive(Debug, Clone, Copy)]
pub struct BestSplit {
    pub feature: usize,
    pub bin_split: usize,
    pub gain: f64,
    pub left: HistBin,
}

/// The split picker every GBDT trainer shares. Prefix-scans `hist`, one
/// feature's filled histogram over a node whose sums are `total` (bin `b`
/// holds the rows with code `b`), for the split "code < s" with the
/// largest second-order gain `G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)`,
/// and stores it in `best` if its gain is above `1e-12` and strictly
/// above `best`'s. Both sides must keep `min_samples_leaf` rows. A
/// caller scanning features in ascending order therefore keeps the lowest
/// feature, then the lowest bin, among equal gains.
pub fn pick_split(
    best: &mut Option<BestSplit>,
    feature: usize,
    hist: &[HistBin],
    total: &HistBin,
    params: &TreeParams,
) {
    let parent_obj = total.g * total.g / (total.h + params.reg_lambda);
    let mut left = HistBin::default();
    for s in 1..hist.len() {
        let prev = &hist[s - 1];
        left.g += prev.g;
        left.h += prev.h;
        left.n += prev.n;
        let right_n = total.n - left.n;
        if (left.n as usize) < params.min_samples_leaf
            || (right_n as usize) < params.min_samples_leaf
        {
            continue;
        }
        let right_g = total.g - left.g;
        let right_h = total.h - left.h;
        let gain = left.g * left.g / (left.h + params.reg_lambda)
            + right_g * right_g / (right_h + params.reg_lambda)
            - parent_obj;
        if gain > 1e-12 && best.as_ref().is_none_or(|b| gain > b.gain) {
            *best = Some(BestSplit {
                feature,
                bin_split: s,
                gain,
                left,
            });
        }
    }
}

impl RegTree {
    /// Fit a tree on the sampled `rows` using only the sampled `features`,
    /// with split finding and row partitioning spread over `pool`.
    pub fn fit(
        matrix: &BinnedMatrix,
        rows: &[u32],
        features: &[u32],
        grad: &[f32],
        hess: &[f32],
        params: &TreeParams,
        pool: &Pool,
    ) -> Self {
        let mut nodes = Vec::new();
        let mut scratch_hist = vec![HistBin::default(); 256];
        grow(
            matrix,
            rows.to_vec(),
            features,
            grad,
            hess,
            params,
            0,
            &mut nodes,
            &mut scratch_hist,
            pool,
        );
        Self { nodes }
    }

    /// A one-leaf tree holding the Newton step of `total`: the root a
    /// level-wise grower (KunPeng's distributed trainer) starts from.
    pub fn root(total: &HistBin, params: &TreeParams) -> Self {
        Self {
            nodes: vec![RegNode::Leaf {
                value: total.leaf_value(params.reg_lambda),
            }],
        }
    }

    /// Split leaf `node`, whose rows sum to `total`, as `best` says. The
    /// two new leaves hold the Newton steps of `best.left` and of
    /// `total − best.left`, so a level-wise grower needs no further pass
    /// over the rows to value them. Returns their indices (left, right).
    pub fn split_leaf(
        &mut self,
        node: u32,
        total: &HistBin,
        best: &BestSplit,
        matrix: &BinnedMatrix,
        params: &TreeParams,
    ) -> (u32, u32) {
        let left = self.nodes.len() as u32;
        for side in [best.left, total.minus(&best.left)] {
            self.nodes.push(RegNode::Leaf {
                value: side.leaf_value(params.reg_lambda),
            });
        }
        self.nodes[node as usize] = RegNode::Split {
            feature: best.feature as u32,
            threshold: matrix.threshold(best.feature, best.bin_split),
            bin_split: best.bin_split as u8,
            left,
            right: left + 1,
            gain: best.gain as f32,
        };
        (left, left + 1)
    }

    /// Multiply every leaf by `factor`: the trainers store each tree
    /// shrunk by the learning rate, the step its score update took.
    pub fn scale_leaves(&mut self, factor: f64) {
        for node in &mut self.nodes {
            if let RegNode::Leaf { value } = node {
                *value = (f64::from(*value) * factor) as f32;
            }
        }
    }

    /// The tree's shape whatever its node order: a preorder walk, with
    /// `Some((feature, bin_split))` for a split and `None` for a leaf.
    pub fn splits(&self) -> Vec<Option<(u32, u8)>> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![0u32];
        while let Some(i) = stack.pop() {
            match self.nodes[i as usize] {
                RegNode::Split {
                    feature,
                    bin_split,
                    left,
                    right,
                    ..
                } => {
                    out.push(Some((feature, bin_split)));
                    stack.push(right);
                    stack.push(left);
                }
                RegNode::Leaf { .. } => out.push(None),
            }
        }
        out
    }

    /// Evaluate on a raw feature row (serving path).
    pub fn predict_raw(&self, row: &[f32]) -> f64 {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                RegNode::Leaf { value } => return f64::from(*value),
                RegNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    let v = row[*feature as usize];
                    // NaN goes right (matches bin 0 < split being... NaN maps
                    // to bin 0 during training, which goes left). Keep the
                    // training-time behaviour: NaN left.
                    idx = if v.is_nan() || v < *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    /// Evaluate row `i` of the binned training matrix (training-path update).
    pub fn predict_binned(&self, matrix: &BinnedMatrix, i: u32) -> f64 {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                RegNode::Leaf { value } => return f64::from(*value),
                RegNode::Split {
                    feature,
                    bin_split,
                    left,
                    right,
                    ..
                } => {
                    idx = if matrix.code(i, *feature as usize) < *bin_split {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    /// Add each split's gain to `importance[feature]`.
    pub fn accumulate_importance(&self, importance: &mut [f64]) {
        for n in &self.nodes {
            if let RegNode::Split { feature, gain, .. } = n {
                importance[*feature as usize] += f64::from(*gain);
            }
        }
    }

    /// Node count (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The raw node storage, exposed to the crate so the compiled
    /// [`super::flat::FlatForest`] can lower the tree without re-walking it
    /// through the enum match. Every child comes after its parent: `grow`
    /// emits preorder, [`RegTree::split_leaf`] appends level by level.
    pub(crate) fn nodes(&self) -> &[RegNode] {
        &self.nodes
    }

    /// Why a deserialized tree cannot be served, or `Ok` when it can: the
    /// tree must have a node, and each split must send both children to
    /// later nodes of the tree — the trainers emit children after their
    /// parent, so every walk moves forward and ends — and read a feature
    /// below `n_features`.
    pub(crate) fn check(&self, n_features: usize) -> Result<(), String> {
        let len = self.nodes.len();
        if len == 0 {
            return Err("a tree has no nodes".into());
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let RegNode::Split {
                feature,
                left,
                right,
                ..
            } = *node
            else {
                continue;
            };
            for child in [left, right] {
                let child = child as usize;
                if child <= i || child >= len {
                    return Err(format!(
                        "node {i} of {len} has child {child}: not a later node of the tree"
                    ));
                }
            }
            if feature as usize >= n_features {
                return Err(format!(
                    "node {i} splits on feature {feature}, past the {n_features}-wide row"
                ));
            }
        }
        Ok(())
    }
}

/// Best split over one contiguous chunk of the sorted feature sample.
/// `hist` is a ≥256-bin scratch buffer private to the caller.
#[allow(clippy::too_many_arguments)]
fn best_split_for(
    matrix: &BinnedMatrix,
    rows: &[u32],
    features: &[u32],
    grad: &[f32],
    hess: &[f32],
    params: &TreeParams,
    total: &HistBin,
    hist: &mut [HistBin],
) -> Option<BestSplit> {
    let mut best: Option<BestSplit> = None;
    for &fu in features {
        let f = fu as usize;
        let k = matrix.n_bins(f);
        if k < 2 {
            continue;
        }
        for b in hist[..k].iter_mut() {
            *b = HistBin::default();
        }
        let col = matrix.column(f);
        for &r in rows {
            let code = col[r as usize] as usize;
            let b = &mut hist[code];
            b.g += f64::from(grad[r as usize]);
            b.h += f64::from(hess[r as usize]);
            b.n += 1;
        }
        pick_split(&mut best, f, &hist[..k], total, params);
    }
    best
}

#[allow(clippy::too_many_arguments)]
fn grow(
    matrix: &BinnedMatrix,
    rows: Vec<u32>,
    features: &[u32],
    grad: &[f32],
    hess: &[f32],
    params: &TreeParams,
    depth: usize,
    nodes: &mut Vec<RegNode>,
    hist: &mut [HistBin],
    pool: &Pool,
) -> u32 {
    let idx = nodes.len() as u32;
    // Node totals accumulate serially in row order: a chunked reduction
    // would reassociate the f64 sums and break cross-thread determinism.
    let mut total = HistBin::default();
    for &r in &rows {
        total.g += f64::from(grad[r as usize]);
        total.h += f64::from(hess[r as usize]);
        total.n += 1;
    }
    let leaf_value = total.leaf_value(params.reg_lambda);

    if depth >= params.max_depth || rows.len() < 2 * params.min_samples_leaf {
        nodes.push(RegNode::Leaf { value: leaf_value });
        return idx;
    }

    let best = if pool.threads() > 1 && rows.len() * features.len() >= PAR_HIST_MIN_CELLS {
        // Feature-parallel: each worker owns a contiguous chunk of the
        // sorted feature sample and a private histogram buffer; the
        // chunk-ordered reduction with strict `>` keeps the same
        // lowest-feature-index tie-break as the serial scan.
        pool.map_ranges(features.len(), |_, fr| {
            let mut scratch = vec![HistBin::default(); 256];
            best_split_for(
                matrix,
                &rows,
                &features[fr],
                grad,
                hess,
                params,
                &total,
                &mut scratch,
            )
        })
        .into_iter()
        .flatten()
        .fold(None::<BestSplit>, |best, cand| match best {
            Some(b) if cand.gain <= b.gain => Some(b),
            _ => Some(cand),
        })
    } else {
        best_split_for(matrix, &rows, features, grad, hess, params, &total, hist)
    };

    let Some(best) = best else {
        nodes.push(RegNode::Leaf { value: leaf_value });
        return idx;
    };

    let col = matrix.column(best.feature);
    let goes_left = |r: u32| (col[r as usize] as usize) < best.bin_split;
    let (left_rows, right_rows): (Vec<u32>, Vec<u32>) =
        if pool.threads() > 1 && rows.len() >= PAR_PARTITION_MIN_ROWS {
            // Chunk-partition then concatenate in chunk order: identical to
            // the serial order-preserving partition.
            let parts: Vec<(Vec<u32>, Vec<u32>)> = pool.map_ranges(rows.len(), |_, r| {
                rows[r].iter().copied().partition(|&row| goes_left(row))
            });
            let mut left = Vec::with_capacity(rows.len());
            let mut right = Vec::new();
            for (l, r) in parts {
                left.extend_from_slice(&l);
                right.extend_from_slice(&r);
            }
            (left, right)
        } else {
            rows.into_iter().partition(|&row| goes_left(row))
        };

    nodes.push(RegNode::Leaf { value: 0.0 }); // placeholder
    let left = grow(
        matrix,
        left_rows,
        features,
        grad,
        hess,
        params,
        depth + 1,
        nodes,
        hist,
        pool,
    );
    let right = grow(
        matrix,
        right_rows,
        features,
        grad,
        hess,
        params,
        depth + 1,
        nodes,
        hist,
        pool,
    );
    nodes[idx as usize] = RegNode::Split {
        feature: best.feature as u32,
        threshold: matrix.threshold(best.feature, best.bin_split),
        bin_split: best.bin_split as u8,
        left,
        right,
        gain: best.gain as f32,
    };
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    fn step_dataset() -> (Dataset, Vec<f32>, Vec<f32>) {
        // Residuals of a step function: g = pred - y with pred = 0.
        let mut d = Dataset::new(1);
        let mut grad = Vec::new();
        let mut hess = Vec::new();
        for i in 0..100 {
            let x = i as f32;
            let y = if x >= 50.0 { 1.0 } else { 0.0 };
            d.push_row(&[x], y);
            grad.push(0.0 - y);
            hess.push(1.0);
        }
        (d, grad, hess)
    }

    #[test]
    fn single_split_recovers_step() {
        let (d, g, h) = step_dataset();
        let m = BinnedMatrix::build(&d, 64);
        let rows: Vec<u32> = (0..100).collect();
        let tree = RegTree::fit(
            &m,
            &rows,
            &[0],
            &g,
            &h,
            &TreeParams {
                max_depth: 1,
                reg_lambda: 0.0,
                min_samples_leaf: 1,
            },
            &Pool::serial(),
        );
        // Leaf values approximate -mean(g): 0 on the left, +1 on the right.
        assert!(tree.predict_raw(&[10.0]) < 0.1);
        assert!(tree.predict_raw(&[90.0]) > 0.9);
        assert_eq!(tree.node_count(), 3);
    }

    #[test]
    fn binned_and_raw_predictions_agree_on_training_rows() {
        let (d, g, h) = step_dataset();
        let m = BinnedMatrix::build(&d, 16);
        let rows: Vec<u32> = (0..100).collect();
        let tree = RegTree::fit(
            &m,
            &rows,
            &[0],
            &g,
            &h,
            &TreeParams {
                max_depth: 3,
                reg_lambda: 1.0,
                min_samples_leaf: 2,
            },
            &Pool::serial(),
        );
        for i in 0..100u32 {
            let raw = tree.predict_raw(d.row(i as usize));
            let binned = tree.predict_binned(&m, i);
            assert!(
                (raw - binned).abs() < 1e-12,
                "row {i}: raw {raw} != binned {binned}"
            );
        }
    }

    #[test]
    fn min_samples_leaf_blocks_tiny_splits() {
        let (d, g, h) = step_dataset();
        let m = BinnedMatrix::build(&d, 64);
        let rows: Vec<u32> = (0..100).collect();
        let tree = RegTree::fit(
            &m,
            &rows,
            &[0],
            &g,
            &h,
            &TreeParams {
                max_depth: 10,
                reg_lambda: 0.0,
                min_samples_leaf: 60, // no split can satisfy both sides
            },
            &Pool::serial(),
        );
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn importance_accumulates_on_split_feature() {
        let (d, g, h) = step_dataset();
        let m = BinnedMatrix::build(&d, 16);
        let rows: Vec<u32> = (0..100).collect();
        let tree = RegTree::fit(
            &m,
            &rows,
            &[0],
            &g,
            &h,
            &TreeParams {
                max_depth: 2,
                reg_lambda: 1.0,
                min_samples_leaf: 1,
            },
            &Pool::serial(),
        );
        let mut imp = vec![0.0];
        tree.accumulate_importance(&mut imp);
        assert!(imp[0] > 0.0);
    }

    #[test]
    fn pure_gradient_node_stays_leaf() {
        // All gradients equal -> no split improves the objective.
        let mut d = Dataset::new(1);
        for i in 0..20 {
            d.push_row(&[i as f32], 1.0);
        }
        let g = vec![-1.0f32; 20];
        let h = vec![1.0f32; 20];
        let m = BinnedMatrix::build(&d, 8);
        let rows: Vec<u32> = (0..20).collect();
        let tree = RegTree::fit(
            &m,
            &rows,
            &[0],
            &g,
            &h,
            &TreeParams {
                max_depth: 4,
                reg_lambda: 0.0,
                min_samples_leaf: 1,
            },
            &Pool::serial(),
        );
        assert_eq!(tree.node_count(), 1);
        assert!((tree.predict_raw(&[5.0]) - 1.0).abs() < 1e-6);
    }

    /// Multi-feature tree grown with 1 and 4 workers must be identical —
    /// the cross-thread determinism contract of the parallel split search
    /// (5000 rows × 6 features clears `PAR_HIST_MIN_CELLS`, so the root
    /// search runs feature-parallel; the ensemble-level test in
    /// `gbdt::tests` additionally covers the parallel partition).
    #[test]
    fn parallel_and_serial_trees_agree() {
        let mut d = Dataset::new(6);
        let mut state = 5u64;
        let mut rand01 = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f32 / (1u64 << 31) as f32
        };
        let mut grad = Vec::new();
        let n = 5000;
        for _ in 0..n {
            let row: Vec<f32> = (0..6).map(|_| rand01()).collect();
            let y = ((row[0] > 0.5) != (row[3] > 0.5)) as u8 as f32;
            grad.push(0.0 - y);
            d.push_row(&row, y);
        }
        let hess = vec![1.0f32; n];
        let m = BinnedMatrix::build(&d, 32);
        let rows: Vec<u32> = (0..n as u32).collect();
        let feats: Vec<u32> = (0..6).collect();
        let params = TreeParams {
            max_depth: 4,
            reg_lambda: 1.0,
            min_samples_leaf: 2,
        };
        let serial = RegTree::fit(&m, &rows, &feats, &grad, &hess, &params, &Pool::serial());
        let parallel = RegTree::fit(&m, &rows, &feats, &grad, &hess, &params, &Pool::new(4));
        assert_eq!(serial.node_count(), parallel.node_count());
        for i in 0..n as u32 {
            assert_eq!(
                serial.predict_binned(&m, i),
                parallel.predict_binned(&m, i),
                "row {i}"
            );
        }
    }
}
