//! Data-parallel histogram GBDT on the parameter server.
//!
//! The communication pattern that shapes Figure 10's GBDT curve: rows are
//! sharded across workers; for every level of every tree, each worker
//! builds local gradient/hessian histograms for the active nodes and
//! `push_add`s them to the server, the coordinator pulls the merged
//! histograms and picks splits, and workers re-partition their shards.
//! Per-round traffic therefore grows with the worker count — the reason
//! the paper's GBDT time "does not obviously halve" from 20 to 40 machines
//! while compute keeps shrinking.

use crate::ps::ParamServer;
use titant_models::gbdt::binned::BinnedMatrix;
use titant_models::Dataset;

/// Distributed GBDT hyperparameters (paper §5.1: 400 trees, depth 3).
#[derive(Debug, Clone)]
pub struct DistGbdtConfig {
    pub n_trees: usize,
    pub max_depth: usize,
    pub learning_rate: f64,
    pub reg_lambda: f64,
    pub min_samples_leaf: usize,
    pub bins: usize,
    pub n_workers: usize,
}

impl Default for DistGbdtConfig {
    fn default() -> Self {
        Self {
            n_trees: 400,
            max_depth: 3,
            learning_rate: 0.1,
            reg_lambda: 1.0,
            min_samples_leaf: 4,
            bins: 64,
            n_workers: 4,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Split {
        feature: u32,
        threshold: f32,
        left: u32,
        right: u32,
    },
    Leaf {
        value: f32,
    },
}

/// One tree of the distributed ensemble.
#[derive(Debug, Clone)]
pub struct DistTree {
    nodes: Vec<Node>,
}

impl DistTree {
    fn predict_raw(&self, row: &[f32]) -> f64 {
        let mut i = 0usize;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value } => return f64::from(*value),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    let v = row[*feature as usize];
                    i = if v.is_nan() || v < *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }
}

/// A trained distributed GBDT model.
#[derive(Debug, Clone)]
pub struct DistGbdt {
    trees: Vec<DistTree>,
    base_score: f64,
    n_features: usize,
}

impl DistGbdt {
    /// Score one row (squared-error objective, clamped to `[0, 1]`).
    pub fn predict_proba(&self, features: &[f32]) -> f32 {
        debug_assert_eq!(features.len(), self.n_features);
        let mut s = self.base_score;
        for t in &self.trees {
            s += t.predict_raw(features);
        }
        s.clamp(0.0, 1.0) as f32
    }

    /// Tree count.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

const STATS: usize = 3; // (sum_g, sum_h, count) per bin

/// Train with synchronous per-level histogram aggregation through `ps`.
/// The PS must be sized by [`ps_dim`].
pub fn train(data: &Dataset, config: &DistGbdtConfig, ps: &ParamServer) -> DistGbdt {
    assert!(data.is_labeled(), "distributed GBDT needs labels");
    let n = data.n_rows();
    let f = data.n_cols();
    assert_eq!(
        ps.dim(),
        ps_dim(f, config),
        "PS sized for the histogram region"
    );
    let matrix = BinnedMatrix::build(data, config.bins);
    let workers = config.n_workers.max(1).min(n.max(1));
    let chunk = n.div_ceil(workers);
    let shards: Vec<std::ops::Range<usize>> = (0..workers)
        .map(|w| w * chunk..((w + 1) * chunk).min(n))
        .collect();

    let base_score = data.labels().iter().map(|&y| y as f64).sum::<f64>() / n as f64;
    let mut scores = vec![base_score; n];
    let mut trees: Vec<DistTree> = Vec::with_capacity(config.n_trees);
    let max_nodes_level = 1usize << (config.max_depth.saturating_sub(1).min(16));
    let hist_stride = f * config.bins * STATS;

    let mut node_of_row = vec![0u32; n];
    let mut grad = vec![0f32; n];

    for _tree_idx in 0..config.n_trees {
        // Gradients (squared error: g = pred - y), computed in parallel on
        // the shards.
        for_shards(&mut grad, chunk, |first, part| {
            for (k, g) in part.iter_mut().enumerate() {
                let i = first + k;
                *g = (scores[i] - f64::from(data.label(i))) as f32;
            }
        });

        node_of_row.iter_mut().for_each(|v| *v = 0);
        let mut nodes: Vec<Node> = vec![Node::Leaf { value: 0.0 }];
        // Active frontier: (node index, depth).
        let mut frontier: Vec<u32> = vec![0];

        for _depth in 0..config.max_depth {
            if frontier.is_empty() {
                break;
            }
            let n_active = frontier.len().min(max_nodes_level * 2);
            let region = n_active * hist_stride;
            // Clear the PS histogram region (overwrite with zeros).
            ps.push_average(0..region, &vec![0f32; region], 1.0);

            // Workers build local histograms and push them.
            std::thread::scope(|scope| {
                for shard in &shards {
                    let shard = shard.clone();
                    let node_of_row = &node_of_row;
                    let grad = &grad;
                    let matrix = &matrix;
                    let frontier = &frontier;
                    scope.spawn(move || {
                        let mut local = vec![0f32; region];
                        for i in shard {
                            let node = node_of_row[i];
                            let Some(slot) = frontier.iter().position(|&x| x == node) else {
                                continue;
                            };
                            let base = slot * hist_stride;
                            for feat in 0..f {
                                let code = matrix.code(i as u32, feat) as usize;
                                // Every feature gets `bins` slots whatever its
                                // occupancy, so one flat region serves all.
                                let off =
                                    base + (feat * config.bins + code.min(config.bins - 1)) * STATS;
                                local[off] += grad[i];
                                // Squared error: the hessian is 1 per row.
                                local[off + 1] += 1.0;
                                local[off + 2] += 1.0;
                            }
                        }
                        ps.push_add(0..region, &local);
                    });
                }
            });

            // Coordinator pulls merged histograms and decides splits.
            let mut merged = vec![0f32; region];
            ps.pull(0..region, &mut merged);

            let mut next_frontier: Vec<u32> = Vec::new();
            let mut decisions: Vec<Option<(usize, usize, u32, u32)>> = vec![None; frontier.len()];
            for (slot, &node) in frontier.iter().enumerate() {
                let base = slot * hist_stride;
                // Node totals from feature 0's bins.
                let (mut tg, mut th, mut tn) = (0f64, 0f64, 0f64);
                for b in 0..config.bins {
                    let off = base + b * STATS;
                    tg += f64::from(merged[off]);
                    th += f64::from(merged[off + 1]);
                    tn += f64::from(merged[off + 2]);
                }
                let leaf_value = (-tg / (th + config.reg_lambda)) as f32;
                nodes[node as usize] = Node::Leaf { value: leaf_value };
                if tn < 2.0 * config.min_samples_leaf as f64 {
                    continue;
                }
                let parent_obj = tg * tg / (th + config.reg_lambda);
                let mut best: Option<(usize, usize, f64)> = None;
                for feat in 0..f {
                    let k = matrix.n_bins(feat).min(config.bins);
                    if k < 2 {
                        continue;
                    }
                    let fbase = base + feat * config.bins * STATS;
                    let (mut lg, mut lh, mut ln) = (0f64, 0f64, 0f64);
                    for s in 1..k {
                        let off = fbase + (s - 1) * STATS;
                        lg += f64::from(merged[off]);
                        lh += f64::from(merged[off + 1]);
                        ln += f64::from(merged[off + 2]);
                        let (rg, rh, rn) = (tg - lg, th - lh, tn - ln);
                        if ln < config.min_samples_leaf as f64
                            || rn < config.min_samples_leaf as f64
                        {
                            continue;
                        }
                        let gain = lg * lg / (lh + config.reg_lambda)
                            + rg * rg / (rh + config.reg_lambda)
                            - parent_obj;
                        if gain > 1e-12 && best.is_none_or(|b| gain > b.2) {
                            best = Some((feat, s, gain));
                        }
                    }
                }
                if let Some((feat, s, _)) = best {
                    let left = nodes.len() as u32;
                    nodes.push(Node::Leaf { value: 0.0 });
                    let right = nodes.len() as u32;
                    nodes.push(Node::Leaf { value: 0.0 });
                    nodes[node as usize] = Node::Split {
                        feature: feat as u32,
                        threshold: matrix.threshold(feat, s),
                        left,
                        right,
                    };
                    decisions[slot] = Some((feat, s, left, right));
                    next_frontier.push(left);
                    next_frontier.push(right);
                }
            }

            // Workers re-partition their shards.
            for_shards(&mut node_of_row, chunk, |first, part| {
                for (k, node) in part.iter_mut().enumerate() {
                    let Some(slot) = frontier.iter().position(|&x| x == *node) else {
                        continue;
                    };
                    if let Some((feat, s, left, right)) = decisions[slot] {
                        let code = matrix.code((first + k) as u32, feat) as usize;
                        *node = if code < s { left } else { right };
                    }
                }
            });
            frontier = next_frontier;
        }

        let tree = DistTree { nodes };
        // Parallel score update.
        for_shards(&mut scores, chunk, |first, part| {
            for (k, score) in part.iter_mut().enumerate() {
                *score += config.learning_rate * tree.predict_raw(data.row(first + k));
            }
        });
        trees.push(tree);
    }

    DistGbdt {
        trees,
        base_score,
        n_features: f,
    }
}

/// PS dimension required: one histogram region large enough for the widest
/// tree level.
pub fn ps_dim(n_features: usize, config: &DistGbdtConfig) -> usize {
    let max_nodes_level = 1usize << (config.max_depth.saturating_sub(1).min(16));
    (max_nodes_level * 2) * n_features * config.bins * STATS
}

/// Run `f(first_row, part)` on one scoped thread per `chunk`-row part of
/// `data`: each worker updates the per-row values of its own shard.
fn for_shards<T: Send>(data: &mut [T], chunk: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    let f = &f;
    std::thread::scope(|scope| {
        for (k, part) in data.chunks_mut(chunk.max(1)).enumerate() {
            scope.spawn(move || f(k * chunk, part));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data(n: usize) -> Dataset {
        let mut d = Dataset::new(2);
        let mut state = 5u64;
        let mut rand01 = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f32 / (1u64 << 31) as f32
        };
        for _ in 0..n {
            let (x, y) = (rand01(), rand01());
            d.push_row(&[x, y], ((x > 0.5) != (y > 0.5)) as u8 as f32);
        }
        d
    }

    fn quick_cfg() -> DistGbdtConfig {
        DistGbdtConfig {
            n_trees: 40,
            learning_rate: 0.3,
            ..Default::default()
        }
    }

    #[test]
    fn learns_xor_distributed() {
        let data = xor_data(1200);
        let cfg = quick_cfg();
        let ps = ParamServer::new(ps_dim(2, &cfg), 2, |_| 0.0);
        let model = train(&data, &cfg, &ps);
        assert!(model.predict_proba(&[0.9, 0.1]) > 0.7);
        assert!(model.predict_proba(&[0.9, 0.9]) < 0.3);
        assert_eq!(model.n_trees(), 40);
    }

    #[test]
    fn worker_count_does_not_change_predictions() {
        let data = xor_data(400);
        let run = |workers: usize| {
            let cfg = DistGbdtConfig {
                n_workers: workers,
                n_trees: 10,
                ..quick_cfg()
            };
            let ps = ParamServer::new(ps_dim(2, &cfg), 2, |_| 0.0);
            train(&data, &cfg, &ps)
        };
        let m1 = run(1);
        let m4 = run(4);
        for probe in [[0.2f32, 0.3], [0.8, 0.2], [0.5, 0.9]] {
            let (a, b) = (m1.predict_proba(&probe), m4.predict_proba(&probe));
            assert!(
                (a - b).abs() < 1e-4,
                "workers changed result: {a} vs {b} at {probe:?}"
            );
        }
    }

    #[test]
    fn histogram_traffic_grows_with_workers() {
        let data = xor_data(400);
        let measure = |workers: usize| {
            let cfg = DistGbdtConfig {
                n_workers: workers,
                n_trees: 5,
                ..quick_cfg()
            };
            let ps = ParamServer::new(ps_dim(2, &cfg), 2, |_| 0.0);
            train(&data, &cfg, &ps);
            ps.pushed_bytes()
        };
        let t1 = measure(1);
        let t4 = measure(4);
        assert!(
            t4 > t1 * 2,
            "4 workers should push much more than 1: {t4} vs {t1}"
        );
    }
}
