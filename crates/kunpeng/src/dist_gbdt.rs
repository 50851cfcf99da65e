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
//!
//! The trainer is `titant-models`' GBDT grown level by level: the
//! coordinator picks each split with the same [`pick_split`] that
//! `GbdtConfig::fit` uses and grows the same [`RegTree`]s, so what KunPeng
//! trains is a [`Gbdt`] the model server can load.

use crate::ps::ParamServer;
use titant_models::gbdt::binned::BinnedMatrix;
use titant_models::gbdt::tree::{pick_split, HistBin, RegTree, TreeParams};
use titant_models::{Dataset, Gbdt, GbdtObjective};

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

const STATS: usize = 3; // (sum_g, sum_h, count) per bin

/// Train with synchronous per-level histogram aggregation through `ps`.
/// The PS must be sized by [`ps_dim`].
///
/// The model is the same kind `titant_models::GbdtConfig::fit` returns:
/// with sampling off it picks the same splits, and its scores differ only
/// by the f32 rounding of the histograms the PS sums.
pub fn train(data: &Dataset, config: &DistGbdtConfig, ps: &ParamServer) -> Gbdt {
    assert!(data.is_labeled(), "distributed GBDT needs labels");
    assert!(
        config.max_depth > 0,
        "distributed GBDT needs max_depth >= 1"
    );
    let n = data.n_rows();
    let f = data.n_cols();
    assert_eq!(
        ps.dim(),
        ps_dim(f, config),
        "PS sized for the histogram region"
    );
    let matrix = BinnedMatrix::build(data, config.bins);
    let params = TreeParams {
        max_depth: config.max_depth,
        reg_lambda: config.reg_lambda,
        min_samples_leaf: config.min_samples_leaf,
    };
    let workers = config.n_workers.max(1).min(n.max(1));
    let chunk = n.div_ceil(workers);
    let shards: Vec<std::ops::Range<usize>> = (0..workers)
        .map(|w| w * chunk..((w + 1) * chunk).min(n))
        .collect();

    let base_score = data.labels().iter().map(|&y| y as f64).sum::<f64>() / n as f64;
    let mut scores = vec![base_score; n];
    let mut trees: Vec<RegTree> = Vec::with_capacity(config.n_trees);
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

        node_of_row.fill(0);
        // Built from the root's histogram on the first level.
        let mut tree: Option<RegTree> = None;
        // The leaves still to split.
        let mut frontier: Vec<u32> = vec![0];

        for _depth in 0..config.max_depth {
            if frontier.is_empty() {
                break;
            }
            let region = frontier.len() * hist_stride;
            // Clear the PS histogram region (overwrite with zeros).
            ps.push_average(0..region, &vec![0f32; region], 1.0);

            // Workers build local histograms; the coordinator pushes them
            // in worker order, so the f32 sums on the PS never depend on
            // which thread finishes first. Moves onto titant-parallel's
            // `Pool` once kunpeng may depend on it (ROADMAP 1(f)).
            #[allow(clippy::disallowed_methods)]
            let locals: Vec<Vec<f32>> = std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .iter()
                    .map(|shard| {
                        let (shard, node_of_row, grad) = (shard.clone(), &node_of_row, &grad);
                        let (matrix, frontier) = (&matrix, &frontier);
                        scope.spawn(move || {
                            let mut local = vec![0f32; region];
                            for i in shard {
                                let node = node_of_row[i];
                                let Some(slot) = frontier.iter().position(|&x| x == node) else {
                                    continue;
                                };
                                let base = slot * hist_stride;
                                for feat in 0..f {
                                    // Every feature gets `bins` slots whatever
                                    // its occupancy, so one flat region serves all.
                                    let code = matrix.code(i as u32, feat) as usize;
                                    let off = base + (feat * config.bins + code) * STATS;
                                    local[off] += grad[i];
                                    // Squared error: the hessian is 1 per row.
                                    local[off + 1] += 1.0;
                                    local[off + 2] += 1.0;
                                }
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("GBDT worker panicked"))
                    .collect()
            });
            for local in &locals {
                ps.push_add(0..region, local);
            }

            // Coordinator pulls merged histograms and picks splits with
            // the single-machine trainer's picker.
            let mut merged = vec![0f32; region];
            ps.pull(0..region, &mut merged);
            let bins: Vec<HistBin> = merged
                .chunks_exact(STATS)
                .map(|b| HistBin {
                    g: f64::from(b[0]),
                    h: f64::from(b[1]),
                    n: b[2] as u32,
                })
                .collect();

            let mut next_frontier: Vec<u32> = Vec::new();
            let mut decisions: Vec<Option<(usize, usize, u32, u32)>> = vec![None; frontier.len()];
            for (slot, &node) in frontier.iter().enumerate() {
                let node_bins = &bins[slot * f * config.bins..(slot + 1) * f * config.bins];
                let feature_bins = |feat: usize| {
                    &node_bins[feat * config.bins..feat * config.bins + matrix.n_bins(feat)]
                };
                // Node totals from feature 0's bins.
                let total = feature_bins(0)
                    .iter()
                    .fold(HistBin::default(), |t, b| HistBin {
                        g: t.g + b.g,
                        h: t.h + b.h,
                        n: t.n + b.n,
                    });
                let tree = tree.get_or_insert_with(|| RegTree::root(&total, &params));
                if (total.n as usize) < 2 * config.min_samples_leaf {
                    continue;
                }
                let mut best = None;
                for feat in 0..f {
                    pick_split(&mut best, feat, feature_bins(feat), &total, &params);
                }
                if let Some(best) = best {
                    let (left, right) = tree.split_leaf(node, &total, &best, &matrix, &params);
                    decisions[slot] = Some((best.feature, best.bin_split, left, right));
                    next_frontier.extend([left, right]);
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

        let mut tree = tree.expect("the first level grows the root");
        // Parallel score update with the shrunken tree output, then store
        // the tree shrunk, as `GbdtConfig::fit` does.
        for_shards(&mut scores, chunk, |first, part| {
            for (k, score) in part.iter_mut().enumerate() {
                *score += config.learning_rate * tree.predict_binned(&matrix, (first + k) as u32);
            }
        });
        tree.scale_leaves(config.learning_rate);
        trees.push(tree);
    }

    Gbdt::from_trees(trees, base_score, GbdtObjective::SquaredError, f)
}

/// PS dimension required: one histogram region large enough for the widest
/// tree level.
pub fn ps_dim(n_features: usize, config: &DistGbdtConfig) -> usize {
    let max_nodes_level = 1usize << (config.max_depth.saturating_sub(1).min(16));
    (max_nodes_level * 2) * n_features * config.bins * STATS
}

/// Run `f(first_row, part)` on one scoped thread per `chunk`-row part of
/// `data`: each worker updates the per-row values of its own shard.
/// Replaced by titant-parallel's `Pool` once kunpeng may depend on it
/// (ROADMAP 1(f)); a new dependency edge rewrites benchmark/Cargo.lock.
#[allow(clippy::disallowed_methods)]
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
    use titant_models::{Classifier, GbdtConfig};

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

    fn train_on(data: &Dataset, cfg: &DistGbdtConfig) -> Gbdt {
        let ps = ParamServer::new(ps_dim(data.n_cols(), cfg), 2, |_| 0.0);
        train(data, cfg, &ps)
    }

    /// Every tree's shape: `(feature, bin_split)` per split, in preorder.
    fn shapes(model: &Gbdt) -> Vec<Vec<Option<(u32, u8)>>> {
        model.trees().iter().map(|t| t.splits()).collect()
    }

    /// The largest score gap between two models over `data`'s rows.
    fn max_gap(a: &Gbdt, b: &Gbdt, data: &Dataset) -> f64 {
        (0..data.n_rows())
            .map(|i| (a.raw_score(data.row(i)) - b.raw_score(data.row(i))).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn learns_xor_distributed() {
        let data = xor_data(1200);
        let model = train_on(&data, &quick_cfg());
        assert!(model.predict_proba(&[0.9, 0.1]) > 0.7);
        assert!(model.predict_proba(&[0.9, 0.9]) < 0.3);
        assert_eq!(model.n_trees(), 40);
    }

    /// The PS sums f32 partial histograms, so leaf bits may move with the
    /// worker count; the splits may not, and the scores only by rounding.
    /// Two runs at one worker count are bit-identical: workers' histograms
    /// reach the PS in worker order, not in thread-arrival order.
    #[test]
    fn worker_count_does_not_change_predictions() {
        let data = xor_data(400);
        let run = |workers: usize| {
            let cfg = DistGbdtConfig {
                n_workers: workers,
                n_trees: 10,
                ..quick_cfg()
            };
            train_on(&data, &cfg)
        };
        let m1 = run(1);
        for workers in [2, 3, 4] {
            let m = run(workers);
            assert_eq!(shapes(&m), shapes(&m1), "{workers} workers changed a split");
            let gap = max_gap(&m, &m1, &data);
            assert!(gap < 1e-6, "{workers} workers moved a score by {gap}");
        }
        let (a, b) = (run(4), run(4));
        assert_eq!(format!("{:?}", a.trees()), format!("{:?}", b.trees()));
    }

    /// With sampling off, KunPeng's trainer grows the single-machine
    /// trainer's trees: the same splits in every tree, and scores equal up
    /// to the f32 rounding of the PS histograms.
    #[test]
    fn agrees_with_single_machine_fit() {
        for n in [400, 4_000, 20_000] {
            let data = xor_data(n);
            let cfg = DistGbdtConfig {
                n_trees: 30,
                ..quick_cfg()
            };
            let fit = GbdtConfig {
                n_trees: cfg.n_trees,
                max_depth: cfg.max_depth,
                learning_rate: cfg.learning_rate,
                subsample: 1.0,
                colsample: 1.0,
                reg_lambda: cfg.reg_lambda,
                min_samples_leaf: cfg.min_samples_leaf,
                bins: cfg.bins,
                threads: 1,
                ..Default::default()
            }
            .fit(&data);
            for workers in [1, 2, 3, 4] {
                let dist = train_on(
                    &data,
                    &DistGbdtConfig {
                        n_workers: workers,
                        ..cfg.clone()
                    },
                );
                assert_eq!(shapes(&dist), shapes(&fit), "n {n}, {workers} workers");
                let gap = max_gap(&dist, &fit, &data);
                assert!(
                    gap < 1e-6,
                    "n {n}, {workers} workers: scores differ by {gap}"
                );
            }
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
