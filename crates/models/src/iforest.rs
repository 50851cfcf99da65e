//! Isolation Forest anomaly detection (Liu, Ting & Zhou 2008; paper §3.3).
//!
//! The paper's configuration: 100 trees over the raw (continuous) basic
//! features, no labels. Each tree isolates points with random axis-aligned
//! splits on a subsample; anomalous points separate in few splits, so the
//! anomaly score is `2^(-E[path length] / c(psi))` where `c(psi)` is the
//! expected path length of an unsuccessful BST search.
//!
//! As the paper observes (Figure 9 discussion), outliers in transaction data
//! are "probably not caused by fraud cases but for other reasons" — the
//! forest scores in `[0, 1]` plug into the same evaluation as classifiers,
//! reproducing its weak ≈10 % F1.

use crate::dataset::Dataset;
use crate::traits::Classifier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Isolation-forest training parameters; defaults mirror the original paper
/// and TitAnt's setting of 100 trees.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IsolationForestConfig {
    /// Number of isolation trees (paper: 100).
    pub n_trees: usize,
    /// Subsample size per tree (original iForest default 256).
    pub subsample: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IsolationForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 100,
            subsample: 256,
            seed: 0x1f0_7e57,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum ITreeNode {
    /// Internal split: go left when `value < threshold`.
    Split {
        feature: u32,
        threshold: f32,
        left: u32,
        right: u32,
    },
    /// External node holding `n` training points; path length is adjusted
    /// by `c(n)` for unsplit groups.
    Leaf { n: u32 },
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ITree {
    nodes: Vec<ITreeNode>,
}

impl ITree {
    /// Path length of a point, including the `c(n)` adjustment at leaves.
    fn path_length(&self, row: &[f32]) -> f64 {
        let mut idx = 0u32;
        let mut depth = 0.0f64;
        loop {
            match &self.nodes[idx as usize] {
                ITreeNode::Leaf { n } => return depth + c_factor(*n as usize),
                ITreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    depth += 1.0;
                    idx = if row[*feature as usize] < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// Expected path length of an unsuccessful search in a BST of `n` nodes —
/// the normalisation constant `c(n)` from the iForest paper.
fn c_factor(n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let nf = n as f64;
    // Harmonic number via the asymptotic expansion H(k) ~ ln(k) + gamma.
    let h = (nf - 1.0).ln() + 0.577_215_664_901_532_9;
    2.0 * h - 2.0 * (nf - 1.0) / nf
}

/// A trained isolation forest. `predict_proba` returns the anomaly score in
/// `[0, 1]` (≈0.5 for average points, →1 for isolated points).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IsolationForest {
    trees: Vec<ITree>,
    /// Normalisation constant for the training subsample size.
    c_psi: f64,
}

impl IsolationForestConfig {
    /// Fit the forest on (typically unlabelled) data.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn fit(&self, data: &Dataset) -> IsolationForest {
        assert!(data.n_rows() > 0, "isolation forest needs rows");
        assert!(self.n_trees > 0, "need at least one tree");
        let psi = self.subsample.min(data.n_rows()).max(2);
        let height_limit = (psi as f64).log2().ceil() as usize;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let trees = (0..self.n_trees)
            .map(|_| {
                // Sample psi distinct-ish rows (with replacement is fine for
                // large data; for tiny data clamp to available rows).
                let rows: Vec<u32> = (0..psi)
                    .map(|_| rng.gen_range(0..data.n_rows()) as u32)
                    .collect();
                let mut nodes = Vec::new();
                build(data, &mut rng, &mut nodes, rows, 0, height_limit);
                ITree { nodes }
            })
            .collect();
        IsolationForest {
            trees,
            c_psi: c_factor(psi),
        }
    }
}

fn build(
    data: &Dataset,
    rng: &mut StdRng,
    nodes: &mut Vec<ITreeNode>,
    rows: Vec<u32>,
    depth: usize,
    height_limit: usize,
) -> u32 {
    let idx = nodes.len() as u32;
    if depth >= height_limit || rows.len() <= 1 {
        nodes.push(ITreeNode::Leaf {
            n: rows.len() as u32,
        });
        return idx;
    }
    // Try a few features to find one with spread; constant subsets leaf out.
    let n_cols = data.n_cols();
    let mut chosen: Option<(usize, f32, f32)> = None;
    for _ in 0..n_cols.min(16) {
        let f = rng.gen_range(0..n_cols);
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for &r in &rows {
            let v = data.row(r as usize)[f];
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if hi > lo {
            chosen = Some((f, lo, hi));
            break;
        }
    }
    let Some((feature, lo, hi)) = chosen else {
        nodes.push(ITreeNode::Leaf {
            n: rows.len() as u32,
        });
        return idx;
    };
    let threshold = rng.gen_range(lo..hi);
    let (left_rows, right_rows): (Vec<u32>, Vec<u32>) = rows
        .into_iter()
        .partition(|&r| data.row(r as usize)[feature] < threshold);

    nodes.push(ITreeNode::Leaf { n: 0 }); // placeholder, replaced below
    let left = build(data, rng, nodes, left_rows, depth + 1, height_limit);
    let right = build(data, rng, nodes, right_rows, depth + 1, height_limit);
    nodes[idx as usize] = ITreeNode::Split {
        feature: feature as u32,
        threshold,
        left,
        right,
    };
    idx
}

impl Classifier for IsolationForest {
    fn predict_proba(&self, features: &[f32]) -> f32 {
        let mean_path: f64 = self
            .trees
            .iter()
            .map(|t| t.path_length(features))
            .sum::<f64>()
            / self.trees.len() as f64;
        if self.c_psi <= 0.0 {
            return 0.5;
        }
        2f64.powf(-mean_path / self.c_psi) as f32
    }

    fn name(&self) -> &'static str {
        "IF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tight cluster at origin plus one far outlier.
    fn cluster_with_outlier() -> Dataset {
        let mut d = Dataset::new(2);
        let mut state = 42u64;
        let mut noise = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 1000) as f32 / 1000.0 - 0.5
        };
        for _ in 0..300 {
            d.push_unlabeled_row(&[noise(), noise()]);
        }
        d.push_unlabeled_row(&[25.0, -25.0]);
        d
    }

    #[test]
    fn outlier_scores_higher_than_inliers() {
        let d = cluster_with_outlier();
        let forest = IsolationForestConfig::default().fit(&d);
        let outlier = forest.predict_proba(&[25.0, -25.0]);
        let inlier = forest.predict_proba(&[0.0, 0.0]);
        assert!(
            outlier > inlier + 0.1,
            "outlier {outlier} vs inlier {inlier}"
        );
        assert!(outlier > 0.6);
    }

    #[test]
    fn scores_are_in_unit_interval() {
        let d = cluster_with_outlier();
        let forest = IsolationForestConfig {
            n_trees: 20,
            ..Default::default()
        }
        .fit(&d);
        for i in 0..d.n_rows() {
            let s = forest.predict_proba(d.row(i));
            assert!((0.0..=1.0).contains(&s), "score {s} out of range");
        }
    }

    #[test]
    fn c_factor_matches_reference_values() {
        // Reference values from the iForest paper's formula.
        assert_eq!(c_factor(1), 0.0);
        assert!((c_factor(2) - 0.1544).abs() < 0.02);
        assert!((c_factor(256) - 10.24).abs() < 0.2);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let d = cluster_with_outlier();
        let cfg = IsolationForestConfig {
            n_trees: 10,
            seed: 5,
            ..Default::default()
        };
        let f1 = cfg.fit(&d);
        let f2 = cfg.fit(&d);
        assert_eq!(f1.predict_proba(&[1.0, 1.0]), f2.predict_proba(&[1.0, 1.0]));
    }

    #[test]
    fn constant_data_scores_uniformly() {
        let mut d = Dataset::new(1);
        for _ in 0..50 {
            d.push_unlabeled_row(&[3.0]);
        }
        let forest = IsolationForestConfig {
            n_trees: 10,
            ..Default::default()
        }
        .fit(&d);
        let a = forest.predict_proba(&[3.0]);
        let b = forest.predict_proba(&[3.0]);
        assert_eq!(a, b);
        assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn name_is_if() {
        let d = cluster_with_outlier();
        let f = IsolationForestConfig {
            n_trees: 1,
            ..Default::default()
        }
        .fit(&d);
        assert_eq!(f.name(), "IF");
    }
}
