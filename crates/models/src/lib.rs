//! # titant-models — detection methods
//!
//! From-scratch implementations of every detection method the TitAnt paper
//! evaluates (§3.3, Table 1):
//!
//! * rule-based: [`tree::Id3Config`] and [`tree::C50Config`] decision trees,
//! * anomaly detection: [`iforest::IsolationForest`],
//! * classification: [`linear::LogisticRegression`] (with equal-frequency
//!   [`discretize`]-ation, the paper's bin size 200) and
//!   [`gbdt::Gbdt`] gradient-boosted decision trees (400 trees, depth 3,
//!   row/feature subsampling 0.4).
//!
//! All models train on the dense [`Dataset`] type and expose a common
//! [`Classifier`] scoring trait so the experiment harness, the model server
//! and the pipeline can treat them uniformly. Models are `serde`-serialisable
//! — the model server ships them as versioned model files.

#![forbid(unsafe_code)]

pub mod dataset;
pub mod discretize;
pub mod gbdt;
pub mod iforest;
pub mod linear;
pub mod traits;
pub mod tree;

pub use dataset::Dataset;
pub use discretize::{BinningStrategy, Discretizer};
pub use gbdt::flat::{FlatForest, TraversalCounts, BLOCK_ROWS};
pub use gbdt::{Gbdt, GbdtConfig, GbdtObjective};
pub use iforest::{IsolationForest, IsolationForestConfig};
pub use linear::{LogisticRegression, LogisticRegressionConfig};
pub use traits::Classifier;
pub use tree::{C50Config, DecisionTree, Id3Config};

/// Why a deserialized tree cannot be served, or `Ok` when it can: the tree
/// must have a node, and each split (`nodes` yields `Some((feature, left,
/// right))` for a split, `None` for a leaf) must send both children to
/// later nodes of the tree — both trainers emit preorder, so every walk
/// moves forward and ends — and read a feature below `n_features`.
pub(crate) fn check_tree(
    nodes: impl ExactSizeIterator<Item = Option<(u32, u32, u32)>>,
    n_features: usize,
) -> Result<(), String> {
    let len = nodes.len();
    if len == 0 {
        return Err("a tree has no nodes".into());
    }
    for (i, split) in nodes.enumerate() {
        let Some((feature, left, right)) = split else {
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
