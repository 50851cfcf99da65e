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
