//! # titant-nrl — network representation learning
//!
//! The aggregated-feature extractors of the TitAnt paper (§3.2): given the
//! transaction network, learn one low-dimensional vector per user node so
//! that topological proximity (the "gathering" fraud pattern) becomes a
//! dense feature the downstream classifiers can consume.
//!
//! Two methods, exactly the pair the paper evaluates:
//!
//! * [`deepwalk`] — unsupervised: truncated random walks linearise the
//!   topology, then skip-gram with negative sampling ([`word2vec`])
//!   embeds co-occurring nodes nearby. No labels touched, so the heavy
//!   class imbalance cannot distort it — the property the paper credits for
//!   DeepWalk beating supervised S2V on this task.
//! * [`structure2vec`] — supervised: iterative neighbour aggregation
//!   (mean-field embedding) trained end-to-end against edge fraud labels.
//!
//! Both produce an [`EmbeddingMatrix`] whose row `i` corresponds to node
//! `i` of the [`titant_txgraph::TxGraph`] that produced it.

#![forbid(unsafe_code)]

pub mod deepwalk;
pub mod embedding;
pub mod structure2vec;
pub mod word2vec;

pub use deepwalk::{DeepWalk, DeepWalkConfig};
pub use embedding::EmbeddingMatrix;
pub use structure2vec::{Structure2Vec, Structure2VecConfig};
pub use word2vec::{Sgns, Word2VecConfig, Word2VecTrainer};
