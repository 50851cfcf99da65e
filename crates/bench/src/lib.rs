//! # titant-bench — the experiment harness and the gates
//!
//! Two things live here. First, shared machinery for the binaries that
//! regenerate every table and figure of the TitAnt paper (see DESIGN.md §3
//! for the experiment index):
//!
//! * `table1` — F1 of the 11 configurations over the 7 rolling datasets,
//! * `table2` — F1 vs the number of DeepWalk node samplings,
//! * `fig9` — rec@top-1 % per detection method,
//! * `fig10` — KunPeng time cost vs machine count,
//! * `fig11` — F1 vs embedding dimension,
//! * `fig12` — F1 vs GBDT tree count,
//! * `serving` — online model-server latency.
//!
//! [`harness`] owns the shared world, feature assembly (basic features ⊕
//! node embeddings for both transfer parties) and the train/evaluate
//! protocol (threshold tuned on training scores, applied unchanged to the
//! test day — the paper's T+1 regime).
//!
//! Second, the repo's correctness evidence: the nine [`gates`], each one
//! `run() -> Outcome` over the fixtures in [`gate`], behind the one `gates`
//! runner binary (`cargo run --release -p titant-bench --bin gates [--
//! <name>...]`), which writes one `BENCH_<name>.json` per gate.

#![forbid(unsafe_code)]

pub mod gate;
pub mod gates;
pub mod harness;

pub use harness::{EmbeddingKind, Experiment, FeatureConfig, Metrics, ModelKind, Scale};
