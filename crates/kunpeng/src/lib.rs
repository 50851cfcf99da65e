//! # titant-kunpeng — the distributed learning substrate
//!
//! A laptop-scale analogue of KunPeng (paper §4.3), Ant Financial's
//! parameter-server framework. The PS architecture is real: [`ps`] shards a
//! dense parameter vector across server nodes with Pull / Push-add /
//! model-average operations and byte-level traffic accounting; worker
//! "nodes" are OS threads holding data shards. Single-point failure
//! tolerance — "the failed instance can be restarted and recovered to the
//! previous status" — is implemented with [`ps::Checkpoint`]s and exercised
//! in tests.
//!
//! On top of the PS run the two distributed trainers Figure 10 measures,
//! each a PS wrapper around the single-machine kernel in its own crate:
//!
//! * [`dist_word2vec`] — DeepWalk's skip-gram stage: workers run
//!   `titant-nrl`'s SGNS kernel on walk shards and servers "aggregate them
//!   by executing the model average operation" (§4.3, verbatim);
//! * [`dist_gbdt`] — data-parallel histogram GBDT: per tree level every
//!   worker pushes its local gradient histograms, the server sums them, and
//!   the coordinator picks each split with `titant-models`' split picker and
//!   grows its trees, returning a `titant_models::Gbdt` — the communication
//!   pattern whose cost ceases to amortise past ~20 machines in the paper's
//!   Figure 10.
//!
//! [`cluster`] turns measured single-machine throughput plus the recorded
//! communication volume into simulated wall-clock times for an M-machine
//! cluster (half servers, half workers, as in §5.2) — the substitution that
//! regenerates Figure 10 without a physical cluster (see DESIGN.md).

#![forbid(unsafe_code)]

pub mod cluster;
pub mod dist_gbdt;
pub mod dist_word2vec;
pub mod ps;

pub use cluster::{ClusterSpec, CostModel};
pub use ps::{Checkpoint, ParamServer, PsError};
