//! # titant-txgraph — the transaction network substrate
//!
//! Implements Definition 2 of the TitAnt paper (VLDB 2019): a directed graph
//! `G = (V, E)` where every node is a user and every edge is a transfer
//! relationship from a transferor to a transferee. The graph is stored in
//! compressed-sparse-row (CSR) form for cache-friendly traversal, and random
//! walks over it feed the network-representation-learning stage
//! (`titant-nrl`).
//!
//! The crate is deliberately free of any machine-learning code: it owns the
//! raw [`TransactionRecord`] type, the [`TxGraphBuilder`] that aggregates
//! records into a weighted [`TxGraph`], the [`walk`] engine that linearises
//! topology into node sequences, and the [`analysis`] helpers (2-hop
//! neighbours, k-hop neighbourhoods, gathering hubs) that the paper's
//! "gathering behaviour" discussion relies on.
//!
//! ## Quick example
//!
//! ```
//! use titant_txgraph::{TransactionRecord, TxGraphBuilder, UserId};
//!
//! let records = vec![
//!     TransactionRecord::simple(UserId(0), UserId(1), 120_00, 1),
//!     TransactionRecord::simple(UserId(2), UserId(1), 80_00, 2),
//!     TransactionRecord::simple(UserId(0), UserId(1), 10_00, 3),
//! ];
//! let graph = TxGraphBuilder::new().add_records(&records).build();
//! assert_eq!(graph.node_count(), 3);
//! // Parallel transfers 0 -> 1 collapse into one weighted edge.
//! assert_eq!(graph.edge_count(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod alias;
pub mod analysis;
pub mod builder;
pub mod csr;
pub mod ids;
pub mod record;
pub mod walk;

pub use alias::AliasTable;
pub use builder::TxGraphBuilder;
pub use csr::TxGraph;
pub use ids::{NodeId, TxId, UserId};
pub use record::{Timestamp, TransactionRecord};
pub use walk::{WalkConfig, WalkEngine, WalkStrategy};
