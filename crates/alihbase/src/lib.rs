//! # titant-alihbase — the online feature store
//!
//! A laptop-scale analogue of Ali-HBase (paper §4.4), the Bigtable-style
//! store the Model Server reads at prediction time. Data is organised
//! exactly as the paper's Figure 7: rows keyed by user, a `basic` column
//! family with one qualifier per profile feature (`age`, `gender`,
//! `trans_city`, …) and an `embedding` column family with one qualifier per
//! embedding dimension; every offline training run uploads a new **version**
//! (the date-time stamp) so the serving layer always reads "the latest
//! version of user node embeddings and basic features".
//!
//! The engine is a classic LSM tree:
//!
//! * writes arrive as row batches and land in a write-ahead [`wal`] (one
//!   CRC frame per batch, replayed on open) and a sorted [`memtable`];
//! * full memtables flush to immutable sorted [`sstable`] runs;
//! * whole-row reads merge memtable + runs newest-first; [`store::Store::tick`]
//!   merges runs off the write path, keeping every version and tombstone,
//!   so rollback versions are never trimmed;
//! * [`region`] shards a table by row-key range, HBase-style, with
//!   optional per-region read replicas for failover;
//! * [`fault`] injects seeded, deterministic storage faults into the
//!   online paths via a [`fault::FaultHook`] threaded through the table:
//!   reads (transient errors, latency, torn cells, region outages) and
//!   writes (WAL append errors, fsync failures, write latency, power-loss
//!   points), with crash-restart recovery via
//!   [`region::RegionedTable::reopen`];
//! * [`counter_set!`] declares each counter set once — the snapshot
//!   struct, field-wise `add`, saturating `since`, and optionally the live
//!   twin of relaxed [`Counter`]s — for this crate and the Model Server.
//!   A layer counts into its parent's set: the WAL into
//!   [`WriteStatsSnapshot`], a store into [`StoreOpCounts`].

#![forbid(unsafe_code)]

pub mod bloom;
mod counters;
pub mod fault;
pub mod memtable;
pub mod region;
pub mod sstable;
pub mod store;
pub mod types;
pub mod wal;

pub use bloom::RowBloom;
pub use counters::Counter;
pub use fault::{
    FaultAction, FaultHook, FaultKind, FaultPlan, FaultPlanConfig, ReadCtx, ReadFault, ReadOptions,
    RowRead, UnavailableWindow, WriteCtx, WriteFault, WriteFaultAction, WriteFaultKind,
    WriteOptions,
};
pub use region::{RegionedTable, ReopenReport, SplitConfig, StoreOpCounts};
pub use sstable::RowPresence;
pub use store::{Store, StoreConfig, TickReport, WriteStatsSnapshot};
pub use types::{Cell, CellKey, ColumnFamily, Qualifier, RowKey, Version};
pub use wal::SyncPolicy;
