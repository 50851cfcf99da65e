//! # titant-maxcompute — the offline storage & batch compute substrate
//!
//! A laptop-scale analogue of MaxCompute/ODPS (paper §4.2, Figure 4), the
//! platform TitAnt's offline stage runs on. The paper's three logical
//! layers are all present:
//!
//! * **client layer** — [`client::Session`] authenticates a cloud account
//!   and submits jobs, like the web console + HTTP server;
//! * **server layer** — [`job`]'s workers/scheduler split jobs into
//!   prioritised subtasks, register instances in the [`ots`] status table
//!   (`Running` → `Terminated`), and hand subtasks to executors once the
//!   [`fuxi`] resource manager grants slots;
//! * **storage & compute layer** — columnar [`table::Table`]s held in the
//!   session catalog, and a [`sql`] engine (SELECT/WHERE/GROUP BY/JOIN with
//!   aggregates — enough to extract basic features and labels and to
//!   aggregate transfers into the transaction network). SQL runs either
//!   single-process or as a coordinator/worker job fanned over Fuxi slots
//!   ([`distsql`]): workers scan row-range segments and ship decomposable
//!   partials (exact sums, grouped states, bounded top-K), the coordinator
//!   merges — results are bit-identical for any (segments × threads)
//!   combination.
//!
//! Two parts of the paper's platform are not reproduced. Its MapReduce
//! stage (network construction) runs here as a SQL `GROUP BY`, and there
//! is no Pangu blob store: nothing in the T+1 loop persists a blob.

#![forbid(unsafe_code)]

pub mod client;
pub mod distsql;
pub mod exact;
pub mod fuxi;
pub mod job;
pub mod ots;
pub mod sql;
pub mod table;
pub mod value;

pub use client::{Account, MaxCompute, Session};
pub use distsql::{DistReport, JoinReport};
pub use exact::ExactSum;
pub use fuxi::FuxiStats;
pub use table::{Schema, Table};
pub use value::{ColumnType, Value};
