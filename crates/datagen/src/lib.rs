//! # titant-datagen — the synthetic Alipay world
//!
//! The TitAnt paper evaluates on proprietary Alipay transaction logs. This
//! crate substitutes an agent-based simulator built from the paper's own
//! observations about the data (§1, §3.2):
//!
//! * labels are heavily unbalanced (≈1 % of transactions are fraud),
//! * ≈70 % of fraudsters defraud more than once,
//! * victims of one fraudster "gather" around the fraud hub (Figure 2),
//!   making them 2-hop neighbours of each other,
//! * fraud labels come from delayed user reports, never in real time,
//! * some locations carry structurally higher fraud rates.
//!
//! The simulated world contains ordinary users transacting over a
//! community-structured friendship graph, merchants (benign high-in-degree
//! hubs that keep raw degree from being a giveaway), and fraud **rings**
//! whose members scam victims, launder among themselves and persist across
//! window boundaries — the property that lets DeepWalk embeddings carry
//! signal from the 90-day network window into the test day.
//!
//! Every transaction is emitted with the paper's 52 "basic features",
//! computed point-in-time (aggregates only see the past), plus a ground
//! truth fraud flag and a report day implementing the label delay.

#![forbid(unsafe_code)]

pub mod config;
pub mod features;
pub mod profile;
pub mod simulate;
pub mod slicing;
pub mod traffic;
pub mod world;

pub use config::WorldConfig;
pub use features::{feature_names, N_BASIC_FEATURES};
pub use profile::UserProfile;
pub use slicing::{DatasetSlice, PAPER_DATASET_COUNT};
pub use traffic::{FlashEvent, TrafficConfig, TrafficGen};
pub use world::World;
