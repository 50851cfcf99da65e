//! # titant-core — the TitAnt system
//!
//! The paper's primary contribution assembled from the substrate crates
//! (Figure 3): offline periodical training on MaxCompute + KunPeng, feature
//! and embedding upload to Ali-HBase, and online real-time prediction at
//! the Model Server.
//!
//! * [`layout`] — the canonical 52-feature schema shared by training and
//!   serving, with the payer/receiver/context slot split the MS needs.
//! * [`assemble`] — dataset assembly for a rolling [`titant_datagen::DatasetSlice`]:
//!   basic features ⊕ DeepWalk/Structure2Vec node embeddings for both
//!   transfer parties, labels as-of the T+1 cutoff.
//! * [`offline`] — the offline pipeline: transaction logs into MaxCompute,
//!   network construction by a SQL `GROUP BY`, NRL + classifier training,
//!   model file + per-user feature upload.
//! * [`online`] — deployment: a Model Server over the uploaded features,
//!   fronted by the simulated Alipay server, replaying live traffic.
//! * [`tplus1`] — the "T+1" driver: train on day T, serve day T+1, roll.
//!
//! ## Quickstart
//!
//! ```no_run
//! use titant_core::prelude::*;
//!
//! # fn main() -> Result<(), titant_core::TitAntError> {
//! let world = World::generate(WorldConfig::tiny(7));
//! let slice = DatasetSlice::paper(0);
//! let pipeline = OfflinePipeline::new(PipelineConfig::default());
//! let artifacts = pipeline.run(&world, &slice)?;
//! let deployment = OnlineDeployment::new(artifacts)?;
//! let report = deployment.replay_test_day(&world, &slice);
//! println!("caught {} frauds", report.true_alerts);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod assemble;
pub mod error;
pub mod layout;
pub mod offline;
pub mod online;
pub mod tplus1;

pub use error::TitAntError;
pub use offline::{OfflineArtifacts, OfflinePipeline, PipelineConfig};
pub use online::{OnlineDeployment, ServingReport, StageBreakdown};
pub use tplus1::{DailyResult, TPlusOneDriver};

/// Convenient single-import surface for examples and downstream users.
pub mod prelude {
    pub use crate::assemble::{self, EmbeddingChoice};
    pub use crate::error::TitAntError;
    pub use crate::layout;
    pub use crate::offline::{OfflineArtifacts, OfflinePipeline, PipelineConfig};
    pub use crate::online::{OnlineDeployment, ServingReport, StageBreakdown};
    pub use crate::tplus1::{DailyResult, TPlusOneDriver};
    pub use titant_alihbase::{FaultPlan, FaultPlanConfig, UnavailableWindow};
    pub use titant_datagen::{DatasetSlice, World, WorldConfig};
    pub use titant_models::{Classifier, Dataset, FlatForest, TraversalCounts};
    pub use titant_modelserver::{
        HedgePolicy, ResilienceSnapshot, RetryPolicy, RowCacheConfig, RowCacheStats, SloConfig,
    };
}
