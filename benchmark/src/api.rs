//! The system under test, named in one place: this is the only file of the
//! benchmark that imports `titant_*` symbols. A change that renames, merges
//! or removes any of the items below (ROADMAP direction 3) re-points them
//! here, in a benchmark issue of its own, and nowhere else.
//!
//! Public functions the benchmark calls:
//!
//! * `ModelServer::{with_options, score, score_batch, ingest_update, latency,
//!   row_cache_stats, resilience, write_stats}`
//! * `RegionedTable::{with_user_splits, with_rebalancing, put_rows,
//!   try_put_rows, flush, tick, get_row, get_rows, op_counts, write_stats}`
//! * `FeatureCodec::{row_key, encode_user, encode_delta, get_user, get_users}`
//! * `ModelFile::{to_bytes, from_bytes}`
//! * `Classifier::{predict_proba, predict_batch}`, `GbdtConfig::fit`,
//!   `Dataset::{new, push_row}`
//! * `VelocityAggregator::{new, observe, advance, advance_and_ingest,
//!   emitted_of, stats}`
//! * `TrafficGen::{new, user_at, pair_at}`
//! * `LatencyRecorder::snapshot`, `LatencySnapshot::{since, stage}`,
//!   `StageSnapshot::quantile`
//! * `layout::serving_layout_with_velocity` and the slot tables beside it
//!
//! and the plain-data types those functions take and return.

pub use titant_alihbase::{
    RegionedTable, RowKey, SplitConfig, StoreConfig, WriteOptions, WriteStatsSnapshot,
};
pub use titant_core::layout;
pub use titant_datagen::{FlashEvent, TrafficConfig, TrafficGen};
pub use titant_models::{Classifier, Dataset, GbdtConfig};
pub use titant_modelserver::{
    FeatureCodec, FeatureDelta, FeatureLayout, IngestReport, LatencySnapshot, ModelFile,
    ModelServer, ResilienceSnapshot, RowCacheConfig, RowCacheStats, ScoreRequest, ScoreResponse,
    ServableModel, ServeError, SloConfig, Stage, UserFeatures,
};
pub use titant_stream::{TxnEvent, VelocityAggregator, VelocityConfig};
