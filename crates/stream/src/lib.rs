//! # titant-stream — windowed streaming velocity features
//!
//! The paper's feature pipeline is T+1: every per-user aggregate is
//! recomputed offline and uploaded once a day, so a fraud burst that
//! starts this morning is invisible to the served model until tomorrow.
//! This crate closes that gap with the standard stream-processing fix
//! (BRIGHT's batch/real-time split, arXiv:2205.13084): **velocity
//! features** — per-user txn count, amount sum, and distinct-counterparty
//! count over short sliding windows — maintained incrementally as
//! transactions arrive and flushed into the serving store between model
//! uploads.
//!
//! ## Determinism discipline
//!
//! The aggregator is keyed by the same **logical tick** clock as the
//! SLO/chaos layer: time only moves when [`VelocityAggregator::advance`]
//! is called, and every emitted [`FeatureDelta`] is a pure function of the
//! observed event sequence. No wall clock, no hashing by address, no
//! iteration-order dependence — replaying a day of traffic produces
//! bit-identical window contents and bit-identical deltas on any machine,
//! which is exactly what the `stream` gate checks.
//!
//! ## Windows
//!
//! Each window of length `W` ticks is a ring buffer of `W` per-tick
//! partial aggregates plus running totals, so both `observe` and
//! `advance` are O(1) per window (amortised over evicted entries): the
//! slot that leaves the window is subtracted from the totals and reused
//! for the tick that enters. Distinct counterparties are **bounded
//! exact**: per tick at most [`VelocityConfig::max_counterparties`]
//! distinct payees are recorded (first observed wins); up to that bound
//! the count is exact, and the same rule is applied by the brute-force
//! oracle so the two stay bit-identical.
//!
//! ## Serving integration
//!
//! On each tick advance the aggregator emits [`FeatureDelta`]s into the
//! `velocity` column family (see `FeatureCodec`) through
//! [`ModelServer::ingest_update_opts`], so cache invalidation,
//! write-fault retries, and crash recovery apply to streaming features
//! unchanged. The serving layout carries the slots via
//! `serving_layout_with_velocity`.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod window;

pub use window::{
    brute_force_velocity, StreamStats, TxnEvent, VelocityAggregator, VelocityConfig,
    STATS_PER_WINDOW,
};
