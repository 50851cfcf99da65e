//! # titant-modelserver — online real-time prediction (MS)
//!
//! The serving half of TitAnt (paper §4.4, Figure 5): when a user initiates
//! a transfer, the Alipay server calls the Model Server; the MS fetches the
//! latest per-user features and node embeddings from Ali-HBase, assembles
//! the full feature vector, scores it with the current model file, and —
//! if the score crosses the alert threshold — tells the Alipay server to
//! interrupt the on-going transaction and notify the transferor.
//!
//! * [`model_file`] — the versioned, serialisable model artefact offline
//!   training ships ("model files are uploaded to online predictor").
//! * [`feature_codec`] — the Figure 7 cell layout: CF `basic` with one
//!   qualifier per user-side feature, CF `embedding` with one qualifier per
//!   dimension, versioned by upload date.
//! * [`server`] — the MS itself: hot-swappable model, HBase reads, a
//!   thread-pooled request loop for load, batched scoring, and latency
//!   histograms.
//! * [`row_cache`] — the opt-in sharded decoded-row cache in front of the
//!   feature fetch; see DESIGN.md §"Serving read path".
//! * [`slo`] — serving SLOs: deadline budgets, bounded retry with
//!   decorrelated-jitter backoff, hedged reads against replicas, and the
//!   resilience counters the chaos gate asserts on. See DESIGN.md §"Fault
//!   model and serving SLOs".
//! * [`alipay`] — the simulated Alipay front end that drives transfers
//!   through the MS and interrupts flagged ones.
//! * [`error`] — the typed [`ServeError`] taxonomy; see DESIGN.md
//!   ("Serving-path failure semantics") for the degradation contract.

#![forbid(unsafe_code)]
// The serving path must never panic on a request: forbid the easy outs in
// shipped code (tests may still unwrap freely).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod alipay;
pub mod error;
pub mod feature_codec;
pub mod latency;
pub mod model_file;
pub mod row_cache;
pub mod server;
pub mod slo;

pub use alipay::{AlipayServer, SessionStats, TransferOutcome};
pub use error::ServeError;
pub use feature_codec::{FeatureCodec, FeatureDelta, UserFeatures};
pub use latency::{LatencyRecorder, LatencySnapshot, Stage, StageSnapshot};
pub use model_file::{ModelFile, ServableModel};
pub use row_cache::{RowCache, RowCacheConfig, RowCacheStats};
pub use server::{
    FeatureLayout, IngestOptions, IngestReport, ModelServer, ScoreRequest, ScoreResponse, ServePool,
};
pub use slo::{Deadline, HedgePolicy, ReqRng, ResilienceSnapshot, RetryPolicy, SloConfig};

#[cfg(test)]
mod tests {
    use crate::alipay::LiveSessionStats;
    use crate::row_cache::LiveRowCacheStats;
    use crate::slo::LiveResilience;
    use crate::{ResilienceSnapshot, RowCacheStats, SessionStats};
    use titant_alihbase::Counter;

    // The same two checks as `titant_alihbase`'s counter-set tests, over
    // the sets this crate declares.

    /// For each field `i` (`fields[i]` writes it), the set holding `i + 1`
    /// there and zeros elsewhere comes back unchanged through `add` onto
    /// zeros and `since` zeros, and zeros `since` it are all zeros.
    /// Returns those one-field sets for [`check_live`].
    fn check_set<S: Copy + Default + PartialEq + std::fmt::Debug>(
        fields: &[fn(&mut S) -> &mut u64],
        add: fn(&mut S, &S),
        since: fn(&S, &S) -> S,
    ) -> Vec<S> {
        let zero = S::default();
        let mut singles = Vec::new();
        for (i, field) in fields.iter().enumerate() {
            let mut one = zero;
            *field(&mut one) = i as u64 + 1;
            let mut sum = zero;
            add(&mut sum, &one);
            assert_eq!(sum, one, "add moved field {i}");
            assert_eq!(since(&one, &zero), one, "since moved field {i}");
            assert_eq!(since(&zero, &one), zero, "since must saturate (field {i})");
            singles.push(one);
        }
        singles
    }

    /// Bumping live field `i` by `i + 1` snapshots as `singles[i]`.
    fn check_live<L: Default, S: PartialEq + std::fmt::Debug>(
        live_fields: &[fn(&L) -> &Counter],
        snapshot: fn(&L) -> S,
        singles: &[S],
    ) {
        assert_eq!(live_fields.len(), singles.len());
        for (i, (field, want)) in live_fields.iter().zip(singles).enumerate() {
            let live = L::default();
            field(&live).add(i as u64 + 1);
            assert_eq!(&snapshot(&live), want, "snapshot moved field {i}");
        }
    }

    #[test]
    fn resilience_maps_every_field_to_itself() {
        let singles = check_set::<ResilienceSnapshot>(
            &[
                |s| &mut s.retried,
                |s| &mut s.hedged,
                |s| &mut s.failovers,
                |s| &mut s.deadline_exceeded,
                |s| &mut s.shed,
                |s| &mut s.write_retried,
                |s| &mut s.write_retries_exhausted,
            ],
            ResilienceSnapshot::add,
            ResilienceSnapshot::since,
        );
        check_live::<LiveResilience, _>(
            &[
                |l| &l.retried,
                |l| &l.hedged,
                |l| &l.failovers,
                |l| &l.deadline_exceeded,
                |l| &l.shed,
                |l| &l.write_retried,
                |l| &l.write_retries_exhausted,
            ],
            LiveResilience::snapshot,
            &singles,
        );
    }

    #[test]
    fn row_cache_stats_map_every_field_to_itself() {
        let singles = check_set::<RowCacheStats>(
            &[
                |s| &mut s.hits,
                |s| &mut s.misses,
                |s| &mut s.inserted,
                |s| &mut s.evicted,
                |s| &mut s.invalidations,
            ],
            RowCacheStats::add,
            RowCacheStats::since,
        );
        check_live::<LiveRowCacheStats, _>(
            &[
                |l| &l.hits,
                |l| &l.misses,
                |l| &l.inserted,
                |l| &l.evicted,
                |l| &l.invalidations,
            ],
            LiveRowCacheStats::snapshot,
            &singles,
        );
    }

    #[test]
    fn session_stats_map_every_field_to_itself() {
        let singles = check_set::<SessionStats>(
            &[
                |s| &mut s.completed,
                |s| &mut s.interrupted,
                |s| &mut s.score_errors,
            ],
            SessionStats::add,
            SessionStats::since,
        );
        check_live::<LiveSessionStats, _>(
            &[|l| &l.completed, |l| &l.interrupted, |l| &l.score_errors],
            LiveSessionStats::snapshot,
            &singles,
        );
    }
}
