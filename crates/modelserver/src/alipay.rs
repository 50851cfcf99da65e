//! The simulated Alipay front end (Figure 5's left side).
//!
//! Drives transfer requests through the Model Server and interrupts the
//! on-going transaction when the MS raises an alert, notifying the
//! transferor — "the transaction TID=2 is probably a fraud … thus MS sends
//! an alert to the Alipay server, which will further interrupt the
//! corresponding on-going transaction".

use crate::error::ServeError;
use crate::server::{ModelServer, ScoreRequest};

/// What happened to one transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferOutcome {
    /// Completed normally.
    Completed,
    /// Interrupted by a fraud alert; the transferor was notified.
    Interrupted,
}

titant_alihbase::counter_set! {
    /// Aggregate statistics of a serving session: the business outcome of
    /// each transfer. What the Model Server counts (degraded scores,
    /// deadline misses) it reports itself.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct SessionStats {
        /// Transfers scored and let through.
        pub completed: u64,
        /// Transfers interrupted by an alert; each notified its transferor.
        pub interrupted: u64,
        /// Requests the MS rejected (malformed); the transfer was neither
        /// completed nor interrupted by scoring.
        pub score_errors: u64,
    }
    /// The session counters each transfer bumps.
    pub(crate) struct LiveSessionStats;
}

/// The Alipay server simulation.
pub struct AlipayServer {
    ms: ModelServer,
    stats: LiveSessionStats,
}

impl AlipayServer {
    /// Wire the front end to a model server.
    pub fn new(ms: ModelServer) -> Self {
        Self {
            ms,
            stats: LiveSessionStats::default(),
        }
    }

    /// Process one transfer request end to end. A malformed request is
    /// returned as the scoring error instead of taking the front end down;
    /// the caller decides its business outcome (Alipay would complete the
    /// transfer rather than block on an internal error).
    pub fn transfer(&self, req: ScoreRequest) -> Result<TransferOutcome, ServeError> {
        match self.ms.score(&req) {
            // Interrupt the transfer and notify the transferor.
            Ok(resp) if resp.alert => {
                self.stats.interrupted.add(1);
                Ok(TransferOutcome::Interrupted)
            }
            Ok(_) => {
                self.stats.completed.add(1);
                Ok(TransferOutcome::Completed)
            }
            Err(e) => {
                // A deadline miss is a well-formed request the SLO
                // resolved: the Model Server counts it in `resilience()`.
                if !matches!(e, ServeError::DeadlineExceeded { .. }) {
                    self.stats.score_errors.add(1);
                }
                Err(e)
            }
        }
    }

    /// Session statistics so far.
    pub fn stats(&self) -> SessionStats {
        self.stats.snapshot()
    }

    /// The underlying model server (latency inspection, hot swaps).
    pub fn model_server(&self) -> &ModelServer {
        &self.ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature_codec::{FeatureCodec, UserFeatures};
    use crate::model_file::{ModelFile, ServableModel};
    use crate::server::FeatureLayout;
    use std::sync::Arc;
    use titant_alihbase::{RegionedTable, StoreConfig};
    use titant_models::{Dataset, GbdtConfig};

    fn alipay() -> AlipayServer {
        let layout = FeatureLayout {
            n_basic: 3,
            payer_slots: vec![0],
            receiver_slots: vec![1],
            context_slots: vec![2],
            embedding_dim: 0,
            velocity_width: 0,
        };
        let mut d = Dataset::new(3);
        let mut state = 11u64;
        let mut rand01 = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f32 / (1u64 << 31) as f32
        };
        for _ in 0..300 {
            let row = [rand01(), rand01(), rand01()];
            d.push_row(&row, (row[2] > 0.5) as u8 as f32);
        }
        let model = ModelFile {
            version: 1,
            alert_threshold: 0.5,
            n_features: 3,
            model: ServableModel::Gbdt(
                GbdtConfig {
                    n_trees: 20,
                    subsample: 1.0,
                    colsample: 1.0,
                    ..Default::default()
                }
                .fit(&d),
            ),
        };
        let table = Arc::new(RegionedTable::single(StoreConfig::default()).unwrap());
        let codec = FeatureCodec {
            embedding_dim: 0,
            payer_width: 1,
            receiver_width: 1,
            velocity_width: 0,
        };
        for u in [1u64, 2] {
            table
                .put_rows(codec.encode_user(
                    u,
                    &UserFeatures {
                        payer_side: vec![0.5],
                        receiver_side: vec![0.5],
                        embedding: vec![],
                        velocity: Vec::new(),
                    },
                    1,
                ))
                .unwrap();
        }
        AlipayServer::new(ModelServer::new(table, layout, model).unwrap())
    }

    fn req(tx_id: u64, context: f32) -> ScoreRequest {
        ScoreRequest {
            tx_id,
            transferor: 1,
            transferee: 2,
            context: vec![context],
        }
    }

    #[test]
    fn fraudulent_transfer_is_interrupted_with_notification() {
        let server = alipay();
        assert_eq!(
            server.transfer(req(1, 0.95)),
            Ok(TransferOutcome::Interrupted)
        );
        assert_eq!(
            server.transfer(req(2, 0.05)),
            Ok(TransferOutcome::Completed)
        );
        let stats = server.stats();
        assert_eq!(stats.interrupted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.score_errors, 0);
    }

    #[test]
    fn malformed_transfer_is_an_error_and_counted() {
        let server = alipay();
        let bad = ScoreRequest {
            tx_id: 3,
            transferor: 1,
            transferee: 2,
            context: vec![0.1, 0.2],
        };
        assert!(server.transfer(bad).is_err());
        let stats = server.stats();
        assert_eq!(stats.score_errors, 1);
        assert_eq!(stats.completed + stats.interrupted, 0);
        // The front end keeps serving afterwards.
        assert_eq!(
            server.transfer(req(4, 0.05)),
            Ok(TransferOutcome::Completed)
        );
    }

    #[test]
    fn latency_is_recorded_per_transfer() {
        let server = alipay();
        for i in 0..10 {
            server.transfer(req(i, 0.3)).unwrap();
        }
        let latency = server.model_server().latency().snapshot();
        let total = latency.stage(crate::latency::Stage::Total);
        assert_eq!(total.count(), 10);
        // Serving is comfortably sub-millisecond at this scale; the paper's
        // bound is tens of milliseconds.
        let p99 = total.quantile(0.99).unwrap();
        assert!(p99 < std::time::Duration::from_millis(50), "p99 {p99:?}");
    }
}
