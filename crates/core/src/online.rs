//! Online deployment: the Model Server behind the simulated Alipay front
//! end, replaying live traffic (the right half of Figure 3 / Figure 5).

use crate::error::TitAntError;
use crate::layout;
use crate::offline::OfflineArtifacts;
use std::time::Duration;
use titant_alihbase::WriteStatsSnapshot;
use titant_datagen::{DatasetSlice, World};
use titant_modelserver::{
    AlipayServer, ModelServer, ResilienceSnapshot, ServeError, Stage, TransferOutcome,
};

/// p50/p99 of one serving stage over the replayed interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageBreakdown {
    pub p50: Duration,
    pub p99: Duration,
}

/// Outcome of replaying a test day through the serving stack.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Transactions replayed.
    pub transactions: usize,
    /// Alerts that hit actual (eventually reported) fraud.
    pub true_alerts: usize,
    /// Alerts on legitimate transactions.
    pub false_alerts: usize,
    /// Frauds the system let through.
    pub missed_frauds: usize,
    /// Serving F1 at the deployed operating point.
    pub f1: f64,
    /// Median serving latency.
    pub p50: Duration,
    /// Tail serving latency — the paper's "mere milliseconds" claim.
    pub p99: Duration,
    /// Feature-store fetch stage.
    pub fetch: StageBreakdown,
    /// Vector-assembly stage.
    pub assemble: StageBreakdown,
    /// Model-predict stage.
    pub predict: StageBreakdown,
    /// Requests the MS rejected as malformed during this replay (deadline
    /// misses are in `resilience.deadline_exceeded`: the request was
    /// well-formed, the SLO resolved it).
    pub errors: usize,
    /// Transactions scored in degraded (context-only) mode.
    pub degraded: u64,
    /// The Model Server's resilience counters over the replayed interval:
    /// retries, hedges, failovers, deadline misses, sheds (always 0 in
    /// this synchronous replay) and ingest write retries.
    pub resilience: ResilienceSnapshot,
    /// The feature table's write-path counters over the replayed interval:
    /// WAL append and fsync failures, power-loss recoveries, orphans swept.
    pub writes: WriteStatsSnapshot,
}

/// A live deployment built from offline artifacts.
pub struct OnlineDeployment {
    alipay: AlipayServer,
    embedding_dim: usize,
}

impl OnlineDeployment {
    /// Stand up the Model Server over the uploaded feature table and front
    /// it with the Alipay server. Fails when the shipped model file does
    /// not match the serving layout.
    pub fn new(artifacts: OfflineArtifacts) -> Result<Self, TitAntError> {
        let embedding_dim =
            (artifacts.model_file.n_features - titant_datagen::N_BASIC_FEATURES) / 2;
        let ms = ModelServer::new(
            artifacts.feature_table,
            layout::serving_layout(embedding_dim),
            artifacts.model_file,
        )?;
        Ok(Self {
            alipay: AlipayServer::new(ms),
            embedding_dim,
        })
    }

    /// The embedded model server (hot swaps, latency inspection).
    pub fn model_server(&self) -> &ModelServer {
        self.alipay.model_server()
    }

    /// Embedding dimensionality the deployment serves with.
    pub fn embedding_dim(&self) -> usize {
        self.embedding_dim
    }

    /// Replay every test-day transaction through the serving path and
    /// compare verdicts against the eventually-reported labels.
    pub fn replay_test_day(&self, world: &World, slice: &DatasetSlice) -> ServingReport {
        let range = world.record_range(slice.test_day..slice.test_day + 1);
        // Snapshot the recorder so the report covers *this* replay only —
        // cumulative stats would let earlier traffic pollute the quantiles.
        let ms = self.model_server();
        let latency_before = ms.latency().snapshot();
        let degraded_before = ms.degraded_count();
        let resilience_before = ms.resilience();
        let writes_before = ms.write_stats();
        let (mut tp, mut fp, mut fn_) = (0usize, 0usize, 0usize);
        let mut total = 0usize;
        let mut errors = 0usize;
        for i in range {
            let outcome = self.alipay.transfer(layout::score_request(world, i));
            let is_fraud = world.label_as_of(i, i64::MAX) > 0.5;
            match (outcome, is_fraud) {
                (Ok(TransferOutcome::Interrupted), true) => tp += 1,
                (Ok(TransferOutcome::Interrupted), false) => fp += 1,
                (Ok(TransferOutcome::Completed), true) => fn_ += 1,
                (Ok(TransferOutcome::Completed), false) => {}
                // A deadline miss is a counted SLO outcome, not an error;
                // a malformed record must not take the replay down either.
                // Both are counted and the day continues.
                (Err(ServeError::DeadlineExceeded { .. }), _) => {}
                (Err(_), _) => errors += 1,
            }
            total += 1;
        }
        let precision = if tp + fp > 0 {
            tp as f64 / (tp + fp) as f64
        } else {
            0.0
        };
        let recall = if tp + fn_ > 0 {
            tp as f64 / (tp + fn_) as f64
        } else {
            0.0
        };
        let f1 = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        let delta = ms.latency().snapshot().since(&latency_before);
        let breakdown = |stage: Stage| {
            let s = delta.stage(stage);
            StageBreakdown {
                p50: s.quantile(0.5).unwrap_or_default(),
                p99: s.quantile(0.99).unwrap_or_default(),
            }
        };
        let total_stage = delta.stage(Stage::Total);
        ServingReport {
            transactions: total,
            true_alerts: tp,
            false_alerts: fp,
            missed_frauds: fn_,
            f1,
            p50: total_stage.quantile(0.5).unwrap_or_default(),
            p99: total_stage.quantile(0.99).unwrap_or_default(),
            fetch: breakdown(Stage::Fetch),
            assemble: breakdown(Stage::Assemble),
            predict: breakdown(Stage::Predict),
            errors,
            degraded: ms.degraded_count().saturating_sub(degraded_before),
            resilience: ms.resilience().since(&resilience_before),
            writes: ms.write_stats().since(&writes_before),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::{OfflinePipeline, PipelineConfig};
    use titant_datagen::WorldConfig;

    fn deploy() -> (World, DatasetSlice, OnlineDeployment) {
        let world = World::generate(WorldConfig::tiny(9));
        let start = world.config().feature_start_day;
        let slice = DatasetSlice {
            index: 0,
            graph_days: 0..start,
            train_days: start..world.config().n_days - 1,
            test_day: world.config().n_days - 1,
        };
        let artifacts = OfflinePipeline::new(PipelineConfig::quick())
            .run(&world, &slice)
            .unwrap();
        let deployment = OnlineDeployment::new(artifacts).unwrap();
        (world, slice, deployment)
    }

    #[test]
    fn replay_covers_the_whole_test_day_within_milliseconds() {
        let (world, slice, deployment) = deploy();
        let report = deployment.replay_test_day(&world, &slice);
        let expected = world.record_range(slice.test_day..slice.test_day + 1).len();
        assert_eq!(report.transactions, expected);
        // The paper's serving bound: tens of milliseconds at most.
        assert!(
            report.p99 < Duration::from_millis(50),
            "p99 {:?} exceeds the paper's bound",
            report.p99
        );
        assert!(report.p50 <= report.p99);
        assert_eq!(report.errors, 0, "replayed records are well-formed");
        // The per-stage breakdown is populated and each stage sits below
        // the end-to-end tail.
        for stage in [report.fetch, report.assemble, report.predict] {
            assert!(stage.p50 <= stage.p99);
            assert!(stage.p99 <= report.p99.mul_f64(1.1), "{report:?}");
        }
    }

    #[test]
    fn replay_report_covers_only_its_own_interval() {
        let (world, slice, deployment) = deploy();
        // Pollute the recorder with fake ten-second requests before the
        // replay; a cumulative report would drag p99 over the bound.
        for _ in 0..1000 {
            deployment
                .model_server()
                .latency()
                .record(Duration::from_secs(10));
        }
        let report = deployment.replay_test_day(&world, &slice);
        assert!(
            report.p99 < Duration::from_millis(50),
            "replay report leaked earlier traffic: p99 {:?}",
            report.p99
        );
        // A second replay is likewise unaffected by the first.
        let second = deployment.replay_test_day(&world, &slice);
        assert_eq!(second.transactions, report.transactions);
        assert!(second.p99 < Duration::from_millis(50));
    }

    #[test]
    fn serving_catches_a_nontrivial_share_of_fraud() {
        let (world, slice, deployment) = deploy();
        let report = deployment.replay_test_day(&world, &slice);
        let frauds = report.true_alerts + report.missed_frauds;
        assert!(frauds > 0, "test day should contain fraud");
        // The tiny world is noisy; demand better than nothing rather than a
        // specific F1.
        assert!(
            report.true_alerts > 0,
            "deployment caught nothing ({report:?})"
        );
    }

    #[test]
    fn deployment_reports_embedding_dim() {
        let (_, _, deployment) = deploy();
        assert_eq!(deployment.embedding_dim(), 8);
    }
}
