//! The "T+1" driver: retrain offline daily, serve the next day (§5.1).
//!
//! "A model will be trained and deployed in an offline manner on a daily
//! basis and will be used for prediction for the next day on a real-time
//! basis."

use crate::error::TitAntError;
use crate::offline::{OfflinePipeline, PipelineConfig};
use crate::online::{OnlineDeployment, ServingReport};
use titant_datagen::{DatasetSlice, World};

/// One day's outcome.
#[derive(Debug, Clone)]
pub struct DailyResult {
    /// Paper-style name of the test day ("April 10" + k).
    pub day_name: String,
    /// The slice index.
    pub slice_index: usize,
    /// Serving outcome for that day.
    pub report: ServingReport,
    /// Model version deployed (the test day).
    pub model_version: u64,
}

/// Rolls the offline/online cycle across consecutive dataset slices.
pub struct TPlusOneDriver {
    pipeline: OfflinePipeline,
}

impl TPlusOneDriver {
    /// Create a driver with the given pipeline configuration.
    pub fn new(config: PipelineConfig) -> Self {
        Self {
            pipeline: OfflinePipeline::new(config),
        }
    }

    /// Run the daily cycle for each slice: train on the window, deploy the
    /// fresh model, replay the test day, roll forward. Fails if a freshly
    /// trained model cannot be deployed (layout/width mismatch).
    pub fn run(
        &self,
        world: &World,
        slices: &[DatasetSlice],
    ) -> Result<Vec<DailyResult>, TitAntError> {
        slices
            .iter()
            .map(|slice| {
                let artifacts = self.pipeline.run(world, slice)?;
                let version = artifacts.version;
                let deployment = OnlineDeployment::new(artifacts)?;
                let report = deployment.replay_test_day(world, slice);
                Ok(DailyResult {
                    day_name: slice.test_day_name(),
                    slice_index: slice.index,
                    report,
                    model_version: version,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use titant_datagen::WorldConfig;

    #[test]
    fn driver_rolls_across_days_with_fresh_models() {
        let world = World::generate(WorldConfig::tiny(21));
        let start = world.config().feature_start_day;
        let n_days = world.config().n_days;
        // Two custom mini-slices inside the tiny world.
        let slices: Vec<DatasetSlice> = (0..2)
            .map(|k| DatasetSlice {
                index: k,
                graph_days: k as i64..start + k as i64,
                train_days: start + k as i64..n_days - 2 + k as i64,
                test_day: n_days - 2 + k as i64,
            })
            .collect();
        let results = TPlusOneDriver::new(PipelineConfig::quick())
            .run(&world, &slices)
            .unwrap();
        assert_eq!(results.len(), 2);
        // Fresh model per day, version = test day.
        assert_eq!(results[0].model_version + 1, results[1].model_version);
        assert!(results.iter().all(|r| r.report.transactions > 0));
    }
}
