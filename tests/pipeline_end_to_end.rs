//! End-to-end integration: the full offline → online cycle on a small
//! world, exercising every substrate crate together.

use titant::prelude::*;

fn tiny_world(seed: u64) -> (World, DatasetSlice) {
    world_and_slice(WorldConfig::tiny(seed))
}

fn world_and_slice(config: WorldConfig) -> (World, DatasetSlice) {
    let world = World::generate(config);
    let start = world.config().feature_start_day;
    let slice = DatasetSlice {
        index: 0,
        graph_days: 0..start,
        train_days: start..world.config().n_days - 1,
        test_day: world.config().n_days - 1,
    };
    (world, slice)
}

#[test]
fn offline_online_cycle_catches_fraud_in_real_time() {
    // Twice `tiny`'s 600 users. The served threshold is the validation
    // rows' best-F1 score (it flags 0.7-2.8 % of them), and test-day
    // scores run lower: a 600-user day (~400 transfers) raised 0-3 alerts
    // on 6 of 8 world seeds and caught no fraud on 2. At 1,200 users every
    // one of those seeds caught fraud.
    let (world, slice) = world_and_slice(WorldConfig {
        n_users: 1_200,
        ..WorldConfig::tiny(2024)
    });
    let artifacts = OfflinePipeline::new(PipelineConfig::quick())
        .run(&world, &slice)
        .unwrap();

    // The offline stage produced a versioned model over basic + embedding
    // features.
    assert_eq!(artifacts.version, slice.test_day as u64);
    assert!(artifacts.model_file.n_features > titant::datagen::N_BASIC_FEATURES);

    let deployment = OnlineDeployment::new(artifacts).unwrap();
    let report = deployment.replay_test_day(&world, &slice);

    // Every test-day transaction was scored, in real time.
    assert_eq!(
        report.transactions,
        world.record_range(slice.test_day..slice.test_day + 1).len()
    );
    assert!(
        report.p99 < std::time::Duration::from_millis(50),
        "p99 {:?} blows the paper's serving bound",
        report.p99
    );
    // The deployment catches fraud (tiny world => weak but nonzero bar).
    assert!(report.true_alerts > 0, "nothing caught: {report:?}");
}

#[test]
fn t_plus_1_driver_retrains_daily() {
    let (world, slice0) = tiny_world(7);
    let results = TPlusOneDriver::new(PipelineConfig::quick())
        .run(&world, &[slice0])
        .unwrap();
    assert_eq!(results.len(), 1);
    assert!(results[0].report.transactions > 0);
    assert!(!results[0].day_name.is_empty());
}

#[test]
fn serving_features_match_training_schema() {
    // The MS feature layout must reconstruct exactly the training column
    // order; a mismatch would silently mis-score everything.
    let (world, slice) = tiny_world(31);
    let artifacts = OfflinePipeline::new(PipelineConfig::quick())
        .run(&world, &slice)
        .unwrap();
    let dim = (artifacts.model_file.n_features - titant::datagen::N_BASIC_FEATURES) / 2;
    let layout = titant::core::layout::serving_layout(dim);
    assert_eq!(layout.width(), artifacts.model_file.n_features);
}
