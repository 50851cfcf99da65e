//! Quickstart: one full offline→online TitAnt cycle on a small world.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a synthetic transaction world, runs the offline pipeline
//! (MaxCompute log aggregation → transaction network → DeepWalk embeddings
//! → GBDT → Ali-HBase upload), deploys the model server and replays the
//! test day through the simulated Alipay front end.

use titant::prelude::*;

fn main() {
    // A small world: ~3k users, 111 simulated days.
    let world = World::generate(WorldConfig {
        n_users: 3_000,
        fraudster_rate: 0.015,
        seed: 42,
        ..Default::default()
    });
    println!(
        "world: {} users, {} transactions, {:.2}% fraud, {:.0}% repeat fraudsters",
        world.profiles().len(),
        world.records().len(),
        world.fraud_rate(0..world.config().n_days) * 100.0,
        world.repeat_fraudster_fraction() * 100.0,
    );

    // The paper's Dataset 1 slicing (Figure 8): 90-day network window,
    // 14 training days, test on "April 10".
    let slice = DatasetSlice::paper(0);

    // Offline: train today's model.
    let t0 = std::time::Instant::now();
    let pipeline = OfflinePipeline::new(PipelineConfig {
        embedding_dim: 16,
        walks_per_node: 10,
        threads: 4,
        ..Default::default()
    });
    let artifacts = pipeline.run(&world, &slice).expect("offline pipeline");
    println!(
        "offline: trained on {} rows over a {}-node network in {:.1?} (model v{})",
        artifacts.train_rows,
        artifacts.graph.node_count(),
        t0.elapsed(),
        artifacts.version,
    );

    // Online: deploy and serve the next day in real time. A model that
    // does not match the serving layout is rejected here.
    let deployment = match OnlineDeployment::new(artifacts) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("deployment rejected: {e}");
            return;
        }
    };
    let report = deployment.replay_test_day(&world, &slice);
    println!(
        "online ({}): {} transactions, {} frauds interrupted, {} false alerts, {} missed",
        slice.test_day_name(),
        report.transactions,
        report.true_alerts,
        report.false_alerts,
        report.missed_frauds,
    );
    println!(
        "serving F1 {:.1}%, latency p50 {:?} / p99 {:?} — the paper's bound is tens of milliseconds",
        report.f1 * 100.0,
        report.p50,
        report.p99,
    );
    println!(
        "stages: fetch p99 {:?}, assemble p99 {:?}, predict p99 {:?} ({} degraded, {} rejected)",
        report.fetch.p99, report.assemble.p99, report.predict.p99, report.degraded, report.errors,
    );
}
