//! "Double Eleven" stress drill: peak-day traffic against the full stack.
//!
//! ```sh
//! cargo run --release --example double_eleven
//! ```
//!
//! The paper's motivation cites 2017's Double Eleven shopping festival —
//! US$25 billion of transactions in a single day. This example simulates a
//! flash-sale burst (traffic ramps to a multiple of the normal rate),
//! drives it through the Alipay→MS path at increasing pool sizes, and
//! reports how tail latency holds up — plus what fraction of the injected
//! fraud the deployed model interrupts under peak load.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use titant::core::layout;
use titant::modelserver::{ScoreRequest, Stage};
use titant::prelude::*;

fn main() {
    let world = World::generate(WorldConfig {
        n_users: 3_000,
        seed: 1111,
        ..Default::default()
    });
    let slice = DatasetSlice::paper(0);
    let artifacts = OfflinePipeline::new(PipelineConfig {
        embedding_dim: 16,
        walks_per_node: 8,
        threads: 4,
        ..Default::default()
    })
    .run(&world, &slice)
    .expect("offline pipeline");
    let deployment = OnlineDeployment::new(artifacts).expect("deployable model");

    // The festival day: every test-day transaction replayed 20x — with the
    // fraud mixed in, because fraudsters love a busy day.
    let day: Vec<(ScoreRequest, bool)> = world
        .record_range(slice.test_day..slice.test_day + 1)
        .map(|i| {
            let is_fraud = world.label_as_of(i, i64::MAX) > 0.5;
            (layout::score_request(&world, i), is_fraud)
        })
        .collect();
    let multiplier = 20usize;
    println!(
        "double-eleven drill: {} base transactions x{multiplier} = {} requests",
        day.len(),
        day.len() * multiplier
    );

    for pool in [1usize, 4, 8] {
        let ms = deployment.model_server().clone();
        // This pass's latencies only: an interval since here.
        let before = ms.latency().snapshot();
        let caught = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicUsize::new(0));

        let fraud_ids: std::collections::HashSet<u64> = day
            .iter()
            .filter(|(_, f)| *f)
            .map(|(r, _)| r.tx_id)
            .collect();
        let fraud_ids = Arc::new(fraud_ids);
        let (caught2, done2, fraud2) = (
            Arc::clone(&caught),
            Arc::clone(&done),
            Arc::clone(&fraud_ids),
        );
        let worker_pool = ms.serve_pool(
            pool,
            move |resp| {
                done2.fetch_add(1, Ordering::Relaxed);
                if resp.alert && fraud2.contains(&resp.tx_id) {
                    caught2.fetch_add(1, Ordering::Relaxed);
                }
            },
            |err| eprintln!("rejected: {err}"),
        );

        let t0 = std::time::Instant::now();
        'feed: for _ in 0..multiplier {
            for (req, _) in &day {
                if worker_pool.send(req.clone()).is_err() {
                    eprintln!("pool shut down early");
                    break 'feed;
                }
            }
        }
        // Drain the queue and join every worker before reading the clock.
        worker_pool.shutdown();
        let elapsed = t0.elapsed();
        let lat = ms.latency().snapshot().since(&before);
        let total = lat.stage(Stage::Total);
        println!(
            "pool {pool}: {:.0} tx/s  p50 {:?}  p99 {:?}  fraud alerts {}/{} per pass",
            done.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64(),
            total.quantile(0.5).unwrap_or_default(),
            total.quantile(0.99).unwrap_or_default(),
            caught.load(Ordering::Relaxed) / multiplier,
            fraud_ids.len(),
        );
        for stage in Stage::ALL {
            println!(
                "  {stage:?}: p50 {:?}  p99 {:?}",
                lat.stage(stage).quantile(0.5).unwrap_or_default(),
                lat.stage(stage).quantile(0.99).unwrap_or_default(),
            );
        }
    }
}
