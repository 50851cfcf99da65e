//! Real-time serving under load, with a mid-stream model hot swap.
//!
//! ```sh
//! cargo run --release --example realtime_serving
//! ```
//!
//! Stands up the Model Server over the feature store, pushes a sustained
//! request stream through the serving thread pool, reports throughput and
//! latency quantiles, and swaps in a new model version without dropping a
//! request — the paper's "model files are periodically updated" in action.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use titant::core::layout;
use titant::modelserver::{ScoreRequest, Stage};
use titant::prelude::*;

fn main() {
    let world = World::generate(WorldConfig {
        n_users: 3_000,
        seed: 11,
        ..Default::default()
    });
    let slice = DatasetSlice::paper(0);
    let pipeline = OfflinePipeline::new(PipelineConfig {
        embedding_dim: 16,
        walks_per_node: 8,
        threads: 4,
        ..Default::default()
    });
    let artifacts = pipeline.run(&world, &slice).expect("offline pipeline");
    // Keep a second model file ready for the hot swap.
    let mut next_model = artifacts.model_file.clone();
    next_model.version += 1;

    let deployment = OnlineDeployment::new(artifacts).expect("deployable model");
    let ms = deployment.model_server().clone();

    // Build the request stream from the test day.
    let requests: Vec<ScoreRequest> = world
        .record_range(slice.test_day..slice.test_day + 1)
        .map(|i| layout::score_request(&world, i))
        .collect();
    // Replicate to a sustained burst.
    let burst: Vec<ScoreRequest> = requests.iter().cycle().take(50_000).cloned().collect();

    println!(
        "serving {} requests through a 8-thread MS pool…",
        burst.len()
    );
    let done = Arc::new(AtomicUsize::new(0));
    let alerts = Arc::new(AtomicUsize::new(0));
    let errors = Arc::new(AtomicUsize::new(0));
    let (done2, alerts2, errors2) = (Arc::clone(&done), Arc::clone(&alerts), Arc::clone(&errors));
    // Malformed requests come back through the error callback instead of
    // killing a worker; valid traffic keeps flowing.
    let pool = ms.serve_pool(
        8,
        move |resp| {
            done2.fetch_add(1, Ordering::Relaxed);
            if resp.alert {
                alerts2.fetch_add(1, Ordering::Relaxed);
            }
        },
        move |err| {
            errors2.fetch_add(1, Ordering::Relaxed);
            eprintln!("rejected: {err}");
        },
    );

    let t0 = std::time::Instant::now();
    let total = burst.len();
    let half = total / 2;
    for (i, req) in burst.into_iter().enumerate() {
        if i == half {
            // Hot swap mid-stream: no request is dropped, new requests see
            // the new version immediately. A mismatched file would be
            // rejected here with the live model left serving.
            match ms.deploy(next_model.clone()) {
                Ok(()) => println!(
                    "… hot-swapped to model v{} at request {i}",
                    ms.model_version()
                ),
                Err(e) => eprintln!("… hot swap rejected, keeping v{}: {e}", ms.model_version()),
            }
        }
        if pool.send(req).is_err() {
            eprintln!("pool shut down early");
            break;
        }
    }
    // Clean shutdown: drains the queue and joins every worker.
    pool.shutdown();
    let elapsed = t0.elapsed();

    let lat = ms.latency().snapshot();
    let total_stage = lat.stage(Stage::Total);
    println!(
        "done: {} requests in {:.2?} = {:.0} tx/s, {} alerts raised, {} rejected",
        done.load(Ordering::Relaxed),
        elapsed,
        total as f64 / elapsed.as_secs_f64(),
        alerts.load(Ordering::Relaxed),
        errors.load(Ordering::Relaxed),
    );
    let q = |q| total_stage.quantile(q).unwrap_or_default();
    println!(
        "latency p50 {:?}  p99 {:?}  mean {:?} — \"predict online real-time transaction fraud within only milliseconds\"",
        q(0.5),
        q(0.99),
        total_stage.mean().unwrap_or_default(),
    );
    for stage in Stage::ALL {
        println!(
            "  {stage:?}: p50 {:?}  p99 {:?}",
            lat.stage(stage).quantile(0.5).unwrap_or_default(),
            lat.stage(stage).quantile(0.99).unwrap_or_default(),
        );
    }
}
