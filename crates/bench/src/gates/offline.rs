//! **Offline throughput** — wall-clock per offline stage (graph build,
//! walks+SGNS, assembly, GBDT fit, upload) across 1/2/4/8 threads, tracking
//! how the T+1 training path scales with cores (§5.1: the daily retrain
//! must fit a fixed wall-clock budget).
//!
//! The sweep's timings are informational. The gate's one assertion is
//! cross-thread determinism: on the tiny world, embeddings included, the
//! model bytes and the uploaded feature-table contents must not differ
//! between 1, 2 and 4 threads.

use crate::gate::{tiny_world, Checks, Outcome};
use serde::Serialize;
use titant_alihbase::RowKey;
use titant_core::offline::StageTimings;
use titant_core::prelude::*;

#[derive(Serialize)]
struct StageMs {
    graph_ms: f64,
    embed_ms: f64,
    assemble_ms: f64,
    fit_ms: f64,
    upload_ms: f64,
    total_ms: f64,
}

impl StageMs {
    fn from_timings(t: &StageTimings) -> Self {
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        Self {
            graph_ms: ms(t.graph),
            embed_ms: ms(t.embed),
            assemble_ms: ms(t.assemble),
            fit_ms: ms(t.fit),
            upload_ms: ms(t.upload),
            total_ms: ms(t.total()),
        }
    }
}

#[derive(Serialize)]
struct ThreadRun {
    threads: usize,
    stages: StageMs,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    detected_cores: usize,
    train_rows: usize,
    graph_nodes: usize,
    runs: Vec<ThreadRun>,
    /// GBDT fit wall-clock at 1 thread over 4 threads (>= 2.0 is the bar
    /// on a >= 4-core machine; informational).
    fit_speedup_4_threads: f64,
    deterministic_across_threads: bool,
}

/// Serialized model bytes + feature-table dump, compared across thread
/// counts.
type Fingerprint = (Vec<u8>, Vec<(String, Vec<u8>)>);

fn run_pipeline(world: &World, slice: &DatasetSlice, threads: usize) -> OfflineArtifacts {
    let config = PipelineConfig {
        embedding_dim: 16,
        walks_per_node: 10,
        walk_length: 20,
        threads,
        ..PipelineConfig::default()
    };
    OfflinePipeline::new(config)
        .run(world, slice)
        .unwrap_or_else(|e| panic!("offline pipeline failed at {threads} threads: {e}"))
}

fn fingerprint(artifacts: &OfflineArtifacts) -> Fingerprint {
    let table = artifacts
        .feature_table
        .scan_rows(&RowKey::from_str(""), &RowKey::from_str("\u{10FFFF}"))
        .into_iter()
        .map(|(key, value)| (format!("{key:?}"), value.to_vec()))
        .collect();
    let model = artifacts.model_file.to_bytes().expect("model serializes");
    (model, table)
}

pub fn run() -> Outcome {
    let detected_cores = titant_parallel::resolve_threads(0);
    let thread_counts = [1usize, 2, 4, 8];
    eprintln!(
        "offline throughput ({detected_cores} cores detected): sweeping {thread_counts:?} threads"
    );
    let world = World::generate(WorldConfig {
        n_users: 5_000,
        seed: 0x00ff_11ee,
        ..Default::default()
    });
    let slice = DatasetSlice::paper(0);

    let mut runs = Vec::new();
    let (mut train_rows, mut graph_nodes) = (0, 0);
    for threads in thread_counts {
        let artifacts = run_pipeline(&world, &slice, threads);
        let stages = StageMs::from_timings(&artifacts.timings);
        eprintln!(
            "  {threads} thread(s): graph {:.0}ms  embed {:.0}ms  assemble {:.0}ms  fit {:.0}ms  upload {:.0}ms  total {:.0}ms",
            stages.graph_ms,
            stages.embed_ms,
            stages.assemble_ms,
            stages.fit_ms,
            stages.upload_ms,
            stages.total_ms,
        );
        (train_rows, graph_nodes) = (artifacts.train_rows, artifacts.graph.node_count());
        runs.push(ThreadRun { threads, stages });
    }
    let fit_at = |t: usize| {
        runs.iter()
            .find(|r| r.threads == t)
            .map_or(f64::NAN, |r| r.stages.fit_ms)
    };
    let fit_speedup_4_threads = fit_at(1) / fit_at(4);
    eprintln!("GBDT fit speedup, 4 threads vs 1: {fit_speedup_4_threads:.2}x");

    let (tiny, tiny_slice) = tiny_world(42);
    let one = fingerprint(&run_pipeline(&tiny, &tiny_slice, 1));
    let same = [2, 4]
        .into_iter()
        .all(|threads| fingerprint(&run_pipeline(&tiny, &tiny_slice, threads)) == one);
    let mut checks = Checks::default();
    let deterministic_across_threads =
        checks.check("model or feature table differs across thread counts", same);

    Outcome::new(
        checks.pass(),
        &Report {
            bench: "offline".into(),
            detected_cores,
            train_rows,
            graph_nodes,
            runs,
            fit_speedup_4_threads,
            deterministic_across_threads,
        },
    )
}
