//! **Offline determinism** — the T+1 training path must ship the same
//! artifacts on any machine: on the tiny world, embeddings included, the
//! model bytes and the uploaded feature-table contents must not differ
//! between 1, 2 and 4 threads.
//!
//! The report records an FNV-1a digest of what it compares, so a change
//! that moves the shipped model or the served table shows up as a diff of
//! `BENCH_offline.json`. Offline stage timing is the benchmark's, not this
//! gate's.

use crate::gate::{fnv1a, tiny_world, Checks, Outcome, FNV_OFFSET};
use serde::Serialize;
use titant_alihbase::RowKey;
use titant_core::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

#[derive(Serialize)]
struct Report {
    bench: String,
    threads_checked: Vec<usize>,
    train_rows: usize,
    graph_nodes: usize,
    /// FNV-1a over the model bytes, then every scanned `(key, value)` of
    /// the feature table, at one thread.
    fingerprint_digest: String,
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

fn digest((model, table): &Fingerprint) -> u64 {
    let fold = |acc: u64, bytes: &[u8]| bytes.iter().fold(acc, |a, &b| fnv1a(a, b.into()));
    table
        .iter()
        .fold(fold(FNV_OFFSET, model), |acc, (key, value)| {
            fold(fold(acc, key.as_bytes()), value)
        })
}

pub fn run() -> Outcome {
    eprintln!("offline determinism: tiny world at {THREAD_COUNTS:?} threads");
    let (world, slice) = tiny_world(42);
    let first = run_pipeline(&world, &slice, THREAD_COUNTS[0]);
    let reference = fingerprint(&first);
    let same = THREAD_COUNTS[1..]
        .iter()
        .all(|&threads| fingerprint(&run_pipeline(&world, &slice, threads)) == reference);
    let mut checks = Checks::default();
    let deterministic_across_threads =
        checks.check("model or feature table differs across thread counts", same);
    let fingerprint_digest = format!("{:016x}", digest(&reference));
    eprintln!(
        "  train_rows={} graph_nodes={} digest={fingerprint_digest} identical={same}",
        first.train_rows,
        first.graph.node_count()
    );

    Outcome::new(
        checks.pass(),
        &Report {
            bench: "offline".into(),
            threads_checked: THREAD_COUNTS.to_vec(),
            train_rows: first.train_rows,
            graph_nodes: first.graph.node_count(),
            fingerprint_digest,
            deterministic_across_threads,
        },
    )
}
