//! **Serving scale** — the read-path performance layer under growing run
//! counts: per-run bloom filters + row bounds, the decoded-row cache, and
//! batched scoring.
//!
//! Builds paired single-region feature tables — one with the default
//! per-run blooms, one with filters disabled — at 1/4/16/64 sorted runs
//! whose key ranges *interleave* (so min/max bounds alone cannot skip
//! anything), then drives an identical deterministic request stream through
//! a Model Server over each and compares the run-level read counters.
//! On top of the largest run count it sweeps row-cache capacities and
//! checks the batched scorer. The gate asserts:
//!
//! * **blooms fire** — at 64 runs `runs_skipped > 0` and runs scanned per
//!   request is strictly below the no-bloom baseline;
//! * **reads are unchanged** — filtered and baseline servers produce
//!   bit-identical probabilities for every request;
//! * **the cache is invisible** — cold, cache-warm, and batched scores are
//!   bit-identical to the uncached reference;
//! * **worker counts are invisible** — a 1-worker and a 3-worker pool
//!   produce the same per-transaction score map.

use crate::gate::{score_map, Checks, Outcome, Scores, Serving, SplitMix64};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;
use titant_alihbase::{RegionedTable, StoreConfig};
use titant_modelserver::{ModelServer, RowCacheConfig, ScoreRequest};

const N_USERS: u64 = 512;
const N_REQUESTS: usize = 4_096;
const RUN_COUNTS: [usize; 4] = [1, 4, 16, 64];

/// A single-region table holding every user across exactly `n_runs` sorted
/// runs whose row-key ranges interleave: run r holds users r, r+n, r+2n, …
/// so every run's [min, max] bounds span nearly the whole key space and
/// only the bloom filters can prove a row absent from a run.
fn build_table(fx: &Serving, n_runs: usize, bloom_bits_per_key: usize) -> Arc<RegionedTable> {
    let table = Arc::new(
        RegionedTable::single(StoreConfig {
            memtable_flush_bytes: usize::MAX,
            max_runs: 1_000, // never auto-compact: the sweep owns run count
            bloom_bits_per_key,
            ..Default::default()
        })
        .expect("in-memory table"),
    );
    for r in 0..n_runs as u64 {
        fx.upload(&table, (r..N_USERS).step_by(n_runs));
        table.flush().expect("flush one run");
    }
    table
}

/// Deterministic request stream: known payer/receiver pairs plus a slice of
/// never-written users (pure bloom-negative probes).
fn requests() -> Vec<ScoreRequest> {
    let mut rng = SplitMix64(0x5EED_5CA1E);
    (0..N_REQUESTS as u64)
        .map(|i| ScoreRequest {
            tx_id: i,
            transferor: if i % 7 == 6 {
                900_000 + i
            } else {
                rng.next_u64() % N_USERS
            },
            transferee: rng.next_u64() % N_USERS,
            context: vec![rng.next_f32()],
        })
        .collect()
}

/// Scores of one synchronous pass plus its run-level read-counter deltas
/// and wall time.
struct SweepRun {
    scores: Scores,
    runs_scanned: u64,
    runs_skipped: u64,
    bloom_false_positives: u64,
    wall_ms: f64,
}

fn drive(server: &ModelServer, table: &RegionedTable, stream: &[ScoreRequest]) -> SweepRun {
    let before = table.op_counts();
    let start = Instant::now();
    let scores = score_map(server, stream, 0);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let delta = table.op_counts().since(&before);
    SweepRun {
        scores,
        runs_scanned: delta.runs_scanned,
        runs_skipped: delta.runs_skipped,
        bloom_false_positives: delta.bloom_false_positives,
        wall_ms,
    }
}

#[derive(Serialize)]
struct RunLevelReport {
    n_runs: usize,
    n_requests: usize,
    // Filtered (default blooms) vs baseline (filters disabled).
    scanned_per_req: f64,
    baseline_scanned_per_req: f64,
    runs_skipped: u64,
    baseline_runs_skipped: u64,
    bloom_false_positives: u64,
    wall_ms: f64,
    baseline_wall_ms: f64,
    scores_identical: bool,
}

#[derive(Serialize)]
struct CacheLevelReport {
    capacity: usize,
    hit_ratio: f64,
    hits: u64,
    misses: u64,
    wall_ms: f64,
    scores_identical: bool,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    n_users: u64,
    runs: Vec<RunLevelReport>,
    caches: Vec<CacheLevelReport>,
    batch_identical: bool,
    workers_identical: bool,
    blooms_fire_at_max_runs: bool,
    pass: bool,
}

pub fn run() -> Outcome {
    eprintln!("serving scale: {N_USERS} users, {N_REQUESTS} requests per level");
    let fx = Serving::new(2, 2, 1, 2, 30, 3);
    let model = fx.model();
    let stream = requests();
    let mut checks = Checks::default();
    let mut run_reports = Vec::new();
    // The 64-run filtered table and its uncached scores: the reference
    // every later level must reproduce.
    let mut last: Option<(Arc<RegionedTable>, Scores)> = None;

    for n_runs in RUN_COUNTS {
        let filtered_table = build_table(&fx, n_runs, StoreConfig::default().bloom_bits_per_key);
        let baseline_table = build_table(&fx, n_runs, 0);
        let filtered = drive(
            &fx.server(&filtered_table, &model, None),
            &filtered_table,
            &stream,
        );
        let baseline = drive(
            &fx.server(&baseline_table, &model, None),
            &baseline_table,
            &stream,
        );

        let scores_identical = checks.check(
            &format!("runs={n_runs}: filtered and no-bloom scores agree"),
            filtered.scores == baseline.scores,
        );
        // Every level must see the same probabilities: run count and blooms
        // are storage details, never visible in the scores.
        if let Some((_, reference)) = &last {
            checks.check(
                &format!("runs={n_runs}: scores equal the previous run count's"),
                reference == &filtered.scores,
            );
        }
        let report = RunLevelReport {
            n_runs,
            n_requests: N_REQUESTS,
            scanned_per_req: filtered.runs_scanned as f64 / N_REQUESTS as f64,
            baseline_scanned_per_req: baseline.runs_scanned as f64 / N_REQUESTS as f64,
            runs_skipped: filtered.runs_skipped,
            baseline_runs_skipped: baseline.runs_skipped,
            bloom_false_positives: filtered.bloom_false_positives,
            wall_ms: filtered.wall_ms,
            baseline_wall_ms: baseline.wall_ms,
            scores_identical,
        };
        eprintln!(
            "  runs={:<3} scanned/req={:.2} (no-bloom {:.2}) skipped={} (no-bloom {}) fp={} identical={}",
            n_runs,
            report.scanned_per_req,
            report.baseline_scanned_per_req,
            report.runs_skipped,
            report.baseline_runs_skipped,
            report.bloom_false_positives,
            scores_identical,
        );
        run_reports.push(report);
        last = Some((filtered_table, filtered.scores));
    }

    // Gate (a): at the largest run count the filters demonstrably fire.
    let (table, uncached) = last.expect("sweep ran");
    let max_report = run_reports.last().expect("sweep ran");
    let blooms_fire = checks.check(
        "blooms fire at the largest run count",
        max_report.runs_skipped > 0
            && max_report.scanned_per_req < max_report.baseline_scanned_per_req,
    );

    // Gate (b): the row cache and the batch path are score-invisible over
    // the 64-run filtered table.
    let mut cache_reports = Vec::new();
    for capacity in [0usize, (N_USERS / 4) as usize, N_USERS as usize] {
        let cache = RowCacheConfig {
            capacity,
            ..Default::default()
        };
        let server = fx.server(&table, &model, Some(cache));
        // Two passes: the first warms the cache, the second measures it.
        let cold = drive(&server, &table, &stream);
        let warm = drive(&server, &table, &stream);
        let stats = server.row_cache_stats().expect("cache configured");
        let scores_identical = checks.check(
            &format!("cache capacity {capacity}: cold and warm scores equal uncached"),
            cold.scores == uncached && warm.scores == uncached,
        );
        let report = CacheLevelReport {
            capacity,
            hit_ratio: stats.hit_ratio(),
            hits: stats.hits,
            misses: stats.misses,
            wall_ms: warm.wall_ms,
            scores_identical,
        };
        eprintln!(
            "  cache cap={:<4} hit_ratio={:.3} hits={} misses={} identical={}",
            capacity, report.hit_ratio, report.hits, report.misses, scores_identical
        );
        cache_reports.push(report);
    }
    checks.check(
        "a full-size cache hits once warm",
        cache_reports
            .last()
            .is_some_and(|full| full.hit_ratio > 0.0),
    );

    let batch_scores: Scores = fx
        .server(&table, &model, Some(RowCacheConfig::default()))
        .score_batch(&stream)
        .into_iter()
        .map(|r| r.expect("clean table scores"))
        .map(|r| (r.probability.to_bits(), r.alert))
        .collect();
    let batch_identical = checks.check(
        "score_batch equals the per-request path",
        batch_scores == uncached,
    );

    // Gate (c): worker counts never change a score.
    let pooled_server = fx.server(&table, &model, None);
    let workers_identical = checks.check(
        "score map does not vary with pool worker count",
        score_map(&pooled_server, &stream, 1) == uncached
            && score_map(&pooled_server, &stream, 3) == uncached,
    );

    Outcome::new(
        checks.pass(),
        &Report {
            bench: "serving_scale".into(),
            n_users: N_USERS,
            runs: run_reports,
            caches: cache_reports,
            batch_identical,
            workers_identical,
            blooms_fire_at_max_runs: blooms_fire,
            pass: checks.pass(),
        },
    )
}
