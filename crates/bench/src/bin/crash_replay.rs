//! **Crash replay** — the ingest+score day under escalating seeded
//! write-fault and power-loss plans.
//!
//! ```sh
//! cargo run --release -p titant-bench --bin crash_replay            # full gate
//! cargo run --release -p titant-bench --bin crash_replay -- --quick # fewer batches
//! ```
//!
//! Replays a day of streaming feature corrections through a Model Server
//! whose **dir-backed** feature table carries a seeded write-fault plan:
//! WAL append errors, fsync failures, write latency, and power-loss
//! points that truncate the un-synced WAL tail and discard all in-memory
//! state mid-workload. The server answers with its bounded write-retry
//! loop; the replay also crash-restarts the table in place
//! ([`titant_modelserver::ModelServer::recover_table`]) at fixed
//! intervals. An identical delta stream drives a never-faulted in-memory
//! reference, and the gate asserts, per level:
//!
//! * **zero acknowledged-write loss** — after the final crash-restart the
//!   table's full export (every version, tombstones included) equals the
//!   reference's;
//! * **zero duplicate cells** — retried writes may leave duplicate
//!   `(key, version)` entries only with byte-equal values (idempotent
//!   rewrites), never conflicting ones;
//! * **zero tombstone resurrection** — deletes survive every crash and
//!   compaction (implied by the export equality, probed by scoring);
//! * **bit-identical scores** — every probe scores identically to the
//!   reference, before and after every recovery;
//! * **bit-identical counters** — a fresh directory and a re-run
//!   reproduce every counter exactly, and a serve pool at any worker
//!   count reproduces the synchronous score sum.
//!
//! The baseline level runs with **no hook installed** and asserts every
//! write-fault counter stays zero: the fault machinery is default-off and
//! invisible to the classic benches. Writes `BENCH_crash.json`. Exits
//! nonzero when any gate fails.

use bytes::Bytes;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use titant_alihbase::{CellKey, RegionedTable, RowKey, SplitConfig, StoreConfig, SyncPolicy};
use titant_bench::harness;
use titant_core::prelude::*;
use titant_modelserver::{
    FeatureDelta, IngestOptions, ModelFile, ModelServer, ScoreRequest, ServeError,
};

/// Versions above every offline upload's date-time stamp; each ingest
/// batch writes a distinct version so retried rewrites are idempotent.
const VERSION_BASE: u64 = 30_000_000;

struct Level {
    name: &'static str,
    seed: u64,
    append_rate: f64,
    sync_rate: f64,
    latency_rate: f64,
    latency: Duration,
    power_loss_rate: f64,
    /// `false` = no hook installed at all (the default-off baseline).
    hook: bool,
}

fn levels() -> Vec<Level> {
    vec![
        Level {
            name: "baseline",
            seed: 0xD00D,
            append_rate: 0.0,
            sync_rate: 0.0,
            latency_rate: 0.0,
            latency: Duration::ZERO,
            power_loss_rate: 0.0,
            hook: false,
        },
        Level {
            name: "faults",
            seed: 0xFA17,
            append_rate: 0.01,
            sync_rate: 0.01,
            latency_rate: 0.01,
            latency: Duration::from_micros(300),
            power_loss_rate: 0.0,
            hook: true,
        },
        // The acceptance blackout: injected fsync/append failures plus
        // seeded power-loss points.
        Level {
            name: "blackout",
            seed: 0xB1AC,
            append_rate: 0.01,
            sync_rate: 0.01,
            latency_rate: 0.01,
            latency: Duration::from_micros(300),
            power_loss_rate: 0.005,
            hook: true,
        },
    ]
}

/// Ingest SLO: a deep retry budget and no deadline — the gate is loss,
/// not latency, and every retry draw is deterministic anyway.
fn ingest_slo(seed: u64) -> SloConfig {
    SloConfig {
        deadline: None,
        retry: RetryPolicy {
            max_retries: 12,
            base: Duration::from_micros(50),
            cap: Duration::from_micros(400),
        },
        hedge: None,
        seed,
    }
}

/// Everything one level run must reproduce bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
struct Counters {
    batches: u64,
    acked: u64,
    exhausted: u64,
    write_retried: u64,
    wal_append_failures: u64,
    wal_sync_failures: u64,
    power_loss_recoveries: u64,
    orphans_cleaned: u64,
    recoveries: u64,
    region_splits: u64,
    score_checksum: u64,
    degraded_probes: u64,
}

#[derive(Debug, Clone, Copy, Serialize)]
struct Gates {
    content_equal: bool,
    no_conflicting_duplicates: bool,
    scores_match_reference: bool,
    recovery_preserves_scores: bool,
    pool_matches_sync: bool,
    no_exhausted_ingests: bool,
}

impl Gates {
    fn pass(&self) -> bool {
        self.content_equal
            && self.no_conflicting_duplicates
            && self.scores_match_reference
            && self.recovery_preserves_scores
            && self.pool_matches_sync
            && self.no_exhausted_ingests
    }
}

#[derive(Serialize)]
struct LevelReport {
    level: String,
    seed: u64,
    append_rate: f64,
    sync_rate: f64,
    latency_rate: f64,
    power_loss_rate: f64,
    hook_installed: bool,
    n_batches: usize,
    counters: Counters,
    gates: Gates,
    reproducible: bool,
    fault_counters_zero: Option<bool>,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    mode: String,
    levels: Vec<LevelReport>,
    pass: bool,
}

fn requests(world: &World, slice: &DatasetSlice, n: usize) -> Vec<ScoreRequest> {
    let range = world.record_range(slice.test_day..slice.test_day + 1);
    let indices: Vec<usize> = range.collect();
    assert!(!indices.is_empty(), "test day must contain transactions");
    (0..n)
        .map(|i| {
            let idx = indices[i % indices.len()];
            let rec = &world.records()[idx];
            let context = match world.features_of(idx) {
                Some(row) => layout::split_row(row).2,
                None => vec![0.0; layout::CONTEXT_SLOTS.len()],
            };
            ScoreRequest {
                tx_id: i as u64,
                transferor: rec.transferor.0,
                transferee: rec.transferee.0,
                context,
            }
        })
        .collect()
}

/// SplitMix64 — deterministic delta values from (seed, batch, slot).
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed ^ a.rotate_left(24) ^ b.rotate_left(48);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn val(seed: u64, a: u64, b: u64) -> f32 {
    (mix(seed, a, b) % 1000) as f32 / 1000.0
}

/// The streaming corrections of batch `b` — 8 users, one payer, one
/// receiver, and one embedding slot each.
fn deltas_for(
    batch: u64,
    seed: u64,
    users: &[u64],
    lay: &titant_modelserver::FeatureLayout,
) -> Vec<FeatureDelta> {
    (0..8u64)
        .map(|j| {
            let user = users[((batch * 5 + j * 3) as usize) % users.len()];
            FeatureDelta {
                user,
                payer: vec![(
                    (mix(seed, batch, j) as usize) % lay.payer_slots.len(),
                    val(seed, batch, j),
                )],
                receiver: vec![(
                    (mix(seed, batch, j + 100) as usize) % lay.receiver_slots.len(),
                    val(seed, batch, j + 100),
                )],
                embedding: vec![(
                    (mix(seed, batch, j + 200) as usize) % lay.embedding_dim,
                    val(seed, batch, j + 200),
                )],
                velocity: Vec::new(),
            }
        })
        .collect()
}

/// Score a probe window on both servers; returns (checksum, degraded,
/// matched) where the checksum folds every probability's exact bits.
fn probe(
    server: &ModelServer,
    reference: &ModelServer,
    stream: &[ScoreRequest],
    batch: u64,
) -> (u64, u64, bool) {
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    let mut degraded = 0u64;
    let mut matched = true;
    for j in 0..16u64 {
        let req = &stream[((batch * 13 + j) as usize) % stream.len()];
        let got = server.score(req).expect("clean read path");
        let want = reference.score(req).expect("reference read path");
        if got.probability.to_bits() != want.probability.to_bits() || got.degraded != want.degraded
        {
            matched = false;
        }
        checksum = checksum
            .wrapping_mul(0x0000_0100_0000_01B3)
            .wrapping_add(got.probability.to_bits() as u64)
            .wrapping_add(got.degraded as u64);
        degraded += got.degraded as u64;
    }
    (checksum, degraded, matched)
}

/// Canonicalize a full-table export: sorted by (key, version), duplicate
/// equal-valued entries (idempotent retried rewrites) collapsed. Returns
/// `None` when two entries conflict — same coordinates, different value.
type Export = Vec<(CellKey, u64, Option<Bytes>)>;
fn canonical(mut cells: Export) -> Option<Export> {
    cells.sort();
    let mut out: Export = Vec::with_capacity(cells.len());
    for cell in cells {
        match out.last() {
            Some(last) if last.0 == cell.0 && last.1 == cell.1 => {
                if last.2 != cell.2 {
                    return None; // conflicting duplicate
                }
            }
            _ => out.push(cell),
        }
    }
    Some(out)
}

struct LevelRun {
    counters: Counters,
    gates: Gates,
}

#[allow(clippy::too_many_arguments)]
fn run_level(
    level: &Level,
    run_tag: &str,
    seed_cells: &Export,
    users: &[u64],
    stream: &[ScoreRequest],
    model: &ModelFile,
    embedding_dim: usize,
    n_batches: u64,
    pool_workers: usize,
) -> LevelRun {
    let dir = std::env::temp_dir().join(format!(
        "titant-crash-{}-{run_tag}-{}",
        level.name,
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = StoreConfig {
        dir: Some(dir.clone()),
        sync: SyncPolicy::GroupCommit {
            max_batch: 8,
            max_wait: Duration::from_micros(800),
        },
        memtable_flush_bytes: 16 << 10,
        max_runs: 4,
        replicas: 2,
        ..Default::default()
    };
    let table = Arc::new(
        RegionedTable::single(cfg)
            .expect("dir-backed table")
            .with_rebalancing(SplitConfig {
                split_threshold: Some(600),
                max_regions: 4,
                ..Default::default()
            }),
    );
    let reference = Arc::new(RegionedTable::single(StoreConfig::default()).unwrap());
    // Seed both tables with the offline upload before any hook exists.
    table.put_rows(seed_cells.clone()).expect("seed disk table");
    reference
        .put_rows(seed_cells.clone())
        .expect("seed reference");

    if level.hook {
        table.set_fault_hook(Some(Arc::new(FaultPlan::new(FaultPlanConfig {
            seed: level.seed,
            write_append_error_rate: level.append_rate,
            write_sync_error_rate: level.sync_rate,
            write_latency_rate: level.latency_rate,
            write_latency: level.latency,
            power_loss_rate: level.power_loss_rate,
            // Read-fault rates stay zero: this bench gates the write path,
            // so scores must stay clean and bit-comparable throughout.
            ..FaultPlanConfig::default()
        }))));
    }

    let lay = layout::serving_layout(embedding_dim);
    let server = ModelServer::with_slo(
        Arc::clone(&table),
        lay.clone(),
        model.clone(),
        ingest_slo(level.seed),
    )
    .expect("serving layout matches the shipped model");
    let ref_server =
        ModelServer::new(Arc::clone(&reference), lay.clone(), model.clone()).expect("reference");

    let mut counters = Counters {
        batches: n_batches,
        acked: 0,
        exhausted: 0,
        write_retried: 0,
        wal_append_failures: 0,
        wal_sync_failures: 0,
        power_loss_recoveries: 0,
        orphans_cleaned: 0,
        recoveries: 0,
        region_splits: 0,
        score_checksum: 0xcbf2_9ce4_8422_2325,
        degraded_probes: 0,
    };
    let mut scores_match = true;
    let mut recovery_preserves = true;

    for b in 0..n_batches {
        let deltas = deltas_for(b, level.seed, users, &lay);
        match server.ingest_update_opts(&deltas, VERSION_BASE + b, IngestOptions { tick: b }) {
            Ok(rep) => {
                counters.acked += 1;
                counters.region_splits += rep.region_splits;
                // Mirror the acknowledged batch onto the reference.
                ref_server
                    .ingest_update(&deltas, VERSION_BASE + b)
                    .expect("reference ingest never faults");
            }
            Err(ServeError::IngestRetriesExhausted { .. }) => counters.exhausted += 1,
            Err(e) => panic!("unexpected ingest error: {e}"),
        }
        // Every 7th batch deletes one seeded basic cell on both tables —
        // the tombstones whose resurrection the export gate would catch.
        // `put_rows` bypasses the fault hook by design, so the mirror is
        // exact.
        if b % 7 == 6 {
            let user = users[((b * 3) as usize) % users.len()];
            let key = CellKey::new(RowKey::from_user(user), "basic", "p0");
            let cell = vec![(key, VERSION_BASE + b, None)];
            table.put_rows(cell.clone()).expect("tombstone");
            reference.put_rows(cell).expect("reference tombstone");
        }
        let (checksum, degraded, matched) = probe(&server, &ref_server, stream, b);
        scores_match &= matched;
        counters.score_checksum = counters
            .score_checksum
            .wrapping_mul(31)
            .wrapping_add(checksum);
        counters.degraded_probes += degraded;
        // Periodic crash-restart: reopen every region from disk and prove
        // the acknowledged state scores identically afterwards.
        if b % 13 == 12 || b + 1 == n_batches {
            let (pre, _, _) = probe(&server, &ref_server, stream, b);
            server.recover_table().expect("recover in place");
            counters.recoveries += 1;
            let (post, _, matched) = probe(&server, &ref_server, stream, b);
            scores_match &= matched;
            recovery_preserves &= pre == post;
        }
    }

    // Content gates against the never-faulted reference, after the final
    // crash-restart above.
    let disk_export = canonical(table.export_cells());
    let ref_export = canonical(reference.export_cells());
    let no_conflicting_duplicates = disk_export.is_some();
    let content_equal = match (&disk_export, &ref_export) {
        (Some(a), Some(b)) => a == b,
        _ => false,
    };

    // Worker-count determinism: a serve pool must reproduce the
    // synchronous score sum exactly (order-independent commutative sum).
    let sync_sum: u64 = stream
        .iter()
        .map(|r| server.score(r).expect("clean read").probability.to_bits() as u64)
        .fold(0u64, |acc, b| acc.wrapping_add(b));
    let pool_sum = Arc::new(AtomicU64::new(0));
    let p2 = Arc::clone(&pool_sum);
    let pool = server.serve_pool(
        pool_workers,
        move |resp| {
            p2.fetch_add(resp.probability.to_bits() as u64, Ordering::Relaxed);
        },
        move |err| panic!("unexpected pool error: {err}"),
    );
    for req in stream {
        pool.send(req.clone()).expect("pool accepts while running");
    }
    pool.shutdown();
    let pool_matches_sync = pool_sum.load(Ordering::Relaxed) == sync_sum;

    let stats = table.write_stats();
    counters.write_retried = server.resilience().write_retried;
    counters.wal_append_failures = stats.wal_append_failures;
    counters.wal_sync_failures = stats.wal_sync_failures;
    counters.power_loss_recoveries = stats.power_loss_recoveries;
    counters.orphans_cleaned = stats.orphans_cleaned;

    std::fs::remove_dir_all(&dir).ok();
    LevelRun {
        counters,
        gates: Gates {
            content_equal,
            no_conflicting_duplicates,
            scores_match_reference: scores_match,
            recovery_preserves_scores: recovery_preserves,
            pool_matches_sync,
            no_exhausted_ingests: counters.exhausted == 0,
        },
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n_batches, pool_workers) = if quick { (42u64, 2) } else { (126u64, 3) };

    eprintln!(
        "crash replay ({} mode): training the quick pipeline",
        if quick { "quick" } else { "full" }
    );
    let world = World::generate(WorldConfig::tiny(4242));
    let start = world.config().feature_start_day;
    let slice = DatasetSlice {
        index: 0,
        graph_days: 0..start,
        train_days: start..world.config().n_days - 1,
        test_day: world.config().n_days - 1,
    };
    let artifacts = OfflinePipeline::new(PipelineConfig::quick())
        .run(&world, &slice)
        .expect("quick offline pipeline");
    let model = artifacts.model_file;
    let embedding_dim = (model.n_features - titant_datagen::N_BASIC_FEATURES) / 2;
    // The offline upload becomes the seed content of every level's table.
    let seed_cells = artifacts.feature_table.export_cells();
    assert!(!seed_cells.is_empty(), "the upload must carry cells");

    let stream = requests(&world, &slice, 200);
    let mut users: Vec<u64> = stream.iter().map(|r| r.transferor).collect();
    users.sort_unstable();
    users.dedup();
    users.truncate(64);

    let mut level_reports = Vec::new();
    let mut pass = true;
    for level in levels() {
        let a = run_level(
            &level,
            "a",
            &seed_cells,
            &users,
            &stream,
            &model,
            embedding_dim,
            n_batches,
            pool_workers,
        );
        // A second run in a fresh directory must reproduce every counter.
        let b = run_level(
            &level,
            "b",
            &seed_cells,
            &users,
            &stream,
            &model,
            embedding_dim,
            n_batches,
            pool_workers,
        );
        let reproducible = a.counters == b.counters;
        if !reproducible {
            eprintln!(
                "  {}: counter drift across re-runs:\n    {:?}\n    {:?}",
                level.name, a.counters, b.counters
            );
        }
        // The baseline runs hook-free: every write-fault counter must be
        // zero or the machinery is not default-off.
        let fault_counters_zero = (!level.hook).then_some(
            a.counters.write_retried == 0
                && a.counters.wal_append_failures == 0
                && a.counters.wal_sync_failures == 0
                && a.counters.power_loss_recoveries == 0
                && a.counters.exhausted == 0,
        );
        let ok = a.gates.pass() && reproducible && fault_counters_zero.unwrap_or(true);
        pass &= ok;
        eprintln!(
            "  {:<9} batches={} acked={} retried={} appendFail={} syncFail={} powerLoss={} recoveries={} splits={} | content={} dup0={} scores={} recov={} pool={} repro={}",
            level.name,
            a.counters.batches,
            a.counters.acked,
            a.counters.write_retried,
            a.counters.wal_append_failures,
            a.counters.wal_sync_failures,
            a.counters.power_loss_recoveries,
            a.counters.recoveries,
            a.counters.region_splits,
            a.gates.content_equal,
            a.gates.no_conflicting_duplicates,
            a.gates.scores_match_reference,
            a.gates.recovery_preserves_scores,
            a.gates.pool_matches_sync,
            reproducible,
        );
        level_reports.push(LevelReport {
            level: level.name.into(),
            seed: level.seed,
            append_rate: level.append_rate,
            sync_rate: level.sync_rate,
            latency_rate: level.latency_rate,
            power_loss_rate: level.power_loss_rate,
            hook_installed: level.hook,
            n_batches: n_batches as usize,
            counters: a.counters,
            gates: a.gates,
            reproducible,
            fault_counters_zero,
        });
    }

    // The faulted levels must actually exercise the machinery, or the
    // gates above are vacuous.
    let faulted: u64 = level_reports
        .iter()
        .filter(|l| l.hook_installed)
        .map(|l| l.counters.wal_append_failures + l.counters.wal_sync_failures)
        .sum();
    if faulted == 0 {
        eprintln!("FAIL: the fault plans never injected a write fault (vacuous gate)");
        pass = false;
    }
    let blackouts: u64 = level_reports
        .iter()
        .map(|l| l.counters.power_loss_recoveries)
        .sum();
    if blackouts == 0 {
        eprintln!("FAIL: the blackout level never lost power (vacuous gate)");
        pass = false;
    }

    let report = Report {
        bench: "crash_replay".into(),
        mode: if quick { "quick" } else { "full" }.into(),
        levels: level_reports,
        pass,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write("BENCH_crash.json", &json).expect("write BENCH_crash.json");
    eprintln!("results written to BENCH_crash.json");
    harness::save_results("crash_replay.json", &json);

    if !pass {
        eprintln!("FAIL: crash gate violated (see BENCH_crash.json)");
        std::process::exit(1);
    }
}
