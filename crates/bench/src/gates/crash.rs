//! **Crash replay** — the ingest+score day under escalating seeded
//! write-fault and power-loss plans.
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
//!   reproduce every counter exactly, and a serve pool reproduces the
//!   synchronous score map.
//!
//! The baseline level runs with **no hook installed** and asserts every
//! write-fault counter stays zero: the fault machinery is default-off and
//! invisible to the other gates.

use crate::gate::{
    memory_table, score_map, Checks, Outcome, Pipeline, SplitMix64, FNV_OFFSET, FNV_PRIME,
};
use bytes::Bytes;
use serde::Serialize;
use std::sync::Arc;
use std::time::Duration;
use titant_alihbase::{CellKey, RegionedTable, RowKey, SplitConfig, StoreConfig, SyncPolicy};
use titant_core::prelude::*;
use titant_modelserver::{
    FeatureDelta, FeatureLayout, IngestOptions, ModelServer, ScoreRequest, ServeError,
};

/// Versions above every offline upload's date-time stamp; each ingest
/// batch writes a distinct version so retried rewrites are idempotent.
const VERSION_BASE: u64 = 30_000_000;
const N_BATCHES: u64 = 126;
const POOL_WORKERS: usize = 3;

struct Level {
    name: &'static str,
    seed: u64,
    /// WAL append, fsync and write-latency fault rates (one value each
    /// level), `0.0` with no hook installed at all — the default-off
    /// baseline.
    fault_rate: f64,
    power_loss_rate: f64,
}

const LEVELS: [Level; 3] = [
    Level {
        name: "baseline",
        seed: 0xD00D,
        fault_rate: 0.0,
        power_loss_rate: 0.0,
    },
    Level {
        name: "faults",
        seed: 0xFA17,
        fault_rate: 0.01,
        power_loss_rate: 0.0,
    },
    // The acceptance blackout: injected fsync/append failures plus seeded
    // power-loss points.
    Level {
        name: "blackout",
        seed: 0xB1AC,
        fault_rate: 0.01,
        power_loss_rate: 0.005,
    },
];

impl Level {
    fn hook(&self) -> bool {
        self.fault_rate > 0.0
    }
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
    levels: Vec<LevelReport>,
    pass: bool,
}

/// Deterministic delta coordinates from (seed, batch, slot).
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    SplitMix64(seed ^ a.rotate_left(24) ^ b.rotate_left(48)).next_u64()
}

/// The streaming corrections of batch `b` — 8 users, one payer, one
/// receiver, and one embedding slot each.
fn deltas_for(batch: u64, seed: u64, users: &[u64], lay: &FeatureLayout) -> Vec<FeatureDelta> {
    let slot = |j: u64, width: usize| {
        let draw = mix(seed, batch, j);
        vec![((draw as usize) % width, (draw % 1000) as f32 / 1000.0)]
    };
    (0..8u64)
        .map(|j| FeatureDelta {
            user: users[((batch * 5 + j * 3) as usize) % users.len()],
            payer: slot(j, lay.payer_slots.len()),
            receiver: slot(j + 100, lay.receiver_slots.len()),
            embedding: slot(j + 200, lay.embedding_dim),
            velocity: Vec::new(),
        })
        .collect()
}

/// Score a probe window on both servers; returns (checksum, degraded,
/// matched) where the checksum folds every probability's exact bits. The
/// fold multiplies then adds (FNV-1 order, not [`crate::gate::fnv1a`]);
/// it stays so that `score_checksum` keeps its recorded values.
fn probe(
    server: &ModelServer,
    reference: &ModelServer,
    stream: &[ScoreRequest],
    batch: u64,
) -> (u64, u64, bool) {
    let mut checksum = FNV_OFFSET;
    let mut degraded = 0u64;
    let mut matched = true;
    for j in 0..16u64 {
        let req = &stream[((batch * 13 + j) as usize) % stream.len()];
        let got = server.score(req).expect("clean read path");
        let want = reference.score(req).expect("reference read path");
        matched &= got.probability.to_bits() == want.probability.to_bits()
            && got.degraded == want.degraded;
        checksum = checksum
            .wrapping_mul(FNV_PRIME)
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

fn run_level(
    fx: &Pipeline,
    level: &Level,
    run_tag: &str,
    seed_cells: &Export,
    users: &[u64],
    stream: &[ScoreRequest],
) -> (Counters, Gates) {
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
    let reference = memory_table();
    // Seed both tables with the offline upload before any hook exists.
    table.put_rows(seed_cells.clone()).expect("seed disk table");
    reference
        .put_rows(seed_cells.clone())
        .expect("seed reference");

    if level.hook() {
        table.set_fault_hook(Some(Arc::new(FaultPlan::new(FaultPlanConfig {
            seed: level.seed,
            write_append_error_rate: level.fault_rate,
            write_sync_error_rate: level.fault_rate,
            write_latency_rate: level.fault_rate,
            write_latency: Duration::from_micros(300),
            power_loss_rate: level.power_loss_rate,
            // Read-fault rates stay zero: this gate covers the write path,
            // so scores must stay clean and bit-comparable throughout.
            ..FaultPlanConfig::default()
        }))));
    }

    let server = fx.server(&table, ingest_slo(level.seed));
    let ref_server = fx.server(&reference, SloConfig::default());

    let mut counters = Counters {
        batches: N_BATCHES,
        acked: 0,
        exhausted: 0,
        write_retried: 0,
        wal_append_failures: 0,
        wal_sync_failures: 0,
        power_loss_recoveries: 0,
        orphans_cleaned: 0,
        recoveries: 0,
        region_splits: 0,
        score_checksum: FNV_OFFSET,
        degraded_probes: 0,
    };
    let mut scores_match = true;
    let mut recovery_preserves = true;

    for b in 0..N_BATCHES {
        let deltas = deltas_for(b, level.seed, users, &fx.layout);
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
        if b % 13 == 12 || b + 1 == N_BATCHES {
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
    let content_equal = matches!((&disk_export, &ref_export), (Some(a), Some(b)) if a == b);

    // Worker-count determinism: a serve pool reproduces the synchronous
    // scores request for request.
    let pool_matches_sync =
        score_map(&server, stream, POOL_WORKERS) == score_map(&server, stream, 0);

    let stats = table.write_stats();
    counters.write_retried = server.resilience().write_retried;
    counters.wal_append_failures = stats.wal_append_failures;
    counters.wal_sync_failures = stats.wal_sync_failures;
    counters.power_loss_recoveries = stats.power_loss_recoveries;
    counters.orphans_cleaned = stats.orphans_cleaned;

    std::fs::remove_dir_all(&dir).ok();
    let gates = Gates {
        content_equal,
        no_conflicting_duplicates: disk_export.is_some(),
        scores_match_reference: scores_match,
        recovery_preserves_scores: recovery_preserves,
        pool_matches_sync,
        no_exhausted_ingests: counters.exhausted == 0,
    };
    (counters, gates)
}

pub fn run() -> Outcome {
    eprintln!("crash replay: training the quick pipeline");
    let fx = Pipeline::new(4242, 1);
    // The offline upload becomes the seed content of every level's table.
    let seed_cells = fx.table.export_cells();
    assert!(!seed_cells.is_empty(), "the upload must carry cells");

    let stream = fx.requests(200);
    let mut users: Vec<u64> = stream.iter().map(|r| r.transferor).collect();
    users.sort_unstable();
    users.dedup();
    users.truncate(64);

    let mut checks = Checks::default();
    let mut level_reports = Vec::new();
    for level in &LEVELS {
        let (counters, gates) = run_level(&fx, level, "a", &seed_cells, &users, &stream);
        // A second run in a fresh directory must reproduce every counter.
        let (rerun, _) = run_level(&fx, level, "b", &seed_cells, &users, &stream);
        let reproducible = counters == rerun;
        if !reproducible {
            eprintln!(
                "  {}: counter drift across re-runs:\n    {counters:?}\n    {rerun:?}",
                level.name
            );
        }
        // The baseline runs hook-free: every write-fault counter must be
        // zero or the machinery is not default-off.
        let fault_counters_zero = (!level.hook()).then_some(
            counters.write_retried == 0
                && counters.wal_append_failures == 0
                && counters.wal_sync_failures == 0
                && counters.power_loss_recoveries == 0
                && counters.exhausted == 0,
        );
        checks.check(
            &format!("level {}: gates hold, counters reproduce", level.name),
            gates.pass() && reproducible && fault_counters_zero.unwrap_or(true),
        );
        eprintln!(
            "  {:<9} {counters:?}\n            {gates:?} repro={reproducible}",
            level.name
        );
        level_reports.push(LevelReport {
            level: level.name.into(),
            seed: level.seed,
            append_rate: level.fault_rate,
            sync_rate: level.fault_rate,
            latency_rate: level.fault_rate,
            power_loss_rate: level.power_loss_rate,
            hook_installed: level.hook(),
            n_batches: N_BATCHES as usize,
            counters,
            gates,
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
    checks.check("the fault plans injected a write fault", faulted > 0);
    let blackouts: u64 = level_reports
        .iter()
        .map(|l| l.counters.power_loss_recoveries)
        .sum();
    checks.check("the blackout level lost power", blackouts > 0);

    Outcome::new(
        checks.pass(),
        &Report {
            bench: "crash".into(),
            levels: level_reports,
            pass: checks.pass(),
        },
    )
}
