//! **Ingest throughput** — the batched write path, gated on *counted
//! work*, not wall clock.
//!
//! Writes a paper-scale full-row feature workload (a ~60-cell row per
//! user: 26 payer + 26 receiver + 8 embedding qualifiers) into a WAL-backed
//! table through `FeatureCodec::encode_user` + `RegionedTable::put_rows`.
//! On a one-core container wall-clock speedups cannot manifest, so the gate
//! asserts exact counts from the store's `WriteStatsSnapshot`: one lock
//! acquisition and one WAL frame per row, and every cell logged once. The
//! upload flushes mid-stream so more than `max_runs` runs pile up; the
//! ticks after it must drain that backlog and settle, leaving every scan
//! unchanged. A second sweep measures WAL group commit: under
//! `SyncPolicy::GroupCommit` the same row stream must reach durability with
//! a fraction of the fsyncs that `SyncPolicy::Always` issues, with the
//! amortized wait charged in simulated time.

use crate::gate::{Checks, Outcome, Serving, VERSION};
use serde::Serialize;
use std::path::Path;
use std::time::Instant;
use titant_alihbase::{RegionedTable, RowKey, StoreConfig, SyncPolicy};

const USERS: usize = 1_536;
/// Rows between mid-upload flushes: eight runs in all.
const FLUSH_EVERY: u64 = USERS as u64 / 8;
/// Ticks the backlog gets to settle; one merge per store per tick.
const MAX_DRAIN_TICKS: usize = 16;
const GROUP_COMMIT_USERS: u64 = 512;

/// A WAL-backed single-region table in its own scratch directory.
fn build_table(dir: &Path, sync: SyncPolicy) -> RegionedTable {
    let _ = std::fs::remove_dir_all(dir);
    RegionedTable::single(StoreConfig {
        dir: Some(dir.to_path_buf()),
        sync,
        ..Default::default()
    })
    .expect("dir-backed table")
}

#[derive(Serialize)]
struct UploadReport {
    lock_acquisitions: u64,
    locks_per_row: f64,
    wal_frames: u64,
    frames_per_row: f64,
    wal_records: u64,
    wal_bytes: u64,
    bytes_per_row: f64,
    wall_ms: f64,
}

#[derive(Serialize)]
struct GroupCommitReport {
    policy: String,
    wal_frames: u64,
    wal_syncs: u64,
    simulated_wait_micros: u64,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    users: usize,
    cells_per_row: usize,
    batched: UploadReport,
    scheduled_compactions_drained: u64,
    group_commit: Vec<GroupCommitReport>,
    sync_reduction: f64,
    pass: bool,
}

pub fn run() -> Outcome {
    // No model: this gate never scores.
    let fx = Serving::new(26, 26, 0, 8, 0, 0);
    let c = fx.layout.codec();
    let cells_per_row = c.payer_width + c.receiver_width + c.embedding_dim;
    eprintln!("ingest throughput: {USERS} users × {cells_per_row} cells/row");
    let scratch = std::env::temp_dir().join(format!("titant-ingest-bench-{}", std::process::id()));
    let row = |user: u64| c.encode_user(user, &fx.features_of(user), VERSION);
    let mut checks = Checks::default();

    // ---- one put_rows (one lock, one WAL frame) per row ----
    let table = build_table(&scratch.join("batched"), SyncPolicy::default());
    let start = Instant::now();
    for user in 0..USERS as u64 {
        table.put_rows(row(user)).expect("put_rows");
        // Eight runs against the default `max_runs` of six: a backlog only
        // the ticks below may drain.
        if user % FLUSH_EVERY == FLUSH_EVERY - 1 {
            table.flush().expect("flush");
        }
    }
    table.flush().expect("flush");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let s = table.write_stats();
    let per_row = |n: u64| n as f64 / USERS as f64;
    let batched = UploadReport {
        lock_acquisitions: s.lock_acquisitions,
        locks_per_row: per_row(s.lock_acquisitions),
        wal_frames: s.wal_frames,
        frames_per_row: per_row(s.wal_frames),
        wal_records: s.wal_records,
        wal_bytes: s.wal_bytes,
        bytes_per_row: per_row(s.wal_bytes),
        wall_ms,
    };
    eprintln!(
        "  {} locks, {} WAL frames, {} records, {} bytes",
        s.lock_acquisitions, s.wal_frames, s.wal_records, s.wal_bytes
    );
    // Gate (a): exact counted work — one lock and one frame per row, every
    // cell logged once.
    checks.check(
        "one lock acquisition per row",
        s.lock_acquisitions == USERS as u64,
    );
    checks.check("one WAL frame per row", s.wal_frames == USERS as u64);
    checks.check(
        "one WAL record per cell",
        s.wal_records == (USERS * cells_per_row) as u64,
    );

    // Gate (b): the scheduled-compaction backlog converges off the
    // writer's path, within a bounded number of ticks, invisibly to reads.
    let span = (RowKey::from_str(""), RowKey::from_str("\u{10FFFF}"));
    let before = table.scan_rows(&span.0, &span.1);
    let mut drained = 0u64;
    let mut settled = false;
    for _ in 0..MAX_DRAIN_TICKS {
        let compactions = table.tick().expect("tick").compactions;
        if compactions == 0 {
            settled = true;
            break;
        }
        drained += compactions;
    }
    eprintln!("  drained {drained} scheduled compactions (settled: {settled})");
    checks.check("at least one scheduled compaction drained", drained >= 1);
    checks.check("the drain ended on a tick with no compaction", settled);
    checks.check(
        "scan_rows unchanged by the drain",
        table.scan_rows(&span.0, &span.1) == before,
    );

    // ---- WAL group commit: same stream, counted fsyncs ----
    let mut group_commit = Vec::new();
    let policies = [
        ("always", SyncPolicy::Always),
        (
            "group-commit(8, 800us)",
            SyncPolicy::GroupCommit {
                max_batch: 8,
                max_wait: std::time::Duration::from_micros(800),
            },
        ),
    ];
    for (name, sync) in policies {
        let table = build_table(&scratch.join(format!("gc-{}", group_commit.len())), sync);
        for user in 0..GROUP_COMMIT_USERS {
            table.put_rows(row(user)).expect("put_rows");
        }
        // Close any open group window the way the online path does: the
        // deterministic tick, not a wall-clock timer.
        table.tick().expect("tick");
        let s = table.write_stats();
        eprintln!(
            "  sync={name}: frames={} syncs={} simulated_wait={}us",
            s.wal_frames, s.wal_syncs, s.wal_simulated_wait_micros
        );
        group_commit.push(GroupCommitReport {
            policy: name.into(),
            wal_frames: s.wal_frames,
            wal_syncs: s.wal_syncs,
            simulated_wait_micros: s.wal_simulated_wait_micros,
        });
    }
    // Gate (c): group commit coalesces durability barriers ~max_batch-fold.
    let sync_reduction = group_commit[0].wal_syncs as f64 / group_commit[1].wal_syncs.max(1) as f64;
    eprintln!("  group commit: {sync_reduction:.1}× fewer fsyncs (floor 4×)");
    checks.check(
        &format!("group commit reduced fsyncs only {sync_reduction:.2}×"),
        sync_reduction >= 4.0,
    );
    let _ = std::fs::remove_dir_all(&scratch);

    Outcome::new(
        checks.pass(),
        &Report {
            bench: "ingest".into(),
            users: USERS,
            cells_per_row,
            batched,
            scheduled_compactions_drained: drained,
            group_commit,
            sync_reduction,
            pass: checks.pass(),
        },
    )
}
