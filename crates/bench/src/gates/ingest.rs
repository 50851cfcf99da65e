//! **Ingest throughput** — the batched write path against the per-cell
//! baseline, gated on *counted work*, not wall clock.
//!
//! Writes the same full-row feature workload (a paper-scale ~60-cell row
//! per user: 26 payer + 26 receiver + 8 embedding qualifiers) into two
//! WAL-backed tables:
//!
//! * **per-cell** — the pre-batching baseline: one `put` (one region lock,
//!   one WAL frame) per qualifier, still reachable by encoding a row and
//!   putting each cell;
//! * **batched** — `FeatureCodec::encode_user` + `RegionedTable::put_rows`:
//!   one lock acquisition and one multi-record WAL frame per row.
//!
//! On a one-core container wall-clock speedups cannot manifest, so the
//! gate asserts on the physical-work counters the store keeps
//! (`WriteStatsSnapshot`): the batched path must do **≥10× fewer lock
//! acquisitions** and **≥10× fewer WAL frames** per row, write fewer WAL
//! bytes per row, and leave byte-identical table contents. A second sweep
//! measures WAL group commit: under `SyncPolicy::GroupCommit` the same row
//! stream must reach durability with a fraction of the fsyncs that
//! `SyncPolicy::Always` issues, with the amortized wait charged in
//! simulated time.

use crate::gate::{Checks, Outcome, Serving, VERSION};
use serde::Serialize;
use std::path::Path;
use std::time::Instant;
use titant_alihbase::{RegionedTable, RowKey, StoreConfig, SyncPolicy};

const USERS: usize = 1_536;
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
struct ModeReport {
    mode: String,
    users: usize,
    lock_acquisitions: u64,
    locks_per_row: f64,
    wal_frames: u64,
    frames_per_row: f64,
    wal_records: u64,
    wal_bytes: u64,
    bytes_per_row: f64,
    wall_ms: f64,
}

fn mode_report(mode: &str, table: &RegionedTable, wall_ms: f64) -> ModeReport {
    let s = table.write_stats();
    ModeReport {
        mode: mode.into(),
        users: USERS,
        lock_acquisitions: s.lock_acquisitions,
        locks_per_row: s.lock_acquisitions as f64 / USERS as f64,
        wal_frames: s.wal_frames,
        frames_per_row: s.wal_frames as f64 / USERS as f64,
        wal_records: s.wal_records,
        wal_bytes: s.wal_bytes,
        bytes_per_row: s.wal_bytes as f64 / USERS as f64,
        wall_ms,
    }
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
    per_cell: ModeReport,
    batched: ModeReport,
    lock_reduction: f64,
    frame_reduction: f64,
    byte_reduction: f64,
    contents_identical: bool,
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

    // ---- per-cell baseline: one put (lock + WAL frame) per qualifier ----
    let per_cell_table = build_table(&scratch.join("per-cell"), SyncPolicy::default());
    let start = Instant::now();
    for user in 0..USERS as u64 {
        for (key, version, value) in row(user) {
            let value = value.expect("full rows carry no tombstones");
            per_cell_table.put(key, version, value).expect("put");
        }
    }
    per_cell_table.flush().expect("flush");
    let per_cell = mode_report(
        "per-cell",
        &per_cell_table,
        start.elapsed().as_secs_f64() * 1e3,
    );

    // ---- batched: one put_rows (one lock, one WAL frame) per row ----
    let batched_table = build_table(&scratch.join("batched"), SyncPolicy::default());
    let start = Instant::now();
    for user in 0..USERS as u64 {
        batched_table.put_rows(row(user)).expect("put_rows");
    }
    batched_table.flush().expect("flush");
    let batched = mode_report(
        "batched",
        &batched_table,
        start.elapsed().as_secs_f64() * 1e3,
    );

    // Same logical writes on both sides, or the comparison is meaningless.
    assert_eq!(per_cell.wal_records, batched.wal_records);

    // Gate (a): ≥10× fewer lock acquisitions AND WAL frames per row, and
    // strictly fewer WAL bytes (59 frame headers amortized into one).
    let lock_reduction = per_cell.lock_acquisitions as f64 / batched.lock_acquisitions as f64;
    let frame_reduction = per_cell.wal_frames as f64 / batched.wal_frames as f64;
    let byte_reduction = per_cell.wal_bytes as f64 / batched.wal_bytes as f64;
    for (name, reduction, floor) in [
        ("lock acquisitions", lock_reduction, 10.0),
        ("WAL frames", frame_reduction, 10.0),
        ("WAL bytes", byte_reduction, 1.0),
    ] {
        eprintln!("  {name}: {reduction:.1}× fewer (floor {floor}×)");
        checks.check(
            &format!("batched path reduced {name} only {reduction:.2}×"),
            reduction >= floor,
        );
    }

    // Gate (b): batching is invisible to readers — byte-identical contents.
    let span = (RowKey::from_str(""), RowKey::from_str("\u{10FFFF}"));
    let contents_identical = checks.check(
        "batched table contents equal the per-cell baseline",
        per_cell_table.scan_rows(&span.0, &span.1) == batched_table.scan_rows(&span.0, &span.1),
    );

    // Drain the batched table's scheduled-compaction backlog: the default
    // mode defers `max_runs` pressure to explicit ticks, so the gate also
    // proves the backlog converges off the writer's path.
    let mut drained = 0u64;
    loop {
        let report = batched_table.tick().expect("tick");
        if report.compactions == 0 {
            break;
        }
        drained += report.compactions;
    }

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
            per_cell,
            batched,
            lock_reduction,
            frame_reduction,
            byte_reduction,
            contents_identical,
            scheduled_compactions_drained: drained,
            group_commit,
            sync_reduction,
            pass: checks.pass(),
        },
    )
}
