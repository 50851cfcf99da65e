//! **Distributed SQL offline stage** — coordinator/worker execution vs the
//! single-process reference engine, gated on *counted work* and
//! byte-identity, not wall clock.
//!
//! A deterministic synthetic transaction table (and a `labels` join table)
//! runs a three-query panel — a grouped multi-aggregate, an ORDER BY/LIMIT
//! top-K, and a partitioned hash JOIN feeding a GROUP BY — through
//! `Session::sql_distributed` for every (segments × executors) combination,
//! and checks against the single-process `Session::sql` reference:
//!
//! * **byte-identity** — `Table::canonical_bytes` equal for every
//!   combination (floats compare by IEEE bit pattern);
//! * **scan conservation** — distributed workers examine exactly as many
//!   rows as one full scan (no row read twice, none skipped);
//! * **merge scaling** — the coordinator folds exactly one partial per
//!   submitted subtask;
//! * **bounded top-K** — workers ship ≤ LIMIT·subtasks rows into the final
//!   merge, strictly fewer than the full-sort row count;
//! * **slots released** — every Fuxi slot is free again when a distributed
//!   query returns.
//!
//! Each executor pool's Fuxi slot allocations and waits are snapshotted
//! into the report. Peak and free slots and slot-wait time are left out:
//! they depend on when executor threads take and release their slots.

use crate::gate::{Checks, Outcome, SplitMix64};
use serde::Serialize;
use titant_maxcompute::{Account, ColumnType, MaxCompute, Schema, Table, Value};

const TOP_K: u64 = 100;
const ROWS: usize = 120_000;
const USERS: u64 = 3_000;
const SEGMENT_SWEEP: [usize; 4] = [1, 2, 4, 8];
const EXECUTOR_SWEEP: [usize; 3] = [1, 2, 4];

/// The transaction table: `user` is skewed (hot users exist, like real
/// transfer graphs), `amount` lands on a coarse grid so ORDER BY ties are
/// plentiful, and a sprinkle of NULL amounts exercises aggregate skipping.
fn build_tx() -> Table {
    let mut t = Table::new(Schema::new(vec![
        ("user", ColumnType::Int),
        ("day", ColumnType::Int),
        ("amount", ColumnType::Float),
    ]));
    let mut rng = SplitMix64(0xA11CE5EED);
    for _ in 0..ROWS {
        let r = rng.next_u64();
        // Square the unit sample: low ids are proportionally hotter.
        let u = ((r >> 16) % USERS) as f64 / USERS as f64;
        let user = ((u * u * USERS as f64) as u64).min(USERS - 1) as i64;
        let day = (r % 90) as i64;
        let amount = if r.is_multiple_of(37) {
            Value::Null
        } else {
            Value::Float((rng.next_u64() % 40_000) as f64 / 16.0)
        };
        t.push_row(vec![Value::Int(user), Value::Int(day), amount]);
    }
    t
}

/// One band label per user (the join build side).
fn build_labels() -> Table {
    let mut t = Table::new(Schema::new(vec![
        ("user", ColumnType::Int),
        ("band", ColumnType::Text),
    ]));
    for user in 0..USERS {
        t.push_row(vec![
            Value::Int(user as i64),
            Value::Text(format!("band{}", user % 7)),
        ]);
    }
    t
}

#[derive(Serialize)]
struct RunReport {
    query: String,
    executors: usize,
    segments: usize,
    subtasks: u64,
    rows_scanned: u64,
    partials_merged: u64,
    group_keys_merged: u64,
    rows_materialized: u64,
    join_output_rows: Option<u64>,
    identical: bool,
}

#[derive(Serialize)]
struct PoolReport {
    executors: usize,
    total_slots: usize,
    allocations: u64,
    waits: u64,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    rows: usize,
    users: u64,
    queries: Vec<String>,
    runs: Vec<RunReport>,
    pools: Vec<PoolReport>,
    pass: bool,
}

pub fn run() -> Outcome {
    eprintln!(
        "offline SQL: {ROWS} rows × {USERS} users, segments {SEGMENT_SWEEP:?} × executors {EXECUTOR_SWEEP:?}"
    );

    let queries = vec![
        "SELECT user, COUNT(*), SUM(amount), AVG(amount), MIN(amount), MAX(day) \
         FROM tx GROUP BY user"
            .to_string(),
        format!("SELECT user, day, amount FROM tx ORDER BY amount DESC LIMIT {TOP_K}"),
        "SELECT band, COUNT(*), SUM(amount) FROM tx JOIN labels ON tx.user = labels.user \
         GROUP BY band"
            .to_string(),
    ];

    let tx = build_tx();
    let labels = build_labels();
    let mut checks = Checks::default();
    let mut runs = Vec::new();
    let mut pools = Vec::new();
    let mut references: Vec<Option<Vec<u8>>> = vec![None; queries.len()];

    for executors in EXECUTOR_SWEEP {
        let mc = MaxCompute::new(executors);
        mc.create_account(&Account::new("bench", "offline-sql"));
        let session = mc.login("bench", "offline-sql").unwrap();
        session.create_table("tx", tx.clone());
        session.create_table("labels", labels.clone());

        for (qi, query) in queries.iter().enumerate() {
            // The single-process engine on the FIRST pool is the one
            // reference everything must match, across pools too.
            if references[qi].is_none() {
                references[qi] = Some(session.sql(query).unwrap().canonical_bytes());
            }
            let reference = references[qi].as_ref().unwrap();

            for segments in SEGMENT_SWEEP {
                let (out, r) = session.sql_distributed(query, segments).unwrap();
                let at = format!("query {qi} executors={executors} segments={segments}");
                // A returned query holds no slot: the next one never waits
                // on slots of a finished job.
                let fuxi = mc.fuxi_stats();
                checks.check(
                    &format!(
                        "{at}: {} of {} slots free after the query returned",
                        fuxi.free_slots, fuxi.total_slots
                    ),
                    fuxi.free_slots == fuxi.total_slots,
                );
                let identical = checks.check(
                    &format!("{at}: diverged from the reference"),
                    out.canonical_bytes() == *reference,
                );
                // Scan conservation: the distributed scan examines exactly
                // the reference input — the base table, or the joined one.
                let expected_scan = r.join.map_or(ROWS as u64, |j| j.output_rows);
                checks.check(
                    &format!(
                        "{at}: scanned {} rows, expected {expected_scan}",
                        r.rows_scanned
                    ),
                    r.rows_scanned == expected_scan,
                );
                // Merge scaling: one partial folded per submitted subtask.
                checks.check(
                    &format!(
                        "{at}: merged {} partials for {} subtasks",
                        r.partials_merged, r.subtasks
                    ),
                    r.partials_merged == r.subtasks,
                );
                // Bounded top-K: workers ship ≤ K rows each, and strictly
                // fewer than the full sort would materialize.
                if qi == 1 {
                    let cap = TOP_K * r.subtasks;
                    checks.check(
                        &format!(
                            "{at}: top-K materialized {} rows (cap {cap}, full sort {ROWS})",
                            r.rows_materialized
                        ),
                        r.rows_materialized <= cap && r.rows_materialized < ROWS as u64,
                    );
                }
                runs.push(RunReport {
                    query: query.clone(),
                    executors,
                    segments,
                    subtasks: r.subtasks,
                    rows_scanned: r.rows_scanned,
                    partials_merged: r.partials_merged,
                    group_keys_merged: r.group_keys_merged,
                    rows_materialized: r.rows_materialized,
                    join_output_rows: r.join.map(|j| j.output_rows),
                    identical,
                });
            }
        }
        let fuxi = mc.fuxi_stats();
        eprintln!(
            "  executors={executors}: allocations={} waits={}",
            fuxi.allocations, fuxi.waits
        );
        pools.push(PoolReport {
            executors,
            total_slots: fuxi.total_slots,
            allocations: fuxi.allocations,
            waits: fuxi.waits,
        });
    }

    let ok_runs = runs.iter().filter(|r| r.identical).count();
    eprintln!(
        "  {} / {} runs byte-identical to the single-process reference",
        ok_runs,
        runs.len()
    );

    Outcome::new(
        checks.pass(),
        &Report {
            bench: "offline_sql".into(),
            rows: ROWS,
            users: USERS,
            queries,
            runs,
            pools,
            pass: checks.pass(),
        },
    )
}
