//! Property test: distributed SQL execution is **byte-identical** to the
//! single-process reference engine.
//!
//! Random tables (with NULLs, duplicate sort keys, and adversarial float
//! sums) and a query panel covering every engine shape — grouped
//! multi-aggregates, global aggregates, WHERE, ORDER BY/LIMIT top-K, and
//! the partitioned hash JOIN — run through `Session::sql_distributed` for
//! every combination of segment count (1/2/4/8) and executor pool size
//! (1/4), and the result's [`Table::canonical_bytes`] must equal the
//! single-process [`Session::sql`] reference exactly. Floats compare by
//! IEEE bit pattern, so "byte-identical" means bit-identical.
//!
//! Deterministic edge cases follow the property: empty tables, empty
//! groups, AVG over zero rows, NULL join keys, LIMIT 0 / oversized LIMIT,
//! more segments than rows, tie stability, and exact float summation.

use proptest::prelude::*;
use titant_maxcompute::{Account, ColumnType, MaxCompute, Schema, Table, Value};

/// Query panel: every shape the engine plans. `tx(user, day, amount)`
/// joins `labels(user, band)`.
const QUERIES: &[&str] = &[
    // Grouped multi-aggregate: every decomposable state at once.
    "SELECT user, COUNT(*), COUNT(amount), SUM(amount), AVG(amount), MIN(amount), MAX(day) \
     FROM tx GROUP BY user",
    // Global aggregates (one neutral group even over an empty scan).
    "SELECT COUNT(*), SUM(amount), AVG(amount), MIN(day), MAX(amount) FROM tx",
    // Empty-group stress: the filter may reject every row.
    "SELECT COUNT(*), AVG(amount) FROM tx WHERE amount > 1000000.0",
    // Bounded top-K with duplicate sort keys (tie-break = input order).
    "SELECT user, day, amount FROM tx WHERE day >= 1 ORDER BY amount DESC LIMIT 7",
    // ORDER BY ascending, LIMIT far above the row count.
    "SELECT user, amount FROM tx ORDER BY user LIMIT 1000",
    // Projection with LIMIT 0.
    "SELECT user FROM tx LIMIT 0",
    // Plain filtered projection, no ORDER BY (input row order).
    "SELECT day, amount FROM tx WHERE user IS NOT NULL AND day < 4",
    // Grouped aggregate ordered by an aggregate output column.
    "SELECT user, COUNT(*) FROM tx GROUP BY user ORDER BY count DESC LIMIT 3",
    // Partitioned hash JOIN + grouped aggregation.
    "SELECT band, COUNT(*), SUM(amount) FROM tx JOIN labels ON tx.user = labels.user \
     GROUP BY band",
    // JOIN + top-K merge.
    "SELECT user, band, amount FROM tx JOIN labels ON tx.user = labels.user \
     ORDER BY amount DESC LIMIT 5",
];

fn cluster(slots: usize) -> MaxCompute {
    let mc = MaxCompute::new(slots);
    mc.create_account(&Account::new("prop", "test"));
    mc
}

fn tx_schema() -> Schema {
    Schema::new(vec![
        ("user", ColumnType::Int),
        ("day", ColumnType::Int),
        ("amount", ColumnType::Float),
    ])
}

fn labels_schema() -> Schema {
    Schema::new(vec![("user", ColumnType::Int), ("band", ColumnType::Text)])
}

/// Decode raw sampled tuples into the `tx` table. Selector bands inject
/// NULL users (grouping keys) and NULL amounts (aggregate inputs); the
/// coarse amount grid guarantees duplicate sort keys for tie-break stress.
fn build_tx(raw: &[(u8, i64, i64, u64)]) -> Table {
    let mut t = Table::new(tx_schema());
    for &(sel, user, day, amt) in raw {
        let user = if sel % 11 == 0 {
            Value::Null
        } else {
            Value::Int(user)
        };
        let amount = if sel % 7 == 0 {
            Value::Null
        } else {
            Value::Float(amt as f64 / 8.0)
        };
        t.push_row(vec![user, Value::Int(day), amount]);
    }
    t
}

/// Decode raw sampled tuples into the `labels` join table; NULL keys and
/// duplicate users (one-to-many joins) both occur.
fn build_labels(raw: &[(u8, i64, u8)]) -> Table {
    let mut t = Table::new(labels_schema());
    for &(sel, user, band) in raw {
        let user = if sel % 9 == 0 {
            Value::Null
        } else {
            Value::Int(user)
        };
        t.push_row(vec![user, Value::Text(format!("b{}", band % 3))]);
    }
    t
}

/// Assert every (segments × executors) combination reproduces the
/// single-process reference bit-for-bit.
fn assert_distributed_matches(
    tx: Table,
    labels: Table,
    queries: &[&str],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let clusters = [cluster(1), cluster(4)];
    for mc in &clusters {
        let session = mc.login("prop", "test").unwrap();
        session.create_table("tx", tx.clone());
        session.create_table("labels", labels.clone());
    }
    for query in queries {
        let reference = clusters[0]
            .login("prop", "test")
            .unwrap()
            .sql(query)
            .unwrap_or_else(|e| panic!("reference failed for {query}: {e}"))
            .canonical_bytes();
        for mc in &clusters {
            let session = mc.login("prop", "test").unwrap();
            for segments in [1usize, 2, 4, 8] {
                let (out, report) = session
                    .sql_distributed(query, segments)
                    .unwrap_or_else(|e| panic!("distributed failed for {query}: {e}"));
                prop_assert!(
                    out.canonical_bytes() == reference,
                    "query `{}` diverged at segments={}",
                    query,
                    segments
                );
                prop_assert_eq!(report.segments, segments);
                // Small tables may yield fewer non-empty ranges than
                // requested; every submitted subtask's partial is merged.
                prop_assert_eq!(report.partials_merged, report.subtasks);
            }
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn distributed_queries_are_byte_identical_to_single_process(
        tx_raw in prop::collection::vec((0u8..=255, 0i64..10, 0i64..6, 0u64..48), 0..60),
        labels_raw in prop::collection::vec((0u8..=255, 0i64..10, 0u8..=255), 0..20),
    ) {
        assert_distributed_matches(build_tx(&tx_raw), build_labels(&labels_raw), QUERIES)?;
    }
}

// ------------------------------------------------- deterministic edge cases

#[test]
fn empty_table_yields_the_neutral_aggregate_row_for_any_segments() {
    let mc = cluster(2);
    let session = mc.login("prop", "test").unwrap();
    session.create_table("tx", Table::new(tx_schema()));
    let reference = session
        .sql("SELECT COUNT(*), SUM(amount), AVG(amount), MIN(day) FROM tx")
        .unwrap();
    assert_eq!(reference.n_rows(), 1);
    assert_eq!(reference.cell(0, 0), &Value::Int(0));
    assert_eq!(reference.cell(0, 1), &Value::Float(0.0));
    assert_eq!(
        reference.cell(0, 2),
        &Value::Null,
        "AVG of zero rows is NULL"
    );
    assert_eq!(reference.cell(0, 3), &Value::Null);
    for segments in [1, 2, 8] {
        let (out, _) = session
            .sql_distributed(
                "SELECT COUNT(*), SUM(amount), AVG(amount), MIN(day) FROM tx",
                segments,
            )
            .unwrap();
        assert_eq!(out.canonical_bytes(), reference.canonical_bytes());
    }
}

#[test]
fn more_segments_than_rows_is_byte_identical() {
    let mc = cluster(2);
    let session = mc.login("prop", "test").unwrap();
    let mut t = Table::new(tx_schema());
    t.push_row(vec![Value::Int(1), Value::Int(0), Value::Float(2.5)]);
    t.push_row(vec![Value::Int(2), Value::Int(1), Value::Float(1.5)]);
    session.create_table("tx", t);
    let query = "SELECT user, SUM(amount) FROM tx GROUP BY user";
    let reference = session.sql(query).unwrap().canonical_bytes();
    for segments in [3, 8, 100] {
        let (out, report) = session.sql_distributed(query, segments).unwrap();
        assert_eq!(out.canonical_bytes(), reference);
        assert_eq!(report.rows_scanned, 2, "scan work must be conserved");
    }
}

/// AVG over a group whose every input is NULL must be NULL, not a 0/0
/// artifact — and identically so across segment counts.
#[test]
fn avg_over_all_null_group_is_null() {
    let mc = cluster(2);
    let session = mc.login("prop", "test").unwrap();
    let mut t = Table::new(tx_schema());
    t.push_row(vec![Value::Int(1), Value::Int(0), Value::Null]);
    t.push_row(vec![Value::Int(1), Value::Int(1), Value::Null]);
    t.push_row(vec![Value::Int(2), Value::Int(0), Value::Float(4.0)]);
    session.create_table("tx", t);
    let query = "SELECT user, AVG(amount), COUNT(amount) FROM tx GROUP BY user";
    let reference = session.sql(query).unwrap();
    assert_eq!(reference.cell(0, 1), &Value::Null);
    assert_eq!(reference.cell(0, 2), &Value::Int(0));
    assert_eq!(reference.cell(1, 1), &Value::Float(4.0));
    for segments in [1, 2, 3] {
        let (out, _) = session.sql_distributed(query, segments).unwrap();
        assert_eq!(out.canonical_bytes(), reference.canonical_bytes());
    }
}

/// Rows whose join key is NULL never match (inner-join semantics), and the
/// distributed report counts exactly how many were dropped.
#[test]
fn join_null_keys_dropped_identically_across_segments() {
    let mc = cluster(2);
    let session = mc.login("prop", "test").unwrap();
    let mut tx = Table::new(tx_schema());
    tx.push_row(vec![Value::Int(1), Value::Int(0), Value::Float(1.0)]);
    tx.push_row(vec![Value::Null, Value::Int(0), Value::Float(2.0)]);
    tx.push_row(vec![Value::Int(2), Value::Int(1), Value::Float(3.0)]);
    let mut labels = Table::new(labels_schema());
    labels.push_row(vec![Value::Int(1), Value::Text("hot".into())]);
    labels.push_row(vec![Value::Null, Value::Text("ghost".into())]);
    labels.push_row(vec![Value::Int(2), Value::Text("cold".into())]);
    session.create_table("tx", tx);
    session.create_table("labels", labels);
    let query = "SELECT user, band FROM tx JOIN labels ON tx.user = labels.user";
    let reference = session.sql(query).unwrap();
    assert_eq!(reference.n_rows(), 2, "NULL keys must not match");
    for segments in [1, 2, 4] {
        let (out, report) = session.sql_distributed(query, segments).unwrap();
        assert_eq!(out.canonical_bytes(), reference.canonical_bytes());
        let join = report.join.expect("join stage must report");
        assert_eq!(join.null_keys_dropped, 2);
        assert_eq!(join.output_rows, 2);
    }
}

/// Equal ORDER BY keys keep input row order — the documented tie-break —
/// regardless of how the scan was segmented.
#[test]
fn top_k_tie_break_is_stable_across_segments() {
    let mc = cluster(2);
    let session = mc.login("prop", "test").unwrap();
    let mut t = Table::new(tx_schema());
    for i in 0..20i64 {
        // Every amount identical: output order must be exactly input order.
        t.push_row(vec![Value::Int(i), Value::Int(i % 3), Value::Float(1.0)]);
    }
    session.create_table("tx", t);
    let query = "SELECT user, amount FROM tx ORDER BY amount DESC LIMIT 6";
    for segments in [1, 2, 4, 8] {
        let (out, _) = session.sql_distributed(query, segments).unwrap();
        let users: Vec<i64> = (0..out.n_rows())
            .map(|r| out.cell(r, 0).as_i64().unwrap())
            .collect();
        assert_eq!(users, vec![0, 1, 2, 3, 4, 5], "segments={segments}");
    }
}

/// Catastrophic-cancellation sums: plain f64 accumulation gives different
/// answers for different segmentations; the engine's exact accumulator
/// must give the correctly rounded sum for every one.
#[test]
fn float_sums_are_exact_for_every_segmentation() {
    let mc = cluster(2);
    let session = mc.login("prop", "test").unwrap();
    let mut t = Table::new(tx_schema());
    for (i, amt) in [1e16, 1.0, -1e16, 1e-3, 1e16, -1e16].iter().enumerate() {
        t.push_row(vec![
            Value::Int(0),
            Value::Int(i as i64),
            Value::Float(*amt),
        ]);
    }
    session.create_table("tx", t);
    let query = "SELECT SUM(amount) FROM tx";
    for segments in [1, 2, 3, 6] {
        let (out, _) = session.sql_distributed(query, segments).unwrap();
        assert_eq!(
            out.cell(0, 0),
            &Value::Float(1.001),
            "segments={segments}: exact sum of the series is 1.001"
        );
    }
}

/// LIMIT 0 and oversized LIMITs are both honoured distributively.
#[test]
fn limit_zero_and_oversized_limit_match_reference() {
    let mc = cluster(2);
    let session = mc.login("prop", "test").unwrap();
    let mut t = Table::new(tx_schema());
    for i in 0..10i64 {
        t.push_row(vec![Value::Int(i), Value::Int(i), Value::Float(i as f64)]);
    }
    session.create_table("tx", t);
    for query in [
        "SELECT user FROM tx LIMIT 0",
        "SELECT user, amount FROM tx ORDER BY amount DESC LIMIT 99",
    ] {
        let reference = session.sql(query).unwrap();
        for segments in [1, 3, 8] {
            let (out, _) = session.sql_distributed(query, segments).unwrap();
            assert_eq!(out.canonical_bytes(), reference.canonical_bytes());
        }
    }
}
