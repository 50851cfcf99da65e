//! Property test: online region splits and merges are invisible to
//! readers.
//!
//! Two tables receive the exact same random workload of puts, deletes,
//! flushes and ticks:
//!
//! * `dynamic` — aggressive [`SplitConfig`] thresholds, so ticks keep
//!   splitting hot regions at their median resident row and merging cold
//!   split-born siblings back, with scheduled compaction churning inside
//!   every store at the same time;
//! * `reference` — a never-split single region, the ground truth for what
//!   every read should see.
//!
//! The contract: whatever layout history the pressure windows produce,
//! `get_row` must match the reference **at every `as_of` cut** (a child
//! store opens around the keep-all merge of its parent's memtable and
//! runs, which carries all versions and tombstones) and full scans must be
//! byte-identical. Each cell's versions are monotone, as in production
//! where they are upload date-times; a rewrite puts a new value at a cell's
//! last version, whose newest copy must win before and after a migration.

use bytes::Bytes;
use proptest::prelude::*;
use std::collections::HashMap;
use titant_alihbase::{CellKey, RegionedTable, RowKey, SplitConfig, StoreConfig, Version};

#[derive(Debug, Clone)]
enum Op {
    Put {
        user: u64,
        qual: u8,
    },
    /// A new value at the cell's last written version (the current one for
    /// a cell never written).
    Rewrite {
        user: u64,
        qual: u8,
    },
    Delete {
        user: u64,
        qual: u8,
    },
    Flush,
    Tick,
}

/// Decode a raw sampled tuple into an operation (the vendored proptest has
/// no weighted-union strategy, so the weighting lives in selector bands).
/// Ticks are sampled more often than in the compaction test: each one is a
/// potential split or merge, and the layout should churn.
fn decode(raw: &(u8, u64, u8)) -> Op {
    let (selector, user, qual) = *raw;
    match selector % 10 {
        0..=3 => Op::Put { user, qual },
        4 => Op::Rewrite { user, qual },
        5 | 6 => Op::Delete { user, qual },
        7 => Op::Flush,
        _ => Op::Tick,
    }
}

fn cell_key(user: u64, qual: u8) -> CellKey {
    CellKey::new(RowKey::from_user(user), "basic", &format!("q{qual}"))
}

/// One cell (a value, or a tombstone for `None`) as a one-cell batch.
fn put(table: &RegionedTable, key: CellKey, version: Version, value: Option<Bytes>) {
    table.put_rows(vec![(key, version, value)]).unwrap();
}

/// Apply one op at `version` (see [`Versions::of`]).
fn apply(table: &RegionedTable, op: &Op, version: u64) {
    match op {
        Op::Put { user, qual } => put(
            table,
            cell_key(*user, *qual),
            version,
            Some(Bytes::from(format!("v{user}-{qual}-{version}"))),
        ),
        Op::Rewrite { user, qual } => put(
            table,
            cell_key(*user, *qual),
            version,
            Some(Bytes::from(format!("w{user}-{qual}-{version}"))),
        ),
        Op::Delete { user, qual } => put(table, cell_key(*user, *qual), version, None),
        Op::Flush => table.flush().unwrap(),
        Op::Tick => {
            table.tick().unwrap();
        }
    }
}

/// The version clock: puts and deletes advance it, a rewrite reuses its
/// cell's last version.
#[derive(Default)]
struct Versions {
    now: u64,
    last: HashMap<(u64, u8), u64>,
}

impl Versions {
    /// The version `op` writes at.
    fn of(&mut self, op: &Op) -> u64 {
        match *op {
            Op::Put { user, qual } | Op::Delete { user, qual } => {
                self.now += 1;
                self.last.insert((user, qual), self.now);
                self.now
            }
            Op::Rewrite { user, qual } => *self.last.get(&(user, qual)).unwrap_or(&self.now),
            Op::Flush | Op::Tick => self.now,
        }
    }
}

fn dynamic_table() -> RegionedTable {
    RegionedTable::single(StoreConfig {
        max_runs: 2,
        ..Default::default()
    })
    .unwrap()
    .with_rebalancing(SplitConfig {
        // Low enough that a handful of puts between two sampled ticks
        // triggers a split; merge well below it so quiet stretches fold
        // split-born siblings back — both directions get exercised.
        split_threshold: Some(6),
        merge_threshold: 3,
        max_regions: 8,
    })
}

fn reference_table() -> RegionedTable {
    // Default SplitConfig: the layout is frozen as a single region.
    RegionedTable::single(StoreConfig {
        max_runs: 2,
        ..Default::default()
    })
    .unwrap()
}

proptest! {
    #[test]
    fn split_and_merge_reads_match_a_never_split_reference(
        raw_ops in prop::collection::vec((0u8..255, 0u64..24, 0u8..3), 1..150)
    ) {
        let dynamic = dynamic_table();
        let reference = reference_table();
        let mut versions = Versions::default();
        for raw in &raw_ops {
            let op = decode(raw);
            let version = versions.of(&op);
            apply(&dynamic, &op, version);
            apply(&reference, &op, version);
            // The layout may differ after every tick; reads may not. Spot
            // checking one row mid-stream keeps the interleaving honest
            // without quadratic cost.
            if matches!(op, Op::Tick) {
                let row = RowKey::from_user(raw.1);
                prop_assert_eq!(
                    dynamic.get_row(&row, u64::MAX),
                    reference.get_row(&row, u64::MAX)
                );
            }
        }
        let max_version = versions.now;
        // Full scans are byte-identical whatever the final layout is.
        let lo = RowKey::from_str("");
        let hi = RowKey::from_str("v");
        prop_assert_eq!(dynamic.scan_rows(&lo, &hi), reference.scan_rows(&lo, &hi));
        for user in 0..28u64 {
            let row = RowKey::from_user(user);
            for as_of in [1, 3, 5, 7, 20, max_version, u64::MAX] {
                prop_assert_eq!(
                    dynamic.get_row(&row, as_of),
                    reference.get_row(&row, as_of)
                );
            }
        }
        // The reference layout never moved; the dynamic one stayed capped.
        prop_assert_eq!(reference.region_count(), 1);
        prop_assert!(dynamic.region_count() <= 8);
    }
}

/// A fixed workload where the dynamic table provably splits AND merges:
/// pins that the property above is not vacuous (layout churn really
/// happens) while reads stay identical at every checkpoint.
#[test]
fn splits_and_merges_do_happen_and_reads_stay_identical() {
    let dynamic = dynamic_table();
    let reference = reference_table();
    let mut splits = 0u64;
    let mut merges = 0u64;
    let mut version = 0u64;
    let check = |round: u64, version: u64| {
        for user in 0..8u64 {
            let row = RowKey::from_user(user);
            for as_of in [1, version / 2, version, u64::MAX] {
                assert_eq!(
                    dynamic.get_row(&row, as_of),
                    reference.get_row(&row, as_of),
                    "round {round} user {user} as_of {as_of}"
                );
            }
        }
    };
    // Hot phase: every round hammers all eight users, so the hottest
    // region's window stays over the split threshold and the layout keeps
    // fracturing. (The checkpoint reads feed the next window too.)
    for round in 0..4u64 {
        for user in 0..8u64 {
            version += 1;
            for t in [&dynamic, &reference] {
                let value = Bytes::from(format!("r{round}-u{user}"));
                put(t, cell_key(user, 0), version, Some(value));
            }
        }
        if round % 2 == 0 {
            dynamic.flush().unwrap();
            reference.flush().unwrap();
        }
        splits += dynamic.tick().unwrap().region_splits;
        reference.tick().unwrap();
        check(round, version);
    }
    assert!(splits > 0, "the hot phase never split — vacuous property");
    assert!(dynamic.region_count() > 1);
    // Quiet phase: ticks with no traffic in between. The first tick still
    // sees the last checkpoint's read pressure; after that every window is
    // zero and split-born boundaries fold back one merge per tick until the
    // original single region is restored.
    for _ in 0..12 {
        let report = dynamic.tick().unwrap();
        reference.tick().unwrap();
        merges += report.region_merges;
    }
    assert!(
        merges > 0,
        "the quiet phase never merged — vacuous property"
    );
    assert_eq!(
        dynamic.region_count(),
        1,
        "all split-born boundaries fold back once cold"
    );
    check(99, version);
    assert_eq!(reference.region_count(), 1);
}
