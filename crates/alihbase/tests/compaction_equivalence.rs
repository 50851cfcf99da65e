//! Property test: background (size-tiered, tick-driven) compaction is
//! invisible to readers.
//!
//! Two stores receive the exact same random workload of puts, deletes,
//! flushes and ticks:
//!
//! * `scheduled` — `max_runs` pressure is resolved by explicit `tick()`s
//!   doing conservative size-tiered merges;
//! * `reference` — never compacts (`max_runs` effectively infinite), the
//!   ground truth for what every read should see.
//!
//! The contract: `scheduled` must match `reference` **at every `as_of`
//! cut** (conservative merges keep all versions and tombstones). Each
//! cell's versions are monotone, as in production where they are upload
//! date-times; a rewrite puts a new value at a cell's last version, and the
//! merge must keep the newest copy.

mod common;

use bytes::Bytes;
use common::sized_value;
use proptest::prelude::*;
use std::collections::HashMap;
use titant_alihbase::{CellKey, RowKey, Store, StoreConfig, Version};

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
fn decode(raw: &(u8, u64, u8)) -> Op {
    let (selector, user, qual) = *raw;
    match selector % 10 {
        0..=4 => Op::Put { user, qual },
        5 => Op::Rewrite { user, qual },
        6 | 7 => Op::Delete { user, qual },
        8 => Op::Flush,
        _ => Op::Tick,
    }
}

fn cell_key(user: u64, qual: u8) -> CellKey {
    CellKey::new(RowKey::from_user(user), "basic", &format!("q{qual}"))
}

/// One cell (a value, or a tombstone for `None`) as a one-cell batch.
fn put(store: &Store, key: CellKey, version: Version, value: Option<Bytes>) {
    store.put_batch(vec![(key, version, value)]).unwrap();
}

/// Apply one op at `version` (see [`Versions::of`]).
fn apply(store: &Store, op: &Op, version: u64) {
    match op {
        Op::Put { user, qual } => put(
            store,
            cell_key(*user, *qual),
            version,
            Some(sized_value(
                &format!("v{user}-{qual}-{version}"),
                version as usize,
            )),
        ),
        Op::Rewrite { user, qual } => put(
            store,
            cell_key(*user, *qual),
            version,
            Some(Bytes::from(format!("w{user}-{qual}-{version}"))),
        ),
        Op::Delete { user, qual } => put(store, cell_key(*user, *qual), version, None),
        Op::Flush => store.flush().unwrap(),
        Op::Tick => {
            store.tick().unwrap();
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

fn store(max_runs: usize) -> Store {
    Store::open(StoreConfig {
        max_runs,
        ..Default::default()
    })
    .unwrap()
}

proptest! {
    #[test]
    fn scheduled_compaction_reads_match_the_uncompacted_reference(
        raw_ops in prop::collection::vec((0u8..255, 0u64..24, 0u8..3), 1..150)
    ) {
        let scheduled = store(2);
        let reference = store(10_000);
        let mut versions = Versions::default();
        for raw in &raw_ops {
            let op = decode(raw);
            let version = versions.of(&op);
            apply(&scheduled, &op, version);
            apply(&reference, &op, version);
        }
        let max_version = versions.now;
        for user in 0..28u64 {
            let row = RowKey::from_user(user);
            // Conservative tiered merges are invisible at EVERY cut, even
            // with merges still pending mid-backlog.
            for as_of in [1, 3, 5, 7, 20, max_version, u64::MAX] {
                prop_assert_eq!(
                    scheduled.get_row(&row, as_of),
                    reference.get_row(&row, as_of)
                );
            }
        }
        // The reference never compacts; the scheduled store never exceeds
        // what a single pending merge can leave behind only if ticks ran —
        // but it must never have MORE runs than the reference.
        prop_assert!(scheduled.run_count() <= reference.run_count());
    }
}

/// A fixed workload where the tick-driven path provably merges: pins that
/// the equivalence above is not vacuous (scheduled ticks really compact).
#[test]
fn ticks_do_merge_and_reads_stay_identical() {
    let scheduled = store(2);
    let reference = store(10_000);
    for round in 0..6u64 {
        for user in 0..4u64 {
            let version = round * 4 + user + 1;
            for s in [&scheduled, &reference] {
                let value = Bytes::from(format!("r{round}-u{user}"));
                put(s, cell_key(user, 0), version, Some(value));
            }
        }
        scheduled.flush().unwrap();
        reference.flush().unwrap();
    }
    assert_eq!(scheduled.run_count(), 6, "ticks have not run yet");
    let mut compactions = 0u64;
    // Drain the backlog one deterministic merge per tick.
    loop {
        let report = scheduled.tick().unwrap();
        if report.compactions == 0 {
            break;
        }
        compactions += report.compactions;
        // Mid-backlog reads already match the never-compacted reference.
        for user in 0..4u64 {
            let row = RowKey::from_user(user);
            for as_of in [1, 9, 17, u64::MAX] {
                assert_eq!(
                    scheduled.get_row(&row, as_of),
                    reference.get_row(&row, as_of)
                );
            }
        }
    }
    assert!(compactions > 0, "the scheduled path never compacted");
    assert!(scheduled.run_count() <= 2);
    assert_eq!(reference.run_count(), 6);
}
