//! Property test: `Store::get_row`'s merge reads what the algorithm it
//! replaced read.
//!
//! The old read built a `BTreeMap<&CellKey, &Cell>` per request: the
//! memtable's candidate for each key first, then every run newest to
//! oldest, a later source replacing an earlier one only with a strictly
//! higher version. That algorithm lives on here as the oracle, fed from
//! [`Store::export_cells`] — which lists the memtable before the runs and
//! the runs newest first, the same precedence order, and skips no run, so
//! the oracle also stands in for a read without bounds or blooms.
//!
//! Histories mix puts, deletes, same-version overwrites (versions are drawn
//! from a small range, so a `(key, version)` often lands in the memtable
//! and in one or more runs with different values), flushes, scheduled
//! merges (`tick` over a low `max_runs`) and flush-then-merge steps, on
//! rows whose keys are prefixes of one another or differ only by a trailing
//! NUL (`u1` against `u1\0`: equal zero-padded inline buffers that only
//! the key length orders). Blooms run at 2 bits per row so false
//! positives are common.

mod common;

use bytes::Bytes;
use common::sized_value;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;
use titant_alihbase::{CellKey, RowKey, Store, StoreConfig, Version};

const FAMILIES: [&str; 2] = ["basic", "embedding"];

fn row(user: u64) -> RowKey {
    match user {
        // `u1` and `u10` plus a trailing NUL.
        14 => RowKey::from(&b"u1\0"[..]),
        15 => RowKey::from(&b"u10\0"[..]),
        // Unpadded: `u1` is a prefix of `u10`..`u13`.
        _ => RowKey::from(format!("u{user}")),
    }
}

fn cell_key(user: u64, column: u8) -> CellKey {
    let family = FAMILIES[usize::from(column % 2)];
    CellKey::new(row(user), family, &format!("q{}", column / 2))
}

/// One step of a history, decoded from a raw sampled tuple (the vendored
/// proptest has no weighted union; the weighting lives in the bands).
fn apply(store: &Store, step: usize, raw: &(u8, u64, u8, u64)) {
    let (selector, user, column, version) = *raw;
    let write = |value| put(store, cell_key(user, column), version, value);
    match selector % 12 {
        // The step number makes every write's value distinct, so a wrong
        // winner among equal versions shows; its length crosses the inline
        // boundary and reaches zero.
        0..=6 => write(Some(sized_value(&step.to_string(), step))),
        7 | 8 => write(None),
        9 => store.flush().unwrap(),
        10 => drop(store.tick().unwrap()),
        _ => {
            store.flush().unwrap();
            store.tick().unwrap();
        }
    }
}

/// One cell (a value, or a tombstone for `None`) as a one-cell batch.
fn put(store: &Store, key: CellKey, version: Version, value: Option<Bytes>) {
    store.put_batch(vec![(key, version, value)]).unwrap();
}

/// The replaced `get_row`, over the store's cells in precedence order.
fn reference_get_row(store: &Store, row: &RowKey, as_of: Version) -> Vec<(CellKey, Bytes)> {
    let cells = store.export_cells();
    let mut best: BTreeMap<&CellKey, (Version, &Option<Bytes>)> = BTreeMap::new();
    for (key, version, value) in &cells {
        if key.row != *row || *version > as_of {
            continue;
        }
        match best.get(key) {
            Some((existing, _)) if existing >= version => {}
            _ => {
                best.insert(key, (*version, value));
            }
        }
    }
    best.into_iter()
        .filter_map(|(key, (_, value))| value.clone().map(|v| (key.clone(), v)))
        .collect()
}

fn assert_reads_match(store: &Store) -> Result<(), TestCaseError> {
    // Users 16 and 17 are never written: a bloom's false positives land here.
    for user in 0..18 {
        let row = row(user);
        for as_of in [0, 2, 5, 9, Version::MAX] {
            let (got, want) = (
                store.get_row(&row, as_of),
                reference_get_row(store, &row, as_of),
            );
            prop_assert!(
                got == want,
                "row {row} as of {as_of}:\n  merge: {got:?}\n oracle: {want:?}"
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn merge_read_matches_the_btreemap_read_it_replaced(
        raw_ops in prop::collection::vec((0u8..255, 0u64..16, 0u8..6, 1u64..10), 1..160)
    ) {
        let store = Store::open(StoreConfig {
            // Small enough that writes flush on their own as well.
            memtable_flush_bytes: 1 << 10,
            max_runs: 3,
            bloom_bits_per_key: 2,
            ..Default::default()
        }).unwrap();
        for (step, raw) in raw_ops.iter().enumerate() {
            apply(&store, step, raw);
            if step % 32 == 31 {
                assert_reads_match(&store)?;
            }
        }
        assert_reads_match(&store)?;
    }
}
