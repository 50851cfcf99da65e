//! Property test: the bloom/bounds read path is invisible to callers.
//!
//! Two stores receive the exact same random workload — puts, deletes,
//! flushes, and flush-then-merge steps (a tick over a low `max_runs`) —
//! one with the default per-run blooms, one with filters disabled
//! (`bloom_bits_per_key: 0`). Every row read, at random `as_of` cuts, must
//! return byte-identical results: the filters may only skip runs that
//! provably cannot hold the row, never change what a read sees.

use bytes::Bytes;
use proptest::prelude::*;
use titant_alihbase::{CellKey, RowKey, Store, StoreConfig, Version};

#[derive(Debug, Clone)]
enum Op {
    Put { user: u64, qual: u8, version: u64 },
    Delete { user: u64, qual: u8, version: u64 },
    Flush,
    Compact,
}

/// Decode a raw sampled tuple into an operation: puts dominate, with
/// deletes, flushes and compactions mixed in (the vendored proptest has no
/// weighted-union strategy, so the weighting lives in the selector bands).
fn decode(raw: &(u8, u64, u8, u64)) -> Op {
    let (selector, user, qual, version) = *raw;
    match selector % 9 {
        0..=4 => Op::Put {
            user,
            qual,
            version,
        },
        5 | 6 => Op::Delete {
            user,
            qual,
            version,
        },
        7 => Op::Flush,
        _ => Op::Compact,
    }
}

fn cell_key(user: u64, qual: u8) -> CellKey {
    CellKey::new(RowKey::from_user(user), "basic", &format!("q{qual}"))
}

/// One cell (a value, or a tombstone for `None`) as a one-cell batch.
fn put(store: &Store, key: CellKey, version: Version, value: Option<Bytes>) {
    store.put_batch(vec![(key, version, value)]).unwrap();
}

fn apply(store: &Store, op: &Op) {
    match op {
        Op::Put {
            user,
            qual,
            version,
        } => put(
            store,
            cell_key(*user, *qual),
            *version,
            Some(Bytes::from(format!("v{user}-{qual}-{version}"))),
        ),
        Op::Delete {
            user,
            qual,
            version,
        } => put(store, cell_key(*user, *qual), *version, None),
        Op::Flush => store.flush().unwrap(),
        Op::Compact => {
            store.flush().unwrap();
            store.tick().unwrap();
        }
    }
}

proptest! {
    #[test]
    fn bloom_reads_match_bloomless_reference(
        raw_ops in prop::collection::vec((0u8..255, 0u64..40, 0u8..4, 1u64..20), 1..120)
    ) {
        // Only Compact ops tick, and each one merges once more than three
        // runs have accumulated.
        let with_bloom = Store::open(StoreConfig {
            max_runs: 3,
            ..Default::default()
        }).unwrap();
        let reference = Store::open(StoreConfig {
            max_runs: 3,
            bloom_bits_per_key: 0,
            ..Default::default()
        }).unwrap();
        for raw in &raw_ops {
            let op = decode(raw);
            apply(&with_bloom, &op);
            apply(&reference, &op);
        }
        // Probe present users, never-written users, and versioned cuts.
        for user in 0..45u64 {
            let row = RowKey::from_user(user);
            for as_of in [1, 5, 7, 10, 19, u64::MAX] {
                prop_assert_eq!(
                    with_bloom.get_row(&row, as_of),
                    reference.get_row(&row, as_of)
                );
            }
        }
        // Sanity: the filtered store never does *more* run searches.
        let filtered = with_bloom.op_counts();
        let baseline = reference.op_counts();
        prop_assert!(filtered.runs_scanned <= baseline.runs_scanned);
        prop_assert_eq!(
            filtered.runs_scanned + filtered.runs_skipped,
            baseline.runs_scanned + baseline.runs_skipped
        );
    }

    #[test]
    fn torn_cell_injection_always_tears_and_counts(
        lens in prop::collection::vec(0usize..6, 1..20)
    ) {
        use titant_alihbase::{FaultAction, FaultHook, ReadCtx};
        struct AlwaysTear;
        impl FaultHook for AlwaysTear {
            fn on_read(&self, _ctx: &ReadCtx<'_>) -> FaultAction {
                FaultAction::TornCell
            }
        }
        let store = Store::open(StoreConfig::default()).unwrap();
        for (i, len) in lens.iter().enumerate() {
            put(&store, cell_key(i as u64, 0), 1, Some(Bytes::from(vec![b'x'; *len])));
        }
        let mut injected = 0u64;
        for (i, len) in lens.iter().enumerate() {
            let row = RowKey::from_user(i as u64);
            let ctx = ReadCtx { region: 0, replica: 0, row: &row, tick: 0, attempt: 0 };
            let read = store.try_get_row(&row, u64::MAX, Some(&AlwaysTear), &ctx, None).unwrap();
            injected += 1;
            // Every injection is counted, and any non-empty cell comes back
            // strictly shorter — including the 1–3 byte cells the old
            // `min(len, 3)` truncation returned intact.
            prop_assert_eq!(store.op_counts().torn_cells, injected);
            if *len > 0 {
                prop_assert!(
                    read.cells[0].1.len() < *len,
                    "cell of {} bytes survived a torn-cell fault", *len
                );
            }
        }
    }
}
