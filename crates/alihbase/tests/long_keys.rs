//! Key parts longer than the 22 bytes a key holds in place take the boxed
//! representation; nothing on disk may care. A row key, family and
//! qualifier past that length go through every persistent form a key has:
//! a WAL record (replayed), a run file (`SsTable::save` / `load`), a split
//! point in `layout.manifest`, and the cell migration of an online split.

use bytes::Bytes;
use titant_alihbase::{CellKey, RegionedTable, RowKey, SplitConfig, StoreConfig};

const FAMILY: &str = "a-column-family-name-well-past-the-inline-length";
const QUALIFIER: &str = "a-qualifier-that-does-not-fit-in-place-either";

fn long_row(user: u64) -> RowKey {
    RowKey::from(format!("tenant-0042/region-eu-west/user-{user:06}"))
}

fn value(user: u64) -> Bytes {
    Bytes::from(user.to_le_bytes().to_vec())
}

fn assert_rows(table: &RegionedTable, users: std::ops::Range<u64>, when: &str) {
    for user in users {
        let want = CellKey {
            row: long_row(user),
            family: FAMILY.into(),
            qualifier: QUALIFIER.into(),
        };
        assert_eq!(
            table.get_row(&long_row(user), u64::MAX),
            vec![(want, value(user))],
            "user {user} {when}"
        );
    }
}

#[test]
fn long_keys_round_trip_through_wal_runs_manifest_and_split() {
    assert!(long_row(0).as_bytes().len() > 22 && FAMILY.len() > 22 && QUALIFIER.len() > 22);
    let dir = std::env::temp_dir().join(format!("titant-long-keys-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = StoreConfig {
        dir: Some(dir.clone()),
        ..Default::default()
    };
    let put = |table: &RegionedTable, user| {
        let key = CellKey::new(long_row(user), FAMILY, QUALIFIER);
        table.put_rows(vec![(key, 1, Some(value(user)))]).unwrap();
    };

    // A constructed boundary at a long key, and unflushed writes on both
    // sides of it: the manifest and the WALs are all that reach the disk.
    let table = RegionedTable::new(vec![long_row(8)], config.clone()).unwrap();
    (0..12).for_each(|user| put(&table, user));
    drop(table);
    let (table, _) = RegionedTable::open(config.clone()).unwrap();
    assert_eq!(table.split_points(), vec![long_row(8)]);
    assert_rows(&table, 0..12, "after WAL replay");

    // The same cells as run files.
    table.flush().unwrap();
    drop(table);
    let (table, _) = RegionedTable::open(config.clone()).unwrap();
    assert_rows(&table, 0..12, "after run load");

    // An online split of the left region, at its median resident row — a
    // long key the manifest has to carry from here on.
    let table = table.with_rebalancing(SplitConfig {
        split_threshold: Some(8),
        ..Default::default()
    });
    (0..8).for_each(|user| put(&table, user));
    assert_eq!(table.tick().unwrap().region_splits, 1);
    assert_eq!(table.split_points(), vec![long_row(4), long_row(8)]);
    assert_rows(&table, 0..12, "after the split");
    drop(table);
    let (table, report) = RegionedTable::open(config).unwrap();
    assert_eq!(report.regions, 3);
    assert_eq!(table.split_points(), vec![long_row(4), long_row(8)]);
    assert_rows(&table, 0..12, "after reopening the split layout");
    drop(table);
    std::fs::remove_dir_all(&dir).ok();
}
