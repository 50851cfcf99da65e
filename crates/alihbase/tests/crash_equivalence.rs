//! Crash-equivalence: a crash at **any step** of an on-disk migration
//! must leave a store that reopens to byte-identical reads.
//!
//! Two protocols move files around behind the write path:
//!
//! * the tick-driven merge window (`run-*.sst.tmp` write → rename over the
//!   window's newest id → remove superseded runs), and
//! * the region split migration (build + flush child dirs → rewrite
//!   `layout.manifest` via write-then-rename → remove parent dirs).
//!
//! Both are designed so every intermediate file state is recoverable: a
//! torn tmp is swept, superseded runs left behind are shadowed
//! newest-run-wins, and recovery trusts only the manifest — it serves the
//! parent OR both children, never a partial mix. These tests drive the
//! real operations, snapshot the directory before and after, synthesize
//! every crash point in a fresh directory, reopen, and compare reads at
//! every `as_of` cut against a reference that never migrated.

use bytes::Bytes;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use titant_alihbase::{
    CellKey, RegionedTable, RowKey, SplitConfig, Store, StoreConfig, SyncPolicy,
};

/// Recursive snapshot: relative path → file bytes. Directories appear
/// implicitly through their files; empty directories are recorded with a
/// sentinel entry so restores recreate them.
fn snapshot_dir(root: &Path) -> BTreeMap<PathBuf, Option<Vec<u8>>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Option<Vec<u8>>>) {
        let mut entries = 0;
        for entry in std::fs::read_dir(dir).unwrap().filter_map(|e| e.ok()) {
            entries += 1;
            let path = entry.path();
            let rel = path.strip_prefix(root).unwrap().to_path_buf();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                out.insert(rel, Some(std::fs::read(&path).unwrap()));
            }
        }
        if entries == 0 && dir != root {
            out.insert(dir.strip_prefix(root).unwrap().to_path_buf(), None);
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

/// Materialise a snapshot into a fresh directory.
fn restore_dir(root: &Path, snap: &BTreeMap<PathBuf, Option<Vec<u8>>>) {
    std::fs::remove_dir_all(root).ok();
    std::fs::create_dir_all(root).unwrap();
    for (rel, contents) in snap {
        let path = root.join(rel);
        match contents {
            Some(bytes) => {
                std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                std::fs::write(&path, bytes).unwrap();
            }
            None => std::fs::create_dir_all(&path).unwrap(),
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("titant-crashEq-{tag}-{}", std::process::id()))
}

fn key(user: u64, qual: u8) -> CellKey {
    CellKey::new(RowKey::from_user(user), "basic", &format!("q{qual}"))
}

/// Crash points of the merge-window protocol: for each synthesized file
/// state the reopened store must read byte-identically to a store that
/// never compacted, at every version cut.
#[test]
fn merge_window_crash_states_read_identical() {
    let dir = temp_dir("merge");
    std::fs::remove_dir_all(&dir).ok();
    let cfg = StoreConfig {
        dir: Some(dir.clone()),
        sync: SyncPolicy::Always,
        max_runs: 2,
        ..Default::default()
    };
    let disk = Store::open(cfg.clone()).unwrap();
    let reference = Store::open(StoreConfig {
        max_runs: 10_000,
        ..Default::default()
    })
    .unwrap();

    // Six flushed runs of overwrites and deletes: plenty of superseded
    // versions and tombstones for the merge to carry.
    let mut version = 0u64;
    for round in 0..6u64 {
        for user in 0..5u64 {
            version += 1;
            let value = ((user + round) % 4 != 3).then(|| Bytes::from(format!("r{round}-u{user}")));
            let cell = (key(user, (round % 3) as u8), version, value);
            disk.put_batch(vec![cell.clone()]).unwrap();
            reference.put_batch(vec![cell]).unwrap();
        }
        disk.flush().unwrap();
        reference.flush().unwrap();
    }
    let max_version = version;

    let before = snapshot_dir(&dir);
    let report = disk.tick().unwrap();
    assert_eq!(report.compactions, 1, "the workload must force a merge");
    assert!(report.runs_merged >= 2);
    let after = snapshot_dir(&dir);

    // Diff the protocol's effects out of the snapshots: the kept run file
    // changed contents (merged result renamed over it); the superseded
    // window members disappeared.
    let kept: Vec<&PathBuf> = after
        .keys()
        .filter(|p| before.get(*p).is_some_and(|b| b != &after[*p]))
        .collect();
    assert_eq!(kept.len(), 1, "exactly one run id is kept: {kept:?}");
    let kept = kept[0].clone();
    let removed: Vec<&PathBuf> = before.keys().filter(|p| !after.contains_key(*p)).collect();
    assert!(!removed.is_empty(), "the merge must supersede older runs");

    let verify = |snap: &BTreeMap<PathBuf, Option<Vec<u8>>>, tag: &str| {
        let crash_dir = temp_dir(&format!("merge-{tag}"));
        restore_dir(&crash_dir, snap);
        let reopened = Store::open(StoreConfig {
            dir: Some(crash_dir.clone()),
            ..cfg.clone()
        })
        .unwrap();
        for user in 0..6u64 {
            let row = RowKey::from_user(user);
            for as_of in [1, 5, 11, max_version, u64::MAX] {
                assert_eq!(
                    reopened.get_row(&row, as_of),
                    reference.get_row(&row, as_of),
                    "state {tag}, user {user}, as_of {as_of}"
                );
            }
        }
        let stats = reopened.write_stats();
        std::fs::remove_dir_all(&crash_dir).ok();
        stats
    };

    // Crash 1: merged tmp half-written, nothing renamed. The tmp is swept
    // as an orphan and the pre-merge runs serve every read.
    let mut torn = before.clone();
    let tmp_name = PathBuf::from(format!("{}.tmp", kept.display()));
    torn.insert(tmp_name, Some(b"half-written merge".to_vec()));
    let stats = verify(&torn, "torn-tmp");
    assert_eq!(stats.orphans_cleaned, 1, "the tmp must be swept");

    // Crash 2: renamed over the kept id but no superseded run removed yet.
    // Duplicate (key, version) cells are shadowed newest-run-wins.
    let mut renamed = before.clone();
    renamed.insert(kept.clone(), after[&kept].clone());
    verify(&renamed, "renamed-no-removals");

    // Crash 3: every partial removal prefix.
    for n in 1..removed.len() {
        let mut partial = renamed.clone();
        for gone in &removed[..n] {
            partial.remove(*gone);
        }
        verify(&partial, &format!("removed-{n}"));
    }

    // Crash 4 (no crash): the completed merge.
    let stats = verify(&after, "final");
    assert_eq!(stats.orphans_cleaned, 0);

    std::fs::remove_dir_all(&dir).ok();
}

/// Crash points of the split migration: recovery trusts only the layout
/// manifest, so every synthesized state serves the parent OR both
/// children — never a partial mix — and sweeps the losing side's dirs.
#[test]
fn split_migration_crash_states_serve_parent_or_children() {
    let root = temp_dir("split");
    std::fs::remove_dir_all(&root).ok();
    let cfg = StoreConfig {
        dir: Some(root.clone()),
        sync: SyncPolicy::Always,
        ..Default::default()
    };
    let disk = RegionedTable::single(cfg.clone())
        .unwrap()
        .with_rebalancing(SplitConfig {
            split_threshold: Some(8),
            max_regions: 4,
            ..Default::default()
        });
    let reference = RegionedTable::single(StoreConfig::default()).unwrap();

    let mut version = 0u64;
    for user in 0..16u64 {
        version += 1;
        let mut cells = vec![(key(user, 0), version, Some(Bytes::from(format!("u{user}"))))];
        if user % 5 == 4 {
            version += 1;
            cells.push((key(user, 0), version, None));
        }
        for cell in cells {
            disk.put_rows(vec![cell.clone()]).unwrap();
            reference.put_rows(vec![cell]).unwrap();
        }
    }
    let max_version = version;

    let before = snapshot_dir(&root);
    let report = disk.tick().unwrap();
    assert_eq!(report.region_splits, 1, "pressure must split the region");
    let after = snapshot_dir(&root);

    // Child dirs are the paths that exist only after; parent files only
    // before. The manifest exists in both with different contents.
    let child_files: BTreeMap<PathBuf, Option<Vec<u8>>> = after
        .iter()
        .filter(|(p, _)| !before.contains_key(*p) && *p != Path::new("layout.manifest"))
        .map(|(p, c)| (p.clone(), c.clone()))
        .collect();
    let parent_files: BTreeMap<PathBuf, Option<Vec<u8>>> = before
        .iter()
        .filter(|(p, _)| !after.contains_key(*p))
        .map(|(p, c)| (p.clone(), c.clone()))
        .collect();
    assert!(!child_files.is_empty() && !parent_files.is_empty());

    let verify = |snap: &BTreeMap<PathBuf, Option<Vec<u8>>>,
                  tag: &str|
     -> (RegionedTable, titant_alihbase::ReopenReport) {
        let crash_dir = temp_dir(&format!("split-{tag}"));
        restore_dir(&crash_dir, snap);
        let (reopened, report) = RegionedTable::open(StoreConfig {
            dir: Some(crash_dir.clone()),
            ..cfg.clone()
        })
        .unwrap();
        for user in 0..18u64 {
            let row = RowKey::from_user(user);
            for as_of in [1, 7, max_version, u64::MAX] {
                assert_eq!(
                    reopened.get_row(&row, as_of),
                    reference.get_row(&row, as_of),
                    "state {tag}, user {user}, as_of {as_of}"
                );
            }
        }
        std::fs::remove_dir_all(&crash_dir).ok();
        (reopened, report)
    };

    // Crash A: children fully written but the manifest rename never
    // happened. Recovery serves the parent; the orphan child dirs sweep.
    let mut pre_commit = before.clone();
    pre_commit.extend(child_files.clone());
    let (t, report) = verify(&pre_commit, "pre-commit");
    assert_eq!(t.region_count(), 1, "the old manifest wins: one region");
    assert!(report.orphan_dirs_removed >= 2, "{report:?}");

    // Crash A': same, plus a torn manifest tmp from the interrupted
    // rename. It is swept like any other crash artifact.
    let mut torn_manifest = pre_commit.clone();
    torn_manifest.insert(
        PathBuf::from("layout.manifest.tmp"),
        Some(b"titant-layout v1\ntorn".to_vec()),
    );
    let (t, report) = verify(&torn_manifest, "torn-manifest");
    assert_eq!(t.region_count(), 1);
    assert!(report.orphan_files_removed >= 1, "{report:?}");

    // Crash B: the manifest committed but the parent dirs were never
    // removed. Recovery serves both children; the parent dirs sweep.
    let mut post_commit = after.clone();
    post_commit.extend(parent_files.clone());
    let (t, report) = verify(&post_commit, "post-commit");
    assert_eq!(t.region_count(), 2, "the new manifest wins: two regions");
    assert!(report.orphan_dirs_removed >= 1, "{report:?}");

    // No crash: the completed migration.
    let (t, report) = verify(&after, "final");
    assert_eq!(t.region_count(), 2);
    assert_eq!(report.orphan_dirs_removed + report.orphan_files_removed, 0);

    std::fs::remove_dir_all(&root).ok();
}
