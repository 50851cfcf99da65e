//! Crash-equivalence: a crash at **any step** of an on-disk migration
//! must leave a store that reopens to byte-identical reads.
//!
//! Three protocols move files around behind the write path:
//!
//! * the tick-driven merge window (`run-*.sst.tmp` write → rename over the
//!   window's newest id → remove superseded runs);
//! * the region split (write each child dir: an empty WAL and one run
//!   file, the keep-all merge of the parent's side of the split point →
//!   rewrite `layout.manifest` via write-then-rename → remove the parent
//!   dirs); and
//! * the sibling merge, the split's inverse (one child dir from both
//!   siblings → manifest → remove the sibling dirs).
//!
//! Every intermediate file state is recoverable: a torn tmp is swept,
//! superseded runs left behind are shadowed newest-run-wins, and recovery
//! trusts only the manifest — it serves the old layout OR the new one,
//! never a partial mix, so a child dir torn before the commit is an
//! orphan that is never read. These tests drive the real operations,
//! snapshot the directory before and after, synthesize every crash point
//! in a fresh directory, reopen, and compare reads at every `as_of` cut
//! against a reference that never migrated.

use bytes::Bytes;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use titant_alihbase::{
    CellKey, RegionedTable, RowKey, SplitConfig, Store, StoreConfig, SyncPolicy,
};

/// Relative path → file bytes (`None` for an empty directory).
type Snapshot = BTreeMap<PathBuf, Option<Vec<u8>>>;

/// Recursive snapshot: relative path → file bytes. Directories appear
/// implicitly through their files; empty directories are recorded with a
/// sentinel entry so restores recreate them.
fn snapshot_dir(root: &Path) -> Snapshot {
    fn walk(root: &Path, dir: &Path, out: &mut Snapshot) {
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
fn restore_dir(root: &Path, snap: &Snapshot) {
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

    let verify = |snap: &Snapshot, tag: &str| {
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

/// A one-region table on disk, armed to split once it is hot and (when
/// `merge_threshold` > 0) to merge cold siblings back, plus an in-memory
/// twin that never migrates. Both hold the same history: sixteen users,
/// every fifth deleted, all flushed, then one cell rewritten at its own
/// version (the newest copy must win in every layout).
fn migrating_table(
    root: &Path,
    merge_threshold: u64,
) -> (StoreConfig, RegionedTable, RegionedTable, u64) {
    std::fs::remove_dir_all(root).ok();
    let cfg = StoreConfig {
        dir: Some(root.to_path_buf()),
        sync: SyncPolicy::Always,
        ..Default::default()
    };
    let disk = RegionedTable::single(cfg.clone())
        .unwrap()
        .with_rebalancing(SplitConfig {
            split_threshold: Some(8),
            merge_threshold,
            max_regions: 4,
        });
    let reference = RegionedTable::single(StoreConfig::default()).unwrap();

    let mut version = 0u64;
    let mut cells = Vec::new();
    for user in 0..16u64 {
        version += 1;
        cells.push((key(user, 0), version, Some(Bytes::from(format!("u{user}")))));
        if user % 5 == 4 {
            version += 1;
            cells.push((key(user, 0), version, None));
        }
    }
    let rewritten = cells[3].clone();
    for cell in cells {
        disk.put_rows(vec![cell.clone()]).unwrap();
        reference.put_rows(vec![cell]).unwrap();
    }
    disk.flush().unwrap();
    reference.flush().unwrap();
    let rewrite = (
        rewritten.0,
        rewritten.1,
        Some(Bytes::from_static(b"rewritten")),
    );
    disk.put_rows(vec![rewrite.clone()]).unwrap();
    reference.put_rows(vec![rewrite]).unwrap();
    (cfg, disk, reference, version)
}

/// Files only in `a`, the layout manifest aside.
fn only_in(a: &Snapshot, b: &Snapshot) -> Snapshot {
    a.iter()
        .filter(|(p, _)| !b.contains_key(*p) && *p != Path::new("layout.manifest"))
        .map(|(p, c)| (p.clone(), c.clone()))
        .collect()
}

/// `snap` with the first run file of `files` cut to half its length.
fn with_torn_run(snap: &Snapshot, files: &Snapshot) -> Snapshot {
    let (path, bytes) = files
        .iter()
        .find(|(p, _)| p.extension().is_some_and(|e| e == "sst"))
        .expect("a child run file");
    let bytes = bytes.as_ref().unwrap();
    let mut torn = snap.clone();
    torn.insert(path.clone(), Some(bytes[..bytes.len() / 2].to_vec()));
    torn
}

/// Materialise `snap` under `tag`, reopen it, and compare every read with
/// `reference` at every cut.
fn reopen_matches(
    snap: &Snapshot,
    tag: &str,
    cfg: &StoreConfig,
    reference: &RegionedTable,
    max_version: u64,
) -> (RegionedTable, titant_alihbase::ReopenReport) {
    let crash_dir = temp_dir(tag);
    restore_dir(&crash_dir, snap);
    let (reopened, report) = RegionedTable::open(StoreConfig {
        dir: Some(crash_dir.clone()),
        ..cfg.clone()
    })
    .unwrap();
    for user in 0..18u64 {
        let row = RowKey::from_user(user);
        for as_of in [1, 4, 7, max_version, u64::MAX] {
            assert_eq!(
                reopened.get_row(&row, as_of),
                reference.get_row(&row, as_of),
                "state {tag}, user {user}, as_of {as_of}"
            );
        }
    }
    std::fs::remove_dir_all(&crash_dir).ok();
    (reopened, report)
}

/// Crash points of the split migration: recovery trusts only the layout
/// manifest, so every synthesized state serves the parent OR both
/// children — never a partial mix — and sweeps the losing side's dirs.
#[test]
fn split_migration_crash_states_serve_parent_or_children() {
    let root = temp_dir("split");
    let (cfg, disk, reference, max_version) = migrating_table(&root, 0);
    let verify = |snap: &Snapshot, tag: &str| {
        reopen_matches(snap, &format!("split-{tag}"), &cfg, &reference, max_version)
    };

    let before = snapshot_dir(&root);
    let report = disk.tick().unwrap();
    assert_eq!(report.region_splits, 1, "pressure must split the region");
    let after = snapshot_dir(&root);

    // Child dirs are the paths that exist only after; parent files only
    // before. The manifest exists in both with different contents.
    let child_files = only_in(&after, &before);
    let parent_files = only_in(&before, &after);
    assert!(!child_files.is_empty() && !parent_files.is_empty());

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

    // Crash A'': a child's run file torn mid-write, before the commit.
    // The child dir is never opened: the parent serves, the dir sweeps.
    let (t, report) = verify(&with_torn_run(&pre_commit, &child_files), "torn-child-run");
    assert_eq!(t.region_count(), 1);
    assert!(report.orphan_dirs_removed >= 2, "{report:?}");

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

/// Crash points of the sibling merge, the split's inverse: every state
/// serves both siblings OR the merged child.
#[test]
fn sibling_merge_crash_states_serve_siblings_or_merged_child() {
    let root = temp_dir("merge-siblings");
    let (cfg, disk, reference, max_version) = migrating_table(&root, 4);
    let verify = |snap: &Snapshot, tag: &str| {
        reopen_matches(
            snap,
            &format!("siblings-{tag}"),
            &cfg,
            &reference,
            max_version,
        )
    };
    assert_eq!(disk.tick().unwrap().region_splits, 1);
    // One more cell each side, so both siblings merge a memtable as well
    // as a run; the two-cell pressure stays under the merge threshold.
    for user in [1u64, 14] {
        let cell = (
            key(user, 1),
            max_version,
            Some(Bytes::from(format!("s{user}"))),
        );
        disk.put_rows(vec![cell.clone()]).unwrap();
        reference.put_rows(vec![cell]).unwrap();
    }

    let before = snapshot_dir(&root);
    let report = disk.tick().unwrap();
    assert_eq!(report.region_merges, 1, "cold siblings must merge");
    let after = snapshot_dir(&root);
    let merged_files = only_in(&after, &before);
    let sibling_files = only_in(&before, &after);
    assert!(!merged_files.is_empty() && !sibling_files.is_empty());

    // Pre-commit: the merged child written (whole or with a torn run
    // file), the manifest still the split's. The siblings serve.
    let mut pre_commit = before.clone();
    pre_commit.extend(merged_files.clone());
    for (snap, tag) in [
        (pre_commit.clone(), "pre-commit"),
        (with_torn_run(&pre_commit, &merged_files), "torn-merged-run"),
    ] {
        let (t, report) = verify(&snap, tag);
        assert_eq!(t.region_count(), 2, "state {tag}: the siblings serve");
        assert!(report.orphan_dirs_removed >= 1, "{tag}: {report:?}");
    }

    // Post-commit: the manifest names the merged child, the sibling dirs
    // are not yet removed. The merged child serves; the siblings sweep.
    let mut post_commit = after.clone();
    post_commit.extend(sibling_files.clone());
    let (t, report) = verify(&post_commit, "post-commit");
    assert_eq!(t.region_count(), 1, "the new manifest wins: one region");
    assert!(report.orphan_dirs_removed >= 2, "{report:?}");

    let (t, report) = verify(&after, "final");
    assert_eq!(t.region_count(), 1);
    assert_eq!(report.orphan_dirs_removed + report.orphan_files_removed, 0);

    std::fs::remove_dir_all(&root).ok();
}
