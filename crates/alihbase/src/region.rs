//! Row-key-range sharding, HBase-style regions.
//!
//! A [`RegionedTable`] splits the row-key space at boundaries and routes
//! every read/write to the owning region's [`Store`]. In production HBase
//! the regions live on different region servers; here they give the model
//! server independent shards (and the serving bench a realistic routing
//! step).
//!
//! Each region can carry **read replicas** ([`StoreConfig::replicas`]):
//! writes fan out to every replica, plain reads serve from the primary
//! (replica 0), and
//! [`RegionedTable::try_get_row`] lets the caller pick a replica — the
//! failover/hedge substrate the Model Server uses when a fault hook
//! ([`RegionedTable::set_fault_hook`]) declares the primary unavailable or
//! slow.
//!
//! # Online splits and merges
//!
//! Region layouts are no longer frozen at construction. When a
//! [`SplitConfig`] with a split threshold is installed
//! ([`RegionedTable::with_rebalancing`]), every operation bumps a
//! per-region *pressure* counter, and each [`RegionedTable::tick`] turns
//! the pressure accumulated since the previous tick into at most one
//! layout change:
//!
//! * a region whose window reached [`SplitConfig::split_threshold`]
//!   **splits** at its median resident row key
//!   ([`Store::median_resident_row`]), migrating every cell (all versions,
//!   tombstones included) into two child stores on every replica;
//! * otherwise, the leftmost split-born boundary whose two sibling regions
//!   both stayed below [`SplitConfig::merge_threshold`] **merges** back
//!   into one region.
//!
//! Decisions are pure functions of the op counters and the tick sequence —
//! never wall clock — so identical traffic yields identical layouts, and
//! reads are byte-identical across the split: each child store opens
//! around one run, the store's keep-all merge of the parent's memtable and
//! runs over the child's key range, so every version survives and no cell
//! re-enters a WAL. The default
//! [`SplitConfig`] disables rebalancing entirely: pre-split workloads
//! (chaos replay included) behave bit-identically to earlier releases.

use crate::fault::{
    FaultHook, FaultKind, ReadCtx, ReadFault, ReadOptions, RowRead, WriteCtx, WriteFault,
    WriteOptions,
};
use crate::store::{LiveWriteStats, Store, StoreConfig, TickReport, WriteStatsSnapshot};
use crate::types::{CellKey, RowKey, Version};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// File name of the layout manifest inside a table directory — the single
/// commit point for every layout change (see [`RegionedTable::open`]).
const LAYOUT_MANIFEST: &str = "layout.manifest";

fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The inverse of [`hex_encode`]: lowercase digit pairs only.
fn hex_decode(s: &str) -> Option<Vec<u8>> {
    let digit = |c: u8| match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        _ => None,
    };
    if !s.len().is_multiple_of(2) {
        return None;
    }
    s.as_bytes()
        .chunks(2)
        .map(|pair| Some(digit(pair[0])? << 4 | digit(pair[1])?))
        .collect()
}

/// A decimal number exactly as `format!("{n}")` prints it: no sign, no
/// leading zero.
fn decimal(s: &str) -> Option<u64> {
    let n: u64 = s.parse().ok()?;
    (n.to_string() == s).then_some(n)
}

/// One `key arg…` line of a manifest with exactly `N` single-space
/// separated arguments.
fn directive<'a, const N: usize>(line: Option<&'a str>, key: &str) -> Result<[&'a str; N], String> {
    let line = line.ok_or_else(|| format!("missing {key} line"))?;
    let mut parts = line.split(' ');
    if parts.next() != Some(key) {
        return Err(format!("expected a {key} line, found {line:?}"));
    }
    let args: Vec<&str> = parts.collect();
    args.try_into()
        .map_err(|_| format!("bad {key} line {line:?}"))
}

/// A region directory name as [`RegionedTable::new`] (`region-NNNN`) or a
/// split or merge (`child-NNNNNN`, numbered below `next_child`) makes it.
fn is_store_name(name: &str, next_child: u64) -> bool {
    let numbered = |prefix: &str, width: usize| -> Option<u64> {
        let n: u64 = name.strip_prefix(prefix)?.parse().ok()?;
        (format!("{prefix}{n:0width$}") == name).then_some(n)
    };
    numbered("region-", 4).is_some() || numbered("child-", 6).is_some_and(|n| n < next_child)
}

/// Directory of replica `k` of the region whose primary lives in `name`.
fn replica_dir_name(name: &str, k: usize) -> String {
    if k == 0 {
        name.to_string()
    } else {
        format!("{name}-r{k}")
    }
}

/// The contents of `layout.manifest`: the header, `replicas`,
/// `next_child`, then `region` lines with one `split` line between each
/// neighbouring pair. [`Manifest::parse`] accepts only what
/// [`Manifest::render`] writes, so a corrupt manifest is refused before
/// any store is opened or any directory swept.
struct Manifest {
    replicas: usize,
    next_child: u64,
    names: Vec<String>,
    splits: Vec<RowKey>,
    split_origin: Vec<bool>,
}

impl Manifest {
    fn render(&self) -> String {
        let mut text = String::from("titant-layout v1\n");
        text.push_str(&format!("replicas {}\n", self.replicas));
        text.push_str(&format!("next_child {}\n", self.next_child));
        for (i, name) in self.names.iter().enumerate() {
            text.push_str(&format!("region {name}\n"));
            if let Some(split) = self.splits.get(i) {
                let origin = if self.split_origin[i] {
                    "origin"
                } else {
                    "fixed"
                };
                text.push_str(&format!(
                    "split {} {origin}\n",
                    hex_encode(split.as_bytes())
                ));
            }
        }
        text
    }

    fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text
            .strip_suffix('\n')
            .ok_or("no final newline")?
            .split('\n');
        if lines.next() != Some("titant-layout v1") {
            return Err("unknown header".into());
        }
        let [replicas] = directive(lines.next(), "replicas")?;
        let replicas = decimal(replicas)
            .and_then(|n| usize::try_from(n).ok())
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("bad replica count {replicas:?}"))?;
        let [next_child] = directive(lines.next(), "next_child")?;
        let next_child =
            decimal(next_child).ok_or_else(|| format!("bad next_child {next_child:?}"))?;
        let mut manifest = Self {
            replicas,
            next_child,
            names: Vec::new(),
            splits: Vec::new(),
            split_origin: Vec::new(),
        };
        loop {
            let [name] = directive(lines.next(), "region")?;
            if !is_store_name(name, next_child) {
                return Err(format!("bad region name {name:?}"));
            }
            if manifest.names.iter().any(|n| n == name) {
                return Err(format!("region {name:?} listed twice"));
            }
            manifest.names.push(name.to_string());
            let Some(line) = lines.next() else {
                return Ok(manifest);
            };
            let [hex, origin] = directive(Some(line), "split")?;
            let row = RowKey::from(
                hex_decode(hex)
                    .ok_or_else(|| format!("bad split point {hex:?}"))?
                    .as_slice(),
            );
            if manifest.splits.last().is_some_and(|last| *last >= row) {
                return Err("split points not strictly ascending".into());
            }
            manifest.splits.push(row);
            manifest.split_origin.push(match origin {
                "origin" => true,
                "fixed" => false,
                _ => return Err(format!("bad split origin {origin:?}")),
            });
        }
    }
}

/// What [`RegionedTable::open`] / [`RegionedTable::reopen`] found and
/// cleaned while rebuilding the table from its on-disk state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReopenReport {
    /// Regions the manifest restored.
    pub regions: usize,
    /// Replicas per region.
    pub replicas: usize,
    /// Unreferenced store directories swept (aborted split/merge children,
    /// or parents a committed migration had not yet removed).
    pub orphan_dirs_removed: u64,
    /// Stray files swept at the table level (a torn `layout.manifest.tmp`).
    pub orphan_files_removed: u64,
    /// Leftover `run-*.sst.tmp` files the member stores removed on open.
    pub orphan_runs_removed: u64,
}

/// Online rebalancing policy for a [`RegionedTable`]. The default disables
/// both splits and merges, freezing the layout exactly as constructed.
#[derive(Debug, Clone)]
pub struct SplitConfig {
    /// A region whose windowed pressure (operations routed to it since the
    /// previous [`RegionedTable::tick`]) reaches this value splits at its
    /// median resident row. `None` (the default) disables splitting — and
    /// with it all rebalancing bookkeeping — entirely.
    pub split_threshold: Option<u64>,
    /// A split-born sibling pair whose windows *both* stayed below this
    /// value merges back into one region. `0` (the default) never merges.
    /// Choose `merge_threshold` well below `split_threshold`: the gap is
    /// the hysteresis band that keeps a region oscillating near the split
    /// point from split/merge thrashing.
    pub merge_threshold: u64,
    /// Hard cap on the region count; splits stop once it is reached.
    pub max_regions: usize,
}

impl Default for SplitConfig {
    fn default() -> Self {
        Self {
            split_threshold: None,
            merge_threshold: 0,
            max_regions: 64,
        }
    }
}

/// The mutable region layout: split points and the store grid they route
/// to, guarded by one `RwLock` so a layout change (rare) excludes routing
/// (hot) without per-operation locking beyond a read acquire.
struct RegionMap {
    /// Sorted split points; region `i` owns `[splits[i-1], splits[i])`.
    splits: Vec<RowKey>,
    /// `split_origin[i]` — boundary `i` was created by an online split, so
    /// the two regions it separates are siblings eligible to merge back.
    /// Constructor-provided boundaries are never merged away.
    split_origin: Vec<bool>,
    /// `regions[r][k]` = replica `k` of region `r`; replica 0 is primary.
    regions: Vec<Vec<Store>>,
    /// Per-region pressure accumulated since the last rebalance decision.
    pressure: Vec<AtomicU64>,
    /// Monotone id for child-store directories (`child-NNNNNN[-rK]`), so
    /// no two stores born from splits or merges ever share a directory.
    next_child: u64,
    /// Bumped on every layout change; a rebalance planned under the read
    /// lock executes under the write lock only if the epoch still matches.
    epoch: u64,
}

impl RegionMap {
    fn region_of(&self, row: &RowKey) -> usize {
        self.splits.partition_point(|s| s <= row)
    }

    fn bump(&self, region: usize, by: u64) {
        self.pressure[region].fetch_add(by, Ordering::Relaxed);
    }
}

/// One layout change, planned under the read lock at a known epoch.
enum Rebalance {
    Split { region: usize, at: RowKey },
    Merge { left: usize },
}

/// A table split into `splits.len() + 1` regions.
pub struct RegionedTable {
    map: RwLock<RegionMap>,
    /// Config the regions were built with (split children reuse it).
    config: StoreConfig,
    /// Online rebalancing policy; default = frozen layout.
    split_config: SplitConfig,
    /// Fault hook consulted by [`Self::try_get_row`] and
    /// [`Self::try_put_rows`]; `None` = clean operations.
    fault: RwLock<Option<Arc<dyn FaultHook>>>,
    /// The table's own counts: the logical ops (`row_gets`, `puts`,
    /// `deletes`, `scans`) and the orphan dirs and manifest tmp files
    /// [`Self::open`] / [`Self::reopen`] swept (`orphans_cleaned`). Its
    /// stores count their physical work.
    ops: LiveOpCounts,
    writes: LiveWriteStats,
    /// Counters of stores this table has dropped — by [`Self::reopen`] (a
    /// crash-restart rebuilds every store with fresh atomics) or by a
    /// split/merge retiring the parent stores. The table's cumulative
    /// history (WAL work, injected failures, power-loss recoveries, runs
    /// scanned) must survive both; folded into [`Self::write_stats`] and
    /// [`Self::op_counts`].
    carried: Mutex<(WriteStatsSnapshot, StoreOpCounts)>,
}

crate::counter_set! {
    /// A snapshot of a table's operation counters (lifetime, relaxed
    /// atomics; cheap enough to keep on in production). The gates use it
    /// to verify the serving path's store-op budget — e.g. that a user
    /// fetch is exactly one row get.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct StoreOpCounts {
        /// Whole-row reads (`get_row`).
        pub row_gets: u64,
        /// Value cells written (`put_rows`).
        pub puts: u64,
        /// Tombstone cells written (`put_rows`).
        pub deletes: u64,
        /// Multi-row scans (`scan_rows`).
        pub scans: u64,
        /// Runs actually searched by reads, summed across every replica of
        /// every region. Read-path *work* detail, not an operation —
        /// excluded from [`StoreOpCounts::total`].
        pub runs_scanned: u64,
        /// Runs skipped by per-run bounds or bloom filters (work detail).
        pub runs_skipped: u64,
        /// Bloom filters that admitted a row a run did not hold (work
        /// detail).
        pub bloom_false_positives: u64,
        /// Torn-cell faults injected on the chaos read path (work detail).
        pub torn_cells: u64,
    }
    /// The operation counters a table bumps, and the run-level read work a
    /// store bumps.
    pub(crate) struct LiveOpCounts;
}

impl StoreOpCounts {
    /// Total *operations* of any kind. The run-level read detail
    /// (`runs_scanned` / `runs_skipped` / `bloom_false_positives` /
    /// `torn_cells`) describes work inside one operation and is
    /// deliberately not summed here: one row read stays one op however
    /// many runs it touches.
    pub fn total(&self) -> u64 {
        self.row_gets + self.puts + self.deletes + self.scans
    }
}

impl RegionedTable {
    /// Create a table with the given split points (must be sorted and
    /// distinct). Each region gets its own store configured by `config`
    /// (per-region subdirectories when a directory is set).
    pub fn new(splits: Vec<RowKey>, config: StoreConfig) -> std::io::Result<Self> {
        assert!(
            splits.windows(2).all(|w| w[0] < w[1]),
            "split points must be sorted and distinct"
        );
        let n_regions = splits.len() + 1;
        let n_replicas = config.replicas.max(1);
        let mut regions = Vec::with_capacity(n_regions);
        for i in 0..n_regions {
            let mut replicas = Vec::with_capacity(n_replicas);
            for k in 0..n_replicas {
                replicas.push(Store::open(Self::replica_config(&config, i, k))?);
            }
            regions.push(replicas);
        }
        let split_origin = vec![false; splits.len()];
        let pressure = (0..n_regions).map(|_| AtomicU64::new(0)).collect();
        let table = Self {
            map: RwLock::new(RegionMap {
                splits,
                split_origin,
                regions,
                pressure,
                next_child: 0,
                epoch: 0,
            }),
            config,
            split_config: SplitConfig::default(),
            fault: RwLock::new(None),
            ops: LiveOpCounts::default(),
            writes: LiveWriteStats::default(),
            carried: Mutex::default(),
        };
        table.persist_layout(&table.map.read())?;
        Ok(table)
    }

    /// Store config for replica `k` of region `i`. Replica 0 keeps the
    /// original `region-NNNN` directory (on-disk compatibility); extra
    /// replicas get their own suffixed directories.
    fn replica_config(config: &StoreConfig, region: usize, replica: usize) -> StoreConfig {
        let mut cfg = config.clone();
        if let Some(dir) = &config.dir {
            cfg.dir = Some(dir.join(replica_dir_name(&format!("region-{region:04}"), replica)));
        }
        cfg
    }

    /// Store config for replica `k` of split/merge child number `child`.
    /// Children live beside the original region directories under fresh
    /// monotone names so a split never reuses (or clobbers) a directory.
    fn child_config(&self, child: u64, replica: usize) -> StoreConfig {
        let mut cfg = self.config.clone();
        if let Some(dir) = &self.config.dir {
            cfg.dir = Some(dir.join(replica_dir_name(&format!("child-{child:06}"), replica)));
        }
        cfg
    }

    /// A single-region table.
    pub fn single(config: StoreConfig) -> std::io::Result<Self> {
        Self::new(Vec::new(), config)
    }

    /// Persist the current layout to `<dir>/layout.manifest` via
    /// write-then-rename — the atomic **commit point** for every layout
    /// change. The manifest records the replica count, the child-directory
    /// counter, and the interleaved region-directory / split-point
    /// sequence; recovery ([`Self::open`]) trusts only it. A crash before
    /// the rename leaves the old manifest (old layout, new child dirs
    /// swept as orphans); a crash after it leaves the new manifest (new
    /// layout, the not-yet-removed parent dirs swept as orphans). Either
    /// way recovery sees exactly one complete layout — never a partial
    /// migration, never duplicated cells. No-op for in-memory tables.
    fn persist_layout(&self, map: &RegionMap) -> std::io::Result<()> {
        let Some(dir) = &self.config.dir else {
            return Ok(());
        };
        let names = map
            .regions
            .iter()
            .map(|region| {
                region[0]
                    .dir()
                    .and_then(|d| d.file_name())
                    .map(|f| f.to_string_lossy().into_owned())
                    .ok_or_else(|| std::io::Error::other("region store has no directory"))
            })
            .collect::<std::io::Result<_>>()?;
        let text = Manifest {
            replicas: map.regions.first().map_or(1, Vec::len),
            next_child: map.next_child,
            names,
            splits: map.splits.clone(),
            split_origin: map.split_origin.clone(),
        }
        .render();
        let tmp = dir.join(format!("{LAYOUT_MANIFEST}.tmp"));
        {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, dir.join(LAYOUT_MANIFEST))?;
        Ok(())
    }

    /// Rebuild a [`RegionMap`] from the manifest: open every referenced
    /// store (WAL replay, run load, bloom/index rebuild — everything a
    /// cold restart does) and sweep whatever the manifest does not
    /// reference.
    fn load_layout(config: &StoreConfig) -> std::io::Result<(RegionMap, ReopenReport)> {
        let dir = config.dir.as_ref().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "RegionedTable::open requires a directory-backed StoreConfig",
            )
        })?;
        let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
        let text = std::fs::read_to_string(dir.join(LAYOUT_MANIFEST))?;
        let Manifest {
            replicas,
            next_child,
            names,
            splits,
            split_origin,
        } = Manifest::parse(&text).map_err(|m| bad(format!("layout.manifest: {m}")))?;
        // The writer creates every store directory before it commits the
        // manifest naming it; a missing one means the manifest is wrong,
        // and opening it would create an empty store in its place.
        for name in &names {
            for k in 0..replicas {
                let sub = replica_dir_name(name, k);
                if !dir.join(&sub).is_dir() {
                    return Err(bad(format!("layout.manifest: no directory {sub}")));
                }
            }
        }
        let mut regions = Vec::with_capacity(names.len());
        let mut referenced = std::collections::HashSet::new();
        let mut orphan_runs = 0u64;
        for name in &names {
            let mut reps = Vec::with_capacity(replicas);
            for k in 0..replicas {
                let sub = replica_dir_name(name, k);
                let mut cfg = config.clone();
                cfg.dir = Some(dir.join(&sub));
                referenced.insert(sub);
                let store = Store::open(cfg)?;
                orphan_runs += store.write_stats().orphans_cleaned;
                reps.push(store);
            }
            regions.push(reps);
        }
        // Sweep everything the manifest does not claim: aborted child dirs
        // from a migration that never committed, parent dirs a committed
        // migration had not yet removed, and a torn manifest tmp.
        let mut orphan_dirs = 0u64;
        let mut orphan_files = 0u64;
        for entry in std::fs::read_dir(dir)?.filter_map(|e| e.ok()) {
            let name = entry.file_name().into_string().unwrap_or_default();
            let path = entry.path();
            if path.is_dir() {
                if !referenced.contains(&name) {
                    std::fs::remove_dir_all(&path)?;
                    orphan_dirs += 1;
                }
            } else if name == format!("{LAYOUT_MANIFEST}.tmp") {
                std::fs::remove_file(&path)?;
                orphan_files += 1;
            }
        }
        let pressure = (0..regions.len()).map(|_| AtomicU64::new(0)).collect();
        let report = ReopenReport {
            regions: regions.len(),
            replicas,
            orphan_dirs_removed: orphan_dirs,
            orphan_files_removed: orphan_files,
            orphan_runs_removed: orphan_runs,
        };
        Ok((
            RegionMap {
                splits,
                split_origin,
                regions,
                pressure,
                next_child,
                epoch: 0,
            },
            report,
        ))
    }

    /// Reopen a table from its on-disk directory — the cold-restart half
    /// of a crash-restart cycle. The layout comes from the manifest
    /// ([`Self::persist_layout`]); every member store replays its WAL,
    /// loads its runs, and rebuilds blooms and bounds from scratch; crash
    /// leftovers are swept and reported. Rebalancing policy and replica
    /// count come from the manifest, not from `config` — call
    /// [`Self::with_rebalancing`] afterwards to re-arm splits.
    pub fn open(config: StoreConfig) -> std::io::Result<(Self, ReopenReport)> {
        let (map, report) = Self::load_layout(&config)?;
        let table = Self {
            map: RwLock::new(map),
            config,
            split_config: SplitConfig::default(),
            fault: RwLock::new(None),
            ops: LiveOpCounts::default(),
            writes: LiveWriteStats::default(),
            carried: Mutex::default(),
        };
        table
            .writes
            .orphans_cleaned
            .add(report.orphan_dirs_removed + report.orphan_files_removed);
        Ok((table, report))
    }

    /// Crash-restart **in place**: discard every region's in-memory state
    /// (memtables, blooms, caches, group-commit windows) and rebuild the
    /// whole table from its on-disk dirs, exactly as [`Self::open`] would.
    /// The new layout is loaded *before* the old one is swapped out, so a
    /// failed reopen leaves the table untouched. Pressure windows reset;
    /// the epoch advances so a rebalance planned against the old layout
    /// can never execute against the new one.
    pub fn reopen(&self) -> std::io::Result<ReopenReport> {
        let (mut new_map, report) = Self::load_layout(&self.config)?;
        let mut map = self.map.write();
        self.carry(map.regions.iter().flatten());
        new_map.epoch = map.epoch + 1;
        *map = new_map;
        drop(map);
        self.writes
            .orphans_cleaned
            .add(report.orphan_dirs_removed + report.orphan_files_removed);
        Ok(report)
    }

    /// Bank the counters of stores about to be dropped (see `carried`).
    /// Called under the map's write lock.
    fn carry<'a>(&self, retired: impl IntoIterator<Item = &'a Store>) {
        let mut carried = self.carried.lock();
        for store in retired {
            carried.0.add(&store.write_stats());
            carried.1.add(&store.op_counts());
        }
    }

    /// Install an online rebalancing policy (see [`SplitConfig`]). The
    /// layout then evolves at [`Self::tick`] boundaries; without this call
    /// the constructed split points are frozen forever.
    pub fn with_rebalancing(mut self, config: SplitConfig) -> Self {
        self.split_config = config;
        self
    }

    /// A table pre-split into (at most) `n_regions` regions at quantile
    /// boundaries of `sorted_user_ids`, so a bulk upload that walks the
    /// sorted id list in contiguous shards keeps each worker inside its own
    /// region's store — concurrent writers never contend on a region lock.
    /// Table *contents* after identical puts do not depend on the split
    /// points, only the physical sharding does.
    ///
    /// Boundaries that collide — because `n_regions` exceeds the id count,
    /// or because duplicate/clustered ids put two quantiles on the same
    /// key — are dropped rather than constructed twice, so the table can
    /// have fewer regions than requested. Callers that shard uploads with
    /// `titant_parallel::chunk_ranges` must chunk by [`Self::region_count`]
    /// (not by the requested `n_regions`), or two shards will contend on
    /// one region's lock.
    ///
    /// # Panics
    /// Panics if `sorted_user_ids` is not sorted (non-decreasing).
    /// Duplicate ids are allowed — they collapse boundaries, visibly.
    pub fn with_user_splits(
        sorted_user_ids: &[u64],
        n_regions: usize,
        config: StoreConfig,
    ) -> std::io::Result<Self> {
        assert!(
            sorted_user_ids.windows(2).all(|w| w[0] <= w[1]),
            "user ids must be sorted"
        );
        let n = sorted_user_ids.len();
        let parts = n_regions.max(1).min(n.max(1));
        // Boundaries at i*n/parts match titant_parallel::chunk_ranges, so a
        // chunked iteration over the same sorted list aligns shard == region.
        let mut splits: Vec<RowKey> = (1..parts)
            .map(|i| RowKey::from_user(sorted_user_ids[i * n / parts]))
            .collect();
        splits.dedup();
        Self::new(splits, config)
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.map.read().regions.len()
    }

    /// Read replicas per region (1 = primary only).
    pub fn replica_count(&self) -> usize {
        self.map.read().regions.first().map_or(1, Vec::len)
    }

    /// The current split points (empty for a single region). A snapshot:
    /// under an active [`SplitConfig`] the layout may change at the next
    /// [`Self::tick`].
    pub fn split_points(&self) -> Vec<RowKey> {
        self.map.read().splits.clone()
    }

    /// Install (or clear) the fault hook consulted by [`Self::try_get_row`]
    /// (reads) and [`Self::try_put_rows`] (writes). Plain reads and plain
    /// writes (`get_row`, `put_rows`, …) always bypass it — injection
    /// targets the online `try_*` paths only, so every other caller stays
    /// byte-identical whether or not a hook is installed.
    pub fn set_fault_hook(&self, hook: Option<Arc<dyn FaultHook>>) {
        *self.fault.write() = hook;
    }

    /// Batched write path: group the cells (values **and** tombstones, any
    /// mix of rows) by owning region and apply each region's sub-batch
    /// through one store batch per replica — one lock acquisition and one
    /// multi-record WAL frame per region per replica, instead of one of
    /// each per cell. The logical op counters are unchanged by batching:
    /// every value counts one `puts`, every tombstone one `deletes`.
    /// Always bypasses the installed fault hook: a bulk upload must not
    /// see injected faults.
    ///
    /// Returns the total simulated group-commit wait the WAL charged
    /// (zero outside [`crate::SyncPolicy::GroupCommit`]), summed in
    /// deterministic region/replica order.
    pub fn put_rows(
        &self,
        cells: Vec<(CellKey, Version, Option<Bytes>)>,
    ) -> std::io::Result<Duration> {
        // Without a hook the only possible fault is a real I/O error.
        self.write_rows(cells.into_iter(), None, WriteOptions::default())
            .map_err(|fault| {
                fault
                    .source
                    .unwrap_or_else(|| std::io::Error::other("hookless fault"))
            })
    }

    /// The one body under [`Self::put_rows`] and [`Self::try_put_rows`].
    /// All but the last replica get a clone of their sub-batch (`Bytes`
    /// values are refcounted and keys are inline values, so a clone
    /// allocates only its `Vec`); the last takes the sub-batch itself, so
    /// `put_rows` on a single-replica table never clones a cell.
    fn write_rows(
        &self,
        cells: impl Iterator<Item = (CellKey, Version, Option<Bytes>)>,
        hook: Option<&dyn FaultHook>,
        opts: WriteOptions,
    ) -> Result<Duration, WriteFault> {
        let map = self.map.read();
        let mut by_region: Vec<Vec<(CellKey, Version, Option<Bytes>)>> =
            (0..map.regions.len()).map(|_| Vec::new()).collect();
        let (mut values, mut tombstones) = (0u64, 0u64);
        for cell in cells {
            if cell.2.is_some() {
                values += 1;
            } else {
                tombstones += 1;
            }
            by_region[map.region_of(&cell.0.row)].push(cell);
        }
        self.ops.puts.add(values);
        self.ops.deletes.add(tombstones);
        let mut waited = Duration::ZERO;
        for (region, batch) in by_region.into_iter().enumerate() {
            let Some(first) = batch.first() else {
                continue;
            };
            map.bump(region, batch.len() as u64);
            // The hook's row coordinate; owned because the batch itself
            // moves into the last replica below.
            let row = first.0.row.clone();
            let ctx = |replica| WriteCtx {
                region,
                replica,
                row: &row,
                tick: opts.tick,
                attempt: opts.attempt,
            };
            let replicas = &map.regions[region];
            let last = replicas.len() - 1;
            for (k, store) in replicas[..last].iter().enumerate() {
                waited += store.try_put_batch(batch.clone(), hook, &ctx(k))?;
            }
            waited += replicas[last].try_put_batch(batch, hook, &ctx(last))?;
        }
        Ok(waited)
    }

    /// One deterministic maintenance tick, in fixed order: close open WAL
    /// group-commit windows and run at most one size-tiered merge per store
    /// (see [`Store::tick`]), then — when a [`SplitConfig`] is active —
    /// turn the pressure window accumulated since the previous tick into at
    /// most **one** region split or merge (reported in
    /// [`TickReport::region_splits`] / [`TickReport::region_merges`]).
    ///
    /// Rebalance decisions depend only on the op counters and the tick
    /// sequence, never on wall clock: identical traffic replays to an
    /// identical layout history.
    pub fn tick(&self) -> std::io::Result<TickReport> {
        let mut report = TickReport::default();
        let planned = {
            let map = self.map.read();
            for store in map.regions.iter().flatten() {
                report.add(&store.tick()?);
            }
            self.plan_rebalance(&map)
        };
        if let Some((epoch, action)) = planned {
            let mut map = self.map.write();
            // Another tick may have rebalanced between our read and write
            // acquisitions; the epoch check pins the plan to the layout it
            // was computed against.
            if map.epoch == epoch {
                match action {
                    Rebalance::Split { region, at } => {
                        self.split_region(&mut map, region, at)?;
                        report.region_splits += 1;
                    }
                    Rebalance::Merge { left } => {
                        self.merge_siblings(&mut map, left)?;
                        report.region_merges += 1;
                    }
                }
            }
        }
        Ok(report)
    }

    /// Read the pressure window (zeroing it) and pick at most one layout
    /// change: the hottest region at/over the split threshold splits at its
    /// median resident row (ties break toward the lowest region index);
    /// failing that, the leftmost split-born boundary with both siblings
    /// under the merge threshold merges. `None` when rebalancing is
    /// disabled or nothing qualifies.
    fn plan_rebalance(&self, map: &RegionMap) -> Option<(u64, Rebalance)> {
        let threshold = self.split_config.split_threshold?;
        let window: Vec<u64> = map
            .pressure
            .iter()
            .map(|p| p.swap(0, Ordering::Relaxed))
            .collect();
        if map.regions.len() < self.split_config.max_regions {
            let hottest = (0..window.len()).max_by_key(|&i| (window[i], std::cmp::Reverse(i)))?;
            if window[hottest] >= threshold {
                // A region holding fewer than two distinct rows has no
                // interior point: it stays whole however hot it runs.
                if let Some(at) = map.regions[hottest][0].median_resident_row() {
                    return Some((
                        map.epoch,
                        Rebalance::Split {
                            region: hottest,
                            at,
                        },
                    ));
                }
            }
        }
        if self.split_config.merge_threshold > 0 {
            for i in 0..map.splits.len() {
                if map.split_origin[i]
                    && window[i] < self.split_config.merge_threshold
                    && window[i + 1] < self.split_config.merge_threshold
                {
                    return Some((map.epoch, Rebalance::Merge { left: i }));
                }
            }
        }
        None
    }

    /// Split `region` at row `at`: per replica, each child store is opened
    /// around one run, the keep-all merge of the parent's memtable and runs
    /// over its side of `at` ([`Store::open_merged`]). Every version and
    /// tombstone moves and no cell re-enters a WAL, so reads are
    /// byte-identical at every `as_of`. The parent stores are retired once
    /// the layout commits.
    fn split_region(&self, map: &mut RegionMap, region: usize, at: RowKey) -> std::io::Result<()> {
        let left_id = map.next_child;
        let right_id = map.next_child + 1;
        map.next_child += 2;
        let mut left = Vec::new();
        let mut right = Vec::new();
        for (k, store) in map.regions[region].iter().enumerate() {
            let cfg = self.child_config(left_id, k);
            left.push(Store::open_merged(cfg, &[store], None, Some(&at))?);
            let cfg = self.child_config(right_id, k);
            right.push(Store::open_merged(cfg, &[store], Some(&at), None)?);
        }
        let old = std::mem::replace(&mut map.regions[region], left);
        map.regions.insert(region + 1, right);
        map.splits.insert(region, at);
        map.split_origin.insert(region, true);
        map.pressure.insert(region + 1, AtomicU64::new(0));
        map.pressure[region].store(0, Ordering::Relaxed);
        map.epoch += 1;
        // COMMIT POINT: the rename inside persist_layout atomically flips
        // recovery from "parent region" to "both children". A crash at any
        // earlier point leaves the children as unreferenced orphans; a
        // crash after it leaves the parents as unreferenced orphans; both
        // are swept on reopen. Never a partial migration either way.
        self.persist_layout(map)?;
        self.retire(old);
        Ok(())
    }

    /// Merge the split-born siblings on either side of boundary `left`:
    /// per replica, one fresh store around the keep-all merge of both
    /// siblings' sources, whose key ranges are disjoint. The inverse of
    /// [`Self::split_region`]; the boundary, its origin flag, and one
    /// pressure slot disappear.
    fn merge_siblings(&self, map: &mut RegionMap, left: usize) -> std::io::Result<()> {
        let merged_id = map.next_child;
        map.next_child += 1;
        let mut merged = Vec::new();
        for (k, (l, r)) in map.regions[left]
            .iter()
            .zip(&map.regions[left + 1])
            .enumerate()
        {
            let cfg = self.child_config(merged_id, k);
            merged.push(Store::open_merged(cfg, &[l, r], None, None)?);
        }
        let mut old = std::mem::replace(&mut map.regions[left], merged);
        old.extend(map.regions.remove(left + 1));
        map.splits.remove(left);
        map.split_origin.remove(left);
        map.pressure.remove(left + 1);
        map.pressure[left].store(0, Ordering::Relaxed);
        map.epoch += 1;
        // COMMIT POINT — same protocol as split_region: before the rename
        // recovery sees both siblings, after it the merged child.
        self.persist_layout(map)?;
        self.retire(old);
        Ok(())
    }

    /// Bank the counters of the stores a committed layout change replaced,
    /// drop them, and remove their directories.
    fn retire(&self, old: Vec<Store>) {
        self.carry(&old);
        let dirs: Vec<_> = old
            .iter()
            .filter_map(|s| s.dir().map(|d| d.to_path_buf()))
            .collect();
        drop(old);
        for d in dirs {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    /// [`Self::put_rows`] behind the installed write fault hook (see
    /// [`Self::set_fault_hook`]), consulted per region/replica sub-batch
    /// with the write's coordinates (region, replica, first row of the
    /// sub-batch, and the caller's `tick`/`attempt`). The first fault
    /// aborts the fan-out — replicas already written keep their cells,
    /// which is safe because a retry rewrites identical cells and
    /// duplicates dedup newest-wins. Each attempt counts its own logical
    /// ops, exactly as a client-side retry against a real region server
    /// would.
    ///
    /// Takes the batch by reference so a retry loop can encode once and
    /// re-submit the same buffer on every attempt; each replica write
    /// costs one clone of the (refcounted-`Bytes`) cells it routes.
    pub fn try_put_rows(
        &self,
        cells: &[(CellKey, Version, Option<Bytes>)],
        opts: WriteOptions,
    ) -> Result<Duration, WriteFault> {
        let hook = self.fault.read().clone();
        self.write_rows(cells.iter().cloned(), hook.as_deref(), opts)
    }

    /// Export every cell (all versions, tombstones included) from every
    /// region's primary replica — the full-table audit surface the crash
    /// bench uses to prove no cell was lost, resurrected, or duplicated.
    pub fn export_cells(&self) -> Vec<(CellKey, Version, Option<Bytes>)> {
        let map = self.map.read();
        let mut out = Vec::new();
        for replicas in &map.regions {
            out.extend(replicas[0].export_cells());
        }
        out
    }

    /// Arm one injected fsync failure on `region`'s primary WAL. Chaos
    /// testing only.
    #[doc(hidden)]
    pub fn inject_wal_sync_failure(&self, region: usize) {
        self.map.read().regions[region][0].inject_wal_sync_failure();
    }

    /// Aggregate write-path counters: the table's own (the crash artifacts
    /// swept by [`Self::open`] / [`Self::reopen`], in `orphans_cleaned`),
    /// the carried counts of dropped stores, and every replica of every
    /// region.
    pub fn write_stats(&self) -> WriteStatsSnapshot {
        // Map before `carried`, the order `carry` runs under: a snapshot
        // never sees a layout change's children without its parents.
        let map = self.map.read();
        let mut out = self.writes.snapshot();
        out.add(&self.carried.lock().0);
        for store in map.regions.iter().flatten() {
            out.add(&store.write_stats());
        }
        out
    }

    /// Per-region write-path counters (each summed over the region's
    /// replicas), in region order. The bench harness uses this to gate the
    /// hottest region's *share* of lock acquisitions as splits engage.
    /// Stores born from a split start from zero — the history of the
    /// parent region stays attributed to the layout that incurred it.
    pub fn region_write_stats(&self) -> Vec<WriteStatsSnapshot> {
        self.map
            .read()
            .regions
            .iter()
            .map(|replicas| {
                let mut out = WriteStatsSnapshot::default();
                for store in replicas {
                    out.add(&store.write_stats());
                }
                out
            })
            .collect()
    }

    /// Read every live cell of one row at or below a version, in key order.
    /// A single store operation against the owning region — the multi-get
    /// the Model Server uses to fetch a party's features in one round trip.
    /// Always a clean primary read: the fault hook applies only to
    /// [`Self::try_get_row`].
    pub fn get_row(&self, row: &RowKey, as_of: Version) -> Vec<(CellKey, Bytes)> {
        self.read_row(&self.map.read(), row, 0, |_, store| {
            store.get_row(row, as_of)
        })
    }

    /// The routing under [`Self::get_row`] and [`Self::try_get_row`]: the
    /// owning region, the read count, the pressure bump. Every region has
    /// the same replica count, so callers check `replica` against any one.
    fn read_row<T>(
        &self,
        map: &RegionMap,
        row: &RowKey,
        replica: usize,
        read: impl FnOnce(usize, &Store) -> T,
    ) -> T {
        let region = map.region_of(row);
        self.ops.row_gets.add(1);
        map.bump(region, 1);
        read(region, &map.regions[region][replica])
    }

    /// One [`Self::get_row`] per row, in input order. Hidden: nothing in
    /// the workspace calls it; the name and signature stay only because
    /// `benchmark/src/api.rs` pins them, and removing it is a benchmark
    /// issue of its own.
    #[doc(hidden)]
    pub fn get_rows(&self, rows: &[RowKey], as_of: Version) -> Vec<Vec<(CellKey, Bytes)>> {
        rows.iter().map(|row| self.get_row(row, as_of)).collect()
    }

    /// [`Self::get_row`] through the fault hook, against the replica the
    /// caller picked. The table routes and injects; the *policy* (retry,
    /// failover, hedge) stays with the caller, which sees exactly which
    /// replica faulted and how much simulated time the attempt consumed.
    ///
    /// A replica index that does not exist in the target region fails with
    /// [`FaultKind::NoSuchReplica`] before touching any store (and before
    /// counting a read op): pre-fix the index silently wrapped modulo the
    /// replica count, so a "hedged" read on a single-replica table re-read
    /// the same primary while the SLO layer counted a real hedge.
    pub fn try_get_row(
        &self,
        row: &RowKey,
        as_of: Version,
        opts: ReadOptions,
    ) -> Result<RowRead, ReadFault> {
        let map = self.map.read();
        if opts.replica >= map.regions[0].len() {
            return Err(ReadFault {
                kind: FaultKind::NoSuchReplica,
                region: map.region_of(row),
                replica: opts.replica,
                waited: Duration::ZERO,
                injected: Duration::ZERO,
            });
        }
        let hook = self.fault.read().clone();
        self.read_row(&map, row, opts.replica, |region, store| {
            let ctx = ReadCtx {
                region,
                replica: opts.replica,
                row,
                tick: opts.tick,
                attempt: opts.attempt,
            };
            store.try_get_row(row, as_of, hook.as_deref(), &ctx, opts.max_wait)
        })
    }

    /// Snapshot the lifetime operation counters: the table's own ops, the
    /// carried counts of dropped stores, and the run-level read work of
    /// every replica of every region.
    pub fn op_counts(&self) -> StoreOpCounts {
        let map = self.map.read();
        let mut out = self.ops.snapshot();
        out.add(&self.carried.lock().1);
        for store in map.regions.iter().flatten() {
            out.add(&store.op_counts());
        }
        out
    }

    /// Flush every region (all replicas).
    pub fn flush(&self) -> std::io::Result<()> {
        for r in self.map.read().regions.iter().flatten() {
            r.flush()?;
        }
        Ok(())
    }

    /// Scan rows across regions in key order (primary replicas). Routes
    /// only to the regions whose key range overlaps `[start, end)` — with
    /// sorted split points that is the contiguous run `lo..=hi` found by
    /// two binary searches; regions the scan provably misses contribute
    /// zero work (no store lock, no runs scanned or skipped).
    pub fn scan_rows(&self, start: &RowKey, end: &RowKey) -> Vec<(CellKey, Bytes)> {
        self.ops.scans.add(1);
        let mut out = Vec::new();
        if start >= end {
            return out;
        }
        let map = self.map.read();
        // Region i owns [splits[i-1], splits[i]): the first overlapping
        // region is the one holding `start`, the last is the one holding
        // the greatest key below `end`.
        let lo = map.splits.partition_point(|s| s <= start);
        let hi = map.splits.partition_point(|s| s < end);
        for region in lo..=hi {
            map.bump(region, 1);
            out.extend(map.regions[region][0].scan_rows(start, end));
        }
        // Regions ascend and `CellKey` sorts row first, so the
        // concatenation of sorted region scans is sorted.
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::SyncPolicy;

    fn table() -> RegionedTable {
        RegionedTable::new(
            vec![RowKey::from_str("m"), RowKey::from_str("t")],
            StoreConfig::default(),
        )
        .unwrap()
    }

    fn key(row: &str) -> CellKey {
        CellKey::new(row, "basic", "age")
    }

    fn put(t: &RegionedTable, key: CellKey, version: Version, value: Bytes) {
        t.put_rows(vec![(key, version, Some(value))]).unwrap();
    }

    fn delete(t: &RegionedTable, key: CellKey, version: Version) {
        t.put_rows(vec![(key, version, None)]).unwrap();
    }

    fn region_of(t: &RegionedTable, row: &RowKey) -> usize {
        t.map.read().region_of(row)
    }

    /// One cell of a row read: the latest value at or below `as_of`.
    fn get(t: &RegionedTable, key: &CellKey, as_of: Version) -> Option<Bytes> {
        let row = t.get_row(&key.row, as_of);
        row.into_iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    #[test]
    fn routing_respects_split_points() {
        let t = table();
        assert_eq!(t.region_count(), 3);
        assert_eq!(region_of(&t, &RowKey::from_str("a")), 0);
        assert_eq!(region_of(&t, &RowKey::from_str("m")), 1);
        assert_eq!(region_of(&t, &RowKey::from_str("s")), 1);
        assert_eq!(region_of(&t, &RowKey::from_str("z")), 2);
    }

    #[test]
    fn cross_region_put_get() {
        let t = table();
        for row in ["alpha", "mike", "zulu"] {
            put(&t, key(row), 1, Bytes::from(row.as_bytes().to_vec()));
        }
        for row in ["alpha", "mike", "zulu"] {
            assert_eq!(
                get(&t, &key(row), u64::MAX).as_deref(),
                Some(row.as_bytes())
            );
        }
    }

    #[test]
    fn user_splits_shard_a_sorted_upload_contiguously() {
        let users: Vec<u64> = (0..100).map(|i| i * 7 + 3).collect();
        let t = RegionedTable::with_user_splits(&users, 4, StoreConfig::default()).unwrap();
        assert_eq!(t.region_count(), 4);
        // Quantile chunks of the sorted id list land in distinct regions,
        // one region per chunk, in order.
        for (chunk, expect_region) in users.chunks(25).zip(0..) {
            for &u in chunk {
                assert_eq!(region_of(&t, &RowKey::from_user(u)), expect_region, "u{u}");
            }
        }
        // Concurrent shard writes produce the same contents as serial puts.
        // The subject is concurrent writers, one per region.
        #[allow(clippy::disallowed_methods)]
        std::thread::scope(|scope| {
            for chunk in users.chunks(25) {
                let t = &t;
                scope.spawn(move || {
                    for &u in chunk {
                        put(
                            t,
                            CellKey::new(RowKey::from_user(u).to_string(), "basic", "v"),
                            1,
                            Bytes::from(u.to_le_bytes().to_vec()),
                        );
                    }
                });
            }
        });
        let single = RegionedTable::single(StoreConfig::default()).unwrap();
        for &u in &users {
            put(
                &single,
                CellKey::new(RowKey::from_user(u).to_string(), "basic", "v"),
                1,
                Bytes::from(u.to_le_bytes().to_vec()),
            );
        }
        let lo = RowKey::from_str("");
        let hi = RowKey::from_str("v");
        assert_eq!(t.scan_rows(&lo, &hi), single.scan_rows(&lo, &hi));
    }

    #[test]
    fn more_regions_than_users_collapses_gracefully() {
        let t = RegionedTable::with_user_splits(&[5, 9], 8, StoreConfig::default()).unwrap();
        assert_eq!(t.region_count(), 2);
        let empty = RegionedTable::with_user_splits(&[], 4, StoreConfig::default()).unwrap();
        assert_eq!(empty.region_count(), 1);
    }

    #[test]
    fn clustered_ids_surface_collapsed_splits() {
        // Pathological distribution: heavy duplication puts two quantile
        // boundaries on the same key. Pre-fix this silently dedup'd (and
        // the strictly-increasing assertion rejected duplicate ids
        // outright); now the collapse is constructible and visible.
        let ids = [1, 1, 1, 1, 2, 2, 2, 3];
        let t = RegionedTable::with_user_splits(&ids, 4, StoreConfig::default()).unwrap();
        // Boundaries at indices 2, 4, 6 -> ids 1, 2, 2 -> splits [u1, u2].
        assert_eq!(t.region_count(), 3, "one of 4 requested regions collapsed");
        // Routing still behaves: region_of is monotone over the id space.
        assert_eq!(region_of(&t, &RowKey::from_user(0)), 0);
        assert_eq!(region_of(&t, &RowKey::from_user(1)), 1);
        assert_eq!(region_of(&t, &RowKey::from_user(2)), 2);
        assert_eq!(region_of(&t, &RowKey::from_user(3)), 2);
    }

    #[test]
    fn scan_merges_regions_in_order() {
        let t = table();
        for row in ["zulu", "alpha", "mike"] {
            put(&t, key(row), 1, Bytes::from_static(b"x"));
        }
        let rows = t.scan_rows(&RowKey::from_str("a"), &RowKey::from_str("zz"));
        let keys: Vec<String> = rows.iter().map(|(k, _)| k.row.to_string()).collect();
        assert_eq!(keys, vec!["alpha", "mike", "zulu"]);
    }

    #[test]
    fn scan_routes_only_to_overlapping_regions() {
        let t = table();
        for row in ["alpha", "mike", "zulu"] {
            put(&t, key(row), 1, Bytes::from_static(b"x"));
        }
        // One run per region, so any region a scan touches shows up in the
        // run-level counters (scanned or bounds-skipped).
        t.flush().unwrap();
        let before = t.op_counts();
        let rows = t.scan_rows(&RowKey::from_str("a"), &RowKey::from_str("b"));
        let delta = t.op_counts().since(&before);
        assert_eq!(rows.len(), 1);
        // Only region 0 was visited: one run scanned, and the disjoint
        // regions contributed zero work — their runs were never even
        // bounds-checked, so nothing was scanned *or* skipped.
        assert_eq!(delta.runs_scanned, 1, "only region 0's run is searched");
        assert_eq!(
            delta.runs_skipped, 0,
            "disjoint regions contribute zero work"
        );
        // A scan spanning two of the three regions touches exactly two runs.
        let before = t.op_counts();
        t.scan_rows(&RowKey::from_str("a"), &RowKey::from_str("n"));
        let delta = t.op_counts().since(&before);
        assert_eq!(delta.runs_scanned, 2);
        assert_eq!(delta.runs_skipped, 0);
        // An empty range is free.
        let before = t.op_counts();
        assert!(t
            .scan_rows(&RowKey::from_str("q"), &RowKey::from_str("q"))
            .is_empty());
        assert_eq!(t.op_counts().since(&before).runs_scanned, 0);
    }

    #[test]
    fn get_row_reads_one_region_in_one_op() {
        let t = table();
        for q in ["a", "b", "c"] {
            put(
                &t,
                CellKey::new("sam", "basic", q),
                1,
                Bytes::from(q.as_bytes().to_vec()),
            );
        }
        put(
            &t,
            CellKey::new("zoe", "basic", "a"),
            1,
            Bytes::from_static(b"z"),
        );
        let before = t.op_counts();
        let row = t.get_row(&RowKey::from_str("sam"), u64::MAX);
        let delta = t.op_counts().since(&before);
        assert_eq!(row.len(), 3);
        assert!(row.iter().all(|(k, _)| k.row == RowKey::from_str("sam")));
        assert_eq!(delta.row_gets, 1);
        assert_eq!(delta.total(), 1, "one row read must be one store op");
    }

    #[test]
    fn op_counters_track_each_operation_kind() {
        let t = table();
        put(&t, key("alpha"), 1, Bytes::from_static(b"x"));
        t.get_row(&RowKey::from_str("alpha"), u64::MAX);
        delete(&t, key("alpha"), 2);
        t.scan_rows(&RowKey::from_str("a"), &RowKey::from_str("z"));
        let ops = t.op_counts();
        assert_eq!(ops.puts, 1);
        assert_eq!(ops.deletes, 1);
        assert_eq!(ops.scans, 1);
        assert_eq!(ops.row_gets, 1);
        assert_eq!(ops.total(), 4);
    }

    #[test]
    fn get_rows_is_get_row_per_row() {
        let t = table();
        for row in ["alpha", "zulu"] {
            put(
                &t,
                CellKey::new(row, "basic", "a"),
                1,
                Bytes::from(row.to_string()),
            );
        }
        // Cross-region, out of key order, with a miss.
        let rows = ["zulu", "nobody", "alpha"].map(RowKey::from_str);
        let before = t.op_counts();
        let batch = t.get_rows(&rows, u64::MAX);
        assert_eq!(t.op_counts().since(&before).row_gets, 3);
        for (row, cells) in rows.iter().zip(&batch) {
            assert_eq!(cells, &t.get_row(row, u64::MAX), "row {row}");
        }
        assert!(batch[1].is_empty());
    }

    #[test]
    fn put_rows_matches_single_cell_batches_and_counts_logical_ops() {
        let batched = table();
        let percell = table();
        let mut cells: Vec<(CellKey, Version, Option<Bytes>)> = Vec::new();
        for row in ["alpha", "mike", "zulu"] {
            for q in ["a", "b", "c"] {
                cells.push((
                    CellKey::new(row, "basic", q),
                    1,
                    Some(Bytes::from(format!("{row}-{q}"))),
                ));
            }
        }
        cells.push((CellKey::new("mike", "basic", "b"), 2, None)); // tombstone
        let before = batched.op_counts();
        batched.put_rows(cells.clone()).unwrap();
        let delta = batched.op_counts().since(&before);
        assert_eq!(delta.puts, 9, "one logical put per value cell");
        assert_eq!(delta.deletes, 1, "one logical delete per tombstone");
        for cell in cells {
            percell.put_rows(vec![cell]).unwrap();
        }
        let lo = RowKey::from_str("");
        let hi = RowKey::from_str("zz");
        assert_eq!(batched.scan_rows(&lo, &hi), percell.scan_rows(&lo, &hi));
        // Physical work: one lock acquisition per touched region (3), vs
        // one per cell (10) when every cell is its own batch.
        assert_eq!(batched.write_stats().lock_acquisitions, 3);
        assert_eq!(percell.write_stats().lock_acquisitions, 10);
    }

    #[test]
    fn put_rows_fans_out_to_replicas() {
        let t = RegionedTable::single(StoreConfig {
            replicas: 2,
            ..Default::default()
        })
        .unwrap();
        t.put_rows(vec![(
            CellKey::new("sam", "basic", "a"),
            1,
            Some(Bytes::from_static(b"v")),
        )])
        .unwrap();
        for replica in 0..2 {
            let read = t
                .try_get_row(
                    &RowKey::from_str("sam"),
                    u64::MAX,
                    crate::fault::ReadOptions {
                        replica,
                        ..Default::default()
                    },
                )
                .unwrap();
            assert_eq!(read.cells.len(), 1, "replica {replica}");
        }
    }

    #[test]
    fn tick_drives_scheduled_compaction_across_regions() {
        let t = RegionedTable::new(
            vec![RowKey::from_str("m")],
            StoreConfig {
                max_runs: 2,
                ..Default::default()
            },
        )
        .unwrap();
        for v in 0..4u64 {
            put(&t, key("alpha"), v, Bytes::from_static(b"x"));
            put(&t, key("zulu"), v, Bytes::from_static(b"y"));
            t.flush().unwrap();
        }
        let report = t.tick().unwrap();
        assert_eq!(report.compactions, 2, "both regions were over max_runs");
        assert_eq!(report.region_splits, 0, "rebalancing is off by default");
        assert_eq!(t.tick().unwrap().compactions, 0, "backlog fully drained");
        for v in 0..4u64 {
            assert!(get(&t, &key("alpha"), v).is_some(), "version {v}");
        }
    }

    #[test]
    fn op_counts_surface_run_level_read_stats() {
        let t = table();
        put(&t, key("alpha"), 1, Bytes::from_static(b"x"));
        t.flush().unwrap();
        put(&t, key("zulu"), 1, Bytes::from_static(b"y"));
        t.flush().unwrap();
        let before = t.op_counts();
        t.get_row(&RowKey::from_str("alpha"), u64::MAX);
        let delta = t.op_counts().since(&before);
        // The read touched region 0's single run; run-level detail is
        // surfaced but never inflates the op total.
        assert_eq!(delta.runs_scanned, 1);
        assert_eq!(delta.total(), 1);
    }

    #[test]
    fn replicas_serve_identical_rows() {
        let t = RegionedTable::new(
            vec![RowKey::from_str("m")],
            StoreConfig {
                replicas: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(t.replica_count(), 3);
        for row in ["alpha", "zulu"] {
            put(&t, key(row), 1, Bytes::from(row.as_bytes().to_vec()));
        }
        let row = RowKey::from_str("alpha");
        let primary = t.get_row(&row, u64::MAX);
        for replica in 0..3 {
            let read = t
                .try_get_row(
                    &row,
                    u64::MAX,
                    crate::fault::ReadOptions {
                        replica,
                        ..Default::default()
                    },
                )
                .unwrap();
            assert_eq!(read.cells, primary, "replica {replica}");
        }
    }

    #[test]
    fn out_of_range_replica_is_a_typed_fault_not_a_wrap() {
        let t = RegionedTable::single(StoreConfig::default()).unwrap();
        put(&t, key("sam"), 1, Bytes::from_static(b"v"));
        let before = t.op_counts();
        // Pre-fix: replica 1 % 1 == 0 silently re-read the primary and the
        // caller believed it had hedged onto different hardware.
        let err = t
            .try_get_row(
                &RowKey::from_str("sam"),
                u64::MAX,
                crate::fault::ReadOptions {
                    replica: 1,
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert_eq!(err.kind, FaultKind::NoSuchReplica);
        assert_eq!(
            err.replica, 1,
            "the fault names the replica that is missing"
        );
        assert_eq!(err.waited, Duration::ZERO);
        let delta = t.op_counts().since(&before);
        assert_eq!(delta.row_gets, 0, "no store was touched, no op is counted");
        // In-range replicas still serve.
        assert!(t
            .try_get_row(
                &RowKey::from_str("sam"),
                u64::MAX,
                crate::fault::ReadOptions::default(),
            )
            .is_ok());
    }

    #[test]
    fn unavailable_primary_fails_over_to_a_replica() {
        use crate::fault::{FaultKind, FaultPlan, FaultPlanConfig, ReadOptions, UnavailableWindow};
        let t = RegionedTable::single(StoreConfig {
            replicas: 2,
            ..Default::default()
        })
        .unwrap();
        put(&t, key("sam"), 1, Bytes::from_static(b"v"));
        t.set_fault_hook(Some(std::sync::Arc::new(FaultPlan::new(FaultPlanConfig {
            unavailable: Some(UnavailableWindow {
                region: 0,
                replica: Some(0),
                from_tick: 0,
                to_tick: 100,
            }),
            ..Default::default()
        }))));
        let row = RowKey::from_str("sam");
        // Primary is down for tick 5…
        let err = t
            .try_get_row(
                &row,
                u64::MAX,
                ReadOptions {
                    tick: 5,
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert_eq!(err.kind, FaultKind::Unavailable);
        // …but replica 1 serves, and after the window the primary recovers.
        assert!(t
            .try_get_row(
                &row,
                u64::MAX,
                ReadOptions {
                    replica: 1,
                    tick: 5,
                    ..Default::default()
                },
            )
            .is_ok());
        assert!(t
            .try_get_row(
                &row,
                u64::MAX,
                ReadOptions {
                    tick: 100,
                    ..Default::default()
                },
            )
            .is_ok());
        // Clearing the hook restores clean reads everywhere.
        t.set_fault_hook(None);
        assert!(t
            .try_get_row(
                &row,
                u64::MAX,
                ReadOptions {
                    tick: 5,
                    ..Default::default()
                },
            )
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "sorted and distinct")]
    fn unsorted_splits_rejected() {
        RegionedTable::new(
            vec![RowKey::from_str("t"), RowKey::from_str("m")],
            StoreConfig::default(),
        )
        .unwrap();
    }

    // ---- online split / merge ------------------------------------------

    fn rebalancing(split_at: u64, merge_at: u64) -> SplitConfig {
        SplitConfig {
            split_threshold: Some(split_at),
            merge_threshold: merge_at,
            max_regions: 64,
        }
    }

    fn seed_users(t: &RegionedTable, n: u64) {
        for u in 0..n {
            put(
                t,
                CellKey::new(RowKey::from_user(u).to_string(), "basic", "v"),
                1,
                Bytes::from(u.to_le_bytes().to_vec()),
            );
        }
    }

    #[test]
    fn hot_region_splits_at_its_median_and_reads_survive() {
        let t = RegionedTable::single(StoreConfig::default())
            .unwrap()
            .with_rebalancing(rebalancing(10, 0));
        seed_users(&t, 16);
        let lo = RowKey::from_str("");
        let hi = RowKey::from_str("v");
        let before_scan = t.scan_rows(&lo, &hi);
        // Seeding alone (16 puts) crossed the threshold.
        let report = t.tick().unwrap();
        assert_eq!(report.region_splits, 1);
        assert_eq!(t.region_count(), 2);
        let splits = t.split_points();
        assert_eq!(splits, vec![RowKey::from_user(8)], "split at the median");
        // Routing honours the new boundary…
        assert_eq!(region_of(&t, &RowKey::from_user(7)), 0);
        assert_eq!(region_of(&t, &RowKey::from_user(8)), 1);
        // …and every read is byte-identical across the split.
        assert_eq!(t.scan_rows(&lo, &hi), before_scan);
        for u in 0..16 {
            let row = RowKey::from_user(u);
            let cells = t.get_row(&row, u64::MAX);
            assert_eq!(cells.len(), 1, "u{u}");
            assert_eq!(cells[0].1.as_ref(), &u.to_le_bytes(), "u{u}");
        }
    }

    #[test]
    fn at_most_one_split_per_tick_and_max_regions_caps_growth() {
        let t = RegionedTable::single(StoreConfig::default())
            .unwrap()
            .with_rebalancing(SplitConfig {
                split_threshold: Some(1),
                merge_threshold: 0,
                max_regions: 3,
            });
        seed_users(&t, 32);
        assert_eq!(t.tick().unwrap().region_splits, 1);
        assert_eq!(t.region_count(), 2, "one split per tick, however hot");
        // Keep the pressure on: reads count too.
        for u in 0..32 {
            t.get_row(&RowKey::from_user(u), u64::MAX);
        }
        assert_eq!(t.tick().unwrap().region_splits, 1);
        assert_eq!(t.region_count(), 3);
        for u in 0..32 {
            t.get_row(&RowKey::from_user(u), u64::MAX);
        }
        let report = t.tick().unwrap();
        assert_eq!(report.region_splits, 0, "max_regions caps growth");
        assert_eq!(t.region_count(), 3);
    }

    #[test]
    fn cold_split_siblings_merge_back_but_constructed_boundaries_never_do() {
        // One constructed boundary at "m"; rebalancing enabled.
        let t = RegionedTable::new(vec![RowKey::from_str("m")], StoreConfig::default())
            .unwrap()
            .with_rebalancing(rebalancing(10, 5));
        seed_users(&t, 16); // all user rows sort below "m" -> region 0 is hot
        assert_eq!(t.tick().unwrap().region_splits, 1);
        assert_eq!(t.region_count(), 3);
        let lo = RowKey::from_str("");
        let hi = RowKey::from_str("z");
        let before_scan = t.scan_rows(&lo, &hi);
        // Let the split siblings go cold (the scan above bumped pressure
        // by one per region — still below the merge threshold of 5).
        let report = t.tick().unwrap();
        assert_eq!(report.region_merges, 1, "cold siblings merge");
        assert_eq!(t.region_count(), 2);
        assert_eq!(
            t.split_points(),
            vec![RowKey::from_str("m")],
            "the constructed boundary is the one that survives"
        );
        // Contents are unchanged by the round trip.
        assert_eq!(t.scan_rows(&lo, &hi), before_scan);
        // And with everything cold, no further merges are possible.
        assert_eq!(t.tick().unwrap().region_merges, 0);
    }

    #[test]
    fn table_counters_stay_monotone_across_split_and_merge() {
        let t = RegionedTable::new(vec![RowKey::from_str("m")], StoreConfig::default())
            .unwrap()
            .with_rebalancing(rebalancing(10, 5));
        seed_users(&t, 16);
        t.flush().unwrap();
        t.get_row(&RowKey::from_user(3), u64::MAX);
        let mut prev = (t.write_stats(), t.op_counts());
        assert!(prev.0.cells_written >= 16 && prev.1.runs_scanned >= 1);
        // First tick splits the hot region, second merges the cold siblings
        // back; both retire stores that hold all of the history above.
        for (splits, merges) in [(1, 0), (0, 1)] {
            let report = t.tick().unwrap();
            assert_eq!(
                (report.region_splits, report.region_merges),
                (splits, merges)
            );
            let now = (t.write_stats(), t.op_counts());
            // Saturating deltas added back reproduce `now` only when no
            // field ran backwards.
            let mut writes = prev.0;
            writes.add(&now.0.since(&prev.0));
            assert_eq!(writes, now.0, "write_stats ran backwards");
            assert_eq!(
                now.0.cells_written, prev.0.cells_written,
                "a migration writes no cell"
            );
            assert_eq!(now.1.since(&prev.1).total(), 0);
            assert!(now.1.runs_scanned >= prev.1.runs_scanned);
            assert!(now.1.runs_skipped >= prev.1.runs_skipped);
            // The reversed pair saturates instead of panicking or wrapping.
            assert_eq!(prev.0.since(&now.0).cells_written, 0);
            prev = now;
        }
        // Per-region stats keep their contract: children start from zero.
        let per_region: u64 = t.region_write_stats().iter().map(|r| r.cells_written).sum();
        assert!(per_region < prev.0.cells_written);
    }

    #[test]
    fn split_preserves_replica_fanout() {
        let t = RegionedTable::single(StoreConfig {
            replicas: 2,
            ..Default::default()
        })
        .unwrap()
        .with_rebalancing(rebalancing(8, 0));
        seed_users(&t, 12);
        assert_eq!(t.tick().unwrap().region_splits, 1);
        assert_eq!(t.region_count(), 2);
        assert_eq!(t.replica_count(), 2, "children inherit the replica count");
        // Both replicas of both children serve the migrated rows…
        for u in [0u64, 11] {
            for replica in 0..2 {
                let read = t
                    .try_get_row(
                        &RowKey::from_user(u),
                        u64::MAX,
                        crate::fault::ReadOptions {
                            replica,
                            ..Default::default()
                        },
                    )
                    .unwrap();
                assert_eq!(read.cells.len(), 1, "u{u} replica {replica}");
            }
        }
        // …and post-split writes keep fanning out to every replica.
        put(
            &t,
            CellKey::new(RowKey::from_user(11).to_string(), "basic", "v"),
            2,
            Bytes::from_static(b"new"),
        );
        for replica in 0..2 {
            let read = t
                .try_get_row(
                    &RowKey::from_user(11),
                    u64::MAX,
                    crate::fault::ReadOptions {
                        replica,
                        ..Default::default()
                    },
                )
                .unwrap();
            assert_eq!(read.cells[0].1.as_ref(), b"new", "replica {replica}");
        }
    }

    #[test]
    fn split_migrates_every_version_and_tombstone() {
        let t = RegionedTable::single(StoreConfig::default())
            .unwrap()
            .with_rebalancing(rebalancing(4, 0));
        // Multi-version history on both sides of the eventual median, part
        // of it flushed into runs, plus a tombstone.
        for u in 0..8u64 {
            for v in 1..=3u64 {
                put(
                    &t,
                    CellKey::new(RowKey::from_user(u).to_string(), "basic", "v"),
                    v,
                    Bytes::from(format!("u{u}v{v}")),
                );
            }
        }
        t.flush().unwrap();
        delete(
            &t,
            CellKey::new(RowKey::from_user(6).to_string(), "basic", "v"),
            4,
        );
        let reference: Vec<_> = (1..=5u64)
            .map(|as_of| {
                (0..8u64)
                    .map(|u| t.get_row(&RowKey::from_user(u), as_of))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(t.tick().unwrap().region_splits, 1);
        for (i, as_of) in (1..=5u64).enumerate() {
            for u in 0..8u64 {
                assert_eq!(
                    t.get_row(&RowKey::from_user(u), as_of),
                    reference[i][u as usize],
                    "u{u} as_of {as_of}"
                );
            }
        }
    }

    #[test]
    fn split_decisions_replay_identically() {
        let drive = |t: &RegionedTable| -> Vec<Vec<RowKey>> {
            let mut layouts = Vec::new();
            for round in 0..6u64 {
                for u in 0..24u64 {
                    put(
                        t,
                        CellKey::new(RowKey::from_user(u).to_string(), "basic", "v"),
                        round + 1,
                        Bytes::from(u.to_le_bytes().to_vec()),
                    );
                }
                for u in 0..8u64 {
                    t.get_row(&RowKey::from_user(u), u64::MAX);
                }
                t.tick().unwrap();
                layouts.push(t.split_points());
            }
            layouts
        };
        let a = RegionedTable::single(StoreConfig::default())
            .unwrap()
            .with_rebalancing(rebalancing(16, 4));
        let b = RegionedTable::single(StoreConfig::default())
            .unwrap()
            .with_rebalancing(rebalancing(16, 4));
        let la = drive(&a);
        let lb = drive(&b);
        assert_eq!(la, lb, "identical traffic must yield identical layouts");
        assert!(
            !la.last().unwrap().is_empty(),
            "the workload actually split (non-vacuous)"
        );
    }

    #[test]
    fn frozen_layout_without_split_config_despite_heavy_traffic() {
        let t = table(); // default SplitConfig: rebalancing disabled
        for _ in 0..3 {
            seed_users(&t, 64);
            let report = t.tick().unwrap();
            assert_eq!(report.region_splits, 0);
            assert_eq!(report.region_merges, 0);
        }
        assert_eq!(t.region_count(), 3, "layout frozen exactly as constructed");
        assert_eq!(
            t.split_points(),
            vec![RowKey::from_str("m"), RowKey::from_str("t")]
        );
    }

    #[test]
    fn single_row_region_never_splits() {
        let t = RegionedTable::single(StoreConfig::default())
            .unwrap()
            .with_rebalancing(rebalancing(2, 0));
        // One row, hammered far past the threshold: no interior point, no
        // split, and no panic.
        for v in 1..=32u64 {
            put(&t, key("solo"), v, Bytes::from_static(b"x"));
        }
        let report = t.tick().unwrap();
        assert_eq!(report.region_splits, 0);
        assert_eq!(t.region_count(), 1);
    }

    #[test]
    fn on_disk_split_survives_and_cleans_up_parent_dirs() {
        let dir = std::env::temp_dir().join(format!("titant-split-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let t = RegionedTable::single(StoreConfig {
            dir: Some(dir.clone()),
            ..Default::default()
        })
        .unwrap()
        .with_rebalancing(rebalancing(8, 0));
        seed_users(&t, 12);
        t.flush().unwrap();
        assert_eq!(t.tick().unwrap().region_splits, 1);
        // The parent region's directory is gone; two children exist.
        assert!(!dir.join("region-0000").exists(), "parent dir removed");
        assert!(dir.join("child-000000").exists());
        assert!(dir.join("child-000001").exists());
        for u in 0..12 {
            assert_eq!(
                t.get_row(&RowKey::from_user(u), u64::MAX).len(),
                1,
                "u{u} readable from its child region"
            );
        }
        drop(t);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The manifest round-trips a split layout through `open`: regions,
    /// split points, origin flags, replica count, child counter, and
    /// contents all survive a cold restart.
    #[test]
    fn open_restores_a_split_layout_from_the_manifest() {
        let dir = std::env::temp_dir().join(format!("titant-manifest-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = StoreConfig {
            dir: Some(dir.clone()),
            replicas: 2,
            ..Default::default()
        };
        let splits;
        {
            let t = RegionedTable::single(cfg.clone())
                .unwrap()
                .with_rebalancing(rebalancing(8, 0));
            seed_users(&t, 12);
            t.flush().unwrap();
            assert_eq!(t.tick().unwrap().region_splits, 1);
            splits = t.split_points();
            // More acknowledged writes *after* the split, flushed so the
            // crash model treats them durable.
            seed_users(&t, 12); // version 1 again: same cells, idempotent
            t.flush().unwrap();
        }
        let (t, report) = RegionedTable::open(cfg).unwrap();
        assert_eq!(report.regions, 2);
        assert_eq!(report.replicas, 2);
        assert_eq!(report.orphan_dirs_removed, 0, "clean shutdown, no orphans");
        assert_eq!(t.region_count(), 2);
        assert_eq!(t.replica_count(), 2);
        assert_eq!(t.split_points(), splits);
        for u in 0..12 {
            assert_eq!(t.get_row(&RowKey::from_user(u), u64::MAX).len(), 1, "u{u}");
        }
        drop(t);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `reopen` is the in-place crash-restart: acknowledged (flushed or
    /// WAL-synced) writes survive, and an aborted child dir planted to
    /// simulate a crash mid-split is swept and counted.
    #[test]
    fn reopen_recovers_contents_and_sweeps_orphans() {
        let dir = std::env::temp_dir().join(format!("titant-reopen-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = StoreConfig {
            dir: Some(dir.clone()),
            sync: SyncPolicy::Always,
            ..Default::default()
        };
        let t = RegionedTable::single(cfg).unwrap();
        seed_users(&t, 8);
        // Crash leftovers: an aborted split child and a torn manifest tmp.
        std::fs::create_dir_all(dir.join("child-000099")).unwrap();
        std::fs::write(dir.join("layout.manifest.tmp"), b"half a manifest").unwrap();
        let report = t.reopen().unwrap();
        assert_eq!(report.orphan_dirs_removed, 1);
        assert_eq!(report.orphan_files_removed, 1);
        assert!(!dir.join("child-000099").exists());
        assert!(!dir.join("layout.manifest.tmp").exists());
        assert_eq!(t.write_stats().orphans_cleaned, 2);
        // Every acknowledged write survived the restart (WAL replay).
        for u in 0..8 {
            assert_eq!(t.get_row(&RowKey::from_user(u), u64::MAX).len(), 1, "u{u}");
        }
        // The reopened table keeps serving writes.
        seed_users(&t, 10);
        assert_eq!(t.get_row(&RowKey::from_user(9), u64::MAX).len(), 1);
        drop(t);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression (table level): one region's failing group-commit sync
    /// must not abort the tick — other regions still sync and compact, and
    /// the error is reported per-region in the aggregate TickReport.
    #[test]
    fn table_tick_finishes_despite_one_regions_sync_failure() {
        let dir = std::env::temp_dir().join(format!("titant-ticktable-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let t = RegionedTable::new(
            vec![RowKey::from_str("m")],
            StoreConfig {
                dir: Some(dir.clone()),
                max_runs: 2,
                sync: SyncPolicy::GroupCommit {
                    max_batch: 64,
                    max_wait: Duration::from_micros(640),
                },
                ..Default::default()
            },
        )
        .unwrap();
        // A compaction backlog in region 1 (tick order: region 0 first, so
        // its failure happens before region 1's work)...
        for v in 0..4u64 {
            put(&t, key("zulu"), v + 2, Bytes::from(format!("v{v}")));
            t.flush().unwrap();
        }
        // ...then pending group-commit frames in both regions (after the
        // flushes, which truncate WALs and clear pending windows).
        put(&t, key("alpha"), 1, Bytes::from_static(b"left"));
        put(&t, key("zulu"), 9, Bytes::from_static(b"pending"));
        t.inject_wal_sync_failure(0);
        let report = t.tick().unwrap();
        assert_eq!(report.wal_sync_errors, 1, "region 0's failure reported");
        assert_eq!(report.wal_synced, 1, "region 1 still synced");
        assert_eq!(report.compactions, 1, "region 1 still compacted");
        assert_eq!(t.write_stats().wal_sync_failures, 1);
        drop(t);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `try_put_rows` with no hook is behaviourally identical to
    /// `put_rows`: same contents, same logical op counts, same physical
    /// write counters.
    #[test]
    fn try_put_rows_without_hook_matches_put_rows() {
        let plain = table();
        let hooked = table();
        let cells: Vec<(CellKey, Version, Option<Bytes>)> = vec![
            (key("alpha"), 1, Some(Bytes::from_static(b"a"))),
            (key("mike"), 1, Some(Bytes::from_static(b"m"))),
            (key("zulu"), 1, None),
        ];
        let w1 = plain.put_rows(cells.clone()).unwrap();
        let w2 = hooked
            .try_put_rows(&cells, WriteOptions::default())
            .unwrap();
        assert_eq!(w1, w2);
        assert_eq!(plain.op_counts(), hooked.op_counts());
        assert_eq!(plain.write_stats(), hooked.write_stats());
        assert_eq!(plain.export_cells(), hooked.export_cells());
    }

    /// The borrowed batch survives the call, so a retry loop can re-submit
    /// the same buffer: each attempt counts its own logical ops (as a
    /// client-side retry would) and rewriting identical cells is
    /// idempotent newest-wins.
    #[test]
    fn try_put_rows_borrowed_batch_can_be_resubmitted() {
        let t = table();
        let cells: Vec<(CellKey, Version, Option<Bytes>)> = vec![
            (key("alpha"), 1, Some(Bytes::from_static(b"a"))),
            (key("zulu"), 1, Some(Bytes::from_static(b"z"))),
        ];
        t.try_put_rows(&cells, WriteOptions::default()).unwrap();
        let after_first = t.export_cells();
        t.try_put_rows(
            &cells,
            WriteOptions {
                tick: 0,
                attempt: 1,
            },
        )
        .unwrap();
        assert_eq!(t.op_counts().puts, 4, "each attempt counts its ops");
        assert_eq!(
            t.export_cells(),
            after_first,
            "identical rewrite is a no-op on contents"
        );
    }

    /// Everything under a directory: each file with its bytes, and each
    /// directory as `None`.
    type Tree = std::collections::BTreeMap<std::path::PathBuf, Option<Vec<u8>>>;

    fn tree(dir: &std::path::Path) -> Tree {
        let mut out = Tree::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    out.insert(path.clone(), None);
                    stack.push(path);
                } else {
                    let bytes = std::fs::read(&path).unwrap();
                    out.insert(path, Some(bytes));
                }
            }
        }
        out
    }

    /// Put `dir` back exactly as [`tree`] saw it.
    fn restore(dir: &std::path::Path, saved: &Tree) {
        std::fs::remove_dir_all(dir).unwrap();
        std::fs::create_dir_all(dir).unwrap();
        // Parents sort before their children.
        for (path, bytes) in saved {
            match bytes {
                None => std::fs::create_dir_all(path).unwrap(),
                Some(bytes) => std::fs::write(path, bytes).unwrap(),
            }
        }
    }

    /// An on-disk table with two replicas and three regions: `region-0000`,
    /// then `child-000000` and `child-000001` split from `region-0001`.
    /// Returns its config and its manifest text.
    fn manifest_fixture(dir: &std::path::Path) -> (StoreConfig, String) {
        std::fs::remove_dir_all(dir).ok();
        let cfg = StoreConfig {
            dir: Some(dir.to_path_buf()),
            replicas: 2,
            ..Default::default()
        };
        let t = RegionedTable::new(vec![RowKey::from_str("m")], cfg.clone())
            .unwrap()
            .with_rebalancing(rebalancing(8, 0));
        seed_users(&t, 12);
        t.flush().unwrap();
        assert_eq!(t.tick().unwrap().region_splits, 1);
        drop(t);
        let text = std::fs::read_to_string(dir.join(LAYOUT_MANIFEST)).unwrap();
        assert!(text.contains("region region-0000\nsplit 6d fixed\nregion child-000000\nsplit "));
        (cfg, text)
    }

    fn open_err(cfg: &StoreConfig) -> Option<std::io::ErrorKind> {
        RegionedTable::open(cfg.clone()).err().map(|e| e.kind())
    }

    /// Each manifest defect is refused as `InvalidData` before any store
    /// is opened or anything swept: the directory is left byte-identical.
    #[test]
    fn open_refuses_a_manifest_its_writer_never_writes() {
        let dir = std::env::temp_dir().join(format!("titant-badmanifest-{}", std::process::id()));
        let (cfg, text) = manifest_fixture(&dir);
        let path = dir.join(LAYOUT_MANIFEST);
        let split_line = text.lines().find(|l| l.ends_with(" origin")).unwrap();
        let hex = split_line.split(' ').nth(1).unwrap();
        let edits: Vec<(&str, String)> = vec![
            (
                "non-hex split",
                text.replace("split 6d fixed", "split a\u{e9}b fixed"),
            ),
            (
                "uppercase hex",
                text.replace("split 6d fixed", "split 6D fixed"),
            ),
            ("odd hex", text.replace("split 6d fixed", "split 6d0 fixed")),
            (
                "huge replica count",
                text.replace("replicas 2", "replicas 99999999999999"),
            ),
            ("zero replicas", text.replace("replicas 2", "replicas 0")),
            ("leading zero", text.replace("replicas 2", "replicas 02")),
            (
                "escaping name",
                text.replace("region region-0000", "region ../escaped-0000"),
            ),
            (
                "foreign name",
                text.replace("region region-0000", "region region-0"),
            ),
            (
                "duplicate name",
                text.replace("child-000001", "child-000000"),
            ),
            (
                "child past next_child",
                text.replace("next_child 2", "next_child 1"),
            ),
            (
                "missing directory",
                text.replace("region-0000", "region-0007"),
            ),
            ("missing replica", text.replace("replicas 2", "replicas 3")),
            ("unsorted splits", text.replace(hex, "6c")),
            ("repeated split", text.replace(hex, "6d")),
            ("bad origin", text.replace(" origin", " born")),
            ("extra token", text.replace("replicas 2", "replicas 2 2")),
            ("tab separator", text.replace("replicas 2", "replicas\t2")),
            ("missing next_child", text.replace("next_child 2\n", "")),
            (
                "region count",
                text.replace("\nregion child-000001\n", "\n"),
            ),
            ("no final newline", text.trim_end().to_string()),
            ("unknown directive", format!("{text}compact now\n")),
        ];
        let before = tree(&dir);
        for (name, edited) in edits {
            assert_ne!(edited, text, "{name}: the edit applies");
            std::fs::write(&path, &edited).unwrap();
            assert_eq!(
                open_err(&cfg),
                Some(std::io::ErrorKind::InvalidData),
                "{name}"
            );
            std::fs::write(&path, &text).unwrap();
            assert!(tree(&dir) == before, "{name}: the directory is untouched");
        }
        let (t, report) = RegionedTable::open(cfg).unwrap();
        assert_eq!((report.regions, report.replicas), (3, 2));
        assert_eq!(report.orphan_dirs_removed, 0);
        drop(t);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every truncation and every single-bit flip of a real manifest
    /// either is refused as `InvalidData` with the directory untouched, or
    /// is a manifest the writer itself could have written: a cut just
    /// after a `region` line (a shorter layout), or a flip inside a split
    /// point or `next_child` that leaves another valid value. Only a
    /// checksum could tell those apart, and it would change the bytes on
    /// disk. Either way it names no store the original did not, and
    /// nothing panics or allocates by what the bytes claim.
    #[test]
    fn every_truncation_and_bit_flip_of_a_manifest_is_refused_or_canonical() {
        let dir = std::env::temp_dir().join(format!("titant-manifestflip-{}", std::process::id()));
        let (cfg, text) = manifest_fixture(&dir);
        let path = dir.join(LAYOUT_MANIFEST);
        let file = text.as_bytes();
        let original = Manifest::parse(&text).unwrap();
        let saved = tree(&dir);
        let check = |bytes: &[u8], what: String| {
            let parsed = std::str::from_utf8(bytes).map(Manifest::parse);
            if let Ok(Ok(manifest)) = &parsed {
                assert_eq!(manifest.render().as_bytes(), bytes, "{what}: not canonical");
            }
            std::fs::write(&path, bytes).unwrap();
            match RegionedTable::open(cfg.clone()) {
                Err(e) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{what}");
                    std::fs::write(&path, file).unwrap();
                    assert!(tree(&dir) == saved, "{what}: the directory is untouched");
                }
                Ok((t, _)) => {
                    let Ok(Ok(manifest)) = parsed else {
                        panic!("{what}: opened but does not parse")
                    };
                    assert_eq!(manifest.replicas, original.replicas, "{what}");
                    assert!(original.names.starts_with(&manifest.names), "{what}");
                    drop(t);
                    restore(&dir, &saved);
                }
            }
        };
        for cut in 0..file.len() {
            check(&file[..cut], format!("cut {cut}"));
        }
        let mut flipped = file.to_vec();
        for bit in 0..file.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            check(&flipped, format!("bit {bit}"));
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
