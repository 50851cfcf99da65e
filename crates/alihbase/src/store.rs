//! The LSM store: WAL + memtable + sorted runs + compaction.

use crate::fault::{
    FaultAction, FaultHook, FaultKind, ReadCtx, ReadFault, RowRead, WriteCtx, WriteFault,
    WriteFaultAction, WriteFaultKind,
};
use crate::memtable::MemTable;
use crate::region::{LiveOpCounts, StoreOpCounts};
use crate::sstable::{RowPresence, SsTable};
use crate::types::{Cell, CellKey, RowKey, Version};
use crate::wal::{SyncPolicy, Wal};
use bytes::Bytes;
use parking_lot::RwLock;
use std::cell::OnceCell;
use std::cmp::Reverse;
use std::path::PathBuf;
use std::time::Duration;

/// Store tuning knobs.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Flush the memtable once it holds roughly this many bytes.
    pub memtable_flush_bytes: usize,
    /// A [`Store::tick`] merges once more than this many runs accumulate;
    /// writers never compact.
    pub max_runs: usize,
    /// Directory for the WAL and persisted runs; `None` = fully in-memory
    /// (no durability, used by tests and benchmarks).
    pub dir: Option<PathBuf>,
    /// WAL durability policy (see [`SyncPolicy`]).
    pub sync: SyncPolicy,
    /// Read replicas per region when this config builds a
    /// [`crate::RegionedTable`] (a single `Store` ignores it). Writes fan
    /// out to every replica; reads pick one and can fail over.
    pub replicas: usize,
    /// Bits per distinct row for each run's bloom filter; 0 disables the
    /// filters entirely (every read then scans every run, the pre-bloom
    /// behaviour — useful as an equivalence baseline).
    pub bloom_bits_per_key: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            memtable_flush_bytes: 4 << 20,
            max_runs: 6,
            dir: None,
            sync: SyncPolicy::default(),
            replicas: 1,
            bloom_bits_per_key: crate::bloom::DEFAULT_BITS_PER_KEY,
        }
    }
}

crate::counter_set! {
    /// Point-in-time copy of a store's write-path counters, WAL work
    /// included: *physical-work* diagnostics, deliberately apart from the
    /// logical operation counts in [`StoreOpCounts::total`] — batching
    /// changes how much physical work a logical write costs, never how many
    /// logical writes happened.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct WriteStatsSnapshot {
        /// Exclusive store-lock acquisitions taken to apply writes: one per
        /// batch (`put_batch` / `try_put_batch`), however many cells it
        /// holds.
        pub lock_acquisitions: u64,
        /// Cells applied to the memtable through the write path.
        pub cells_written: u64,
        /// `put_batch` calls.
        pub batches: u64,
        /// WAL frames appended (a batch is one frame).
        pub wal_frames: u64,
        /// WAL records across all frames.
        pub wal_records: u64,
        /// fdatasync barriers the WAL issued (appends and truncates).
        pub wal_syncs: u64,
        /// WAL bytes written, frame headers included.
        pub wal_bytes: u64,
        /// Simulated group-commit wait charged to deferred appends (µs;
        /// always 0 outside [`SyncPolicy::GroupCommit`]).
        pub wal_simulated_wait_micros: u64,
        /// Injected WAL append I/O errors surfaced by
        /// [`Store::try_put_batch`].
        pub wal_append_failures: u64,
        /// fsync failures surfaced by [`Store::try_put_batch`] or by a
        /// tick's group-commit barrier.
        pub wal_sync_failures: u64,
        /// Simulated power losses recovered in place (WAL tail truncated,
        /// memtable rebuilt from the surviving prefix).
        pub power_loss_recoveries: u64,
        /// Leftover crash artifacts (temp run files, aborted child dirs)
        /// removed on open.
        pub orphans_cleaned: u64,
    }
    /// What a store (all but the `wal_*` fields, which its WAL counts) or
    /// a table (`orphans_cleaned`) bumps.
    pub(crate) struct LiveWriteStats;
}

crate::counter_set! {
    /// What one [`Store::tick`] did.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct TickReport {
        /// Tiered merges performed (at most 1 per store per tick).
        pub compactions: u64,
        /// Input runs consumed by those merges.
        pub runs_merged: u64,
        /// Stores whose WAL had a pending group-commit window synced.
        pub wal_synced: u64,
        /// Regions split by [`crate::RegionedTable::tick`] (a single store
        /// never splits; at most 1 per table tick).
        pub region_splits: u64,
        /// Cold sibling pairs merged by [`crate::RegionedTable::tick`] (at
        /// most 1 per table tick).
        pub region_merges: u64,
        /// Stores whose pending group-commit sync *failed* this tick. The
        /// tick carries on (the frames stay pending for the next barrier) —
        /// one region's sick disk must not stall compaction everywhere
        /// else.
        pub wal_sync_errors: u64,
    }
}

/// One sorted source of a merge: the memtable's cells in a key range (a
/// key's versions newest first) or a run's slice (one entry per version,
/// newest first within a key).
enum Source<'a, M> {
    Memtable(M),
    Run(std::slice::Iter<'a, (CellKey, Cell)>),
}

impl<'a, M: Iterator<Item = (&'a CellKey, &'a Cell)>> Iterator for Source<'a, M> {
    type Item = (&'a CellKey, &'a Cell);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Self::Memtable(cells) => cells.next(),
            Self::Run(entries) => entries.next().map(|(key, cell)| (key, cell)),
        }
    }
}

/// The store's one merge: a k-way cursor over sorted sources, given newest
/// first (the memtable, then runs newest first). It yields cells key
/// ascending, version descending; a `(key, version)` that several sources
/// hold comes out once, as the first (newest) source's copy — the tie the
/// memtable's last-write-wins and a newer run shadowing an older one both
/// promise. Two consumers: [`Self::visible`] (row reads and scans) and
/// [`Self::keep_all`] (compaction, region split, sibling merge).
struct Merge<'a, M> {
    sources: Vec<Source<'a, M>>,
    /// Each source's current cell.
    heads: Vec<Option<(&'a CellKey, &'a Cell)>>,
}

impl<'a, M: Iterator<Item = (&'a CellKey, &'a Cell)>> Merge<'a, M> {
    fn new(sources: impl IntoIterator<Item = Source<'a, M>>) -> Self {
        let mut sources: Vec<_> = sources.into_iter().collect();
        let heads = sources.iter_mut().map(Iterator::next).collect();
        Self { sources, heads }
    }

    /// The smallest head; the earliest source wins a tie.
    fn peek(&self) -> Option<(&'a CellKey, &'a Cell)> {
        let mut best: Option<(&CellKey, &Cell)> = None;
        for &(key, cell) in self.heads.iter().flatten() {
            if best.is_none_or(|(k, c)| (key, Reverse(cell.version)) < (k, Reverse(c.version))) {
                best = Some((key, cell));
            }
        }
        best
    }

    /// Step every source past the head cells `skip` accepts.
    fn skip(&mut self, skip: impl Fn(&CellKey, &Cell) -> bool) {
        for (head, source) in self.heads.iter_mut().zip(&mut self.sources) {
            while head.is_some_and(|(key, cell)| skip(key, cell)) {
                *head = source.next();
            }
        }
    }

    /// Every version and tombstone, in run order: what a merged run holds.
    fn keep_all(mut self) -> Vec<(CellKey, Cell)> {
        let mut out = Vec::with_capacity(self.sources.iter().map(|s| s.size_hint().0).sum());
        while let Some((key, cell)) = self.peek() {
            self.skip(|k, c| k == key && c.version == cell.version);
            out.push((key.clone(), cell.clone()));
        }
        out
    }

    /// For each key the newest version at or below `as_of`, tombstones
    /// elided: what a read sees.
    fn visible(mut self, as_of: Version, capacity: usize) -> Vec<(CellKey, Bytes)> {
        let mut out = Vec::with_capacity(capacity);
        while let Some((key, cell)) = self.peek() {
            if cell.version > as_of {
                // Invisible in every source.
                self.skip(|k, c| k == key && c.version > as_of);
                continue;
            }
            // The key's older versions cannot win.
            self.skip(|k, _| k == key);
            if let Some(value) = &cell.value {
                out.push((key.clone(), value.clone()));
            }
        }
        out
    }
}

/// The newest version at or below `as_of` of each key in one run's row
/// slice, tombstones elided: what the merge reads when that run is its only
/// source.
fn newest_visible(cells: &[(CellKey, Cell)], as_of: Version) -> Vec<(CellKey, Bytes)> {
    let mut out = Vec::with_capacity(cells.len());
    let mut last = None;
    for (key, cell) in cells {
        // Versions run newest first within a key: once one is visible,
        // the key's older versions cannot win.
        if cell.version > as_of || last == Some(key) {
            continue;
        }
        last = Some(key);
        if let Some(value) = &cell.value {
            out.push((key.clone(), value.clone()));
        }
    }
    out
}

struct Inner {
    memtable: MemTable,
    /// Newest run first.
    runs: Vec<SsTable>,
    /// Run ids parallel to `runs` (strictly descending). Ids double as the
    /// on-disk file names, so keeping them aligned with the in-memory
    /// order guarantees a reload sees runs in the same newest-first order
    /// — which is what resolves duplicate-version ties (newest run wins).
    run_ids: Vec<u64>,
    wal: Option<Wal>,
    next_run_id: u64,
}

impl Inner {
    /// The merge sources of rows `[start, end)`, newest first: the
    /// memtable's range, then each run's slice.
    fn sources(
        &self,
        start: Option<&RowKey>,
        end: Option<&RowKey>,
    ) -> Vec<Source<'_, impl Iterator<Item = (&CellKey, &Cell)> + '_>> {
        let mut out = vec![Source::Memtable(self.memtable.cells(start, end))];
        out.extend(
            self.runs
                .iter()
                .map(|run| Source::Run(run.rows(start, end).iter())),
        );
        out
    }
}

/// A single-region LSM store (one "HStore" in HBase terms). Thread-safe:
/// reads take a shared lock, writes an exclusive one.
pub struct Store {
    config: StoreConfig,
    inner: RwLock<Inner>,
    /// Run-level read work (`runs_scanned`, `runs_skipped`,
    /// `bloom_false_positives`, `torn_cells`); the table counts the ops.
    reads: LiveOpCounts,
    writes: LiveWriteStats,
}

impl Store {
    /// Open a store. With a directory configured, replays the WAL and
    /// loads persisted runs (crash recovery).
    pub fn open(config: StoreConfig) -> std::io::Result<Self> {
        let mut memtable = MemTable::new();
        let mut runs = Vec::new();
        let mut run_ids = Vec::new();
        let mut wal = None;
        let mut next_run_id = 0;
        let mut orphans_cleaned = 0u64;
        if let Some(dir) = &config.dir {
            std::fs::create_dir_all(dir)?;
            // Sweep crash leftovers first: a `run-*.sst.tmp` is a merge
            // that died before its rename and is by construction redundant
            // (every cell still lives in the window's source runs). Loading
            // it would double cells; failing on it would brick recovery.
            for entry in std::fs::read_dir(dir)?.filter_map(|e| e.ok()) {
                let name = entry.file_name().into_string().unwrap_or_default();
                if name.starts_with("run-") && name.ends_with(".sst.tmp") {
                    std::fs::remove_file(entry.path())?;
                    orphans_cleaned += 1;
                }
            }
            // Load persisted runs, newest (highest id) first.
            let mut run_files: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)?
                .filter_map(|e| e.ok())
                .filter_map(|e| {
                    let name = e.file_name().into_string().ok()?;
                    let id: u64 = name
                        .strip_prefix("run-")?
                        .strip_suffix(".sst")?
                        .parse()
                        .ok()?;
                    Some((id, e.path()))
                })
                .collect();
            run_files.sort_by_key(|(id, _)| std::cmp::Reverse(*id));
            next_run_id = run_files.first().map_or(0, |(id, _)| id + 1);
            for (id, path) in run_files {
                let mut run = SsTable::load(&path)?;
                // Blooms are not persisted: rebuild them (deterministic
                // function of the run's rows, so recovery is exact).
                run.rebuild_index(config.bloom_bits_per_key);
                runs.push(run);
                run_ids.push(id);
            }
            let (w, replayed) = Wal::open_with(&dir.join("wal.log"), config.sync)?;
            for r in replayed {
                memtable.put(r.key, r.version, r.value);
            }
            wal = Some(w);
        }
        let store = Self {
            config,
            inner: RwLock::new(Inner {
                memtable,
                runs,
                run_ids,
                wal,
                next_run_id,
            }),
            reads: LiveOpCounts::default(),
            writes: LiveWriteStats::default(),
        };
        store.writes.orphans_cleaned.add(orphans_cleaned);
        Ok(store)
    }

    /// Snapshot the run-level read work (the operation fields stay zero:
    /// the table counts those).
    pub fn op_counts(&self) -> StoreOpCounts {
        self.reads.snapshot()
    }

    /// Snapshot the write-path counters: the store's own plus its WAL's.
    pub fn write_stats(&self) -> WriteStatsSnapshot {
        let mut out = self.writes.snapshot();
        if let Some(wal) = &self.inner.read().wal {
            out.add(&wal.stats());
        }
        out
    }

    /// Apply a batch of cell writes (values and tombstones) under **one**
    /// lock acquisition and **one** multi-record WAL frame. The frame's
    /// single CRC makes crash recovery all-or-nothing for the batch: a torn
    /// tail can lose the whole batch but never replay a prefix of it.
    ///
    /// The memtable flush threshold is checked once, after the whole batch
    /// is applied. Returns the simulated group-commit wait charged to this
    /// batch's WAL append (zero outside [`SyncPolicy::GroupCommit`]),
    /// which SLO-aware callers account as virtual time.
    pub fn put_batch(
        &self,
        cells: Vec<(CellKey, Version, Option<Bytes>)>,
    ) -> std::io::Result<Duration> {
        if cells.is_empty() {
            return Ok(Duration::ZERO);
        }
        let mut inner = self.inner.write();
        self.writes.lock_acquisitions.add(1);
        self.writes.batches.add(1);
        self.writes.cells_written.add(cells.len() as u64);
        let mut waited = Duration::ZERO;
        if let Some(wal) = &mut inner.wal {
            waited = wal.append_batch(&cells)?;
        }
        for (key, version, value) in cells {
            inner.memtable.put(key, version, value);
        }
        if inner.memtable.approx_bytes() >= self.config.memtable_flush_bytes {
            self.flush_locked(&mut inner)?;
        }
        Ok(waited)
    }

    /// [`Self::put_batch`] behind a write fault hook: consult `hook` (when
    /// present) for this write's fate before touching WAL or memtable.
    ///
    /// * `WriteFaultAction::None` — delegates to `put_batch` unchanged, so
    ///   with no hook (or a quiet one) counters and behaviour are
    ///   byte-identical to the plain path.
    /// * `Latency(d)` — sleeps `d` (real, like the read path) then writes;
    ///   `d` joins the returned simulated wait.
    /// * `AppendError` — the WAL write never happens: nothing reaches disk
    ///   or the memtable. A clean, retryable I/O error.
    /// * `SyncError` — the frame reaches the *file* but its durability
    ///   barrier fails: the memtable is not updated and the caller must not
    ///   acknowledge. A later successful barrier may still make the frame
    ///   durable — harmless, because a retry rewrites the identical cells
    ///   and duplicate `(key, version)` entries dedup newest-wins.
    /// * `PowerLoss` — the box dies mid-write: every in-memory structure is
    ///   discarded and the WAL file is cut back to its last durability
    ///   barrier, then the store rebuilds itself in place exactly as a cold
    ///   restart would (runs are on-disk files and survive; a dir-less
    ///   store loses everything). The triggering write is not applied.
    pub fn try_put_batch(
        &self,
        cells: Vec<(CellKey, Version, Option<Bytes>)>,
        hook: Option<&dyn FaultHook>,
        ctx: &WriteCtx<'_>,
    ) -> Result<Duration, WriteFault> {
        let action = hook.map_or(WriteFaultAction::None, |h| h.on_write(ctx));
        let fault = |kind: WriteFaultKind, source: Option<std::io::Error>| WriteFault {
            kind,
            region: ctx.region,
            replica: ctx.replica,
            waited: Duration::ZERO,
            source,
        };
        let io_fault = |e: std::io::Error| WriteFault {
            kind: WriteFaultKind::Io,
            region: ctx.region,
            replica: ctx.replica,
            waited: Duration::ZERO,
            source: Some(e),
        };
        match action {
            WriteFaultAction::None => self.put_batch(cells).map_err(io_fault),
            WriteFaultAction::Latency(d) => {
                std::thread::sleep(d);
                let waited = self.put_batch(cells).map_err(io_fault)?;
                Ok(waited + d)
            }
            WriteFaultAction::AppendError => {
                self.writes.wal_append_failures.add(1);
                Err(fault(WriteFaultKind::AppendError, None))
            }
            WriteFaultAction::SyncError => {
                let mut inner = self.inner.write();
                self.writes.lock_acquisitions.add(1);
                self.writes.wal_sync_failures.add(1);
                if let Some(wal) = &mut inner.wal {
                    // The frame lands in the file (it may yet become
                    // durable at a later barrier) but the fsync "failed":
                    // no acknowledgment, no memtable update.
                    wal.append_batch_unsynced(&cells).map_err(io_fault)?;
                }
                Err(fault(WriteFaultKind::SyncError, None))
            }
            WriteFaultAction::PowerLoss => {
                let mut inner = self.inner.write();
                self.writes.lock_acquisitions.add(1);
                self.writes.power_loss_recoveries.add(1);
                self.power_loss_locked(&mut inner).map_err(io_fault)?;
                Err(fault(WriteFaultKind::PowerLoss, None))
            }
        }
    }

    /// Discard all volatile state and rebuild from the durable prefix, in
    /// place: the crash half of a crash-restart cycle, under the write
    /// lock so readers only ever see pre- or post-crash state.
    fn power_loss_locked(&self, inner: &mut Inner) -> std::io::Result<()> {
        inner.memtable = MemTable::new();
        if let Some(wal) = &mut inner.wal {
            for r in wal.power_loss()? {
                inner.memtable.put(r.key, r.version, r.value);
            }
        } else {
            // No directory: nothing survives — total amnesia.
            inner.runs.clear();
            inner.run_ids.clear();
        }
        Ok(())
    }

    /// Arm one injected fsync failure on this store's WAL, so the next
    /// durability barrier (e.g. a tick's group-commit sync) fails. Chaos
    /// testing only.
    #[doc(hidden)]
    pub fn inject_wal_sync_failure(&self) {
        if let Some(wal) = &mut self.inner.write().wal {
            wal.inject_sync_failures(1);
        }
    }

    /// Read every live cell of one row in a single pass: for each cell key
    /// the latest version at or below `as_of`, tombstones elided. One lock
    /// acquisition, then a merge of the sources that can hold the row — the
    /// memtable's row range and the row slice of each run its bounds and
    /// bloom admit, all already sorted by cell key — straight into a result
    /// sized once. Where several sources hold a key the higher version
    /// wins; on equal versions the memtable beats every run and a newer run
    /// an older one. The store side of the serving fast path.
    ///
    /// The common read — nothing in the memtable for the row, and at most
    /// one run admitted — skips the merge: it copies the newest visible
    /// version of each key straight from that run's row slice. The row is
    /// hashed for the bloom filters once per read, and the memtable's row
    /// range is located once.
    pub fn get_row(&self, row: &RowKey, as_of: Version) -> Vec<(CellKey, Bytes)> {
        let inner = self.inner.read();
        let probe = OnceCell::new();
        let mut skipped = 0u64;
        let mut false_positives = 0u64;
        // The row slices of the admitted runs, newest first like
        // `inner.runs`: source order breaks version ties. The first stays
        // apart, so a one-run read stages nothing.
        let mut first = None;
        let mut more = Vec::new();
        for run in &inner.runs {
            let bloom_checked = match run.row_presence(row, &probe) {
                RowPresence::OutOfBounds | RowPresence::BloomMiss => {
                    skipped += 1;
                    continue;
                }
                RowPresence::Possible { bloom_checked } => bloom_checked,
            };
            let cells = run.row_slice(row);
            // The filter admitted the row but the run holds none of its
            // cells: a genuine bloom false positive.
            if bloom_checked && cells.is_empty() {
                false_positives += 1;
            }
            match first {
                None => first = Some(cells),
                Some(_) => more.push(cells),
            }
        }
        self.reads
            .runs_scanned
            .add(inner.runs.len() as u64 - skipped);
        self.reads.runs_skipped.add(skipped);
        self.reads.bloom_false_positives.add(false_positives);

        let from_row = inner.memtable.cells(Some(row), None);
        let mut memtable = from_row.take_while(|(k, _)| k.row == *row).peekable();
        if memtable.peek().is_none() && more.is_empty() {
            return first.map_or_else(Vec::new, |cells| newest_visible(cells, as_of));
        }
        // Sized by a copy of the positioned cursor: no second descent.
        let capacity =
            memtable.clone().count() + first.iter().chain(&more).map(|c| c.len()).sum::<usize>();
        let runs = first.into_iter().chain(more).map(|c| Source::Run(c.iter()));
        Merge::new(std::iter::once(Source::Memtable(memtable)).chain(runs)).visible(as_of, capacity)
    }

    /// [`Self::get_row`] behind a fault hook: consult `hook` (when present)
    /// for this read's fate before touching the LSM.
    ///
    /// * `FaultAction::None` — a clean read, `waited` is zero.
    /// * `FaultAction::Transient` / `FaultAction::Unavailable` — the read
    ///   fails immediately with the matching [`ReadFault`].
    /// * `FaultAction::Latency(d)` — sleeps `d` then reads; but when the
    ///   caller passed `max_wait < d`, sleeps only `max_wait` and fails
    ///   with [`FaultKind::TimedOut`] (the hedge trigger).
    /// * `FaultAction::TornCell` — reads, then truncates the first cell's
    ///   bytes (the corruption the serving codec degrades on).
    ///
    /// The sleeps are real (so wall-clock histograms stay honest) but every
    /// *decision* is the hook's, i.e. deterministic; callers account time
    /// via the returned `waited`, never the wall clock.
    pub fn try_get_row(
        &self,
        row: &RowKey,
        as_of: Version,
        hook: Option<&dyn FaultHook>,
        ctx: &ReadCtx<'_>,
        max_wait: Option<Duration>,
    ) -> Result<RowRead, ReadFault> {
        let action = hook.map_or(FaultAction::None, |h| h.on_read(ctx));
        let fault = |kind: FaultKind, waited: Duration, injected: Duration| ReadFault {
            kind,
            region: ctx.region,
            replica: ctx.replica,
            waited,
            injected,
        };
        let mut waited = Duration::ZERO;
        let mut tear = false;
        match action {
            FaultAction::None => {}
            FaultAction::TornCell => tear = true,
            FaultAction::Transient => {
                return Err(fault(FaultKind::Transient, Duration::ZERO, Duration::ZERO))
            }
            FaultAction::Unavailable => {
                return Err(fault(
                    FaultKind::Unavailable,
                    Duration::ZERO,
                    Duration::ZERO,
                ))
            }
            FaultAction::Latency(d) => match max_wait {
                Some(cap) if d > cap => {
                    std::thread::sleep(cap);
                    return Err(fault(FaultKind::TimedOut, cap, d));
                }
                _ => {
                    std::thread::sleep(d);
                    waited = d;
                }
            },
        }
        let mut cells = self.get_row(row, as_of);
        if tear {
            // Count the injection whether or not the row had data, so chaos
            // plans can audit how many tears actually landed.
            self.reads.torn_cells.add(1);
            if let Some((_, value)) = cells.first_mut() {
                // Strictly fewer bytes than the original (capped at 3), so
                // even 1–3 byte cells come back torn rather than intact.
                let keep = value.len().min(3).min(value.len().saturating_sub(1));
                *value = Bytes::copy_from_slice(&value.as_ref()[..keep]);
            }
        }
        Ok(RowRead { cells, waited })
    }

    /// The store's on-disk directory, when one is configured.
    pub fn dir(&self) -> Option<&std::path::Path> {
        self.config.dir.as_deref()
    }

    /// The median resident row key: collect every distinct row key across
    /// the memtable and all runs, sort, and return the middle element.
    /// `None` when fewer than two distinct rows are resident — a region
    /// with one row (or none) has no interior point to split at. The
    /// returned key is always a resident row strictly greater than the
    /// smallest resident row, so splitting at it leaves both sides
    /// non-empty. A pure function of store contents: identical stores
    /// yield identical medians.
    pub fn median_resident_row(&self) -> Option<RowKey> {
        let inner = self.inner.read();
        let rows: std::collections::BTreeSet<&RowKey> = inner
            .sources(None, None)
            .into_iter()
            .flatten()
            .map(|(k, _)| &k.row)
            .collect();
        if rows.len() < 2 {
            return None;
        }
        rows.iter().nth(rows.len() / 2).map(|r| (*r).clone())
    }

    /// Export every cell (all versions, tombstones included): the memtable
    /// first, then the runs newest first. The audit surface crash tests
    /// compare whole tables by.
    pub fn export_cells(&self) -> Vec<(CellKey, Version, Option<Bytes>)> {
        let inner = self.inner.read();
        inner
            .sources(None, None)
            .into_iter()
            .flatten()
            .map(|(k, c)| (k.clone(), c.version, c.value.clone()))
            .collect()
    }

    /// Open a fresh store at `config` whose one run is the keep-all merge
    /// of the rows `[start, end)` (`None` = unbounded) of `parents`, given
    /// newest first: every version and tombstone, a duplicate `(key,
    /// version)` kept once from the newest source. The run is saved as the
    /// store's first run file and the WAL starts empty — no cell re-enters
    /// a WAL or a memtable. A region split builds each child this way from
    /// one parent, a sibling merge from the two siblings.
    pub(crate) fn open_merged(
        config: StoreConfig,
        parents: &[&Store],
        start: Option<&RowKey>,
        end: Option<&RowKey>,
    ) -> std::io::Result<Self> {
        let run = {
            let inners: Vec<_> = parents.iter().map(|store| store.inner.read()).collect();
            let sources = inners.iter().flat_map(|inner| inner.sources(start, end));
            SsTable::from_sorted(Merge::new(sources).keep_all())
        };
        let store = Self::open(config)?;
        if !run.is_empty() {
            store.push_run(&mut store.inner.write(), run)?;
        }
        Ok(store)
    }

    /// Force-flush the memtable into a new run.
    pub fn flush(&self) -> std::io::Result<()> {
        let mut inner = self.inner.write();
        self.flush_locked(&mut inner)
    }

    /// Drain the memtable into a new newest run. Never compacts: a backlog
    /// past `max_runs` waits for the next [`Self::tick`].
    fn flush_locked(&self, inner: &mut Inner) -> std::io::Result<()> {
        if inner.memtable.is_empty() {
            return Ok(());
        }
        let run = SsTable::from_sorted(inner.memtable.drain_sorted());
        self.push_run(inner, run)?;
        if let Some(wal) = &mut inner.wal {
            wal.truncate()?;
        }
        Ok(())
    }

    /// Index `run` and install it as the newest run, under the next run id
    /// (saved as that id's run file when the store has a directory).
    fn push_run(&self, inner: &mut Inner, mut run: SsTable) -> std::io::Result<()> {
        run.rebuild_index(self.config.bloom_bits_per_key);
        let id = inner.next_run_id;
        inner.next_run_id += 1;
        if let Some(dir) = &self.config.dir {
            run.save(&dir.join(format!("run-{id:08}.sst")))?;
        }
        inner.runs.insert(0, run);
        inner.run_ids.insert(0, id);
        Ok(())
    }

    /// One deterministic step of the background-style maintenance the
    /// paper's HBase tier runs off the write path — driven by an explicit
    /// call (like the fault layer's ticks) instead of a wall clock or a
    /// free-running thread, so every workload replays bit-identically.
    ///
    /// A tick does two things:
    /// 1. closes any open WAL group-commit window (the deterministic
    ///    stand-in for `max_wait` expiring), and
    /// 2. performs at most one size-tiered merge when the store is over
    ///    `max_runs` (writers never compact): the cheapest (fewest total
    ///    cells) contiguous window of adjacent runs wide enough to bring
    ///    the store back to `max_runs` is merged
    ///    **conservatively** — every version and tombstone kept, duplicate
    ///    `(key, version)` entries deduped newest-run-wins — and spliced
    ///    back in place under the window's newest run id. Reads mid-stream
    ///    are byte-identical to never having compacted at all.
    pub fn tick(&self) -> std::io::Result<TickReport> {
        let mut inner = self.inner.write();
        let mut report = TickReport::default();
        if let Some(wal) = &mut inner.wal {
            // A failed barrier must not abort the rest of the tick: the
            // frames stay pending (the next barrier retries them) and the
            // failure is reported, while compaction below still runs.
            match wal.sync_pending() {
                Ok(true) => report.wal_synced = 1,
                Ok(false) => {}
                Err(_) => {
                    report.wal_sync_errors = 1;
                    self.writes.wal_sync_failures.add(1);
                }
            }
        }
        let sizes: Vec<usize> = inner.runs.iter().map(|r| r.len()).collect();
        if let Some(window) = select_tier_window(&sizes, self.config.max_runs) {
            report.compactions = 1;
            report.runs_merged = window.len() as u64;
            self.merge_window_locked(&mut inner, window)?;
        }
        Ok(report)
    }

    /// Conservatively merge the contiguous run window `range` in place.
    fn merge_window_locked(
        &self,
        inner: &mut Inner,
        range: std::ops::Range<usize>,
    ) -> std::io::Result<()> {
        let window = inner.runs[range.clone()]
            .iter()
            .map(|run| Source::Run(run.iter()));
        let mut merged = SsTable::from_sorted(Merge::<std::iter::Empty<_>>::new(window).keep_all());
        merged.rebuild_index(self.config.bloom_bits_per_key);
        // Reuse the window's *newest* member id: ids are descending along
        // `runs`, so the spliced result keeps strictly descending ids and
        // a crash-reload sees the exact same newest-first order (which is
        // what breaks duplicate-version ties).
        let keep_id = inner.run_ids[range.start];
        if let Some(dir) = &self.config.dir {
            let final_path = dir.join(format!("run-{keep_id:08}.sst"));
            let tmp_path = dir.join(format!("run-{keep_id:08}.sst.tmp"));
            // Write-then-rename so a crash never leaves a torn run file;
            // a crash after the rename but before the removals below only
            // leaves superseded older runs behind, whose duplicate cells
            // are shadowed newest-run-wins on reload and re-collected by a
            // later tick.
            merged.save(&tmp_path)?;
            std::fs::rename(&tmp_path, &final_path)?;
            for &old in &inner.run_ids[range.start + 1..range.end] {
                std::fs::remove_file(dir.join(format!("run-{old:08}.sst")))?;
            }
        }
        inner.runs.splice(range.clone(), std::iter::once(merged));
        inner.run_ids.drain(range.start + 1..range.end);
        Ok(())
    }

    /// Number of runs (diagnostics).
    pub fn run_count(&self) -> usize {
        self.inner.read().runs.len()
    }

    /// Scan all live cells (latest non-tombstone version per key) in key
    /// order within `[start, end)` row-key bounds: the merge over the
    /// memtable's range and each run's slice of it. Runs whose [min, max]
    /// bounds provably miss the range count in `runs_skipped`, the others
    /// in `runs_scanned`, so scan *work* is auditable the same way row
    /// reads are.
    pub fn scan_rows(&self, start: &RowKey, end: &RowKey) -> Vec<(CellKey, Bytes)> {
        let inner = self.inner.read();
        // An inverted range is empty; clamped, it stays a valid bound pair.
        let end = std::cmp::max(start, end);
        let scanned = inner.runs.iter().filter(|r| r.overlaps(start, end)).count() as u64;
        self.reads.runs_scanned.add(scanned);
        self.reads
            .runs_skipped
            .add(inner.runs.len() as u64 - scanned);
        Merge::new(inner.sources(Some(start), Some(end))).visible(Version::MAX, 0)
    }
}

/// Pick the size-tiered merge window: the cheapest (fewest total cells)
/// contiguous window of adjacent runs whose merge brings the store back to
/// `max_runs` runs. `None` when the store is not over the limit. Windows
/// must be contiguous because run *order* resolves duplicate-version ties;
/// merging non-adjacent runs could reorder a duplicate past a run between
/// them and flip the winner. First minimal window (newest) wins ties, so
/// the choice is deterministic.
fn select_tier_window(sizes: &[usize], max_runs: usize) -> Option<std::ops::Range<usize>> {
    let max_runs = max_runs.max(1);
    if sizes.len() <= max_runs {
        return None;
    }
    let width = sizes.len() - max_runs + 1;
    let mut cost: usize = sizes[..width].iter().sum();
    let mut best_start = 0;
    let mut best_cost = cost;
    for start in 1..=sizes.len() - width {
        cost = cost - sizes[start - 1] + sizes[start + width - 1];
        if cost < best_cost {
            best_cost = cost;
            best_start = start;
        }
    }
    Some(best_start..best_start + width)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(row: &str, q: &str) -> CellKey {
        CellKey::new(row, "basic", q)
    }

    fn mem_store() -> Store {
        Store::open(StoreConfig::default()).unwrap()
    }

    fn put(s: &Store, key: CellKey, version: Version, value: Bytes) {
        s.put_batch(vec![(key, version, Some(value))]).unwrap();
    }

    fn delete(s: &Store, key: CellKey, version: Version) {
        s.put_batch(vec![(key, version, None)]).unwrap();
    }

    /// One cell of a row read: the latest value at or below `as_of`.
    fn get(s: &Store, key: &CellKey, as_of: Version) -> Option<Bytes> {
        let row = s.get_row(&key.row, as_of);
        row.into_iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    #[test]
    fn put_get_latest() {
        let s = mem_store();
        put(&s, key("u1", "age"), 1, Bytes::from_static(b"30"));
        put(&s, key("u1", "age"), 2, Bytes::from_static(b"31"));
        assert_eq!(
            get(&s, &key("u1", "age"), u64::MAX).as_deref(),
            Some(b"31".as_ref())
        );
        assert_eq!(
            get(&s, &key("u1", "age"), 1).as_deref(),
            Some(b"30".as_ref())
        );
    }

    #[test]
    fn reads_merge_memtable_and_runs() {
        let s = mem_store();
        put(&s, key("u1", "age"), 1, Bytes::from_static(b"old"));
        s.flush().unwrap();
        put(&s, key("u1", "age"), 2, Bytes::from_static(b"new"));
        assert_eq!(
            get(&s, &key("u1", "age"), u64::MAX).as_deref(),
            Some(b"new".as_ref())
        );
        assert_eq!(s.run_count(), 1);
    }

    #[test]
    fn delete_shadows_older_versions() {
        let s = mem_store();
        put(&s, key("u1", "age"), 1, Bytes::from_static(b"x"));
        s.flush().unwrap();
        delete(&s, key("u1", "age"), 2);
        assert!(get(&s, &key("u1", "age"), u64::MAX).is_none());
        // Older version still reachable with a versioned read.
        assert!(get(&s, &key("u1", "age"), 1).is_some());
    }

    #[test]
    fn crash_recovery_from_wal_and_runs() {
        let dir = std::env::temp_dir().join(format!("titant-store-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = StoreConfig {
            dir: Some(dir.clone()),
            ..Default::default()
        };
        {
            let s = Store::open(cfg.clone()).unwrap();
            put(&s, key("u1", "age"), 1, Bytes::from_static(b"flushed"));
            s.flush().unwrap();
            put(&s, key("u2", "age"), 1, Bytes::from_static(b"in-wal"));
            // No flush: u2 lives only in WAL + memtable. Drop = crash.
        }
        let s = Store::open(cfg).unwrap();
        assert_eq!(
            get(&s, &key("u1", "age"), u64::MAX).as_deref(),
            Some(b"flushed".as_ref())
        );
        assert_eq!(
            get(&s, &key("u2", "age"), u64::MAX).as_deref(),
            Some(b"in-wal".as_ref())
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A write hook whose scripted actions fire in order, then fall back
    /// to clean writes — lets a test place one exact fault.
    struct ScriptedWrites(parking_lot::Mutex<Vec<WriteFaultAction>>);

    impl ScriptedWrites {
        fn new(mut actions: Vec<WriteFaultAction>) -> Self {
            actions.reverse(); // pop() yields them in the given order
            Self(parking_lot::Mutex::new(actions))
        }
    }

    impl FaultHook for ScriptedWrites {
        fn on_read(&self, _ctx: &ReadCtx<'_>) -> FaultAction {
            FaultAction::None
        }
        fn on_write(&self, _ctx: &WriteCtx<'_>) -> WriteFaultAction {
            self.0.lock().pop().unwrap_or(WriteFaultAction::None)
        }
    }

    fn wctx(row: &RowKey, attempt: u32) -> WriteCtx<'_> {
        WriteCtx {
            region: 0,
            replica: 0,
            row,
            tick: 0,
            attempt,
        }
    }

    /// Regression: a `run-*.sst.tmp` left by a crash mid-merge must be
    /// swept (and counted) on open, not loaded as a run — its cells are
    /// all still present in the window's source runs.
    #[test]
    fn orphan_tmp_runs_are_removed_on_open() {
        let dir = std::env::temp_dir().join(format!("titant-orphan-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = StoreConfig {
            dir: Some(dir.clone()),
            ..Default::default()
        };
        {
            let s = Store::open(cfg.clone()).unwrap();
            put(&s, key("u1", "age"), 1, Bytes::from_static(b"real"));
            s.flush().unwrap();
        }
        std::fs::write(dir.join("run-00000042.sst.tmp"), b"half-written merge").unwrap();
        let s = Store::open(cfg).unwrap();
        assert_eq!(s.write_stats().orphans_cleaned, 1);
        assert!(!dir.join("run-00000042.sst.tmp").exists());
        assert_eq!(
            get(&s, &key("u1", "age"), u64::MAX).as_deref(),
            Some(b"real".as_ref())
        );
        assert_eq!(s.run_count(), 1, "the orphan must not load as a run");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: a failing group-commit sync must not abort the rest of
    /// the tick — compaction still runs and the error is reported.
    #[test]
    fn tick_survives_wal_sync_failure() {
        let dir = std::env::temp_dir().join(format!("titant-ticksync-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = StoreConfig {
            dir: Some(dir.clone()),
            max_runs: 2,
            sync: SyncPolicy::GroupCommit {
                max_batch: 64,
                max_wait: Duration::from_micros(640),
            },
            ..Default::default()
        };
        let s = Store::open(cfg).unwrap();
        // Compaction backlog: 4 runs > max_runs = 2.
        for v in 0..4u64 {
            put(&s, key("u1", "age"), v, Bytes::from(format!("v{v}")));
            s.flush().unwrap();
        }
        // A pending group-commit frame, then a barrier armed to fail.
        put(&s, key("u2", "age"), 9, Bytes::from_static(b"pending"));
        s.inject_wal_sync_failure();
        let report = s.tick().unwrap();
        assert_eq!(report.wal_sync_errors, 1);
        assert_eq!(report.wal_synced, 0);
        assert_eq!(report.compactions, 1, "compaction must still run");
        assert_eq!(s.write_stats().wal_sync_failures, 1);
        // The frames stayed pending: the next (healthy) barrier syncs them.
        let report = s.tick().unwrap();
        assert_eq!(report.wal_synced, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Power loss mid-workload drops exactly the unacknowledged tail:
    /// under `Always` every acked write survives the in-place recovery and
    /// the triggering write is absent.
    #[test]
    fn power_loss_recovers_acknowledged_writes() {
        let dir = std::env::temp_dir().join(format!("titant-power-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = StoreConfig {
            dir: Some(dir.clone()),
            sync: SyncPolicy::Always,
            ..Default::default()
        };
        let s = Store::open(cfg).unwrap();
        let row = RowKey::from_str("u1");
        for v in 1..=3u64 {
            let cells = vec![(key("u1", "age"), v, Some(Bytes::from(format!("v{v}"))))];
            s.try_put_batch(cells, None, &wctx(&row, 0)).unwrap();
        }
        let hook = ScriptedWrites::new(vec![WriteFaultAction::PowerLoss]);
        let doomed = vec![(key("u1", "age"), 4, Some(Bytes::from_static(b"lost")))];
        let err = s
            .try_put_batch(doomed, Some(&hook), &wctx(&row, 0))
            .unwrap_err();
        assert_eq!(err.kind, WriteFaultKind::PowerLoss);
        assert_eq!(s.write_stats().power_loss_recoveries, 1);
        // Every acked write survived; the doomed one never happened.
        assert_eq!(
            get(&s, &key("u1", "age"), u64::MAX).as_deref(),
            Some(b"v3".as_ref())
        );
        // The store keeps working after recovery.
        let cells = vec![(key("u1", "age"), 5, Some(Bytes::from_static(b"v5")))];
        s.try_put_batch(cells, Some(&hook), &wctx(&row, 1)).unwrap();
        assert_eq!(
            get(&s, &key("u1", "age"), u64::MAX).as_deref(),
            Some(b"v5".as_ref())
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A failed-fsync write is never applied, and retrying it is
    /// idempotent even though the unsynced frame may become durable later:
    /// the retry rewrites identical cells and duplicates dedup.
    #[test]
    fn sync_error_then_retry_is_idempotent() {
        let dir = std::env::temp_dir().join(format!("titant-syncerr-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = StoreConfig {
            dir: Some(dir.clone()),
            sync: SyncPolicy::Always,
            ..Default::default()
        };
        let cells = vec![(key("u1", "age"), 1, Some(Bytes::from_static(b"x")))];
        {
            let s = Store::open(cfg.clone()).unwrap();
            let row = RowKey::from_str("u1");
            let hook = ScriptedWrites::new(vec![WriteFaultAction::SyncError]);
            let err = s
                .try_put_batch(cells.clone(), Some(&hook), &wctx(&row, 0))
                .unwrap_err();
            assert_eq!(err.kind, WriteFaultKind::SyncError);
            // Not applied: the memtable never saw the write.
            assert!(get(&s, &key("u1", "age"), u64::MAX).is_none());
            assert_eq!(s.write_stats().wal_sync_failures, 1);
            // Retry succeeds; its barrier also covers the orphan frame.
            s.try_put_batch(cells.clone(), Some(&hook), &wctx(&row, 1))
                .unwrap();
            assert_eq!(
                get(&s, &key("u1", "age"), u64::MAX).as_deref(),
                Some(b"x".as_ref())
            );
        }
        // Recovery replays both the orphan frame and the retry — identical
        // cells, deduped: exactly one value, no duplicate.
        let s = Store::open(cfg).unwrap();
        assert_eq!(
            get(&s, &key("u1", "age"), u64::MAX).as_deref(),
            Some(b"x".as_ref())
        );
        let all: Vec<_> = s
            .export_cells()
            .into_iter()
            .filter(|(k, v, _)| *k == key("u1", "age") && *v == 1)
            .collect();
        assert_eq!(all.len(), 1, "retry must not duplicate the cell");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// With no hook (or a quiet one), `try_put_batch` is byte-identical to
    /// `put_batch` — counters included. The default-off guarantee the
    /// existing benches rely on.
    #[test]
    fn quiet_write_hook_changes_nothing() {
        let plain = mem_store();
        let hooked = mem_store();
        let row = RowKey::from_str("u1");
        let cells = vec![
            (key("u1", "p0"), 1, Some(Bytes::from_static(b"a"))),
            (key("u1", "p1"), 1, Some(Bytes::from_static(b"b"))),
        ];
        plain.put_batch(cells.clone()).unwrap();
        let quiet = ScriptedWrites::new(vec![]);
        hooked
            .try_put_batch(cells, Some(&quiet), &wctx(&row, 0))
            .unwrap();
        assert_eq!(plain.write_stats(), hooked.write_stats());
        assert_eq!(plain.export_cells(), hooked.export_cells());
    }

    #[test]
    fn automatic_flush_on_size() {
        let s = Store::open(StoreConfig {
            memtable_flush_bytes: 256,
            ..Default::default()
        })
        .unwrap();
        for i in 0..64 {
            put(
                &s,
                key(&format!("u{i}"), "age"),
                1,
                Bytes::from(vec![0u8; 16]),
            );
        }
        assert!(s.run_count() >= 1, "memtable should have flushed");
    }

    #[test]
    fn get_row_merges_versions_across_memtable_and_runs() {
        let s = mem_store();
        put(&s, key("u1", "a"), 1, Bytes::from_static(b"a1"));
        put(&s, key("u1", "b"), 1, Bytes::from_static(b"b1"));
        s.flush().unwrap();
        put(&s, key("u1", "a"), 2, Bytes::from_static(b"a2"));
        put(&s, key("u1", "c"), 2, Bytes::from_static(b"c2"));
        delete(&s, key("u1", "b"), 3);
        put(&s, key("u2", "a"), 1, Bytes::from_static(b"other"));

        // Latest view: a=a2 (memtable wins), b deleted, c=c2; u2 excluded.
        let row = s.get_row(&RowKey::from_str("u1"), u64::MAX);
        let got: Vec<(&str, &[u8])> = row
            .iter()
            .map(|(k, v)| (k.qualifier.as_str(), v.as_ref()))
            .collect();
        assert_eq!(got, vec![("a", b"a2".as_ref()), ("c", b"c2".as_ref())]);

        // As-of version 1: the flushed snapshot.
        let row = s.get_row(&RowKey::from_str("u1"), 1);
        let quals: Vec<&str> = row.iter().map(|(k, _)| k.qualifier.as_str()).collect();
        assert_eq!(quals, vec!["a", "b"]);
        assert_eq!(row[0].1.as_ref(), b"a1");

        assert!(s.get_row(&RowKey::from_str("nope"), u64::MAX).is_empty());
    }

    #[test]
    fn try_get_row_without_hook_matches_get_row() {
        let s = mem_store();
        put(&s, key("u1", "a"), 1, Bytes::from_static(b"aaaa"));
        let ctx = crate::fault::ReadCtx {
            region: 0,
            replica: 0,
            row: &RowKey::from_str("u1"),
            tick: 0,
            attempt: 0,
        };
        let read = s
            .try_get_row(&RowKey::from_str("u1"), u64::MAX, None, &ctx, None)
            .unwrap();
        assert_eq!(read.cells, s.get_row(&RowKey::from_str("u1"), u64::MAX));
        assert_eq!(read.waited, std::time::Duration::ZERO);
    }

    #[test]
    fn try_get_row_applies_hook_actions() {
        use crate::fault::{FaultAction, FaultHook, FaultKind, ReadCtx};
        use std::time::Duration;

        struct Scripted(FaultAction);
        impl FaultHook for Scripted {
            fn on_read(&self, _ctx: &ReadCtx<'_>) -> FaultAction {
                self.0
            }
        }

        let s = mem_store();
        put(&s, key("u1", "a"), 1, Bytes::from_static(b"aaaa"));
        let row = RowKey::from_str("u1");
        let ctx = ReadCtx {
            region: 2,
            replica: 1,
            row: &row,
            tick: 9,
            attempt: 0,
        };

        let err = s
            .try_get_row(
                &row,
                u64::MAX,
                Some(&Scripted(FaultAction::Transient)),
                &ctx,
                None,
            )
            .unwrap_err();
        assert_eq!(err.kind, FaultKind::Transient);
        assert_eq!((err.region, err.replica), (2, 1));
        assert_eq!(err.waited, Duration::ZERO);

        let err = s
            .try_get_row(
                &row,
                u64::MAX,
                Some(&Scripted(FaultAction::Unavailable)),
                &ctx,
                None,
            )
            .unwrap_err();
        assert_eq!(err.kind, FaultKind::Unavailable);

        // Injected latency under the cap: the read succeeds and reports
        // the simulated wait.
        let slow = Scripted(FaultAction::Latency(Duration::from_micros(200)));
        let read = s
            .try_get_row(
                &row,
                u64::MAX,
                Some(&slow),
                &ctx,
                Some(Duration::from_millis(5)),
            )
            .unwrap();
        assert_eq!(read.waited, Duration::from_micros(200));
        assert_eq!(read.cells.len(), 1);

        // Over the cap: timed out after waiting only the cap.
        let err = s
            .try_get_row(
                &row,
                u64::MAX,
                Some(&slow),
                &ctx,
                Some(Duration::from_micros(50)),
            )
            .unwrap_err();
        assert_eq!(err.kind, FaultKind::TimedOut);
        assert_eq!(err.waited, Duration::from_micros(50));
        assert_eq!(err.injected, Duration::from_micros(200));

        // Torn cell: data returns but the first cell is truncated to 3 bytes.
        let read = s
            .try_get_row(
                &row,
                u64::MAX,
                Some(&Scripted(FaultAction::TornCell)),
                &ctx,
                None,
            )
            .unwrap();
        assert_eq!(read.cells[0].1.as_ref(), b"aaa");
    }

    #[test]
    fn overwrites_do_not_trigger_premature_flush() {
        // Satellite regression: pre-fix, every overwrite re-charged the full
        // key+value size, so 1000 rewrites of one 16-byte cell "weighed"
        // ~50 KB and flushed long before memtable_flush_bytes.
        let s = Store::open(StoreConfig {
            memtable_flush_bytes: 1024,
            ..Default::default()
        })
        .unwrap();
        for _ in 0..1_000 {
            put(&s, key("u1", "age"), 7, Bytes::from(vec![0u8; 16]));
        }
        assert_eq!(s.run_count(), 0, "overwrites must not accumulate bytes");
    }

    #[test]
    fn blooms_skip_runs_without_changing_results() {
        let with_bloom = Store::open(StoreConfig {
            max_runs: 100,
            ..Default::default()
        })
        .unwrap();
        let no_bloom = Store::open(StoreConfig {
            max_runs: 100,
            bloom_bits_per_key: 0,
            ..Default::default()
        })
        .unwrap();
        // 8 runs of *interleaved* users (run r holds r, r+8, r+16, …), so
        // every run's [min,max] row bounds overlap and bounds alone cannot
        // skip anything — only the blooms can.
        for run in 0..8u64 {
            for slot in 0..16u64 {
                let k = CellKey::new(RowKey::from_user(run + slot * 8), "basic", "age");
                put(&with_bloom, k.clone(), 1, Bytes::from_static(b"42"));
                put(&no_bloom, k, 1, Bytes::from_static(b"42"));
            }
            with_bloom.flush().unwrap();
            no_bloom.flush().unwrap();
        }
        assert_eq!(with_bloom.run_count(), 8);
        for user in (0u64..128).chain([9999]) {
            let row = RowKey::from_user(user);
            assert_eq!(
                with_bloom.get_row(&row, u64::MAX),
                no_bloom.get_row(&row, u64::MAX),
                "bloom must never change results (user {user})"
            );
        }
        let filtered = with_bloom.op_counts();
        let baseline = no_bloom.op_counts();
        // The baseline still skips a few runs via min/max bounds (edge
        // users near the ends of the interleaved ranges, plus u9999), but
        // the blooms must skip far more: each present user lives in exactly
        // 1 of 8 bounds-overlapping runs.
        assert!(
            filtered.runs_skipped > baseline.runs_skipped,
            "blooms never fired beyond bounds ({} vs {})",
            filtered.runs_skipped,
            baseline.runs_skipped
        );
        assert!(
            filtered.runs_scanned < baseline.runs_scanned,
            "bloom store scanned {} runs vs baseline {}",
            filtered.runs_scanned,
            baseline.runs_scanned
        );
        assert_eq!(
            filtered.runs_scanned + filtered.runs_skipped,
            baseline.runs_scanned + baseline.runs_skipped,
            "both stores must consider every run of every read"
        );
    }

    #[test]
    fn torn_cell_tears_short_cells_and_counts() {
        use crate::fault::{FaultAction, FaultHook, ReadCtx};
        struct AlwaysTear;
        impl FaultHook for AlwaysTear {
            fn on_read(&self, _ctx: &ReadCtx<'_>) -> FaultAction {
                FaultAction::TornCell
            }
        }
        let s = mem_store();
        // Satellite regression: pre-fix `min(len, 3)` left cells of ≤3 bytes
        // untouched, silently under-injecting on short qualifiers.
        for (user, len) in [("u1", 1usize), ("u2", 2), ("u3", 3), ("u4", 4), ("u5", 9)] {
            put(&s, key(user, "a"), 1, Bytes::from(vec![b'x'; len]));
        }
        let mut expected_tears = 0u64;
        for (user, len) in [("u1", 1usize), ("u2", 2), ("u3", 3), ("u4", 4), ("u5", 9)] {
            let row = RowKey::from_str(user);
            let ctx = ReadCtx {
                region: 0,
                replica: 0,
                row: &row,
                tick: 0,
                attempt: 0,
            };
            let read = s
                .try_get_row(&row, u64::MAX, Some(&AlwaysTear), &ctx, None)
                .unwrap();
            expected_tears += 1;
            let torn_len = read.cells[0].1.len();
            assert!(
                torn_len < len,
                "cell of {len} bytes returned {torn_len} bytes — not torn"
            );
            assert_eq!(torn_len, len.min(3).min(len - 1));
            assert_eq!(s.op_counts().torn_cells, expected_tears);
        }
    }

    #[test]
    fn export_cells_covers_memtable_and_runs() {
        let s = mem_store();
        put(&s, key("u1", "a"), 1, Bytes::from_static(b"x"));
        s.flush().unwrap();
        put(&s, key("u1", "a"), 2, Bytes::from_static(b"y"));
        delete(&s, key("u2", "a"), 1);
        let mut exported = s.export_cells();
        exported.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        assert_eq!(exported.len(), 3);
        // Replaying the export into a fresh store reproduces every read.
        let copy = mem_store();
        copy.put_batch(exported).unwrap();
        for as_of in [1, 2, u64::MAX] {
            assert_eq!(
                copy.get_row(&RowKey::from_str("u1"), as_of),
                s.get_row(&RowKey::from_str("u1"), as_of)
            );
        }
        assert!(get(&copy, &key("u2", "a"), u64::MAX).is_none());
    }

    #[test]
    fn put_batch_is_one_lock_and_one_wal_frame() {
        let dir = std::env::temp_dir().join(format!("titant-batch-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let s = Store::open(StoreConfig {
            dir: Some(dir.clone()),
            ..Default::default()
        })
        .unwrap();
        let cells: Vec<(CellKey, Version, Option<Bytes>)> = (0..16)
            .map(|i| {
                (
                    key("u1", &format!("q{i}")),
                    1,
                    Some(Bytes::from(vec![i as u8; 4])),
                )
            })
            .collect();
        s.put_batch(cells).unwrap();
        let w = s.write_stats();
        assert_eq!(w.lock_acquisitions, 1);
        assert_eq!(w.batches, 1);
        assert_eq!(w.cells_written, 16);
        assert_eq!(w.wal_frames, 1, "a batch is one frame");
        assert_eq!(w.wal_records, 16);
        assert_eq!(
            s.get_row(&RowKey::from_str("u1"), u64::MAX).len(),
            16,
            "batched cells all readable"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn put_batch_crash_recovery_is_all_or_nothing() {
        let dir = std::env::temp_dir().join(format!("titant-batchrec-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = StoreConfig {
            dir: Some(dir.clone()),
            ..Default::default()
        };
        {
            let s = Store::open(cfg.clone()).unwrap();
            s.put_batch(vec![
                (key("u1", "a"), 1, Some(Bytes::from_static(b"x"))),
                (key("u1", "b"), 1, None),
                (key("u2", "a"), 1, Some(Bytes::from_static(b"y"))),
            ])
            .unwrap();
            // Drop without flush = crash; the batch lives only in the WAL.
        }
        {
            let s = Store::open(cfg.clone()).unwrap();
            assert_eq!(
                get(&s, &key("u1", "a"), u64::MAX).as_deref(),
                Some(b"x".as_ref())
            );
            assert!(
                get(&s, &key("u1", "b"), u64::MAX).is_none(),
                "tombstone recovered"
            );
            assert_eq!(
                get(&s, &key("u2", "a"), u64::MAX).as_deref(),
                Some(b"y".as_ref())
            );
        }
        // Tear the WAL mid-batch: the whole batch must vanish, not a prefix.
        let wal_path = dir.join("wal.log");
        let data = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &data[..data.len() - 1]).unwrap();
        let s = Store::open(cfg).unwrap();
        assert!(
            get(&s, &key("u1", "a"), u64::MAX).is_none(),
            "torn batch must not replay partially"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_is_deferred_to_tick() {
        let s = Store::open(StoreConfig {
            max_runs: 3,
            ..Default::default()
        })
        .unwrap();
        for v in 0..6u64 {
            put(&s, key("u1", "age"), v, Bytes::from(format!("v{v}")));
            s.flush().unwrap();
        }
        assert_eq!(s.run_count(), 6, "writers never compact");
        // Each tick performs one tiered merge bringing the store to max_runs.
        let report = s.tick().unwrap();
        assert_eq!(report.compactions, 1);
        assert_eq!(report.runs_merged, 4, "window width = runs - max_runs + 1");
        assert_eq!(s.run_count(), 3);
        // At the limit: further ticks are no-ops.
        assert_eq!(s.tick().unwrap(), TickReport::default());
        assert_eq!(s.run_count(), 3);
        // Tiered merges are conservative: every version still readable.
        for v in 0..6u64 {
            assert_eq!(
                get(&s, &key("u1", "age"), v).as_deref(),
                Some(format!("v{v}").as_bytes()),
                "version {v} must survive a tiered merge"
            );
        }
    }

    #[test]
    fn tiered_merge_keeps_tombstone_shadowing_and_survives_reload() {
        let dir = std::env::temp_dir().join(format!("titant-tier-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = StoreConfig {
            max_runs: 2,
            dir: Some(dir.clone()),
            ..Default::default()
        };
        let s = Store::open(cfg.clone()).unwrap();
        // Same key rewritten at the same version across runs: newest run
        // must win the duplicate tie, before and after the merge.
        put(&s, key("u1", "a"), 5, Bytes::from_static(b"old"));
        s.flush().unwrap();
        delete(&s, key("u2", "a"), 9);
        s.flush().unwrap();
        put(&s, key("u1", "a"), 5, Bytes::from_static(b"new"));
        s.flush().unwrap();
        put(&s, key("u3", "a"), 1, Bytes::from_static(b"z"));
        s.flush().unwrap();
        assert_eq!(s.run_count(), 4);
        let before: Vec<_> = [1, 5, 9, u64::MAX]
            .iter()
            .map(|&v| {
                (
                    get(&s, &key("u1", "a"), v),
                    get(&s, &key("u2", "a"), v),
                    get(&s, &key("u3", "a"), v),
                )
            })
            .collect();
        assert_eq!(before[3].0.as_deref(), Some(b"new".as_ref()));
        assert!(before[3].1.is_none(), "tombstone shadows");
        while s.tick().unwrap().compactions > 0 {}
        assert_eq!(s.run_count(), 2);
        let after: Vec<_> = [1, 5, 9, u64::MAX]
            .iter()
            .map(|&v| {
                (
                    get(&s, &key("u1", "a"), v),
                    get(&s, &key("u2", "a"), v),
                    get(&s, &key("u3", "a"), v),
                )
            })
            .collect();
        assert_eq!(before, after, "tiered merge must be invisible to reads");
        drop(s);
        // Reload from disk: merged file layout must reproduce the same
        // newest-first order and the same reads.
        let s = Store::open(cfg).unwrap();
        let reloaded: Vec<_> = [1, 5, 9, u64::MAX]
            .iter()
            .map(|&v| {
                (
                    get(&s, &key("u1", "a"), v),
                    get(&s, &key("u2", "a"), v),
                    get(&s, &key("u3", "a"), v),
                )
            })
            .collect();
        assert_eq!(before, reloaded);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tick_closes_open_group_commit_windows() {
        let dir = std::env::temp_dir().join(format!("titant-gc-tick-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let s = Store::open(StoreConfig {
            dir: Some(dir.clone()),
            sync: SyncPolicy::GroupCommit {
                max_batch: 8,
                max_wait: Duration::from_micros(800),
            },
            ..Default::default()
        })
        .unwrap();
        put(&s, key("u1", "a"), 1, Bytes::from_static(b"x"));
        assert_eq!(s.write_stats().wal_syncs, 0, "group still open");
        let report = s.tick().unwrap();
        assert_eq!(report.wal_synced, 1);
        assert_eq!(s.write_stats().wal_syncs, 1);
        assert_eq!(s.tick().unwrap().wal_synced, 0, "nothing pending");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn select_tier_window_picks_cheapest_contiguous_window() {
        // Not over the limit -> no merge.
        assert_eq!(select_tier_window(&[5, 5, 5], 3), None);
        assert_eq!(select_tier_window(&[], 3), None);
        // One over: width 2, cheapest adjacent pair.
        assert_eq!(select_tier_window(&[9, 1, 1, 9], 3), Some(1..3));
        // Three over: width 4.
        assert_eq!(select_tier_window(&[9, 2, 1, 1, 2, 9], 3), Some(1..5));
        // Tie: first (newest) window wins deterministically.
        assert_eq!(select_tier_window(&[3, 3, 3, 3], 3), Some(0..2));
        // max_runs 0 is clamped to 1 (merge everything into one run).
        assert_eq!(select_tier_window(&[1, 1], 0), Some(0..2));
    }

    /// A run holding `cells`, each `(row, qualifier, version, value)`.
    fn run(cells: &[(&str, &str, Version, Option<&'static [u8]>)]) -> SsTable {
        let mut m = MemTable::new();
        for &(row, q, version, value) in cells {
            m.put(key(row, q), version, value.map(Bytes::from_static));
        }
        SsTable::from_sorted(m.drain_sorted())
    }

    /// The keep-all merge of `runs`, given newest first.
    fn keep_all(runs: &[&SsTable]) -> Vec<(CellKey, Cell)> {
        let sources = runs.iter().map(|r| Source::Run(r.iter()));
        Merge::<std::iter::Empty<_>>::new(sources).keep_all()
    }

    #[test]
    fn keep_all_merge_preserves_versions_and_tombstones() {
        let old = [
            ("u1", "age", 1, Some(b"a".as_ref())),
            ("u1", "age", 2, Some(b"b")),
            ("u2", "age", 1, Some(b"x")),
        ];
        let new = [
            ("u1", "age", 3, Some(b"c".as_ref())),
            ("u2", "age", 2, None), // tombstone must survive
        ];
        let merged = keep_all(&[&run(&new), &run(&old)]);
        assert_eq!(merged.len(), 5, "nothing dropped");
        // Disjoint versions: the merge is the one run of the union.
        let union: Vec<_> = run(&[&old[..], &new[..]].concat())
            .iter()
            .cloned()
            .collect();
        assert_eq!(merged, union);
        // Duplicate (key, version) across runs: newest run wins, once.
        let dup_new = run(&[("u1", "age", 5, Some(b"new"))]);
        let dup_old = run(&[("u1", "age", 5, Some(b"old"))]);
        let merged = keep_all(&[&dup_new, &dup_old]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].1.value.as_deref(), Some(b"new".as_ref()));
    }

    /// A same-version rewrite in the memtable shadows the flushed copy, and
    /// a store opened around the parent's keep-all merge keeps the rewrite —
    /// the region split's child.
    #[test]
    fn open_merged_keeps_the_newest_copy_of_a_rewritten_version() {
        let s = mem_store();
        put(&s, key("u1", "a"), 1, Bytes::from_static(b"old"));
        put(&s, key("u2", "a"), 1, Bytes::from_static(b"right"));
        s.flush().unwrap();
        put(&s, key("u1", "a"), 1, Bytes::from_static(b"new"));
        let at = RowKey::from_str("u2");
        let left = Store::open_merged(StoreConfig::default(), &[&s], None, Some(&at)).unwrap();
        let right = Store::open_merged(StoreConfig::default(), &[&s], Some(&at), None).unwrap();
        for child in [&left, &right] {
            assert_eq!(child.run_count(), 1);
            assert_eq!(child.write_stats(), WriteStatsSnapshot::default());
        }
        assert_eq!(
            get(&left, &key("u1", "a"), 1).as_deref(),
            Some(b"new".as_ref())
        );
        assert!(get(&left, &key("u2", "a"), 1).is_none());
        assert_eq!(
            get(&right, &key("u2", "a"), 1).as_deref(),
            Some(b"right".as_ref())
        );
        // The siblings merged back read like the parent.
        let merged =
            Store::open_merged(StoreConfig::default(), &[&left, &right], None, None).unwrap();
        assert_eq!(
            merged.export_cells(),
            left.export_cells()
                .into_iter()
                .chain(right.export_cells())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn scan_rows_returns_latest_live_cells_in_order() {
        let s = mem_store();
        put(&s, key("u1", "age"), 1, Bytes::from_static(b"a"));
        put(&s, key("u2", "age"), 1, Bytes::from_static(b"b"));
        put(&s, key("u2", "age"), 2, Bytes::from_static(b"b2"));
        put(&s, key("u3", "age"), 1, Bytes::from_static(b"c"));
        delete(&s, key("u3", "age"), 2);
        s.flush().unwrap();
        let rows = s.scan_rows(&RowKey::from_str("u1"), &RowKey::from_str("u3"));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1.as_ref(), b"a");
        assert_eq!(rows[1].1.as_ref(), b"b2");
    }
}
