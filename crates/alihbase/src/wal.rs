//! Write-ahead log: CRC-framed write batches on disk, replayed on open.
//!
//! One frame kind: `[len: u32 LE][crc32: u32 LE][payload: len bytes]`,
//! where the payload is one batch — the [`BATCH_SENTINEL`], a `u32` record
//! count, then that many records (row, family, qualifier, version,
//! tombstone flag, value). One CRC covers the whole payload, so a batch
//! replays all-or-nothing: a crash mid-batch tears the frame, the CRC
//! fails, and recovery drops the entire batch rather than a prefix of it.
//! A torn tail (partial frame, CRC mismatch, or a payload the encoder
//! never emits) truncates replay at the last good frame, which is exactly
//! the recovery contract a crash leaves behind.

use crate::store::WriteStatsSnapshot;
use crate::types::{CellKey, Version};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// First four bytes of every payload. It dates from a retired
/// single-record frame and stays so every byte the log writes is
/// unchanged; replay rejects a payload that lacks it.
const BATCH_SENTINEL: u32 = u32::MAX;

/// The reflected IEEE CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, built at compile time. `CRC_TABLES[0][b]` is
/// the CRC register after feeding byte `b` alone; `CRC_TABLES[k][b]` is
/// that register after `k` further zero bytes, so eight table reads fold
/// eight input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE) implemented locally to keep the dependency set to the
/// approved list: slice-by-8 over `CRC_TABLES`, then a byte at a time
/// for the last `len % 8` bytes.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// One logged operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    pub key: CellKey,
    pub version: Version,
    /// `None` = tombstone.
    pub value: Option<Bytes>,
}

impl WalRecord {
    /// Decode one record from the front of `buf`, advancing past it.
    fn decode_from(buf: &mut &[u8]) -> Option<WalRecord> {
        let row = get_bytes(buf)?;
        let family = get_bytes(buf)?;
        let qualifier = get_bytes(buf)?;
        if buf.remaining() < 9 {
            return None;
        }
        let version = buf.get_u64_le();
        let has_value = buf.get_u8() == 1;
        let value = if has_value {
            Some(Bytes::copy_from_slice(get_bytes(buf)?))
        } else {
            None
        };
        Some(WalRecord {
            key: CellKey {
                row: row.into(),
                family: std::str::from_utf8(family).ok()?.into(),
                qualifier: std::str::from_utf8(qualifier).ok()?.into(),
            },
            version,
            value,
        })
    }
}

/// The one payload the log writes: the sentinel, the record count, then
/// each record, encoded without cloning a key or value.
fn encode_batch(cells: &[(CellKey, Version, Option<Bytes>)]) -> BytesMut {
    let mut buf = BytesMut::new();
    buf.put_u32_le(BATCH_SENTINEL);
    buf.put_u32_le(cells.len() as u32);
    for (key, version, value) in cells {
        put_bytes(&mut buf, key.row.as_bytes());
        put_bytes(&mut buf, key.family.as_bytes());
        put_bytes(&mut buf, key.qualifier.as_bytes());
        buf.put_u64_le(*version);
        match value {
            Some(v) => {
                buf.put_u8(1);
                put_bytes(&mut buf, v);
            }
            None => buf.put_u8(0),
        }
    }
    buf
}

fn put_bytes(buf: &mut BytesMut, data: &[u8]) {
    buf.put_u32_le(data.len() as u32);
    buf.put_slice(data);
}

fn get_bytes<'a>(buf: &mut &'a [u8]) -> Option<&'a [u8]> {
    if buf.remaining() < 4 {
        return None;
    }
    let len = buf.get_u32_le() as usize;
    let (out, rest) = buf.split_at_checked(len)?;
    *buf = rest;
    Some(out)
}

/// When the WAL calls `sync_data` (fdatasync) versus merely flushing to
/// the OS page cache. Each policy closes a different crash window:
///
/// * [`SyncPolicy::OnTruncate`] — appends only `flush()` to the OS, which
///   survives a *process* crash (the kernel holds the bytes); `truncate`
///   `sync_data`s, closing the stale-WAL-resurrection window: once a
///   memtable flush truncates the log, a power loss cannot bring the
///   superseded records back (they would double-apply over the run).
///   Recent un-truncated appends can still be lost to power failure.
/// * [`SyncPolicy::Always`] — `sync_data`s after every `append` too,
///   closing the lost-append window: an acknowledged write survives power
///   loss. The cost is one fdatasync per write.
/// * [`SyncPolicy::GroupCommit`] — durability of `Always` at a fraction of
///   the syncs: appended frames accumulate and one fdatasync covers the
///   whole group, issued when `max_batch` frames are pending (or at the
///   next `truncate`/[`Wal::sync_pending`], the tick-driven stand-in for
///   the `max_wait` timer). Appends that defer their sync are charged a
///   deterministic simulated wait of `max_wait / max_batch` — the amortized
///   share of the group window — in the same virtual-time accounting the
///   serving SLO layer uses, so chaos replay stays bit-reproducible (no
///   wall clock anywhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// fdatasync after every append and truncate.
    Always,
    /// fdatasync only after truncate (the default: durable run boundaries,
    /// OS-buffered appends).
    #[default]
    OnTruncate,
    /// Coalesce appenders' frames into one fdatasync per group.
    GroupCommit {
        /// Pending-frame count that forces a sync (clamped to at least 1).
        max_batch: u32,
        /// Upper bound on how long a frame may wait for its group's sync;
        /// charged to deferred appends as simulated time, never slept.
        max_wait: Duration,
    },
}

/// An append-only WAL file.
pub struct Wal {
    path: PathBuf,
    writer: BufWriter<File>,
    sync: SyncPolicy,
    /// Frames appended since the last durability barrier (group commit).
    pending: u32,
    /// Physical WAL work, in the store's set: only the `wal_*` fields move.
    stats: WriteStatsSnapshot,
    /// Logical file length written so far (always frame-aligned).
    written_len: u64,
    /// Length covered by the last durability barrier: the prefix a
    /// simulated power loss preserves. Appends between barriers live in
    /// the volatile tail (`synced_len..written_len`).
    synced_len: u64,
    /// Armed injected fsync failures (chaos testing); each `sync_data`
    /// consumes one and fails.
    fail_syncs: u32,
}

impl Wal {
    /// Open (or create) the WAL at `path` with the default [`SyncPolicy`],
    /// returning the log handle plus every intact record already on disk
    /// (crash recovery).
    pub fn open(path: &Path) -> std::io::Result<(Self, Vec<WalRecord>)> {
        Self::open_with(path, SyncPolicy::default())
    }

    /// Open (or create) the WAL at `path` under an explicit [`SyncPolicy`].
    ///
    /// Recovery truncates any torn tail (partial or corrupt trailing
    /// frame) off the file before appending resumes. Without the
    /// truncation, frames appended after a torn-tail recovery would land
    /// *behind* the garbage and every later replay — which stops at the
    /// first bad frame — would silently lose them.
    pub fn open_with(path: &Path, sync: SyncPolicy) -> std::io::Result<(Self, Vec<WalRecord>)> {
        let mut existing = Vec::new();
        let mut good_len = 0u64;
        if path.exists() {
            let mut data = Vec::new();
            File::open(path)?.read_to_end(&mut data)?;
            let (records, consumed) = replay(&data);
            existing = records;
            good_len = consumed as u64;
            if consumed < data.len() {
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(good_len)?;
            }
        }
        let writer = BufWriter::new(OpenOptions::new().create(true).append(true).open(path)?);
        Ok((
            Self {
                path: path.to_path_buf(),
                writer,
                sync,
                pending: 0,
                stats: WriteStatsSnapshot::default(),
                written_len: good_len,
                // Bytes that survived to be read back are durable by
                // definition — they are on the platter we just read.
                synced_len: good_len,
                fail_syncs: 0,
            },
            existing,
        ))
    }

    /// Snapshot the physical-work counters (the `wal_*` fields of a
    /// [`WriteStatsSnapshot`]; the rest stay zero).
    pub fn stats(&self) -> WriteStatsSnapshot {
        self.stats
    }

    /// Append a whole batch of cells as **one** frame whose single CRC
    /// makes replay all-or-nothing: recovery sees either every record of
    /// the batch or none of them. Empty batches write nothing. Flushes to
    /// the OS; the sync policy decides the durability barrier. Returns the
    /// simulated group-commit wait charged to this append (zero outside
    /// [`SyncPolicy::GroupCommit`]).
    pub fn append_batch(
        &mut self,
        cells: &[(CellKey, Version, Option<Bytes>)],
    ) -> std::io::Result<Duration> {
        if cells.is_empty() {
            return Ok(Duration::ZERO);
        }
        self.write_frame(&encode_batch(cells), cells.len() as u64)
    }

    /// Append a whole batch as one frame **without** any durability action:
    /// no sync, no group-commit accounting beyond marking the frame
    /// pending, no simulated wait. This models the write that reached the
    /// file right before its fsync failed — physically present (a later
    /// barrier may make it durable) but never acknowledged. Chaos
    /// injection only; the normal path is [`Wal::append_batch`].
    pub fn append_batch_unsynced(
        &mut self,
        cells: &[(CellKey, Version, Option<Bytes>)],
    ) -> std::io::Result<()> {
        if cells.is_empty() {
            return Ok(());
        }
        self.emit_frame(&encode_batch(cells), cells.len() as u64)?;
        self.pending += 1;
        Ok(())
    }

    /// Write one frame to the file and flush to the OS (no sync decision).
    fn emit_frame(&mut self, payload: &[u8], records: u64) -> std::io::Result<()> {
        let mut frame = BytesMut::with_capacity(payload.len() + 8);
        frame.put_u32_le(payload.len() as u32);
        frame.put_u32_le(crc32(payload));
        frame.put_slice(payload);
        self.writer.write_all(&frame)?;
        self.writer.flush()?;
        self.stats.wal_frames += 1;
        self.stats.wal_records += records;
        self.stats.wal_bytes += frame.len() as u64;
        self.written_len += frame.len() as u64;
        Ok(())
    }

    fn write_frame(&mut self, payload: &[u8], records: u64) -> std::io::Result<Duration> {
        self.emit_frame(payload, records)?;
        match self.sync {
            SyncPolicy::Always => {
                self.sync_data()?;
                Ok(Duration::ZERO)
            }
            SyncPolicy::OnTruncate => Ok(Duration::ZERO),
            SyncPolicy::GroupCommit {
                max_batch,
                max_wait,
            } => {
                let max_batch = max_batch.max(1);
                self.pending += 1;
                if self.pending >= max_batch {
                    // This append closes the group and pays no wait.
                    self.sync_data()?;
                    Ok(Duration::ZERO)
                } else {
                    // Deferred: charge the amortized share of the group
                    // window. A pure function of the policy, so replay is
                    // deterministic regardless of thread schedule.
                    let wait = max_wait / max_batch;
                    self.stats.wal_simulated_wait_micros += wait.as_micros() as u64;
                    Ok(wait)
                }
            }
        }
    }

    fn sync_data(&mut self) -> std::io::Result<()> {
        if self.fail_syncs > 0 {
            // Injected fsync failure: the frame is in the file (and may
            // yet become durable via a later barrier) but the caller must
            // not acknowledge the write.
            self.fail_syncs -= 1;
            return Err(std::io::Error::other("injected fsync failure"));
        }
        self.writer.get_ref().sync_data()?;
        self.pending = 0;
        self.stats.wal_syncs += 1;
        self.synced_len = self.written_len;
        Ok(())
    }

    /// Arm `n` injected fsync failures: the next `n` durability barriers
    /// (from appends under `Always`/`GroupCommit`, or [`Wal::sync_pending`])
    /// return an error without syncing. Chaos testing only.
    #[doc(hidden)]
    pub fn inject_sync_failures(&mut self, n: u32) {
        self.fail_syncs += n;
    }

    /// Force the durability barrier for any frames still waiting on their
    /// group's sync. The deterministic, tick-driven stand-in for the
    /// `max_wait` timer expiring. Returns whether a sync was issued.
    pub fn sync_pending(&mut self) -> std::io::Result<bool> {
        if self.pending == 0 {
            return Ok(false);
        }
        self.sync_data()?;
        Ok(true)
    }

    /// Truncate the log (after a successful memtable flush the WAL's
    /// records are durable in a run). The truncation itself is forced to
    /// stable storage so superseded records cannot resurrect — this also
    /// closes any open group-commit window.
    pub fn truncate(&mut self) -> std::io::Result<()> {
        self.writer.flush()?;
        let file = OpenOptions::new().write(true).open(&self.path)?;
        file.set_len(0)?;
        self.pending = 0;
        file.sync_data()?;
        self.stats.wal_syncs += 1;
        self.writer = BufWriter::new(OpenOptions::new().append(true).open(&self.path)?);
        // The truncation itself is treated as durable in the simulated
        // crash model (it rides on the flush that wrote the run file),
        // so the volatile tail resets with the log.
        self.written_len = 0;
        self.synced_len = 0;
        Ok(())
    }

    /// Simulate a power loss at this instant, in place: everything past
    /// the last durability barrier vanishes. The file is cut back to
    /// `synced_len`, the writer reopened, and the surviving prefix
    /// replayed — the caller rebuilds its memtable from the returned
    /// records exactly as a cold restart would.
    pub fn power_loss(&mut self) -> std::io::Result<Vec<WalRecord>> {
        self.writer.flush()?;
        let file = OpenOptions::new().write(true).open(&self.path)?;
        file.set_len(self.synced_len)?;
        file.sync_data()?;
        drop(file);
        self.writer = BufWriter::new(OpenOptions::new().append(true).open(&self.path)?);
        self.written_len = self.synced_len;
        self.pending = 0;
        let mut data = Vec::new();
        File::open(&self.path)?.read_to_end(&mut data)?;
        let (records, _consumed) = replay(&data);
        Ok(records)
    }
}

/// Decode frames until the first torn or corrupt one. A batch frame either
/// contributes every one of its records or stops replay — never a prefix.
/// Also returns the byte length of the good prefix so recovery can truncate
/// the torn tail off the file.
fn replay(data: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut out = Vec::new();
    let mut consumed = 0usize;
    let mut rest = data;
    while rest.remaining() >= 8 {
        let len = (&rest[..4]).get_u32_le() as usize;
        let crc = (&rest[4..8]).get_u32_le();
        if rest.remaining() < 8 + len {
            break; // torn tail
        }
        let payload = &rest[8..8 + len];
        if crc32(payload) != crc {
            break; // corruption: stop at last good frame
        }
        if !decode_payload(payload, &mut out) {
            break;
        }
        rest.advance(8 + len);
        consumed += 8 + len;
    }
    (out, consumed)
}

/// Decode one CRC-verified payload into `out`, all or nothing: exactly what
/// [`encode_batch`] emits, or false with nothing appended. The claimed
/// count never sizes an allocation past 4096 records.
fn decode_payload(payload: &[u8], out: &mut Vec<WalRecord>) -> bool {
    let mut buf = payload;
    if buf.remaining() < 8 || buf.get_u32_le() != BATCH_SENTINEL {
        return false;
    }
    let count = buf.get_u32_le() as usize;
    let mut batch = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        match WalRecord::decode_from(&mut buf) {
            Some(r) => batch.push(r),
            None => return false,
        }
    }
    if buf.remaining() != 0 {
        return false;
    }
    out.append(&mut batch);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn record(row: &str, version: u64, value: Option<&'static [u8]>) -> WalRecord {
        WalRecord {
            key: CellKey::new(row, "basic", "age"),
            version,
            value: value.map(Bytes::from_static),
        }
    }

    /// One record as a one-cell batch frame.
    fn append(wal: &mut Wal, r: &WalRecord) -> std::io::Result<Duration> {
        wal.append_batch(&[(r.key.clone(), r.version, r.value.clone())])
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("titant-wal-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The bitwise CRC-32 the log used before the table kernel: the
    /// reference every frame and run file checksum must still equal.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_reference_vector() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest! {
        /// The slice-by-8 kernel equals the bitwise loop on every length
        /// (whole words plus each remainder) at every start alignment.
        #[test]
        fn crc32_equals_the_bitwise_reference(
            buf in prop::collection::vec(0u8..=255, 0..=4_104),
            start in 0usize..8,
            len in 0usize..=4_096,
        ) {
            let start = start.min(buf.len());
            let data = &buf[start..buf.len().min(start + len)];
            prop_assert_eq!(crc32(data), crc32_bitwise(data));
        }
    }

    #[test]
    fn append_and_replay_round_trip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, existing) = Wal::open(&path).unwrap();
            assert!(existing.is_empty());
            append(&mut wal, &record("u1", 1, Some(b"30"))).unwrap();
            append(&mut wal, &record("u2", 2, None)).unwrap();
        }
        let (_wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0], record("u1", 1, Some(b"30")));
        assert_eq!(replayed[1], record("u2", 2, None));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_ignored() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            append(&mut wal, &record("u1", 1, Some(b"x"))).unwrap();
        }
        // Simulate a crash mid-append: garbage half-frame at the tail.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[9, 0, 0, 0, 1, 2]).unwrap();
        }
        let (_w, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 1, "only the intact frame survives");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let dir = tmpdir("crc");
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            append(&mut wal, &record("u1", 1, Some(b"x"))).unwrap();
            append(&mut wal, &record("u2", 2, Some(b"y"))).unwrap();
        }
        // Flip one byte inside the second frame's payload.
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 1] ^= 0xff;
        std::fs::write(&path, &data).unwrap();
        let (_w, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Which crash windows each [`SyncPolicy`] closes. Power loss cannot
    /// be simulated in-process, so the test pins the *observable* contract
    /// — which operations issue a durability barrier — and the doc comments
    /// on [`SyncPolicy`] map each barrier to the window it closes:
    ///
    /// | policy     | lost recent appends (power) | stale-WAL resurrection |
    /// |------------|-----------------------------|------------------------|
    /// | OnTruncate | open                        | closed                 |
    /// | Always     | closed                      | closed                 |
    ///
    /// Every policy recovers identically from a *process* crash (the
    /// OS page cache survives), which is what is asserted here.
    #[test]
    fn every_sync_policy_recovers_from_process_crash() {
        for (name, policy) in [
            ("always", SyncPolicy::Always),
            ("ontrunc", SyncPolicy::OnTruncate),
            (
                "group",
                SyncPolicy::GroupCommit {
                    max_batch: 4,
                    max_wait: Duration::from_micros(400),
                },
            ),
        ] {
            let dir = tmpdir(&format!("sync-{name}"));
            let path = dir.join("wal.log");
            let _ = std::fs::remove_file(&path);
            {
                let (mut wal, _) = Wal::open_with(&path, policy).unwrap();
                assert_eq!(wal.sync, policy);
                append(&mut wal, &record("u1", 1, Some(b"a"))).unwrap();
                // Truncate (memtable flushed) then append the next write:
                // recovery must see only the post-truncate record — under
                // every policy that holds even across power loss.
                wal.truncate().unwrap();
                append(&mut wal, &record("u2", 2, Some(b"b"))).unwrap();
                // Drop without any explicit close = process crash.
            }
            let (_w, replayed) = Wal::open_with(&path, policy).unwrap();
            assert_eq!(replayed.len(), 1, "{name}: stale records resurrected");
            assert_eq!(replayed[0], record("u2", 2, Some(b"b")), "{name}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    fn cell(
        row: &str,
        q: &str,
        version: u64,
        value: &'static [u8],
    ) -> (CellKey, u64, Option<Bytes>) {
        (
            CellKey::new(row, "basic", q),
            version,
            Some(Bytes::from_static(value)),
        )
    }

    #[test]
    fn batch_appends_one_frame_and_replays_in_order() {
        let dir = tmpdir("batch");
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            append(&mut wal, &record("u0", 1, Some(b"solo"))).unwrap();
            wal.append_batch(&[
                cell("u1", "p0", 2, b"a"),
                cell("u1", "p1", 2, b"b"),
                (CellKey::new("u1", "basic", "r0"), 2, None), // tombstone
            ])
            .unwrap();
            wal.append_batch(&[]).unwrap(); // no-op, no frame
            let stats = wal.stats();
            assert_eq!(stats.wal_frames, 2, "one frame per append call");
            assert_eq!(stats.wal_records, 4);
        }
        let (_w, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 4);
        assert_eq!(replayed[0], record("u0", 1, Some(b"solo")));
        assert_eq!(replayed[1].key.qualifier.as_str(), "p0");
        assert_eq!(replayed[2].key.qualifier.as_str(), "p1");
        assert_eq!(replayed[3].value, None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_batch_drops_entirely_never_a_prefix() {
        let dir = tmpdir("batch-corrupt");
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            append(&mut wal, &record("u0", 1, Some(b"keep"))).unwrap();
            wal.append_batch(&[
                cell("u1", "p0", 2, b"a"),
                cell("u1", "p1", 2, b"b"),
                cell("u1", "p2", 2, b"c"),
            ])
            .unwrap();
        }
        // Flip a byte inside the *first* record of the batch: even though
        // later records are physically intact, the whole batch must vanish.
        let mut data = std::fs::read(&path).unwrap();
        let first_frame = 8 + {
            let mut head = &data[..4];
            head.get_u32_le() as usize
        };
        data[first_frame + 8 + 12] ^= 0xff;
        std::fs::write(&path, &data).unwrap();
        let (_w, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 1, "batch replays all-or-nothing");
        assert_eq!(replayed[0], record("u0", 1, Some(b"keep")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_coalesces_syncs_and_charges_simulated_wait() {
        let dir = tmpdir("group");
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        let policy = SyncPolicy::GroupCommit {
            max_batch: 4,
            max_wait: Duration::from_micros(400),
        };
        let (mut wal, _) = Wal::open_with(&path, policy).unwrap();
        let mut waits = Vec::new();
        for i in 0..8u64 {
            waits.push(append(&mut wal, &record("u1", i, Some(b"x"))).unwrap());
        }
        let stats = wal.stats();
        assert_eq!(stats.wal_syncs, 2, "8 appends, groups of 4 -> 2 syncs");
        assert_eq!(stats.wal_frames, 8);
        // Group-closing appends (every 4th) pay nothing; deferred appends
        // pay the amortized share of the window: 400us / 4 = 100us.
        let expected_share = Duration::from_micros(100);
        for (i, w) in waits.iter().enumerate() {
            if (i + 1) % 4 == 0 {
                assert_eq!(*w, Duration::ZERO, "append {i} closed its group");
            } else {
                assert_eq!(*w, expected_share, "append {i} deferred");
            }
        }
        assert_eq!(stats.wal_simulated_wait_micros, 600, "6 deferred x 100us");
        // An open group is closed by sync_pending (the tick-driven timer).
        append(&mut wal, &record("u1", 9, Some(b"y"))).unwrap();
        assert!(wal.sync_pending().unwrap());
        assert!(!wal.sync_pending().unwrap(), "nothing left pending");
        assert_eq!(wal.stats().wal_syncs, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Power loss drops exactly the tail past the last durability barrier,
    /// and each policy places that barrier differently: `Always` loses
    /// nothing, `OnTruncate` loses every append since open (or the
    /// last truncate), `GroupCommit` loses the open group window.
    #[test]
    fn power_loss_window_matches_sync_policy() {
        for (name, policy, survivors) in [
            ("always", SyncPolicy::Always, 5usize),
            ("ontrunc", SyncPolicy::OnTruncate, 0),
            (
                "group",
                SyncPolicy::GroupCommit {
                    max_batch: 4,
                    max_wait: Duration::from_micros(400),
                },
                // 5 appends in groups of 4: one closed group survives, the
                // open window of 1 is lost.
                4,
            ),
        ] {
            let dir = tmpdir(&format!("power-{name}"));
            let path = dir.join("wal.log");
            let _ = std::fs::remove_file(&path);
            let (mut wal, _) = Wal::open_with(&path, policy).unwrap();
            for i in 0..5u64 {
                append(&mut wal, &record("u1", i, Some(b"v"))).unwrap();
            }
            let replayed = wal.power_loss().unwrap();
            assert_eq!(replayed.len(), survivors, "{name}");
            // The handle stays usable: post-blackout appends are durable
            // under the same policy and recovery sees survivors + new.
            append(&mut wal, &record("u9", 100, Some(b"after"))).unwrap();
            drop(wal);
            let (_w, recovered) = Wal::open_with(&path, policy).unwrap();
            assert_eq!(recovered.len(), survivors + 1, "{name}");
            assert_eq!(
                recovered.last().unwrap(),
                &record("u9", 100, Some(b"after")),
                "{name}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Regression: recovery must truncate a torn tail off the file.
    /// Before, the garbage stayed and new appends landed *behind* it, so
    /// the next replay — which stops at the first bad frame — silently
    /// lost every acknowledged post-recovery write.
    #[test]
    fn appends_after_torn_tail_recovery_survive_the_next_replay() {
        let dir = tmpdir("torn-append");
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            append(&mut wal, &record("u1", 1, Some(b"keep"))).unwrap();
        }
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[42, 0, 0, 0, 7, 7, 7]).unwrap(); // torn half-frame
        }
        {
            let (mut wal, replayed) = Wal::open(&path).unwrap();
            assert_eq!(replayed.len(), 1);
            append(&mut wal, &record("u2", 2, Some(b"new"))).unwrap();
        }
        let (_w, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 2, "post-recovery append was lost");
        assert_eq!(replayed[1], record("u2", 2, Some(b"new")));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An injected fsync failure leaves the frame in the file without
    /// acknowledging it: a later successful barrier makes it durable, and
    /// an immediate power loss drops it.
    #[test]
    fn injected_sync_failure_leaves_frame_unacknowledged() {
        let dir = tmpdir("failsync");
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open_with(&path, SyncPolicy::Always).unwrap();
        append(&mut wal, &record("u1", 1, Some(b"ok"))).unwrap();
        wal.inject_sync_failures(1);
        assert!(append(&mut wal, &record("u2", 2, Some(b"lost"))).is_err());
        // Power loss now: only the first (synced) append survives.
        let replayed = wal.power_loss().unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0], record("u1", 1, Some(b"ok")));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `append_batch_unsynced` leaves the frame pending; the group-commit
    /// stand-in timer (`sync_pending`) later makes it durable.
    #[test]
    fn unsynced_batch_becomes_durable_at_the_next_barrier() {
        let dir = tmpdir("unsynced");
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open_with(&path, SyncPolicy::Always).unwrap();
        wal.append_batch_unsynced(&[cell("u1", "p0", 1, b"a")])
            .unwrap();
        wal.append_batch_unsynced(&[]).unwrap(); // no-op
                                                 // Before any barrier, power loss drops it.
        assert_eq!(wal.power_loss().unwrap().len(), 0);
        // Written again and then synced: survives.
        wal.append_batch_unsynced(&[cell("u1", "p0", 2, b"b")])
            .unwrap();
        assert!(wal.sync_pending().unwrap());
        let replayed = wal.power_loss().unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].version, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_clears_log() {
        let dir = tmpdir("trunc");
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path).unwrap();
        append(&mut wal, &record("u1", 1, Some(b"x"))).unwrap();
        wal.truncate().unwrap();
        append(&mut wal, &record("u2", 2, Some(b"y"))).unwrap();
        drop(wal);
        let (_w, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].key.row, crate::RowKey::from_str("u2"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Replay accepts only what `encode_batch` emits. A CRC-valid frame
    /// whose payload is anything else stops replay at that frame: earlier
    /// frames survive, later ones do not, the reopen cuts the file back to
    /// the good prefix, and the claimed count never sizes an allocation.
    #[test]
    fn crc_valid_frames_no_encoder_emits_stop_replay() {
        let one = [cell("u1", "p0", 1, b"a")];
        let two = [cell("u1", "p0", 1, b"a"), cell("u1", "p1", 1, b"b")];
        let counted = |cells: &[(CellKey, u64, Option<Bytes>)], count: u32| {
            let mut payload = encode_batch(cells).to_vec();
            payload[4..8].copy_from_slice(&count.to_le_bytes());
            payload
        };
        let cases = [
            // The retired single-record frame: a batch minus its header.
            ("no-sentinel", encode_batch(&one)[8..].to_vec()),
            ("count-above-records", counted(&two, 3)),
            (
                "trailing-bytes",
                [&encode_batch(&one)[..], &[0; 4]].concat(),
            ),
            ("count-max-short-body", counted(&one, u32::MAX)),
        ];
        for (name, payload) in cases {
            let dir = tmpdir(&format!("sweep-{name}"));
            let path = dir.join("wal.log");
            let _ = std::fs::remove_file(&path);
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append_batch(&two).unwrap();
            let good_len = std::fs::metadata(&path).unwrap().len();
            drop(wal);
            {
                use std::io::Write as _;
                let mut f = OpenOptions::new().append(true).open(&path).unwrap();
                let good = encode_batch(&one);
                for body in [&payload[..], &good[..]] {
                    f.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
                    f.write_all(&crc32(body).to_le_bytes()).unwrap();
                    f.write_all(body).unwrap();
                }
            }
            let (_w, replayed) = Wal::open(&path).unwrap();
            assert_eq!(replayed.len(), 2, "{name}: only the frame before it");
            assert_eq!(replayed[1].key.qualifier.as_str(), "p1", "{name}");
            let len = std::fs::metadata(&path).unwrap().len();
            assert_eq!(len, good_len, "{name}: file cut to the good prefix");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
