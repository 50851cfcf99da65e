//! Immutable sorted runs — the flushed on-disk representation.
//!
//! A run stores `(CellKey, Cell)` pairs sorted by key then by version
//! descending, with binary-search row reads. Runs can be persisted to a
//! length-prefixed file format (same framing as the WAL, one frame per run)
//! and loaded back, giving the store durability beyond the WAL.

use crate::bloom::{RowBloom, RowProbe};
use crate::types::{Cell, CellKey, RowKey};
use crate::wal::crc32;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::cell::OnceCell;
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

/// What a run's index says about a row before any entry is touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowPresence {
    /// Row falls outside the run's min/max row-key bounds: definitely absent.
    OutOfBounds,
    /// In bounds but the bloom filter rules it out: definitely absent.
    BloomMiss,
    /// The run may hold the row and must be searched. `bloom_checked` tells
    /// the caller whether a fruitless search counts as a bloom false
    /// positive (true) or the run simply had no filter (false).
    Possible { bloom_checked: bool },
}

/// One immutable sorted run.
#[derive(Debug, Clone, Default)]
pub struct SsTable {
    /// Sorted by key asc; per key versions sorted desc. Flat for cache
    /// locality and binary search.
    entries: Vec<(CellKey, Cell)>,
    /// Optional row filter; rebuilt via [`SsTable::rebuild_index`] after the
    /// run's contents settle (flush, merge, load). Deliberately not part of
    /// the on-disk format — it is a deterministic function of the entries,
    /// so rebuilding on load always reproduces the same bits.
    bloom: Option<RowBloom>,
}

impl SsTable {
    /// Build from entries already in run order: key ascending, each key's
    /// versions strictly descending (a memtable drain, or a merge's
    /// keep-all output).
    pub fn from_sorted(entries: Vec<(CellKey, Cell)>) -> Self {
        debug_assert!(entries
            .windows(2)
            .all(|w| w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1.version > w[1].1.version)));
        Self {
            entries,
            bloom: None,
        }
    }

    /// (Re)build the run's row bloom filter at `bits_per_key` bits per
    /// distinct row (0 disables the filter). Idempotent and deterministic:
    /// the filter depends only on the run's row set and the budget.
    pub fn rebuild_index(&mut self, bits_per_key: usize) {
        if bits_per_key == 0 || self.entries.is_empty() {
            self.bloom = None;
            return;
        }
        // Entries are row-sorted, so consecutive dedup yields distinct rows.
        let mut rows: Vec<&[u8]> = Vec::new();
        for (k, _) in &self.entries {
            if rows.last() != Some(&k.row.as_bytes()) {
                rows.push(k.row.as_bytes());
            }
        }
        self.bloom = RowBloom::build(rows.iter().copied(), rows.len(), bits_per_key);
    }

    /// Cheap index verdict for `row`: min/max row-key bounds first, then the
    /// bloom filter if present. Never a false negative — `OutOfBounds` and
    /// `BloomMiss` both guarantee the row is not in this run. The row's
    /// bloom probe is shared across runs: `probe` hashes the row the first
    /// time a filter needs it, so a read over many runs hashes once (and a
    /// read no filter sees, never).
    pub(crate) fn row_presence(&self, row: &RowKey, probe: &OnceCell<RowProbe>) -> RowPresence {
        let (Some((first, _)), Some((last, _))) = (self.entries.first(), self.entries.last())
        else {
            return RowPresence::OutOfBounds;
        };
        if *row < first.row || *row > last.row {
            return RowPresence::OutOfBounds;
        }
        let probe = || probe.get_or_init(|| RowProbe::new(row.as_bytes()));
        match &self.bloom {
            Some(bloom) if !bloom.may_contain_probe(probe()) => RowPresence::BloomMiss,
            Some(_) => RowPresence::Possible {
                bloom_checked: true,
            },
            None => RowPresence::Possible {
                bloom_checked: false,
            },
        }
    }

    /// True when the run's [min, max] row bounds intersect the scan range
    /// `[start, end)`. Never a false negative: `false` guarantees no row of
    /// this run falls inside the range, so a scan can skip it outright.
    pub fn overlaps(&self, start: &RowKey, end: &RowKey) -> bool {
        let (Some((first, _)), Some((last, _))) = (self.entries.first(), self.entries.last())
        else {
            return false;
        };
        last.row >= *start && first.row < *end
    }

    /// Number of stored cells (all versions).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the run holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate all `(key, cell)` pairs in order.
    pub fn iter(&self) -> std::slice::Iter<'_, (CellKey, Cell)> {
        self.entries.iter()
    }

    /// The entries of one row (all families, all versions), sorted like the
    /// run. Binary-searches to the row start, then walks its contiguous
    /// range — the run half of a single-row multi-get.
    pub fn row_slice(&self, row: &RowKey) -> &[(CellKey, Cell)] {
        let start = self.entries.partition_point(|(k, _)| k.row < *row);
        let rest = &self.entries[start..];
        let len = rest.iter().take_while(|(k, _)| k.row == *row).count();
        &rest[..len]
    }

    /// The entries of the rows in `[start, end)` (`None` = unbounded, and
    /// `start` must not lie above `end`), sorted like the run: two binary
    /// searches.
    pub(crate) fn rows(&self, start: Option<&RowKey>, end: Option<&RowKey>) -> &[(CellKey, Cell)] {
        let first_at = |row: &RowKey| self.entries.partition_point(|(k, _)| k.row < *row);
        let lo = start.map_or(0, first_at);
        let hi = end.map_or(self.entries.len(), first_at);
        &self.entries[lo..hi]
    }

    /// Persist to a file (length-prefixed CRC frame).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let payload = self.encode_payload();
        let mut f = File::create(path)?;
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(&payload).to_le_bytes());
        f.write_all(&header)?;
        f.write_all(&payload)
    }

    /// The frame payload: the entry count, then each entry in run order.
    fn encode_payload(&self) -> BytesMut {
        let mut payload = BytesMut::new();
        payload.put_u64_le(self.entries.len() as u64);
        for (k, c) in &self.entries {
            put_slice(&mut payload, k.row.as_bytes());
            put_slice(&mut payload, k.family.as_bytes());
            put_slice(&mut payload, k.qualifier.as_bytes());
            payload.put_u64_le(c.version);
            match &c.value {
                Some(v) => {
                    payload.put_u8(1);
                    put_slice(&mut payload, v);
                }
                None => payload.put_u8(0),
            }
        }
        payload
    }

    /// Load from a file written by [`SsTable::save`].
    pub fn load(path: &Path) -> std::io::Result<SsTable> {
        let mut data = Vec::new();
        File::open(path)?.read_to_end(&mut data)?;
        Self::decode(&data)
    }

    /// Decode a whole run file. Accepts exactly what [`SsTable::save`]
    /// writes — one frame, a count no larger than the payload can hold,
    /// entries in run order with no repeated `(key, version)`, nothing
    /// after the last entry — and returns `InvalidData` for anything
    /// else, never a panic or a count-sized allocation.
    fn decode(data: &[u8]) -> std::io::Result<SsTable> {
        if data.len() < 8 {
            return Err(corrupt("truncated header"));
        }
        let len = u32::from_le_bytes(data[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(data[4..8].try_into().unwrap());
        if data.len() < 8 + len {
            return Err(corrupt("truncated payload"));
        }
        if data.len() > 8 + len {
            return Err(corrupt("bytes after the frame"));
        }
        let payload = &data[8..];
        if crc32(payload) != crc {
            return Err(corrupt("crc mismatch"));
        }
        let mut buf = payload;
        if buf.remaining() < 8 {
            return Err(corrupt("missing count"));
        }
        let count = buf.get_u64_le();
        let mut entries: Vec<(CellKey, Cell)> =
            Vec::with_capacity(count.min((buf.remaining() / MIN_ENTRY_BYTES) as u64) as usize);
        for _ in 0..count {
            let row = get_slice(&mut buf).ok_or_else(|| corrupt("row"))?;
            let family = get_slice(&mut buf).ok_or_else(|| corrupt("family"))?;
            let qualifier = get_slice(&mut buf).ok_or_else(|| corrupt("qualifier"))?;
            if buf.remaining() < 9 {
                return Err(corrupt("cell header"));
            }
            let version = buf.get_u64_le();
            let value = match buf.get_u8() {
                0 => None,
                1 => Some(Bytes::copy_from_slice(
                    get_slice(&mut buf).ok_or_else(|| corrupt("value"))?,
                )),
                _ => return Err(corrupt("value flag")),
            };
            let key = CellKey {
                row: row.into(),
                family: utf8(family)?.into(),
                qualifier: utf8(qualifier)?.into(),
            };
            // Key ascending, then version strictly descending: what
            // `row_slice`'s binary search and the merge read assume.
            if let Some((prev_key, prev)) = entries.last() {
                if *prev_key > key || (*prev_key == key && prev.version <= version) {
                    return Err(corrupt("entries out of order"));
                }
            }
            entries.push((key, Cell { version, value }));
        }
        if buf.remaining() != 0 {
            return Err(corrupt("bytes after the last entry"));
        }
        Ok(SsTable {
            entries,
            bloom: None,
        })
    }
}

/// The smallest encoded entry: three empty slices (a `u32` length each), a
/// `u64` version and a tombstone flag. Caps the preallocation a claimed
/// count can ask for.
const MIN_ENTRY_BYTES: usize = 3 * 4 + 8 + 1;

fn corrupt(what: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("corrupt sstable: {what}"),
    )
}

fn put_slice(buf: &mut BytesMut, data: &[u8]) {
    buf.put_u32_le(data.len() as u32);
    buf.put_slice(data);
}

fn utf8(bytes: &[u8]) -> std::io::Result<&str> {
    std::str::from_utf8(bytes).map_err(|_| corrupt("utf8"))
}

fn get_slice<'a>(buf: &mut &'a [u8]) -> Option<&'a [u8]> {
    if buf.remaining() < 4 {
        return None;
    }
    let len = buf.get_u32_le() as usize;
    let (out, rest) = buf.split_at_checked(len)?;
    *buf = rest;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::MemTable;
    use crate::types::Version;

    fn key(row: &str, q: &str) -> CellKey {
        CellKey::new(row, "basic", q)
    }

    /// Latest cell of `key` at or below `as_of` (tombstones included).
    fn get<'a>(t: &'a SsTable, key: &CellKey, as_of: Version) -> Option<&'a Cell> {
        let row = t.row_slice(&key.row).iter();
        row.filter(|(k, _)| k == key)
            .map(|(_, c)| c)
            .find(|c| c.version <= as_of)
    }

    fn table_with(rows: &[(&str, &str, u64, Option<&'static [u8]>)]) -> SsTable {
        let mut m = MemTable::new();
        for &(r, q, v, val) in rows {
            m.put(key(r, q), v, val.map(Bytes::from_static));
        }
        SsTable::from_sorted(m.drain_sorted())
    }

    #[test]
    fn point_reads_find_latest_version() {
        let t = table_with(&[
            ("u1", "age", 1, Some(b"30")),
            ("u1", "age", 5, Some(b"31")),
            ("u2", "age", 3, Some(b"40")),
        ]);
        assert_eq!(get(&t, &key("u1", "age"), u64::MAX).unwrap().version, 5);
        assert_eq!(get(&t, &key("u1", "age"), 2).unwrap().version, 1);
        assert!(get(&t, &key("u3", "age"), u64::MAX).is_none());
    }

    #[test]
    fn save_load_round_trip() {
        let t = table_with(&[
            ("u1", "age", 1, Some(b"30")),
            ("u1", "gender", 1, Some(b"f")),
            ("u2", "age", 2, None),
        ]);
        let dir = std::env::temp_dir().join(format!("titant-sst-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run0.sst");
        t.save(&path).unwrap();
        let loaded = SsTable::load(&path).unwrap();
        assert_eq!(loaded.len(), t.len());
        assert_eq!(
            get(&loaded, &key("u1", "age"), u64::MAX).unwrap().value,
            get(&t, &key("u1", "age"), u64::MAX).unwrap().value
        );
        // Tombstones survive save/load (they only die at compaction).
        assert!(get(&loaded, &key("u2", "age"), u64::MAX)
            .unwrap()
            .value
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_file_is_rejected() {
        let dir = std::env::temp_dir().join(format!("titant-sstc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.sst");
        let t = table_with(&[("u1", "age", 1, Some(b"x"))]);
        t.save(&path).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 1] ^= 0xff;
        std::fs::write(&path, &data).unwrap();
        assert!(SsTable::load(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `payload` framed as a run file, with a valid CRC.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut file = (payload.len() as u32).to_le_bytes().to_vec();
        file.extend_from_slice(&crc32(payload).to_le_bytes());
        file.extend_from_slice(payload);
        file
    }

    /// The payload `save` writes for `t`, with its count replaced.
    fn payload_with_count(t: &SsTable, count: u64) -> Vec<u8> {
        let mut payload = t.encode_payload().to_vec();
        payload[..8].copy_from_slice(&count.to_le_bytes());
        payload
    }

    fn invalid_data(result: std::io::Result<SsTable>) -> bool {
        matches!(result, Err(e) if e.kind() == std::io::ErrorKind::InvalidData)
    }

    /// Regression: a CRC-valid count of `u64::MAX` panicked with "capacity
    /// overflow", and 2^32 asked for a ~300 GB allocation.
    #[test]
    fn claimed_count_never_sizes_the_allocation() {
        let t = table_with(&[("u1", "age", 1, Some(b"x"))]);
        for count in [u64::MAX, 1 << 32, 2] {
            let file = framed(&payload_with_count(&t, count));
            assert!(invalid_data(SsTable::decode(&file)), "count {count}");
        }
    }

    /// Regression: bytes after the last entry were silently ignored.
    #[test]
    fn bytes_after_the_last_entry_are_rejected() {
        let t = table_with(&[("u1", "age", 1, Some(b"x"))]);
        let mut payload = payload_with_count(&t, 1);
        assert_eq!(SsTable::decode(&framed(&payload)).unwrap().len(), 1);
        payload.push(0);
        assert!(invalid_data(SsTable::decode(&framed(&payload))));
    }

    /// Regression: entries in an order `save` never writes were accepted,
    /// and `row_slice`'s binary search then misread them.
    #[test]
    fn entries_out_of_run_order_are_rejected() {
        let encode = |entries: &[(&str, u64)]| {
            let mut payload = BytesMut::new();
            payload.put_u64_le(entries.len() as u64);
            for &(row, version) in entries {
                put_slice(&mut payload, row.as_bytes());
                put_slice(&mut payload, b"basic");
                put_slice(&mut payload, b"age");
                payload.put_u64_le(version);
                payload.put_u8(0);
            }
            framed(&payload)
        };
        assert_eq!(
            SsTable::decode(&encode(&[("u1", 2), ("u1", 1), ("u2", 1)]))
                .unwrap()
                .len(),
            3
        );
        for (name, entries) in [
            ("keys descending", [("u2", 1), ("u1", 1)]),
            ("versions ascending", [("u1", 1), ("u1", 2)]),
            ("repeated (key, version)", [("u1", 1), ("u1", 1)]),
        ] {
            assert!(invalid_data(SsTable::decode(&encode(&entries))), "{name}");
        }
    }

    /// Every truncation and every single-bit flip of a saved run file is
    /// `InvalidData`: never a panic, never a silently different run.
    #[test]
    fn every_truncation_and_bit_flip_of_a_run_file_is_invalid_data() {
        let t = table_with(&[
            ("u1", "age", 1, Some(b"30")),
            ("u1", "age", 2, None),
            ("u2", "gender", 1, Some(b"f")),
        ]);
        let dir = std::env::temp_dir().join(format!("titant-sstw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.sst");
        t.save(&path).unwrap();
        let file = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(SsTable::decode(&file).unwrap().len(), t.len());
        for cut in 0..file.len() {
            assert!(invalid_data(SsTable::decode(&file[..cut])), "cut {cut}");
        }
        let mut flipped = file.clone();
        for bit in 0..file.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(invalid_data(SsTable::decode(&flipped)), "bit {bit}");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn row_presence_bounds_and_bloom() {
        let mut t = table_with(&[
            ("u3", "age", 1, Some(b"a")),
            ("u5", "age", 1, Some(b"b")),
            ("u7", "age", 1, Some(b"c")),
        ]);
        // Without a filter: bounds only.
        assert_eq!(
            t.row_presence(&RowKey::from("u1"), &OnceCell::new()),
            RowPresence::OutOfBounds
        );
        assert_eq!(
            t.row_presence(&RowKey::from("u9"), &OnceCell::new()),
            RowPresence::OutOfBounds
        );
        assert_eq!(
            t.row_presence(&RowKey::from("u5"), &OnceCell::new()),
            RowPresence::Possible {
                bloom_checked: false
            }
        );
        t.rebuild_index(10);
        assert!(t.bloom.is_some());
        for present in ["u3", "u5", "u7"] {
            assert_eq!(
                t.row_presence(&RowKey::from(present), &OnceCell::new()),
                RowPresence::Possible {
                    bloom_checked: true
                },
                "no false negatives allowed"
            );
        }
        // In-bounds but absent: either a BloomMiss or a (counted) fp.
        let verdict = t.row_presence(&RowKey::from("u4"), &OnceCell::new());
        assert_ne!(verdict, RowPresence::OutOfBounds);
        // Disabling restores the unfiltered verdict.
        t.rebuild_index(0);
        assert!(t.bloom.is_none());
    }

    #[test]
    fn rebuilt_index_is_deterministic() {
        let rows: Vec<(&str, &str, u64, Option<&'static [u8]>)> = vec![
            ("u1", "age", 1, Some(b"a")),
            ("u2", "age", 1, Some(b"b")),
            ("u8", "age", 1, Some(b"c")),
        ];
        let mut a = table_with(&rows);
        let mut b = table_with(&rows);
        a.rebuild_index(10);
        b.rebuild_index(10);
        for probe in 0..1000u32 {
            let row = RowKey::from(format!("p{probe}"));
            assert_eq!(
                a.row_presence(&row, &OnceCell::new()),
                b.row_presence(&row, &OnceCell::new())
            );
        }
    }
}
