//! In-memory sorted write buffer.

use crate::types::{Cell, CellKey, RowKey, Version};
use bytes::Bytes;
use std::collections::btree_map::{BTreeMap, Entry};
use std::ops::Bound;

/// Sorted buffer of recent writes. Each cell key holds its versions newest
/// first; locating a row is O(log n).
#[derive(Debug, Default)]
pub struct MemTable {
    /// Cell key -> versions sorted descending by version.
    entries: BTreeMap<CellKey, Vec<Cell>>,
    approx_bytes: usize,
}

impl MemTable {
    /// Empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a cell (value or tombstone).
    ///
    /// Accounting: key bytes are charged once per distinct cell key, and a
    /// same-version overwrite reclaims the replaced value's bytes, so N
    /// overwrites of one cell cost the same as one write (plus any value
    /// growth) rather than N full key+value charges.
    pub fn put(&mut self, key: CellKey, version: Version, value: Option<Bytes>) {
        const CELL_OVERHEAD: usize = 24;
        let value_bytes = value.as_ref().map_or(0, |v| v.len());
        let versions = match self.entries.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                self.approx_bytes += e.key().byte_len();
                e.insert(Vec::new())
            }
        };
        let pos = versions
            .binary_search_by(|c| version.cmp(&c.version))
            .unwrap_or_else(|p| p);
        // Same version overwrites (last write wins).
        if pos < versions.len() && versions[pos].version == version {
            let old_bytes = versions[pos].value.as_ref().map_or(0, |v| v.len());
            self.approx_bytes = (self.approx_bytes + value_bytes).saturating_sub(old_bytes);
            versions[pos].value = value;
        } else {
            self.approx_bytes += value_bytes + CELL_OVERHEAD;
            versions.insert(pos, Cell { version, value });
        }
    }

    /// Approximate memory footprint, used for flush triggering.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// True when no writes are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drain into run order for flushing: key ascending, each key's
    /// versions newest first.
    pub fn drain_sorted(&mut self) -> Vec<(CellKey, Cell)> {
        self.approx_bytes = 0;
        let entries = std::mem::take(&mut self.entries);
        let mut out = Vec::with_capacity(entries.len());
        for (key, cells) in entries {
            out.extend(cells.into_iter().map(|cell| (key.clone(), cell)));
        }
        out
    }

    /// The cells of the rows in `[start, end)` (`None` = unbounded, and
    /// `start` must not lie above `end`), in key order, each key's versions
    /// newest first. O(log n) to locate `start`.
    pub(crate) fn cells<'a>(
        &'a self,
        start: Option<&RowKey>,
        end: Option<&RowKey>,
    ) -> impl Iterator<Item = (&'a CellKey, &'a Cell)> + Clone + 'a {
        // The empty family and qualifier sort first within a row.
        let first_key = |row: &RowKey| CellKey::new(row.clone(), "", "");
        let lo = start.map_or(Bound::Unbounded, |row| Bound::Included(first_key(row)));
        let hi = end.map_or(Bound::Unbounded, |row| Bound::Excluded(first_key(row)));
        let keys = self.entries.range((lo, hi));
        keys.flat_map(|(key, cells)| cells.iter().map(move |cell| (key, cell)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(row: &str, q: &str) -> CellKey {
        CellKey::new(row, "basic", q)
    }

    /// Latest cell of `key` at or below `as_of` (tombstones included).
    fn get<'a>(m: &'a MemTable, key: &CellKey, as_of: Version) -> Option<&'a Cell> {
        m.entries.get(key)?.iter().find(|c| c.version <= as_of)
    }

    #[test]
    fn put_get_latest_version() {
        let mut m = MemTable::new();
        m.put(key("u1", "age"), 1, Some(Bytes::from_static(b"30")));
        m.put(key("u1", "age"), 3, Some(Bytes::from_static(b"31")));
        m.put(key("u1", "age"), 2, Some(Bytes::from_static(b"30.5")));
        let c = get(&m, &key("u1", "age"), u64::MAX).unwrap();
        assert_eq!(c.version, 3);
        assert_eq!(c.value.as_deref(), Some(b"31".as_ref()));
    }

    #[test]
    fn versioned_read_sees_the_past() {
        let mut m = MemTable::new();
        m.put(key("u1", "age"), 10, Some(Bytes::from_static(b"a")));
        m.put(key("u1", "age"), 20, Some(Bytes::from_static(b"b")));
        assert_eq!(get(&m, &key("u1", "age"), 15).unwrap().version, 10);
        assert!(get(&m, &key("u1", "age"), 5).is_none());
    }

    #[test]
    fn same_version_overwrites() {
        let mut m = MemTable::new();
        m.put(key("u1", "age"), 7, Some(Bytes::from_static(b"x")));
        m.put(key("u1", "age"), 7, Some(Bytes::from_static(b"y")));
        let c = get(&m, &key("u1", "age"), u64::MAX).unwrap();
        assert_eq!(c.value.as_deref(), Some(b"y".as_ref()));
        assert_eq!(m.entries[&key("u1", "age")].len(), 1);
    }

    #[test]
    fn tombstone_is_returned() {
        let mut m = MemTable::new();
        m.put(key("u1", "age"), 1, Some(Bytes::from_static(b"x")));
        m.put(key("u1", "age"), 2, None);
        let c = get(&m, &key("u1", "age"), u64::MAX).unwrap();
        assert!(c.value.is_none(), "expected tombstone");
    }

    #[test]
    fn overwrites_do_not_inflate_accounting() {
        let mut m = MemTable::new();
        m.put(key("u1", "age"), 7, Some(Bytes::from_static(b"aaaaaaaa")));
        let after_first = m.approx_bytes();
        for _ in 0..1_000 {
            m.put(key("u1", "age"), 7, Some(Bytes::from_static(b"bbbbbbbb")));
        }
        // Same-version overwrites of an equal-sized value must not grow the
        // footprint at all — pre-fix this ballooned by ~1000x and triggered
        // flushes long before memtable_flush_bytes.
        assert_eq!(m.approx_bytes(), after_first);
    }

    #[test]
    fn overwrite_reclaims_shrunk_value_bytes() {
        let mut m = MemTable::new();
        m.put(key("u1", "age"), 1, Some(Bytes::from_static(b"0123456789")));
        let big = m.approx_bytes();
        m.put(key("u1", "age"), 1, Some(Bytes::from_static(b"01")));
        assert_eq!(m.approx_bytes(), big - 8);
        m.put(key("u1", "age"), 1, None);
        assert_eq!(m.approx_bytes(), big - 10);
    }

    #[test]
    fn new_versions_of_one_key_charge_key_bytes_once() {
        let mut m = MemTable::new();
        m.put(key("u1", "age"), 1, Some(Bytes::from_static(b"xx")));
        let one = m.approx_bytes();
        m.put(key("u1", "age"), 2, Some(Bytes::from_static(b"xx")));
        let two = m.approx_bytes();
        // The second distinct version pays value + per-cell overhead but not
        // the row/family/qualifier bytes again.
        let key_bytes = "u1".len() + "basic".len() + "age".len();
        assert_eq!(two - one, one - key_bytes);
    }

    #[test]
    fn drain_produces_sorted_keys_and_resets() {
        let mut m = MemTable::new();
        m.put(key("u2", "a"), 1, Some(Bytes::from_static(b"1")));
        m.put(key("u1", "b"), 1, Some(Bytes::from_static(b"2")));
        m.put(key("u1", "a"), 1, Some(Bytes::from_static(b"3")));
        assert!(m.approx_bytes() > 0);
        let drained = m.drain_sorted();
        assert_eq!(drained.len(), 3);
        assert!(drained.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(m.is_empty());
        assert_eq!(m.approx_bytes(), 0);
    }
}
