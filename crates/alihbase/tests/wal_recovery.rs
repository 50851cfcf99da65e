//! Property test: WAL crash recovery at every byte offset.
//!
//! A crash can cut the log anywhere — mid-length-prefix, mid-CRC, mid-batch
//! payload. Whatever the cut, recovery must yield exactly the records of
//! the whole frames that fit before it: never a *prefix* of a batch (a
//! batch frame carries one CRC, so it replays all-or-nothing). This pins
//! the durability contract `Store::put_batch` is built on.

mod common;

use bytes::Bytes;
use common::sized_value;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use titant_alihbase::wal::{Wal, WalRecord};
use titant_alihbase::{CellKey, RowKey, Version};

/// Unique per-case scratch directories (proptest reruns share a process).
static CASE: AtomicU64 = AtomicU64::new(0);

/// Deterministic cell content for frame `frame`, record `i`. Mixes value
/// puts with tombstones so batches carry both record shapes, and values of
/// 0–40 bytes.
fn cell(frame: usize, i: usize) -> (CellKey, Version, Option<Bytes>) {
    let key = CellKey::new(
        RowKey::from_user((frame * 7 + i) as u64),
        "basic",
        &format!("q{i}"),
    );
    let value = if i % 5 == 4 {
        None
    } else {
        Some(sized_value(&format!("v{frame}-{i}"), frame * 6 + i))
    };
    (key, 1 + frame as u64, value)
}

proptest! {
    /// Write batch frames of random sizes (one record up to six), then
    /// truncate the file at EVERY byte offset and replay. The recovered
    /// records must equal the longest whole-frame prefix that fits under
    /// the cut.
    #[test]
    fn truncation_at_any_offset_recovers_a_whole_frame_prefix(
        sizes in prop::collection::vec(1usize..7, 1..8)
    ) {
        let dir = std::env::temp_dir().join(format!(
            "titant-walrec-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");

        // Frame-by-frame: remember the file length after each frame and
        // how many records are durable at that point.
        let mut frame_ends: Vec<(u64, usize)> = vec![(0, 0)];
        let mut all_records: Vec<WalRecord> = Vec::new();
        {
            let (mut wal, existing) = Wal::open(&path).unwrap();
            prop_assert!(existing.is_empty());
            for (f, &size) in sizes.iter().enumerate() {
                // One batch frame (one CRC for all of it).
                let cells: Vec<_> = (0..size).map(|i| cell(f, i)).collect();
                wal.append_batch(&cells).unwrap();
                for (key, version, value) in cells {
                    all_records.push(WalRecord { key, version, value });
                }
                let len = std::fs::metadata(&path).unwrap().len();
                frame_ends.push((len, all_records.len()));
            }
        }

        let data = std::fs::read(&path).unwrap();
        prop_assert_eq!(data.len() as u64, frame_ends.last().unwrap().0);

        let cut_path = dir.join("cut.log");
        for offset in 0..=data.len() {
            std::fs::write(&cut_path, &data[..offset]).unwrap();
            let (_wal, recovered) = Wal::open(&cut_path).unwrap();
            let expect = frame_ends
                .iter()
                .rev()
                .find(|&&(end, _)| end <= offset as u64)
                .unwrap()
                .1;
            // A wrong length here means a torn frame (or partial batch)
            // survived the cut at `offset`.
            prop_assert_eq!(recovered.len(), expect);
            prop_assert_eq!(&recovered[..], &all_records[..expect]);
            std::fs::remove_file(&cut_path).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
