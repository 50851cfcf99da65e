//! The Figure 7 cell layout: per-user features and embeddings in Ali-HBase.
//!
//! Each user is a row (`u{id}`); column family `basic` holds the user-side
//! feature values (one qualifier each), and `embedding` holds one qualifier
//! per embedding dimension. Every offline run uploads a fresh **version**,
//! so the MS always reads the newest consistent snapshot while older
//! versions stay available for rollback.

use crate::error::ServeError;
use bytes::Bytes;
use std::sync::OnceLock;
use std::time::Duration;
use titant_alihbase::{
    CellKey, ColumnFamily, Qualifier, ReadOptions, RegionedTable, RowKey, Version,
};

/// How many qualifier names per family are precomputed at first use.
///
/// Real TitAnt rows hold a few hundred features at most; anything past the
/// table is formatted on the fly, so the cap is a memory bound, not a
/// correctness limit.
const PRECOMPUTED_QUALIFIERS: usize = 512;

/// Precomputed family and qualifier names.
///
/// Encoding used to build `p{i}` / `r{i}` / `{i}` strings per cell per put;
/// it now copies a prebuilt name (a qualifier is an inline value, so the
/// copy allocates nothing). Decoding needs no table: [`index_of`] parses
/// the name's bytes. Built once per process, shared by every codec instance
/// (the layout names do not depend on codec widths).
struct QualTable {
    basic: ColumnFamily,
    embedding_family: ColumnFamily,
    /// Streaming velocity slots live in their own family so T+1 uploads
    /// and the streaming aggregator never contend on a qualifier.
    velocity_family: ColumnFamily,
    payer: Vec<Qualifier>,
    receiver: Vec<Qualifier>,
    /// Plain dimension indices, shared by the `embedding` and `velocity`
    /// families (the family disambiguates).
    index: Vec<Qualifier>,
}

impl QualTable {
    fn build() -> QualTable {
        let names = |prefix: &str| {
            (0..PRECOMPUTED_QUALIFIERS)
                .map(|i| format!("{prefix}{i}").into())
                .collect()
        };
        QualTable {
            basic: "basic".into(),
            embedding_family: "embedding".into(),
            velocity_family: "velocity".into(),
            payer: names("p"),
            receiver: names("r"),
            index: names(""),
        }
    }

    fn payer_qualifier(&self, i: usize) -> Qualifier {
        name(&self.payer, "p", i)
    }

    fn receiver_qualifier(&self, i: usize) -> Qualifier {
        name(&self.receiver, "r", i)
    }

    fn index_qualifier(&self, i: usize) -> Qualifier {
        name(&self.index, "", i)
    }
}

/// The qualifier `{prefix}{i}`: copied from `names` when the table reaches
/// that far, formatted past it.
fn name(names: &[Qualifier], prefix: &str, i: usize) -> Qualifier {
    match names.get(i) {
        Some(q) => q.clone(),
        None => format!("{prefix}{i}").into(),
    }
}

/// The index a qualifier's bytes spell, accepting exactly what the encoder
/// emits: decimal digits with no sign and no leading zero (`0` itself
/// aside), and nothing that overflows a `usize`. A looser parse would take
/// `+5` and `007` too, letting a stray cell alias a real slot.
fn index_of(digits: &[u8]) -> Option<usize> {
    match digits {
        [] | [b'0', _, ..] => None,
        _ => digits.iter().try_fold(0usize, |n, &b| {
            let digit = b.is_ascii_digit().then(|| usize::from(b - b'0'))?;
            n.checked_mul(10)?.checked_add(digit)
        }),
    }
}

fn qual_table() -> &'static QualTable {
    static QUALIFIERS: OnceLock<QualTable> = OnceLock::new();
    QUALIFIERS.get_or_init(QualTable::build)
}

/// One encoded cell: the little-endian `f32` at `family:qualifier` of `row`.
fn cell(
    row: &RowKey,
    family: &ColumnFamily,
    qualifier: Qualifier,
    value: f32,
    version: Version,
) -> (CellKey, Version, Option<Bytes>) {
    let key = CellKey {
        row: row.clone(),
        family: family.clone(),
        qualifier,
    };
    let value = Bytes::copy_from_slice(&value.to_le_bytes());
    (key, version, Some(value))
}

/// Per-user serving payload: what the offline stage uploads and the MS
/// fetches per transfer party.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UserFeatures {
    /// Payer-side features (profile + outgoing aggregates).
    pub payer_side: Vec<f32>,
    /// Receiver-side features (profile + incoming aggregates).
    pub receiver_side: Vec<f32>,
    /// Node embedding (possibly empty for users outside the network).
    pub embedding: Vec<f32>,
    /// Streaming velocity slots (windowed counts / amounts / distinct
    /// counterparties). Empty for users the streaming tier has not
    /// touched; individual missing slots decode as zero.
    pub velocity: Vec<f32>,
}

/// A partial per-user feature update: `(index, value)` pairs per block.
///
/// This is the streaming-ingest unit — an online job corrects a handful of
/// aggregates for a user without re-uploading the whole row. Untouched
/// qualifiers keep their previous version, so a read at `Version::MAX`
/// merges the delta over the last full upload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeatureDelta {
    /// The user whose row is patched.
    pub user: u64,
    /// Payer-side updates as `(feature index, new value)`.
    pub payer: Vec<(usize, f32)>,
    /// Receiver-side updates as `(feature index, new value)`.
    pub receiver: Vec<(usize, f32)>,
    /// Embedding-dimension updates as `(dimension, new value)`.
    pub embedding: Vec<(usize, f32)>,
    /// Velocity-slot updates as `(slot index, new value)` — the unit the
    /// streaming aggregator emits on every tick advance.
    pub velocity: Vec<(usize, f32)>,
}

impl FeatureDelta {
    /// Number of cells this delta writes.
    pub fn len(&self) -> usize {
        self.payer.len() + self.receiver.len() + self.embedding.len() + self.velocity.len()
    }

    /// True when the delta patches nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Encodes/decodes user features to the wide-column layout.
pub struct FeatureCodec {
    /// Embedding dimensionality expected at decode time.
    pub embedding_dim: usize,
    /// Widths of the two basic-feature sides.
    pub payer_width: usize,
    pub receiver_width: usize,
    /// Streaming velocity slots per user; `0` disables the block entirely
    /// (no extra cells written, none expected at decode).
    pub velocity_width: usize,
}

impl FeatureCodec {
    /// Row key of a user.
    pub fn row_key(user: u64) -> RowKey {
        RowKey::from_user(user)
    }

    /// Encode one user's full row as a single write batch.
    ///
    /// The returned cells go through [`RegionedTable::put_rows`] as one
    /// all-or-nothing unit: one store-lock acquisition and one WAL frame
    /// per owning region instead of one of each per qualifier.
    pub fn encode_user(
        &self,
        user: u64,
        features: &UserFeatures,
        version: Version,
    ) -> Vec<(CellKey, Version, Option<Bytes>)> {
        assert_eq!(features.payer_side.len(), self.payer_width);
        assert_eq!(features.receiver_side.len(), self.receiver_width);
        let quals = qual_table();
        let row = Self::row_key(user);
        let mut cells = Vec::with_capacity(
            features.payer_side.len() + features.receiver_side.len() + features.embedding.len(),
        );
        for (i, &v) in features.payer_side.iter().enumerate() {
            let qualifier = quals.payer_qualifier(i);
            cells.push(cell(&row, &quals.basic, qualifier, v, version));
        }
        for (i, &v) in features.receiver_side.iter().enumerate() {
            let qualifier = quals.receiver_qualifier(i);
            cells.push(cell(&row, &quals.basic, qualifier, v, version));
        }
        for (i, &v) in features.embedding.iter().enumerate() {
            let qualifier = quals.index_qualifier(i);
            cells.push(cell(&row, &quals.embedding_family, qualifier, v, version));
        }
        for (i, &v) in features.velocity.iter().enumerate() {
            let qualifier = quals.index_qualifier(i);
            cells.push(cell(&row, &quals.velocity_family, qualifier, v, version));
        }
        cells
    }

    /// Encode a partial update as a write batch (same shape as
    /// [`Self::encode_user`], covering only the touched qualifiers).
    ///
    /// Indices must fall inside the codec's declared widths — a delta for a
    /// qualifier the layout cannot serve is a programming error, same as an
    /// ill-sized full upload.
    pub fn encode_delta(
        &self,
        delta: &FeatureDelta,
        version: Version,
    ) -> Vec<(CellKey, Version, Option<Bytes>)> {
        let quals = qual_table();
        let row = Self::row_key(delta.user);
        let mut cells = Vec::with_capacity(delta.len());
        for &(i, v) in &delta.payer {
            assert!(i < self.payer_width, "payer delta index {i} out of layout");
            let qualifier = quals.payer_qualifier(i);
            cells.push(cell(&row, &quals.basic, qualifier, v, version));
        }
        for &(i, v) in &delta.receiver {
            assert!(
                i < self.receiver_width,
                "receiver delta index {i} out of layout"
            );
            let qualifier = quals.receiver_qualifier(i);
            cells.push(cell(&row, &quals.basic, qualifier, v, version));
        }
        for &(i, v) in &delta.embedding {
            assert!(
                i < self.embedding_dim,
                "embedding delta index {i} out of layout"
            );
            let qualifier = quals.index_qualifier(i);
            cells.push(cell(&row, &quals.embedding_family, qualifier, v, version));
        }
        for &(i, v) in &delta.velocity {
            assert!(
                i < self.velocity_width,
                "velocity delta index {i} out of layout"
            );
            let qualifier = quals.index_qualifier(i);
            cells.push(cell(&row, &quals.velocity_family, qualifier, v, version));
        }
        cells
    }

    /// Fetch a user's features at or below `as_of` (`Version::MAX` =
    /// latest) with a **single row read** — one store operation per user —
    /// and decode the returned cells in one pass.
    ///
    /// Missing users yield `Ok(None)`; users without a (complete) embedding
    /// get a zero vector (the cold-start case). A row that exists but is
    /// missing part of its basic block, or holds a cell that is not a
    /// 4-byte `f32`, is reported as a torn-row/torn-cell error the server
    /// degrades on.
    pub fn get_user(
        &self,
        table: &RegionedTable,
        user: u64,
        as_of: Version,
    ) -> Result<Option<UserFeatures>, ServeError> {
        let row = Self::row_key(user);
        self.decode_cells(user, &table.get_row(&row, as_of))
    }

    /// One [`Self::get_user`] per user, in input order. Hidden: nothing in
    /// the workspace calls it; the name and signature stay only because
    /// `benchmark/src/api.rs` pins them, and removing it is a benchmark
    /// issue of its own.
    #[doc(hidden)]
    pub fn get_users(
        &self,
        table: &RegionedTable,
        users: &[u64],
        as_of: Version,
    ) -> Vec<Result<Option<UserFeatures>, ServeError>> {
        users
            .iter()
            .map(|&user| self.get_user(table, user, as_of))
            .collect()
    }

    /// [`Self::get_user`] through the fault-aware read path: the read goes
    /// to the replica named in `opts`, may fault per the table's installed
    /// [`titant_alihbase::FaultHook`], and reports the simulated latency it
    /// absorbed. A faulted read surfaces as [`ServeError::Fetch`] carrying
    /// the classified [`titant_alihbase::ReadFault`] for the server's
    /// retry/hedge/failover loop.
    pub fn get_user_opts(
        &self,
        table: &RegionedTable,
        user: u64,
        as_of: Version,
        opts: ReadOptions,
    ) -> Result<(Option<UserFeatures>, Duration), ServeError> {
        let row = Self::row_key(user);
        let read = table
            .try_get_row(&row, as_of, opts)
            .map_err(|fault| ServeError::Fetch { user, fault })?;
        Ok((self.decode_cells(user, &read.cells)?, read.waited))
    }

    /// Decode one row's cells into [`UserFeatures`], straight into the four
    /// served vectors (allocated once, at their final widths): families and
    /// qualifiers resolve from their bytes, and a count per block of the
    /// slots written stands in for staging each slot as an `Option`.
    ///
    /// The counts are exact because the cells come from one row read —
    /// key-sorted with no key twice — and [`index_of`] maps at most one
    /// qualifier to each slot.
    fn decode_cells(
        &self,
        user: u64,
        cells: &[(CellKey, Bytes)],
    ) -> Result<Option<UserFeatures>, ServeError> {
        if cells.is_empty() {
            return Ok(None);
        }
        let mut row = UserFeatures {
            payer_side: vec![0.0; self.payer_width],
            receiver_side: vec![0.0; self.receiver_width],
            embedding: vec![0.0; self.embedding_dim],
            velocity: vec![0.0; self.velocity_width],
        };
        let (mut basic_seen, mut embedding_seen) = (0, 0);
        for (key, bytes) in cells {
            let qualifier = key.qualifier.as_bytes();
            let (slot, seen) = match key.family.as_bytes() {
                b"basic" => {
                    let side = match qualifier.split_first() {
                        Some((b'p', digits)) => Some((&mut row.payer_side, digits)),
                        Some((b'r', digits)) => Some((&mut row.receiver_side, digits)),
                        _ => None,
                    };
                    let slot = side.and_then(|(side, digits)| side.get_mut(index_of(digits)?));
                    (slot, Some(&mut basic_seen))
                }
                b"embedding" => (
                    index_of(qualifier).and_then(|i| row.embedding.get_mut(i)),
                    Some(&mut embedding_seen),
                ),
                b"velocity" => (
                    index_of(qualifier).and_then(|i| row.velocity.get_mut(i)),
                    None,
                ),
                _ => (None, None),
            };
            // Unknown families/qualifiers and out-of-range indices are
            // ignored: the layout, not the row, decides what gets served.
            let Some(slot) = slot else { continue };
            let value: [u8; 4] = bytes
                .as_ref()
                .try_into()
                .map_err(|_| ServeError::TornCell {
                    user,
                    column: format!("{}:{}", key.family, key.qualifier),
                    len: bytes.len(),
                })?;
            *slot = f32::from_le_bytes(value);
            if let Some(seen) = seen {
                *seen += 1;
            }
        }
        let expected = self.payer_width + self.receiver_width;
        if basic_seen < expected {
            return Err(ServeError::TornRow {
                user,
                present: basic_seen,
                expected,
            });
        }
        // Any missing embedding dimension downgrades the whole embedding to
        // the zero vector — the cold-start input the models trained on.
        if embedding_seen < self.embedding_dim {
            row.embedding.fill(0.0);
        }
        // Velocity slots are independent counters patched one at a time by
        // streaming deltas, so — unlike the all-or-nothing embedding — each
        // missing slot individually decodes as zero ("no activity seen"):
        // the value it was allocated with.
        Ok(Some(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use titant_alihbase::StoreConfig;

    /// Where a `basic`-family qualifier lands in the decoded row.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum BasicSlot {
        Payer(usize),
        Receiver(usize),
    }

    /// The string parse the byte parse replaced.
    fn reference_index_of(digits: &str) -> Option<usize> {
        let canonical = digits.bytes().all(|b| b.is_ascii_digit())
            && (digits == "0" || !digits.starts_with('0'));
        digits.parse().ok().filter(|_| canonical)
    }

    /// The string resolve of a `basic` qualifier the byte decode replaced.
    fn reference_basic_slot(qualifier: &str) -> Option<BasicSlot> {
        let (tag, digits) = qualifier.split_at_checked(1)?;
        let i = reference_index_of(digits)?;
        match tag {
            "p" => Some(BasicSlot::Payer(i)),
            "r" => Some(BasicSlot::Receiver(i)),
            _ => None,
        }
    }

    /// The decode [`FeatureCodec::decode_cells`] replaced: names resolved as
    /// strings, every slot staged as an `Option`, then collected.
    fn reference_decode_cells(
        codec: &FeatureCodec,
        user: u64,
        cells: &[(CellKey, Bytes)],
    ) -> Result<Option<UserFeatures>, ServeError> {
        if cells.is_empty() {
            return Ok(None);
        }
        let mut payer_side = vec![None; codec.payer_width];
        let mut receiver_side = vec![None; codec.receiver_width];
        let mut embedding = vec![None; codec.embedding_dim];
        let mut velocity = vec![None; codec.velocity_width];
        for (key, bytes) in cells {
            let qualifier = key.qualifier.as_str();
            let slot = match key.family.as_str() {
                "basic" => match reference_basic_slot(qualifier) {
                    Some(BasicSlot::Payer(i)) => payer_side.get_mut(i),
                    Some(BasicSlot::Receiver(i)) => receiver_side.get_mut(i),
                    None => None,
                },
                "embedding" => reference_index_of(qualifier).and_then(|i| embedding.get_mut(i)),
                "velocity" => reference_index_of(qualifier).and_then(|i| velocity.get_mut(i)),
                _ => None,
            };
            let Some(slot) = slot else { continue };
            let value: [u8; 4] = bytes
                .as_ref()
                .try_into()
                .map_err(|_| ServeError::TornCell {
                    user,
                    column: format!("{}:{}", key.family, key.qualifier),
                    len: bytes.len(),
                })?;
            *slot = Some(f32::from_le_bytes(value));
        }
        let present = payer_side.iter().flatten().count() + receiver_side.iter().flatten().count();
        let expected = codec.payer_width + codec.receiver_width;
        if present < expected {
            return Err(ServeError::TornRow {
                user,
                present,
                expected,
            });
        }
        let embedding = if embedding.iter().all(Option::is_some) {
            embedding.into_iter().flatten().collect()
        } else {
            vec![0.0; codec.embedding_dim]
        };
        let velocity = velocity.into_iter().map(|v| v.unwrap_or(0.0)).collect();
        Ok(Some(UserFeatures {
            payer_side: payer_side.into_iter().flatten().collect(),
            receiver_side: receiver_side.into_iter().flatten().collect(),
            embedding,
            velocity,
        }))
    }

    const FAMILIES: [&str; 5] = ["basic", "embedding", "velocity", "audit", ""];

    /// Qualifiers the encoder emits (`p{i}`, `r{i}`, `{i}` for i ≤ 40) and
    /// aliases it never does.
    fn qualifiers() -> Vec<String> {
        let mut names: Vec<String> = (0..=40)
            .flat_map(|i| [format!("p{i}"), format!("r{i}"), format!("{i}")])
            .collect();
        let aliases = ["+5", "007", "00", "-0", " 1", "p", "p+1"];
        names.extend(aliases.map(String::from));
        names.push("1234567890123456789012345".into());
        names
    }

    /// Bits of every served value, so NaN payloads compare exactly.
    fn bits(decoded: &Result<Option<UserFeatures>, ServeError>) -> Option<Vec<Vec<u32>>> {
        let Ok(Some(f)) = decoded else { return None };
        let blocks = [&f.payer_side, &f.receiver_side, &f.embedding, &f.velocity];
        Some(
            blocks
                .map(|b| b.iter().map(|v| v.to_bits()).collect())
                .to_vec(),
        )
    }

    proptest! {
        /// The byte decode gives the string decode's `Ok` bits, or the same
        /// error variant with the same fields, on key-sorted duplicate-free
        /// cell lists mixing served names, aliases, foreign families and
        /// torn values. Most lists start from a served row with each cell
        /// kept at 7/8, so both complete and torn rows are common.
        #[test]
        fn byte_decode_is_the_string_decode(
            raw in prop::collection::vec((0usize..5, 0usize..131, 0usize..12, 0u64..u64::MAX), 0..40),
            row_seed in 0u64..u64::MAX,
            served in 0usize..4,
            velocity_width in 0usize..2,
        ) {
            let codec = FeatureCodec {
                embedding_dim: 4,
                payer_width: 3,
                receiver_width: 2,
                velocity_width: [0, 3][velocity_width],
            };
            let names = qualifiers();
            let cell = |family: &str, name: &str, value: &[u8]| {
                let key = CellKey::new(FeatureCodec::row_key(7), family, name);
                (key, Bytes::copy_from_slice(value))
            };
            let mut cells: Vec<(CellKey, Bytes)> = raw
                .iter()
                .map(|&(family, name, len, seed)| {
                    // Mostly 4-byte values, lengths 0..=8 otherwise.
                    let len = if len >= 9 { 4 } else { len };
                    cell(FAMILIES[family], &names[name], &seed.to_le_bytes()[..len])
                })
                .collect();
            let row = ["p0", "p1", "p2", "r0", "r1"]
                .map(|q| ("basic", q))
                .into_iter()
                .chain(["0", "1", "2", "3"].map(|q| ("embedding", q)))
                .chain(["0", "1", "2"].map(|q| ("velocity", q)));
            for (i, (family, name)) in row.enumerate() {
                let value = row_seed.rotate_left(5 * i as u32);
                if served > 0 && value & 7 != 0 {
                    cells.push(cell(family, name, &value.to_le_bytes()[..4]));
                }
            }
            // A stable sort keeps the random cells ahead of the served row's
            // cells with the same key, so they override it.
            cells.sort_by(|a, b| a.0.cmp(&b.0));
            cells.dedup_by(|later, kept| later.0 == kept.0);
            let got = codec.decode_cells(7, &cells);
            let want = reference_decode_cells(&codec, 7, &cells);
            match (&got, &want) {
                (Ok(_), Ok(_)) => prop_assert_eq!(bits(&got), bits(&want)),
                (Err(g), Err(w)) => prop_assert_eq!(format!("{g:?}"), format!("{w:?}")),
                _ => prop_assert!(false, "byte decode {got:?} vs string decode {want:?}"),
            }
        }
    }

    #[test]
    fn a_full_row_decodes_like_the_string_decode() {
        let c = velocity_codec();
        let mut f = features(1.5);
        f.velocity = vec![2.0, 350.0, 1.0];
        let mut cells: Vec<(CellKey, Bytes)> = c
            .encode_user(3, &f, 1)
            .into_iter()
            .filter_map(|(key, _, value)| Some((key, value?)))
            .collect();
        cells.sort_by(|a, b| a.0.cmp(&b.0));
        let got = c.decode_cells(3, &cells);
        assert_eq!(bits(&got), bits(&reference_decode_cells(&c, 3, &cells)));
        assert_eq!(got.unwrap(), Some(f));
    }

    fn codec() -> FeatureCodec {
        FeatureCodec {
            embedding_dim: 4,
            payer_width: 3,
            receiver_width: 2,
            velocity_width: 0,
        }
    }

    fn table() -> RegionedTable {
        RegionedTable::single(StoreConfig::default()).unwrap()
    }

    fn put(t: &RegionedTable, key: CellKey, version: Version, value: Bytes) {
        t.put_rows(vec![(key, version, Some(value))]).unwrap();
    }

    fn features(x: f32) -> UserFeatures {
        UserFeatures {
            payer_side: vec![x, x + 1.0, x + 2.0],
            receiver_side: vec![x * 10.0, x * 20.0],
            embedding: vec![x; 4],
            velocity: Vec::new(),
        }
    }

    #[test]
    fn put_get_round_trip() {
        let t = table();
        let c = codec();
        t.put_rows(c.encode_user(42, &features(1.5), 20170410))
            .unwrap();
        let got = c.get_user(&t, 42, u64::MAX).unwrap().unwrap();
        assert_eq!(got, features(1.5));
        assert!(c.get_user(&t, 99, u64::MAX).unwrap().is_none());
    }

    #[test]
    fn get_user_is_a_single_store_operation() {
        let t = table();
        let c = codec();
        t.put_rows(c.encode_user(42, &features(1.5), 20170410))
            .unwrap();
        t.flush().unwrap();
        let before = t.op_counts();
        c.get_user(&t, 42, u64::MAX).unwrap().unwrap();
        let delta = t.op_counts().since(&before);
        assert_eq!(delta.row_gets, 1);
        assert_eq!(
            delta.total(),
            1,
            "fetching a user must not fan out into per-qualifier gets: {delta:?}"
        );
    }

    #[test]
    fn get_users_matches_get_user_per_slot() {
        let t = table();
        let c = codec();
        t.put_rows(c.encode_user(1, &features(1.0), 1)).unwrap();
        t.put_rows(c.encode_user(2, &features(2.0), 1)).unwrap();
        t.flush().unwrap();
        // User 3 is torn (one lonely payer cell), user 99 is missing.
        put(
            &t,
            CellKey {
                row: FeatureCodec::row_key(3),
                family: "basic".into(),
                qualifier: "p0".into(),
            },
            1,
            Bytes::copy_from_slice(&1.0f32.to_le_bytes()),
        );
        let before = t.op_counts();
        let got = c.get_users(&t, &[2, 99, 3, 1], u64::MAX);
        let delta = t.op_counts().since(&before);
        assert_eq!(delta.row_gets, 4, "one logical row get per user");
        assert_eq!(got.len(), 4);
        assert_eq!(got[0].as_ref().unwrap(), &Some(features(2.0)));
        assert_eq!(got[1].as_ref().unwrap(), &None);
        assert!(matches!(got[2], Err(ServeError::TornRow { user: 3, .. })));
        assert_eq!(got[3].as_ref().unwrap(), &Some(features(1.0)));
    }

    #[test]
    fn get_user_opts_without_hook_matches_get_user() {
        let t = table();
        let c = codec();
        t.put_rows(c.encode_user(42, &features(1.5), 20170410))
            .unwrap();
        let (got, waited) = c
            .get_user_opts(&t, 42, u64::MAX, ReadOptions::default())
            .unwrap();
        assert_eq!(got, c.get_user(&t, 42, u64::MAX).unwrap());
        assert_eq!(waited, Duration::ZERO);
        let (missing, _) = c
            .get_user_opts(&t, 99, u64::MAX, ReadOptions::default())
            .unwrap();
        assert!(missing.is_none());
    }

    #[test]
    fn get_user_opts_surfaces_read_faults_as_fetch_errors() {
        use std::sync::Arc;
        use titant_alihbase::{FaultKind, FaultPlan, FaultPlanConfig};
        let t = table();
        let c = codec();
        t.put_rows(c.encode_user(42, &features(1.5), 20170410))
            .unwrap();
        t.set_fault_hook(Some(Arc::new(FaultPlan::new(FaultPlanConfig {
            transient_rate: 1.0,
            ..Default::default()
        }))));
        let err = c
            .get_user_opts(&t, 42, u64::MAX, ReadOptions::default())
            .unwrap_err();
        assert!(
            matches!(
                &err,
                ServeError::Fetch { user: 42, fault } if fault.kind == FaultKind::Transient
            ),
            "{err:?}"
        );
        assert!(err.is_degradable());
        t.set_fault_hook(None);
        assert!(c
            .get_user_opts(&t, 42, u64::MAX, ReadOptions::default())
            .is_ok());
    }

    #[test]
    fn versions_roll_forward_and_back() {
        let t = table();
        let c = codec();
        t.put_rows(c.encode_user(7, &features(1.0), 20170410))
            .unwrap();
        t.put_rows(c.encode_user(7, &features(2.0), 20170411))
            .unwrap();
        // Latest wins.
        assert_eq!(c.get_user(&t, 7, u64::MAX).unwrap().unwrap(), features(2.0));
        // Yesterday's snapshot still readable (rollback path).
        assert_eq!(c.get_user(&t, 7, 20170410).unwrap().unwrap(), features(1.0));
    }

    #[test]
    fn missing_embedding_decodes_as_zero_vector() {
        let t = table();
        let c = codec();
        let mut f = features(3.0);
        f.embedding.clear();
        t.put_rows(c.encode_user(
            5,
            &UserFeatures {
                embedding: Vec::new(),
                ..f.clone()
            },
            1,
        ))
        .unwrap();
        let got = c.get_user(&t, 5, u64::MAX).unwrap().unwrap();
        assert_eq!(got.embedding, vec![0.0; 4]);
        assert_eq!(got.payer_side, f.payer_side);
    }

    #[test]
    fn partial_embedding_also_degrades_to_zero_vector() {
        let t = table();
        let c = codec();
        let mut f = features(3.0);
        f.embedding.truncate(2); // 2 of 4 dims uploaded
        t.put_rows(c.encode_user(6, &f, 1)).unwrap();
        let got = c.get_user(&t, 6, u64::MAX).unwrap().unwrap();
        assert_eq!(got.embedding, vec![0.0; 4]);
    }

    #[test]
    fn torn_basic_row_is_an_error_not_a_panic() {
        let t = table();
        let c = codec();
        // Only one of three payer cells uploaded: a torn row.
        put(
            &t,
            CellKey {
                row: FeatureCodec::row_key(8),
                family: "basic".into(),
                qualifier: "p0".into(),
            },
            1,
            Bytes::copy_from_slice(&1.0f32.to_le_bytes()),
        );
        let err = c.get_user(&t, 8, u64::MAX).unwrap_err();
        assert!(matches!(
            err,
            ServeError::TornRow {
                user: 8,
                present: 1,
                expected: 5
            }
        ));
        assert!(err.is_degradable());
    }

    #[test]
    fn torn_cell_bytes_are_an_error_not_a_panic() {
        let t = table();
        let c = codec();
        t.put_rows(c.encode_user(9, &features(1.0), 1)).unwrap();
        // Overwrite one cell with a 3-byte torn value.
        put(
            &t,
            CellKey {
                row: FeatureCodec::row_key(9),
                family: "basic".into(),
                qualifier: "r1".into(),
            },
            2,
            Bytes::from_static(b"xyz"),
        );
        let err = c.get_user(&t, 9, u64::MAX).unwrap_err();
        assert!(
            matches!(&err, ServeError::TornCell { user: 9, column, len: 3 } if column == "basic:r1")
        );
        // The previous intact version remains readable.
        assert_eq!(c.get_user(&t, 9, 1).unwrap().unwrap(), features(1.0));
    }

    #[test]
    fn qualifier_table_matches_formatting_in_and_beyond_range() {
        let q = qual_table();
        assert_eq!(q.payer_qualifier(0).as_str(), "p0");
        assert_eq!(
            q.receiver_qualifier(PRECOMPUTED_QUALIFIERS - 1).as_str(),
            "r511"
        );
        assert_eq!(q.index_qualifier(3).as_str(), "3");
        // Past the table the names still come out identical, just formatted
        // on the fly.
        let big = PRECOMPUTED_QUALIFIERS + 5;
        assert_eq!(q.payer_qualifier(big).as_str(), format!("p{big}"));
        assert_eq!(q.index_qualifier(big).as_str(), big.to_string());
        // Parsing a name back agrees, inside and past the table.
        assert_eq!(reference_basic_slot("p7"), Some(BasicSlot::Payer(7)));
        assert_eq!(reference_basic_slot("r600"), Some(BasicSlot::Receiver(600)));
        assert_eq!(reference_basic_slot("x1"), None);
        assert_eq!(reference_basic_slot("p"), None);
        for (name, want) in [
            ("0", Some(0)),
            ("7", Some(7)),
            ("600", Some(600)),
            ("seven", None),
            ("", None),
            ("99999999999999999999999", None),
            (&usize::MAX.to_string(), Some(usize::MAX)),
            ("18446744073709551616", None),
        ] {
            assert_eq!(index_of(name.as_bytes()), want, "{name:?}");
            assert_eq!(reference_index_of(name), want, "{name:?}");
        }
    }

    /// Only the names the encoder emits resolve to a slot: `str::parse`
    /// took `+3` and `007` too, so stray cells aliased real slots and could
    /// make a torn row count as complete.
    #[test]
    fn aliasing_qualifiers_are_ignored() {
        for alias in ["+5", "007", "00", "-0", " 1", "1 "] {
            assert_eq!(index_of(alias.as_bytes()), None, "{alias:?}");
            assert_eq!(reference_basic_slot(&format!("p{alias}")), None);
        }
        let t = table();
        let c = codec();
        let stray = |user, family: &str, qualifier: &str, value: f32| {
            put(
                &t,
                CellKey::new(FeatureCodec::row_key(user), family, qualifier),
                2,
                Bytes::copy_from_slice(&value.to_le_bytes()),
            );
        };
        // Newer aliases of payer slot 1 and embedding dimension 2 change
        // nothing a full row serves.
        t.put_rows(c.encode_user(11, &features(1.0), 1)).unwrap();
        stray(11, "basic", "p+1", 77.0);
        stray(11, "basic", "p01", 78.0);
        stray(11, "embedding", "002", 79.0);
        assert_eq!(
            c.get_user(&t, 11, u64::MAX).unwrap().unwrap(),
            features(1.0)
        );
        // A row missing `p2` but holding `p+2` is torn, not complete.
        let row = c.encode_user(12, &features(1.0), 1);
        t.put_rows(
            row.into_iter()
                .filter(|(key, ..)| key.qualifier.as_str() != "p2")
                .collect(),
        )
        .unwrap();
        stray(12, "basic", "p+2", 3.0);
        assert!(matches!(
            c.get_user(&t, 12, u64::MAX).unwrap_err(),
            ServeError::TornRow {
                user: 12,
                present: 4,
                expected: 5
            }
        ));
    }

    #[test]
    fn encoded_user_is_one_batch_and_one_lock_acquisition() {
        let t = table();
        let c = codec();
        let before = t.write_stats();
        t.put_rows(c.encode_user(42, &features(1.5), 20170410))
            .unwrap();
        let delta = t.write_stats().since(&before);
        assert_eq!(delta.batches, 1, "whole row must land as one batch");
        assert_eq!(delta.lock_acquisitions, 1);
        assert_eq!(delta.cells_written, 3 + 2 + 4);
    }

    #[test]
    fn encode_delta_merges_over_the_last_full_upload() {
        let t = table();
        let c = codec();
        t.put_rows(c.encode_user(42, &features(1.0), 1)).unwrap();
        let delta = FeatureDelta {
            user: 42,
            payer: vec![(1, 99.0)],
            receiver: vec![(0, -5.0)],
            embedding: vec![(2, 0.25)],
            velocity: Vec::new(),
        };
        t.put_rows(c.encode_delta(&delta, 2)).unwrap();
        let got = c.get_user(&t, 42, u64::MAX).unwrap().unwrap();
        assert_eq!(got.payer_side, vec![1.0, 99.0, 3.0]);
        assert_eq!(got.receiver_side, vec![-5.0, 20.0]);
        assert_eq!(got.embedding, vec![1.0, 1.0, 0.25, 1.0]);
        // The pre-delta snapshot is still intact at its version.
        assert_eq!(c.get_user(&t, 42, 1).unwrap().unwrap(), features(1.0));
    }

    fn velocity_codec() -> FeatureCodec {
        FeatureCodec {
            velocity_width: 3,
            ..codec()
        }
    }

    #[test]
    fn velocity_round_trips_and_missing_slots_decode_as_zero() {
        let t = table();
        let c = velocity_codec();
        let mut f = features(1.0);
        f.velocity = vec![2.0, 350.0, 1.0];
        t.put_rows(c.encode_user(42, &f, 1)).unwrap();
        assert_eq!(c.get_user(&t, 42, u64::MAX).unwrap().unwrap(), f);
        // A row the streaming tier never touched serves an all-zero block —
        // no torn-row error, no cold-start special case.
        t.put_rows(c.encode_user(7, &features(2.0), 1)).unwrap();
        let got = c.get_user(&t, 7, u64::MAX).unwrap().unwrap();
        assert_eq!(got.velocity, vec![0.0; 3]);
        // And a codec with the block disabled ignores velocity cells.
        let narrow = codec();
        let got = narrow.get_user(&t, 42, u64::MAX).unwrap().unwrap();
        assert!(got.velocity.is_empty());
        assert_eq!(got.payer_side, f.payer_side);
    }

    #[test]
    fn velocity_deltas_patch_single_slots() {
        let t = table();
        let c = velocity_codec();
        t.put_rows(c.encode_user(5, &features(1.0), 1)).unwrap();
        // Stream one slot at a time: untouched slots stay at their previous
        // value (zero when never written), per-slot merge semantics.
        t.put_rows(c.encode_delta(
            &FeatureDelta {
                user: 5,
                velocity: vec![(1, 4.0)],
                ..FeatureDelta::default()
            },
            2,
        ))
        .unwrap();
        let got = c.get_user(&t, 5, u64::MAX).unwrap().unwrap();
        assert_eq!(got.velocity, vec![0.0, 4.0, 0.0]);
        t.put_rows(c.encode_delta(
            &FeatureDelta {
                user: 5,
                velocity: vec![(0, 1.0), (1, 5.0)],
                ..FeatureDelta::default()
            },
            3,
        ))
        .unwrap();
        let got = c.get_user(&t, 5, u64::MAX).unwrap().unwrap();
        assert_eq!(got.velocity, vec![1.0, 5.0, 0.0]);
        // The pre-patch snapshot stays readable at its version.
        let old = c.get_user(&t, 5, 2).unwrap().unwrap();
        assert_eq!(old.velocity, vec![0.0, 4.0, 0.0]);
    }

    #[test]
    fn unknown_qualifiers_are_ignored() {
        let t = table();
        let c = codec();
        t.put_rows(c.encode_user(10, &features(2.0), 1)).unwrap();
        for (family, qualifier) in [("basic", "x9"), ("basic", "p99"), ("audit", "note")] {
            put(
                &t,
                CellKey {
                    row: FeatureCodec::row_key(10),
                    family: family.into(),
                    qualifier: qualifier.into(),
                },
                1,
                Bytes::from_static(b"whatever"),
            );
        }
        assert_eq!(
            c.get_user(&t, 10, u64::MAX).unwrap().unwrap(),
            features(2.0)
        );
    }
}
