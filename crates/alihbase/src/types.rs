//! Core key/value types of the wide-column model.
//!
//! The three parts of a cell coordinate — [`RowKey`], [`ColumnFamily`],
//! [`Qualifier`] — share one representation, [`KeyBytes`]: a 24-byte value
//! that holds up to [`INLINE`] bytes in place and boxes anything longer.
//! Every key this system writes (`u000000000042`, `embedding`, `r15`) fits
//! inline, so a [`CellKey`] is 72 bytes whose clone is a copy and whose
//! comparison touches no heap.

use bytes::Bytes;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Longest key part stored without a heap allocation.
const INLINE: usize = 22;

/// A byte string ordered, compared and hashed as its byte slice.
#[derive(Clone)]
enum KeyBytes {
    Inline { len: u8, buf: [u8; INLINE] },
    Heap(Box<[u8]>),
}

impl KeyBytes {
    fn new(bytes: &[u8]) -> Self {
        if bytes.len() > INLINE {
            return Self::Heap(bytes.into());
        }
        let mut buf = [0; INLINE];
        buf[..bytes.len()].copy_from_slice(bytes);
        Self::Inline {
            len: bytes.len() as u8,
            buf,
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            Self::Inline { len, buf } => &buf[..*len as usize],
            Self::Heap(bytes) => bytes,
        }
    }
}

/// An inline buffer as two big-endian words: bytes 0..16, then bytes 16..22
/// followed by two zero bytes. Word order is the buffer's byte order.
fn words(buf: &[u8; INLINE]) -> (u128, u64) {
    let mut high = [0; 16];
    high.copy_from_slice(&buf[..16]);
    let mut low = [0; 8];
    low[..INLINE - 16].copy_from_slice(&buf[16..]);
    (u128::from_be_bytes(high), u64::from_be_bytes(low))
}

impl PartialEq for KeyBytes {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Self::Inline { len: a, buf: x }, Self::Inline { len: b, buf: y }) => a == b && x == y,
            _ => self.as_bytes() == other.as_bytes(),
        }
    }
}

impl Eq for KeyBytes {}

impl PartialOrd for KeyBytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Two inline keys compare as their zero-padded buffers, word by word, then
/// by length. That is the byte-slice order: where the slices first differ,
/// the buffers do too; where one slice is a prefix of the other, the
/// shorter one's padding (all zero) is never above the longer one's bytes,
/// and when it equals them (`a` against `a\0`) the length decides.
impl Ord for KeyBytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self, other) {
            (Self::Inline { len: a, buf: x }, Self::Inline { len: b, buf: y }) => {
                words(x).cmp(&words(y)).then(a.cmp(b))
            }
            _ => self.as_bytes().cmp(other.as_bytes()),
        }
    }
}

impl Hash for KeyBytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

/// UTF-8 keys print as text, anything else as hex bytes.
impl fmt::Display for KeyBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(self.as_bytes()) {
            Ok(s) => write!(f, "{s}"),
            Err(_) => write!(f, "{:02x?}", self.as_bytes()),
        }
    }
}

/// The API the three key parts share: built from text, read back as bytes,
/// and debug-printed as `$debug` shows them (what `derive(Debug)` printed
/// when a row key was a `Vec<u8>` and a name a `String`; gate reports
/// carry that text).
macro_rules! key_part {
    ($name:ident, $debug:expr) => {
        impl $name {
            /// The key's bytes — its order, identity and on-disk form.
            pub fn as_bytes(&self) -> &[u8] {
                self.0.as_bytes()
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                Self(KeyBytes::new(s.as_bytes()))
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                Self::from(s.as_str())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.fmt(f)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let shown = $debug(self);
                f.debug_tuple(stringify!($name)).field(&shown).finish()
            }
        }
    };
}

/// A row key (in TitAnt: the user id, e.g. `"u42"` — "Zoe", "Sam" and
/// "Liam" in the paper's Figure 7). Ordered lexicographically by bytes,
/// exactly like HBase.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowKey(KeyBytes);
key_part!(RowKey, RowKey::as_bytes);

/// A column family name (Figure 7 uses `basic features` and
/// `user node embeddings`; this crate abbreviates to `basic` / `embedding`).
/// Always UTF-8: built from `&str` only.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColumnFamily(KeyBytes);
key_part!(ColumnFamily, ColumnFamily::as_str);

/// A qualifier within a family (e.g. `age`, `gender`, or the embedding
/// dimension index as a string). Always UTF-8: built from `&str` only.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Qualifier(KeyBytes);
key_part!(Qualifier, Qualifier::as_str);

/// A cell version. TitAnt uploads one version per offline training run
/// ("by the version of date time", §4.4); larger = newer.
pub type Version = u64;

/// Fully-qualified cell coordinate, the LSM's sort key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellKey {
    pub row: RowKey,
    pub family: ColumnFamily,
    pub qualifier: Qualifier,
}

/// One versioned cell value. `None` is a delete tombstone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    pub version: Version,
    /// `None` = tombstone.
    pub value: Option<Bytes>,
}

impl RowKey {
    /// From a UTF-8 string (inherent constructor, not `std::str::FromStr`).
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Self {
        Self::from(s)
    }

    /// From a numeric user id (`u` + the id zero-padded to 12 digits —
    /// keeps human-readable keys while clustering numerically adjacent
    /// users). Written straight into the inline buffer: `u` plus the 20
    /// digits of `u64::MAX` still fits.
    pub fn from_user(id: u64) -> Self {
        let digits = id.checked_ilog10().map_or(1, |d| d as usize + 1);
        let len = 1 + digits.max(12);
        let mut buf = [0; INLINE];
        buf[0] = b'u';
        let mut rest = id;
        for slot in buf[1..len].iter_mut().rev() {
            *slot = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        Self(KeyBytes::Inline {
            len: len as u8,
            buf,
        })
    }
}

/// Row keys are arbitrary bytes (a split point read back from the layout
/// manifest, a WAL record); families and qualifiers are not.
impl From<&[u8]> for RowKey {
    fn from(bytes: &[u8]) -> Self {
        Self(KeyBytes::new(bytes))
    }
}

impl ColumnFamily {
    /// The family name.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("column families are built from &str")
    }
}

impl Qualifier {
    /// The qualifier name.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("qualifiers are built from &str")
    }
}

impl CellKey {
    /// Build a cell key from string parts.
    pub fn new(row: impl Into<RowKey>, family: &str, qualifier: &str) -> Self {
        Self {
            row: row.into(),
            family: family.into(),
            qualifier: qualifier.into(),
        }
    }

    /// Bytes of the three parts together — what the memtable charges a key.
    pub fn byte_len(&self) -> usize {
        self.row.as_bytes().len() + self.family.as_bytes().len() + self.qualifier.as_bytes().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    #[test]
    fn row_keys_order_lexicographically() {
        assert!(RowKey::from_str("a") < RowKey::from_str("b"));
        assert!(RowKey::from_str("a") < RowKey::from_str("aa"));
    }

    #[test]
    fn user_row_keys_order_numerically_via_padding() {
        assert!(RowKey::from_user(9) < RowKey::from_user(10));
        assert!(RowKey::from_user(99) < RowKey::from_user(100));
        assert_eq!(RowKey::from_user(7).to_string(), "u000000000007");
    }

    #[test]
    fn user_row_keys_match_the_format_they_replace() {
        for id in [0, 9, 10, 42, 999_999_999_999, 1_000_000_000_000, u64::MAX] {
            assert_eq!(
                RowKey::from_user(id),
                RowKey::from(format!("u{id:012}")),
                "{id}"
            );
        }
    }

    #[test]
    fn cell_keys_sort_row_major() {
        let a = CellKey::new("u1", "basic", "age");
        let b = CellKey::new("u1", "basic", "gender");
        let c = CellKey::new("u2", "basic", "age");
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn display_handles_binary() {
        let k = RowKey::from(&[0xff, 0x00][..]);
        assert!(k.to_string().contains("ff"));
    }

    #[test]
    fn debug_prints_what_the_derives_on_vec_and_string_printed() {
        let key = CellKey::new("u1", "basic", "p0");
        assert_eq!(format!("{:?}", key.row), "RowKey([117, 49])");
        assert_eq!(format!("{:?}", key.family), "ColumnFamily(\"basic\")");
        assert_eq!(format!("{:?}", key.qualifier), "Qualifier(\"p0\")");
    }

    #[test]
    fn a_cell_key_is_three_inline_parts() {
        assert_eq!(std::mem::size_of::<KeyBytes>(), 24);
        assert_eq!(std::mem::size_of::<CellKey>(), 72);
    }

    fn hash_of(value: impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    /// Ordering, equality and hash are those of the byte slice, on both
    /// sides of the inline/heap boundary — including an inline and a boxed
    /// key of equal content, bytes 0x00 and 0xff, keys that differ only by
    /// a trailing NUL (`a` against `a\0`, where only the length tells the
    /// zero-padded inline buffers apart), and lengths 21–23 either side of
    /// the boundary.
    #[test]
    fn keys_behave_as_their_byte_slices() {
        let mut strings: Vec<Vec<u8>> = (0..=40usize)
            .flat_map(|len| {
                [b'a', b'b', 0x00, 0xff].map(|fill| {
                    let mut s = vec![b'a'; len];
                    if let Some(last) = s.last_mut() {
                        *last = fill;
                    }
                    s
                })
            })
            .collect();
        for len in [1, 15, 16, 17, 21, 22, 23] {
            for fill in [0x00, 0xff] {
                let s = vec![fill; len];
                strings.push([s.as_slice(), &[0x00]].concat());
                strings.push([s.as_slice(), &[0x00, 0x00]].concat());
                strings.push(s);
            }
        }
        strings.extend([&b"a"[..], b"a\0", b"a\0\0", b"\0", b"\0a"].map(<[u8]>::to_vec));
        // Each key both as `KeyBytes::new` stores it and boxed.
        let keys = |s: &[u8]| [RowKey::from(s), RowKey(KeyBytes::Heap(s.into()))];
        for a in &strings {
            for ka in keys(a) {
                assert_eq!(ka.as_bytes(), a.as_slice());
                assert_eq!(hash_of(&ka), hash_of(a.as_slice()), "{a:?}");
                for b in &strings {
                    for kb in keys(b) {
                        assert_eq!(ka.cmp(&kb), a.cmp(b), "{a:?} vs {b:?}");
                        assert_eq!(ka == kb, a == b, "{a:?} vs {b:?}");
                    }
                }
            }
        }
        let short = b"short".to_vec();
        let boxed = RowKey(KeyBytes::Heap(short.clone().into()));
        let inline = RowKey::from(short.as_slice());
        assert_eq!(boxed, inline);
        assert_eq!(boxed.cmp(&inline), std::cmp::Ordering::Equal);
        assert_eq!(hash_of(&boxed), hash_of(&inline));
    }
}
