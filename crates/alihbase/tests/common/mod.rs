//! Helpers shared by the store's integration tests.

use bytes::Bytes;

/// The value of write number `step` of a history, carrying `id`. Its
/// length cycles through 0–40 bytes as `step` grows, so a history stores
/// values on both sides of `Bytes`' 22-byte inline boundary, and
/// `Some(empty)` beside tombstones. A non-empty value is `id` padded with
/// `.` and never cut, so values with distinct ids stay distinct; only the
/// empty value repeats.
pub fn sized_value(id: &str, step: usize) -> Bytes {
    let len = step * 17 % 41;
    if len == 0 {
        return Bytes::from(Vec::new());
    }
    let mut value = id.as_bytes().to_vec();
    value.resize(len.max(id.len()), b'.');
    Bytes::from(value)
}
