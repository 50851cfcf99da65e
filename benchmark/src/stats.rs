//! Exact order statistics over raw samples: nothing is bucketed.

use std::time::Duration;

/// A latency as a raw `u32` nanosecond sample, saturating at ~4.29 s.
pub fn ns_u32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with at
/// least `q` of the samples at or below it (rank `ceil(q * n)`, clamped to
/// `1..=n`). `None` when empty.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Sort the samples and return their nearest-rank quantile as `f64`
/// (0.0 when empty).
pub fn quantile<T: Copy + Ord + Into<u64>>(samples: &mut [T], q: f64) -> f64 {
    samples.sort_unstable();
    nearest_rank(samples, q).map_or(0.0, |v| v.into() as f64)
}

/// Median of `f64` values as the mean of the two middle ones when the count
/// is even (0.0 when empty). Used across rounds and set-ups, where there
/// are few values and each is already a statistic.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.50), Some(50));
        assert_eq!(nearest_rank(&v, 0.95), Some(95));
        assert_eq!(nearest_rank(&v, 0.99), Some(99));
        assert_eq!(nearest_rank(&v, 0.999), Some(100));
        assert_eq!(nearest_rank(&v, 0.0), Some(1));
        assert_eq!(nearest_rank(&v, 1.0), Some(100));

        // The textbook example: rank ceil(0.3 * 5) = 2.
        let w = [15u32, 20, 35, 40, 50];
        assert_eq!(nearest_rank(&w, 0.30), Some(20));
        assert_eq!(nearest_rank(&w, 0.40), Some(20));
        assert_eq!(nearest_rank(&w, 0.50), Some(35));
        assert_eq!(nearest_rank(&w, 1.00), Some(50));

        assert_eq!(nearest_rank(&[7u32], 0.95), Some(7));
        assert_eq!(nearest_rank::<u32>(&[], 0.5), None);
    }

    #[test]
    fn quantile_sorts_first() {
        let mut v = [50u32, 15, 40, 20, 35];
        assert_eq!(quantile(&mut v, 0.5), 35.0);
        assert_eq!(quantile::<u32>(&mut [], 0.5), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn samples_saturate() {
        assert_eq!(ns_u32(Duration::from_nanos(17)), 17);
        assert_eq!(ns_u32(Duration::from_secs(10)), u32::MAX);
    }
}
