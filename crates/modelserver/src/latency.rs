//! Per-stage latency recording for the serving path.
//!
//! A fixed-size log-bucketed histogram per pipeline stage: nanosecond
//! values below 16 map to exact buckets; above that each power-of-two
//! octave splits into 16 sub-buckets, so the relative quantisation error is
//! bounded by 1/16 (~6.25%) regardless of magnitude. All counters are
//! relaxed atomics — recording is wait-free, memory is O(1) in the request
//! count (≈31 KiB total), and quantile reads never clone sample vectors
//! under a lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-buckets per octave (power of two; 16 → ≤6.25% bucket error).
const SUB: u64 = 16;
/// log2(SUB).
const SUB_BITS: u64 = 4;
/// Bucket count: exact buckets for values < 16, then 16 per octave up to
/// the top of the u64 range.
const N_BUCKETS: usize = ((64 - 3) * SUB) as usize;

/// Bucket index of a nanosecond value.
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - u64::from(v.leading_zeros());
    let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
    ((e - SUB_BITS + 1) * SUB + sub) as usize
}

/// Representative (midpoint) nanosecond value of a bucket.
fn bucket_value(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        return idx;
    }
    let e = idx / SUB + SUB_BITS - 1;
    let sub = idx % SUB;
    let lo = (1u128 << e) + (u128::from(sub) << (e - SUB_BITS));
    let hi = lo + (1u128 << (e - SUB_BITS));
    ((lo + hi - 1) / 2) as u64
}

/// The serving-pipeline stages the recorder distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Ali-HBase feature fetch for both transfer parties.
    Fetch,
    /// Feature-vector assembly.
    Assemble,
    /// Model evaluation.
    Predict,
    /// The whole request, fetch through verdict.
    Total,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 4] = [Stage::Fetch, Stage::Assemble, Stage::Predict, Stage::Total];

    fn idx(self) -> usize {
        match self {
            Stage::Fetch => 0,
            Stage::Assemble => 1,
            Stage::Predict => 2,
            Stage::Total => 3,
        }
    }
}

/// One stage's live histogram. The sample count is the sum of the
/// buckets, so a sample costs two relaxed atomic adds.
struct StageHist {
    sum: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl StageHist {
    fn new() -> Self {
        Self {
            sum: AtomicU64::new(0),
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
    }

    fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Collects per-request, per-stage latencies. Every read goes through
/// [`Self::snapshot`]: counts, quantiles and means are
/// [`StageSnapshot`]'s, and [`LatencySnapshot::since`] cuts an interval.
pub struct LatencyRecorder {
    stages: [StageHist; 4],
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LatencyRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyRecorder")
            .field("count", &self.stages[Stage::Total.idx()].snapshot().count())
            .finish()
    }
}

impl LatencyRecorder {
    /// Empty recorder.
    pub fn new() -> Self {
        Self {
            stages: [
                StageHist::new(),
                StageHist::new(),
                StageHist::new(),
                StageHist::new(),
            ],
        }
    }

    /// Record one whole-request latency ([`Stage::Total`]).
    pub fn record(&self, d: Duration) {
        self.record_stage(Stage::Total, d);
    }

    /// Record a latency against one stage.
    pub fn record_stage(&self, stage: Stage, d: Duration) {
        self.stages[stage.idx()].record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// A point-in-time copy of every stage's histogram. Pair two snapshots
    /// with [`LatencySnapshot::since`] to get interval statistics that
    /// earlier traffic cannot pollute.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            stages: [
                self.stages[0].snapshot(),
                self.stages[1].snapshot(),
                self.stages[2].snapshot(),
                self.stages[3].snapshot(),
            ],
        }
    }
}

/// One stage's frozen histogram.
#[derive(Debug, Clone)]
pub struct StageSnapshot {
    sum: u64,
    buckets: Vec<u64>,
}

impl StageSnapshot {
    /// Sample count: the sum of the buckets, so an interval's count is
    /// always one its buckets reach.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Nearest-rank quantile over the bucketed samples; the returned value
    /// is the midpoint of the bucket holding the ranked sample (≤ ~6.25%
    /// relative error). Out-of-range `q` is clamped; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest rank: smallest k with cumulative count ≥ ceil(q·n),
        // clamped to [1, n] so q = 0 is the minimum and q = 1 the maximum.
        let rank = ((count as f64 * q).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (idx, n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return Some(Duration::from_nanos(bucket_value(idx)));
            }
        }
        None
    }

    /// Exact mean (the sum is tracked outside the buckets, and bucket
    /// counts are exact), rounded to the nearest nanosecond; `None` when
    /// empty.
    pub fn mean(&self) -> Option<Duration> {
        let count = u128::from(self.count());
        if count == 0 {
            return None;
        }
        let sum = u128::from(self.sum);
        Some(Duration::from_nanos(((sum + count / 2) / count) as u64))
    }

    /// Counter delta since an earlier snapshot of the same stage.
    pub fn since(&self, earlier: &StageSnapshot) -> StageSnapshot {
        StageSnapshot {
            sum: self.sum.saturating_sub(earlier.sum),
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(now, then)| now.saturating_sub(*then))
                .collect(),
        }
    }
}

/// A frozen copy of all four stage histograms.
#[derive(Debug, Clone)]
pub struct LatencySnapshot {
    stages: [StageSnapshot; 4],
}

impl LatencySnapshot {
    /// One stage's snapshot.
    pub fn stage(&self, stage: Stage) -> &StageSnapshot {
        &self.stages[stage.idx()]
    }

    /// Delta of every stage since an earlier snapshot — the statistics of
    /// exactly the traffic between the two snapshots.
    pub fn since(&self, earlier: &LatencySnapshot) -> LatencySnapshot {
        LatencySnapshot {
            stages: [
                self.stages[0].since(&earlier.stages[0]),
                self.stages[1].since(&earlier.stages[1]),
                self.stages[2].since(&earlier.stages[2]),
                self.stages[3].since(&earlier.stages[3]),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Allowed relative error: bucket midpoints sit within half a bucket
    /// (≤1/32) of the true value; leave headroom up to the full 1/16.
    fn close(approx: Duration, exact: Duration) {
        let (a, e) = (approx.as_nanos() as f64, exact.as_nanos() as f64);
        assert!(
            (a - e).abs() <= e / 16.0 + 1.0,
            "approx {approx:?} vs exact {exact:?}"
        );
    }

    /// The whole-request histogram as of now.
    fn total(r: &LatencyRecorder) -> StageSnapshot {
        r.snapshot().stage(Stage::Total).clone()
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let r = LatencyRecorder::new();
        for ms in 1..=100u64 {
            r.record(Duration::from_millis(ms));
        }
        let s = total(&r);
        close(s.quantile(0.5).unwrap(), Duration::from_millis(50));
        close(s.quantile(0.99).unwrap(), Duration::from_millis(99));
        close(s.quantile(1.0).unwrap(), Duration::from_millis(100));
        close(s.quantile(0.0).unwrap(), Duration::from_millis(1));
        assert_eq!(s.count(), 100);
        // Mean is exact: buckets only quantise quantiles.
        assert_eq!(s.mean().unwrap(), Duration::from_micros(50_500));
    }

    #[test]
    fn empty_recorder_returns_none() {
        let r = LatencyRecorder::new().snapshot();
        for s in Stage::ALL {
            assert_eq!(r.stage(s).count(), 0);
            assert!(r.stage(s).quantile(0.5).is_none());
            assert!(r.stage(s).mean().is_none());
        }
    }

    /// An earlier snapshot `since` a later one saturates to an empty
    /// interval: its count (the bucket sum) is zero, so no quantile claims
    /// samples the buckets do not hold.
    #[test]
    fn reversed_interval_is_empty() {
        let r = LatencyRecorder::new();
        let before = r.snapshot();
        r.record(Duration::from_millis(1));
        r.record_stage(Stage::Fetch, Duration::from_micros(3));
        let reversed = before.since(&r.snapshot());
        for s in Stage::ALL {
            assert_eq!(reversed.stage(s).count(), 0);
            assert!(reversed.stage(s).quantile(1.0).is_none());
            assert!(reversed.stage(s).mean().is_none());
        }
    }

    #[test]
    fn stages_record_independently() {
        let r = LatencyRecorder::new();
        r.record_stage(Stage::Fetch, Duration::from_micros(10));
        r.record_stage(Stage::Fetch, Duration::from_micros(20));
        r.record_stage(Stage::Predict, Duration::from_micros(100));
        let s = r.snapshot();
        assert_eq!(s.stage(Stage::Fetch).count(), 2);
        assert_eq!(s.stage(Stage::Predict).count(), 1);
        assert_eq!(
            s.stage(Stage::Total).count(),
            0,
            "stage samples must not count as requests"
        );
        assert_eq!(
            s.stage(Stage::Fetch).mean().unwrap(),
            Duration::from_micros(15)
        );
        close(
            s.stage(Stage::Predict).quantile(0.5).unwrap(),
            Duration::from_micros(100),
        );
    }

    #[test]
    fn snapshot_delta_isolates_an_interval() {
        let r = LatencyRecorder::new();
        // Pollute with slow "warm-up" traffic.
        for _ in 0..50 {
            r.record(Duration::from_millis(500));
        }
        let before = r.snapshot();
        for _ in 0..100 {
            r.record(Duration::from_micros(100));
        }
        let delta = r.snapshot().since(&before).stage(Stage::Total).clone();
        assert_eq!(delta.count(), 100);
        close(delta.quantile(0.99).unwrap(), Duration::from_micros(100));
        assert_eq!(delta.mean().unwrap(), Duration::from_micros(100));
        // Lifetime view still sees the warm-up tail.
        assert!(total(&r).quantile(0.99).unwrap() > Duration::from_millis(100));
    }

    #[test]
    fn mean_rounds_to_nearest_instead_of_truncating() {
        let r = LatencyRecorder::new();
        r.record(Duration::from_nanos(1));
        r.record(Duration::from_nanos(2));
        // 1.5ns rounds to 2, not down to 1.
        assert_eq!(total(&r).mean().unwrap(), Duration::from_nanos(2));
    }

    #[test]
    fn bucket_index_and_value_are_consistent() {
        for v in (0..200u64).chain([1_000, 65_535, 1 << 20, u64::MAX - 1, u64::MAX]) {
            let idx = bucket_index(v);
            assert!(idx < N_BUCKETS, "v={v} idx={idx}");
            let rep = bucket_value(idx);
            // The representative lives in the same bucket as the value.
            assert_eq!(bucket_index(rep), idx, "v={v} rep={rep}");
            if v >= 16 {
                let rel = (rep as f64 - v as f64).abs() / v as f64;
                assert!(rel <= 1.0 / 16.0, "v={v} rep={rep} rel={rel}");
            } else {
                assert_eq!(rep, v);
            }
        }
    }

    proptest! {
        /// Nearest-rank quantiles through the histogram stay within one
        /// bucket (≤1/16 relative error) of the exact nearest-rank sample,
        /// across arbitrary sample sets and quantiles — including q = 0,
        /// q = 1, and single-sample recorders.
        #[test]
        fn quantile_tracks_exact_nearest_rank(
            samples in proptest::collection::vec(1u64..10_000_000_000, 1..200),
            q_mille in 0u64..=1000,
        ) {
            let q = q_mille as f64 / 1000.0;
            let r = LatencyRecorder::new();
            for &s in &samples {
                r.record(Duration::from_nanos(s));
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let got = total(&r).quantile(q).unwrap().as_nanos() as u64;
            let err = (got as f64 - exact as f64).abs();
            prop_assert!(
                err <= exact as f64 / 16.0 + 1.0,
                "q={} exact={} got={}", q, exact, got
            );
        }
    }
}
