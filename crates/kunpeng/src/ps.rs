//! The parameter server: sharded storage, Pull/Push, model averaging,
//! traffic accounting and checkpoint-based failure recovery.

use parking_lot::RwLock;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A point-in-time copy of all parameters, used to recover a failed server
/// node "to the previous status" (§4.3).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    params: Vec<f32>,
}

/// Typed recovery errors: restoring from a checkpoint that does not match
/// this server, or recovering a shard that does not exist. Recovery runs
/// against live traffic, so a bad checkpoint must be a rejected operation —
/// never a panic that takes the trainer down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsError {
    /// The checkpoint's parameter count does not match the server's.
    CheckpointDim {
        /// Dimension this server holds.
        expected: usize,
        /// Dimension the checkpoint holds.
        got: usize,
    },
    /// The named shard does not exist on this server.
    ShardOutOfRange {
        /// Shard index requested.
        shard: usize,
        /// Shards this server has.
        n_servers: usize,
    },
}

impl fmt::Display for PsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PsError::CheckpointDim { expected, got } => write!(
                f,
                "checkpoint holds {got} parameters but the server has {expected}"
            ),
            PsError::ShardOutOfRange { shard, n_servers } => {
                write!(f, "shard {shard} out of range: server has {n_servers}")
            }
        }
    }
}

impl std::error::Error for PsError {}

/// A dense parameter vector sharded across `n_servers` server nodes.
///
/// Shard `s` owns the contiguous range `[s*chunk, min((s+1)*chunk, d))`.
/// Every Pull/Push is split across the owning shards and counted into the
/// per-shard traffic totals that the Figure 10 cost model consumes.
pub struct ParamServer {
    shards: Vec<RwLock<Vec<f32>>>,
    chunk: usize,
    dim: usize,
    pulled_bytes: AtomicU64,
    pushed_bytes: AtomicU64,
}

impl ParamServer {
    /// Create with `dim` parameters over `n_servers` shards, initialised by
    /// `init(index)`.
    pub fn new(dim: usize, n_servers: usize, init: impl Fn(usize) -> f32) -> Self {
        assert!(n_servers > 0, "need at least one server node");
        assert!(dim > 0, "need at least one parameter");
        let chunk = dim.div_ceil(n_servers);
        let shards = (0..n_servers)
            .map(|s| {
                let lo = s * chunk;
                let hi = ((s + 1) * chunk).min(dim);
                RwLock::new((lo..hi).map(&init).collect())
            })
            .collect();
        Self {
            shards,
            chunk,
            dim,
            pulled_bytes: AtomicU64::new(0),
            pushed_bytes: AtomicU64::new(0),
        }
    }

    /// Total parameter count.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of server shards.
    pub fn n_servers(&self) -> usize {
        self.shards.len()
    }

    /// Pull `range` into `out` (must have the range's length).
    pub fn pull(&self, range: std::ops::Range<usize>, out: &mut [f32]) {
        assert_eq!(out.len(), range.len(), "pull buffer size mismatch");
        assert!(range.end <= self.dim, "pull out of range");
        self.pulled_bytes
            .fetch_add(range.len() as u64 * 4, Ordering::Relaxed);
        self.for_each_shard(range, |shard_vals, shard_range, out_range| {
            out[out_range].copy_from_slice(&shard_vals[shard_range]);
        });
    }

    /// Push additive deltas: `param[range] += deltas`.
    pub fn push_add(&self, range: std::ops::Range<usize>, deltas: &[f32]) {
        assert_eq!(deltas.len(), range.len(), "push buffer size mismatch");
        assert!(range.end <= self.dim, "push out of range");
        self.pushed_bytes
            .fetch_add(range.len() as u64 * 4, Ordering::Relaxed);
        self.for_each_shard_mut(range, |shard_vals, shard_range, in_range| {
            for (w, &d) in shard_vals[shard_range].iter_mut().zip(&deltas[in_range]) {
                *w += d;
            }
        });
    }

    /// Model-average push: `param = (1 - alpha) * param + alpha * values`
    /// — the aggregation §4.3 describes for the word2vec embeddings.
    pub fn push_average(&self, range: std::ops::Range<usize>, values: &[f32], alpha: f32) {
        assert_eq!(values.len(), range.len(), "push buffer size mismatch");
        assert!(range.end <= self.dim, "push out of range");
        assert!((0.0..=1.0).contains(&alpha), "alpha must be a fraction");
        self.pushed_bytes
            .fetch_add(range.len() as u64 * 4, Ordering::Relaxed);
        self.for_each_shard_mut(range, |shard_vals, shard_range, in_range| {
            for (w, &v) in shard_vals[shard_range].iter_mut().zip(&values[in_range]) {
                *w = (1.0 - alpha) * *w + alpha * v;
            }
        });
    }

    /// Bytes pulled so far (worker <- server traffic).
    pub fn pulled_bytes(&self) -> u64 {
        self.pulled_bytes.load(Ordering::Relaxed)
    }

    /// Bytes pushed so far (worker -> server traffic).
    pub fn pushed_bytes(&self) -> u64 {
        self.pushed_bytes.load(Ordering::Relaxed)
    }

    /// Copy out the full parameter vector.
    pub fn snapshot(&self) -> Vec<f32> {
        let mut out = vec![0f32; self.dim];
        self.pull_untracked(&mut out);
        out
    }

    fn pull_untracked(&self, out: &mut [f32]) {
        for (s, shard) in self.shards.iter().enumerate() {
            let lo = s * self.chunk;
            let vals = shard.read();
            out[lo..lo + vals.len()].copy_from_slice(&vals);
        }
    }

    /// Take a recovery checkpoint.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            params: self.snapshot(),
        }
    }

    /// Restore all shards from a checkpoint (server-failure recovery).
    /// A checkpoint of the wrong dimensionality is rejected without
    /// touching any shard.
    pub fn restore(&self, ck: &Checkpoint) -> Result<(), PsError> {
        if ck.params.len() != self.dim {
            return Err(PsError::CheckpointDim {
                expected: self.dim,
                got: ck.params.len(),
            });
        }
        for (s, shard) in self.shards.iter().enumerate() {
            let lo = s * self.chunk;
            let mut vals = shard.write();
            let n = vals.len();
            vals.copy_from_slice(&ck.params[lo..lo + n]);
        }
        Ok(())
    }

    /// Simulate one server shard crashing and being restarted from the
    /// checkpoint: only that shard's parameters are restored, the rest are
    /// untouched ("other instances remain not affected"). A nonexistent
    /// shard or a mismatched checkpoint is rejected without any write.
    pub fn recover_shard(&self, shard: usize, ck: &Checkpoint) -> Result<(), PsError> {
        if shard >= self.shards.len() {
            return Err(PsError::ShardOutOfRange {
                shard,
                n_servers: self.shards.len(),
            });
        }
        if ck.params.len() != self.dim {
            return Err(PsError::CheckpointDim {
                expected: self.dim,
                got: ck.params.len(),
            });
        }
        let lo = shard * self.chunk;
        let mut vals = self.shards[shard].write();
        let n = vals.len();
        vals.copy_from_slice(&ck.params[lo..lo + n]);
        Ok(())
    }

    fn for_each_shard(
        &self,
        range: std::ops::Range<usize>,
        mut f: impl FnMut(&[f32], std::ops::Range<usize>, std::ops::Range<usize>),
    ) {
        let first = range.start / self.chunk;
        let last = (range.end - 1) / self.chunk;
        for s in first..=last {
            let shard_lo = s * self.chunk;
            let lo = range.start.max(shard_lo);
            let hi = range.end.min(shard_lo + self.shards[s].read().len());
            if lo >= hi {
                continue;
            }
            let vals = self.shards[s].read();
            f(
                &vals,
                lo - shard_lo..hi - shard_lo,
                lo - range.start..hi - range.start,
            );
        }
    }

    fn for_each_shard_mut(
        &self,
        range: std::ops::Range<usize>,
        mut f: impl FnMut(&mut [f32], std::ops::Range<usize>, std::ops::Range<usize>),
    ) {
        let first = range.start / self.chunk;
        let last = (range.end - 1) / self.chunk;
        for s in first..=last {
            let shard_lo = s * self.chunk;
            let mut vals = self.shards[s].write();
            let lo = range.start.max(shard_lo);
            let hi = range.end.min(shard_lo + vals.len());
            if lo >= hi {
                continue;
            }
            f(
                &mut vals,
                lo - shard_lo..hi - shard_lo,
                lo - range.start..hi - range.start,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pull_push_round_trip_across_shards() {
        let ps = ParamServer::new(10, 3, |i| i as f32);
        let mut buf = vec![0f32; 10];
        ps.pull(0..10, &mut buf);
        assert_eq!(buf, (0..10).map(|i| i as f32).collect::<Vec<_>>());
        // Cross-shard range.
        let mut mid = vec![0f32; 5];
        ps.pull(2..7, &mut mid);
        assert_eq!(mid, vec![2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn push_add_accumulates() {
        let ps = ParamServer::new(6, 2, |_| 1.0);
        ps.push_add(1..4, &[0.5, 0.5, 0.5]);
        let snap = ps.snapshot();
        assert_eq!(snap, vec![1.0, 1.5, 1.5, 1.5, 1.0, 1.0]);
    }

    #[test]
    fn model_average_blends() {
        let ps = ParamServer::new(4, 2, |_| 0.0);
        ps.push_average(0..4, &[2.0; 4], 0.5);
        assert_eq!(ps.snapshot(), vec![1.0; 4]);
        ps.push_average(0..4, &[1.0; 4], 1.0);
        assert_eq!(ps.snapshot(), vec![1.0; 4]);
    }

    #[test]
    fn traffic_is_counted_in_bytes() {
        let ps = ParamServer::new(100, 4, |_| 0.0);
        let mut buf = vec![0f32; 50];
        ps.pull(0..50, &mut buf);
        ps.push_add(0..25, &[0.0; 25]);
        assert_eq!(ps.pulled_bytes(), 200);
        assert_eq!(ps.pushed_bytes(), 100);
    }

    #[test]
    fn checkpoint_restores_previous_status() {
        let ps = ParamServer::new(8, 3, |i| i as f32);
        let ck = ps.checkpoint();
        ps.push_add(0..8, &[100.0; 8]);
        assert_ne!(ps.snapshot()[0], 0.0);
        ps.restore(&ck).unwrap();
        assert_eq!(ps.snapshot(), (0..8).map(|i| i as f32).collect::<Vec<_>>());
    }

    #[test]
    fn mismatched_recovery_is_a_typed_error_not_a_panic() {
        let ps = ParamServer::new(8, 3, |i| i as f32);
        let foreign = ParamServer::new(6, 2, |_| 9.0).checkpoint();
        assert_eq!(
            ps.restore(&foreign),
            Err(PsError::CheckpointDim {
                expected: 8,
                got: 6
            })
        );
        assert_eq!(
            ps.recover_shard(1, &foreign),
            Err(PsError::CheckpointDim {
                expected: 8,
                got: 6
            })
        );
        let ck = ps.checkpoint();
        assert_eq!(
            ps.recover_shard(7, &ck),
            Err(PsError::ShardOutOfRange {
                shard: 7,
                n_servers: 3
            })
        );
        // No rejected operation wrote anything.
        assert_eq!(ps.snapshot(), (0..8).map(|i| i as f32).collect::<Vec<_>>());
    }

    #[test]
    fn single_shard_recovery_leaves_others_untouched() {
        let ps = ParamServer::new(9, 3, |_| 0.0);
        let ck = ps.checkpoint();
        ps.push_add(0..9, &[5.0; 9]);
        // Shard 1 (params 3..6) crashes and recovers from the checkpoint.
        ps.recover_shard(1, &ck).unwrap();
        let snap = ps.snapshot();
        assert_eq!(&snap[0..3], &[5.0; 3]);
        assert_eq!(&snap[3..6], &[0.0; 3]);
        assert_eq!(&snap[6..9], &[5.0; 3]);
    }

    #[test]
    fn concurrent_push_add_is_consistent() {
        let ps = ParamServer::new(4, 2, |_| 0.0);
        // The subject is concurrent pushes from many threads.
        #[allow(clippy::disallowed_methods)]
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100 {
                        ps.push_add(0..4, &[1.0; 4]);
                    }
                });
            }
        });
        assert_eq!(ps.snapshot(), vec![800.0; 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pull_panics() {
        let ps = ParamServer::new(4, 2, |_| 0.0);
        let mut buf = vec![0f32; 5];
        ps.pull(0..5, &mut buf);
    }
}
