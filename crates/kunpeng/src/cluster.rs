//! Cluster specification and the Figure 10 cost model.
//!
//! The paper measures DW and GBDT training time against the number of
//! machines on the production KunPeng cluster (half servers, half workers).
//! Without that hardware, this module converts *measured* single-machine
//! throughput and *measured* PS communication volume into simulated wall
//! times for an M-machine cluster:
//!
//! ```text
//! T(M) = T_compute(M) + T_comm(M) + T_sync(M)
//! T_compute = total_work / (throughput_per_worker · workers(M))
//! T_comm    = bytes_per_worker_round · rounds · workers(M) / server_bw(M)
//! T_sync    = rounds · (latency + straggler_penalty · log2(workers(M)))
//! ```
//!
//! With per-round traffic that *grows* with worker count (GBDT's histogram
//! aggregation: every worker pushes a full histogram per tree level), the
//! communication term stops amortising — reproducing the paper's
//! observation that GBDT "does not obviously halve when the number of
//! machines increases to 40 from 20", while DW (traffic proportional to
//! data actually touched) keeps scaling.

use std::time::Duration;

/// An M-machine KunPeng deployment. Per §5.2: "half of the machines are
/// selected as server nodes, and the rest are used as worker nodes".
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    /// Total machines.
    pub machines: usize,
    /// Worker threads per machine (the paper's production runs used 10).
    pub threads_per_machine: usize,
    /// Aggregate network bandwidth per server node, bytes/second.
    pub server_bandwidth: f64,
    /// Per-synchronisation-round latency.
    pub round_latency: Duration,
    /// Straggler penalty per log2(worker) per round — models the "uneven
    /// machine traffic" the paper blames for diminishing returns.
    pub straggler_penalty: Duration,
}

impl ClusterSpec {
    /// A production-flavoured cluster of `machines` machines (10 threads
    /// each, 10 Gbit/s per server, LAN latencies).
    pub fn production(machines: usize) -> Self {
        assert!(machines >= 2, "need at least one server and one worker");
        Self {
            machines,
            threads_per_machine: 10,
            server_bandwidth: 1.25e9, // 10 Gbit/s
            round_latency: Duration::from_millis(12),
            straggler_penalty: Duration::from_millis(25),
        }
    }

    /// Server-node count (half, at least one).
    pub fn servers(&self) -> usize {
        (self.machines / 2).max(1)
    }

    /// Worker-node count (the other half, at least one).
    pub fn workers(&self) -> usize {
        (self.machines - self.servers()).max(1)
    }

    /// Total worker threads.
    fn worker_threads(&self) -> usize {
        self.workers() * self.threads_per_machine
    }
}

/// A measured workload profile: what one local run observed.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadProfile {
    /// Total work units (e.g. walk tokens for DW, row-feature-cells for
    /// GBDT) in the full job.
    pub total_work: f64,
    /// Measured work units per second per worker *thread*.
    pub throughput_per_thread: f64,
    /// Synchronisation rounds in the full job (epochs for DW; trees ×
    /// levels for GBDT).
    pub rounds: f64,
    /// Bytes each worker pushes+pulls per round (from the PS traffic
    /// counters).
    pub bytes_per_worker_round: f64,
}

/// The calibrated cost model.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    pub spec: ClusterSpec,
}

impl CostModel {
    /// Wrap a cluster spec.
    pub fn new(spec: ClusterSpec) -> Self {
        Self { spec }
    }

    /// Simulated wall time of `profile` on this cluster.
    pub fn wall_time(&self, profile: &WorkloadProfile) -> Duration {
        let workers = self.spec.workers() as f64;
        let threads = self.spec.worker_threads() as f64;
        let compute_s = profile.total_work / (profile.throughput_per_thread * threads);
        // All workers push to the server pool each round; aggregate server
        // bandwidth grows with the server count.
        let server_bw = self.spec.server_bandwidth * self.spec.servers() as f64;
        let comm_s = profile.rounds * profile.bytes_per_worker_round * workers / server_bw;
        let sync_s = profile.rounds
            * (self.spec.round_latency.as_secs_f64()
                + self.spec.straggler_penalty.as_secs_f64() * (workers.max(2.0)).log2());
        Duration::from_secs_f64(compute_s + comm_s + sync_s)
    }

    /// Decompose the wall time into (compute, comm, sync) seconds.
    pub fn breakdown(&self, profile: &WorkloadProfile) -> (f64, f64, f64) {
        let workers = self.spec.workers() as f64;
        let threads = self.spec.worker_threads() as f64;
        let compute = profile.total_work / (profile.throughput_per_thread * threads);
        let server_bw = self.spec.server_bandwidth * self.spec.servers() as f64;
        let comm = profile.rounds * profile.bytes_per_worker_round * workers / server_bw;
        let sync = profile.rounds
            * (self.spec.round_latency.as_secs_f64()
                + self.spec.straggler_penalty.as_secs_f64() * (workers.max(2.0)).log2());
        (compute, comm, sync)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// DW at production scale: ~16G walk tokens over 2 passes, full-model
    /// pull+push per round.
    fn dw_like_profile() -> WorkloadProfile {
        WorkloadProfile {
            total_work: 16e9,
            throughput_per_thread: 1.5e6,
            rounds: 2.0,
            bytes_per_worker_round: 8e8,
        }
    }

    /// GBDT at production scale: 8M rows x 116 features x 400 trees x 3
    /// levels of histogram work; one histogram push per worker per level.
    fn gbdt_like_profile() -> WorkloadProfile {
        WorkloadProfile {
            total_work: 1.1e12,
            throughput_per_thread: 5e7,
            rounds: 1200.0,
            bytes_per_worker_round: 4e5,
        }
    }

    #[test]
    fn half_machines_are_servers() {
        let spec = ClusterSpec::production(40);
        assert_eq!(spec.servers(), 20);
        assert_eq!(spec.workers(), 20);
        assert_eq!(spec.worker_threads(), 200);
        let tiny = ClusterSpec::production(2);
        assert_eq!(tiny.servers(), 1);
        assert_eq!(tiny.workers(), 1);
    }

    #[test]
    fn dw_keeps_scaling_to_forty_machines() {
        let p = dw_like_profile();
        let times: Vec<f64> = [4usize, 10, 20, 40]
            .iter()
            .map(|&m| {
                CostModel::new(ClusterSpec::production(m))
                    .wall_time(&p)
                    .as_secs_f64()
            })
            .collect();
        for w in times.windows(2) {
            assert!(w[1] < w[0], "DW time must keep decreasing: {times:?}");
        }
        // Near-linear early speedup: 4 -> 10 machines.
        assert!(times[0] / times[1] > 2.0, "{times:?}");
    }

    #[test]
    fn gbdt_stops_halving_past_twenty_machines() {
        let p = gbdt_like_profile();
        let t = |m: usize| {
            CostModel::new(ClusterSpec::production(m))
                .wall_time(&p)
                .as_secs_f64()
        };
        let (t4, t10, t20, t40) = (t(4), t(10), t(20), t(40));
        assert!(t10 < t4 && t20 < t10, "early scaling should hold");
        // The paper's shape: 20 -> 40 no longer halves.
        let ratio = t20 / t40;
        assert!(
            ratio < 1.6,
            "20->40 speedup should be far below 2x, got {ratio:.2} ({t20:.1}s -> {t40:.1}s)"
        );
    }

    #[test]
    fn breakdown_sums_to_wall_time() {
        let p = gbdt_like_profile();
        let m = CostModel::new(ClusterSpec::production(10));
        let (c, o, s) = m.breakdown(&p);
        let total = m.wall_time(&p).as_secs_f64();
        assert!((c + o + s - total).abs() < 1e-9);
    }
}
