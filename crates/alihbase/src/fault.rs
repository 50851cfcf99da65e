//! Deterministic fault injection for storage reads **and writes**.
//!
//! A [`FaultHook`] sits between the table and the store and decides, per
//! read, whether the read proceeds cleanly or experiences one of four
//! failure modes: a transient error, injected latency, a torn first cell,
//! or a region-unavailable window. The write side mirrors it: per batched
//! write, [`FaultHook::on_write`] can fail the WAL append, fail the fsync
//! barrier, stall the write, or cut the power (the un-synced WAL tail and
//! all in-memory state vanish and the store recovers its durable prefix).
//! The shipped implementation, [`FaultPlan`], makes each decision a **pure
//! function of the seed and the operation's coordinates** (row, region,
//! replica, tick, attempt) — never of wall-clock time or global call order
//! — so the same seed produces a bit-identical fault sequence regardless
//! of thread count or interleaving. That determinism is what lets the
//! chaos and crash gates assert exact counter equality across re-runs.

use crate::types::RowKey;
use std::time::Duration;

/// SplitMix64: one multiply-xorshift round, the workspace's standard way to
/// turn a mixed key into uniform bits.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the row-key bytes: the row's contribution to a fault draw.
fn row_hash(row: &RowKey) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in row.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// What a hook tells the store to do with one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Read proceeds normally.
    None,
    /// The read fails with a retryable error (a flaky region server).
    Transient,
    /// The read succeeds after the given simulated delay (a slow disk or a
    /// GC pause). Reads with a `max_wait` cap time out instead when the
    /// delay exceeds the cap.
    Latency(Duration),
    /// The region replica is down for this read (maintenance window,
    /// region move). The caller's only recourse is another replica.
    Unavailable,
    /// The read succeeds but the first cell comes back truncated — the
    /// partial-write corruption the codec's torn-cell path handles.
    TornCell,
}

/// Coordinates of one storage read, as seen by a [`FaultHook`].
#[derive(Debug, Clone, Copy)]
pub struct ReadCtx<'a> {
    /// Region index the read routes to.
    pub region: usize,
    /// Replica index within the region.
    pub replica: usize,
    /// Row being read.
    pub row: &'a RowKey,
    /// Logical time of the request (the serving path uses the transaction
    /// id), which keys unavailability windows deterministically.
    pub tick: u64,
    /// Zero-based attempt number within one logical fetch (retries and
    /// hedges bump it so re-reads draw fresh faults).
    pub attempt: u32,
}

/// What a hook tells the store to do with one batched write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFaultAction {
    /// Write proceeds normally.
    None,
    /// The WAL append fails before any byte reaches the log (a transient
    /// I/O error); the batch is not applied and the caller may retry.
    AppendError,
    /// The frame reaches the log file but its durability barrier fails.
    /// The write is **not acknowledged** and not applied to the memtable;
    /// the bytes may still become durable via a later barrier — replaying
    /// them is harmless because a retry rewrites the identical cells.
    SyncError,
    /// The write succeeds after the given simulated stall (a slow disk or
    /// a saturated group-commit queue).
    Latency(Duration),
    /// Power is cut at this write: the un-synced WAL tail and every
    /// in-memory structure vanish. The store recovers from its durable
    /// prefix in place; the triggering write is lost and reports failure.
    PowerLoss,
}

/// Coordinates of one batched storage write, as seen by a [`FaultHook`].
#[derive(Debug, Clone, Copy)]
pub struct WriteCtx<'a> {
    /// Region index the batch routes to.
    pub region: usize,
    /// Replica index the batch is being applied to.
    pub replica: usize,
    /// First row of the batch — the batch's row contribution to the draw.
    pub row: &'a RowKey,
    /// Logical time of the write (ingest passes its batch sequence
    /// number), so fault schedules vary over a workload.
    pub tick: u64,
    /// Zero-based attempt number within one logical write (the ingest
    /// retry loop bumps it so re-writes draw fresh faults).
    pub attempt: u32,
}

/// Per-write options for [`crate::RegionedTable::try_put_rows`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteOptions {
    /// Logical write time forwarded to the fault hook.
    pub tick: u64,
    /// Attempt number forwarded to the fault hook.
    pub attempt: u32,
}

/// Classification of a failed batched write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFaultKind {
    /// Injected WAL append error — nothing reached the log; retryable.
    AppendError,
    /// Injected fsync failure — the frame may or may not be durable; the
    /// write is unacknowledged. Retryable (a retry rewrites the same
    /// cells, and duplicate `(key, version)` entries with equal values
    /// replay idempotently).
    SyncError,
    /// Power loss struck at this write; the store recovered its durable
    /// prefix in place and the batch was lost. Retryable after recovery.
    PowerLoss,
    /// A real (non-injected) I/O error from the store; see
    /// [`WriteFault::source`].
    Io,
}

/// A batched write that was not acknowledged.
#[derive(Debug)]
pub struct WriteFault {
    /// What went wrong.
    pub kind: WriteFaultKind,
    /// Region the write routed to.
    pub region: usize,
    /// Replica that faulted.
    pub replica: usize,
    /// Simulated wait incurred before the fault surfaced; callers charge
    /// this against their deadline budget.
    pub waited: Duration,
    /// The underlying I/O error for [`WriteFaultKind::Io`].
    pub source: Option<std::io::Error>,
}

impl std::fmt::Display for WriteFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.kind, &self.source) {
            (WriteFaultKind::Io, Some(e)) => write!(
                f,
                "write to region {} replica {} failed: {e}",
                self.region, self.replica
            ),
            _ => write!(
                f,
                "write to region {} replica {} failed: {:?}",
                self.region, self.replica, self.kind
            ),
        }
    }
}

/// A fault-decision point threaded through [`crate::RegionedTable`] reads
/// and batched writes.
///
/// Implementations must be pure with respect to the context: the same
/// `ReadCtx`/`WriteCtx` must always yield the same action, or downstream
/// determinism guarantees break.
pub trait FaultHook: Send + Sync {
    /// Decide what happens to the read described by `ctx`.
    fn on_read(&self, ctx: &ReadCtx<'_>) -> FaultAction;

    /// Decide what happens to the batched write described by `ctx`.
    /// Defaults to a clean write so read-only hooks stay source-compatible.
    fn on_write(&self, _ctx: &WriteCtx<'_>) -> WriteFaultAction {
        WriteFaultAction::None
    }
}

/// Classification of a failed read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Retryable error; the same replica may succeed on the next attempt.
    Transient,
    /// This replica is down for the request's tick; retrying the same
    /// replica is futile — fail over.
    Unavailable,
    /// Injected latency exceeded the caller's `max_wait` cap; the read was
    /// abandoned after waiting only the cap (a hedge trigger).
    TimedOut,
    /// The requested replica index does not exist in the target region.
    /// Not a storage fault: no store was touched and no fault was drawn.
    /// Pre-fix, [`crate::RegionedTable::try_get_row`] silently wrapped the
    /// index modulo the replica count, so a "hedged" read on a
    /// single-replica table re-read the same primary while the SLO layer
    /// counted it as a real hedge.
    NoSuchReplica,
}

/// A read that did not return data, with the simulated time it consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadFault {
    /// What went wrong.
    pub kind: FaultKind,
    /// Region the read routed to.
    pub region: usize,
    /// Replica that faulted.
    pub replica: usize,
    /// Simulated wait incurred before the fault surfaced (the cap for
    /// [`FaultKind::TimedOut`], zero otherwise). Callers charge this
    /// against their deadline budget.
    pub waited: Duration,
    /// The full injected delay a timed-out read would have needed
    /// (`>= waited`); zero for other kinds.
    pub injected: Duration,
}

/// Per-read options for [`crate::RegionedTable::try_get_row`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadOptions {
    /// Replica to read. Must exist in the target region: an out-of-range
    /// index fails with [`FaultKind::NoSuchReplica`] instead of silently
    /// wrapping onto the primary.
    pub replica: usize,
    /// Logical request time forwarded to the fault hook.
    pub tick: u64,
    /// Attempt number forwarded to the fault hook.
    pub attempt: u32,
    /// Abandon the read once injected latency exceeds this cap (the read
    /// returns [`FaultKind::TimedOut`] after waiting only the cap).
    /// `None` = wait out any injected latency.
    pub max_wait: Option<Duration>,
}

/// A successful row read plus the simulated latency it absorbed.
#[derive(Debug, Clone)]
pub struct RowRead {
    /// Live cells of the row in key order (same shape as
    /// [`crate::Store::get_row`]).
    pub cells: Vec<(crate::types::CellKey, bytes::Bytes)>,
    /// Injected latency served within the cap (zero on a clean read).
    pub waited: Duration,
}

/// A tick window during which one region (or one replica of it) rejects
/// every read as [`FaultKind::Unavailable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnavailableWindow {
    /// Region the window applies to.
    pub region: usize,
    /// Replica affected; `None` takes down every replica of the region.
    pub replica: Option<usize>,
    /// First tick of the outage (inclusive).
    pub from_tick: u64,
    /// End of the outage (exclusive).
    pub to_tick: u64,
}

impl UnavailableWindow {
    fn covers(&self, ctx: &ReadCtx<'_>) -> bool {
        self.region == ctx.region
            && self.replica.is_none_or(|r| r == ctx.replica)
            && (self.from_tick..self.to_tick).contains(&ctx.tick)
    }
}

/// Configuration of a [`FaultPlan`]: independent per-read rates for each
/// fault mode plus an optional region outage window.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlanConfig {
    /// Seed every decision derives from.
    pub seed: u64,
    /// Probability a read fails transiently.
    pub transient_rate: f64,
    /// Probability a read is served after [`Self::latency`] of delay.
    pub latency_rate: f64,
    /// Injected delay for latency-spiked reads.
    pub latency: Duration,
    /// Probability a read returns a torn first cell.
    pub torn_cell_rate: f64,
    /// Optional deterministic outage window.
    pub unavailable: Option<UnavailableWindow>,
    /// Probability a batched write fails its WAL append.
    pub write_append_error_rate: f64,
    /// Probability a batched write fails its fsync barrier.
    pub write_sync_error_rate: f64,
    /// Probability a batched write stalls for [`Self::write_latency`].
    pub write_latency_rate: f64,
    /// Injected stall for latency-spiked writes.
    pub write_latency: Duration,
    /// Probability a batched write triggers a power-loss point (the
    /// un-synced WAL tail and all in-memory state vanish mid-workload).
    pub power_loss_rate: f64,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            transient_rate: 0.0,
            latency_rate: 0.0,
            latency: Duration::from_millis(1),
            torn_cell_rate: 0.0,
            unavailable: None,
            write_append_error_rate: 0.0,
            write_sync_error_rate: 0.0,
            write_latency_rate: 0.0,
            write_latency: Duration::from_millis(1),
            power_loss_rate: 0.0,
        }
    }
}

/// The seeded fault schedule. Every decision hashes the seed with the
/// read's coordinates, so the schedule is reproducible and independent of
/// the order in which threads happen to issue reads.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultPlanConfig,
}

impl FaultPlan {
    /// Build a plan from its configuration.
    pub fn new(config: FaultPlanConfig) -> Self {
        Self { config }
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultPlanConfig {
        &self.config
    }

    /// Uniform draw in `[0, 1)` for one (read, fault-kind) pair.
    fn draw(&self, ctx: &ReadCtx<'_>, salt: u64) -> f64 {
        self.draw_parts(
            ctx.row,
            ctx.region,
            ctx.replica,
            ctx.tick,
            ctx.attempt,
            salt,
        )
    }

    /// Uniform draw in `[0, 1)` for one (write, fault-kind) pair — same
    /// mixing as reads; the salt keeps read and write schedules independent.
    fn draw_write(&self, ctx: &WriteCtx<'_>, salt: u64) -> f64 {
        self.draw_parts(
            ctx.row,
            ctx.region,
            ctx.replica,
            ctx.tick,
            ctx.attempt,
            salt,
        )
    }

    fn draw_parts(
        &self,
        row: &RowKey,
        region: usize,
        replica: usize,
        tick: u64,
        attempt: u32,
        salt: u64,
    ) -> f64 {
        let mut key = self.config.seed;
        key ^= row_hash(row).rotate_left(17);
        key ^= (region as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        key ^= (replica as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB);
        key ^= tick.wrapping_mul(0x8EBC_6AF0_9C88_C6E3);
        key ^= (attempt as u64).wrapping_mul(0x5896_27F6_EB5C_04F9);
        key ^= salt;
        (splitmix64(key) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FaultHook for FaultPlan {
    fn on_read(&self, ctx: &ReadCtx<'_>) -> FaultAction {
        let c = &self.config;
        if c.unavailable.as_ref().is_some_and(|w| w.covers(ctx)) {
            return FaultAction::Unavailable;
        }
        if c.transient_rate > 0.0 && self.draw(ctx, 0x7261_6e73) < c.transient_rate {
            return FaultAction::Transient;
        }
        if c.latency_rate > 0.0 && self.draw(ctx, 0x6c61_7465) < c.latency_rate {
            return FaultAction::Latency(c.latency);
        }
        if c.torn_cell_rate > 0.0 && self.draw(ctx, 0x746f_726e) < c.torn_cell_rate {
            return FaultAction::TornCell;
        }
        FaultAction::None
    }

    fn on_write(&self, ctx: &WriteCtx<'_>) -> WriteFaultAction {
        let c = &self.config;
        // Power loss outranks everything (it is the rarest and the most
        // destructive), then append beats sync beats latency — mirroring
        // the read side's severity ordering.
        if c.power_loss_rate > 0.0 && self.draw_write(ctx, 0x706f_7772) < c.power_loss_rate {
            return WriteFaultAction::PowerLoss;
        }
        if c.write_append_error_rate > 0.0
            && self.draw_write(ctx, 0x6170_7065) < c.write_append_error_rate
        {
            return WriteFaultAction::AppendError;
        }
        if c.write_sync_error_rate > 0.0
            && self.draw_write(ctx, 0x7773_796e) < c.write_sync_error_rate
        {
            return WriteFaultAction::SyncError;
        }
        if c.write_latency_rate > 0.0 && self.draw_write(ctx, 0x776c_6174) < c.write_latency_rate {
            return WriteFaultAction::Latency(c.write_latency);
        }
        WriteFaultAction::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ctx(row: &RowKey, region: usize, replica: usize, tick: u64, attempt: u32) -> ReadCtx<'_> {
        ReadCtx {
            region,
            replica,
            row,
            tick,
            attempt,
        }
    }

    fn wctx(row: &RowKey, region: usize, replica: usize, tick: u64, attempt: u32) -> WriteCtx<'_> {
        WriteCtx {
            region,
            replica,
            row,
            tick,
            attempt,
        }
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let plan = FaultPlan::new(FaultPlanConfig::default());
        let row = RowKey::from_user(7);
        for tick in 0..1000 {
            assert_eq!(plan.on_read(&ctx(&row, 0, 0, tick, 0)), FaultAction::None);
        }
    }

    #[test]
    fn certain_rates_always_fire_in_priority_order() {
        let plan = FaultPlan::new(FaultPlanConfig {
            transient_rate: 1.0,
            latency_rate: 1.0,
            torn_cell_rate: 1.0,
            ..Default::default()
        });
        let row = RowKey::from_user(7);
        // Transient outranks latency outranks torn.
        assert_eq!(plan.on_read(&ctx(&row, 0, 0, 3, 0)), FaultAction::Transient);
        let latency_only = FaultPlan::new(FaultPlanConfig {
            latency_rate: 1.0,
            latency: Duration::from_micros(250),
            ..Default::default()
        });
        assert_eq!(
            latency_only.on_read(&ctx(&row, 0, 0, 3, 0)),
            FaultAction::Latency(Duration::from_micros(250))
        );
    }

    #[test]
    fn unavailable_window_matches_region_replica_and_ticks() {
        let plan = FaultPlan::new(FaultPlanConfig {
            unavailable: Some(UnavailableWindow {
                region: 1,
                replica: Some(0),
                from_tick: 100,
                to_tick: 200,
            }),
            ..Default::default()
        });
        let row = RowKey::from_user(1);
        assert_eq!(
            plan.on_read(&ctx(&row, 1, 0, 150, 0)),
            FaultAction::Unavailable
        );
        // Outside the tick window, wrong region, or the surviving replica:
        // reads proceed.
        assert_eq!(plan.on_read(&ctx(&row, 1, 0, 99, 0)), FaultAction::None);
        assert_eq!(plan.on_read(&ctx(&row, 1, 0, 200, 0)), FaultAction::None);
        assert_eq!(plan.on_read(&ctx(&row, 0, 0, 150, 0)), FaultAction::None);
        assert_eq!(plan.on_read(&ctx(&row, 1, 1, 150, 0)), FaultAction::None);
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan::new(FaultPlanConfig {
            transient_rate: 0.05,
            ..Default::default()
        });
        let row = RowKey::from_user(42);
        let hits = (0..20_000)
            .filter(|&t| plan.on_read(&ctx(&row, 0, 0, t, 0)) == FaultAction::Transient)
            .count();
        // 5% of 20k = 1000 expected; allow a wide deterministic band.
        assert!((600..1400).contains(&hits), "transient hits: {hits}");
    }

    #[test]
    fn zero_write_rates_inject_nothing() {
        let plan = FaultPlan::new(FaultPlanConfig::default());
        let row = RowKey::from_user(7);
        for tick in 0..1000 {
            assert_eq!(
                plan.on_write(&wctx(&row, 0, 0, tick, 0)),
                WriteFaultAction::None
            );
        }
    }

    #[test]
    fn certain_write_rates_fire_in_severity_order() {
        let plan = FaultPlan::new(FaultPlanConfig {
            write_append_error_rate: 1.0,
            write_sync_error_rate: 1.0,
            write_latency_rate: 1.0,
            power_loss_rate: 1.0,
            ..Default::default()
        });
        let row = RowKey::from_user(7);
        assert_eq!(
            plan.on_write(&wctx(&row, 0, 0, 3, 0)),
            WriteFaultAction::PowerLoss
        );
        let no_power = FaultPlan::new(FaultPlanConfig {
            write_append_error_rate: 1.0,
            write_sync_error_rate: 1.0,
            ..Default::default()
        });
        assert_eq!(
            no_power.on_write(&wctx(&row, 0, 0, 3, 0)),
            WriteFaultAction::AppendError
        );
        let sync_only = FaultPlan::new(FaultPlanConfig {
            write_sync_error_rate: 1.0,
            ..Default::default()
        });
        assert_eq!(
            sync_only.on_write(&wctx(&row, 0, 0, 3, 0)),
            WriteFaultAction::SyncError
        );
        let latency_only = FaultPlan::new(FaultPlanConfig {
            write_latency_rate: 1.0,
            write_latency: Duration::from_micros(250),
            ..Default::default()
        });
        assert_eq!(
            latency_only.on_write(&wctx(&row, 0, 0, 3, 0)),
            WriteFaultAction::Latency(Duration::from_micros(250))
        );
    }

    #[test]
    fn write_and_read_schedules_are_independent() {
        // Identical rates on both sides: the salts must decorrelate the
        // two schedules, or write chaos would shadow read chaos.
        let plan = FaultPlan::new(FaultPlanConfig {
            transient_rate: 0.5,
            write_append_error_rate: 0.5,
            ..Default::default()
        });
        let differs = (0..64u64).any(|u| {
            let row = RowKey::from_user(u);
            let r = plan.on_read(&ctx(&row, 0, 0, 1, 0)) == FaultAction::Transient;
            let w = plan.on_write(&wctx(&row, 0, 0, 1, 0)) == WriteFaultAction::AppendError;
            r != w
        });
        assert!(differs, "read and write draws must not be correlated");
    }

    #[test]
    fn write_retry_attempts_draw_fresh_faults() {
        let plan = FaultPlan::new(FaultPlanConfig {
            write_append_error_rate: 0.5,
            ..Default::default()
        });
        let differs = (0..64u64).any(|u| {
            let row = RowKey::from_user(u);
            let a0 = plan.on_write(&wctx(&row, 0, 0, 1, 0));
            let a1 = plan.on_write(&wctx(&row, 0, 0, 1, 1));
            a0 != a1
        });
        assert!(differs, "attempt number must influence the write draw");
    }

    #[test]
    fn retry_attempts_draw_fresh_faults() {
        // With a 50% transient rate some attempt must differ from attempt 0
        // for at least one row — i.e. the attempt number feeds the draw.
        let plan = FaultPlan::new(FaultPlanConfig {
            transient_rate: 0.5,
            ..Default::default()
        });
        let differs = (0..64u64).any(|u| {
            let row = RowKey::from_user(u);
            let a0 = plan.on_read(&ctx(&row, 0, 0, 1, 0));
            let a1 = plan.on_read(&ctx(&row, 0, 0, 1, 1));
            a0 != a1
        });
        assert!(differs, "attempt number must influence the fault draw");
    }

    proptest! {
        /// Satellite: any seed yields an identical fault sequence across
        /// two plans with the same config — and the decision for a read is
        /// independent of the order reads are issued in.
        #[test]
        fn same_seed_yields_identical_fault_sequence(
            seed in 0u64..u64::MAX,
            reads in prop::collection::vec(
                (0u64..500, 0usize..4, 0usize..2, 0u64..10_000, 0u32..3),
                1..100,
            )
        ) {
            let config = FaultPlanConfig {
                seed,
                transient_rate: 0.2,
                latency_rate: 0.1,
                torn_cell_rate: 0.05,
                unavailable: Some(UnavailableWindow {
                    region: 1,
                    replica: Some(0),
                    from_tick: 1000,
                    to_tick: 2000,
                }),
                write_append_error_rate: 0.1,
                write_sync_error_rate: 0.1,
                write_latency_rate: 0.05,
                power_loss_rate: 0.02,
                ..Default::default()
            };
            let plan_a = FaultPlan::new(config.clone());
            let plan_b = FaultPlan::new(config);
            let decide = |plan: &FaultPlan| -> Vec<FaultAction> {
                reads
                    .iter()
                    .map(|&(user, region, replica, tick, attempt)| {
                        let row = RowKey::from_user(user);
                        plan.on_read(&ctx(&row, region, replica, tick, attempt))
                    })
                    .collect()
            };
            // The write schedule obeys the same contract with the same
            // coordinates.
            let decide_writes = |plan: &FaultPlan| -> Vec<WriteFaultAction> {
                reads
                    .iter()
                    .map(|&(user, region, replica, tick, attempt)| {
                        let row = RowKey::from_user(user);
                        plan.on_write(&wctx(&row, region, replica, tick, attempt))
                    })
                    .collect()
            };
            prop_assert_eq!(decide_writes(&plan_a), decide_writes(&plan_b));
            let forward = decide(&plan_a);
            prop_assert_eq!(&forward, &decide(&plan_b));
            // Issue the same reads in reverse order: per-read decisions are
            // positionally identical, so no global call counter leaks in.
            let mut reversed: Vec<FaultAction> = reads
                .iter()
                .rev()
                .map(|&(user, region, replica, tick, attempt)| {
                    let row = RowKey::from_user(user);
                    plan_a.on_read(&ctx(&row, region, replica, tick, attempt))
                })
                .collect();
            reversed.reverse();
            prop_assert_eq!(&forward, &reversed);
        }
    }
}
