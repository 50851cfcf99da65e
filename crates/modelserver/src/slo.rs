//! Serving SLO machinery: deadline budgets, bounded retry with
//! decorrelated-jitter backoff, hedged reads, and resilience counters.
//!
//! Everything here is built to keep the serving path **deterministic under
//! chaos**: backoff jitter comes from a per-request seeded [`ReqRng`]
//! (never wall-clock entropy), and deadline decisions charge only
//! *simulated* time (injected latency and backoff pauses) against the
//! budget, so the same seed produces the same retry/hedge/deadline
//! outcomes regardless of scheduler timing or worker count. Real sleeps
//! still happen — the latency histograms stay honest — but they never
//! feed a decision.

use std::time::Duration;

/// SplitMix64 finalizer shared by the per-request RNG and the row cache's
/// shard choice.
pub(crate) fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tiny seeded RNG owned by one request. Seeded from
/// `SloConfig::seed ^ tx_id`, so a request draws the same jitter sequence
/// no matter which worker serves it or in what order.
#[derive(Debug, Clone)]
pub struct ReqRng {
    state: u64,
}

impl ReqRng {
    /// Seed the stream.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.state)
    }
}

/// Bounded retry with decorrelated-jitter backoff (the AWS architecture
/// blog's "decorrelated jitter": each pause is uniform in
/// `[base, 3 * previous]`, clamped to `cap`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed per logical fetch (attempt 0 is not a retry).
    pub max_retries: u32,
    /// Lower bound of every backoff pause, and the first pause's seed.
    pub base: Duration,
    /// Upper clamp on any single pause.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            base: Duration::from_micros(100),
            cap: Duration::from_millis(1),
        }
    }
}

impl RetryPolicy {
    /// Next backoff pause given the previous one, with jitter drawn from
    /// the request's seeded RNG.
    pub fn backoff(&self, prev: Duration, rng: &mut ReqRng) -> Duration {
        let lo = self.base.as_nanos() as u64;
        let hi = (prev.as_nanos() as u64).saturating_mul(3).max(lo + 1);
        let pick = lo + rng.next_u64() % (hi - lo);
        Duration::from_nanos(pick).min(self.cap)
    }
}

/// Hedged-read policy: when the primary read has absorbed `after` of
/// injected latency without returning, abandon it and race a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgePolicy {
    /// Latency threshold that triggers the hedge (pick a high quantile of
    /// the observed fetch latency, e.g. p99).
    pub after: Duration,
}

/// Per-server SLO configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloConfig {
    /// Simulated-time budget per request; `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Retry policy for transient storage errors.
    pub retry: RetryPolicy,
    /// Hedge policy; `None` (or a single-replica table) disables hedging.
    pub hedge: Option<HedgePolicy>,
    /// Seed mixed with the transaction id for per-request jitter.
    pub seed: u64,
}

/// One request's deadline budget, charged in **simulated** time only
/// (injected read latency and backoff pauses), so deadline outcomes are a
/// pure function of the fault plan — never of scheduler timing.
#[derive(Debug, Clone)]
pub struct Deadline {
    budget: Option<Duration>,
    charged: Duration,
}

impl Deadline {
    /// A fresh budget (`None` = unlimited).
    pub fn new(budget: Option<Duration>) -> Self {
        Self {
            budget,
            charged: Duration::ZERO,
        }
    }

    /// The configured budget.
    pub fn budget(&self) -> Option<Duration> {
        self.budget
    }

    /// Simulated time consumed so far.
    pub fn charged(&self) -> Duration {
        self.charged
    }

    /// Consume part of the budget.
    pub fn charge(&mut self, d: Duration) {
        self.charged += d;
    }

    /// True once the charged time has reached the budget.
    pub fn exceeded(&self) -> bool {
        self.budget.is_some_and(|b| self.charged >= b)
    }

    /// Budget left (`None` = unlimited).
    pub fn remaining(&self) -> Option<Duration> {
        self.budget.map(|b| b.saturating_sub(self.charged))
    }

    /// One retry pause, the step the read and the write retry loops share:
    /// draw the next decorrelated-jitter backoff (which becomes `prev`),
    /// cap it at the remaining budget — an uncapped pause could charge the
    /// deadline far past its budget before the next attempt even runs —
    /// then charge it and sleep it.
    pub(crate) fn back_off(&mut self, retry: &RetryPolicy, prev: &mut Duration, rng: &mut ReqRng) {
        *prev = retry.backoff(*prev, rng);
        let pause = self.remaining().map_or(*prev, |left| left.min(*prev));
        self.charge(pause);
        std::thread::sleep(pause);
    }
}

titant_alihbase::counter_set! {
    /// Point-in-time copy of the resilience counters a
    /// [`crate::ModelServer`] accumulates.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct ResilienceSnapshot {
        /// Transient-fault retries performed.
        pub retried: u64,
        /// Hedged reads issued.
        pub hedged: u64,
        /// Replica failovers performed.
        pub failovers: u64,
        /// Requests that exhausted their deadline budget.
        pub deadline_exceeded: u64,
        /// Requests shed at the queue.
        pub shed: u64,
        /// Ingest write retries performed against write faults.
        pub write_retried: u64,
        /// Ingest calls whose write retries were exhausted unacknowledged.
        pub write_retries_exhausted: u64,
    }
    /// The resilience counters the serving and ingest paths bump.
    pub(crate) struct LiveResilience;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_charges_simulated_time_only() {
        let mut d = Deadline::new(Some(Duration::from_millis(1)));
        assert!(!d.exceeded());
        assert_eq!(d.remaining(), Some(Duration::from_millis(1)));
        d.charge(Duration::from_micros(600));
        assert!(!d.exceeded());
        assert_eq!(d.remaining(), Some(Duration::from_micros(400)));
        d.charge(Duration::from_micros(400));
        assert!(d.exceeded());
        assert_eq!(d.remaining(), Some(Duration::ZERO));

        let mut unlimited = Deadline::new(None);
        unlimited.charge(Duration::from_secs(3600));
        assert!(!unlimited.exceeded());
        assert_eq!(unlimited.remaining(), None);
    }

    #[test]
    fn backoff_is_bounded_and_seed_deterministic() {
        let policy = RetryPolicy::default();
        let run = |seed: u64| -> Vec<Duration> {
            let mut rng = ReqRng::new(seed);
            let mut prev = policy.base;
            (0..16)
                .map(|_| {
                    prev = policy.backoff(prev, &mut rng);
                    prev
                })
                .collect()
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed must yield the same pauses");
        assert_ne!(a, run(43), "different seeds should decorrelate");
        for pause in &a {
            assert!(*pause >= policy.base && *pause <= policy.cap, "{pause:?}");
        }
    }

    #[test]
    fn resilience_snapshot_deltas() {
        let c = LiveResilience::default();
        c.retried.add(2);
        c.hedged.add(1);
        let before = c.snapshot();
        c.failovers.add(1);
        c.deadline_exceeded.add(1);
        c.shed.add(1);
        c.write_retried.add(2);
        c.write_retries_exhausted.add(1);
        let delta = c.snapshot().since(&before);
        assert_eq!(
            delta,
            ResilienceSnapshot {
                retried: 0,
                hedged: 0,
                failovers: 1,
                deadline_exceeded: 1,
                shed: 1,
                write_retried: 2,
                write_retries_exhausted: 1,
            }
        );
    }
}
