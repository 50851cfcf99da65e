//! Skewed online traffic: Zipf-hot user popularity plus flash events.
//!
//! The serving benches need the arrival pattern the paper's Ali-HBase
//! tier actually faces: a huge user population where a small hot set
//! (celebrity merchants, promo participants) concentrates most reads and
//! streaming updates, punctuated by *flash events* — a promotion window
//! during which one user segment suddenly dominates. Real fraud-detection
//! streams show exactly this skewed, bursty shape.
//!
//! ## Zipf over blocks, uniform within
//!
//! Popularity is Zipf-distributed over contiguous *blocks* of user ids,
//! and uniform *within* the drawn block. The two-level shape is
//! deliberate: a region that splits at its median resident row halves the
//! traffic of a block-hot range, so dynamic region splitting can actually
//! disperse the hot spot. A per-user Zipf with one eternally hottest user
//! would park the whole head on one side of every possible split point —
//! no key-range sharding scheme can spread a single row.
//!
//! Every draw is a pure function of `(seed, event index)` via SplitMix64:
//! the same config replays the same traffic stream on any machine, any
//! thread count, any day — the determinism discipline all TitAnt benches
//! gate on.

/// SplitMix64: one multiply-xorshift round, the workspace's standard way
/// to turn a mixed key into uniform bits.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` keyed by `(seed, event, salt)`.
fn draw01(seed: u64, event: u64, salt: u64) -> f64 {
    let mut key = seed;
    key ^= event.wrapping_mul(0x8EBC_6AF0_9C88_C6E3);
    key ^= salt.wrapping_mul(0xA076_1D64_78BD_642F);
    (splitmix64(key) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A promotion burst: between two event indices, one block's popularity
/// weight is multiplied, shifting the whole distribution toward it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashEvent {
    /// Block whose weight is boosted.
    pub block: u64,
    /// First event index of the burst (inclusive).
    pub from_event: u64,
    /// Last event index of the burst (exclusive).
    pub to_event: u64,
    /// Multiplier applied to the block's Zipf weight during the burst.
    pub boost: f64,
}

/// Configuration for a [`TrafficGen`].
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Distinct users; ids are `0..n_users`.
    pub n_users: u64,
    /// Contiguous id blocks popularity is Zipf-distributed over. Block `b`
    /// holds ids `[b * n_users / n_blocks, (b + 1) * n_users / n_blocks)`.
    pub n_blocks: u64,
    /// Zipf exponent over block ranks (block 0 is rank 1, the hottest).
    /// Typical web-scale skew sits around 0.9–1.3.
    pub zipf_s: f64,
    /// Optional flash burst layered on the base distribution.
    pub flash: Option<FlashEvent>,
    /// Seed for the per-event draws.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self {
            n_users: 1 << 20,
            n_blocks: 64,
            zipf_s: 1.2,
            flash: None,
            seed: 0x7174_616e,
        }
    }
}

/// Deterministic skewed traffic stream: maps an event index to the user it
/// touches. Stateless between calls — `user_at(i)` never depends on which
/// other events were drawn, so workers can consume disjoint index ranges
/// of one logical stream in parallel and replays are exact.
#[derive(Debug, Clone)]
pub struct TrafficGen {
    config: TrafficConfig,
    /// Cumulative block weights for the base distribution (last = 1.0).
    base_cdf: Vec<f64>,
    /// Cumulative block weights with the flash boost applied.
    flash_cdf: Option<Vec<f64>>,
}

impl TrafficGen {
    /// Precompute the block CDFs for a config.
    ///
    /// # Panics
    /// Panics when `n_users` or `n_blocks` is zero, or when `n_blocks`
    /// exceeds `n_users` (a block must hold at least one id).
    pub fn new(config: TrafficConfig) -> Self {
        assert!(config.n_users > 0, "traffic needs users");
        assert!(
            config.n_blocks > 0 && config.n_blocks <= config.n_users,
            "need 1..=n_users blocks"
        );
        let weight = |b: u64, flash: Option<&FlashEvent>| -> f64 {
            let mut w = 1.0 / ((b + 1) as f64).powf(config.zipf_s);
            if let Some(f) = flash {
                if f.block == b {
                    w *= f.boost;
                }
            }
            w
        };
        let cdf = |flash: Option<&FlashEvent>| -> Vec<f64> {
            let mut acc = 0.0;
            let mut out: Vec<f64> = (0..config.n_blocks)
                .map(|b| {
                    acc += weight(b, flash);
                    acc
                })
                .collect();
            for w in &mut out {
                *w /= acc;
            }
            out
        };
        let base_cdf = cdf(None);
        let flash_cdf = config.flash.as_ref().map(|f| cdf(Some(f)));
        Self {
            config,
            base_cdf,
            flash_cdf,
        }
    }

    /// The config this generator was built from.
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }

    /// The id range `[start, end)` of one block — quantile boundaries that
    /// match `RegionedTable::with_user_splits` over a dense id space.
    fn block_range(&self, block: u64) -> (u64, u64) {
        let (n, parts) = (self.config.n_users, self.config.n_blocks);
        (block * n / parts, (block + 1) * n / parts)
    }

    /// The user event `i` touches: Zipf-draw a block (flash-adjusted when
    /// `i` falls inside the burst window), then a uniform id within it.
    pub fn user_at(&self, event: u64) -> u64 {
        let cdf = match (&self.flash_cdf, &self.config.flash) {
            (Some(cdf), Some(f)) if event >= f.from_event && event < f.to_event => cdf,
            _ => &self.base_cdf,
        };
        let r = draw01(self.config.seed, event, 0x1);
        let block = cdf.partition_point(|&c| c <= r) as u64;
        let (start, end) = self.block_range(block.min(self.config.n_blocks - 1));
        let within = draw01(self.config.seed, event, 0x2);
        start + ((end - start) as f64 * within) as u64
    }

    /// A (transferor, transferee) pair for event `i`: the transferor from
    /// the skewed distribution (hot senders dominate), the transferee
    /// uniform over the population, re-drawn once if the two collide.
    pub fn pair_at(&self, event: u64) -> (u64, u64) {
        let from = self.user_at(event);
        // Clamp the raw draw into range *before* the collision check: a
        // boundary draw clamped afterwards could land back on `from` and
        // leak a self-transfer past the re-draw.
        let raw = (draw01(self.config.seed, event, 0x3) * self.config.n_users as f64) as u64;
        let mut to = raw.min(self.config.n_users - 1);
        if to == from {
            to = (to + 1) % self.config.n_users;
        }
        (from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(gen: &TrafficGen, events: std::ops::Range<u64>) -> Vec<u64> {
        let mut by_block = vec![0u64; gen.config().n_blocks as usize];
        for i in events {
            let user = gen.user_at(i);
            let block = user * gen.config().n_blocks / gen.config().n_users;
            by_block[block as usize] += 1;
        }
        by_block
    }

    #[test]
    fn replays_are_bit_identical_and_seeds_differ() {
        let a = TrafficGen::new(TrafficConfig::default());
        let b = TrafficGen::new(TrafficConfig::default());
        let c = TrafficGen::new(TrafficConfig {
            seed: 999,
            ..Default::default()
        });
        let sa: Vec<u64> = (0..4_000).map(|i| a.user_at(i)).collect();
        let sb: Vec<u64> = (0..4_000).map(|i| b.user_at(i)).collect();
        let sc: Vec<u64> = (0..4_000).map(|i| c.user_at(i)).collect();
        assert_eq!(sa, sb, "same seed must replay identically");
        assert_ne!(sa, sc, "different seeds must differ");
        // Stateless addressing: evaluating out of order changes nothing.
        let rev: Vec<u64> = (0..4_000).rev().map(|i| a.user_at(i)).collect();
        assert_eq!(sa, rev.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn draws_stay_in_range() {
        let gen = TrafficGen::new(TrafficConfig {
            n_users: 1_000,
            n_blocks: 7, // deliberately not dividing n_users
            ..Default::default()
        });
        for i in 0..10_000 {
            assert!(gen.user_at(i) < 1_000, "event {i}");
            let (from, to) = gen.pair_at(i);
            assert!(from < 1_000 && to < 1_000 && from != to, "event {i}");
        }
    }

    #[test]
    fn pair_draws_never_self_transfer_across_seeds() {
        // Regression: the pre-fix order (collision re-draw, then clamp)
        // could clamp a boundary draw back onto `from`. Sweep seeds and
        // user-counts ragged enough to exercise the boundary.
        for seed in [0, 1, 7, 42, 0x7174_616e, u64::MAX] {
            for n_users in [2, 3, 5, 64, 1_000] {
                let gen = TrafficGen::new(TrafficConfig {
                    n_users,
                    n_blocks: n_users.min(7),
                    seed,
                    ..Default::default()
                });
                for i in 0..4_000 {
                    let (from, to) = gen.pair_at(i);
                    assert!(from < n_users && to < n_users, "seed {seed} event {i}");
                    assert_ne!(from, to, "self-transfer at seed {seed} event {i}");
                }
            }
        }
    }

    #[test]
    fn pair_fix_preserves_previously_valid_draws() {
        // Every draw the old order already produced as a valid pair must be
        // unchanged — the fix only rewrites the broken boundary case.
        let old_order = |gen: &TrafficGen, event: u64| -> (u64, u64) {
            let n = gen.config().n_users;
            let from = gen.user_at(event);
            let mut to = (draw01(gen.config().seed, event, 0x3) * n as f64) as u64;
            if to == from {
                to = (to + 1) % n;
            }
            (from, to.min(n - 1))
        };
        for seed in [3, 11, 0x7174_616e] {
            let gen = TrafficGen::new(TrafficConfig {
                n_users: 257,
                n_blocks: 7,
                seed,
                ..Default::default()
            });
            for i in 0..8_000 {
                let old = old_order(&gen, i);
                if old.0 != old.1 {
                    assert_eq!(gen.pair_at(i), old, "seed {seed} event {i}");
                }
            }
        }
    }

    #[test]
    fn head_blocks_dominate_and_mass_spreads_within_a_block() {
        let gen = TrafficGen::new(TrafficConfig {
            n_users: 64_000,
            n_blocks: 64,
            zipf_s: 1.2,
            flash: None,
            seed: 7,
        });
        let by_block = counts(&gen, 0..40_000);
        let hottest = by_block[0];
        let median = {
            let mut sorted = by_block.clone();
            sorted.sort_unstable();
            sorted[32]
        };
        assert!(
            hottest > 8 * median.max(1),
            "Zipf head too flat: hottest {hottest} vs median {median}"
        );
        // Within the hottest block, both halves carry substantial traffic —
        // the property that makes a median-key region split actually move
        // load. A per-user hot spot would fail this.
        let (start, end) = gen.block_range(0);
        let mid = (start + end) / 2;
        let (mut lo, mut hi) = (0u64, 0u64);
        for i in 0..40_000 {
            let u = gen.user_at(i);
            if u >= start && u < end {
                if u < mid {
                    lo += 1;
                } else {
                    hi += 1;
                }
            }
        }
        assert!(
            lo * 3 > hi && hi * 3 > lo,
            "hot-block halves unbalanced: {lo} vs {hi}"
        );
    }

    #[test]
    fn flash_event_shifts_mass_only_inside_its_window() {
        let flash = FlashEvent {
            block: 40,
            from_event: 10_000,
            to_event: 20_000,
            boost: 1_000.0,
        };
        let burst = TrafficGen::new(TrafficConfig {
            n_users: 64_000,
            n_blocks: 64,
            flash: Some(flash),
            seed: 11,
            ..Default::default()
        });
        let calm = TrafficGen::new(TrafficConfig {
            n_users: 64_000,
            n_blocks: 64,
            flash: None,
            seed: 11,
            ..Default::default()
        });
        // Outside the window the streams are bit-identical: a flash event
        // perturbs nothing it does not cover.
        for i in (0..10_000).chain(20_000..30_000) {
            assert_eq!(burst.user_at(i), calm.user_at(i), "event {i}");
        }
        // Inside, the boosted block dominates the stream.
        let during = counts(&burst, 10_000..20_000);
        let share = during[40] as f64 / 10_000.0;
        assert!(share > 0.5, "flash block share only {share}");
        // And the same window without the boost barely touches it.
        let without = counts(&calm, 10_000..20_000);
        assert!(without[40] < during[40] / 20);
    }
}
