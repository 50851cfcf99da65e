//! The sliding-window velocity aggregator and its brute-force oracle.
//!
//! State is per user, per window: a ring buffer of per-tick partial
//! aggregates plus running totals. Observing an event touches one slot
//! per window; advancing the clock subtracts the slot that leaves each
//! window and reuses it for the tick that enters. Closing a tick visits
//! only the users whose windows can have changed — those observed in it,
//! and those a slot just left — found through a history ring of each
//! recent tick's distinct payers: O(windows) per event and O(touched
//! users × windows) per tick, independent of window length and of how
//! many users hold live state.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use titant_modelserver::{FeatureDelta, IngestOptions, IngestReport, ModelServer, ServeError};

/// Feature slots emitted per window, in order: txn count, amount sum
/// (cents), distinct counterparties.
pub const STATS_PER_WINDOW: usize = 3;

/// Configuration of the velocity windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VelocityConfig {
    /// Window lengths in ticks, e.g. `[1, 60, 1440]` for ~1m/1h/24h under
    /// a one-minute tick. Each must be at least 1.
    pub windows: Vec<u32>,
    /// Per-tick bound on recorded distinct payees (first observed wins).
    /// Up to this bound the distinct count is exact; the brute-force
    /// oracle applies the identical rule.
    pub max_counterparties: usize,
}

impl Default for VelocityConfig {
    fn default() -> Self {
        Self {
            windows: vec![1, 60, 1440],
            max_counterparties: 64,
        }
    }
}

impl VelocityConfig {
    /// Velocity slots per user this config produces — the `velocity_width`
    /// to build the serving layout with.
    pub fn width(&self) -> usize {
        STATS_PER_WINDOW * self.windows.len()
    }
}

/// One transaction on the stream, stamped with the logical tick it
/// arrived in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnEvent {
    /// Logical tick of arrival (the aggregator's clock, not wall time).
    pub tick: u64,
    /// Transferor — the user whose outgoing velocity this event feeds.
    pub payer: u64,
    /// Transferee — counted toward the payer's distinct counterparties.
    pub payee: u64,
    /// Transfer amount in integer cents. Integer so the running window
    /// sums are exact under any add/subtract order; converted to `f32`
    /// only at emission.
    pub amount_cents: u64,
}

/// Monotonic counters the aggregator accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Events accepted into the current tick.
    pub observed: u64,
    /// Events rejected for carrying a tick already closed (backfill).
    pub stale_rejected: u64,
    /// Events rejected for carrying a tick not yet open.
    pub future_rejected: u64,
    /// Ticks closed by [`VelocityAggregator::advance`].
    pub ticks_advanced: u64,
    /// Per-slot updates emitted across all deltas.
    pub slots_emitted: u64,
}

/// Per-tick partial aggregate: one ring slot.
#[derive(Debug, Clone, Default)]
struct Slot {
    count: u64,
    amount: u64,
    /// Distinct payees first observed in this tick, in observation order,
    /// capped at `max_counterparties`.
    payees: Vec<u64>,
}

/// One window's ring of per-tick slots plus running totals.
#[derive(Debug, Clone)]
struct Ring {
    slots: Vec<Slot>,
    count: u64,
    amount: u64,
    /// payee -> number of live slots that recorded it. `len()` is the
    /// window's distinct-counterparty count.
    distinct: BTreeMap<u64, u32>,
}

impl Ring {
    fn new(window: u32) -> Self {
        Self {
            slots: (0..window).map(|_| Slot::default()).collect(),
            count: 0,
            amount: 0,
            distinct: BTreeMap::new(),
        }
    }

    /// The slot `tick` maps to.
    fn index(&self, tick: u64) -> usize {
        (tick % self.slots.len() as u64) as usize
    }

    fn observe(&mut self, tick: u64, payee: u64, amount_cents: u64, cap: usize) {
        let idx = self.index(tick);
        let slot = &mut self.slots[idx];
        slot.count += 1;
        slot.amount += amount_cents;
        self.count += 1;
        self.amount += amount_cents;
        if !slot.payees.contains(&payee) && slot.payees.len() < cap {
            slot.payees.push(payee);
            *self.distinct.entry(payee).or_insert(0) += 1;
        }
    }

    /// Subtract and clear the slot `tick` maps to — called when `tick`
    /// enters the window and its previous occupant (`tick - window`)
    /// leaves.
    fn evict_for(&mut self, tick: u64) {
        let idx = self.index(tick);
        let slot = &mut self.slots[idx];
        self.count -= slot.count;
        self.amount -= slot.amount;
        for payee in slot.payees.drain(..) {
            if let Some(n) = self.distinct.get_mut(&payee) {
                *n -= 1;
                if *n == 0 {
                    self.distinct.remove(&payee);
                }
            }
        }
        slot.count = 0;
        slot.amount = 0;
    }

    fn is_empty(&self) -> bool {
        self.count == 0 && self.distinct.is_empty()
    }
}

/// Deterministic per-user sliding-window velocity aggregator.
///
/// Drive it with [`Self::observe`] for every event of the current tick,
/// then [`Self::advance`] (or [`Self::advance_and_ingest`]) to close the
/// tick: the windows ending at the closed tick are compared against what
/// was last emitted per user and only the changed slots become
/// [`FeatureDelta`]s. Users are diffed in ascending id order, so the
/// emitted sequence is a pure function of the event sequence.
#[derive(Debug)]
pub struct VelocityAggregator {
    config: VelocityConfig,
    tick: u64,
    /// Live window state per user; a user with every window empty is
    /// dropped (after their zeroing delta has been emitted). Like
    /// `last_emitted`, only ever looked up by id, never iterated: the
    /// emitted order comes from the sorted candidate list.
    users: HashMap<u64, Vec<Ring>>,
    /// The velocity vector last flushed per user; absent = all zeros.
    last_emitted: HashMap<u64, Vec<f32>>,
    /// Distinct payers observed in the open tick, in first-observed order.
    observed: Vec<u64>,
    /// Distinct payers of each of the last `max(windows)` closed ticks:
    /// closed tick `t` at index `t % max(windows)`. Closing tick `T` moves
    /// ring `w`'s window off tick `T + 1 - w`, so its payers are exactly
    /// the users that slot eviction touches.
    history: Vec<Vec<u64>>,
    stats: StreamStats,
}

impl VelocityAggregator {
    /// A fresh aggregator at tick 0.
    ///
    /// # Panics
    /// Panics when `windows` is empty, contains a zero, or
    /// `max_counterparties` is zero.
    pub fn new(config: VelocityConfig) -> Self {
        assert!(!config.windows.is_empty(), "need at least one window");
        assert!(
            config.windows.iter().all(|&w| w > 0),
            "window lengths must be at least 1 tick"
        );
        assert!(config.max_counterparties > 0, "need a distinct bound >= 1");
        let longest = config.windows.iter().copied().max().unwrap_or(1);
        Self {
            config,
            tick: 0,
            users: HashMap::new(),
            last_emitted: HashMap::new(),
            observed: Vec::new(),
            history: vec![Vec::new(); longest as usize],
            stats: StreamStats::default(),
        }
    }

    /// The config this aggregator was built with.
    pub fn config(&self) -> &VelocityConfig {
        &self.config
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Users with live window state.
    pub fn live_users(&self) -> usize {
        self.users.len()
    }

    /// Feed one event of the **current** tick. Events stamped with a
    /// closed tick (backfill) or a not-yet-open tick are rejected and
    /// counted — the window contract is "exactly the events observed
    /// while the tick was open", which is what makes replays and the
    /// brute-force oracle bit-identical.
    pub fn observe(&mut self, event: &TxnEvent) -> bool {
        if event.tick < self.tick {
            self.stats.stale_rejected += 1;
            return false;
        }
        if event.tick > self.tick {
            self.stats.future_rejected += 1;
            return false;
        }
        let rings = self
            .users
            .entry(event.payer)
            .or_insert_with(|| self.config.windows.iter().map(|&w| Ring::new(w)).collect());
        // Every ring's slot for the open tick was cleared when the tick
        // opened, so an empty one means this is the payer's first event.
        if rings[0].slots[rings[0].index(event.tick)].count == 0 {
            self.observed.push(event.payer);
        }
        for ring in rings.iter_mut() {
            ring.observe(
                event.tick,
                event.payee,
                event.amount_cents,
                self.config.max_counterparties,
            );
        }
        self.stats.observed += 1;
        true
    }

    /// The velocity vector for `user` over the windows ending at the
    /// current tick (what [`Self::advance`] would flush for them now).
    pub fn features_of(&self, user: u64) -> Vec<f32> {
        let mut out = vec![0.0; self.config.width()];
        if let Some(rings) = self.users.get(&user) {
            Self::vector_into(rings, &mut out);
        }
        out
    }

    /// The velocity vector last flushed for `user` (all zeros when the
    /// user has never been flushed, or was last flushed back to zero).
    pub fn emitted_of(&self, user: u64) -> Vec<f32> {
        match self.last_emitted.get(&user) {
            Some(v) => v.clone(),
            None => vec![0.0; self.config.width()],
        }
    }

    /// Overwrite `out` with the velocity vector of `rings`.
    fn vector_into(rings: &[Ring], out: &mut Vec<f32>) {
        out.clear();
        for ring in rings {
            out.extend([
                ring.count as f32,
                ring.amount as f32,
                ring.distinct.len() as f32,
            ]);
        }
    }

    /// Compute the deltas closing the current tick would flush, without
    /// changing any state: per user, the changed `(slot, value)` pairs
    /// between the windows ending now and what was last emitted. Users
    /// whose activity fully expired get an explicit zeroing delta.
    ///
    /// Only two kinds of user can differ from what was last emitted: one
    /// observed in the open tick, and one whose slot for it the previous
    /// commit evicted — a payer of tick `T - w` for some window `w`. Every
    /// other user was diffed clean at the last flush and has not moved.
    fn pending_deltas(&self) -> Vec<FeatureDelta> {
        let mut users = self.observed.clone();
        for &w in &self.config.windows {
            if let Some(left) = self.tick.checked_sub(u64::from(w)) {
                users.extend_from_slice(&self.history[self.history_slot(left)]);
            }
        }
        users.sort_unstable();
        users.dedup();
        self.diff(&users)
    }

    /// Where closed tick `tick`'s payers live in `history`.
    fn history_slot(&self, tick: u64) -> usize {
        (tick % self.history.len() as u64) as usize
    }

    /// Diff `users`, in the order given, against what was last emitted.
    fn diff(&self, users: &[u64]) -> Vec<FeatureDelta> {
        let zeros = vec![0.0; self.config.width()];
        // Reused across users, so a delta allocates only its own slots.
        let mut current = Vec::with_capacity(zeros.len());
        let mut changed = Vec::with_capacity(zeros.len());
        let mut deltas = Vec::new();
        for &user in users {
            match self.users.get(&user) {
                Some(rings) => Self::vector_into(rings, &mut current),
                None => current.clone_from(&zeros),
            }
            let prev = self.last_emitted.get(&user).unwrap_or(&zeros);
            changed.extend(
                current
                    .iter()
                    .zip(prev)
                    .enumerate()
                    .filter(|(_, (c, p))| c.to_bits() != p.to_bits())
                    .map(|(i, (c, _))| (i, *c)),
            );
            if !changed.is_empty() {
                deltas.push(FeatureDelta {
                    user,
                    velocity: changed.to_vec(),
                    ..FeatureDelta::default()
                });
                changed.clear();
            }
        }
        deltas
    }

    /// Commit a flush: fold `deltas` into the last-emitted vectors, close
    /// the tick, evict the slots leaving each window, and drop users with
    /// no remaining state. Only the payers of tick `next - w` hold ring
    /// `w`'s slot for `next`, so only they are evicted and checked.
    fn commit(&mut self, deltas: &[FeatureDelta]) {
        for d in deltas {
            let mut emitted = match self.last_emitted.entry(d.user) {
                Entry::Occupied(e) => e,
                Entry::Vacant(e) => e.insert_entry(vec![0.0; self.config.width()]),
            };
            let v = emitted.get_mut();
            for &(i, value) in &d.velocity {
                v[i] = value;
            }
            if v.iter().all(|&x| x == 0.0) {
                emitted.remove();
            }
            self.stats.slots_emitted += d.velocity.len() as u64;
        }
        let slot = self.history_slot(self.tick);
        std::mem::swap(&mut self.history[slot], &mut self.observed);
        self.observed.clear();
        self.tick += 1;
        let next = self.tick;
        for (i, &w) in self.config.windows.iter().enumerate() {
            let Some(left) = next.checked_sub(u64::from(w)) else {
                continue;
            };
            for &user in &self.history[self.history_slot(left)] {
                // Vacant when an earlier ring's eviction dropped the user.
                if let Entry::Occupied(mut rings) = self.users.entry(user) {
                    rings.get_mut()[i].evict_for(next);
                    if rings.get().iter().all(Ring::is_empty) {
                        rings.remove();
                    }
                }
            }
        }
        self.stats.ticks_advanced += 1;
    }

    /// Close the current tick: emit the changed velocity slots per user
    /// and open the next tick. An empty tick (no events observed) still
    /// advances the windows, so stale activity keeps expiring.
    pub fn advance(&mut self) -> Vec<FeatureDelta> {
        let deltas = self.pending_deltas();
        self.commit(&deltas);
        deltas
    }

    /// [`Self::advance`], flushing the deltas through
    /// [`ModelServer::ingest_update_opts`] with the closing tick as the
    /// ingest tick — cache invalidation, write-fault retries, and crash
    /// recovery apply to streaming features unchanged. The ingest runs
    /// (and the table ticks) even when no slot changed.
    ///
    /// On an ingest error the aggregator does **not** advance: no delta
    /// has been acknowledged, so the caller can retry the same flush or
    /// tear down without silently losing a tick.
    pub fn advance_and_ingest(
        &mut self,
        server: &ModelServer,
        version: u64,
    ) -> Result<IngestReport, ServeError> {
        let deltas = self.pending_deltas();
        let report =
            server.ingest_update_opts(&deltas, version, IngestOptions { tick: self.tick })?;
        self.commit(&deltas);
        Ok(report)
    }
}

/// Brute-force oracle: recompute `user`'s velocity vector over the
/// windows ending at `as_of_tick` from the raw event log, applying the
/// same per-tick distinct-counterparty bound in the same first-observed
/// order. The `stream` gate checks this against
/// [`VelocityAggregator::features_of`] bit-for-bit at every cut.
pub fn brute_force_velocity(
    config: &VelocityConfig,
    events: &[TxnEvent],
    as_of_tick: u64,
    user: u64,
) -> Vec<f32> {
    let mut out = Vec::with_capacity(config.width());
    for &w in &config.windows {
        let lo = as_of_tick.saturating_sub(u64::from(w) - 1);
        let mut count = 0u64;
        let mut amount = 0u64;
        let mut per_tick: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for e in events {
            if e.payer != user || e.tick < lo || e.tick > as_of_tick {
                continue;
            }
            count += 1;
            amount += e.amount_cents;
            let recorded = per_tick.entry(e.tick).or_default();
            if !recorded.contains(&e.payee) && recorded.len() < config.max_counterparties {
                recorded.push(e.payee);
            }
        }
        let mut distinct: Vec<u64> = per_tick.into_values().flatten().collect();
        distinct.sort_unstable();
        distinct.dedup();
        out.push(count as f32);
        out.push(amount as f32);
        out.push(distinct.len() as f32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn cfg(windows: &[u32], cap: usize) -> VelocityConfig {
        VelocityConfig {
            windows: windows.to_vec(),
            max_counterparties: cap,
        }
    }

    fn ev(tick: u64, payer: u64, payee: u64, cents: u64) -> TxnEvent {
        TxnEvent {
            tick,
            payer,
            payee,
            amount_cents: cents,
        }
    }

    /// Apply a delta stream to per-user vectors — the "serving side" view
    /// a replayed delta log reconstructs.
    fn apply(deltas: &[FeatureDelta], view: &mut BTreeMap<u64, Vec<f32>>, width: usize) {
        for d in deltas {
            let v = view.entry(d.user).or_insert_with(|| vec![0.0; width]);
            for &(i, value) in &d.velocity {
                v[i] = value;
            }
        }
    }

    /// The advance before it visited only touched users: a diff over
    /// every user with live window state or a nonzero flushed vector.
    fn full_scan_deltas(agg: &VelocityAggregator) -> Vec<FeatureDelta> {
        let mut users: Vec<u64> = agg.users.keys().copied().collect();
        users.extend(agg.last_emitted.keys().copied());
        users.sort_unstable();
        users.dedup();
        agg.diff(&users)
    }

    /// Deltas with every value as its bit pattern, so equality is bitwise.
    fn bits(deltas: &[FeatureDelta]) -> Vec<(u64, Vec<(usize, u32)>)> {
        deltas
            .iter()
            .map(|d| {
                let slots = d.velocity.iter().map(|&(i, v)| (i, v.to_bits()));
                (d.user, slots.collect())
            })
            .collect()
    }

    #[test]
    fn counts_amounts_and_distinct_within_one_window() {
        let mut agg = VelocityAggregator::new(cfg(&[4], 8));
        agg.observe(&ev(0, 1, 10, 100));
        agg.observe(&ev(0, 1, 11, 250));
        agg.observe(&ev(0, 1, 10, 50));
        assert_eq!(agg.features_of(1), vec![3.0, 400.0, 2.0]);
        let deltas = agg.advance();
        assert_eq!(deltas.len(), 1);
        assert_eq!(
            deltas[0].velocity,
            vec![(0, 3.0), (1, 400.0), (2, 2.0)],
            "all three slots changed from zero"
        );
        assert_eq!(agg.emitted_of(1), vec![3.0, 400.0, 2.0]);
    }

    #[test]
    fn window_boundary_expiry_is_exact() {
        // Window of 2 ticks: activity at tick 0 must be visible at ticks
        // 0 and 1, gone at tick 2.
        let mut agg = VelocityAggregator::new(cfg(&[2], 8));
        agg.observe(&ev(0, 1, 10, 100));
        assert_eq!(agg.features_of(1), vec![1.0, 100.0, 1.0]);
        agg.advance();
        // Tick 1, empty: the tick-0 event is still inside the window.
        assert_eq!(agg.features_of(1), vec![1.0, 100.0, 1.0]);
        let deltas = agg.advance();
        assert!(deltas.is_empty(), "nothing changed at the tick-1 cut");
        // Tick 2: the event expired; the zeroing delta is emitted and the
        // user's state is dropped.
        assert_eq!(agg.features_of(1), vec![0.0, 0.0, 0.0]);
        let deltas = agg.advance();
        assert_eq!(deltas.len(), 1);
        assert_eq!(
            deltas[0].velocity,
            vec![(0, 0.0), (1, 0.0), (2, 0.0)],
            "expiry must be flushed, not just forgotten"
        );
        assert_eq!(agg.live_users(), 0);
        assert!(agg.advance().is_empty(), "fully quiesced");
    }

    #[test]
    fn backfill_and_future_events_are_rejected_and_counted() {
        let mut agg = VelocityAggregator::new(cfg(&[4], 8));
        agg.observe(&ev(0, 1, 10, 100));
        agg.advance();
        assert!(!agg.observe(&ev(0, 1, 11, 100)), "tick 0 already closed");
        assert!(!agg.observe(&ev(5, 1, 11, 100)), "tick 5 not open yet");
        assert!(agg.observe(&ev(1, 1, 11, 100)));
        let s = agg.stats();
        assert_eq!((s.observed, s.stale_rejected, s.future_rejected), (2, 1, 1));
        // The rejected events left no trace in any window.
        assert_eq!(
            agg.features_of(1),
            brute_force_velocity(&cfg(&[4], 8), &[ev(0, 1, 10, 100), ev(1, 1, 11, 100)], 1, 1)
        );
    }

    #[test]
    fn distinct_counterparties_are_bounded_first_observed_wins() {
        let c = cfg(&[4], 2);
        let mut agg = VelocityAggregator::new(c.clone());
        let events = [
            ev(0, 1, 10, 1),
            ev(0, 1, 11, 1),
            ev(0, 1, 12, 1), // over the bound: not recorded
            ev(0, 1, 10, 1), // repeat of a recorded payee
        ];
        for e in &events {
            agg.observe(e);
        }
        // Count and amount stay exact; distinct saturates at the bound.
        assert_eq!(agg.features_of(1), vec![4.0, 4.0, 2.0]);
        assert_eq!(agg.features_of(1), brute_force_velocity(&c, &events, 0, 1));
        // The bound is per tick: the next tick records fresh payees.
        agg.advance();
        agg.observe(&ev(1, 1, 12, 1));
        assert_eq!(agg.features_of(1), vec![5.0, 5.0, 3.0]);
    }

    #[test]
    fn multi_window_vectors_stack_in_config_order() {
        let c = cfg(&[1, 3], 8);
        let mut agg = VelocityAggregator::new(c.clone());
        let log = [ev(0, 7, 1, 10), ev(1, 7, 2, 20), ev(2, 7, 2, 30)];
        let mut cut = 0usize;
        for tick in 0..3u64 {
            while cut < log.len() && log[cut].tick == tick {
                agg.observe(&log[cut]);
                cut += 1;
            }
            assert_eq!(
                agg.features_of(7),
                brute_force_velocity(&c, &log[..cut], tick, 7),
                "cut at tick {tick}"
            );
            agg.advance();
        }
        // At the tick-2 cut: 1-tick window sees one event, 3-tick window
        // all three with two distinct payees.
        assert_eq!(
            brute_force_velocity(&c, &log, 2, 7),
            vec![1.0, 30.0, 1.0, 3.0, 60.0, 2.0]
        );
    }

    #[test]
    fn replayed_deltas_reconstruct_the_features_at_every_cut() {
        let c = cfg(&[2, 4], 4);
        let mut agg = VelocityAggregator::new(c.clone());
        let mut view: BTreeMap<u64, Vec<f32>> = BTreeMap::new();
        let mut log: Vec<TxnEvent> = Vec::new();
        for tick in 0..12u64 {
            // A deterministic, slightly bursty pattern over 3 users.
            for j in 0..(tick % 4) {
                let e = ev(tick, tick % 3, 10 + j, 100 * (j + 1));
                agg.observe(&e);
                log.push(e);
            }
            let expected: Vec<(u64, Vec<f32>)> = (0..3)
                .map(|u| (u, brute_force_velocity(&c, &log, tick, u)))
                .collect();
            let deltas = agg.advance();
            apply(&deltas, &mut view, c.width());
            for (u, want) in expected {
                let zeros = vec![0.0; c.width()];
                let got = view.get(&u).unwrap_or(&zeros);
                assert_eq!(got, &want, "user {u} at cut {tick}");
            }
        }
    }

    #[test]
    fn replays_are_bit_identical() {
        let run = || {
            let mut agg = VelocityAggregator::new(cfg(&[1, 4], 3));
            let mut emitted = Vec::new();
            for tick in 0..16u64 {
                for j in 0..(tick * 7 % 5) {
                    agg.observe(&ev(tick, (tick + j) % 4, j % 6, 10 + j));
                }
                emitted.push(agg.advance());
            }
            (emitted, agg.stats())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    proptest! {
        /// The aggregator equals the brute-force per-window recompute at
        /// every cut, across random tick streams with empty ticks, window
        /// boundaries, and a tight distinct bound.
        #[test]
        fn matches_brute_force_on_random_streams(
            windows in proptest::collection::vec(1u32..6, 1..4),
            cap in 1usize..4,
            // (payer, payee, amount, events-this-tick gap) stream
            raw in proptest::collection::vec((0u64..4, 0u64..6, 1u64..500, 0u8..4), 0..80),
        ) {
            let c = cfg(&windows, cap);
            let mut agg = VelocityAggregator::new(c.clone());
            let mut log: Vec<TxnEvent> = Vec::new();
            let mut tick = 0u64;
            for (payer, payee, cents, gap) in raw {
                // Advance 0..4 ticks first: gaps produce empty ticks and
                // boundary expiries mid-stream.
                for _ in 0..gap {
                    agg.advance();
                    tick += 1;
                }
                let e = ev(tick, payer, payee, cents);
                agg.observe(&e);
                log.push(e);
                for u in 0..4u64 {
                    prop_assert_eq!(
                        agg.features_of(u),
                        brute_force_velocity(&c, &log, tick, u)
                    );
                }
            }
        }

        /// The touched-users advance equals a diff over every user with
        /// live or flushed state, in order and bits, before every advance
        /// and on a repeated call; after every commit no all-empty user
        /// remains and the live count is the number of payers still inside
        /// the longest window. Window sets: one tick, a repeated window,
        /// one longer than the stream, and random ones.
        #[test]
        fn touched_users_advance_equals_a_full_scan(
            set in 0usize..4,
            random in proptest::collection::vec(1u32..6, 1..4),
            cap in 1usize..4,
            raw in proptest::collection::vec((0u64..5, 0u64..6, 1u64..500, 0u8..4), 0..80),
        ) {
            let windows = [vec![1], vec![2, 2], vec![1_000], random][set].clone();
            let longest = u64::from(*windows.iter().max().unwrap());
            let mut agg = VelocityAggregator::new(cfg(&windows, cap));
            let mut log: Vec<TxnEvent> = Vec::new();
            let mut tick = 0u64;
            // One trailing gap drains the short windows back to empty.
            let tail = (0, 0, 1, 7u8);
            for (payer, payee, cents, gap) in raw.into_iter().chain([tail]) {
                for _ in 0..gap {
                    let want = bits(&full_scan_deltas(&agg));
                    prop_assert_eq!(bits(&agg.pending_deltas()), want.clone());
                    prop_assert_eq!(bits(&agg.pending_deltas()), want.clone());
                    prop_assert_eq!(bits(&agg.advance()), want);
                    tick += 1;
                    prop_assert!(agg.users.values().all(|r| !r.iter().all(Ring::is_empty)));
                    let live: BTreeSet<u64> = log
                        .iter()
                        .filter(|e| e.tick + longest > tick)
                        .map(|e| e.payer)
                        .collect();
                    prop_assert_eq!(agg.live_users(), live.len());
                }
                let e = ev(tick, payer, payee, cents);
                agg.observe(&e);
                log.push(e);
            }
        }

        /// Replaying the emitted delta log always reconstructs the exact
        /// window vectors, including zeroing on expiry.
        #[test]
        fn delta_log_is_a_faithful_projection(
            raw in proptest::collection::vec((0u64..3, 0u64..5, 1u64..100, 0u8..3), 0..60),
        ) {
            let c = cfg(&[2, 3], 2);
            let mut agg = VelocityAggregator::new(c.clone());
            let mut view: BTreeMap<u64, Vec<f32>> = BTreeMap::new();
            let mut tick = 0u64;
            for (payer, payee, cents, gap) in raw {
                for _ in 0..gap {
                    let pre = (0..3u64).map(|u| agg.features_of(u)).collect::<Vec<_>>();
                    let deltas = agg.advance();
                    apply(&deltas, &mut view, c.width());
                    tick += 1;
                    for (u, want) in (0..3u64).zip(pre) {
                        let zeros = vec![0.0; c.width()];
                        prop_assert_eq!(view.get(&u).unwrap_or(&zeros), &want);
                    }
                }
                agg.observe(&ev(tick, payer, payee, cents));
            }
        }
    }
}
