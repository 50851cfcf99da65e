//! Sharded, capacity-bounded row cache for decoded user features.
//!
//! Sits in front of the per-party feature fetch on the serving hot path,
//! keyed by user: the server only ever reads the latest version, so one
//! entry per user is the whole key space. Two rules keep it correct:
//!
//! * **Invalidation on version bumps** — the server clears the cache on
//!   every [`crate::ModelServer::deploy`] and callers that upload a new
//!   feature version must call
//!   [`crate::ModelServer::invalidate_row_cache`]; cached decodes are only
//!   valid for an immutable snapshot.
//! * **Never filled from degraded reads** — only clean, fully decoded rows
//!   are inserted. A torn/faulted read must stay an error (and degrade)
//!   every time it happens, not be papered over by a stale clean entry —
//!   and a torn decode must never be served to a later healthy request.
//!
//! Sharding bounds lock contention: each shard is an independent
//! `Mutex<HashMap + FIFO queue>`, and every operation on one user takes
//! exactly that user's shard lock.
//!
//! Payloads are `Arc<UserFeatures>`: a hit hands back a pointer clone, not
//! a deep copy of the embedding/velocity vectors, so the per-request cost
//! of a hot user is a refcount bump regardless of feature width. Entries
//! are immutable once inserted (first write wins), so sharing is safe.

use crate::feature_codec::UserFeatures;
use crate::slo::splitmix64;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Cache geometry.
#[derive(Debug, Clone)]
pub struct RowCacheConfig {
    /// Total cached rows across all shards (0 disables caching: every
    /// lookup misses and inserts are dropped).
    pub capacity: usize,
    /// Number of independent shards (clamped to at least 1).
    pub shards: usize,
}

impl Default for RowCacheConfig {
    fn default() -> Self {
        Self {
            capacity: 4096,
            shards: 8,
        }
    }
}

titant_alihbase::counter_set! {
    /// Counters for observability (relaxed atomics, monotone).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct RowCacheStats {
        /// Lookups that found the user cached.
        pub hits: u64,
        /// Lookups that did not.
        pub misses: u64,
        /// Entries inserted (first write wins; dropped duplicates excluded).
        pub inserted: u64,
        /// Entries evicted to make room (FIFO).
        pub evicted: u64,
        /// Per-user invalidations that dropped an entry, plus whole clears.
        pub invalidations: u64,
    }
    /// The counters the cache bumps.
    pub(crate) struct LiveRowCacheStats;
}

impl RowCacheStats {
    /// Hit ratio over all lookups so far (0.0 when none).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A cached decode. `None` caches a confirmed-absent user (a clean read of
/// an empty row), distinct from "not cached".
type Cached = Option<Arc<UserFeatures>>;

/// One shard. Every insert takes the next sequence number, stored both
/// with the entry and in `order`. Invalidating a user removes only its map
/// entry, which leaves its `order` record stale: eviction skips a record
/// whose sequence no longer matches the entry's, so it pops the oldest
/// live entry, and an invalidation is O(1) instead of a scan of `order`.
#[derive(Default)]
struct Shard {
    /// User -> (sequence of the insert that cached it, its decode).
    map: HashMap<u64, (u64, Cached)>,
    /// FIFO insertion order for eviction, stale records included.
    order: VecDeque<(u64, u64)>,
    /// Sequence number of the next insert.
    next_seq: u64,
}

/// Whether an `order` record still names a cached entry.
fn is_live(map: &HashMap<u64, (u64, Cached)>, (user, seq): (u64, u64)) -> bool {
    map.get(&user).is_some_and(|&(current, _)| current == seq)
}

/// The cache proper. Cheap to share behind the server's `Arc`.
pub struct RowCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_cap: usize,
    stats: LiveRowCacheStats,
}

impl RowCache {
    /// Build from a config.
    pub fn new(config: RowCacheConfig) -> Self {
        let shards = config.shards.max(1);
        // Round the per-shard budget up so any nonzero capacity caches at
        // least one row per shard; only capacity 0 disables the cache.
        let per_shard_cap = if config.capacity == 0 {
            0
        } else {
            config.capacity.div_ceil(shards)
        };
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_cap,
            stats: LiveRowCacheStats::default(),
        }
    }

    /// SplitMix64 maps user ids onto shards without clustering
    /// sequential ids.
    fn shard_of(&self, user: u64) -> usize {
        (splitmix64(user) % self.shards.len() as u64) as usize
    }

    /// Look up one user. Outer `None` = miss; inner `Option` is the cached
    /// decode (`None` = user confirmed absent).
    pub fn get(&self, user: u64) -> Option<Cached> {
        let shard = self.shards[self.shard_of(user)].lock();
        match shard.map.get(&user) {
            Some((_, cached)) => {
                self.stats.hits.add(1);
                Some(cached.clone())
            }
            None => {
                self.stats.misses.add(1);
                None
            }
        }
    }

    /// Insert a *clean* decode. First write wins: a concurrent duplicate
    /// insert is dropped, so cached contents never flap. Callers must not
    /// insert results of degraded (torn/faulted) reads.
    pub fn insert(&self, user: u64, features: Cached) {
        if self.per_shard_cap == 0 {
            return;
        }
        let mut shard = self.shards[self.shard_of(user)].lock();
        if shard.map.contains_key(&user) {
            return;
        }
        while shard.map.len() >= self.per_shard_cap {
            match shard.order.pop_front() {
                Some(oldest) if is_live(&shard.map, oldest) => {
                    shard.map.remove(&oldest.0);
                    self.stats.evicted.add(1);
                }
                Some(_stale) => {}
                None => break,
            }
        }
        let seq = shard.next_seq;
        shard.next_seq += 1;
        shard.map.insert(user, (seq, features));
        shard.order.push_back((user, seq));
        // Stale records only come from invalidations, so dropping them
        // once they outnumber the live ones costs O(1) per invalidation.
        if shard.order.len() > 2 * self.per_shard_cap {
            let Shard { map, order, .. } = &mut *shard;
            order.retain(|&record| is_live(map, record));
        }
        self.stats.inserted.add(1);
    }

    /// Drop one user's cached entry.
    ///
    /// This is the streaming-update path: a
    /// [`crate::ModelServer::ingest_update`] patches one user's row, so
    /// only that user's decode can be stale — the rest of the cache stays
    /// hot. Touches exactly one shard lock and costs O(1): the user's
    /// eviction-order record goes stale in place (see `Shard`). Returns
    /// how many entries were dropped (0 or 1).
    pub fn invalidate_user(&self, user: u64) -> usize {
        let mut shard = self.shards[self.shard_of(user)].lock();
        if shard.map.remove(&user).is_none() {
            return 0;
        }
        self.stats.invalidations.add(1);
        1
    }

    /// Drop every entry (deploy / feature-upload version bump).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            shard.map.clear();
            shard.order.clear();
        }
        self.stats.invalidations.add(1);
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> RowCacheStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn feats(x: f32) -> Option<Arc<UserFeatures>> {
        Some(Arc::new(UserFeatures {
            payer_side: vec![x],
            receiver_side: vec![x * 2.0],
            embedding: vec![x; 2],
            velocity: Vec::new(),
        }))
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = RowCache::new(RowCacheConfig::default());
        assert!(cache.get(7).is_none());
        cache.insert(7, feats(1.0));
        assert_eq!(cache.get(7), Some(feats(1.0)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn absent_user_is_cached_distinctly_from_miss() {
        let cache = RowCache::new(RowCacheConfig::default());
        cache.insert(9, None);
        assert_eq!(cache.get(9), Some(None));
    }

    #[test]
    fn capacity_is_bounded_fifo() {
        let cache = RowCache::new(RowCacheConfig {
            capacity: 4,
            shards: 1,
        });
        for user in 0..10u64 {
            cache.insert(user, feats(user as f32));
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().evicted, 6);
        // The newest entries survive.
        assert!(cache.get(9).is_some());
        assert!(cache.get(0).is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = RowCache::new(RowCacheConfig {
            capacity: 0,
            shards: 4,
        });
        cache.insert(1, feats(1.0));
        assert!(cache.get(1).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn first_insert_wins() {
        let cache = RowCache::new(RowCacheConfig::default());
        cache.insert(3, feats(1.0));
        cache.insert(3, feats(2.0));
        assert_eq!(cache.get(3), Some(feats(1.0)));
        assert_eq!(cache.stats().inserted, 1);
    }

    #[test]
    fn clear_invalidates_everything() {
        let cache = RowCache::new(RowCacheConfig::default());
        for user in 0..20u64 {
            cache.insert(user, feats(user as f32));
        }
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cache.get(5).is_none());
    }

    #[test]
    fn invalidate_user_drops_only_that_user() {
        let cache = RowCache::new(RowCacheConfig {
            capacity: 64,
            shards: 2,
        });
        cache.insert(7, feats(1.0));
        cache.insert(8, feats(3.0));
        assert_eq!(cache.invalidate_user(7), 1);
        assert!(cache.get(7).is_none());
        assert_eq!(cache.get(8), Some(feats(3.0)));
        assert_eq!(cache.stats().invalidations, 1);
        // Invalidating an uncached user is a counted-free no-op.
        assert_eq!(cache.invalidate_user(999), 0);
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn invalidate_user_leaves_no_ghost_keys_in_eviction_order() {
        let cache = RowCache::new(RowCacheConfig {
            capacity: 3,
            shards: 1,
        });
        cache.insert(1, feats(1.0));
        cache.insert(2, feats(2.0));
        cache.insert(3, feats(3.0));
        cache.invalidate_user(1);
        // Refill to capacity; the eviction loop must not burn pops on the
        // invalidated user's ghost key.
        cache.insert(4, feats(4.0));
        cache.insert(5, feats(5.0));
        assert_eq!(cache.len(), 3);
        // FIFO order without ghosts: 2 is the oldest survivor and must be
        // the one evicted by the insert of 5.
        assert!(cache.get(2).is_none());
        assert!(cache.get(3).is_some());
        assert!(cache.get(4).is_some());
        assert!(cache.get(5).is_some());
        assert_eq!(cache.stats().evicted, 1);
    }

    /// The cache as it was before invalidation became O(1): one FIFO
    /// queue of live users per shard, which `invalidate_user` scans. The
    /// model the O(1) cache must match.
    struct RetainCache {
        shards: Vec<(HashMap<u64, Cached>, VecDeque<u64>)>,
        per_shard_cap: usize,
        stats: RowCacheStats,
    }

    impl RetainCache {
        fn new(config: RowCacheConfig) -> Self {
            let shards = config.shards.max(1);
            let per_shard_cap = if config.capacity == 0 {
                0
            } else {
                config.capacity.div_ceil(shards)
            };
            Self {
                shards: (0..shards).map(|_| Default::default()).collect(),
                per_shard_cap,
                stats: RowCacheStats::default(),
            }
        }

        fn shard(&mut self, user: u64) -> &mut (HashMap<u64, Cached>, VecDeque<u64>) {
            let n = self.shards.len() as u64;
            &mut self.shards[(splitmix64(user) % n) as usize]
        }

        fn get(&mut self, user: u64) -> Option<Cached> {
            let cached = self.shard(user).0.get(&user).cloned();
            match cached {
                Some(_) => self.stats.hits += 1,
                None => self.stats.misses += 1,
            }
            cached
        }

        fn insert(&mut self, user: u64, features: Cached) {
            let cap = self.per_shard_cap;
            if cap == 0 || self.shard(user).0.contains_key(&user) {
                return;
            }
            let (map, order) = self.shard(user);
            let mut evicted = 0;
            while map.len() >= cap {
                match order.pop_front() {
                    Some(oldest) => {
                        map.remove(&oldest);
                        evicted += 1;
                    }
                    None => break,
                }
            }
            map.insert(user, features);
            order.push_back(user);
            self.stats.evicted += evicted;
            self.stats.inserted += 1;
        }

        fn invalidate_user(&mut self, user: u64) -> usize {
            let (map, order) = self.shard(user);
            if map.remove(&user).is_none() {
                return 0;
            }
            order.retain(|&u| u != user);
            self.stats.invalidations += 1;
            1
        }

        fn clear(&mut self) {
            for (map, order) in &mut self.shards {
                map.clear();
                order.clear();
            }
            self.stats.invalidations += 1;
        }
    }

    /// Each shard's live users in eviction order, with their decodes.
    fn fifo_contents(cache: &RowCache) -> Vec<Vec<(u64, Cached)>> {
        cache
            .shards
            .iter()
            .map(|shard| {
                let shard = shard.lock();
                shard
                    .order
                    .iter()
                    .filter(|&&record| is_live(&shard.map, record))
                    .map(|&(user, _)| (user, shard.map[&user].1.clone()))
                    .collect()
            })
            .collect()
    }

    fn model_contents(model: &RetainCache) -> Vec<Vec<(u64, Cached)>> {
        model
            .shards
            .iter()
            .map(|(map, order)| order.iter().map(|u| (*u, map[u].clone())).collect())
            .collect()
    }

    proptest! {
        /// Random insert/get/invalidate/clear sequences on tiny caches give
        /// the same answers, the same contents in the same eviction order,
        /// and the same five counters as the scanning model.
        #[test]
        fn o1_invalidation_matches_the_scanning_cache(
            capacity in 1usize..5,
            shards in 1usize..3,
            ops in prop::collection::vec((0u8..10, 0u64..8), 0..120),
        ) {
            let config = RowCacheConfig { capacity, shards };
            let cache = RowCache::new(config.clone());
            let mut model = RetainCache::new(config);
            for (step, &(op, user)) in ops.iter().enumerate() {
                match op {
                    0..=3 => {
                        let features = (op > 0).then(|| Arc::new(UserFeatures {
                            payer_side: vec![step as f32],
                            ..Default::default()
                        }));
                        cache.insert(user, features.clone());
                        model.insert(user, features);
                    }
                    4..=6 => prop_assert_eq!(cache.get(user), model.get(user)),
                    7 | 8 => prop_assert_eq!(cache.invalidate_user(user), model.invalidate_user(user)),
                    _ => {
                        cache.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(fifo_contents(&cache), model_contents(&model));
                prop_assert_eq!(cache.stats(), model.stats);
                for shard in &cache.shards {
                    prop_assert!(shard.lock().order.len() <= 2 * cache.per_shard_cap);
                }
            }
        }
    }
}
