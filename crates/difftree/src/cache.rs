//! A bounded, counter-instrumented memo cache shared by the long-lived caches of the
//! workspace (the action index here, the cost layer's context/plan caches).
//!
//! The previous scheme — grow an `FxHashMap` to a trim threshold, then drop *everything* —
//! is fine for one-shot searches but wrong for a serving process: a multi-hour `mctsui
//! serve` run would periodically throw away its entire working set (including the summaries
//! of difftrees that every live session still references) and pay a full cold rebuild.
//!
//! [`GenerationCache`] replaces it with **generational second-chance eviction**: entries are
//! inserted into a *young* generation; when the young generation reaches half the capacity
//! it is demoted wholesale to *old* and the previous old generation is dropped. An entry
//! that is looked up while in the old generation is promoted back to young — its second
//! chance — so anything the live working set touches at least once per generation survives
//! rotation indefinitely, while one-shot entries age out after two rotations. The scheme is
//! O(1) per operation (no LRU lists, no per-entry clocks) and keeps the total entry count
//! at or below the configured capacity.
//!
//! Hits, misses, insertions and evictions are counted with relaxed atomics and surfaced as
//! [`CacheCounters`] so a serving process can report cache health through its stats
//! endpoint.
//!
//! Keys are `u64` structural fingerprints — all workspace memo caches key by fingerprint —
//! and values are cheap clones (`Arc` handles everywhere in practice).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};

/// A point-in-time snapshot of one cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheCounters {
    /// Lookups served from the cache (young or old generation).
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted (first-insert-wins; re-inserting an existing key does not count).
    pub insertions: u64,
    /// Entries dropped by generation rotation without having been promoted.
    pub evictions: u64,
    /// Entries currently resident (young + old).
    pub entries: u64,
}

impl CacheCounters {
    /// Hit ratio in `[0, 1]` (`0` when the cache was never queried).
    pub fn hit_ratio(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Sum two snapshots field-wise (for aggregating several caches into one report).
    pub fn merged(&self, other: &CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            insertions: self.insertions + other.insertions,
            evictions: self.evictions + other.evictions,
            entries: self.entries + other.entries,
        }
    }
}

/// The two resident generations. Entries live in `young` right after insertion or
/// promotion; a rotation moves the whole young map to `old` and drops the previous old map.
struct Generations<V> {
    young: FxHashMap<u64, V>,
    old: FxHashMap<u64, V>,
}

/// Default shard count of [`GenerationCache::new`] — enough to keep a serving worker pool
/// off each other's lock without fragmenting small caches (the constructor clamps shard
/// counts so tiny capacities degrade to fewer shards).
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// One lock's worth of a sharded [`GenerationCache`]: its own generations and its own
/// counters, so concurrent workers touching different shards never contend — on the lock
/// *or* on counter cache lines.
struct Shard<V> {
    inner: Mutex<Generations<V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Clone> Shard<V> {
    fn new() -> Self {
        Self {
            inner: Mutex::new(Generations {
                young: FxHashMap::default(),
                old: FxHashMap::default(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn get(&self, capacity: usize, key: u64) -> Option<V> {
        let mut guard = self.inner.lock().expect("generation cache poisoned");
        if let Some(v) = guard.young.get(&key) {
            let v = v.clone();
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(v);
        }
        if let Some(v) = guard.old.remove(&key) {
            // Second chance: the entry is in the live working set, keep it young.
            Self::rotate_if_full(capacity, &mut guard, &self.evictions);
            guard.young.insert(key, v.clone());
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(v);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    fn insert(&self, capacity: usize, key: u64, value: V) -> V {
        let mut guard = self.inner.lock().expect("generation cache poisoned");
        if let Some(v) = guard.young.get(&key) {
            return v.clone();
        }
        if let Some(v) = guard.old.remove(&key) {
            Self::rotate_if_full(capacity, &mut guard, &self.evictions);
            guard.young.insert(key, v.clone());
            return v;
        }
        Self::rotate_if_full(capacity, &mut guard, &self.evictions);
        guard.young.insert(key, value.clone());
        self.insertions.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Demote young to old (dropping the previous old generation) once young holds half the
    /// shard capacity, so `young + old <= capacity` per shard at all times.
    fn rotate_if_full(capacity: usize, guard: &mut Generations<V>, evictions: &AtomicU64) {
        if guard.young.len() >= capacity / 2 {
            let dropped = std::mem::replace(&mut guard.old, std::mem::take(&mut guard.young));
            evictions.fetch_add(dropped.len() as u64, Ordering::Relaxed);
        }
    }

    fn len(&self) -> usize {
        let guard = self.inner.lock().expect("generation cache poisoned");
        guard.young.len() + guard.old.len()
    }

    fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }
}

/// A bounded fingerprint-keyed memo with generational second-chance eviction and
/// hit/miss/eviction counters, **sharded by key** so the hot shared caches of a serving
/// process (rule bindings, contexts, plans) don't serialize every worker on one mutex.
/// See the module docs for the eviction scheme.
///
/// Each shard owns an independent generation pair bounded at `capacity / shards` entries,
/// so the configured total capacity still holds. Operations take one short per-shard
/// mutex; callers must follow the workspace lock discipline of never computing a value
/// while holding a reference into the cache (get, compute outside, insert — first insert
/// wins).
pub struct GenerationCache<V> {
    /// Maximum resident entries summed over all shards.
    capacity: usize,
    /// Per-shard entry bound (`>= 2` so both generations can hold something).
    shard_capacity: usize,
    shards: Vec<Shard<V>>,
}

impl<V: Clone> GenerationCache<V> {
    /// A cache holding at most `capacity` entries across [`DEFAULT_CACHE_SHARDS`] shards
    /// (fewer for tiny capacities — see [`GenerationCache::with_shards`]).
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, DEFAULT_CACHE_SHARDS)
    }

    /// A cache of at most `capacity` total entries split over `shards` independent locks.
    /// The shard count is clamped to `[1, capacity / 2]` so every shard keeps the minimum
    /// two-entry generation pair, preserving the total capacity bound.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(2);
        let shards = shards.clamp(1, (capacity / 2).max(1));
        let shard_capacity = (capacity / shards).max(2);
        Self {
            capacity,
            shard_capacity,
            shards: (0..shards).map(|_| Shard::new()).collect(),
        }
    }

    /// The configured total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The shard owning `key`. Keys are already structural fingerprints, but a
    /// multiplicative mix keeps sequential or low-entropy keys from piling onto one shard.
    #[inline]
    fn shard_of(&self, key: u64) -> &Shard<V> {
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(mixed as usize) % self.shards.len()]
    }

    /// Look up `key`, promoting an old-generation hit back into the young generation.
    pub fn get(&self, key: u64) -> Option<V> {
        self.shard_of(key).get(self.shard_capacity, key)
    }

    /// Insert `value` under `key` unless an entry already exists (first insert wins under
    /// concurrency, matching the workspace's compute-outside-the-lock discipline). Returns
    /// the resident value.
    pub fn insert(&self, key: u64, value: V) -> V {
        self.shard_of(key).insert(self.shard_capacity, key, value)
    }

    /// Number of resident entries summed over all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    /// Whether the cache is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the counters (summed over shards) plus the current entry count.
    pub fn counters(&self) -> CacheCounters {
        self.shards
            .iter()
            .map(Shard::counters)
            .fold(CacheCounters::default(), |acc, c| acc.merged(&c))
    }

    /// Per-shard counter snapshots, in shard order — surfaced through serving stats so a
    /// skewed shard (one hot fingerprint class) is visible from the outside.
    pub fn shard_counters(&self) -> Vec<CacheCounters> {
        self.shards.iter().map(Shard::counters).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_insert_are_counted() {
        let cache: GenerationCache<u32> = GenerationCache::new(8);
        assert_eq!(cache.get(1), None);
        cache.insert(1, 10);
        assert_eq!(cache.get(1), Some(10));
        let c = cache.counters();
        assert_eq!(c.misses, 1);
        assert_eq!(c.hits, 1);
        assert_eq!(c.insertions, 1);
        assert_eq!(c.entries, 1);
        assert!(c.hit_ratio() > 0.49 && c.hit_ratio() < 0.51);
    }

    #[test]
    fn first_insert_wins() {
        let cache: GenerationCache<u32> = GenerationCache::new(8);
        assert_eq!(cache.insert(7, 1), 1);
        assert_eq!(cache.insert(7, 2), 1, "second insert must not overwrite");
        assert_eq!(cache.counters().insertions, 1);
    }

    #[test]
    fn capacity_is_bounded_and_evictions_counted() {
        let cache: GenerationCache<usize> = GenerationCache::new(8);
        for i in 0..100 {
            cache.insert(i as u64, i);
        }
        assert!(
            cache.len() <= 8,
            "resident entries {} exceed capacity",
            cache.len()
        );
        let c = cache.counters();
        assert_eq!(c.insertions, 100);
        assert!(c.evictions >= 100 - 8, "evictions {} too low", c.evictions);
    }

    #[test]
    fn touched_entries_survive_rotation() {
        // Capacity 8 → rotation every 4 young entries. Keep touching key 0 while streaming
        // other keys through; the hot key must survive arbitrarily many rotations.
        let cache: GenerationCache<usize> = GenerationCache::new(8);
        cache.insert(0, 999);
        for i in 1..200u64 {
            cache.insert(i, i as usize);
            assert_eq!(cache.get(0), Some(999), "hot entry evicted at step {i}");
        }
        // A cold key streamed through long ago is gone.
        assert_eq!(cache.get(1), None);
    }

    #[test]
    fn sharding_preserves_capacity_and_aggregates_counters() {
        // 64 entries over 8 shards: the total bound holds, per-shard counters sum to the
        // aggregate, and a key always lands on the same shard (get-after-insert hits).
        let cache: GenerationCache<u64> = GenerationCache::with_shards(64, 8);
        assert_eq!(cache.shards.len(), 8);
        for key in 0..500u64 {
            cache.insert(key, key * 3);
            assert_eq!(cache.get(key), Some(key * 3), "read-own-insert at {key}");
        }
        assert!(
            cache.len() <= 64,
            "resident {} exceeds capacity",
            cache.len()
        );
        let total = cache.counters();
        let summed = cache
            .shard_counters()
            .iter()
            .fold(CacheCounters::default(), |acc, c| acc.merged(c));
        assert_eq!(total, summed);
        assert_eq!(total.insertions, 500);
        assert!(total.hits >= 500);

        // Tiny capacities degrade to fewer shards instead of violating the bound.
        let tiny: GenerationCache<u64> = GenerationCache::with_shards(4, 8);
        assert_eq!(tiny.shards.len(), 2);
        for key in 0..100u64 {
            tiny.insert(key, key);
        }
        assert!(tiny.len() <= 4);
    }

    #[test]
    fn merged_counters_sum_fieldwise() {
        let a = CacheCounters {
            hits: 1,
            misses: 2,
            insertions: 3,
            evictions: 4,
            entries: 5,
        };
        let b = a.merged(&a);
        assert_eq!(b.hits, 2);
        assert_eq!(b.misses, 4);
        assert_eq!(b.insertions, 6);
        assert_eq!(b.evictions, 8);
        assert_eq!(b.entries, 10);
    }
}
