//! A sharded LRU cache for query results.
//!
//! Queries against a resident index are read-only and highly repetitive
//! (parameter exploration revisits the same `(μ, ε)` points; many clients
//! ask for the same clustering), so the serving layer memoizes results.
//! The cache is split into independently locked shards — key hash picks
//! the shard — so concurrent sessions rarely contend on one mutex, and
//! each shard evicts in strict LRU order via an intrusive doubly-linked
//! list over a slab (O(1) get/insert/evict, no per-operation allocation
//! beyond the slab's amortized growth).
//!
//! Values are handed out as clones; callers store `Arc<T>` so a hit is a
//! reference-count bump, never a deep copy of a clustering.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

struct LruShard<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Entry<K, V>>,
    free: Vec<usize>,
    /// Most recently used entry, or `NIL` when empty.
    head: usize,
    /// Least recently used entry, or `NIL` when empty.
    tail: usize,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> LruShard<K, V> {
    fn new(capacity: usize) -> Self {
        LruShard {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn link_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        let i = *self.map.get(key)?;
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
        Some(self.slab[i].value.clone())
    }

    fn insert(&mut self, key: K, value: V) {
        if let Some(&i) = self.map.get(&key) {
            self.slab[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.link_front(i);
            }
            return;
        }
        if self.map.len() >= self.capacity {
            // Evict the least recently used entry.
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            let old_key = self.slab[victim].key.clone();
            self.map.remove(&old_key);
            self.free.push(victim);
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Entry {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.slab.push(Entry {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            }
        };
        self.map.insert(key, i);
        self.link_front(i);
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Remove and return every entry, least recently used first (so a
    /// caller reinserting in order reproduces the recency ranking).
    fn drain_lru_to_mru(&mut self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut i = self.tail;
        while i != NIL {
            let e = &self.slab[i];
            out.push((e.key.clone(), e.value.clone()));
            i = e.prev;
        }
        self.clear();
        out
    }
}

/// A thread-safe LRU cache split into independently locked shards.
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<LruShard<K, V>>>,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLru<K, V> {
    /// A cache holding at most `capacity` entries across `shards` shards
    /// (both floored at 1; shards are capped at `capacity` so small
    /// caches keep their requested size, and per-shard capacity is the
    /// ceiling split, so total capacity rounds up to a shard multiple).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        let per_shard = capacity.div_ceil(shards);
        ShardedLru {
            shards: (0..shards)
                .map(|_| Mutex::new(LruShard::new(per_shard)))
                .collect(),
        }
    }

    fn shard_of(&self, key: &K) -> &Mutex<LruShard<K, V>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    fn lock(shard: &Mutex<LruShard<K, V>>) -> std::sync::MutexGuard<'_, LruShard<K, V>> {
        shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Look the key up, refreshing its recency on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        Self::lock(self.shard_of(key)).get(key)
    }

    /// Insert (or refresh) an entry, evicting the shard's LRU entry when
    /// the shard is full.
    pub fn insert(&self, key: K, value: V) {
        Self::lock(self.shard_of(&key)).insert(key, value);
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entry capacity across shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).capacity).sum()
    }

    /// Rewrite every key through `f`: entries mapped to `Some(new_key)`
    /// survive under the new key, entries mapped to `None` are dropped.
    /// Returns `(dropped, kept)`.
    ///
    /// Because a shard is chosen by key *hash*, a rewritten key may
    /// belong to a different shard than the original, so survivors are
    /// drained out of every shard first and reinserted through normal
    /// placement (in LRU→MRU order, preserving per-shard recency).
    /// Concurrent `get`/`insert` calls interleave safely: the worst
    /// case is an entry inserted under a not-rewritten key mid-drain,
    /// which simply ages out — callers for whom that matters (the query
    /// engine's epoch bump) make stale keys unreachable instead of
    /// relying on this method being atomic.
    pub fn rekey(&self, f: impl Fn(&K) -> Option<K>) -> (usize, usize) {
        let (mut dropped, mut kept) = (0usize, 0usize);
        let mut moved: Vec<(K, V)> = Vec::new();
        for shard in &self.shards {
            for (key, value) in Self::lock(shard).drain_lru_to_mru() {
                match f(&key) {
                    Some(new_key) => {
                        moved.push((new_key, value));
                        kept += 1;
                    }
                    None => dropped += 1,
                }
            }
        }
        for (key, value) in moved {
            self.insert(key, value);
        }
        (dropped, kept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn get_refreshes_recency() {
        let cache: ShardedLru<u32, u32> = ShardedLru::new(2, 1);
        cache.insert(1, 10);
        cache.insert(2, 20);
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(cache.get(&1), Some(10));
        cache.insert(3, 30);
        assert_eq!(cache.get(&2), None, "2 should have been evicted");
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.get(&3), Some(30));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn insert_existing_updates_value() {
        let cache: ShardedLru<u32, &str> = ShardedLru::new(4, 2);
        cache.insert(5, "a");
        cache.insert(5, "b");
        assert_eq!(cache.get(&5), Some("b"));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_is_strict_lru_order() {
        let cache: ShardedLru<u32, u32> = ShardedLru::new(3, 1);
        for k in 0..3 {
            cache.insert(k, k);
        }
        // Access order now 2 (MRU), 1, 0 (LRU); inserting evicts 0 then 1.
        cache.insert(10, 10);
        assert_eq!(cache.get(&0), None);
        cache.insert(11, 11);
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.get(&2), Some(2));
    }

    #[test]
    fn slab_slots_are_reused_after_eviction() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(8, 1);
        for round in 0..100u64 {
            cache.insert(round, round * 3);
        }
        assert_eq!(cache.len(), 8);
        // Only the newest 8 survive.
        for k in 92..100 {
            assert_eq!(cache.get(&k), Some(k * 3));
        }
        let shard = ShardedLru::lock(&cache.shards[0]);
        assert!(shard.slab.len() <= 9, "slab grew to {}", shard.slab.len());
    }

    #[test]
    fn concurrent_mixed_workload_is_consistent() {
        let cache: Arc<ShardedLru<u64, u64>> = Arc::new(ShardedLru::new(64, 8));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..2000u64 {
                        let k = (t * 31 + i) % 100;
                        cache.insert(k, k * 7);
                        if let Some(v) = cache.get(&k) {
                            assert_eq!(v, k * 7);
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= cache.capacity());
    }

    #[test]
    fn rekey_moves_survivors_across_shards_and_drops_the_rest() {
        // Keys are (epoch, class); rekeying bumps the epoch, which
        // changes the hash and hence (usually) the shard.
        let cache: ShardedLru<(u64, u32), u32> = ShardedLru::new(32, 4);
        for class in 0..16u32 {
            cache.insert((1, class), class * 10);
        }
        let (dropped, kept) =
            cache.rekey(|&(epoch, class)| (class % 2 == 0).then_some((epoch + 1, class)));
        assert_eq!((dropped, kept), (8, 8));
        assert_eq!(cache.len(), 8);
        for class in 0..16u32 {
            assert_eq!(cache.get(&(1, class)), None, "old epoch is gone");
            let expect = (class % 2 == 0).then_some(class * 10);
            assert_eq!(cache.get(&(2, class)), expect);
        }
    }

    #[test]
    fn rekey_preserves_recency_within_a_shard() {
        let cache: ShardedLru<(u64, u32), u32> = ShardedLru::new(3, 1);
        for class in 0..3u32 {
            cache.insert((1, class), class);
        }
        // Touch 0 so it is the MRU going into the rekey.
        assert_eq!(cache.get(&(1, 0)), Some(0));
        cache.rekey(|&(e, c)| Some((e + 1, c)));
        // Inserting two fresh entries must evict 1 then 2, never 0.
        cache.insert((2, 10), 10);
        cache.insert((2, 11), 11);
        assert_eq!(cache.get(&(2, 0)), Some(0), "MRU survived the evictions");
    }

    #[test]
    fn clear_empties_every_shard() {
        let cache: ShardedLru<u32, u32> = ShardedLru::new(16, 4);
        for k in 0..16 {
            cache.insert(k, k);
        }
        let held = cache.len();
        assert!(held > 0);
        assert_eq!(cache.rekey(|_| None), (held, 0));
        assert!(cache.is_empty());
        assert_eq!(cache.get(&3), None);
        // Still usable after clear.
        cache.insert(3, 33);
        assert_eq!(cache.get(&3), Some(33));
    }
}
