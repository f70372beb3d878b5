//! Bounded, sharded LRU cache for distance answers.
//!
//! The serving pipeline puts this cache *behind* the oracle: the index
//! answers a pair faster than a probe and an insert together cost, so only
//! the answers of fallback searches — index misses the landmark bounds do
//! not settle — are memoised, and a repeated searched pair skips the
//! search at the cost of one hash probe (see `crate::session`). Keys are
//! normalised `(min, max)` pairs — the graphs are undirected, so
//! `d(s,t) = d(t,s)` and both orientations share an entry. Only
//! *definitive* answers (exact distances and proven unreachability) are
//! cached.
//!
//! The cache is split into independently locked shards to keep worker
//! threads from serialising on one lock; each shard is a classic
//! doubly-linked-list LRU over a slab, so hits and insertions are O(1) and
//! the capacity bound is exact: the configured capacity is honoured in
//! full, no matter how large (construction merely caps its *preallocation*
//! at [`PREALLOC_ENTRIES`] entries per shard so absurd configurations
//! cannot OOM up front — the slab still grows lazily to the full
//! capacity).
//!
//! ## Epochs
//!
//! Under dynamic edge updates a cached answer is only valid for the oracle
//! version that produced it. Every entry is therefore stamped with the
//! **epoch** the inserting session observed, and [`QueryCache::get`] takes
//! the reading session's epoch: an entry from any other epoch is treated
//! as a miss (and lazily overwritten by the next insert), so a reader on
//! the post-update epoch can never be served a pre-update answer. Static
//! services pass epoch 0 everywhere and behave exactly as before.
//!
//! ## Contention
//!
//! Shards are guarded by `RwLock`, not `Mutex`, because serving traffic is
//! read-mostly: a skewed social workload concentrates on a few hot pairs,
//! and once a hot entry reaches the front of its shard's LRU list a hit
//! needs *no* recency update at all. [`QueryCache::get`] therefore probes
//! under a shared read lock and returns immediately when the entry is
//! already the MRU; only hits on colder entries (and all insertions) take
//! the exclusive write lock to splice the recency list. The result is
//! that concurrent workers hammering the same hot keys proceed in
//! parallel instead of serialising on the shard lock — the write lock is
//! reserved for traffic that actually mutates the shard. If profiling
//! ever shows write-lock pressure from mid-list hits, the next lever is
//! probabilistic recency updates (refresh on every k-th hit), not more
//! shards.
//!
//! Hit and miss counts live in each shard and are bumped under the shard
//! lock the probe already holds, so probes on different shards never
//! touch a shared counter; shards are cache-line aligned for the same
//! reason. [`QueryCache::hits`] and [`QueryCache::misses`] sum them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use vicinity_graph::fast_hash::FastMap;
use vicinity_graph::{Distance, NodeId};

/// Sentinel stored for "provably unreachable".
const UNREACHABLE: u32 = u32::MAX;

/// Per-shard preallocation cap (entries). This bounds only the upfront
/// `with_capacity` reservations; the logical capacity is honoured exactly
/// (shards grow past this lazily).
const PREALLOC_ENTRIES: usize = 1 << 20;

/// Slab index meaning "none".
const NIL: u32 = u32::MAX;

/// A cached definitive answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachedAnswer {
    /// Exact distance in hops.
    Exact(Distance),
    /// The endpoints are in different components.
    Unreachable,
}

impl CachedAnswer {
    fn encode(self) -> u32 {
        match self {
            CachedAnswer::Exact(d) => {
                debug_assert!(
                    d < UNREACHABLE,
                    "distance overlaps the unreachable sentinel"
                );
                d
            }
            CachedAnswer::Unreachable => UNREACHABLE,
        }
    }

    fn decode(raw: u32) -> Self {
        if raw == UNREACHABLE {
            CachedAnswer::Unreachable
        } else {
            CachedAnswer::Exact(raw)
        }
    }
}

struct Node {
    key: u64,
    value: u32,
    /// Oracle epoch the value was computed under.
    epoch: u64,
    prev: u32,
    next: u32,
}

/// One LRU shard: slab-backed doubly linked list + index map, plus its
/// probe counters. Aligned to a cache line so neighbouring shards' locks
/// and counters never share one.
#[repr(align(64))]
struct Shard {
    map: FastMap<u64, u32>,
    nodes: Vec<Node>,
    head: u32,
    tail: u32,
    capacity: usize,
    /// Probe hits. Atomic because read-lock holders bump it too.
    hits: AtomicU64,
    /// Probe misses (absent or stale-epoch entries).
    misses: AtomicU64,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        let prealloc = capacity.min(PREALLOC_ENTRIES);
        Shard {
            map: FastMap::with_capacity_and_hasher(prealloc, Default::default()),
            nodes: Vec::with_capacity(prealloc),
            head: NIL,
            tail: NIL,
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Count one probe outcome. Callers hold this shard's lock (read or
    /// write), so the counter only ever sees this shard's probes.
    fn count(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let node = &self.nodes[idx as usize];
            (node.prev, node.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let node = &mut self.nodes[idx as usize];
            node.prev = NIL;
            node.next = old_head;
        }
        if old_head != NIL {
            self.nodes[old_head as usize].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    /// Non-mutating probe: the value (`None` when absent or stamped with a
    /// different epoch), plus whether the entry is already the MRU (in
    /// which case a hit needs no recency update and the read lock
    /// suffices).
    fn peek(&self, key: u64, epoch: u64) -> Option<(u32, bool)> {
        let idx = *self.map.get(&key)?;
        let node = &self.nodes[idx as usize];
        if node.epoch != epoch {
            return None;
        }
        Some((node.value, self.head == idx))
    }

    fn get(&mut self, key: u64, epoch: u64) -> Option<u32> {
        let idx = *self.map.get(&key)?;
        if self.nodes[idx as usize].epoch != epoch {
            return None;
        }
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
        Some(self.nodes[idx as usize].value)
    }

    fn insert(&mut self, key: u64, value: u32, epoch: u64) {
        if let Some(&idx) = self.map.get(&key) {
            let node = &mut self.nodes[idx as usize];
            node.value = value;
            node.epoch = epoch;
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            return;
        }
        let idx = if self.nodes.len() < self.capacity {
            self.nodes.push(Node {
                key,
                value,
                epoch,
                prev: NIL,
                next: NIL,
            });
            (self.nodes.len() - 1) as u32
        } else {
            // Evict the least-recently-used entry and reuse its slot.
            let idx = self.tail;
            debug_assert_ne!(
                idx, NIL,
                "non-zero capacity shard must have a tail when full"
            );
            self.unlink(idx);
            let node = &mut self.nodes[idx as usize];
            let old_key = node.key;
            node.key = key;
            node.value = value;
            node.epoch = epoch;
            self.map.remove(&old_key);
            idx
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Sharded bounded LRU over normalised query pairs.
pub struct QueryCache {
    shards: Vec<RwLock<Shard>>,
    /// Bit mask selecting a shard from a key hash (shard count is a power
    /// of two).
    shard_mask: u64,
}

impl QueryCache {
    /// A cache holding at most `capacity` answers, split over `shards`
    /// independently locked shards (rounded up to a power of two).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shard_count = shards.max(1).next_power_of_two();
        let per_shard = capacity.div_ceil(shard_count).max(1);
        QueryCache {
            shards: (0..shard_count)
                .map(|_| RwLock::new(Shard::new(per_shard)))
                .collect(),
            shard_mask: (shard_count - 1) as u64,
        }
    }

    /// Normalise an endpoint pair into a cache key: undirected queries are
    /// symmetric, so `(s, t)` and `(t, s)` map to the same `(min, max)` key.
    #[inline]
    pub fn key(s: NodeId, t: NodeId) -> u64 {
        let (lo, hi) = if s <= t { (s, t) } else { (t, s) };
        ((lo as u64) << 32) | hi as u64
    }

    #[inline]
    fn shard_of(&self, key: u64) -> &RwLock<Shard> {
        // Fibonacci hash so nearby node ids spread over shards.
        let h = key.wrapping_mul(0x9E3779B97F4A7C15) >> 32;
        &self.shards[(h & self.shard_mask) as usize]
    }

    /// Look up the answer for `(s, t)` as observed under oracle `epoch`,
    /// refreshing its recency on a hit. Entries stamped with a different
    /// epoch are misses: after an edge update bumps the epoch, no reader
    /// on the new version can be served a stale answer.
    ///
    /// Fast path: a shared read lock suffices for misses and for hits on
    /// the shard's MRU entry (the common case under skewed traffic). Only
    /// a hit on a colder entry upgrades to the write lock to splice the
    /// recency list — see the module-level contention note.
    pub fn get(&self, s: NodeId, t: NodeId, epoch: u64) -> Option<CachedAnswer> {
        let key = Self::key(s, t);
        let shard = self.shard_of(key);
        {
            let guard = shard.read().expect("cache shard poisoned");
            match guard.peek(key, epoch) {
                Some((raw, true)) => {
                    guard.count(true);
                    return Some(CachedAnswer::decode(raw));
                }
                None => {
                    guard.count(false);
                    return None;
                }
                Some((_, false)) => {}
            }
        }
        // Re-probe under the write lock: the entry may have moved or been
        // evicted between the two acquisitions.
        let mut guard = shard.write().expect("cache shard poisoned");
        let found = guard.get(key, epoch);
        guard.count(found.is_some());
        found.map(CachedAnswer::decode)
    }

    /// Store a definitive answer for `(s, t)` computed under oracle
    /// `epoch`, evicting the least recently used entry of the shard when
    /// full (stale-epoch entries are reclaimed the same way, by overwrite
    /// or eviction).
    pub fn insert(&self, s: NodeId, t: NodeId, epoch: u64, answer: CachedAnswer) {
        let key = Self::key(s, t);
        self.shard_of(key)
            .write()
            .expect("cache shard poisoned")
            .insert(key, answer.encode(), epoch);
    }

    /// Number of cached answers across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache shard poisoned").len())
            .sum()
    }

    /// True when no answers are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Probe hits since construction (all threads, summed over shards).
    pub fn hits(&self) -> u64 {
        self.sum_counter(|shard| &shard.hits)
    }

    /// Probe misses since construction (all threads, summed over shards).
    pub fn misses(&self) -> u64 {
        self.sum_counter(|shard| &shard.misses)
    }

    fn sum_counter(&self, counter: impl Fn(&Shard) -> &AtomicU64) -> u64 {
        self.shards
            .iter()
            .map(|s| counter(&s.read().expect("cache shard poisoned")).load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_orientation_invariant() {
        assert_eq!(QueryCache::key(3, 9), QueryCache::key(9, 3));
        assert_ne!(QueryCache::key(3, 9), QueryCache::key(3, 8));
        assert_eq!(QueryCache::key(7, 7), ((7u64) << 32) | 7);
    }

    #[test]
    fn get_after_insert_round_trips() {
        let cache = QueryCache::new(64, 4);
        assert!(cache.get(1, 2, 0).is_none());
        cache.insert(1, 2, 0, CachedAnswer::Exact(5));
        cache.insert(8, 3, 0, CachedAnswer::Unreachable);
        assert_eq!(cache.get(2, 1, 0), Some(CachedAnswer::Exact(5)));
        assert_eq!(cache.get(3, 8, 0), Some(CachedAnswer::Unreachable));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn capacity_bound_is_exact_and_lru_order_respected() {
        // One shard of capacity 3 so eviction order is fully observable.
        let cache = QueryCache::new(3, 1);
        cache.insert(0, 1, 0, CachedAnswer::Exact(1));
        cache.insert(0, 2, 0, CachedAnswer::Exact(2));
        cache.insert(0, 3, 0, CachedAnswer::Exact(3));
        // Touch (0,1) so (0,2) becomes the LRU entry.
        assert!(cache.get(0, 1, 0).is_some());
        cache.insert(0, 4, 0, CachedAnswer::Exact(4));
        assert_eq!(cache.len(), 3);
        assert!(
            cache.get(0, 2, 0).is_none(),
            "LRU entry must have been evicted"
        );
        assert!(cache.get(0, 1, 0).is_some());
        assert!(cache.get(0, 3, 0).is_some());
        assert!(cache.get(0, 4, 0).is_some());
    }

    #[test]
    fn reinsert_updates_value_without_growing() {
        let cache = QueryCache::new(2, 1);
        cache.insert(1, 2, 0, CachedAnswer::Exact(9));
        cache.insert(1, 2, 0, CachedAnswer::Exact(7));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(1, 2, 0), Some(CachedAnswer::Exact(7)));
    }

    #[test]
    fn heavy_churn_stays_bounded() {
        let cache = QueryCache::new(100, 8);
        for i in 0..10_000u32 {
            cache.insert(i, i + 1, 0, CachedAnswer::Exact(i % 50));
        }
        assert!(
            cache.len() <= 128,
            "len {} exceeds shard-rounded capacity",
            cache.len()
        );
        assert!(!cache.is_empty());
    }

    #[test]
    fn capacity_above_prealloc_clamp_is_honored() {
        // Regression: construction caps only its *preallocation* at 2^20
        // entries per shard; the configured logical capacity must be
        // honoured in full. A single shard configured above the clamp has
        // to hold more than 2^20 live entries without evicting.
        let over = (1usize << 20) + 4;
        let cache = QueryCache::new(over, 1);
        for i in 0..over as u32 {
            cache.insert(i, i + 1, 0, CachedAnswer::Exact(i % 100));
        }
        assert_eq!(
            cache.len(),
            over,
            "no eviction may occur below the configured capacity"
        );
        assert_eq!(
            cache.get(0, 1, 0),
            Some(CachedAnswer::Exact(0)),
            "the first entry must still be resident"
        );
        // One insert beyond capacity evicts exactly one entry.
        cache.insert(u32::MAX - 2, u32::MAX - 1, 0, CachedAnswer::Exact(7));
        assert_eq!(cache.len(), over);
    }

    #[test]
    fn epoch_mismatch_is_a_miss_and_reinsert_restamps() {
        let cache = QueryCache::new(16, 1);
        cache.insert(1, 2, 0, CachedAnswer::Exact(5));
        assert_eq!(cache.get(1, 2, 0), Some(CachedAnswer::Exact(5)));
        // After an oracle update the reader's epoch moves on: the stale
        // entry must not be served (in either direction of skew).
        assert_eq!(cache.get(1, 2, 1), None);
        assert_eq!(cache.get(1, 2, 0), Some(CachedAnswer::Exact(5)));
        // Reinserting under the new epoch replaces the stamp in place.
        cache.insert(1, 2, 1, CachedAnswer::Exact(4));
        assert_eq!(cache.get(1, 2, 1), Some(CachedAnswer::Exact(4)));
        assert_eq!(cache.get(1, 2, 0), None);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let cache = Arc::new(QueryCache::new(1024, 8));
        std::thread::scope(|scope| {
            for worker in 0..4u32 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..2_000u32 {
                        let s = worker * 1_000 + (i % 500);
                        cache.insert(s, s + 1, 0, CachedAnswer::Exact(i % 30));
                        let _ = cache.get(s, s + 1, 0);
                    }
                });
            }
        });
        assert!(cache.len() <= 1024);
        assert!(cache.hits() > 0);
    }
}
