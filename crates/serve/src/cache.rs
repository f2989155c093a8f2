//! Deterministic, bounded, content-addressed LRU caches.
//!
//! One generic [`LruCache`] backs both tiers of the engine: the
//! *result* tier (spec key → finished response body) and the *design*
//! tier (design key → [`crate::compile::CompiledDesign`]). Recency is
//! a doubly-linked list threaded through a slab of entries — no wall
//! clock: a touch moves the entry to the head, and eviction pops the
//! tail, the least recently touched entry, in constant time. The entire
//! cache trajectory (hits, misses, which entry leaves when) is therefore
//! a pure function of the touch sequence. The storm gate leans on that:
//! replay the same request stream and the eviction counters diff
//! byte-equal.

use std::collections::BTreeMap;

use crate::key::CacheKey;

/// The null link: no neighbour.
const NIL: usize = usize::MAX;

/// One slab slot: an entry and its place in the recency list.
#[derive(Debug, Clone)]
struct Slot<V> {
    key: CacheKey,
    /// `None` only while the slot sits on the free list.
    value: Option<V>,
    /// Neighbour towards the head (more recently touched).
    newer: usize,
    /// Neighbour towards the tail (less recently touched).
    older: usize,
}

/// A bounded map from content keys to values with least-recently-used
/// eviction.
#[derive(Debug, Clone)]
pub struct LruCache<V> {
    capacity: usize,
    /// Key → slab index. A `BTreeMap`, so [`LruCache::keys`] walks in
    /// key order.
    index: BTreeMap<CacheKey, usize>,
    slots: Vec<Slot<V>>,
    /// Slab indices freed by [`LruCache::remove`].
    free: Vec<usize>,
    /// Most recently touched slot.
    head: usize,
    /// Least recently touched slot: the next victim.
    tail: usize,
}

impl<V> LruCache<V> {
    /// An empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a cache that can hold nothing
    /// would turn every request into a miss and silently void the
    /// service's speedup contract.
    pub fn new(capacity: usize) -> LruCache<V> {
        assert!(capacity > 0, "cache capacity must be positive");
        LruCache {
            capacity,
            index: BTreeMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Maximum entry count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<&V> {
        let i = *self.index.get(key)?;
        self.touch(i);
        self.slots[i].value.as_ref()
    }

    /// Peeks at `key` without refreshing recency (diagnostics only).
    pub fn peek(&self, key: &CacheKey) -> Option<&V> {
        let i = *self.index.get(key)?;
        self.slots[i].value.as_ref()
    }

    /// Mutable peek without refreshing recency. This is the chaos
    /// harness's corruption port: flipping a byte in place must not
    /// disturb the recency trajectory, or detection would perturb the
    /// very determinism the campaign gates on.
    pub fn peek_mut(&mut self, key: &CacheKey) -> Option<&mut V> {
        let i = *self.index.get(key)?;
        self.slots[i].value.as_mut()
    }

    /// Removes `key`, returning its value. Quarantine path: a cached
    /// entry whose checksum fails verification is removed so the next
    /// request recomputes it as a miss.
    pub fn remove(&mut self, key: &CacheKey) -> Option<V> {
        let i = self.index.remove(key)?;
        self.unlink(i);
        self.free.push(i);
        self.slots[i].value.take()
    }

    /// Inserts (or replaces) `key`, evicting the least-recently-used
    /// entry if the cache is full. Returns how many entries were
    /// evicted (0 or 1).
    pub fn insert(&mut self, key: CacheKey, value: V) -> usize {
        if let Some(&i) = self.index.get(&key) {
            self.slots[i].value = Some(value);
            self.touch(i);
            return 0;
        }
        let slot = Slot {
            key,
            value: Some(value),
            newer: NIL,
            older: NIL,
        };
        let (i, evicted) = if self.index.len() == self.capacity {
            // Full: the tail is the victim, and its slot is reused.
            let victim = self.tail;
            self.unlink(victim);
            self.index.remove(&self.slots[victim].key);
            self.slots[victim] = slot;
            (victim, 1)
        } else if let Some(i) = self.free.pop() {
            self.slots[i] = slot;
            (i, 0)
        } else {
            self.slots.push(slot);
            (self.slots.len() - 1, 0)
        };
        self.index.insert(key, i);
        self.push_head(i);
        evicted
    }

    /// The cached keys in key order (diagnostics / tests).
    pub fn keys(&self) -> impl Iterator<Item = &CacheKey> {
        self.index.keys()
    }

    /// Moves linked slot `i` to the head of the recency list.
    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_head(i);
        }
    }

    /// Detaches slot `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (newer, older) = (self.slots[i].newer, self.slots[i].older);
        match newer {
            NIL => self.head = older,
            n => self.slots[n].older = older,
        }
        match older {
            NIL => self.tail = newer,
            o => self.slots[o].newer = newer,
        }
    }

    /// Links detached slot `i` in as the most recently touched.
    fn push_head(&mut self, i: usize) {
        self.slots[i].newer = NIL;
        self.slots[i].older = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].newer = i,
        }
        self.head = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::content_hash;

    fn k(n: u8) -> CacheKey {
        content_hash(&[n])
    }

    #[test]
    fn get_miss_then_hit() {
        let mut c: LruCache<String> = LruCache::new(4);
        assert!(c.get(&k(1)).is_none());
        assert_eq!(c.insert(k(1), "one".into()), 0);
        assert_eq!(c.get(&k(1)).map(String::as_str), Some("one"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_removes_the_least_recently_used() {
        let mut c: LruCache<u32> = LruCache::new(2);
        c.insert(k(1), 1);
        c.insert(k(2), 2);
        assert!(c.get(&k(1)).is_some()); // refresh 1; 2 is now stalest
        assert_eq!(c.insert(k(3), 3), 1);
        assert!(c.peek(&k(2)).is_none());
        assert!(c.peek(&k(1)).is_some());
        assert!(c.peek(&k(3)).is_some());
    }

    #[test]
    fn replacing_an_entry_never_evicts() {
        let mut c: LruCache<u32> = LruCache::new(2);
        c.insert(k(1), 1);
        c.insert(k(2), 2);
        assert_eq!(c.insert(k(1), 10), 0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&k(1)), Some(&10));
    }

    #[test]
    fn eviction_trajectory_is_deterministic() {
        let run = || {
            let mut c: LruCache<u8> = LruCache::new(3);
            let mut log = Vec::new();
            for round in 0..20u8 {
                let key = k(round % 7);
                if c.get(&key).is_none() {
                    let evicted = c.insert(key, round);
                    log.push((round, evicted));
                }
            }
            let keys: Vec<String> = c.keys().map(|k| k.hex()).collect();
            (log, keys)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn remove_frees_a_slot_without_touching_recency() {
        let mut c: LruCache<u32> = LruCache::new(2);
        c.insert(k(1), 1);
        c.insert(k(2), 2);
        assert_eq!(c.remove(&k(1)), Some(1));
        assert_eq!(c.remove(&k(1)), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.insert(k(3), 3), 0); // freed slot: no eviction
    }

    #[test]
    fn peek_mut_edits_in_place_without_refreshing() {
        let mut c: LruCache<String> = LruCache::new(2);
        c.insert(k(1), "aa".into());
        c.insert(k(2), "bb".into());
        if let Some(v) = c.peek_mut(&k(1)) {
            v.replace_range(0..1, "X");
        }
        assert_eq!(c.peek(&k(1)).map(String::as_str), Some("Xa"));
        // Recency untouched: key 1 is still the stalest and evicts first.
        assert_eq!(c.insert(k(3), "cc".into()), 1);
        assert!(c.peek(&k(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = LruCache::<u8>::new(0);
    }
}
