//! Bounded LRU cache machinery.
//!
//! One small, generic recency-ordered store backs every bounded cache in
//! the serving stack: the session's symbolic-analysis cache
//! ([`crate::ReductionSession`], key = pattern fingerprint) and the
//! `rcfitd` daemon's per-worker pool of warm sessions (key = canonical
//! option string). Keeping them on the same machinery means eviction
//! semantics — promote on hit, replace on key collision, evict the least
//! recently used entry under capacity pressure — are tested once and
//! shared.

/// A bounded least-recently-used cache.
///
/// Recency order is maintained in a `Vec` (index 0 = least recently
/// used, back = most recently used): the caches this serves are small
/// (tens of entries) and hit-dominated, so a linear key scan beats
/// pointer-chasing structures and keeps the type dependency-free.
#[derive(Clone, Debug)]
pub struct LruCache<K, V> {
    cap: usize,
    evictions: u64,
    entries: Vec<(K, V)>,
}

impl<K: PartialEq, V> LruCache<K, V> {
    /// An empty cache holding at most `cap` entries.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero (a cache that can hold nothing would turn
    /// every insert into an eviction and hide bugs as slow misses).
    pub fn new(cap: usize) -> LruCache<K, V> {
        assert!(cap > 0, "LruCache capacity must be positive");
        LruCache {
            cap,
            evictions: 0,
            entries: Vec::new(),
        }
    }

    /// Maximum number of entries the cache holds.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted by capacity pressure since construction
    /// (replacements on key collision are not counted).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up `key`, promoting the entry to most-recently-used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.get_if(key, |_| true)
    }

    /// Looks up `key` and verifies the stored value with `verify` before
    /// trusting it. A verification failure returns `None` *without*
    /// promoting the entry — the caller falls through to a fresh
    /// computation, and the stale entry ages out or is replaced by the
    /// colliding insert.
    ///
    /// This is the symbolic cache's collision guard: the 64-bit pattern
    /// fingerprint is the key, and `verify` is the exact
    /// `SymbolicCholesky::matches` pattern comparison, so an FNV-1a
    /// collision can never hand back the wrong analysis.
    pub fn get_if(&mut self, key: &K, verify: impl FnOnce(&V) -> bool) -> Option<&V> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        if !verify(&self.entries[idx].1) {
            return None;
        }
        let entry = self.entries.remove(idx);
        self.entries.push(entry);
        self.entries.last().map(|(_, v)| v)
    }

    /// Mutable lookup, promoting the entry to most-recently-used.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(idx);
        self.entries.push(entry);
        self.entries.last_mut().map(|(_, v)| v)
    }

    /// Looks up `key` without touching recency order.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Inserts `key → value` as the most-recently-used entry and returns
    /// whatever it displaced: the previous value under the same key
    /// (newest wins — this is what lets a fingerprint collision correct
    /// itself) or the least-recently-used entry when at capacity.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(idx) = self.entries.iter().position(|(k, _)| *k == key) {
            let old = self.entries.remove(idx);
            self.entries.push((key, value));
            return Some(old);
        }
        let evicted = if self.entries.len() == self.cap {
            self.evictions += 1;
            Some(self.entries.remove(0))
        } else {
            None
        };
        self.entries.push((key, value));
        evicted
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// Keys in recency order, least recently used first.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// `(key, value)` pairs in recency order, least recently used first.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_is_lru_not_fifo() {
        let mut c: LruCache<u32, &str> = LruCache::new(3);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(3, "c");
        // Touch 1 so 2 becomes the least recently used.
        assert_eq!(c.get(&1), Some(&"a"));
        let evicted = c.insert(4, "d");
        assert_eq!(evicted, Some((2, "b")), "LRU entry 2 must go, not FIFO 1");
        assert_eq!(c.len(), 3);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.keys().copied().collect::<Vec<_>>(), vec![3, 1, 4]);
    }

    #[test]
    fn insert_replaces_same_key_without_eviction() {
        let mut c: LruCache<u32, &str> = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        let displaced = c.insert(1, "a2");
        assert_eq!(displaced, Some((1, "a")), "old value is handed back");
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0, "replacement is not an eviction");
        assert_eq!(c.peek(&1), Some(&"a2"));
        // The replacement is now most-recently-used.
        assert_eq!(c.keys().copied().collect::<Vec<_>>(), vec![2, 1]);
    }

    #[test]
    fn failed_verification_neither_returns_nor_promotes() {
        let mut c: LruCache<u32, &str> = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.get_if(&1, |_| false), None);
        // 1 stays least-recently-used, so it is the eviction victim.
        assert_eq!(c.insert(3, "c"), Some((1, "a")));
    }

    #[test]
    fn remove_and_peek_do_not_disturb_order() {
        let mut c: LruCache<u32, &str> = LruCache::new(3);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(3, "c");
        assert_eq!(c.peek(&1), Some(&"a"));
        assert_eq!(c.insert(4, "d"), Some((1, "a")), "peek must not promote");
        assert_eq!(c.remove(&3), Some("c"));
        assert_eq!(c.len(), 2);
        assert_eq!(c.remove(&3), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = LruCache::<u32, ()>::new(0);
    }
}
