//! Read-side caches: the auditor's query-result cache and the slave's
//! byte-budgeted proof/reply cache.
//!
//! Section 3.4: the auditor "can, for certain types of applications …
//! employ query optimization mechanisms (cache results in the simplest
//! case)".  Because the auditor replays *every* pledged read, and popular
//! reads repeat, caching per version is highly effective; experiment E7
//! quantifies the effect.
//!
//! [`LruByteCache`] extends the same idea to the hot-read fast path: a
//! slave serving a flash crowd memoizes the *assembled* proof reply per
//! `(anchor, query)` so N readers of one hot key cost one O(log n) proof
//! build plus N pointer bumps.  Correctness never depends on the cache —
//! it stores only values the slave just computed, keys include the
//! anchoring stamp (version **and** timestamp), and the owner wipes it
//! wholesale whenever its replica state or anchor changes.

use crate::query::{Query, QueryResult};
use sdr_crypto::{Digest, Hash256, Sha256};
use std::collections::{HashMap, VecDeque};

/// A bounded FIFO cache of query results, keyed by version + query hash.
#[derive(Clone, Debug)]
pub struct QueryCache {
    map: HashMap<Hash256, QueryResult>,
    order: VecDeque<Hash256>,
    capacity: usize,
}

impl QueryCache {
    /// Creates a cache holding at most `capacity` results.
    pub fn new(capacity: usize) -> Self {
        QueryCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Cache key for a query at a content version.
    pub fn key(version: u64, query: &Query) -> Hash256 {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(b"sdr/cache/v1");
        buf.extend_from_slice(&version.to_be_bytes());
        query.encode_into(&mut buf);
        Sha256::digest(&buf)
    }

    /// Looks up a result.
    pub fn get(&self, version: u64, query: &Query) -> Option<QueryResult> {
        self.map.get(&Self::key(version, query)).cloned()
    }

    /// Inserts a result, evicting the oldest entry when full.
    pub fn put(&mut self, version: u64, query: &Query, result: QueryResult) {
        let key = Self::key(version, query);
        if self.map.contains_key(&key) {
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
            }
        }
        self.map.insert(key, result);
        self.order.push_back(key);
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops all entries.
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

/// A byte-budgeted LRU cache keyed by [`Hash256`].
///
/// Values carry an explicit byte weight supplied at insert time (the
/// store cannot size arbitrary `V`s itself); the cache evicts
/// least-recently-used entries until the total weight fits the budget.
/// Recency is a monotonic tick bumped on every get/put — eviction scans
/// for the minimum tick, which is O(entries) but entries are few (a
/// 1 MiB budget holds ~hundreds of proof replies) and eviction is rare
/// outside sustained cold scans.
///
/// The cache keeps no counters: its owner counts hits, misses,
/// evictions (the count `put` returns) and invalidations through its
/// own metrics.
#[derive(Clone, Debug)]
pub struct LruByteCache<V> {
    map: HashMap<Hash256, (V, usize, u64)>,
    budget: usize,
    bytes: usize,
    tick: u64,
}

impl<V> LruByteCache<V> {
    /// Creates a cache holding at most `budget` bytes of values.
    pub fn new(budget: usize) -> Self {
        LruByteCache {
            map: HashMap::new(),
            budget,
            bytes: 0,
            tick: 0,
        }
    }

    /// Looks up `key`, refreshing its recency.
    pub fn get(&mut self, key: &Hash256) -> Option<&V> {
        self.tick += 1;
        let (v, _, t) = self.map.get_mut(key)?;
        *t = self.tick;
        Some(&*v)
    }

    /// Inserts `value` weighing `bytes`, evicting LRU entries until the
    /// budget holds; returns how many entries were evicted.  A value
    /// bigger than the whole budget is not inserted (returns 0 evictions
    /// and leaves the cache untouched).
    pub fn put(&mut self, key: Hash256, value: V, bytes: usize) -> u64 {
        if bytes > self.budget {
            return 0;
        }
        self.tick += 1;
        if let Some((_, old_bytes, _)) = self.map.remove(&key) {
            self.bytes -= old_bytes;
        }
        let mut evicted = 0;
        while self.bytes + bytes > self.budget {
            let Some(lru) = self
                .map
                .iter()
                .min_by_key(|(_, (_, _, t))| *t)
                .map(|(k, _)| *k)
            else {
                break;
            };
            if let Some((_, b, _)) = self.map.remove(&lru) {
                self.bytes -= b;
            }
            evicted += 1;
        }
        self.map.insert(key, (value, bytes, self.tick));
        self.bytes += bytes;
        evicted
    }

    /// Drops all entries.
    pub fn clear(&mut self) {
        self.map.clear();
        self.bytes = 0;
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Current total byte weight of cached values.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn q(key: u64) -> Query {
        Query::GetRow {
            table: "t".into(),
            key,
        }
    }
    fn r(v: i64) -> QueryResult {
        QueryResult::Scalar(Value::Int(v))
    }

    #[test]
    fn hit_after_put() {
        let mut c = QueryCache::new(10);
        assert_eq!(c.get(1, &q(1)), None);
        c.put(1, &q(1), r(42));
        assert_eq!(c.get(1, &q(1)), Some(r(42)));
    }

    #[test]
    fn version_is_part_of_key() {
        let mut c = QueryCache::new(10);
        c.put(1, &q(1), r(42));
        assert_eq!(c.get(2, &q(1)), None, "stale version must miss");
    }

    #[test]
    fn eviction_is_fifo() {
        let mut c = QueryCache::new(2);
        c.put(1, &q(1), r(1));
        c.put(1, &q(2), r(2));
        c.put(1, &q(3), r(3)); // Evicts q(1).
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1, &q(1)), None);
        assert_eq!(c.get(1, &q(2)), Some(r(2)));
        assert_eq!(c.get(1, &q(3)), Some(r(3)));
    }

    #[test]
    fn duplicate_put_is_noop() {
        let mut c = QueryCache::new(2);
        c.put(1, &q(1), r(1));
        c.put(1, &q(1), r(99));
        assert_eq!(c.get(1, &q(1)), Some(r(1)));
        assert_eq!(c.len(), 1);
    }

    fn h(n: u8) -> Hash256 {
        Sha256::digest(&[n])
    }

    #[test]
    fn lru_hit_miss_and_bytes() {
        let mut c = LruByteCache::new(100);
        assert!(c.get(&h(1)).is_none());
        assert_eq!(c.put(h(1), "a", 40), 0);
        assert_eq!(c.get(&h(1)), Some(&"a"));
        assert_eq!(c.bytes(), 40);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = LruByteCache::new(100);
        c.put(h(1), 1u32, 40);
        c.put(h(2), 2u32, 40);
        let _ = c.get(&h(1)); // 1 is now fresher than 2.
        assert_eq!(c.put(h(3), 3u32, 40), 1); // Evicts 2.
        assert!(c.get(&h(2)).is_none());
        assert_eq!(c.get(&h(1)), Some(&1));
        assert_eq!(c.get(&h(3)), Some(&3));
        assert!(c.bytes() <= 100);
    }

    #[test]
    fn lru_oversized_value_is_skipped() {
        let mut c = LruByteCache::new(100);
        c.put(h(1), 1u32, 40);
        assert_eq!(c.put(h(2), 2u32, 101), 0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&h(1)), Some(&1));
    }

    #[test]
    fn lru_replace_updates_weight() {
        let mut c = LruByteCache::new(100);
        c.put(h(1), 1u32, 90);
        c.put(h(1), 2u32, 10);
        assert_eq!((c.bytes(), c.len()), (10, 1));
        assert_eq!(c.get(&h(1)), Some(&2));
    }

    #[test]
    fn lru_clear_drops_entries_and_weight() {
        let mut c = LruByteCache::new(100);
        c.put(h(1), 1u32, 10);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
        assert!(c.get(&h(1)).is_none());
    }
}
