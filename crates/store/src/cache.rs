//! Read-side caches: the execution memo every replica of a deployment
//! shares, the auditor's per-version result cache, and the slave's
//! byte-budgeted proof/reply cache.
//!
//! [`ExecMemo`] runs each computed query once per state.  The slaves,
//! the auditor and the double-checking master of the paper all re-execute
//! a pledged read against the same committed state; in a simulation they
//! share one host, so the host would repeat that work.  `execute` is a
//! pure function of the state that [`Database::state_digest`] commits to,
//! so a result keyed by `(state digest, query)` is right by construction.
//! The memo is byte-bounded ([`EXEC_MEMO_BUDGET`]) and admits no entry
//! heavier than an eighth of it, so one large filter result cannot flush
//! the small aggregates that make up most repeats.  It is host-only: a
//! hit hands back the stored [`QueryCost`], which callers charge exactly
//! as a fresh one, so modeled time never sees it.
//!
//! Section 3.4: the auditor "can, for certain types of applications …
//! employ query optimization mechanisms (cache results in the simplest
//! case)".  Because the auditor replays *every* pledged read, and popular
//! reads repeat, caching per version is highly effective; experiment E7
//! quantifies the effect.  [`QueryCache`] is that cache, FIFO over a
//! fixed number of entries and generic over what it keeps: the auditor
//! keeps only a result's size and hash, which is all the comparison and
//! its modeled charge need.
//!
//! [`LruByteCache`] extends the same idea to the hot-read fast path: a
//! slave serving a flash crowd memoizes the *assembled* proof reply per
//! `(anchor, query)` so N readers of one hot key cost one O(log n) proof
//! build plus N pointer bumps.  Correctness never depends on the cache —
//! it stores only values the slave just computed, keys include the
//! anchoring stamp (version **and** timestamp), and the owner wipes it
//! wholesale whenever its replica state or anchor changes.

use crate::database::Database;
use crate::error::StoreError;
use crate::exec::{execute, QueryCost};
use crate::query::{Query, QueryResult};
use sdr_crypto::{Digest, Hash256, Sha256};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// A bounded FIFO cache keyed by version + query hash; `V` is what is
/// kept per entry (a whole result by default).
#[derive(Clone, Debug)]
pub struct QueryCache<V = QueryResult> {
    map: HashMap<Hash256, V>,
    order: VecDeque<Hash256>,
    capacity: usize,
}

impl QueryCache {
    /// Cache key for a query at a content version (whatever the cache
    /// keeps).
    pub fn key(version: u64, query: &Query) -> Hash256 {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(b"sdr/cache/v1");
        buf.extend_from_slice(&version.to_be_bytes());
        query.encode_into(&mut buf);
        Sha256::digest(&buf)
    }
}

impl<V: Clone> QueryCache<V> {
    /// Creates a cache holding at most `capacity` results.
    pub fn new(capacity: usize) -> Self {
        QueryCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Looks up an entry.
    pub fn get(&self, version: u64, query: &Query) -> Option<V> {
        self.map.get(&QueryCache::key(version, query)).cloned()
    }

    /// Inserts an entry, evicting the oldest one when full.
    pub fn put(&mut self, version: u64, query: &Query, result: V) {
        let key = QueryCache::key(version, query);
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

/// Byte budget of an [`ExecMemo`], weighed by [`QueryResult::size`].
pub const EXEC_MEMO_BUDGET: usize = 256 << 10;

/// Host-side counters of an [`ExecMemo`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecMemoStats {
    /// Computed queries answered from the memo.
    pub hits: u64,
    /// Computed queries executed (admitted or not).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Current weight of the held results.
    pub bytes: usize,
    /// Highest weight ever held.
    pub peak_bytes: usize,
}

/// Runs each computed query once per state: a byte-bounded LRU of
/// shared `(result, cost)` pairs keyed by `(state digest, query)`,
/// itself shared by cloning the handle.
///
/// Only the computed kinds (`Filter`, `Aggregate`, `Join`, `Grep`,
/// `ListFiles`) consult it; every other query executes directly, since
/// point reads, scans and file reads are cheap and proof reads have
/// their own reply cache.  Errors are not memoised.  The handle is an
/// `Rc`: the simulator is single-threaded and every replica of one
/// deployment holds a clone.
#[derive(Clone, Debug)]
pub struct ExecMemo {
    inner: Rc<RefCell<MemoInner>>,
}

#[derive(Debug)]
struct MemoInner {
    lru: LruByteCache<Arc<(QueryResult, QueryCost)>>,
    /// Heaviest admitted result: an eighth of the budget.
    max_entry: usize,
    /// Re-execute on every hit and panic on any difference.
    check_hits: bool,
    stats: ExecMemoStats,
}

impl Default for ExecMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecMemo {
    /// Creates an empty memo of [`EXEC_MEMO_BUDGET`] bytes.
    pub fn new() -> Self {
        Self::with_budget(EXEC_MEMO_BUDGET)
    }

    fn with_budget(budget: usize) -> Self {
        ExecMemo {
            inner: Rc::new(RefCell::new(MemoInner {
                lru: LruByteCache::new(budget),
                max_entry: budget / 8,
                check_hits: false,
                stats: ExecMemoStats::default(),
            })),
        }
    }

    /// Turns the hit check on or off: when on, every hit is re-executed
    /// fresh and a difference panics.
    pub fn check_hits(self, on: bool) -> Self {
        self.inner.borrow_mut().check_hits = on;
        self
    }

    /// Executes `query` against `db`, or hands back the result of an
    /// earlier execution against a state with the same digest.
    pub fn execute(
        &self,
        db: &Database,
        query: &Query,
    ) -> Result<Arc<(QueryResult, QueryCost)>, StoreError> {
        if !is_computed(query) {
            return execute(db, query).map(Arc::new);
        }
        let key = Sha256::digest_parts(&[
            b"sdr/exec-memo/v1",
            db.state_digest().as_ref(),
            &query.encode(),
        ]);
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        if let Some(hit) = inner.lru.get(&key).cloned() {
            inner.stats.hits += 1;
            if inner.check_hits {
                let (result, cost) = execute(db, query).expect("a memoised query re-executes");
                assert!(
                    result.encode() == hit.0.encode() && cost == hit.1,
                    "exec memo hit differs from a fresh execution of {query:?}"
                );
            }
            return Ok(hit);
        }
        inner.stats.misses += 1;
        let fresh = Arc::new(execute(db, query)?);
        let bytes = fresh.0.size();
        if bytes <= inner.max_entry {
            inner.stats.evictions += inner.lru.put(key, Arc::clone(&fresh), bytes);
            inner.stats.peak_bytes = inner.stats.peak_bytes.max(inner.lru.bytes());
        }
        Ok(fresh)
    }

    /// Hits, misses, evictions and bytes so far.
    pub fn stats(&self) -> ExecMemoStats {
        let inner = self.inner.borrow();
        ExecMemoStats {
            bytes: inner.lru.bytes(),
            ..inner.stats
        }
    }
}

/// Whether `query` is one of the kinds the memo keeps.
fn is_computed(query: &Query) -> bool {
    matches!(
        query,
        Query::Filter { .. }
            | Query::Aggregate { .. }
            | Query::Join { .. }
            | Query::Grep { .. }
            | Query::ListFiles { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Document;
    use crate::predicate::{CmpOp, Predicate};
    use crate::query::Aggregate;
    use crate::update::UpdateOp;
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

    /// Two tables and two files: enough for every computed kind.
    fn memo_db() -> Database {
        let mut db = Database::new();
        let mut ops = vec![
            UpdateOp::CreateTable {
                table: "t".into(),
                indexes: vec!["cat".into()],
            },
            UpdateOp::CreateTable {
                table: "u".into(),
                indexes: vec![],
            },
            UpdateOp::WriteFile {
                path: "/docs/a".into(),
                contents: "anvil: best in class\n".into(),
            },
            UpdateOp::WriteFile {
                path: "/docs/b".into(),
                contents: "rope: strong\n".into(),
            },
        ];
        for i in 1..=64u64 {
            ops.push(UpdateOp::Insert {
                table: "t".into(),
                key: i,
                doc: Document::new()
                    .with("n", i as i64)
                    .with("cat", if i % 2 == 0 { "even" } else { "odds" })
                    .with("pad", "x".repeat(32)),
            });
            ops.push(UpdateOp::Insert {
                table: "u".into(),
                key: i,
                doc: Document::new()
                    .with("ref", i as i64)
                    .with("stars", (i % 5) as i64),
            });
        }
        db.apply_write(&ops).unwrap();
        db
    }

    /// `n <= k`: `k` rows of equal weight.
    fn first_rows(k: i64) -> Query {
        Query::Filter {
            table: "t".into(),
            predicate: Predicate::cmp("n", CmpOp::Le, k),
            projection: None,
            limit: None,
        }
    }

    fn computed_queries() -> Vec<Query> {
        vec![
            first_rows(3),
            Query::Aggregate {
                table: "t".into(),
                predicate: Predicate::True,
                agg: Aggregate::Sum("n".into()),
                group_by: Some("cat".into()),
            },
            Query::Join {
                left: "t".into(),
                right: "u".into(),
                left_field: "n".into(),
                right_field: "ref".into(),
                predicate: Predicate::cmp("r.stars", CmpOp::Ge, 4i64),
                limit: Some(4),
            },
            Query::Grep {
                pattern: "best*class".into(),
                prefix: "/docs".into(),
            },
            Query::ListFiles {
                prefix: "/docs".into(),
            },
        ]
    }

    #[test]
    fn memo_hit_equals_a_fresh_execution_for_every_computed_kind() {
        let db = memo_db();
        let memo = ExecMemo::new().check_hits(true);
        for (i, query) in computed_queries().iter().enumerate() {
            let fresh = execute(&db, query).unwrap();
            let miss = memo.execute(&db, query).unwrap();
            let hit = memo.execute(&db, query).unwrap();
            assert_eq!(*miss, fresh, "{query:?}");
            assert_eq!(*hit, fresh, "{query:?}");
            assert!(Arc::ptr_eq(&miss, &hit), "{query:?} executed twice");
            let stats = memo.stats();
            assert_eq!((stats.hits, stats.misses), (i as u64 + 1, i as u64 + 1));
        }
    }

    #[test]
    fn memo_is_keyed_by_state_and_query() {
        let mut db = memo_db();
        let memo = ExecMemo::new();
        let query = first_rows(2);
        memo.execute(&db, &query).unwrap();
        // A clone holds the same state: the replica does not matter.
        memo.execute(&db.clone(), &query).unwrap();
        assert_eq!(memo.stats().hits, 1);
        // Another query misses.
        memo.execute(&db, &first_rows(1)).unwrap();
        assert_eq!(memo.stats().misses, 2);
        // A write moves the digest, so the same query misses and sees it.
        db.apply_write(&[UpdateOp::Delete {
            table: "t".into(),
            key: 1,
        }])
        .unwrap();
        let after = memo.execute(&db, &query).unwrap();
        assert_eq!(*after, execute(&db, &query).unwrap());
        assert_eq!(after.0.row_count(), 1);
        assert_eq!((memo.stats().hits, memo.stats().misses), (1, 3));
    }

    #[test]
    fn memo_bypasses_provable_kinds() {
        let db = memo_db();
        let memo = ExecMemo::new();
        for query in [
            Query::GetRow {
                table: "t".into(),
                key: 1,
            },
            Query::ScanRange {
                table: "t".into(),
                start: 1,
                end: 9,
            },
            Query::ReadFile {
                path: "/docs/a".into(),
            },
            Query::ReadFileRange {
                path: "/docs/a".into(),
                offset: 0,
                len: 4,
            },
        ] {
            let a = memo.execute(&db, &query).unwrap();
            let b = memo.execute(&db, &query).unwrap();
            assert_eq!(*a, execute(&db, &query).unwrap());
            assert!(!Arc::ptr_eq(&a, &b), "{query:?} was memoised");
        }
        assert_eq!(memo.stats(), ExecMemoStats::default());
    }

    #[test]
    fn memo_errors_pass_through_uncached() {
        let db = memo_db();
        let memo = ExecMemo::new();
        let bad = Query::Grep {
            pattern: "[oops".into(),
            prefix: "/".into(),
        };
        assert!(memo.execute(&db, &bad).is_err());
        assert!(memo.execute(&db, &bad).is_err());
        assert_eq!((memo.stats().hits, memo.stats().bytes), (0, 0));
    }

    #[test]
    fn memo_budget_holds_and_the_admission_cap_evicts_nothing() {
        let db = memo_db();
        let row = execute(&db, &first_rows(1)).unwrap().0.size();
        // Holds 32 one-row results; admits up to four rows.
        let memo = ExecMemo::with_budget(32 * row);
        for k in 1..=3 {
            memo.execute(&db, &first_rows(k)).unwrap();
        }
        // The weight is the sum of the entries' result sizes.
        assert_eq!(memo.stats().bytes, 6 * row);
        memo.execute(&db, &first_rows(2)).unwrap();
        assert_eq!(memo.stats().bytes, 6 * row, "a hit adds no weight");

        // Five rows is over the cap: executed, not admitted, nothing
        // evicted, and a second call misses again.
        let before = memo.stats();
        for _ in 0..2 {
            let big = memo.execute(&db, &first_rows(5)).unwrap();
            assert_eq!(big.0.row_count(), 5);
        }
        let after = memo.stats();
        assert_eq!(after.misses, before.misses + 2);
        assert_eq!((after.bytes, after.evictions), (before.bytes, 0));

        // One-row filters past the budget evict least recently used.
        for n in 1..=64i64 {
            let one = Query::Filter {
                table: "t".into(),
                predicate: Predicate::cmp("n", CmpOp::Eq, n),
                projection: None,
                limit: None,
            };
            memo.execute(&db, &one).unwrap();
            assert!(memo.stats().bytes <= 32 * row);
        }
        let full = memo.stats();
        assert!(full.evictions > 0);
        assert_eq!(full.bytes, 32 * row, "32 equal entries fill the budget");
        assert_eq!(full.peak_bytes, 32 * row);
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
