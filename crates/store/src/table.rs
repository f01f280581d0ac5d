//! Tables: primary-keyed rows with maintained secondary indexes.

use crate::document::Document;
use crate::error::StoreError;
use crate::pmap::{MerkleContent, PMap};
use crate::value::Value;
use sdr_crypto::Hash256;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One secondary index: indexed value → set of primary keys.
///
/// The value map is persistent and the posting sets sit behind [`Arc`],
/// so a post-snapshot write clones only the one bucket it touches, not
/// the whole index.
type FieldIndex = PMap<Value, Arc<BTreeSet<u64>>>;

/// Adds `key` to the index bucket for `value`, creating the bucket when
/// absent.
fn bucket_insert(index: &mut FieldIndex, value: &Value, key: u64) {
    match index.get_mut(value) {
        Some(set) => {
            Arc::make_mut(set).insert(key);
        }
        None => {
            index.insert(value.clone(), Arc::new(BTreeSet::from([key])));
        }
    }
}

/// A table of documents keyed by a `u64` primary key, with optional
/// secondary indexes on document fields.
///
/// Rows and index buckets live in persistent ([`PMap`]) structures, so
/// cloning a table is O(1) and mutating it copies only the touched paths
/// — older clones (snapshots) keep seeing the state they captured.
/// Indexes are maintained eagerly on every mutation; lookups through
/// [`Table::index_keys`] are `O(log n)` instead of a full scan, and the
/// executor reports which path it took via its cost structure.
#[derive(Clone, Debug, Default)]
pub struct Table {
    name: String,
    /// Proofs read the row map directly ([`crate::proof`]).
    pub(crate) rows: PMap<u64, Document>,
    /// Outer registry is a plain map — there are only ever a handful of
    /// indexed fields, and each [`FieldIndex`] clones in O(1).
    indexes: BTreeMap<String, FieldIndex>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>) -> Self {
        Table {
            name: name.into(),
            rows: PMap::new(),
            indexes: BTreeMap::new(),
        }
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Creates a secondary index on `field`, building it from existing
    /// rows.  Idempotent.
    pub fn create_index(&mut self, field: impl Into<String>) {
        let field = field.into();
        if self.indexes.contains_key(&field) {
            return;
        }
        let mut index = FieldIndex::new();
        for (&key, doc) in self.rows.iter() {
            if let Some(v) = doc.get(&field) {
                bucket_insert(&mut index, v, key);
            }
        }
        self.indexes.insert(field, index);
    }

    /// Whether `field` has a secondary index.
    pub fn has_index(&self, field: &str) -> bool {
        self.indexes.contains_key(field)
    }

    /// Names of indexed fields.
    pub fn indexed_fields(&self) -> impl Iterator<Item = &str> {
        self.indexes.keys().map(String::as_str)
    }

    fn index_insert(&mut self, key: u64, doc: &Document) {
        for (field, index) in &mut self.indexes {
            if let Some(v) = doc.get(field) {
                bucket_insert(index, v, key);
            }
        }
    }

    fn index_remove(&mut self, key: u64, doc: &Document) {
        for (field, index) in &mut self.indexes {
            if let Some(v) = doc.get(field) {
                let emptied = match index.get_mut(v) {
                    Some(set) => {
                        let set = Arc::make_mut(set);
                        set.remove(&key);
                        set.is_empty()
                    }
                    None => false,
                };
                if emptied {
                    index.remove(v);
                }
            }
        }
    }

    /// Inserts a new row; fails if the key exists.
    pub fn insert(&mut self, key: u64, doc: Document) -> Result<(), StoreError> {
        if self.rows.contains_key(&key) {
            return Err(StoreError::KeyExists(key));
        }
        self.index_insert(key, &doc);
        self.rows.insert(key, doc);
        Ok(())
    }

    /// Inserts or replaces a row.
    pub fn upsert(&mut self, key: u64, doc: Document) {
        if let Some(old) = self.rows.remove(&key) {
            self.index_remove(key, &old);
        }
        self.index_insert(key, &doc);
        self.rows.insert(key, doc);
    }

    /// Merges `changes` into an existing row; fails if the key is absent.
    pub fn update(&mut self, key: u64, changes: &Document) -> Result<(), StoreError> {
        let Some(old) = self.rows.remove(&key) else {
            return Err(StoreError::NoSuchKey(key));
        };
        self.index_remove(key, &old);
        let mut merged = old;
        for (f, v) in changes.iter() {
            merged.set(f, v.clone());
        }
        self.index_insert(key, &merged);
        self.rows.insert(key, merged);
        Ok(())
    }

    /// Deletes a row; fails if the key is absent.
    pub fn delete(&mut self, key: u64) -> Result<Document, StoreError> {
        let Some(old) = self.rows.remove(&key) else {
            return Err(StoreError::NoSuchKey(key));
        };
        self.index_remove(key, &old);
        Ok(old)
    }

    /// Reads a row.
    pub fn get(&self, key: u64) -> Option<&Document> {
        self.rows.get(&key)
    }

    /// Iterates all rows in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Document)> {
        self.rows.iter().map(|(&k, d)| (k, d))
    }

    /// Iterates rows with keys in `[low, high]`.
    pub fn range(&self, low: u64, high: u64) -> impl Iterator<Item = (u64, &Document)> {
        self.rows
            .iter_from(&low)
            .take_while(move |(&k, _)| k <= high)
            .map(|(&k, d)| (k, d))
    }

    /// Primary keys whose `field` equals `value`, via the secondary index.
    ///
    /// Returns `None` when the field is not indexed (caller must scan).
    pub fn index_keys(&self, field: &str, value: &Value) -> Option<Vec<u64>> {
        self.indexes.get(field).map(|idx| {
            idx.get(value)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default()
        })
    }

    /// The Merkle digest of the row set (cached; see [`PMap::root_hash`]).
    pub fn rows_digest(&self) -> Hash256 {
        self.rows.root_hash()
    }

    /// Rows with `start <= key < end`, ascending (the half-open scan a
    /// [`Database::prove_scan`](crate::Database::prove_scan) proof covers).
    pub fn scan(&self, start: u64, end: u64) -> impl Iterator<Item = (u64, &Document)> {
        self.rows
            .iter_from(&start)
            .take_while(move |(&k, _)| k < end)
            .map(|(&k, d)| (k, d))
    }

    /// Shared-vs-owned node counts over rows and index buckets
    /// (memory telemetry).  `ancestor_shared` marks a table reached
    /// through an already-shared container node.
    pub fn node_stats_inherited(&self, ancestor_shared: bool) -> crate::pmap::NodeStats {
        let mut out = self.rows.node_stats_inherited(ancestor_shared);
        for index in self.indexes.values() {
            out.merge(index.node_stats_inherited(ancestor_shared));
        }
        out
    }

    /// Shared-vs-owned node counts over rows and index buckets
    /// (memory telemetry).
    pub fn node_stats(&self) -> crate::pmap::NodeStats {
        self.node_stats_inherited(false)
    }

    /// Appends a canonical encoding of the full table state (a linear
    /// scan — digests should prefer [`Table::rows_digest`]).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.name.len() as u32).to_be_bytes());
        out.extend_from_slice(self.name.as_bytes());
        out.extend_from_slice(&(self.rows.len() as u64).to_be_bytes());
        for (k, doc) in self.rows.iter() {
            out.extend_from_slice(&k.to_be_bytes());
            doc.encode_into(out);
        }
    }

    /// Approximate total size in bytes.
    pub fn size(&self) -> usize {
        self.rows.iter().map(|(_, d)| 8 + d.size()).sum()
    }
}

impl MerkleContent for Table {
    /// Tables contribute their cached row-set digest (indexes are derived
    /// data and stay outside the authenticated state; the table name is
    /// the entry key and is hashed by the containing map).
    fn content_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.rows.len() as u64).to_be_bytes());
        out.extend_from_slice(self.rows.root_hash().as_ref());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn product(name: &str, price: i64, cat: &str) -> Document {
        Document::new()
            .with("name", name)
            .with("price", price)
            .with("category", cat)
    }

    fn table() -> Table {
        let mut t = Table::new("products");
        t.create_index("category");
        t.insert(1, product("anvil", 100, "tools")).unwrap();
        t.insert(2, product("rope", 10, "tools")).unwrap();
        t.insert(3, product("tnt", 50, "explosives")).unwrap();
        t
    }

    #[test]
    fn insert_get_len() {
        let t = table();
        assert_eq!(t.len(), 3);
        assert_eq!(
            t.get(1).unwrap().get("name"),
            Some(&Value::Str("anvil".into()))
        );
        assert!(t.get(99).is_none());
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut t = table();
        assert_eq!(
            t.insert(1, Document::new()),
            Err(StoreError::KeyExists(1))
        );
    }

    #[test]
    fn index_lookup() {
        let t = table();
        assert_eq!(
            t.index_keys("category", &Value::Str("tools".into())),
            Some(vec![1, 2])
        );
        assert_eq!(
            t.index_keys("category", &Value::Str("food".into())),
            Some(vec![])
        );
        assert_eq!(t.index_keys("price", &Value::Int(10)), None);
    }

    #[test]
    fn index_maintained_on_update() {
        let mut t = table();
        t.update(2, &Document::new().with("category", "marine"))
            .unwrap();
        assert_eq!(
            t.index_keys("category", &Value::Str("tools".into())),
            Some(vec![1])
        );
        assert_eq!(
            t.index_keys("category", &Value::Str("marine".into())),
            Some(vec![2])
        );
        // Other fields survive the merge.
        assert_eq!(t.get(2).unwrap().get("price"), Some(&Value::Int(10)));
    }

    #[test]
    fn index_maintained_on_delete() {
        let mut t = table();
        t.delete(3).unwrap();
        assert_eq!(
            t.index_keys("category", &Value::Str("explosives".into())),
            Some(vec![])
        );
        assert_eq!(t.delete(3), Err(StoreError::NoSuchKey(3)));
    }

    #[test]
    fn index_created_after_rows_exist() {
        let mut t = table();
        t.create_index("price");
        assert_eq!(t.index_keys("price", &Value::Int(50)), Some(vec![3]));
    }

    #[test]
    fn upsert_replaces_and_reindexes() {
        let mut t = table();
        t.upsert(1, product("anvil-xl", 200, "heavy"));
        assert_eq!(
            t.index_keys("category", &Value::Str("heavy".into())),
            Some(vec![1])
        );
        assert_eq!(
            t.index_keys("category", &Value::Str("tools".into())),
            Some(vec![2])
        );
    }

    #[test]
    fn range_by_primary_key() {
        let t = table();
        let keys: Vec<u64> = t.range(2, 3).map(|(k, _)| k).collect();
        assert_eq!(keys, vec![2, 3]);
    }

    #[test]
    fn encoding_deterministic_and_content_sensitive() {
        let a = table();
        let b = table();
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        a.encode_into(&mut ea);
        b.encode_into(&mut eb);
        assert_eq!(ea, eb);

        let mut c = table();
        c.delete(1).unwrap();
        let mut ec = Vec::new();
        c.encode_into(&mut ec);
        assert_ne!(ea, ec);
    }

    #[test]
    fn update_missing_key_fails() {
        let mut t = table();
        assert_eq!(
            t.update(42, &Document::new()),
            Err(StoreError::NoSuchKey(42))
        );
    }

    #[test]
    fn clone_is_o1_snapshot_isolated_from_writes() {
        let mut t = table();
        let snap = t.clone();
        let snap_digest = snap.rows_digest();
        t.upsert(1, product("anvil-xl", 200, "heavy"));
        t.delete(2).unwrap();
        assert_eq!(snap.len(), 3);
        assert_eq!(
            snap.get(1).unwrap().get("name"),
            Some(&Value::Str("anvil".into()))
        );
        assert_eq!(
            snap.index_keys("category", &Value::Str("tools".into())),
            Some(vec![1, 2])
        );
        assert_eq!(snap.rows_digest(), snap_digest);
        assert_ne!(t.rows_digest(), snap_digest);
    }

    #[test]
    fn rows_digest_is_content_only() {
        // Same rows reached via different histories digest identically.
        let a = table();
        let mut b = Table::new("products");
        b.create_index("category");
        b.insert(3, product("tnt", 50, "explosives")).unwrap();
        b.insert(1, product("old", 1, "junk")).unwrap();
        b.insert(2, product("rope", 10, "tools")).unwrap();
        b.upsert(1, product("anvil", 100, "tools"));
        assert_eq!(a.rows_digest(), b.rows_digest());
    }
}
