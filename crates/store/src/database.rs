//! The content container: named tables, a file system, and the version.

use crate::error::StoreError;
use crate::fsview::FsView;
use crate::pmap::PMap;
use crate::table::Table;
use crate::update::UpdateOp;
use sdr_crypto::{Digest, Hash256, Sha256};

/// The replicated data content: tables plus a file-system view, stamped
/// with the paper's `content_version` counter.
///
/// The version is bumped *only* by [`Database::apply_write`] — one
/// committed write request per increment, exactly as in Section 3.1 ("each
/// master executes the request and increments … `content_version`").
///
/// # Persistence and cost model
///
/// All content lives in persistent ([`PMap`]) structures, so:
///
/// * `clone()` is **O(1)** — a handful of reference-count bumps.  Version
///   snapshots ([`crate::snapshot::SnapshotStore`]) and the pre-write
///   rollback handle are therefore free, no matter the dataset size.
/// * Writes copy only the touched paths (O(log n) nodes per touched row
///   or file); everything else stays shared with earlier snapshots.
/// * [`Database::state_digest`] folds cached Merkle subtree hashes, so
///   after a point write it re-hashes O(log n) nodes instead of
///   re-encoding the whole state.
///
/// # Examples
///
/// ```
/// use sdr_store::{execute, Database, Document, Query, UpdateOp};
///
/// let mut db = Database::new();
/// db.apply_write(&[
///     UpdateOp::CreateTable { table: "t".into(), indexes: vec![] },
///     UpdateOp::Insert {
///         table: "t".into(),
///         key: 1,
///         doc: Document::new().with("name", "anvil"),
///     },
/// ])
/// .unwrap();
/// assert_eq!(db.version(), 1);
///
/// let (result, cost) = execute(&db, &Query::GetRow { table: "t".into(), key: 1 }).unwrap();
/// assert_eq!(result.row_count(), 1);
/// assert_eq!(cost.index_probes, 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Database {
    /// Proofs read the table map directly ([`crate::proof`]).
    pub(crate) tables: PMap<String, Table>,
    fs: FsView,
    version: u64,
}

impl Database {
    /// Creates an empty database at version 0.
    pub fn new() -> Self {
        Database::default()
    }

    /// The current `content_version`.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Creates an empty table; fails when the name is taken.
    pub fn create_table(&mut self, name: &str) -> Result<(), StoreError> {
        if self.tables.contains_key(name) {
            return Err(StoreError::TableExists(name.to_string()));
        }
        self.tables.insert(name.to_string(), Table::new(name));
        Ok(())
    }

    /// Read access to a table.
    pub fn table(&self, name: &str) -> Result<&Table, StoreError> {
        self.tables
            .get(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.to_string()))
    }

    /// Write access to a table.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, StoreError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.to_string()))
    }

    /// Names of all tables.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.iter().map(|(k, _)| k.as_str())
    }

    /// Read access to the file-system view.
    pub fn fs(&self) -> &FsView {
        &self.fs
    }

    /// Write access to the file-system view.
    pub fn fs_mut(&mut self) -> &mut FsView {
        &mut self.fs
    }

    /// Applies a committed write request (a batch of operations) and bumps
    /// `content_version` by one.
    ///
    /// The batch is transactional in the failure-free sense the protocol
    /// needs: operations apply in order, and the first error aborts with
    /// the version untouched and prior ops of the batch rolled back by
    /// restoring the pre-write handle (an O(1) structural-sharing clone,
    /// not a deep copy).
    pub fn apply_write(&mut self, ops: &[UpdateOp]) -> Result<u64, StoreError> {
        let backup = self.clone();
        for op in ops {
            if let Err(e) = op.apply(self) {
                *self = backup;
                return Err(e);
            }
        }
        self.version += 1;
        Ok(self.version)
    }

    /// Digest of the full state *including* the version counter.
    ///
    /// Two replicas agree on content iff their digests match; tests and the
    /// audit mechanism compare these.  The digest folds the cached Merkle
    /// roots of the table set and the file tree, so it is O(log n)
    /// amortized after a point write (and O(1) when nothing changed); the
    /// underlying trees are history-independent, so equal content always
    /// produces equal digests regardless of the op sequence that built it.
    ///
    /// Because the folded roots are *search-tree* digests, the same value
    /// also anchors authenticated point reads: see [`crate::proof`].
    pub fn state_digest(&self) -> Hash256 {
        digest_from_parts(
            self.version,
            self.tables.len() as u32,
            &self.tables.root_hash(),
            &self.fs.files_digest(),
        )
    }

    /// Root digest of the table map (proof plumbing).
    pub fn tables_root(&self) -> Hash256 {
        self.tables.root_hash()
    }

    /// Number of tables (part of the state-digest preimage).
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Shared-vs-owned node counts across every persistent structure in
    /// this handle (tables, their rows and indexes, and the file tree) —
    /// O(n) memory telemetry, not a hot path.  Sharing is transitive: a
    /// table whose *container node* is shared counts its rows shared
    /// too, since the other handle reaches them through that node.
    pub fn node_stats(&self) -> crate::pmap::NodeStats {
        let mut out = crate::pmap::NodeStats::default();
        self.tables.visit_nodes(false, &mut |table: &Table, shared| {
            if shared {
                out.shared += 1;
            } else {
                out.owned += 1;
            }
            out.merge(table.node_stats_inherited(shared));
        });
        out.merge(self.fs.node_stats());
        out
    }

    /// Approximate total content size in bytes.
    pub fn size(&self) -> usize {
        self.tables.iter().map(|(_, t)| t.size()).sum::<usize>() + self.fs.total_bytes()
    }
}

/// Rebuilds the state digest from its authenticated parts.
///
/// Shared by [`Database::state_digest`] and proof verification
/// ([`crate::proof`]): a verifier that has folded a proof into a
/// `tables_root`/`files_root` pair recomputes the digest with exactly the
/// preimage layout the producer used.
pub fn digest_from_parts(
    version: u64,
    table_count: u32,
    tables_root: &Hash256,
    files_root: &Hash256,
) -> Hash256 {
    // v4: the files root commits to per-file *chunk manifests* (see
    // `crate::chunk`), not raw contents.  The domain bump makes digests
    // from the pre-chunking layout verifiably distinct — an old
    // single-leaf state can never be passed off as a chunked one.
    let mut buf = Vec::with_capacity(96);
    buf.extend_from_slice(b"sdr/state/v4");
    buf.extend_from_slice(&version.to_be_bytes());
    buf.extend_from_slice(&table_count.to_be_bytes());
    buf.extend_from_slice(tables_root.as_ref());
    buf.extend_from_slice(files_root.as_ref());
    Sha256::digest(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Document;
    use crate::value::Value;

    fn insert_op(key: u64, v: i64) -> UpdateOp {
        UpdateOp::Insert {
            table: "t".into(),
            key,
            doc: Document::new().with("v", v),
        }
    }

    #[test]
    fn version_bumps_only_on_apply_write() {
        let mut db = Database::new();
        assert_eq!(db.version(), 0);
        db.apply_write(&[UpdateOp::CreateTable {
            table: "t".into(),
            indexes: vec![],
        }])
        .unwrap();
        assert_eq!(db.version(), 1);
        db.apply_write(&[insert_op(1, 10), insert_op(2, 20)]).unwrap();
        assert_eq!(db.version(), 2);
    }

    #[test]
    fn failed_batch_rolls_back() {
        let mut db = Database::new();
        db.apply_write(&[UpdateOp::CreateTable {
            table: "t".into(),
            indexes: vec![],
        }])
        .unwrap();
        db.apply_write(&[insert_op(1, 10)]).unwrap();
        let digest_before = db.state_digest();

        // Second op fails (duplicate key): first op must roll back too.
        let err = db.apply_write(&[insert_op(5, 50), insert_op(1, 99)]);
        assert_eq!(err, Err(StoreError::KeyExists(1)));
        assert_eq!(db.version(), 2);
        assert_eq!(db.state_digest(), digest_before);
        assert!(db.table("t").unwrap().get(5).is_none());
    }

    #[test]
    fn digest_tracks_content_and_version() {
        let mut a = Database::new();
        let mut b = Database::new();
        let setup = UpdateOp::CreateTable {
            table: "t".into(),
            indexes: vec![],
        };
        a.apply_write(std::slice::from_ref(&setup)).unwrap();
        b.apply_write(std::slice::from_ref(&setup)).unwrap();
        assert_eq!(a.state_digest(), b.state_digest());

        a.apply_write(&[insert_op(1, 1)]).unwrap();
        assert_ne!(a.state_digest(), b.state_digest());

        b.apply_write(&[insert_op(1, 1)]).unwrap();
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = Database::new();
        db.create_table("x").unwrap();
        assert_eq!(
            db.create_table("x"),
            Err(StoreError::TableExists("x".into()))
        );
    }

    #[test]
    fn table_names_listed() {
        let mut db = Database::new();
        db.create_table("b").unwrap();
        db.create_table("a").unwrap();
        let names: Vec<&str> = db.table_names().collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn clone_is_a_cheap_isolated_snapshot() {
        let mut db = Database::new();
        db.apply_write(&[UpdateOp::CreateTable {
            table: "t".into(),
            indexes: vec![],
        }])
        .unwrap();
        db.apply_write(&[insert_op(1, 10)]).unwrap();
        db.apply_write(&[UpdateOp::WriteFile {
            path: "/a".into(),
            contents: "one".into(),
        }])
        .unwrap();

        let snap = db.clone();
        let snap_digest = snap.state_digest();

        db.apply_write(&[insert_op(2, 20)]).unwrap();
        db.apply_write(&[UpdateOp::AppendFile {
            path: "/a".into(),
            contents: "two".into(),
        }])
        .unwrap();

        // The snapshot still sees the captured state, digest included.
        assert_eq!(snap.version(), 3);
        assert!(snap.table("t").unwrap().get(2).is_none());
        assert_eq!(snap.fs().read("/a").as_deref(), Some("one"));
        assert_eq!(snap.state_digest(), snap_digest);
        assert_ne!(db.state_digest(), snap_digest);
    }

    #[test]
    fn writes_leave_shared_rows_in_snapshots_and_results_unchanged() {
        let mut db = Database::new();
        db.apply_write(&[
            UpdateOp::CreateTable {
                table: "t".into(),
                indexes: vec!["v".into()],
            },
            insert_op(1, 10),
            insert_op(2, 20),
        ])
        .unwrap();
        let row = db.table("t").unwrap().get(1).unwrap().clone();
        let snap = db.clone();
        let digest = snap.state_digest();
        let query = crate::query::Query::Range {
            table: "t".into(),
            low: 0,
            high: 10,
            limit: None,
        };
        let (result, _) = crate::exec::execute(&db, &query).unwrap();
        let result_hash = result.sha256();

        db.apply_write(&[
            UpdateOp::Update {
                table: "t".into(),
                key: 1,
                changes: Document::new().with("v", 11i64).with("w", 1i64),
            },
            UpdateOp::Delete {
                table: "t".into(),
                key: 2,
            },
        ])
        .unwrap();

        assert_eq!(
            db.table("t").unwrap().get(1).unwrap().get("v"),
            Some(&Value::Int(11))
        );
        assert_eq!(row, Document::new().with("v", 10i64));
        assert_eq!(snap.table("t").unwrap().get(1), Some(&row));
        assert_eq!(
            snap.table("t").unwrap().get(2),
            Some(&Document::new().with("v", 20i64))
        );
        assert_eq!(snap.state_digest(), digest);
        assert_eq!(result.sha256(), result_hash);
        assert_eq!(crate::exec::execute(&snap, &query).unwrap().0, result);
    }

    #[test]
    fn state_domain_v4_rejects_v3_layout_digests() {
        // A digest built with the pre-chunking domain tag over the same
        // roots must not match: old single-leaf states cannot be passed
        // off under the chunked domain (or vice versa).
        let mut db = Database::new();
        db.apply_write(&[UpdateOp::WriteFile {
            path: "/a".into(),
            contents: "one".into(),
        }])
        .unwrap();
        let mut buf = Vec::with_capacity(96);
        buf.extend_from_slice(b"sdr/state/v3");
        buf.extend_from_slice(&db.version().to_be_bytes());
        buf.extend_from_slice(&(db.table_count() as u32).to_be_bytes());
        buf.extend_from_slice(db.tables_root().as_ref());
        buf.extend_from_slice(db.fs().files_digest().as_ref());
        let v3_digest = Sha256::digest(&buf);
        assert_ne!(db.state_digest(), v3_digest);
    }

    #[test]
    fn digest_is_history_independent() {
        // Equal content reached via different op orders (including a
        // rollback on one side) digests identically.
        let mut a = Database::new();
        a.apply_write(&[
            UpdateOp::CreateTable {
                table: "t".into(),
                indexes: vec![],
            },
            insert_op(1, 1),
            insert_op(2, 2),
        ])
        .unwrap();

        let mut b = Database::new();
        b.apply_write(&[
            UpdateOp::CreateTable {
                table: "t".into(),
                indexes: vec![],
            },
            insert_op(2, 2),
            insert_op(3, 3),
            UpdateOp::Delete {
                table: "t".into(),
                key: 3,
            },
            insert_op(1, 1),
        ])
        .unwrap();
        // A failed batch must leave no trace in the digest either.
        assert!(b.apply_write(&[insert_op(9, 9), insert_op(1, 0)]).is_err());
        assert_eq!(a.state_digest(), b.state_digest());
    }
}
