//! The per-version history: each retained version's state and the ops
//! that produced it.
//!
//! Section 3.5: after a delayed discovery "the harm may be undone, by
//! rolling back the client to the state before that particular read".
//! Masters keep a bounded ring of per-version snapshots so any recent
//! version can be re-materialised for re-execution or rollback.  The same
//! ring serves lazy-update catch-up (Section 3.1): each entry also holds
//! the ops that produced its version, so [`SnapshotStore::writes_from`]
//! replays what a lagging slave missed.
//!
//! Because [`Database`] is persistent, [`SnapshotStore::record`] retains
//! an O(1) structural-sharing handle, not a deep copy: consecutive
//! versions share every untouched row and file, so a full ring over a
//! large dataset costs memory proportional to the *churn* between
//! versions, not to `capacity x dataset`.

use crate::database::Database;
use crate::update::UpdateOp;
use std::collections::BTreeMap;

/// A bounded ring of `content_version → (state, ops)` entries.
#[derive(Clone, Debug)]
pub struct SnapshotStore {
    /// The ops are `None` for a version no write produced (the seed).
    snaps: BTreeMap<u64, (Database, Option<Vec<UpdateOp>>)>,
    capacity: usize,
}

impl SnapshotStore {
    /// Creates a store retaining at most `capacity` versions.
    ///
    /// `capacity == 0` is the explicit **no-retention mode**: [`record`]
    /// becomes a no-op and [`get`] never finds anything.  Use it for
    /// deployments that deliberately give up Section 3.5 rollback (every
    /// double-check for a non-current version then answers
    /// `VersionUnavailable`) and slave catch-up replays.
    ///
    /// [`record`]: SnapshotStore::record
    /// [`get`]: SnapshotStore::get
    pub fn new(capacity: usize) -> Self {
        SnapshotStore {
            snaps: BTreeMap::new(),
            capacity,
        }
    }

    /// Records the state at its current version with the `ops` that
    /// produced it (`None` for the seed version, which is never
    /// replayed), evicting the oldest entry beyond capacity.
    ///
    /// O(1) modulo the ring bookkeeping: the handle shares structure with
    /// the live database instead of deep-copying it.
    pub fn record(&mut self, db: &Database, ops: Option<Vec<UpdateOp>>) {
        if self.capacity == 0 {
            return;
        }
        self.snaps.insert(db.version(), (db.clone(), ops));
        while self.snaps.len() > self.capacity {
            self.snaps.pop_first();
        }
    }

    /// The state at `version`, if retained.
    pub fn get(&self, version: u64) -> Option<&Database> {
        self.snaps.get(&version).map(|(db, _)| db)
    }

    /// Every retained write from `version` on, in ascending version
    /// order: the replay a slave that lacks `version` needs.
    pub fn writes_from(&self, version: u64) -> Vec<(u64, Vec<UpdateOp>)> {
        self.snaps
            .range(version..)
            .filter_map(|(&v, (_, ops))| Some((v, ops.clone()?)))
            .collect()
    }

    /// Retained versions in ascending order.
    pub fn versions(&self) -> Vec<u64> {
        self.snaps.keys().copied().collect()
    }

    /// Shared-vs-owned node counts summed over every retained snapshot
    /// (memory telemetry; O(capacity × n)).
    ///
    /// A node counted `shared` is reachable from more than one handle
    /// (other snapshots or the live database), so `shared / total`
    /// measures structural reuse across the ring, while the sum of
    /// `owned` approximates the ring's true extra retention cost —
    /// proportional to churn between versions, not to `capacity × n`.
    pub fn node_stats(&self) -> crate::pmap::NodeStats {
        let mut out = crate::pmap::NodeStats::default();
        for (db, _) in self.snaps.values() {
            out.merge(db.node_stats());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Document;
    use crate::update::UpdateOp;

    /// Applies one upsert of row `key`; returns its ops for `record`.
    fn advance(db: &mut Database, key: u64) -> Option<Vec<UpdateOp>> {
        let ops = vec![UpdateOp::Upsert {
            table: "t".into(),
            key,
            doc: Document::new().with("k", key as i64),
        }];
        db.apply_write(&ops).unwrap();
        Some(ops)
    }

    fn setup() -> Database {
        let mut db = Database::new();
        db.apply_write(&[UpdateOp::CreateTable {
            table: "t".into(),
            indexes: vec![],
        }])
        .unwrap();
        db
    }

    #[test]
    fn record_and_retrieve_versions() {
        let mut db = setup();
        let mut s = SnapshotStore::new(10);
        s.record(&db, None); // v1
        let ops = advance(&mut db, 1); // v2
        s.record(&db, ops);
        let ops = advance(&mut db, 2); // v3
        s.record(&db, ops);

        assert_eq!(s.get(2).unwrap().version(), 2);
        assert!(s.get(2).unwrap().table("t").unwrap().get(2).is_none());
        assert!(s.get(3).unwrap().table("t").unwrap().get(2).is_some());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut db = setup();
        let mut s = SnapshotStore::new(2);
        for k in 1..=4 {
            let ops = advance(&mut db, k);
            s.record(&db, ops);
        }
        assert_eq!(s.versions(), vec![4, 5]);
        assert!(s.get(2).is_none());
        // Eviction drops a version's ops with its state.
        assert_eq!(
            s.writes_from(0).iter().map(|(v, _)| *v).collect::<Vec<_>>(),
            vec![4, 5]
        );
    }

    #[test]
    fn zero_capacity_is_no_retention_mode() {
        let mut db = setup();
        let mut s = SnapshotStore::new(0);
        for k in 1..=3 {
            let ops = advance(&mut db, k);
            s.record(&db, ops);
        }
        assert!(s.versions().is_empty());
        assert!(s.get(db.version()).is_none());
        assert!(s.writes_from(0).is_empty());
    }

    #[test]
    fn node_stats_measure_churn_not_capacity() {
        let mut db = setup();
        for k in 1..=64 {
            advance(&mut db, k);
        }
        let mut s = SnapshotStore::new(8);
        s.record(&db, None);
        // One retained snapshot sharing everything with the live db:
        // nothing is exclusively owned by the ring.
        let one = s.node_stats();
        assert_eq!(one.owned, 0);
        assert!(one.shared >= 64);

        // A few point writes between snapshots: the ring's owned count
        // grows with the churn (copied paths), while shared counts the
        // structure reused across versions.
        for k in 1..=4 {
            let ops = advance(&mut db, k); // Upserts: touch existing keys only.
            s.record(&db, ops);
        }
        let many = s.node_stats();
        assert_eq!(s.versions().len(), 5);
        assert!(many.total() > many.owned, "everything owned: {many:?}");
        // Total reachable across 5 snapshots of a 64-row table stays far
        // below 5 x 64 + overhead — retention cost is churn, not copies.
        assert!(
            many.total() < 5 * 70,
            "ring looks deep-copied: {many:?}"
        );
    }

    #[test]
    fn writes_from_replays_every_write_but_never_the_seed() {
        let mut db = setup();
        let mut s = SnapshotStore::new(10);
        s.record(&db, None); // v1, the seed: no ops.
        let mut written = Vec::new();
        for k in 1..=3 {
            let ops = advance(&mut db, k);
            s.record(&db, ops.clone());
            written.push((db.version(), ops.unwrap()));
        }
        assert_eq!(s.writes_from(0), written);
        assert_eq!(s.writes_from(1), written);
        assert_eq!(s.writes_from(3), written[1..]);
        assert!(s.writes_from(5).is_empty());
    }

    #[test]
    fn snapshot_is_isolated_from_live_state() {
        let mut db = setup();
        let mut s = SnapshotStore::new(10);
        s.record(&db, None);
        let v1_digest = s.get(1).unwrap().state_digest();
        advance(&mut db, 9);
        assert_eq!(s.get(1).unwrap().state_digest(), v1_digest);
    }

    #[test]
    fn ring_rematerialises_any_retained_version_exactly() {
        // Section 3.5 rollback: each retained handle must replay to the
        // precise historical state, independent of later writes sharing
        // structure with it.
        let mut db = setup();
        let mut s = SnapshotStore::new(8);
        let mut reference = Vec::new();
        for k in 1..=6 {
            let ops = advance(&mut db, k);
            s.record(&db, ops);
            reference.push((db.version(), db.state_digest()));
        }
        for (version, digest) in reference {
            let snap = s.get(version).expect("retained");
            assert_eq!(snap.version(), version);
            assert_eq!(snap.state_digest(), digest);
            // The snapshot still answers queries against its own state:
            // row k exists in version v iff k < v (rows added one per
            // version starting at v2).
            for k in 1..=6u64 {
                assert_eq!(
                    snap.table("t").unwrap().get(k).is_some(),
                    k < version,
                    "version {version} row {k}"
                );
            }
        }
    }
}
