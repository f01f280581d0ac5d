//! The per-version history: each retained version's state, the ops that
//! produced it and when it committed.
//!
//! One ring serves three readers.  Section 3.5: after a delayed discovery
//! "the harm may be undone, by rolling back the client to the state
//! before that particular read", so any retained version can be
//! re-materialised for re-execution or rollback.  Lazy-update catch-up
//! (Section 3.1): each entry also holds the ops that produced its
//! version, so [`SnapshotStore::writes_from`] replays what a lagging
//! slave missed.  The audit (Section 3.4): the elected auditor
//! re-executes each pledge against the entry for the version it names,
//! and reads each entry's commit time for its advance rule — so the
//! ring is [pinned](SnapshotStore::pin_from) from the version under
//! audit, and no version the audit has not closed is ever evicted.
//!
//! Because [`Database`] is persistent, [`SnapshotStore::record`] retains
//! an O(1) structural-sharing handle, not a deep copy: consecutive
//! versions share every untouched row and file, so a full ring over a
//! large dataset costs memory proportional to the *churn* between
//! versions, not to `capacity x dataset`.

use crate::database::Database;
use crate::update::UpdateOp;
use std::collections::BTreeMap;

/// One retained version.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The state at this version.
    pub state: Database,
    /// The ops that produced it; `None` for a version no write produced
    /// (the seed), which is never replayed.
    pub ops: Option<Vec<UpdateOp>>,
    /// When it committed, in microseconds of the recorder's clock.
    pub committed_us: u64,
}

/// A bounded ring of `content_version → snapshot` entries.
#[derive(Clone, Debug)]
pub struct SnapshotStore {
    snaps: BTreeMap<u64, Snapshot>,
    capacity: usize,
    /// Versions at or above this are never evicted (`u64::MAX`: none).
    pinned_from: u64,
}

impl SnapshotStore {
    /// Creates a store retaining at most `capacity` unpinned versions.
    ///
    /// `capacity == 0` retains nothing beyond the [pinned] versions: an
    /// unpinned ring stays empty, and a ring pinned from `v` holds exactly
    /// the recorded versions from `v` on.  Deployments that choose it
    /// give up Section 3.5 rollback (every double-check for a non-current
    /// version then answers `VersionUnavailable`) and slave catch-up
    /// replays, but never the audit.
    ///
    /// [pinned]: SnapshotStore::pin_from
    pub fn new(capacity: usize) -> Self {
        SnapshotStore {
            snaps: BTreeMap::new(),
            capacity,
            pinned_from: u64::MAX,
        }
    }

    /// Records the state at its current version with the `ops` that
    /// produced it (`None` for the seed version) and its commit time,
    /// evicting the oldest unpinned entries beyond capacity.
    ///
    /// O(1) modulo the ring bookkeeping: the handle shares structure with
    /// the live database instead of deep-copying it.
    pub fn record(&mut self, db: &Database, ops: Option<Vec<UpdateOp>>, committed_us: u64) {
        let snap = Snapshot {
            state: db.clone(),
            ops,
            committed_us,
        };
        self.snaps.insert(db.version(), snap);
        self.evict();
    }

    /// Pins every version from `from` on against eviction (`None`
    /// unpins), then evicts what capacity and the new pin allow.
    pub fn pin_from(&mut self, from: Option<u64>) {
        self.pinned_from = from.unwrap_or(u64::MAX);
        self.evict();
    }

    fn evict(&mut self) {
        while self.snaps.len() > self.capacity
            && self.snaps.first_key_value().is_some_and(|(&v, _)| v < self.pinned_from)
        {
            self.snaps.pop_first();
        }
    }

    /// The entry for `version`, if retained.
    pub fn get(&self, version: u64) -> Option<&Snapshot> {
        self.snaps.get(&version)
    }

    /// Every retained write from `version` on, in ascending version
    /// order: the replay a slave that lacks `version` needs.
    pub fn writes_from(&self, version: u64) -> Vec<(u64, Vec<UpdateOp>)> {
        self.snaps
            .range(version..)
            .filter_map(|(&v, s)| Some((v, s.ops.clone()?)))
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
        for s in self.snaps.values() {
            out.merge(s.state.node_stats());
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
        s.record(&db, None, 0); // v1
        let ops = advance(&mut db, 1); // v2
        s.record(&db, ops, 0);
        let ops = advance(&mut db, 2); // v3
        s.record(&db, ops, 0);

        assert_eq!(s.get(2).unwrap().state.version(), 2);
        assert!(s.get(2).unwrap().state.table("t").unwrap().get(2).is_none());
        assert!(s.get(3).unwrap().state.table("t").unwrap().get(2).is_some());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut db = setup();
        let mut s = SnapshotStore::new(2);
        for k in 1..=4 {
            let ops = advance(&mut db, k);
            s.record(&db, ops, 0);
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
            s.record(&db, ops, 0);
        }
        assert!(s.versions().is_empty());
        assert!(s.get(db.version()).is_none());
        assert!(s.writes_from(0).is_empty());
    }

    #[test]
    fn pinned_versions_outlive_capacity_until_unpinned() {
        let mut db = setup();
        let mut s = SnapshotStore::new(2);
        s.pin_from(Some(db.version())); // v1
        s.record(&db, None, 10);
        for k in 1..=4 {
            let ops = advance(&mut db, k);
            s.record(&db, ops, 10 + k);
        }
        // Nothing at or above the pin is evicted, capacity or not.
        assert_eq!(s.versions(), vec![1, 2, 3, 4, 5]);
        assert_eq!(s.get(3).map(|e| e.committed_us), Some(12));
        // Moving the pin releases what capacity no longer covers.
        s.pin_from(Some(3));
        assert_eq!(s.versions(), vec![3, 4, 5]);
        s.pin_from(None);
        assert_eq!(s.versions(), vec![4, 5]);
        // With no capacity, a pinned ring holds exactly the pinned window.
        let mut none = SnapshotStore::new(0);
        none.pin_from(Some(db.version()));
        none.record(&db, None, 0);
        assert_eq!(none.versions(), vec![db.version()]);
        none.pin_from(None);
        assert!(none.versions().is_empty());
    }

    #[test]
    fn node_stats_measure_churn_not_capacity() {
        let mut db = setup();
        for k in 1..=64 {
            advance(&mut db, k);
        }
        let mut s = SnapshotStore::new(8);
        s.record(&db, None, 0);
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
            s.record(&db, ops, 0);
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
        s.record(&db, None, 0); // v1, the seed: no ops.
        let mut written = Vec::new();
        for k in 1..=3 {
            let ops = advance(&mut db, k);
            s.record(&db, ops.clone(), 0);
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
        s.record(&db, None, 0);
        let v1_digest = s.get(1).unwrap().state.state_digest();
        advance(&mut db, 9);
        assert_eq!(s.get(1).unwrap().state.state_digest(), v1_digest);
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
            s.record(&db, ops, 0);
            reference.push((db.version(), db.state_digest()));
        }
        for (version, digest) in reference {
            let snap = &s.get(version).expect("retained").state;
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
