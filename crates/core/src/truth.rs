//! The harness's ground truth: what each stamped version of each shard
//! really holds, asked once per accepted read.
//!
//! The paper's contract (Sections 3.3–3.4) is that a client never accepts
//! a wrong answer unnoticed.  Counting the answers that were wrong needs
//! an oracle no slave can sway: the truth keeps its own replica of each
//! shard, applies every committed round to it once, and keeps the state
//! at the end of each round — the only versions a stamp can name (the
//! store is persistent, so versions share structure).  Every master's
//! state after every round is checked against it, and a read is wrong
//! when its evidence names a version whose real answer is something
//! else.  The
//! replica is the truth's own, so the state handles it keeps never add
//! to the sharing counts of the masters' snapshot rings.
//!
//! A pledged answer is judged by re-executing its query on the kept state
//! through the deployment's [`ExecMemo`], so an honest answer is a memo
//! hit and each `(version, query)` pair runs at most once; a
//! proof-anchored answer by the digest its anchor names (and, under
//! `cache_verify`, by re-executing it too).
//!
//! Like `cache_verify`, the oracle is host-only: it charges nothing,
//! draws no randomness and sends nothing, so no run can tell it is there.

use crate::pledge::{Pledge, ResultHash};
use sdr_crypto::Hash256;
use sdr_sim::NodeId;
use sdr_store::{Database, ExecMemo, Query, QueryCache, QueryResult, UpdateOp};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// One deployment's ground truth, shared by cloning the handle: the
/// masters commit into it, the clients ask it.
#[derive(Clone)]
pub struct Truth(Rc<RefCell<Inner>>);

struct Inner {
    memo: ExecMemo,
    /// The truth's own replica of each shard, at its latest round's end.
    replicas: Vec<Database>,
    /// Every round's end state, by `(shard, version)`.  Digests are taken
    /// when asked for (the store caches them), so building a deployment
    /// hashes nothing more.
    states: HashMap<(usize, u64), Database>,
    /// The right pledge hash per `(version, query)`: one FIFO per shard,
    /// as large as the auditor's.
    hashes: Vec<QueryCache<ResultHash>>,
    /// Wrong answers accepted, by the slave that served each.
    wrong_by_slave: BTreeMap<NodeId, u64>,
}

impl Truth {
    /// The truth of shards seeded with `initial` (one state per shard),
    /// executing through `memo`.
    pub fn new(initial: &[Database], memo: ExecMemo) -> Self {
        let state = |(shard, db): (usize, &Database)| ((shard, db.version()), db.clone());
        Truth(Rc::new(RefCell::new(Inner {
            memo,
            replicas: initial.to_vec(),
            states: initial.iter().enumerate().map(state).collect(),
            hashes: vec![QueryCache::new(4096); initial.len()],
            wrong_by_slave: BTreeMap::new(),
        })))
    }

    /// Applies a round a master of `shard` committed — `(version, ops)`
    /// per write — unless another master did first, and checks the
    /// `digest` that master reached.
    ///
    /// # Panics
    ///
    /// Panics when the round does not apply at the replica's version, or
    /// when two masters reach different digests at one version: the
    /// trusted masters diverged.
    pub fn commit(&self, shard: usize, round: &[(u64, Vec<UpdateOp>)], digest: Hash256) {
        let mut inner = self.0.borrow_mut();
        let Inner { replicas, states, .. } = &mut *inner;
        let from = replicas[shard].version();
        let replica = &mut replicas[shard];
        for (version, ops) in round.iter().filter(|(v, _)| *v > from) {
            let applied = replica.apply_write(ops).ok();
            assert_eq!(applied, Some(*version), "shard {shard} committed {version} out of turn");
        }
        let end = round.last().map_or(replica.version(), |(v, _)| *v);
        let kept = states.entry((shard, end)).or_insert_with(|| replica.clone());
        assert_eq!(kept.state_digest(), digest, "masters reached two states as version {end}");
    }

    /// Whether `pledge` pledges the right answer to its query at the
    /// version its stamp names; `result` is what the client accepted
    /// with it (already checked against the pledged hash).
    pub fn pledge_right(&self, shard: usize, pledge: &Pledge, result: &QueryResult) -> bool {
        let mut inner = self.0.borrow_mut();
        let Inner { memo, states, hashes, .. } = &mut *inner;
        let (version, algo) = (pledge.stamp.version, pledge.result_hash.algo());
        let cached = hashes[shard].get(version, &pledge.query).filter(|h| h.algo() == algo);
        let right = cached.or_else(|| {
            let done = memo.execute(states.get(&(shard, version))?, &pledge.query).ok()?;
            // An equal result makes the pledged hash the right one, with
            // no hashing of a result that may be large.
            let right = done.0 == *result;
            let hash = if right { pledge.result_hash } else { ResultHash::of(&done.0, algo) };
            hashes[shard].put(version, &pledge.query, hash);
            Some(hash)
        });
        right == Some(pledge.result_hash)
    }

    /// Whether the `(version, digest)` anchor of a verified read names
    /// the truth's digest of that version of `shard`; with `check`, also
    /// whether the accepted result equals a fresh execution there.
    pub fn anchor_right(
        &self,
        shard: usize,
        (version, digest): (u64, Hash256),
        check: Option<(&Query, &QueryResult)>,
    ) -> bool {
        let inner = self.0.borrow();
        inner.states.get(&(shard, version)).is_some_and(|db| {
            db.state_digest() == digest
                && check.is_none_or(|(query, result)| {
                    inner.memo.execute(db, query).is_ok_and(|done| done.0 == *result)
                })
        })
    }

    /// Counts one accepted wrong answer against the slave that served it.
    pub fn note_wrong(&self, slave: NodeId) {
        *self.0.borrow_mut().wrong_by_slave.entry(slave).or_default() += 1;
    }

    /// Accepted wrong answers whose serving slave is not `convicted`.
    pub fn wrong_unconvicted(&self, convicted: impl Fn(NodeId) -> bool) -> u64 {
        let inner = self.0.borrow();
        inner.wrong_by_slave.iter().filter(|(s, _)| !convicted(**s)).map(|(_, n)| n).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_store::Document;

    fn set_price(price: i64) -> Vec<UpdateOp> {
        let doc = Document::new().with("price", price);
        vec![UpdateOp::Upsert { table: "t".into(), key: 1, doc }]
    }

    /// A one-row table at version 1 with the row at `price`.
    fn priced(price: i64) -> Database {
        let mut db = Database::new();
        db.create_table("t").unwrap();
        db.apply_write(&set_price(price)).unwrap();
        db
    }

    #[test]
    fn rounds_apply_once_and_anchors_are_judged_by_their_digest() {
        let seed = priced(5);
        let truth = Truth::new(std::slice::from_ref(&seed), ExecMemo::new());
        let round = vec![(2, set_price(6)), (3, set_price(7))];
        let mut live = seed.clone();
        for (_, ops) in &round {
            live.apply_write(ops).unwrap();
        }
        // Every master of the shard commits the same round.
        truth.commit(0, &round, live.state_digest());
        truth.commit(0, &round, live.state_digest());

        let query = Query::GetRow { table: "t".into(), key: 1 };
        let right = sdr_store::execute(&live, &query).unwrap().0;
        let stale = sdr_store::execute(&seed, &query).unwrap().0;
        let anchor = (3, live.state_digest());
        assert!(truth.anchor_right(0, anchor, Some((&query, &right))));
        assert!(!truth.anchor_right(0, anchor, Some((&query, &stale))));
        assert!(!truth.anchor_right(0, (3, seed.state_digest()), None));
        assert!(truth.anchor_right(0, (1, seed.state_digest()), None));
        // Version 2 ended no round: no stamp can name it.
        assert!(!truth.anchor_right(0, (2, anchor.1), None));
    }

    /// A pledge over `db`'s answer to the row query, stamped `version`.
    fn pledge_over(version: u64, db: &Database) -> (Pledge, QueryResult) {
        let mut signer = sdr_crypto::HmacSigner::from_seed_label(1, b"truth-test");
        let query = Query::GetRow { table: "t".into(), key: 1 };
        let result = sdr_store::execute(db, &query).unwrap().0;
        let hash = ResultHash::of(&result, crate::pledge::PLEDGE_ALGO);
        let at = sdr_sim::SimTime::ZERO;
        let stamp = crate::messages::VersionStamp::build(version, at, NodeId(0), &mut signer);
        let pledge = Pledge::build(query, hash, stamp.unwrap(), NodeId(9), &mut signer);
        (pledge.unwrap(), result)
    }

    #[test]
    fn pledges_are_judged_at_the_version_their_stamp_names() {
        let seed = priced(5);
        let truth = Truth::new(std::slice::from_ref(&seed), ExecMemo::new());
        let mut live = seed.clone();
        live.apply_write(&set_price(6)).unwrap();
        truth.commit(0, &[(2, set_price(6))], live.state_digest());
        for (version, db, right) in [
            (1, &seed, true),
            // A stale answer under a fresh stamp, then the right one from
            // the hash it left cached.
            (2, &seed, false),
            (2, &live, true),
            (1, &live, false),
            // No round ended at version 3.
            (3, &live, false),
        ] {
            let (pledge, result) = pledge_over(version, db);
            assert_eq!(truth.pledge_right(0, &pledge, &result), right, "version {version}");
        }
    }

    #[test]
    #[should_panic(expected = "masters reached two states as version 2")]
    fn two_digests_for_one_version_panic() {
        let seed = priced(5);
        let truth = Truth::new(std::slice::from_ref(&seed), ExecMemo::new());
        let round = vec![(2, set_price(6))];
        let mut live = seed.clone();
        live.apply_write(&round[0].1).unwrap();
        truth.commit(0, &round, live.state_digest());
        // A second master records another state as version 2.
        let mut other = seed.clone();
        other.apply_write(&set_price(7)).unwrap();
        truth.commit(0, &round, other.state_digest());
    }

    #[test]
    fn wrong_answers_are_counted_per_slave() {
        let truth = Truth::new(&[priced(5)], ExecMemo::new());
        truth.note_wrong(NodeId(3));
        truth.note_wrong(NodeId(3));
        truth.note_wrong(NodeId(4));
        assert_eq!(truth.wrong_unconvicted(|_| false), 3);
        assert_eq!(truth.wrong_unconvicted(|s| s == NodeId(3)), 1);
    }
}
