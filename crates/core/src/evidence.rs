//! Irrefutable evidence of slave misbehaviour.
//!
//! Section 3.3: "Should the slave act maliciously and return an incorrect
//! answer, the 'pledge' packet becomes an irrefutable proof of its
//! dishonesty."  An [`Evidence`] value is self-contained: any party holding
//! the slave's public key and a correct replica of the named content
//! version can re-derive the verdict offline — which is exactly what a
//! court (or the content owner) would do with the paper's "incriminating
//! pledge packet".

use crate::error::CoreError;
use crate::pledge::{Pledge, ResultHash};
use sdr_crypto::PublicKey;
use sdr_sim::SimTime;
use sdr_store::{Database, ExecMemo, QueryCost};

/// How the misbehaviour was discovered (Section 3.5's two cases).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discovery {
    /// A client double-check caught it immediately.
    Immediate,
    /// The background audit caught it after the answer was accepted.
    Delayed,
}

/// Proof that a slave signed a wrong answer.
#[derive(Clone, Debug, PartialEq)]
pub struct Evidence {
    /// The incriminating pledge (signed by the slave).
    pub pledge: Pledge,
    /// Hash of the *correct* result at the pledge's version, as computed
    /// by a trusted party.
    pub correct_hash: ResultHash,
    /// How it was discovered.
    pub discovery: Discovery,
    /// When the verdict was reached.
    pub found_at: SimTime,
}

impl Evidence {
    /// Verifies the evidence end-to-end against the slave's key and a
    /// trusted replica holding the pledge's content version.
    ///
    /// Checks, in order:
    /// 1. the pledge signature is genuinely the slave's (no framing);
    /// 2. `reference` is at the version the pledge names;
    /// 3. re-executing the pledged query on `reference` produces a hash
    ///    that (a) matches `correct_hash` and (b) differs from the pledged
    ///    hash.
    ///
    /// Returns the work of that one re-execution, for the verifier to
    /// charge; `memo` may have done the work already.
    pub fn verify(
        &self,
        slave_key: &PublicKey,
        reference: &Database,
        memo: &ExecMemo,
    ) -> Result<QueryCost, CoreError> {
        self.pledge
            .verify_signature(slave_key)
            .map_err(|_| CoreError::BadEvidence("pledge signature invalid"))?;
        if reference.version() != self.pledge.stamp.version {
            return Err(CoreError::BadEvidence("reference at wrong version"));
        }
        let done = memo.execute(reference, &self.pledge.query)?;
        let (result, cost) = &*done;
        let recomputed = ResultHash::of(result, self.pledge.result_hash.algo());
        if recomputed != self.correct_hash {
            return Err(CoreError::BadEvidence("correct_hash does not match re-execution"));
        }
        if recomputed == self.pledge.result_hash {
            return Err(CoreError::BadEvidence("pledged result was actually correct"));
        }
        Ok(*cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HashAlgo;
    use crate::messages::VersionStamp;
    use sdr_crypto::{HmacSigner, Signer};
    use sdr_sim::NodeId;
    use sdr_store::{execute, Document, Query, QueryResult, UpdateOp, Value};

    fn reference() -> Database {
        let mut db = Database::new();
        db.apply_write(&[
            UpdateOp::CreateTable {
                table: "t".into(),
                indexes: vec![],
            },
            UpdateOp::Insert {
                table: "t".into(),
                key: 1,
                doc: Document::new().with("v", 10i64),
            },
        ])
        .unwrap();
        db
    }

    fn make_evidence(lie: bool) -> (Evidence, HmacSigner, Database) {
        let db = reference();
        let mut master = HmacSigner::from_seed_label(1, b"master");
        let mut slave = HmacSigner::from_seed_label(2, b"slave");
        let query = Query::GetRow {
            table: "t".into(),
            key: 1,
        };
        let (correct, _) = execute(&db, &query).unwrap();
        let claimed = if lie {
            QueryResult::Rows(vec![(1, Document::new().with("v", 666i64))])
        } else {
            correct.clone()
        };
        let stamp =
            VersionStamp::build(db.version(), SimTime::from_millis(10), NodeId(0), &mut master)
                .unwrap();
        let pledge = Pledge::build(
            query,
            ResultHash::of(&claimed, HashAlgo::Sha1),
            stamp,
            NodeId(5),
            &mut slave,
        )
        .unwrap();
        let ev = Evidence {
            pledge,
            correct_hash: ResultHash::of(&correct, HashAlgo::Sha1),
            discovery: Discovery::Immediate,
            found_at: SimTime::from_millis(20),
        };
        (ev, slave, db)
    }

    #[test]
    fn genuine_evidence_verifies() {
        let (ev, slave, db) = make_evidence(true);
        ev.verify(&slave.public_key(), &db, &ExecMemo::new())
            .unwrap();
    }

    #[test]
    fn honest_slave_cannot_be_convicted() {
        // Evidence built from a correct answer must not verify.
        let (ev, slave, db) = make_evidence(false);
        assert_eq!(
            ev.verify(&slave.public_key(), &db, &ExecMemo::new()),
            Err(CoreError::BadEvidence("pledged result was actually correct"))
        );
    }

    #[test]
    fn forged_pledge_rejected() {
        let (mut ev, slave, db) = make_evidence(true);
        // Accuser swaps in a different query — signature breaks.
        ev.pledge.query = Query::GetRow {
            table: "t".into(),
            key: 2,
        };
        assert_eq!(
            ev.verify(&slave.public_key(), &db, &ExecMemo::new()),
            Err(CoreError::BadEvidence("pledge signature invalid"))
        );
    }

    #[test]
    fn wrong_reference_version_rejected() {
        let (ev, slave, mut db) = make_evidence(true);
        db.apply_write(&[UpdateOp::Upsert {
            table: "t".into(),
            key: 2,
            doc: Document::new().with("v", 1i64),
        }])
        .unwrap();
        assert_eq!(
            ev.verify(&slave.public_key(), &db, &ExecMemo::new()),
            Err(CoreError::BadEvidence("reference at wrong version"))
        );
    }

    #[test]
    fn fabricated_correct_hash_rejected() {
        let (mut ev, slave, db) = make_evidence(true);
        ev.correct_hash = ResultHash::of(
            &QueryResult::Scalar(Value::Int(0)),
            HashAlgo::Sha1,
        );
        assert_eq!(
            ev.verify(&slave.public_key(), &db, &ExecMemo::new()),
            Err(CoreError::BadEvidence("correct_hash does not match re-execution"))
        );
    }
}
