//! Client-side response verification: one read pipeline, four evidence
//! kinds.
//!
//! Every read has the same shape (Sections 3.2–3.4): the slave answers
//! with *result + evidence bound to a master-signed stamp*; the client
//! checks the responder, the stamp signature, the stamp's freshness under
//! its own `max_latency`, and then the evidence against the stamp.  Only
//! the evidence differs:
//!
//! | request | evidence | anchor | tail after the stamp | on reject |
//! |---|---|---|---|---|
//! | `ReadRequest` | slave-signed pledge over the result hash | `VersionStamp` | [`verify_pledged_read`]; then auditor or sampled double-check, since a consistent liar passes | drop the response; retry when none survive |
//! | `ProofRead` (`GetRow`, `ReadFile`) | O(log n) Merkle path | `StateDigestStamp` | [`verify_proof_read_stampless`]; final | one other replica, then pledged |
//! | `ProofRead` (`ScanRange`) | O(log n + k) range skeleton | `StateDigestStamp` | [`verify_proof_read_stampless`]; final, complete | one other replica, then pledged (sub-scans fail the scan) |
//! | `StreamRead` (`ReadFileRange`) | manifest slice, then chunks | `StateDigestStamp` | [`verify_stream_header_stampless`], then `StreamProof::verify_chunk` per chunk; final | one other replica, then pledged |
//!
//! The digest-anchored entry points are *known responder →
//! [`check_digest_stamp`] → the `_stampless` tail*; the client runs the
//! same three steps with the signature check memoised.  Every step
//! reports a structured [`RejectReason`] instead of a bare bool, so
//! metrics, retries, and fallbacks can react to *why* a response died.

use crate::messages::{StateDigestStamp, VersionStamp};
use crate::metrics as id;
use crate::pledge::Pledge;
use sdr_crypto::PublicKey;
use sdr_sim::{Counter, NodeId, SimDuration, SimTime};
use sdr_store::{ProofError, Query, QueryResult, StateProof, StreamProof};

/// Why a read response was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Delivered result does not hash to the pledged value
    /// (inconsistent liar — caught instantly).
    HashMismatch,
    /// Response came from a node the client never set up with.
    UnknownSlave,
    /// The slave's signature over the pledge does not verify.
    BadSlaveSignature,
    /// The master's signature over the (version or digest) stamp does
    /// not verify, or the stamping master is unknown.
    BadStampSignature,
    /// The stamp is older than the client's freshness bound.
    Stale,
    /// The Merkle path proof failed (wrong content, spliced path, or
    /// stale digest) — deterministic lie detection on the proof path.
    BadProof(ProofError),
}

impl RejectReason {
    /// Metric counter this rejection increments.
    pub fn metric(&self) -> Counter {
        match self {
            RejectReason::HashMismatch => id::READ_REJECTED_HASH,
            RejectReason::UnknownSlave => id::READ_REJECTED_UNKNOWN_SLAVE,
            RejectReason::BadSlaveSignature => id::READ_REJECTED_SIG,
            RejectReason::BadStampSignature => id::READ_REJECTED_STAMP_SIG,
            RejectReason::Stale => id::READ_REJECTED_STALE,
            RejectReason::BadProof(_) => id::READ_REJECTED_PROOF,
        }
    }
}

/// Which pipeline serves a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadStrategy {
    /// Pledge + double-check/audit (computed queries).
    Pledged,
    /// Merkle-path proof against the signed state digest (static point
    /// reads).
    Proof,
}

/// Picks the read strategy for a query: static point lookups, streamed
/// file ranges (which verify chunk-by-chunk against the manifest slice
/// proof), and key-range scans (which verify against an O(log n + k)
/// range proof) take the proof path when it is enabled; everything
/// computed stays pledged.
pub fn strategy_for(query: &Query, proof_reads_enabled: bool) -> ReadStrategy {
    match query {
        Query::GetRow { .. }
        | Query::ReadFile { .. }
        | Query::ReadFileRange { .. }
        | Query::ScanRange { .. }
            if proof_reads_enabled =>
        {
            ReadStrategy::Proof
        }
        _ => ReadStrategy::Pledged,
    }
}

/// The keys and bounds a verification runs against.  In a sharded
/// deployment this is the *owning shard's* environment: only that
/// subgroup's masters and replicas are acceptable signers here.
pub struct VerifyEnv<'a> {
    /// Known masters and their verification keys.
    pub masters: &'a [(NodeId, PublicKey)],
    /// The client's assigned slaves and their verification keys.
    pub slaves: &'a [(NodeId, PublicKey)],
    /// Spare replicas of the same shard (proof-retry targets); their
    /// certificates were verified at setup like the assigned slaves'.
    pub spares: &'a [(NodeId, PublicKey)],
    /// Current simulation time.
    pub now: SimTime,
    /// This client's freshness bound (possibly relaxed; Section 3.2).
    pub max_latency: SimDuration,
}

impl VerifyEnv<'_> {
    fn slave_key(&self, slave: NodeId) -> Option<&PublicKey> {
        self.slaves
            .iter()
            .chain(self.spares.iter())
            .find(|(n, _)| *n == slave)
            .map(|(_, k)| k)
    }

    /// Current verification key of `master`, if it belongs to this
    /// shard's subgroup.  Exposed for the client's stamp-verification
    /// cache, whose entries bind the statement to the exact key it
    /// verified under (a key rotation therefore misses, never hits).
    pub fn master_key_of(&self, master: NodeId) -> Option<&PublicKey> {
        self.masters
            .iter()
            .find(|(n, _)| *n == master)
            .map(|(_, k)| k)
    }

    /// Whether `slave` is an acceptable proof responder here (an
    /// assigned replica or a setup-issued spare of the shard).
    pub fn knows_slave(&self, slave: NodeId) -> bool {
        self.slave_key(slave).is_some()
    }
}

/// Step: the delivered result hashes to the pledged value.
pub fn check_result_hash(pledge: &Pledge, result: &QueryResult) -> Result<(), RejectReason> {
    if pledge.matches_result(result) {
        Ok(())
    } else {
        Err(RejectReason::HashMismatch)
    }
}

/// Step: the responding slave is known and its pledge signature holds.
pub fn check_slave_signature(
    env: &VerifyEnv<'_>,
    from: NodeId,
    pledge: &Pledge,
) -> Result<(), RejectReason> {
    let key = env.slave_key(from).ok_or(RejectReason::UnknownSlave)?;
    pledge
        .verify_signature(key)
        .map_err(|_| RejectReason::BadSlaveSignature)
}

/// Step: the version stamp is signed by a known master.
pub fn check_version_stamp(
    env: &VerifyEnv<'_>,
    stamp: &VersionStamp,
) -> Result<(), RejectReason> {
    env.master_key_of(stamp.master)
        .and_then(|k| stamp.verify(k).ok())
        .ok_or(RejectReason::BadStampSignature)
}

/// Step: the digest stamp is signed by a known master.
pub fn check_digest_stamp(
    env: &VerifyEnv<'_>,
    stamp: &StateDigestStamp,
) -> Result<(), RejectReason> {
    env.master_key_of(stamp.master)
        .and_then(|k| stamp.verify(k).ok())
        .ok_or(RejectReason::BadStampSignature)
}

/// Step: a stamp timestamp is within the client's freshness bound.
pub fn check_freshness(env: &VerifyEnv<'_>, stamped_at: SimTime) -> Result<(), RejectReason> {
    if env.now.since(stamped_at) <= env.max_latency {
        Ok(())
    } else {
        Err(RejectReason::Stale)
    }
}

/// Full pledged-read verification (Section 3.2's client checks, in
/// order: hash, slave signature, stamp signature, freshness).
pub fn verify_pledged_read(
    env: &VerifyEnv<'_>,
    from: NodeId,
    result: &QueryResult,
    pledge: &Pledge,
) -> Result<(), RejectReason> {
    check_result_hash(pledge, result)?;
    check_slave_signature(env, from, pledge)?;
    check_version_stamp(env, &pledge.stamp)?;
    check_freshness(env, pledge.stamp.timestamp)
}

/// Step: `from` is a known replica and the digest stamp is signed by a
/// known master — everything a digest-anchored reply must pass before
/// its `_stampless` tail.
fn check_anchor(
    env: &VerifyEnv<'_>,
    from: NodeId,
    stamp: &StateDigestStamp,
) -> Result<(), RejectReason> {
    if !env.knows_slave(from) {
        return Err(RejectReason::UnknownSlave);
    }
    check_digest_stamp(env, stamp)
}

/// Full proof-read verification: known responder, digest-stamp
/// signature, then [`verify_proof_read_stampless`].
pub fn verify_proof_read(
    env: &VerifyEnv<'_>,
    from: NodeId,
    query: &Query,
    result: &QueryResult,
    proof: &StateProof,
    stamp: &StateDigestStamp,
) -> Result<(), RejectReason> {
    check_anchor(env, from, stamp)?;
    verify_proof_read_stampless(env, query, result, proof, stamp)
}

/// Proof-read verification tail for a stamp whose master signature is
/// already trusted (the client's stamp-verification cache memoizes the
/// expensive signature check per statement).  The caller has verified
/// the responder and the stamp signature; freshness is **not** cached —
/// the same stamp statement goes stale as time passes, so it re-checks
/// on every reply — and the Merkle fold always runs, because it is what
/// ties *this* result to the signed digest.
pub fn verify_proof_read_stampless(
    env: &VerifyEnv<'_>,
    query: &Query,
    result: &QueryResult,
    proof: &StateProof,
    stamp: &StateDigestStamp,
) -> Result<(), RejectReason> {
    check_freshness(env, stamp.timestamp)?;
    proof
        .verify_result(&stamp.digest, stamp.version, query, result)
        .map_err(RejectReason::BadProof)
}

/// Stream-header verification tail for an already-trusted stamp
/// signature: path shape, freshness, and the manifest fold (the
/// counterpart of [`verify_proof_read_stampless`] for streams).
pub fn verify_stream_header_stampless(
    env: &VerifyEnv<'_>,
    query: &Query,
    proof: &StreamProof,
    stamp: &StateDigestStamp,
) -> Result<(), RejectReason> {
    let Query::ReadFileRange { path, .. } = query else {
        return Err(RejectReason::BadProof(ProofError::ShapeMismatch));
    };
    if proof.path != *path {
        return Err(RejectReason::BadProof(ProofError::ShapeMismatch));
    }
    check_freshness(env, stamp.timestamp)?;
    proof
        .verify_header(&stamp.digest, stamp.version)
        .map_err(RejectReason::BadProof)
}

/// Stream-header verification: known responder, digest-stamp signature,
/// then [`verify_stream_header_stampless`].  After this passes, each
/// arriving chunk is checked with [`StreamProof::verify_chunk`] — no
/// further trust in the slave, and no buffering of the file.
pub fn verify_stream_header(
    env: &VerifyEnv<'_>,
    from: NodeId,
    query: &Query,
    proof: &StreamProof,
    stamp: &StateDigestStamp,
) -> Result<(), RejectReason> {
    check_anchor(env, from, stamp)?;
    verify_stream_header_stampless(env, query, proof, stamp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HashAlgo;
    use crate::pledge::ResultHash;
    use sdr_crypto::{HmacSigner, Signer as _};
    use sdr_store::{Database, Document, UpdateOp, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.apply_write(&[
            UpdateOp::CreateTable {
                table: "t".into(),
                indexes: vec![],
            },
            UpdateOp::Insert {
                table: "t".into(),
                key: 7,
                doc: Document::new().with("v", 7i64),
            },
        ])
        .unwrap();
        db
    }

    struct Fixture {
        master: HmacSigner,
        slave: HmacSigner,
        masters: Vec<(NodeId, PublicKey)>,
        slaves: Vec<(NodeId, PublicKey)>,
    }

    fn fixture() -> Fixture {
        let master = HmacSigner::from_seed_label(1, b"m");
        let slave = HmacSigner::from_seed_label(2, b"s");
        Fixture {
            masters: vec![(NodeId(0), master.public_key())],
            slaves: vec![(NodeId(5), slave.public_key())],
            master,
            slave,
        }
    }

    fn env<'a>(f: &'a Fixture, now_ms: u64) -> VerifyEnv<'a> {
        VerifyEnv {
            masters: &f.masters,
            slaves: &f.slaves,
            spares: &[],
            now: SimTime::from_millis(now_ms),
            max_latency: SimDuration::from_millis(500),
        }
    }

    #[test]
    fn strategy_picks_proof_only_for_static_reads() {
        let get = Query::GetRow {
            table: "t".into(),
            key: 1,
        };
        let grep = Query::Grep {
            pattern: "x".into(),
            prefix: "/".into(),
        };
        assert_eq!(strategy_for(&get, true), ReadStrategy::Proof);
        assert_eq!(strategy_for(&get, false), ReadStrategy::Pledged);
        assert_eq!(strategy_for(&grep, true), ReadStrategy::Pledged);
        assert_eq!(
            strategy_for(&Query::ReadFile { path: "/a".into() }, true),
            ReadStrategy::Proof
        );
        let range = Query::ReadFileRange {
            path: "/a".into(),
            offset: 0,
            len: 10,
        };
        assert_eq!(strategy_for(&range, true), ReadStrategy::Proof);
        assert_eq!(strategy_for(&range, false), ReadStrategy::Pledged);
        let scan = Query::ScanRange {
            table: "t".into(),
            start: 1,
            end: 100,
        };
        assert_eq!(strategy_for(&scan, true), ReadStrategy::Proof);
        assert_eq!(strategy_for(&scan, false), ReadStrategy::Pledged);
        // The legacy limit-truncatable Range stays pledged: truncation
        // makes its answer a computed result, not a provable slice.
        let legacy = Query::Range {
            table: "t".into(),
            low: 1,
            high: 100,
            limit: Some(10),
        };
        assert_eq!(strategy_for(&legacy, true), ReadStrategy::Pledged);
    }

    #[test]
    fn range_scan_pipeline_accepts_complete_answers_and_kills_omissions() {
        let mut f = fixture();
        let mut db = db();
        let ops: Vec<UpdateOp> = (10..30)
            .map(|k| UpdateOp::Insert {
                table: "t".into(),
                key: k,
                doc: Document::new().with("v", k as i64),
            })
            .collect();
        db.apply_write(&ops).unwrap();
        let query = Query::ScanRange {
            table: "t".into(),
            start: 12,
            end: 25,
        };
        let (result, _) = sdr_store::execute(&db, &query).unwrap();
        let proof = db.prove_scan("t", 12, 25).unwrap();
        let stamp = StateDigestStamp::build(
            db.version(),
            db.state_digest(),
            SimTime::from_millis(100),
            NodeId(0),
            &mut f.master,
        )
        .unwrap();

        verify_proof_read(&env(&f, 200), NodeId(5), &query, &result, &proof, &stamp).unwrap();

        // Omitting a row from the middle of the scan is caught — range
        // proofs prove completeness, not just membership.
        let QueryResult::Rows(rows) = &result else { panic!("rows") };
        let mut omitted = rows.clone();
        omitted.remove(5);
        assert!(matches!(
            verify_proof_read(
                &env(&f, 200),
                NodeId(5),
                &query,
                &QueryResult::Rows(omitted),
                &proof,
                &stamp
            ),
            Err(RejectReason::BadProof(_))
        ));
        // Same gates as point proofs: staleness and unknown responder.
        assert_eq!(
            verify_proof_read(&env(&f, 2_000), NodeId(5), &query, &result, &proof, &stamp),
            Err(RejectReason::Stale)
        );
        assert_eq!(
            verify_proof_read(&env(&f, 200), NodeId(99), &query, &result, &proof, &stamp),
            Err(RejectReason::UnknownSlave)
        );
    }

    #[test]
    fn stream_header_pipeline_checks_path_stamp_and_fold() {
        let mut f = fixture();
        let mut db = db();
        let contents: String = (0..800).map(|l| format!("line {l:04} of streamed data\n")).collect();
        db.apply_write(&[UpdateOp::WriteFile {
            path: "/big".into(),
            contents: contents.clone(),
        }])
        .unwrap();
        let query = Query::ReadFileRange {
            path: "/big".into(),
            offset: 0,
            len: contents.len() as u64,
        };
        let proof = db.prove_stream("/big", 0, contents.len() as u64);
        let stamp = StateDigestStamp::build(
            db.version(),
            db.state_digest(),
            SimTime::from_millis(100),
            NodeId(0),
            &mut f.master,
        )
        .unwrap();

        verify_stream_header(&env(&f, 200), NodeId(5), &query, &proof, &stamp).unwrap();
        // Chunks then verify individually against the manifest slice.
        let slice = proof.slice.as_ref().unwrap();
        let mut off = 0usize;
        for (i, e) in slice.entries.iter().enumerate() {
            proof
                .verify_chunk(i, &contents.as_bytes()[off..off + e.len as usize])
                .unwrap();
            off += e.len as usize;
        }

        // A proof for a different path is not accepted for this query.
        let wrong_path = Query::ReadFileRange {
            path: "/other".into(),
            offset: 0,
            len: 8,
        };
        assert!(matches!(
            verify_stream_header(&env(&f, 200), NodeId(5), &wrong_path, &proof, &stamp),
            Err(RejectReason::BadProof(_))
        ));
        // Unknown responder, forged stamp, staleness — same gates as
        // point-read proofs.
        assert_eq!(
            verify_stream_header(&env(&f, 200), NodeId(99), &query, &proof, &stamp),
            Err(RejectReason::UnknownSlave)
        );
        let mut bad_stamp = stamp.clone();
        bad_stamp.version += 1;
        assert_eq!(
            verify_stream_header(&env(&f, 200), NodeId(5), &query, &proof, &bad_stamp),
            Err(RejectReason::BadStampSignature)
        );
        assert_eq!(
            verify_stream_header(&env(&f, 2_000), NodeId(5), &query, &proof, &stamp),
            Err(RejectReason::Stale)
        );
    }

    #[test]
    fn pledged_pipeline_reports_each_failure() {
        let mut f = fixture();
        let query = Query::GetRow {
            table: "t".into(),
            key: 7,
        };
        let result = QueryResult::Scalar(Value::Int(9));
        let stamp =
            VersionStamp::build(1, SimTime::from_millis(100), NodeId(0), &mut f.master).unwrap();
        let pledge = Pledge::build(
            query,
            ResultHash::of(&result, HashAlgo::Sha1),
            stamp,
            NodeId(5),
            &mut f.slave,
        )
        .unwrap();

        verify_pledged_read(&env(&f, 200), NodeId(5), &result, &pledge).unwrap();

        // Wrong result → hash mismatch.
        let wrong = QueryResult::Scalar(Value::Int(10));
        assert_eq!(
            verify_pledged_read(&env(&f, 200), NodeId(5), &wrong, &pledge),
            Err(RejectReason::HashMismatch)
        );
        // Unknown responder.
        assert_eq!(
            verify_pledged_read(&env(&f, 200), NodeId(99), &result, &pledge),
            Err(RejectReason::UnknownSlave)
        );
        // Tampered stamp → master signature dies.
        let mut forged = pledge.clone();
        forged.stamp.version += 1;
        assert_eq!(
            verify_pledged_read(&env(&f, 200), NodeId(5), &result, &forged),
            Err(RejectReason::BadSlaveSignature)
        );
        // Staleness under the client bound.
        assert_eq!(
            verify_pledged_read(&env(&f, 2_000), NodeId(5), &result, &pledge),
            Err(RejectReason::Stale)
        );
    }

    #[test]
    fn proof_pipeline_accepts_true_answers_and_kills_lies() {
        let mut f = fixture();
        let db = db();
        let query = Query::GetRow {
            table: "t".into(),
            key: 7,
        };
        let (result, _) = sdr_store::execute(&db, &query).unwrap();
        let proof = db.prove_row("t", 7).unwrap();
        let stamp = StateDigestStamp::build(
            db.version(),
            db.state_digest(),
            SimTime::from_millis(100),
            NodeId(0),
            &mut f.master,
        )
        .unwrap();

        verify_proof_read(&env(&f, 200), NodeId(5), &query, &result, &proof, &stamp).unwrap();

        // A corrupted result cannot carry a valid proof.
        let lie = QueryResult::Rows(vec![(7, Document::new().with("v", 666i64))]);
        assert!(matches!(
            verify_proof_read(&env(&f, 200), NodeId(5), &query, &lie, &proof, &stamp),
            Err(RejectReason::BadProof(_))
        ));
        // A forged digest stamp dies on the master signature.
        let mut bad_stamp = stamp.clone();
        bad_stamp.version += 1;
        assert_eq!(
            verify_proof_read(&env(&f, 200), NodeId(5), &query, &result, &proof, &bad_stamp),
            Err(RejectReason::BadStampSignature)
        );
        // Stale digest stamps are rejected like stale pledges.
        assert_eq!(
            verify_proof_read(&env(&f, 2_000), NodeId(5), &query, &result, &proof, &stamp),
            Err(RejectReason::Stale)
        );
        // Unknown responder.
        assert_eq!(
            verify_proof_read(&env(&f, 200), NodeId(99), &query, &result, &proof, &stamp),
            Err(RejectReason::UnknownSlave)
        );
    }
}
