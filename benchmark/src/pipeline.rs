//! One read pushed through the read pipeline directly — replica side then
//! client side — with a span around each call into a layer.
//!
//! `cold_mix` runs its timed loop through these functions (tracer off)
//! and the traced runs replay queries through them (tracer on), so the
//! per-layer numbers describe exactly the code the timed loop ran.

use crate::trace::Tracer;
use sdr_core::config::HashAlgo;
use sdr_core::messages::VersionStamp;
use sdr_core::pledge::ResultHash;
use sdr_core::verify::{
    check_digest_stamp, verify_pledged_read, verify_proof_read, verify_proof_read_stampless,
    verify_stream_header, verify_stream_header_stampless, VerifyEnv,
};
use sdr_core::{Pledge, StateDigestStamp};
use sdr_crypto::Signer;
use sdr_sim::NodeId;
use sdr_store::{execute, Database, Query, QueryResult, StateProof, StreamProof};

/// The replica every read is answered by.
pub const SLAVE: NodeId = NodeId(1);

/// The four shapes a read takes through the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadKind {
    /// `GetRow` / `ReadFile`: one Merkle path.
    Point,
    /// `ScanRange`: one range proof over the page.
    Scan,
    /// `ReadFileRange`: header proof, then chunk by chunk.
    Stream,
    /// Everything computed: pledge, and the auditor re-executes.
    Computed,
}

impl ReadKind {
    pub fn of(q: &Query) -> Self {
        match q {
            Query::GetRow { .. } | Query::ReadFile { .. } => ReadKind::Point,
            Query::ScanRange { .. } => ReadKind::Scan,
            Query::ReadFileRange { .. } => ReadKind::Stream,
            _ => ReadKind::Computed,
        }
    }

    pub fn root(self) -> &'static str {
        match self {
            ReadKind::Point => "read.point",
            ReadKind::Scan => "read.scan",
            ReadKind::Stream => "read.stream",
            ReadKind::Computed => "read.computed",
        }
    }

    pub fn execute(self) -> &'static str {
        match self {
            ReadKind::Point => "store.execute.point",
            ReadKind::Scan => "store.execute.scan",
            ReadKind::Stream => "store.execute.stream",
            ReadKind::Computed => "store.execute.computed",
        }
    }
}

/// What the client ended up with after one read.
pub struct ReadDone {
    /// Every check passed.
    pub ok: bool,
    /// Result (or chunk) bytes plus proof bytes on the wire.
    pub wire_bytes: usize,
    pub rows: usize,
    pub chunks: usize,
}

/// A point read or a range scan: execute, prove, verify against `stamp`.
/// Also returns the answer, so a tamper probe can break it.
pub fn proof_read(
    db: &Database,
    env: &VerifyEnv<'_>,
    stamp: &StateDigestStamp,
    q: &Query,
    tracer: &mut Tracer,
) -> (ReadDone, QueryResult, StateProof) {
    let kind = ReadKind::of(q);
    let (prove, verify) = match kind {
        ReadKind::Point => ("store.prove.point", "store.verify.point"),
        ReadKind::Scan => ("store.prove.scan", "store.verify.scan"),
        _ => panic!("proof_read takes a point read or a scan"),
    };
    tracer.next_request();
    let root = tracer.open(kind.root());

    let s = tracer.open(kind.execute());
    let (result, _) = execute(db, q).expect("benchmark queries are valid");
    tracer.close(s);

    let s = tracer.open(prove);
    let proof = db
        .prove_query(q)
        .expect("point reads and scans have proofs")
        .expect("the table exists");
    tracer.close(s);

    let ok = if tracer.enabled() {
        // The same checks as `verify_proof_read`, split at the layer
        // boundary so the signature and the fold get separate spans.
        let s = tracer.open("core.verify.stamp");
        let stamp_ok = check_digest_stamp(env, stamp);
        tracer.close(s);
        let s = tracer.open(verify);
        let fold_ok = verify_proof_read_stampless(env, q, &result, &proof, stamp);
        tracer.close(s);
        stamp_ok.and(fold_ok)
    } else {
        verify_proof_read(env, SLAVE, q, &result, &proof, stamp)
    };
    tracer.close(root);

    let done = ReadDone {
        ok: ok.is_ok(),
        wire_bytes: proof.wire_len() + result.size(),
        rows: result.row_count(),
        chunks: 0,
    };
    tracer.annotate(
        root,
        &[
            ("rows", done.rows as u64),
            ("proof_bytes", proof.wire_len() as u64),
            ("proof_depth", proof.depth() as u64),
        ],
    );
    (done, result, proof)
}

/// A streamed file range: header proof, then every covering chunk
/// verified as it "arrives".  Also returns the header and the first
/// chunk, for the tamper probe.
pub fn stream_read(
    db: &Database,
    env: &VerifyEnv<'_>,
    stamp: &StateDigestStamp,
    q: &Query,
    tracer: &mut Tracer,
) -> (ReadDone, StreamProof, Vec<u8>) {
    let Query::ReadFileRange { path, offset, len } = q else {
        panic!("stream_read takes a ReadFileRange");
    };
    tracer.next_request();
    let root = tracer.open(ReadKind::Stream.root());

    let s = tracer.open("store.prove.stream");
    let proof = db.prove_stream(path, *offset, *len);
    tracer.close(s);

    // What the replica does in place of `execute` for a stream: copy the
    // covering chunks out of the chunk store.
    let s = tracer.open(ReadKind::Stream.execute());
    let (first, mut chunks): (usize, Vec<Vec<u8>>) = match &proof.slice {
        Some(slice) => (
            slice.first as usize,
            slice
                .entries
                .iter()
                .map(|e| {
                    db.fs()
                        .chunk_bytes(&e.id)
                        .expect("chunk is stored")
                        .to_vec()
                })
                .collect(),
        ),
        None => (0, Vec::new()),
    };
    tracer.close(s);

    let header_ok = if tracer.enabled() {
        let s = tracer.open("core.verify.stamp");
        let stamp_ok = check_digest_stamp(env, stamp);
        tracer.close(s);
        let s = tracer.open("store.verify.stream_header");
        let fold_ok = verify_stream_header_stampless(env, q, &proof, stamp);
        tracer.close(s);
        stamp_ok.and(fold_ok)
    } else {
        verify_stream_header(env, SLAVE, q, &proof, stamp)
    };

    let s = tracer.open("store.verify.chunks");
    let mut bad = 0usize;
    let mut bytes = 0usize;
    for (rel, data) in chunks.iter().enumerate() {
        bad += usize::from(proof.verify_chunk(first + rel, data).is_err());
        bytes += data.len();
    }
    tracer.close(s);
    tracer.annotate(
        s,
        &[("chunks", chunks.len() as u64), ("bytes", bytes as u64)],
    );
    tracer.close(root);

    let done = ReadDone {
        ok: header_ok.is_ok() && bad == 0,
        wire_bytes: proof.wire_len() + bytes,
        rows: 0,
        chunks: chunks.len(),
    };
    chunks.truncate(1);
    (done, proof, chunks.pop().unwrap_or_default())
}

/// A computed query on the pledged path: the replica executes and signs
/// a pledge over the result hash, the client checks hash, signature,
/// stamp and freshness, and the auditor re-executes and compares.
pub fn pledged_read(
    db: &Database,
    env: &VerifyEnv<'_>,
    stamp: &VersionStamp,
    slave_signer: &mut dyn Signer,
    q: &Query,
    tracer: &mut Tracer,
) -> ReadDone {
    tracer.next_request();
    let root = tracer.open(ReadKind::Computed.root());

    let s = tracer.open(ReadKind::Computed.execute());
    let (result, _) = execute(db, q).expect("benchmark queries are valid");
    tracer.close(s);

    let s = tracer.open("core.verify.pledge_build");
    let hash = ResultHash::of(&result, HashAlgo::Sha1);
    let pledge = Pledge::build(q.clone(), hash, stamp.clone(), SLAVE, slave_signer)
        .expect("HMAC signing cannot fail");
    tracer.close(s);

    let s = tracer.open("core.verify.pledge_verify");
    let ok = verify_pledged_read(env, SLAVE, &result, &pledge);
    tracer.close(s);

    let s = tracer.open("core.auditor.reexecute");
    let (again, _) = execute(db, q).expect("benchmark queries are valid");
    let audit_ok = pledge.matches_result(&again);
    tracer.close(s);
    tracer.close(root);

    ReadDone {
        ok: ok.is_ok() && audit_ok,
        wire_bytes: pledge.wire_len() + result.size(),
        rows: result.row_count(),
        chunks: 0,
    }
}
