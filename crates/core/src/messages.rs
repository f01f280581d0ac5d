//! Wire messages exchanged by directory, masters, slaves, and clients.

use crate::evidence::Evidence;
use crate::pledge::Pledge;
use sdr_broadcast::{MemberId, TobMessage};
use sdr_crypto::{Certificate, CryptoError, Hash256, PublicKey, Signature, Signer};
use sdr_sim::{NodeId, Payload, SimTime};
use sdr_store::{Query, QueryResult, StateProof, StreamProof, UpdateOp};

/// The "signed and time-stamped value of the `content_version` variable"
/// (Section 3.1) — attached to state updates, keep-alives, and pledges.
#[derive(Clone, Debug, PartialEq)]
pub struct VersionStamp {
    /// The content version.
    pub version: u64,
    /// When the issuing master signed it.
    pub timestamp: SimTime,
    /// The issuing master.
    pub master: NodeId,
    /// Master signature over [`VersionStamp::signing_bytes`].
    pub signature: Signature,
}

impl VersionStamp {
    /// Canonical bytes the master signs (version + timestamp).
    pub fn signing_bytes(&self) -> Vec<u8> {
        Self::signing_bytes_raw(self.version, self.timestamp)
    }

    fn signing_bytes_raw(version: u64, timestamp: SimTime) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.extend_from_slice(b"sdr/stamp/v1");
        out.extend_from_slice(&version.to_be_bytes());
        out.extend_from_slice(&timestamp.as_micros().to_be_bytes());
        out
    }

    /// Builds and signs a stamp.
    pub fn build(
        version: u64,
        timestamp: SimTime,
        master: NodeId,
        signer: &mut dyn Signer,
    ) -> Result<Self, CryptoError> {
        let signature = signer.sign(&Self::signing_bytes_raw(version, timestamp))?;
        Ok(VersionStamp {
            version,
            timestamp,
            master,
            signature,
        })
    }

    /// Verifies the master's signature.
    pub fn verify(&self, master_key: &PublicKey) -> Result<(), CryptoError> {
        master_key.verify(&self.signing_bytes(), &self.signature)
    }
}

/// A master-signed commitment to the full content state at one version:
/// the anchor of the authenticated (proof-verified) read path.
///
/// Where [`VersionStamp`] certifies only the *version counter* (enough
/// for pledge freshness), this stamp also certifies the state *digest* —
/// so a client holding one can check an O(log n) Merkle path proof from
/// any row or file straight up to a trusted root, with no pledge, audit,
/// or double-check involved.  The `state_signing` baseline signs the
/// same bytes with the owner key; the protocol signs them with master
/// keys on every commit and keep-alive.
#[derive(Clone, Debug, PartialEq)]
pub struct StateDigestStamp {
    /// The content version the digest covers.
    pub version: u64,
    /// [`sdr_store::Database::state_digest`] at that version.
    pub digest: Hash256,
    /// When the issuing party signed it.
    pub timestamp: SimTime,
    /// The issuing master.
    pub master: NodeId,
    /// Signature over [`StateDigestStamp::signing_bytes`].
    pub signature: Signature,
}

impl StateDigestStamp {
    /// Canonical bytes the issuer signs (version + digest + timestamp).
    pub fn signing_bytes(&self) -> Vec<u8> {
        Self::signing_bytes_raw(self.version, &self.digest, self.timestamp)
    }

    fn signing_bytes_raw(version: u64, digest: &Hash256, timestamp: SimTime) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(b"sdr/digest-stamp/v1");
        out.extend_from_slice(&version.to_be_bytes());
        out.extend_from_slice(digest.as_ref());
        out.extend_from_slice(&timestamp.as_micros().to_be_bytes());
        out
    }

    /// Builds and signs a stamp.
    pub fn build(
        version: u64,
        digest: Hash256,
        timestamp: SimTime,
        master: NodeId,
        signer: &mut dyn Signer,
    ) -> Result<Self, CryptoError> {
        let signature = signer.sign(&Self::signing_bytes_raw(version, &digest, timestamp))?;
        Ok(StateDigestStamp {
            version,
            digest,
            timestamp,
            master,
            signature,
        })
    }

    /// Verifies the issuer's signature.
    pub fn verify(&self, issuer_key: &PublicKey) -> Result<(), CryptoError> {
        issuer_key.verify(&self.signing_bytes(), &self.signature)
    }

    /// Whether the stamp is still fresh at `now` under `max_latency`.
    pub fn is_fresh(&self, now: SimTime, max_latency: sdr_sim::SimDuration) -> bool {
        now.since(self.timestamp) <= max_latency
    }
}

/// Outcome of a write request.
#[derive(Clone, Debug, PartialEq)]
pub enum WriteOutcome {
    /// Committed at this content version.
    Committed {
        /// The version the write produced.
        version: u64,
    },
    /// Rejected by the access-control policy.
    AccessDenied,
    /// Rejected because an operation failed (description).
    Failed(String),
}

/// Why a slave refused to serve a read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefuseReason {
    /// The slave's freshest keep-alive exceeded `max_latency` — it gated
    /// itself off, as Section 3 requires of correct slaves.
    OutOfSync,
    /// The slave is shutting down (excluded).
    Excluded,
}

/// Verdict returned by a master for a double-check.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckVerdict {
    /// Slave's answer matched the master's re-execution.
    Match,
    /// Slave lied; the master returns the correct result.
    Mismatch {
        /// The authoritative result.
        correct: QueryResult,
    },
    /// The master no longer holds the pledge's version (client should
    /// simply re-read).
    VersionUnavailable,
    /// Request ignored: the client exceeded its double-check quota
    /// (greedy-client enforcement).  In the real system the master would
    /// silently drop; an explicit message keeps the simulation observable.
    Throttled,
}

/// Events masters submit to their total-order broadcast.
#[derive(Clone, Debug, PartialEq)]
pub enum MasterEvent {
    /// A client write admitted by some master.
    Write {
        /// Master that admitted the write.
        origin_master: MemberId,
        /// The requesting client.
        client: NodeId,
        /// Client-chosen request id (for the response).
        req_id: u64,
        /// The operations.
        ops: Vec<UpdateOp>,
    },
    /// A whole round of client writes admitted by the sequencer: the
    /// head of its queue, drained in arrival order and committed as one
    /// multi-version batch.  One ordered round and one signed stamp pair
    /// carry all of them, amortising the spacing rule's per-round cost
    /// over `writes.len()` commits.
    WriteBatch {
        /// Master that admitted the batch (always the sequencer).
        origin_master: MemberId,
        /// The queued writes in commit order: `(client, req_id, ops)`.
        writes: Vec<(NodeId, u64, Vec<UpdateOp>)>,
    },
    /// Periodic slave-list gossip ("masters also periodically broadcast
    /// their slave list to the master set, so in the event of a master
    /// crash the remaining ones will divide its slave set").
    SlaveList {
        /// The gossiping master.
        master: MemberId,
        /// Its current slaves.
        slaves: Vec<NodeId>,
    },
    /// Agreed exclusion of a slave caught red-handed.
    Exclude {
        /// The provably malicious slave.
        slave: NodeId,
    },
}

/// All messages carried by the simulated network.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    // ----- Directory -----
    /// Client → directory: who replicates this shard of the content?
    /// (Single-shard deployments always ask for shard 0.)
    DirLookup {
        /// The shard being looked up.
        shard: u32,
    },
    /// Directory → client: the shard's master certificates plus its
    /// current auditor.
    DirResponse {
        /// The shard this answer covers (echoed from the lookup).
        shard: u32,
        /// Certificates of the shard's masters (issued by the content
        /// owner, carrying the shard-scope claim).
        certs: Vec<Certificate>,
        /// Node ids corresponding to `certs` (same order).
        nodes: Vec<NodeId>,
        /// The shard's currently elected auditor (excluded from client
        /// setup).
        auditor: NodeId,
    },
    /// Master → directory/client: one shard's elected auditor changed.
    AuditorChanged {
        /// The shard whose auditor moved.
        shard: u32,
        /// New auditor node.
        auditor: NodeId,
    },

    // ----- Client ↔ master: setup -----
    /// Client → master: assign me a slave.
    SetupRequest,
    /// Master → client: your slave assignment (Section 2's setup phase).
    SetupResponse {
        /// The shard the responding master (and its slaves) serve.
        shard: u32,
        /// Assigned slaves (one for the basic protocol, `k` for the
        /// quorum-read variant) with their certificates.
        slaves: Vec<(NodeId, Certificate)>,
        /// Spare replicas of the same shard (at most one today): not
        /// part of the read quorum, used by the proof path to retry a
        /// rejected proof on another replica before falling back to
        /// pledge+audit.
        spares: Vec<(NodeId, Certificate)>,
        /// The shard's current auditor, so pledges can be forwarded.
        auditor: NodeId,
    },

    // ----- Client ↔ master: writes -----
    /// Client → master: commit these operations.
    WriteRequest {
        /// Client-chosen request id.
        req_id: u64,
        /// Operations to apply.
        ops: Vec<UpdateOp>,
    },
    /// Master → client: write outcome.
    WriteResponse {
        /// Echoed request id.
        req_id: u64,
        /// What happened.
        outcome: WriteOutcome,
    },

    // ----- Master ↔ master -----
    /// Total-order broadcast traffic.
    Tob(TobMessage<MasterEvent>),
    /// A non-sequencer master hands a client write to the sequencer, which
    /// owns the global `max_latency` spacing of writes (Section 3.1's "two
    /// write operations cannot be, time-wise, closer than max_latency").
    WriteForward {
        /// The requesting client (gets the response directly).
        client: NodeId,
        /// Client-chosen request id.
        req_id: u64,
        /// The operations.
        ops: Vec<UpdateOp>,
    },

    // ----- Master → slave -----
    /// Committed state update pushed lazily to slaves (Section 3.1).
    StateUpdate {
        /// The version this update produces.
        version: u64,
        /// Operations of the committed write.
        ops: Vec<UpdateOp>,
        /// Signed stamp for the new version.
        stamp: VersionStamp,
        /// Signed state digest at the new version (anchors proof reads).
        digest_stamp: StateDigestStamp,
    },
    /// A batch of committed state updates pushed as one message: the
    /// per-version op runs of one sequencer round, anchored by a
    /// *single* stamp pair signed at the batch's final version.  The
    /// slave applies every run in order and adopts the stamps once the
    /// last one lands — O(1) signatures per round instead of per write.
    StateUpdateBatch {
        /// `(version, ops)` runs in ascending, gapless version order.
        updates: Vec<(u64, Vec<UpdateOp>)>,
        /// Signed stamp of the batch's final version.
        stamp: VersionStamp,
        /// Signed state digest at the batch's final version: one anchor
        /// for every proof read served at that version.
        digest_stamp: StateDigestStamp,
    },
    /// Signed keep-alive (slaves may serve only while fresh).
    KeepAlive {
        /// Signed stamp of the current version.
        stamp: VersionStamp,
        /// Signed state digest at the current version (refreshes the
        /// anchor slaves serve proof reads against).
        digest_stamp: StateDigestStamp,
    },
    /// Slave → master: I am missing updates from `from_version`.
    SlaveSyncRequest {
        /// First version the slave lacks.
        from_version: u64,
    },
    /// Master → slave: you are excluded (corrective action).
    ExcludeNotice,

    // ----- Client ↔ slave: reads -----
    /// Client → slave: execute this query.
    ReadRequest {
        /// Client-chosen request id.
        req_id: u64,
        /// The query.
        query: Query,
    },
    /// Slave → client: result plus signed pledge.
    ///
    /// The pledge rides behind a `Box`: it is by far the widest payload
    /// in the protocol, and inlining it would drag every `Msg` (and so
    /// every queued event allocation) up to its size.
    ReadResponse {
        /// Echoed request id.
        req_id: u64,
        /// The (claimed) query result.
        result: QueryResult,
        /// The signed pledge.
        pledge: Box<Pledge>,
    },
    /// Slave → client: refusing to serve (self-gated or excluded).
    ReadRefused {
        /// Echoed request id.
        req_id: u64,
        /// Why.
        reason: RefuseReason,
    },
    /// Client → slave: execute this static point read and prove the
    /// answer against the signed state digest (no pledge needed).
    ProofRead {
        /// Client-chosen request id.
        req_id: u64,
        /// The query (must be `GetRow` or `ReadFile`).
        query: Query,
    },
    /// Slave → client: result, proof, and the master-signed digest stamp
    /// the proof folds up to.  The proof is an O(log n) Merkle path for a
    /// point read, or for a `ScanRange` an O(log n + k) range skeleton
    /// covering *and completing* the rows (none in the scanned interval
    /// can be omitted).
    ///
    /// Content-addressed rather than request-addressed: the reply echoes
    /// the *query* instead of a per-request id, so one cached reply
    /// allocation serves every concurrent reader of the same hot key or
    /// hot range (the slave's proof cache re-sends the identical `Arc<Msg>`).
    /// Clients match it to their oldest pending proof read for that
    /// query — the pairing is deterministic because a client never has
    /// two distinguishable reads of the same query in flight.
    ProofReadReply {
        /// The query this reply answers (echoed; boxed — see
        /// [`Msg::ReadResponse`] on why wide payloads stay indirect).
        query: Box<Query>,
        /// The (claimed) query result.
        result: QueryResult,
        /// Path or range proof from the result to the digest (boxed —
        /// see [`Msg::ReadResponse`] on why wide payloads stay indirect).
        proof: Box<StateProof>,
        /// Master-signed state digest the proof anchors in.
        digest_stamp: StateDigestStamp,
    },
    /// Client → slave: stream this file range chunk-by-chunk, with a
    /// manifest proof header (the `ReadFileRange` analogue of
    /// [`Msg::ProofRead`]).
    StreamRead {
        /// Client-chosen request id.
        req_id: u64,
        /// The query (must be `ReadFileRange`).
        query: Query,
    },
    /// Slave → client: the stream header — a Merkle path from the file's
    /// chunk manifest to the signed digest.  Chunks follow as
    /// [`Msg::StreamChunk`]; the client verifies each against the
    /// manifest as it arrives, never buffering the whole file.
    StreamHeader {
        /// Echoed request id.
        req_id: u64,
        /// Manifest-to-digest proof (manifest `None` proves absence;
        /// boxed — see [`Msg::ReadResponse`]).
        proof: Box<StreamProof>,
        /// Master-signed state digest the proof anchors in.
        digest_stamp: StateDigestStamp,
        /// Index of the first chunk the stream will carry.
        first_chunk: u32,
        /// Number of chunks the stream will carry.
        chunk_count: u32,
    },
    /// Slave → client: one content chunk of an in-flight stream.
    StreamChunk {
        /// Echoed request id.
        req_id: u64,
        /// Manifest index of this chunk.
        index: u32,
        /// Raw chunk bytes.
        data: Vec<u8>,
    },

    // ----- Client ↔ master: reads (sensitive + double-check) -----
    /// Client → master: execute this read on trusted hardware
    /// (Section 4 security-sensitive variant).
    TrustedRead {
        /// Client-chosen request id.
        req_id: u64,
        /// The query.
        query: Query,
    },
    /// Master → client: authoritative result of a trusted read.
    TrustedReadResponse {
        /// Echoed request id.
        req_id: u64,
        /// The result.
        result: QueryResult,
    },
    /// Client → master: double-check this pledge (Section 3.3).
    DoubleCheck {
        /// Client-chosen request id.
        req_id: u64,
        /// The pledge under suspicion (boxed — see [`Msg::ReadResponse`]).
        pledge: Box<Pledge>,
    },
    /// Master → client: double-check verdict.
    DoubleCheckResponse {
        /// Echoed request id.
        req_id: u64,
        /// The verdict.
        verdict: CheckVerdict,
    },

    // ----- Audit path -----
    /// Client → auditor: pledge for background verification (Section 3.4).
    AuditSubmit {
        /// The pledge to verify (boxed — see [`Msg::ReadResponse`]).
        pledge: Box<Pledge>,
    },
    /// Auditor/client → responsible master: proof of slave misbehaviour.
    Accusation {
        /// Self-contained evidence (boxed — see [`Msg::ReadResponse`]).
        evidence: Box<Evidence>,
    },

    // ----- Corrective action -----
    /// Master → client: your slave was excluded; here is a replacement
    /// (Section 3.5).
    Reassign {
        /// The excluded slave.
        excluded: NodeId,
        /// Replacement assignment (when capacity remains).
        replacement: Option<(NodeId, Certificate)>,
    },
}

impl Payload for Msg {
    fn wire_len(&self) -> usize {
        match self {
            Msg::DirLookup { .. } | Msg::SetupRequest => 16,
            Msg::DirResponse { certs, .. } => 64 + certs.len() * 128,
            Msg::AuditorChanged { .. } => 24,
            Msg::SetupResponse { slaves, spares, .. } => {
                32 + (slaves.len() + spares.len()) * 128
            }
            Msg::WriteRequest { ops, .. } | Msg::WriteForward { ops, .. } => {
                16 + ops.iter().map(UpdateOp::size).sum::<usize>()
            }
            Msg::WriteResponse { .. } => 32,
            Msg::Tob(m) => match m {
                TobMessage::Publish { payload, .. } | TobMessage::Ordered { payload, .. } => {
                    32 + master_event_len(payload)
                }
                TobMessage::StateReply { log, .. } | TobMessage::NewView { log, .. } => {
                    32 + log.iter().map(|(_, _, _, e)| master_event_len(e)).sum::<usize>()
                }
                _ => 32,
            },
            // Version stamp (96) plus the digest stamp (32-byte digest +
            // signature, ~128).
            Msg::StateUpdate { ops, .. } => {
                224 + ops.iter().map(UpdateOp::size).sum::<usize>()
            }
            // One 224-byte stamp pair for the whole batch, plus a small
            // per-run header (version) and the ops themselves.
            Msg::StateUpdateBatch { updates, .. } => {
                224 + updates
                    .iter()
                    .map(|(_, ops)| 8 + ops.iter().map(UpdateOp::size).sum::<usize>())
                    .sum::<usize>()
            }
            Msg::KeepAlive { .. } => 224,
            Msg::SlaveSyncRequest { .. } => 16,
            Msg::ExcludeNotice => 8,
            Msg::ReadRequest { query, .. }
            | Msg::ProofRead { query, .. }
            | Msg::StreamRead { query, .. }
            | Msg::TrustedRead { query, .. } => 16 + query.encode().len(),
            Msg::ReadResponse { result, pledge, .. } => 16 + result.size() + pledge.wire_len(),
            Msg::ReadRefused { .. } => 16,
            Msg::ProofReadReply { query, result, proof, .. } => {
                8 + query.encode().len() + result.size() + proof.wire_len() + 128
            }
            // Header proof plus the digest stamp (~128) and stream bounds.
            Msg::StreamHeader { proof, .. } => 24 + proof.wire_len() + 128,
            Msg::StreamChunk { data, .. } => 20 + data.len(),
            Msg::TrustedReadResponse { result, .. } => 16 + result.size(),
            Msg::DoubleCheck { pledge, .. } => 16 + pledge.wire_len(),
            Msg::DoubleCheckResponse { verdict, .. } => match verdict {
                CheckVerdict::Mismatch { correct } => 16 + correct.size(),
                _ => 24,
            },
            Msg::AuditSubmit { pledge } => 8 + pledge.wire_len(),
            Msg::Accusation { evidence } => 64 + evidence.pledge.wire_len(),
            Msg::Reassign { .. } => 160,
        }
    }
}

fn master_event_len(e: &MasterEvent) -> usize {
    match e {
        MasterEvent::Write { ops, .. } => 24 + ops.iter().map(UpdateOp::size).sum::<usize>(),
        MasterEvent::WriteBatch { writes, .. } => {
            24 + writes
                .iter()
                .map(|(_, _, ops)| 16 + ops.iter().map(UpdateOp::size).sum::<usize>())
                .sum::<usize>()
        }
        MasterEvent::SlaveList { slaves, .. } => 16 + slaves.len() * 4,
        MasterEvent::Exclude { .. } => 12,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_crypto::{Digest as _, HmacSigner};

    #[test]
    fn stamp_sign_verify() {
        let mut m = HmacSigner::from_seed_label(1, b"m");
        let stamp = VersionStamp::build(7, SimTime::from_millis(100), NodeId(0), &mut m).unwrap();
        stamp.verify(&m.public_key()).unwrap();

        let other = HmacSigner::from_seed_label(2, b"m");
        assert!(stamp.verify(&other.public_key()).is_err());
    }

    #[test]
    fn digest_stamp_sign_verify_and_tamper() {
        let mut m = HmacSigner::from_seed_label(1, b"m");
        let digest = sdr_crypto::Sha256::digest(b"state");
        let stamp = StateDigestStamp::build(
            3,
            digest,
            SimTime::from_millis(50),
            NodeId(0),
            &mut m,
        )
        .unwrap();
        stamp.verify(&m.public_key()).unwrap();
        assert!(stamp.is_fresh(
            SimTime::from_millis(100),
            sdr_sim::SimDuration::from_millis(100)
        ));
        assert!(!stamp.is_fresh(
            SimTime::from_millis(200),
            sdr_sim::SimDuration::from_millis(100)
        ));

        let mut bad = stamp.clone();
        bad.digest = sdr_crypto::Sha256::digest(b"forged");
        assert!(bad.verify(&m.public_key()).is_err());
        let mut bad = stamp;
        bad.version += 1;
        assert!(bad.verify(&m.public_key()).is_err());
    }

    #[test]
    fn tampered_stamp_rejected() {
        let mut m = HmacSigner::from_seed_label(1, b"m");
        let mut stamp =
            VersionStamp::build(7, SimTime::from_millis(100), NodeId(0), &mut m).unwrap();
        stamp.version = 8;
        assert!(stamp.verify(&m.public_key()).is_err());
    }

    /// Pins the in-memory footprint of the scheduler's unit of work.
    /// `Event<Msg>` holds deliveries behind an `Arc`, so it must stay
    /// within a single cache line regardless of how `Msg` grows; and the
    /// `Msg` allocation itself must not regress past the stamp-carrying
    /// replication variants, which set the floor.  If either assertion
    /// fires, a new variant embedded a wide payload inline — box it
    /// (see `ReadResponse`).
    #[test]
    fn event_and_msg_stay_small() {
        assert!(
            std::mem::size_of::<sdr_sim::event::Event<Msg>>() <= 64,
            "Event<Msg> is {}B; must fit one cache line",
            std::mem::size_of::<sdr_sim::event::Event<Msg>>()
        );
        assert!(
            std::mem::size_of::<Msg>() <= 256,
            "Msg is {}B; box wide payload fields",
            std::mem::size_of::<Msg>()
        );
    }

    #[test]
    fn wire_lengths_are_plausible() {
        assert!(Msg::DirLookup { shard: 0 }.wire_len() < Msg::ExcludeNotice.wire_len() + 100);
        let big = Msg::WriteRequest {
            req_id: 1,
            ops: vec![UpdateOp::WriteFile {
                path: "/a".into(),
                contents: "x".repeat(1000),
            }],
        };
        assert!(big.wire_len() > 1000);
    }
}
