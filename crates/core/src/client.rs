//! Clients: issue reads/writes, verify everything, sample double-checks.
//!
//! Every read runs one pipeline — *dispatch → verify the evidence against
//! a master-signed stamp → accept, retry another replica, or escalate* —
//! parameterised by the evidence its path expects ([`crate::verify`] has
//! the table):
//!
//! * **Pledged** (computed queries) — Section 3.2 verbatim: compute the
//!   result hash and compare with the pledge, verify the slave's
//!   signature, verify the master stamp, and check the stamp is no older
//!   than `max_latency` (possibly the client's *own* bound — the paper's
//!   slow-client accommodation).  Accepted results are either
//!   double-checked with the master (probability `p`) or their pledge is
//!   forwarded to the auditor — acceptance happens only after the pledge
//!   is on its way, as Section 3.4 requires.
//! * **Proof-verified** (static `GetRow`/`ReadFile` lookups, `ScanRange`
//!   scans, `ReadFileRange` streams) — the slave answers with a Merkle
//!   path, range skeleton, or manifest slice against a master-signed
//!   state digest; the client verifies it locally and accepts *finally*:
//!   no pledge, no double-check, no auditor traffic.  A failed proof (a
//!   lying or corrupt slave) first retries one *other* replica of the
//!   same shard on the proof path; only a second failure falls the read
//!   back to the pledged path.
//! * **Trusted** (Section 4's security-sensitive reads) — straight to the
//!   owning shard's trusted master, whose answer is authoritative.
//!
//! With the content space sharded, the client is the router: every
//! query and write batch is mapped to its owning shard by the
//! [`ShardMap`], and the whole pipeline for that request — slaves,
//! master, auditor, verification keys — is the owning shard's.  Each
//! shard independently carries the paper's trust argument; a Byzantine
//! replica in one shard never appears on another shard's read path.
//!
//! `read_quorum > 1` sends a pledged query to several of the shard's
//! slaves, auto-double-checking on any disagreement (Section 4).

use crate::config::SystemConfig;
use crate::cost::proof_fold_charge;
use crate::messages::{CheckVerdict, Msg, RefuseReason, StateDigestStamp, WriteOutcome};
use crate::metrics as id;
use crate::pledge::{Pledge, ResultHash};
use crate::shard::ShardMap;
use crate::verify::{self, ReadStrategy, RejectReason, VerifyEnv};
use crate::workload::Workload;
use rand::Rng;
use sdr_crypto::{CertRole, Certificate, Digest as _, Hash256, PublicKey, Sha256};
use sdr_sim::{Counter, Ctx, NodeId, Process, SimDuration, SimTime};
use sdr_store::{LruByteCache, ProofError, Query, QueryResult, StateProof, StreamProof, UpdateOp};
use std::collections::{HashMap, HashSet, VecDeque};

const K_BOOT: u64 = 1;
const K_NEXT_READ: u64 = 2;
const K_NEXT_WRITE: u64 = 3;
const K_READ_TIMEOUT: u64 = 4;
const K_WRITE_TIMEOUT: u64 = 5;
const K_SETUP_TIMEOUT: u64 = 6;
const K_CHURN: u64 = 7;

fn tag(kind: u64, req: u64) -> u64 {
    (kind << 40) | req
}
fn tag_kind(t: u64) -> u64 {
    t >> 40
}
fn tag_req(t: u64) -> u64 {
    t & ((1 << 40) - 1)
}

/// Setup/operation phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Boot,
    AwaitDir,
    AwaitSetup,
    Ready,
    /// Churned away: no reads, no writes, all inbound traffic dropped.
    /// The next churn flip reboots through the full setup phase.
    Offline,
}

/// The client's view of one shard: its masters, the chosen setup master,
/// the assigned slaves, and the shard's auditor.
#[derive(Clone, Debug, Default)]
struct ShardView {
    masters: Vec<(NodeId, PublicKey)>,
    master: Option<(NodeId, PublicKey)>,
    slaves: Vec<(NodeId, PublicKey)>,
    /// Spare replicas of the shard: outside the read quorum, targeted
    /// only by proof-path retries.
    spares: Vec<(NodeId, PublicKey)>,
    auditor: NodeId,
}

struct PendingRead {
    query: Query,
    /// Owning shard (routing key of the whole pipeline).
    shard: usize,
    /// Which evidence this read waits for, and its progress.
    path: PathState,
    attempts: u32,
    issued_at: SimTime,
    /// Every node that still owes this read a reply: the slaves it was
    /// sent to, the trusted master of a sensitive read, the master a
    /// quorum-mismatch double-check went to.  Nobody else may answer it.
    awaiting: HashSet<NodeId>,
    /// Set when this read is one per-shard sub-scan of a scattered
    /// cross-shard `ScanRange`: the parent scan's id.  Sub-scans accept
    /// into the parent's stitcher instead of counting their own read,
    /// and never fall back to the pledged path — a stitched scan is
    /// only as strong as its weakest piece.
    parent_scan: Option<u64>,
}

/// Per-path state of a pending read.  A read changes path at most once:
/// `Proof` becomes `Pledged` when its proof attempts are exhausted.
enum PathState {
    /// Sensitive read on the owning shard's trusted master.
    Trusted,
    /// Pledged quorum read.
    Pledged {
        /// Verified responses so far.
        responses: Vec<(NodeId, QueryResult, Pledge)>,
        /// Set once the quorum disagreed and its pledges went to the
        /// master for a double-check; that master then joins `awaiting`.
        checking: bool,
    },
    /// Proof-anchored read: point path, range skeleton, or chunk stream.
    Proof {
        /// Whether the one extra same-shard replica retry has been
        /// spent (proof-path hardening).
        retried: bool,
        /// In-flight chunk stream (`ReadFileRange`): the verified header
        /// plus per-chunk progress.  The client never holds the file —
        /// only the manifest and which chunk indexes verified.
        stream: Option<Box<StreamState>>,
        /// Chunks that arrived before their stream header (per-message
        /// network latency can reorder the slave's sends).  Held
        /// unverified until the header opens the window, then replayed;
        /// bounded so a flood before any header cannot grow client memory.
        early_chunks: Vec<(NodeId, u32, Vec<u8>)>,
    },
}

impl PathState {
    fn pledged() -> Self {
        PathState::Pledged {
            responses: Vec::new(),
            checking: false,
        }
    }

    fn proof() -> Self {
        PathState::Proof {
            retried: false,
            stream: None,
            early_chunks: Vec::new(),
        }
    }

    /// Forgets partial progress before the read is sent again (a spent
    /// proof retry stays spent).
    fn reset(&mut self) {
        match self {
            PathState::Trusted => {}
            PathState::Pledged { responses, checking } => {
                responses.clear();
                *checking = false;
            }
            PathState::Proof {
                stream,
                early_chunks,
                ..
            } => {
                *stream = None;
                early_chunks.clear();
            }
        }
    }
}

/// How a read came to be accepted; picks the per-path counters
/// [`ClientProcess::accept`] emits beside the common ones.
enum Accept<'a> {
    /// Unanimous verified pledges, already on their way to the auditor
    /// or the master.
    Pledged,
    /// The master settled a quorum mismatch (`corrected`: with its own
    /// authoritative answer).
    Checked { corrected: bool },
    /// Authoritative answer from trusted hardware.
    Trusted,
    /// This result from this slave folded up to the signed digest.
    Proof(NodeId, &'a QueryResult),
    /// Every announced chunk verified against the manifest slice (or the
    /// header alone proved an empty or absent range).
    Stream { chunks: u64, bytes: u64 },
}

/// One scattered cross-shard range scan: the parent of `parts.len()`
/// per-shard sub-scans, each a normal proof-path [`PendingRead`].  The
/// parent accepts only when every part verified against its own shard's
/// signed digest *and* the parts tile the scanned interval exactly —
/// gap, overlap, or any per-shard proof failure rejects the whole scan.
struct ScanState {
    /// Scanned half-open key interval.
    start: u64,
    end: u64,
    issued_at: SimTime,
    /// `(sub_start, sub_end, verified_rows)` per part, ascending;
    /// `None` = still in flight.
    parts: Vec<(u64, u64, Option<u64>)>,
    /// Sub-request id → index into `parts`.
    by_req: HashMap<u64, usize>,
}

/// Progress of one verified chunk stream.
struct StreamState {
    /// The header proof (manifest pinned to the signed digest).
    proof: StreamProof,
    /// The slave streaming to us; chunks from anyone else are ignored.
    source: NodeId,
    /// First manifest index the stream carries.
    first: u32,
    /// Number of chunks announced.
    count: u32,
    /// Manifest indexes verified so far (the network may reorder
    /// chunks; verification is per-index so order never matters).
    received: HashSet<u32>,
    /// Verified payload bytes so far.
    bytes: u64,
}

/// Per-client counters used by experiments (E8 needs per-client views).
#[derive(Clone, Copy, Debug, Default, serde::ToJson, serde::FromJson)]
pub struct ClientCounters {
    /// Reads issued.
    pub reads_issued: u64,
    /// Reads accepted after full verification.
    pub reads_accepted: u64,
    /// Reads that exhausted their retries.
    pub reads_failed: u64,
    /// Double-checks sent.
    pub dc_sent: u64,
    /// Double-checks the master throttled (greedy enforcement).
    pub dc_throttled: u64,
    /// Stale-stamp rejections observed.
    pub stale_rejections: u64,
    /// Times this client had to redo the setup phase.
    pub re_setups: u64,
    /// Static reads issued on the proof path.
    pub proof_reads_issued: u64,
    /// Proof-verified reads accepted (these never touch the auditor).
    pub proof_reads_accepted: u64,
    /// Rejected proof replies retried on another replica of the same
    /// shard, still on the proof path (before any pledged fallback).
    pub proof_retries: u64,
}

/// A client process.
pub struct ClientProcess {
    cfg: SystemConfig,
    workload: Workload,
    index: usize,
    directory: NodeId,
    content_key: PublicKey,
    is_writer: bool,
    dc_prob: f64,
    my_max_latency: SimDuration,
    map: ShardMap,

    phase: Phase,
    /// Whether this client participates in session churn (drawn once at
    /// start from [`crate::workload::ChurnModel::fraction`]).
    churns: bool,
    /// Whether a read/write workload timer chain is currently ticking.
    /// Guards re-arming on every `Ready` transition: without it each
    /// re-setup (and each churn rejoin) would stack another perpetual
    /// timer chain, inflating the event rate cycle after cycle.
    read_timer_live: bool,
    write_timer_live: bool,
    shards: Vec<ShardView>,
    /// Shards with an outstanding `SetupRequest`: exactly these have an
    /// unresponsive master to blame when the setup timeout fires.
    awaiting_setup: HashSet<usize>,
    blacklist: HashSet<NodeId>,

    next_req: u64,
    pending: HashMap<u64, PendingRead>,
    /// In-flight scattered cross-shard scans, by parent id.
    scans: HashMap<u64, ScanState>,
    pending_writes: HashMap<u64, (SimTime, usize)>,
    /// Per-shard overflow of sampled-but-unsent writes: with
    /// `max_write_batch > 1` the client keeps up to a batch of writes
    /// outstanding per shard (pipelining into the sequencer's round) and
    /// parks the rest here until responses drain the window.  Unused —
    /// and unallocated per-entry — at `max_write_batch = 1`.
    deferred_writes: Vec<VecDeque<Vec<UpdateOp>>>,

    /// Stamp-verification cache: digests of `(master key, stamp
    /// statement)` pairs whose signature already verified.  A repeat
    /// read anchored in the same stamp skips the signature check — the
    /// dominant cost of a verified hot read — while freshness is still
    /// re-checked on every reply and the Merkle fold always runs.
    /// Entry weight is 1, so the byte budget doubles as an entry count.
    stamp_cache: LruByteCache<()>,
    /// Verified-certificate set: `scoped_cache_key` digests of
    /// certificates that passed `verify_scoped` for a given issuer,
    /// role, and shard.  Re-setups after churn re-admit the same
    /// replica roster with a table lookup per certificate.
    cert_cache: LruByteCache<()>,

    /// `(slave, accepted result-hash bytes)` — joined post-run against
    /// slave lie logs to count wrong answers that slipped through.
    acceptances: Vec<(NodeId, Vec<u8>)>,
    counters: ClientCounters,
}

/// One signature check memoised in a verified-statement set: a statement
/// whose `key` is in `cache` pays a lookup instead of `verify`; anything
/// else pays the full check and, when it passes, joins the set.  `None`
/// means the cache is configured off.  `hit` and `miss` are the counters
/// to bump.
fn memoised_verify(
    ctx: &mut Ctx<'_, Msg>,
    cache: Option<&mut LruByteCache<()>>,
    cache_verify: bool,
    (hit, miss): (Counter, Counter),
    key: impl FnOnce() -> Hash256,
    verify: impl Fn() -> bool,
) -> bool {
    let Some(cache) = cache else {
        ctx.charge(ctx.costs().verify);
        return verify();
    };
    let key = key();
    if cache.get(&key).is_some() {
        ctx.charge(ctx.costs().cache_lookup);
        ctx.metrics().inc(hit);
        if cache_verify && !verify() {
            ctx.metrics().inc(id::CLIENT_CACHE_DIVERGENCE);
        }
        return true;
    }
    ctx.metrics().inc(miss);
    ctx.charge(ctx.costs().verify);
    let ok = verify();
    if ok {
        cache.put(key, (), 1);
    }
    ok
}

impl ClientProcess {
    /// Creates a client.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: SystemConfig,
        workload: Workload,
        index: usize,
        directory: NodeId,
        content_key: PublicKey,
        is_writer: bool,
    ) -> Self {
        let dc_prob = workload
            .greedy_clients
            .iter()
            .find(|(i, _)| *i == index)
            .map(|(_, p)| *p)
            .unwrap_or(cfg.double_check_prob);
        let my_max_latency = workload
            .client_max_latency
            .iter()
            .find(|(i, _)| *i == index)
            .map(|(_, d)| *d)
            .unwrap_or(cfg.max_latency);
        let map = ShardMap::new(cfg.n_shards, &workload.dataset);
        let cfg_shards = cfg.n_shards.max(1);
        let shards = vec![ShardView::default(); cfg_shards];
        let stamp_cache = LruByteCache::new(cfg.stamp_cache_entries);
        let cert_cache = LruByteCache::new(cfg.cert_cache_entries);
        ClientProcess {
            cfg,
            workload,
            index,
            directory,
            content_key,
            is_writer,
            dc_prob,
            my_max_latency,
            map,
            phase: Phase::Boot,
            churns: false,
            read_timer_live: false,
            write_timer_live: false,
            shards,
            awaiting_setup: HashSet::new(),
            blacklist: HashSet::new(),
            next_req: 1,
            pending: HashMap::new(),
            scans: HashMap::new(),
            pending_writes: HashMap::new(),
            deferred_writes: vec![VecDeque::new(); cfg_shards],
            stamp_cache,
            cert_cache,
            acceptances: Vec::new(),
            counters: ClientCounters::default(),
        }
    }

    /// Acceptance log: `(slave, result-hash bytes)` of every accepted read.
    pub fn acceptances(&self) -> &[(NodeId, Vec<u8>)] {
        &self.acceptances
    }

    /// Per-client counters.
    pub fn counters(&self) -> ClientCounters {
        self.counters
    }

    /// The client's assigned slaves across all shards (test inspection).
    pub fn assigned_slaves(&self) -> Vec<NodeId> {
        self.shards
            .iter()
            .flat_map(|sv| sv.slaves.iter().map(|(n, _)| *n))
            .collect()
    }

    /// The client's assigned slaves of one shard (test inspection).
    pub fn assigned_slaves_of_shard(&self, shard: usize) -> Vec<NodeId> {
        self.shards[shard].slaves.iter().map(|(n, _)| *n).collect()
    }

    /// Whether setup completed (every shard has at least one slave).
    pub fn is_ready(&self) -> bool {
        self.phase == Phase::Ready
    }

    /// Current Byzantine-evidence blacklist (test inspection).
    pub fn blacklisted(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.blacklist.iter().copied().collect();
        v.sort();
        v
    }

    /// Plants Byzantine evidence against a node (test injection).
    pub fn blacklist_insert(&mut self, node: NodeId) {
        self.blacklist.insert(node);
    }

    /// The master this client set up shard `shard` with (test inspection).
    pub fn chosen_master(&self, shard: usize) -> Option<NodeId> {
        self.shards[shard].master.map(|(n, _)| n)
    }

    /// The master roster this client learned for shard `shard` from the
    /// directory (test inspection).
    pub fn shard_masters(&self, shard: usize) -> Vec<NodeId> {
        self.shards[shard].masters.iter().map(|(n, _)| *n).collect()
    }

    fn boot(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.phase = Phase::AwaitDir;
        for sv in &mut self.shards {
            sv.master = None;
            sv.slaves.clear();
            sv.spares.clear();
            sv.masters.clear();
        }
        self.awaiting_setup.clear();
        // Parked writes reference the pre-reboot pipeline; drop them (the
        // workload timer keeps producing fresh ones once Ready again).
        for q in &mut self.deferred_writes {
            q.clear();
        }
        for shard in 0..self.shards.len() {
            ctx.send(self.directory, Msg::DirLookup { shard: shard as u32 });
        }
        ctx.set_timer(self.cfg.read_timeout * 4, tag(K_SETUP_TIMEOUT, 0));
    }

    fn choose_master(&self, shard: usize, auditor: NodeId) -> Option<(NodeId, PublicKey)> {
        let eligible: Vec<&(NodeId, PublicKey)> = self.shards[shard]
            .masters
            .iter()
            .filter(|(n, _)| *n != auditor && !self.blacklist.contains(n))
            .collect();
        if eligible.is_empty() {
            return None;
        }
        // Deterministic spread of clients across masters ("the closest one
        // for example" — we model proximity as static preference).
        Some(*eligible[self.index % eligible.len()])
    }

    fn schedule_next_read(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now();
        let gap = self.workload.read_gap(ctx.rng(), now);
        self.read_timer_live = true;
        ctx.set_timer(gap, tag(K_NEXT_READ, 0));
    }

    fn schedule_next_write(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let gap = self.workload.write_gap(ctx.rng(), 1);
        self.write_timer_live = true;
        ctx.set_timer(gap, tag(K_NEXT_WRITE, 0));
    }

    /// Leaves the system: drops every in-flight request so late replies
    /// and timeouts find nothing to act on, and lets the workload timer
    /// chains die at their next tick.
    fn go_offline(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.phase = Phase::Offline;
        self.pending.clear();
        self.scans.clear();
        self.pending_writes.clear();
        for q in &mut self.deferred_writes {
            q.clear();
        }
        self.awaiting_setup.clear();
        ctx.metrics().inc(id::CLIENT_CHURN_LEAVE);
    }

    /// Writes in flight to one shard's master (response still pending).
    fn outstanding_writes(&self, shard: usize) -> usize {
        self.pending_writes
            .values()
            .filter(|(_, s)| *s == shard)
            .count()
    }

    /// Sends one write to the owning shard's master with the usual
    /// timeout; drops it silently when the shard has no chosen master
    /// (the periodic write timer just moves on, as before batching).
    fn send_write(&mut self, ctx: &mut Ctx<'_, Msg>, shard: usize, ops: Vec<UpdateOp>) {
        if let Some((m, _)) = self.shards[shard].master {
            let req = self.next_req;
            self.next_req += 1;
            ctx.metrics().inc(id::WRITE_ISSUED);
            self.pending_writes.insert(req, (ctx.now(), shard));
            ctx.send(m, Msg::WriteRequest { req_id: req, ops });
            ctx.set_timer(
                self.cfg.max_latency * 4 + self.cfg.read_timeout,
                tag(K_WRITE_TIMEOUT, req),
            );
        }
    }

    /// Refills the shard's pipeline window from the deferred queue.
    fn flush_deferred_writes(&mut self, ctx: &mut Ctx<'_, Msg>, shard: usize) {
        while !self.deferred_writes[shard].is_empty()
            && self.outstanding_writes(shard) < self.cfg.max_write_batch
        {
            let ops = self.deferred_writes[shard].pop_front().expect("non-empty");
            self.send_write(ctx, shard, ops);
        }
    }

    /// Rotation cursor shared by every proof-path target pick: request
    /// id plus attempt count, wrapped over the replica list.
    fn proof_rotation(req: u64, attempts: u32, n: usize) -> usize {
        (req as usize + attempts as usize) % n.max(1)
    }

    /// Picks the replica a *rejected* proof retries: the next assigned
    /// replica in the same rotation that is not the one that failed, or
    /// — with a quorum of one — the setup-issued spare of the shard.
    fn proof_retry_target(
        &self,
        shard: usize,
        req: u64,
        attempts: u32,
        failed: NodeId,
    ) -> Option<NodeId> {
        let sv = &self.shards[shard];
        let n = sv.slaves.len();
        let start = Self::proof_rotation(req, attempts, n);
        (1..=n)
            .map(|i| sv.slaves[(start + i) % n].0)
            .find(|s| *s != failed)
            .or_else(|| sv.spares.iter().map(|(s, _)| *s).find(|s| *s != failed))
    }

    fn issue_read(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.phase != Phase::Ready {
            return;
        }
        let query = self.workload.mix.sample(ctx.rng(), &self.workload.dataset);
        // A `ScanRange` crossing shard boundaries scatters: one
        // proof-path sub-scan per owning shard, stitched client-side.
        // Single-shard scans fall through to the ordinary proof path.
        if let Query::ScanRange { start, end, .. } = &query {
            if self.cfg.proof_reads {
                let parts = self.map.split_scan(*start, *end);
                if parts.len() > 1 {
                    self.issue_scatter_scan(ctx, query, parts);
                    return;
                }
            }
        }
        let shard = self.map.shard_of_query(&query);
        if self.shards[shard].slaves.is_empty() {
            return;
        }
        self.counters.reads_issued += 1;
        ctx.metrics().inc(id::READ_ISSUED);

        let sensitive =
            self.cfg.sensitive_fraction > 0.0 && ctx.coin() < self.cfg.sensitive_fraction;
        let path = if sensitive {
            // Section 4 variant: trusted hardware is its own (stronger)
            // guarantee.
            ctx.metrics().inc(id::READ_SENSITIVE);
            PathState::Trusted
        } else if verify::strategy_for(&query, self.cfg.proof_reads) == ReadStrategy::Proof {
            self.counters.proof_reads_issued += 1;
            ctx.metrics().inc(id::READ_PROOF_ISSUED);
            if matches!(query, Query::ReadFileRange { .. }) {
                ctx.metrics().inc(id::READ_STREAM_ISSUED);
            }
            PathState::proof()
        } else {
            PathState::pledged()
        };
        self.start_read(ctx, query, shard, path, None);
    }

    /// Registers a read on `path` under a fresh request id and sends it.
    fn start_read(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        query: Query,
        shard: usize,
        path: PathState,
        parent_scan: Option<u64>,
    ) -> u64 {
        let req = self.next_req;
        self.next_req += 1;
        self.pending.insert(
            req,
            PendingRead {
                query,
                shard,
                path,
                attempts: 0,
                issued_at: ctx.now(),
                awaiting: HashSet::new(),
                parent_scan,
            },
        );
        self.dispatch(ctx, req, None);
        req
    }

    /// Sends pending read `req` on its current path and arms its
    /// timeout — the one place a read request leaves the client.
    /// Targets: the trusted master for a sensitive read; for a proof
    /// read one replica (the proof is self-certifying, so there is
    /// nothing a quorum would vote on) — `retry_target`, else the
    /// rotation by request id and attempt, so retries after timeouts try
    /// a different one; every assigned slave for a pledged read.  With
    /// no target right now (mid-reassignment) the read idles on its
    /// timeout.  Every target joins `awaiting`.
    fn dispatch(&mut self, ctx: &mut Ctx<'_, Msg>, req: u64, retry_target: Option<NodeId>) {
        let Some(p) = self.pending.get_mut(&req) else { return };
        let sv = &self.shards[p.shard];
        let targets: Vec<NodeId> = match p.path {
            PathState::Trusted => sv.master.iter().map(|(m, _)| *m).collect(),
            PathState::Proof { .. } => {
                let rotated = Self::proof_rotation(req, p.attempts, sv.slaves.len());
                let target = retry_target.or_else(|| sv.slaves.get(rotated).map(|(s, _)| *s));
                target.into_iter().collect()
            }
            PathState::Pledged { .. } => sv.slaves.iter().map(|(s, _)| *s).collect(),
        };
        for target in targets {
            let (req_id, query) = (req, p.query.clone());
            let msg = match (&p.path, &query) {
                (PathState::Trusted, _) => Msg::TrustedRead { req_id, query },
                (PathState::Pledged { .. }, _) => Msg::ReadRequest { req_id, query },
                // File ranges stream (header + chunks); everything else
                // is a single proof reply.
                (PathState::Proof { .. }, Query::ReadFileRange { .. }) => {
                    Msg::StreamRead { req_id, query }
                }
                (PathState::Proof { .. }, _) => Msg::ProofRead { req_id, query },
            };
            ctx.send(target, msg);
            p.awaiting.insert(target);
        }
        ctx.set_timer(self.cfg.read_timeout, tag(K_READ_TIMEOUT, req));
    }

    /// Scatters one cross-shard `ScanRange` into per-shard sub-scans:
    /// each part is an ordinary proof-path read of its owning shard
    /// (verified against *that shard's* signed digest), registered under
    /// a parent [`ScanState`] that stitches the verified pieces.  The
    /// parent counts as one issued read; the fan-out is bookkeeping.
    fn issue_scatter_scan(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        query: Query,
        parts: Vec<(usize, u64, u64)>,
    ) {
        if parts.iter().any(|(s, _, _)| self.shards[*s].slaves.is_empty()) {
            return; // Some target shard is mid-reassignment; skip the tick.
        }
        let Query::ScanRange { table, start, end } = query else {
            unreachable!("caller matched ScanRange");
        };
        let parent = self.next_req;
        self.next_req += 1;
        self.counters.reads_issued += 1;
        self.counters.proof_reads_issued += 1;
        ctx.metrics().inc(id::READ_ISSUED);
        ctx.metrics().inc(id::READ_PROOF_ISSUED);
        ctx.metrics().inc(id::READ_RANGE_SCATTERED);
        let mut scan = ScanState {
            start,
            end,
            issued_at: ctx.now(),
            parts: Vec::with_capacity(parts.len()),
            by_req: HashMap::new(),
        };
        for (i, (shard, lo, hi)) in parts.into_iter().enumerate() {
            let sub = Query::ScanRange {
                table: table.clone(),
                start: lo,
                end: hi,
            };
            let req = self.start_read(ctx, sub, shard, PathState::proof(), Some(parent));
            scan.parts.push((lo, hi, None));
            scan.by_req.insert(req, i);
        }
        self.scans.insert(parent, scan);
    }

    /// The one failure tail: removes the pending read and counts it
    /// failed.  A sub-scan takes its parent and every sibling down with
    /// it (a stitched result with a missing piece is no result); the
    /// scan is the read that is counted, once.
    fn fail_read(&mut self, ctx: &mut Ctx<'_, Msg>, req: u64) {
        let Some(p) = self.pending.remove(&req) else { return };
        if let Some(parent) = p.parent_scan {
            let Some(scan) = self.scans.remove(&parent) else { return };
            for sibling in scan.by_req.keys() {
                self.pending.remove(sibling);
            }
            ctx.metrics().inc(id::READ_RANGE_FAILED);
        }
        self.counters.reads_failed += 1;
        ctx.metrics().inc(id::READ_FAILED);
    }

    /// Records one verified sub-scan.  When the last part lands, runs the
    /// stitch check — the parts must tile `[start, end)` exactly — and
    /// returns when the scan was issued, for [`Self::accept`] to count
    /// the parent as one accepted proof read.
    fn scan_part_done(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        parent: u64,
        req: u64,
        rows: u64,
    ) -> Option<SimTime> {
        let scan = self.scans.get_mut(&parent)?;
        let idx = *scan.by_req.get(&req)?;
        scan.parts[idx].2 = Some(rows);
        if scan.parts.iter().any(|(_, _, r)| r.is_none()) {
            return None;
        }
        let scan = self.scans.remove(&parent).expect("present");
        // Every part carries its own shard's range proof, so each piece
        // is complete *within its bounds*; the stitch check makes the
        // bounds themselves airtight: ascending, gapless, covering.
        let mut cursor = scan.start;
        let mut exact = true;
        for (lo, hi, _) in &scan.parts {
            exact &= *lo == cursor && *hi > *lo;
            cursor = *hi;
        }
        exact &= cursor == scan.end;
        if !exact {
            ctx.metrics().inc(id::READ_RANGE_STITCH_REJECTED);
            self.counters.reads_failed += 1;
            ctx.metrics().inc(id::READ_FAILED);
            return None;
        }
        let total: u64 = scan.parts.iter().filter_map(|(_, _, r)| *r).sum();
        ctx.metrics().inc(id::READ_RANGE_STITCHED);
        ctx.metrics().observe(id::RANGE_SCAN_ROWS, total);
        Some(scan.issued_at)
    }

    /// Sends a read again after a timeout, refusal, reassignment or
    /// fallback — or fails it once its retries are spent.
    fn retry_read(&mut self, ctx: &mut Ctx<'_, Msg>, req: u64) {
        let Some(p) = self.pending.get_mut(&req) else { return };
        p.attempts += 1;
        if p.attempts > self.cfg.read_retries {
            return self.fail_read(ctx, req);
        }
        ctx.metrics().inc(id::READ_RETRY);
        p.path.reset();
        p.awaiting.clear();
        self.dispatch(ctx, req, None);
    }

    /// The one reply gate: the path of pending read `req`, if `from`
    /// still owes it a reply.  A reply from anyone else — a Byzantine
    /// slave that saw the id in a request, a replica already given up
    /// on — is unsolicited whatever it carries.
    fn solicited(&self, req: u64, from: NodeId) -> Option<&PathState> {
        let p = self.pending.get(&req)?;
        p.awaiting.contains(&from).then_some(&p.path)
    }

    /// The one acceptance tail: removes the pending read and emits the
    /// acceptance log, the counters and the latency histograms.  A
    /// verified sub-scan reports to its parent's stitcher instead, and
    /// the parent is counted here once its last piece tiles.
    fn accept(&mut self, ctx: &mut Ctx<'_, Msg>, req: u64, how: Accept<'_>) {
        let Some(p) = self.pending.remove(&req) else { return };
        let mut issued_at = p.issued_at;
        let (on_proof_path, extra) = match how {
            Accept::Pledged => {
                if let PathState::Pledged { responses, .. } = &p.path {
                    for (slave, _, pl) in responses {
                        self.acceptances.push((*slave, pl.result_hash.bytes().to_vec()));
                    }
                }
                (false, None)
            }
            Accept::Checked { corrected } => {
                (false, corrected.then_some(id::READ_CORRECTED_BY_MASTER))
            }
            Accept::Trusted => (false, Some(id::READ_ACCEPTED_SENSITIVE)),
            Accept::Proof(from, result) => {
                let hash = ResultHash::of(result, self.cfg.pledge_hash);
                self.acceptances.push((from, hash.bytes().to_vec()));
                if let Some(parent) = p.parent_scan {
                    let rows = result.row_count() as u64;
                    match self.scan_part_done(ctx, parent, req, rows) {
                        Some(scan_issued_at) => issued_at = scan_issued_at,
                        None => return,
                    }
                }
                (true, None)
            }
            Accept::Stream { chunks, bytes } => {
                ctx.metrics().observe(id::STREAM_CHUNKS, chunks);
                ctx.metrics().observe(id::STREAM_BYTES, bytes);
                (true, Some(id::READ_STREAM_ACCEPTED))
            }
        };
        self.counters.reads_accepted += 1;
        ctx.metrics().inc(id::READ_ACCEPTED);
        if let Some(metric) = extra {
            ctx.metrics().inc(metric);
        }
        let latency = ctx.now().since(issued_at).as_micros();
        ctx.metrics().observe(id::READ_LATENCY_US, latency);
        if on_proof_path {
            self.counters.proof_reads_accepted += 1;
            ctx.metrics().inc(id::READ_PROOF_ACCEPTED);
            ctx.metrics().observe(id::READ_PROOF_LATENCY_US, latency);
        } else if matches!(how, Accept::Trusted) {
            ctx.metrics()
                .observe(id::READ_SENSITIVE_LATENCY_US, latency);
        }
    }

    /// The verification environment for one shard's pipeline at `now`:
    /// only the owning shard's masters and slaves are trusted
    /// verification keys, so stamps and pledges from another shard's
    /// subgroup never verify here.
    fn verify_env(&self, shard: usize, now: SimTime) -> VerifyEnv<'_> {
        VerifyEnv {
            masters: &self.shards[shard].masters,
            slaves: &self.shards[shard].slaves,
            spares: &self.shards[shard].spares,
            now,
            max_latency: self.my_max_latency,
        }
    }

    /// Records a rejection: the reason-specific metric plus the
    /// per-client staleness counter the experiments watch.
    fn note_rejection(&mut self, ctx: &mut Ctx<'_, Msg>, reason: RejectReason) {
        if reason == RejectReason::Stale {
            self.counters.stale_rejections += 1;
        }
        ctx.metrics().inc(reason.metric());
    }

    /// Checks a digest stamp's master signature, memoized per statement.
    ///
    /// The cache key binds the *current* verification key of the
    /// stamping master to the stamp's signing bytes, so a forged
    /// statement, a different master, or a rotated key all hash to
    /// fresh keys and take the full signature check — a hit proves
    /// exactly "this statement verified under this key before".
    /// Freshness is deliberately not part of the statement: the caller
    /// re-checks it on every reply.
    fn check_stamp_cached(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        shard: usize,
        stamp: &StateDigestStamp,
    ) -> Result<(), RejectReason> {
        let env = self.verify_env(shard, ctx.now());
        let mkey = *env
            .master_key_of(stamp.master)
            .ok_or(RejectReason::BadStampSignature)?;
        let cache = (self.cfg.stamp_cache_entries > 0).then_some(&mut self.stamp_cache);
        let key = || {
            let statement = stamp.signing_bytes();
            Sha256::digest_parts(&[b"sdr/stamp-cache/v1", &mkey.encode(), &statement])
        };
        let counters = (id::CLIENT_STAMP_CACHE_HIT, id::CLIENT_STAMP_CACHE_MISS);
        let verify = || stamp.verify(&mkey).is_ok();
        if memoised_verify(ctx, cache, self.cfg.cache_verify, counters, key, verify) {
            Ok(())
        } else {
            Err(RejectReason::BadStampSignature)
        }
    }

    /// Checks one certificate's scoped signature, memoized in the
    /// verified-certificate set.  The cache key already binds issuer
    /// key, role, shard, and the full certificate statement
    /// ([`Certificate::scoped_cache_key`]), so a hit cannot launder a
    /// certificate across scopes.
    fn verify_cert_cached(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        issuer: &PublicKey,
        role: CertRole,
        shard: u32,
        cert: &Certificate,
    ) -> bool {
        let cache = (self.cfg.cert_cache_entries > 0).then_some(&mut self.cert_cache);
        let key = || cert.scoped_cache_key(issuer, role, shard);
        let counters = (id::CLIENT_CERT_CACHE_HIT, id::CLIENT_CERT_CACHE_MISS);
        let verify = || cert.verify_scoped(issuer, role, shard).is_ok();
        memoised_verify(ctx, cache, self.cfg.cache_verify, counters, key, verify)
    }

    /// Full verification of one pledged slave response (Section 3.2's
    /// client checks, shared with the proof pipeline via
    /// [`crate::verify`]).  Returns false when the response must be
    /// discarded.
    fn verify_response(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        shard: usize,
        slave: NodeId,
        result: &QueryResult,
        pledge: &Pledge,
    ) -> bool {
        // One result hash plus two signature verifications.
        ctx.charge(ctx.costs().hash_cost(result.size()));
        ctx.charge(ctx.costs().verify * 2u64);
        let env = self.verify_env(shard, ctx.now());
        match verify::verify_pledged_read(&env, slave, result, pledge) {
            Ok(()) => true,
            Err(reason) => {
                self.note_rejection(ctx, reason);
                false
            }
        }
    }

    /// Verification of any digest-anchored reply to pending read `req`:
    /// the proof-fold charge, then known responder → memoised stamp
    /// signature → the evidence's `_stampless` tail.  The fold always
    /// runs — it is what ties *this* evidence to the signed digest; the
    /// stamp signature is the memoized part, so a repeat read under the
    /// same anchor pays a cache lookup instead of a signature check.  A
    /// failure takes the rejection path and returns false; a pass
    /// records the proof's `(depth, wire bytes)`.
    fn verify_anchored(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        req: u64,
        stamp: &StateDigestStamp,
        (depth, bytes): (usize, usize),
        tail: impl FnOnce(&VerifyEnv<'_>, &Query) -> Result<(), RejectReason>,
    ) -> bool {
        let Some(p) = self.pending.get(&req) else { return false };
        let (shard, query) = (p.shard, p.query.clone());
        ctx.charge(proof_fold_charge(depth, ctx.costs()));
        let verdict = if !self.verify_env(shard, ctx.now()).knows_slave(from) {
            Err(RejectReason::UnknownSlave)
        } else {
            self.check_stamp_cached(ctx, shard, stamp)
                .and_then(|()| tail(&self.verify_env(shard, ctx.now()), &query))
        };
        if let Err(reason) = verdict {
            self.reject_proof_path(ctx, req, from, reason);
            return false;
        }
        ctx.metrics().observe(id::PROOF_BYTES, bytes as u64);
        ctx.metrics().observe(id::PROOF_DEPTH, depth as u64);
        true
    }

    /// Handles one proof-read reply, already routed to a read that
    /// solicited it: verify the digest stamp and the Merkle path or
    /// range skeleton, then accept *finally* — proof-verified reads
    /// never touch the double-check or audit machinery.
    fn handle_proof_reply(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        req: u64,
        result: QueryResult,
        proof: StateProof,
        stamp: StateDigestStamp,
    ) {
        ctx.charge(ctx.costs().hash_cost(result.size()));
        let size = (proof.depth(), proof.wire_len());
        let verified = self.verify_anchored(ctx, from, req, &stamp, size, |env, query| {
            verify::verify_proof_read_stampless(env, query, &result, &proof, &stamp)
        });
        if !verified {
            return;
        }
        if matches!(self.pending[&req].query, Query::ScanRange { .. }) {
            ctx.metrics().observe(id::RANGE_PROOF_BYTES, size.1 as u64);
            ctx.metrics()
                .add(id::RANGE_ROWS_VERIFIED, result.row_count() as u64);
        }
        self.accept(ctx, req, Accept::Proof(from, &result));
    }

    /// Shared rejection path for proof-verified replies — point proofs,
    /// range proofs, stream headers, and streamed chunks alike.
    /// Deterministic lie detection: the slave shipped something its
    /// proof cannot cover (or a stale/forged anchor).  The first
    /// rejection retries one *other* replica of the same shard, still on
    /// the proof path (a single bad replica should not cost the read its
    /// deterministic verification); only when that is spent does the
    /// read fall back to pledge+audit.
    fn reject_proof_path(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        req: u64,
        from: NodeId,
        reason: RejectReason,
    ) {
        self.note_rejection(ctx, reason);
        // Umbrella counter: *any* rejected proof reply, whatever
        // the reason (the reason-specific metric has the detail).
        ctx.metrics().inc(id::READ_PROOF_REJECTED);
        let Some(p) = self.pending.get_mut(&req) else { return };
        let PathState::Proof { retried, .. } = &mut p.path else { return };
        let first_rejection = !std::mem::replace(retried, true);
        p.path.reset();
        p.awaiting.remove(&from);
        let (shard, attempts, is_part) = (p.shard, p.attempts, p.parent_scan.is_some());
        let retry_target = first_rejection
            .then(|| self.proof_retry_target(shard, req, attempts, from))
            .flatten();
        if retry_target.is_some() {
            self.counters.proof_retries += 1;
            ctx.metrics().inc(id::READ_PROOF_RETRY);
            self.dispatch(ctx, req, retry_target);
        } else if is_part {
            // No pledged fallback for sub-scans: a stitched scan is only
            // as strong as its weakest piece, so a part whose proof path
            // is exhausted fails the whole scan.
            self.fail_read(ctx, req);
        } else {
            // Fall back to the pledged path for the remaining retries.
            ctx.metrics().inc(id::READ_PROOF_FALLBACK);
            self.pending.get_mut(&req).expect("present").path = PathState::pledged();
            self.retry_read(ctx, req);
        }
    }

    /// Handles a stream header: verify the manifest slice against the
    /// signed digest, then open the per-chunk verification window.  An
    /// empty stream (absent file or empty range) accepts immediately.
    #[allow(clippy::too_many_arguments)]
    fn handle_stream_header(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        req: u64,
        proof: StreamProof,
        stamp: StateDigestStamp,
        first_chunk: u32,
        chunk_count: u32,
    ) {
        let Some(PathState::Proof { stream: None, .. }) = self.solicited(req, from) else {
            return; // Duplicate, unsolicited, or already fallen back.
        };
        let size = (proof.depth(), proof.wire_len());
        let verified = self.verify_anchored(ctx, from, req, &stamp, size, |env, query| {
            verify::verify_stream_header_stampless(env, query, &proof, &stamp)?;
            // The announced window must lie within the verified manifest
            // slice — a slave cannot promise chunks the slice's proof
            // does not commit to.
            let (lo, hi) = proof.slice.as_ref().map_or((0, 0), |s| {
                (s.first as usize, s.first as usize + s.entries.len())
            });
            let (first, count) = (first_chunk as usize, chunk_count as usize);
            if first < lo || first + count > hi {
                return Err(RejectReason::BadProof(ProofError::ShapeMismatch));
            }
            Ok(())
        });
        if !verified {
            return;
        }
        if chunk_count == 0 {
            // Nothing to stream: proven absence or an empty range.
            return self.accept(ctx, req, Accept::Stream { chunks: 0, bytes: 0 });
        }
        let Some(PathState::Proof {
            stream,
            early_chunks,
            ..
        }) = self.pending.get_mut(&req).map(|p| &mut p.path)
        else {
            return;
        };
        *stream = Some(Box::new(StreamState {
            proof,
            source: from,
            first: first_chunk,
            count: chunk_count,
            received: HashSet::new(),
            bytes: 0,
        }));
        let early = std::mem::take(early_chunks);
        // Chunks are in flight: give them a fresh timeout window.
        ctx.set_timer(self.cfg.read_timeout, tag(K_READ_TIMEOUT, req));
        // Replay any chunks the network delivered ahead of this
        // header; they verify exactly as if they had just arrived.
        for (src, index, data) in early {
            self.handle_stream_chunk(ctx, src, req, index, data);
        }
    }

    /// Handles one streamed chunk: hash it, compare against the verified
    /// manifest entry, and accept the read once every announced chunk
    /// verified.  A bad chunk rejects the stream *at that chunk* — the
    /// already-verified prefix needed no buffering and no re-transfer.
    fn handle_stream_chunk(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        req: u64,
        index: u32,
        data: Vec<u8>,
    ) {
        if self.solicited(req, from).is_none() {
            return;
        }
        let Some(PathState::Proof {
            stream,
            early_chunks,
            ..
        }) = self.pending.get_mut(&req).map(|p| &mut p.path)
        else {
            return;
        };
        let Some(st) = stream else {
            // Header not here yet (per-message latency reorders the
            // slave's sends): hold the chunk for replay, bounded.
            if early_chunks.len() < 1024 {
                early_chunks.push((from, index, data));
            }
            return;
        };
        if st.source != from
            || index < st.first
            || index >= st.first + st.count
            || st.received.contains(&index)
        {
            return; // Wrong sender, outside the window, or duplicate.
        }
        ctx.charge(ctx.costs().hash_cost(data.len()));
        match st.proof.verify_chunk(index as usize, &data) {
            Ok(()) => {
                st.received.insert(index);
                st.bytes += data.len() as u64;
                ctx.metrics().inc(id::READ_STREAM_CHUNKS_VERIFIED);
                if st.received.len() as u32 == st.count {
                    let (chunks, bytes) = (u64::from(st.count), st.bytes);
                    self.accept(ctx, req, Accept::Stream { chunks, bytes });
                }
            }
            Err(e) => {
                ctx.metrics().inc(id::READ_STREAM_CHUNK_REJECTED);
                self.reject_proof_path(ctx, req, from, RejectReason::BadProof(e));
            }
        }
    }

    /// Every slave of a pledged read has answered or refused: accept a
    /// unanimous quorum, escalate a split one to the master.
    fn finalize_read(&mut self, ctx: &mut Ctx<'_, Msg>, req: u64) {
        let Some(p) = self.pending.get_mut(&req) else { return };
        let PathState::Pledged { responses, checking } = &mut p.path else { return };
        debug_assert!(!responses.is_empty());
        let (master, auditor) = (self.shards[p.shard].master, self.shards[p.shard].auditor);

        let first_hash = responses[0].2.result_hash;
        if !responses.iter().all(|(_, _, pl)| pl.result_hash == first_hash) {
            // Section 4: "If not all answers match, the client
            // automatically double-checks, since at least one of the
            // slaves has to be malicious."
            if !*checking {
                ctx.metrics().inc(id::READ_QUORUM_MISMATCH);
                let (m, _) = master.expect("ready implies master");
                *checking = true;
                p.awaiting.insert(m);
                for (_, _, pl) in responses.iter() {
                    self.counters.dc_sent += 1;
                    ctx.metrics().inc(id::DC_SENT);
                    let pledge = Box::new(pl.clone());
                    ctx.send(m, Msg::DoubleCheck { req_id: req, pledge });
                }
            }
            return;
        }

        // Forward pledges to the owning shard's auditor *before*
        // accepting (Section 3.4), unless this read is the sampled
        // double-check.
        if ctx.coin() < self.dc_prob {
            let (m, _) = master.expect("ready implies master");
            self.counters.dc_sent += 1;
            ctx.metrics().inc(id::DC_SENT);
            let pledge = Box::new(responses[0].2.clone());
            ctx.send(m, Msg::DoubleCheck { req_id: req, pledge });
        } else {
            for (_, _, pl) in responses.iter() {
                ctx.send(auditor, Msg::AuditSubmit { pledge: Box::new(pl.clone()) });
            }
        }
        self.accept(ctx, req, Accept::Pledged);
    }

    /// Shard whose subgroup contains master node `m` (by directory
    /// listing, falling back to the chosen setup master).
    fn shard_of_master(&self, m: NodeId) -> Option<usize> {
        self.shards.iter().position(|sv| {
            sv.master.map(|(n, _)| n) == Some(m) || sv.masters.iter().any(|(n, _)| *n == m)
        })
    }

    fn handle_reassign(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        excluded: NodeId,
        replacement: Option<(NodeId, sdr_crypto::Certificate)>,
    ) {
        if excluded == NodeId(u32::MAX) {
            // Master retiring (became auditor): full re-setup.
            self.counters.re_setups += 1;
            self.phase = Phase::Boot;
            self.boot(ctx);
            return;
        }
        let Some(shard) = self.shard_of_master(from) else { return };
        ctx.metrics().inc(id::CLIENT_REASSIGNED);
        self.shards[shard].slaves.retain(|(n, _)| *n != excluded);
        self.shards[shard].spares.retain(|(n, _)| *n != excluded);
        if let Some((node, cert)) = replacement {
            let master_key = self.shards[shard].master.map(|(_, k)| k);
            let valid = master_key.is_some_and(|k| {
                self.verify_cert_cached(ctx, &k, CertRole::Slave, shard as u32, &cert)
            });
            if valid {
                self.shards[shard].slaves.push((node, cert.body.subject_key));
            }
        }
        if self.shards[shard].slaves.is_empty() {
            // No replacement capacity here: redo setup.
            self.counters.re_setups += 1;
            self.boot(ctx);
            return;
        }
        // Re-issue still-pending reads that were waiting on the excluded
        // slave ("the client that has made the discovery connects to its
        // newly assigned slave and issues the same read request again").
        let mut stalled: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| {
                p.awaiting.contains(&excluded) && !matches!(p.path, PathState::Trusted)
            })
            .map(|(r, _)| *r)
            .collect();
        // Sort: HashMap iteration order is process-random, and each retry
        // draws from the client RNG, so the order must be reproducible.
        stalled.sort_unstable();
        for req in stalled {
            self.retry_read(ctx, req);
        }
    }
}

impl Process<Msg> for ClientProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // Jittered boot spreads directory load and client phase.
        let jitter = SimDuration::from_micros(ctx.rng().gen_range(0..200_000));
        ctx.set_timer(jitter, tag(K_BOOT, 0));
        // Churn participation and the first leave time draw only when the
        // workload models churn at all, so non-churn runs consume an
        // identical RNG stream to the pre-churn simulator.
        if let Some(churn) = self.workload.churn {
            self.churns = ctx.rng().gen_bool(churn.fraction.clamp(0.0, 1.0));
            if self.churns {
                let first = jitter + churn.sample_session(ctx.rng());
                ctx.set_timer(first, tag(K_CHURN, 0));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, t: u64) {
        match (tag_kind(t), tag_req(t)) {
            (K_BOOT, _) => self.boot(ctx),
            (K_CHURN, _) => {
                let Some(churn) = self.workload.churn else { return };
                if self.phase == Phase::Offline {
                    // Rejoin: full setup phase, like any cold client.
                    ctx.metrics().inc(id::CLIENT_CHURN_JOIN);
                    self.counters.re_setups += 1;
                    self.boot(ctx);
                    let gap = churn.sample_session(ctx.rng());
                    ctx.set_timer(gap, tag(K_CHURN, 0));
                } else {
                    self.go_offline(ctx);
                    let gap = churn.sample_offline(ctx.rng());
                    ctx.set_timer(gap, tag(K_CHURN, 0));
                }
            }
            (K_NEXT_READ, _) => {
                if self.phase == Phase::Offline {
                    self.read_timer_live = false;
                    return;
                }
                self.issue_read(ctx);
                self.schedule_next_read(ctx);
            }
            (K_NEXT_WRITE, _) => {
                if self.phase == Phase::Offline {
                    self.write_timer_live = false;
                    return;
                }
                if self.phase == Phase::Ready {
                    let ops = self.workload.sample_write(ctx.rng());
                    let shard = self.map.shard_of_ops(&ops);
                    if self.cfg.max_write_batch > 1
                        && self.outstanding_writes(shard) >= self.cfg.max_write_batch
                    {
                        // Pipeline window full: park the write until a
                        // response frees a slot.  Keeping a batch-sized
                        // window outstanding lets the sequencer fill its
                        // rounds without the client flooding a master
                        // that can only drain one batch per max_latency.
                        ctx.metrics().inc(id::WRITE_DEFERRED);
                        self.deferred_writes[shard].push_back(ops);
                    } else {
                        self.send_write(ctx, shard, ops);
                    }
                }
                self.schedule_next_write(ctx);
            }
            (K_READ_TIMEOUT, req) => {
                let Some(p) = self.pending.get(&req) else { return };
                ctx.metrics().inc(id::READ_TIMEOUT);
                if matches!(p.path, PathState::Trusted) {
                    // Master unresponsive: fail over.
                    if let Some((m, _)) = self.shards[p.shard].master {
                        self.blacklist.insert(m);
                    }
                    self.pending.remove(&req);
                    self.counters.re_setups += 1;
                    self.boot(ctx);
                } else {
                    self.retry_read(ctx, req);
                }
            }
            (K_WRITE_TIMEOUT, req) => {
                if let Some((_, shard)) = self.pending_writes.remove(&req) {
                    ctx.metrics().inc(id::WRITE_TIMEOUT);
                    // Master presumed crashed: redo the setup phase
                    // (Section 3: "all the clients connected to the crashed
                    // server will have to go through the setup process
                    // again").
                    if let Some((m, _)) = self.shards[shard].master {
                        self.blacklist.insert(m);
                    }
                    self.counters.re_setups += 1;
                    self.boot(ctx);
                }
            }
            (K_SETUP_TIMEOUT, _)
                if !matches!(self.phase, Phase::Ready | Phase::Offline) => {
                    // Blame exactly the masters that owe a SetupResponse
                    // (shards that answered are innocent; shards still
                    // waiting on the directory have no master to blame).
                    for shard in 0..self.shards.len() {
                        if self.awaiting_setup.contains(&shard) {
                            if let Some((m, _)) = self.shards[shard].master.take() {
                                self.blacklist.insert(m);
                            }
                        }
                    }
                    self.boot(ctx);
                }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        // A churned-away client has no socket to receive on: late replies
        // from its previous session fall on the floor.
        if self.phase == Phase::Offline {
            return;
        }
        match msg {
            Msg::DirResponse {
                shard,
                certs,
                nodes,
                auditor,
            } => {
                let shard = shard as usize;
                if self.phase != Phase::AwaitDir && self.phase != Phase::AwaitSetup {
                    return;
                }
                if shard >= self.shards.len() || self.shards[shard].master.is_some() {
                    return; // Unknown shard or duplicate response.
                }
                self.shards[shard].masters.clear();
                let content_key = self.content_key;
                for (cert, node) in certs.iter().zip(nodes.iter()) {
                    // The certificate must grant the master role *for
                    // this shard* — a master certificate of another
                    // subgroup must not authenticate here.
                    if self.verify_cert_cached(
                        ctx,
                        &content_key,
                        CertRole::Master,
                        shard as u32,
                        cert,
                    ) {
                        self.shards[shard].masters.push((*node, cert.body.subject_key));
                    } else {
                        ctx.metrics().inc(id::CLIENT_BAD_MASTER_CERT);
                    }
                }
                self.shards[shard].auditor = auditor;
                match self.choose_master(shard, auditor) {
                    Some(m) => {
                        self.shards[shard].master = Some(m);
                        self.awaiting_setup.insert(shard);
                        ctx.send(m.0, Msg::SetupRequest);
                        if self.shards.iter().all(|sv| sv.master.is_some()) {
                            self.phase = Phase::AwaitSetup;
                        }
                    }
                    None => {
                        // All of this shard's masters blacklisted: forgive
                        // *this shard's* masters and retry later.  Evidence
                        // against other shards' masters must survive — a
                        // global clear would let a Byzantine master in
                        // shard j be re-chosen because shard k ran dry.
                        for (n, _) in &self.shards[shard].masters {
                            self.blacklist.remove(n);
                        }
                        ctx.set_timer(self.cfg.read_timeout, tag(K_BOOT, 0));
                    }
                }
            }
            Msg::SetupResponse {
                shard,
                slaves,
                spares,
                auditor,
            } => {
                let shard = shard as usize;
                // Accept during AwaitDir too: with several shards, a
                // fast shard's SetupResponse can overtake a slow shard's
                // DirResponse (the phase flips to AwaitSetup only once
                // every shard has chosen a master).  Staleness is still
                // caught below — boot() clears every chosen master, so a
                // pre-reboot response fails the sender check.
                if !matches!(self.phase, Phase::AwaitDir | Phase::AwaitSetup)
                    || shard >= self.shards.len()
                {
                    return;
                }
                let Some((master_node, mkey)) = self.shards[shard].master else { return };
                if from != master_node {
                    return; // Not the master this shard set up with.
                }
                self.awaiting_setup.remove(&shard);
                if slaves.is_empty() {
                    // This master has no capacity (e.g. it is the auditor).
                    self.blacklist.insert(from);
                    self.boot(ctx);
                    return;
                }
                self.shards[shard].slaves.clear();
                for (node, cert) in slaves {
                    if self.verify_cert_cached(ctx, &mkey, CertRole::Slave, shard as u32, &cert) {
                        self.shards[shard].slaves.push((node, cert.body.subject_key));
                    } else {
                        ctx.metrics().inc(id::CLIENT_BAD_SLAVE_CERT);
                    }
                }
                if self.shards[shard].slaves.is_empty() {
                    self.blacklist.insert(from);
                    self.boot(ctx);
                    return;
                }
                // Spares are optional: verify what the master offered,
                // keep whatever passes (an empty list just means the
                // proof path has no same-shard retry target).
                self.shards[shard].spares.clear();
                for (node, cert) in spares {
                    if self.verify_cert_cached(ctx, &mkey, CertRole::Slave, shard as u32, &cert) {
                        self.shards[shard].spares.push((node, cert.body.subject_key));
                    } else {
                        ctx.metrics().inc(id::CLIENT_BAD_SLAVE_CERT);
                    }
                }
                self.shards[shard].auditor = auditor;
                if self.shards.iter().all(|sv| !sv.slaves.is_empty()) {
                    self.phase = Phase::Ready;
                    ctx.metrics().inc(id::CLIENT_READY);
                    if !self.read_timer_live {
                        self.schedule_next_read(ctx);
                    }
                    if self.is_writer && !self.write_timer_live {
                        self.schedule_next_write(ctx);
                    }
                }
            }
            Msg::ReadResponse {
                req_id,
                result,
                pledge,
            } => {
                let Some(shard) = self.pending.get(&req_id).map(|p| p.shard) else {
                    return;
                };
                // Verified (and charged) before the gate: modeled time
                // has always paid for duplicates too.
                let valid = self.verify_response(ctx, shard, from, &result, &pledge);
                let Some(PathState::Pledged { .. }) = self.solicited(req_id, from) else {
                    return; // Duplicate or unsolicited.
                };
                let p = self.pending.get_mut(&req_id).expect("solicited");
                p.awaiting.remove(&from);
                let PathState::Pledged { responses, .. } = &mut p.path else { return };
                if valid {
                    responses.push((from, result, *pledge));
                }
                if p.awaiting.is_empty() {
                    if responses.is_empty() {
                        self.retry_read(ctx, req_id);
                    } else {
                        self.finalize_read(ctx, req_id);
                    }
                }
            }
            Msg::ProofReadReply {
                query,
                result,
                proof,
                digest_stamp,
            } => {
                // The reply is content-addressed (no request id), so one
                // cached `Arc<Msg>` can answer every reader of a hot key
                // or hot range.  Route it to the lowest-numbered pending
                // proof read for this exact query that solicited it from
                // this slave — lowest so duplicate replies resolve reads
                // in issue order, deterministically.
                let req = self
                    .pending
                    .iter()
                    .filter(|(req, p)| {
                        p.query == *query
                            && matches!(self.solicited(**req, from), Some(PathState::Proof { .. }))
                    })
                    .map(|(r, _)| *r)
                    .min();
                if let Some(req) = req {
                    self.handle_proof_reply(ctx, from, req, result, *proof, digest_stamp);
                }
            }
            Msg::StreamHeader {
                req_id,
                proof,
                digest_stamp,
                first_chunk,
                chunk_count,
            } => self.handle_stream_header(
                ctx,
                from,
                req_id,
                *proof,
                digest_stamp,
                first_chunk,
                chunk_count,
            ),
            Msg::StreamChunk { req_id, index, data } => {
                self.handle_stream_chunk(ctx, from, req_id, index, data)
            }
            // A refusal accepts nothing, so it needs only a pending read,
            // not the gate: a refusal that outlived a retry still counts.
            Msg::ReadRefused { req_id, reason } => {
                let Some(p) = self.pending.get_mut(&req_id) else { return };
                ctx.metrics().inc(id::READ_REFUSED);
                match reason {
                    RefuseReason::Excluded => {
                        // Learn of exclusions we missed; ask the owning
                        // shard's master for a new slave.
                        let shard = p.shard;
                        self.shards[shard].slaves.retain(|(n, _)| *n != from);
                        self.shards[shard].spares.retain(|(n, _)| *n != from);
                        if let Some((m, _)) = self.shards[shard].master {
                            self.phase = Phase::AwaitSetup;
                            self.awaiting_setup.insert(shard);
                            ctx.send(m, Msg::SetupRequest);
                            ctx.set_timer(self.cfg.read_timeout * 4, tag(K_SETUP_TIMEOUT, 0));
                        }
                        self.retry_read(ctx, req_id);
                    }
                    RefuseReason::OutOfSync => {
                        p.awaiting.remove(&from);
                        // Everyone refused: the timeout retries.  Otherwise
                        // go on with the responses that did arrive.
                        let answered = matches!(&p.path,
                            PathState::Pledged { responses, .. } if !responses.is_empty());
                        if p.awaiting.is_empty() && answered {
                            self.finalize_read(ctx, req_id);
                        }
                    }
                }
            }
            Msg::TrustedReadResponse { req_id, .. } => {
                // Results from trusted hardware are authoritative — when
                // they come from the master the read was sent to.
                if let Some(PathState::Trusted) = self.solicited(req_id, from) {
                    self.accept(ctx, req_id, Accept::Trusted);
                }
            }
            Msg::DoubleCheckResponse { req_id, verdict } => {
                // Only the master a quorum-mismatch check went to may
                // settle (or drop) the read it was about.  A sampled
                // double-check was accepted when it was sent, so its
                // verdict finds nothing pending.
                let settles = matches!(
                    self.solicited(req_id, from),
                    Some(PathState::Pledged { checking: true, .. })
                );
                let corrected = match verdict {
                    // A Match identifies an honest pledge.
                    CheckVerdict::Match => {
                        ctx.metrics().inc(id::CLIENT_DC_MATCH);
                        Some(false)
                    }
                    // The master's answer is authoritative.
                    CheckVerdict::Mismatch { correct } => {
                        ctx.metrics().inc(id::CLIENT_DC_MISMATCH);
                        ctx.charge(ctx.costs().hash_cost(correct.size()));
                        Some(true)
                    }
                    CheckVerdict::VersionUnavailable => {
                        ctx.metrics().inc(id::CLIENT_DC_VERSION_UNAVAILABLE);
                        None
                    }
                    CheckVerdict::Throttled => {
                        self.counters.dc_throttled += 1;
                        ctx.metrics().inc(id::CLIENT_DC_THROTTLED);
                        None
                    }
                };
                match corrected {
                    Some(corrected) if settles => {
                        self.accept(ctx, req_id, Accept::Checked { corrected })
                    }
                    None if settles => drop(self.pending.remove(&req_id)),
                    _ => {}
                }
            }
            Msg::WriteResponse { req_id, outcome } => {
                if let Some((sent_at, shard)) = self.pending_writes.remove(&req_id) {
                    match outcome {
                        WriteOutcome::Committed { .. } => {
                            ctx.metrics().inc(id::WRITE_COMMITTED);
                            let latency = ctx.now().since(sent_at);
                            ctx.metrics().observe(id::WRITE_LATENCY_US, latency.as_micros());
                        }
                        WriteOutcome::AccessDenied => {
                            ctx.metrics().inc(id::WRITE_DENIED_SEEN);
                        }
                        WriteOutcome::Failed(_) => {
                            ctx.metrics().inc(id::WRITE_FAILED_SEEN);
                        }
                    }
                    // The response freed a slot in the shard's pipeline
                    // window; refill it from the deferred queue.
                    self.flush_deferred_writes(ctx, shard);
                }
            }
            Msg::Reassign {
                excluded,
                replacement,
            } => self.handle_reassign(ctx, from, excluded, replacement),
            Msg::AuditorChanged { shard, auditor } => {
                if let Some(sv) = self.shards.get_mut(shard as usize) {
                    sv.auditor = auditor;
                }
            }
            _ => {}
        }
    }

    fn name(&self) -> String {
        format!("client-{}", self.index)
    }
}
