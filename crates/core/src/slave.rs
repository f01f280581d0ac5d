//! Slave servers: marginally-trusted replicas with behaviour models.
//!
//! Honest slaves execute queries over their replica, sign pledges, apply
//! lazy state updates in order, and self-gate when out of sync (Section 3).
//! Byzantine behaviour is a pluggable [`SlaveBehavior`]:
//!
//! * [`SlaveBehavior::ConsistentLiar`] — the dangerous attacker: corrupts
//!   the result *and pledges the corrupted hash*, so the client's hash
//!   check passes and only double-checking or auditing can catch it.
//! * [`SlaveBehavior::InconsistentLiar`] — a sloppy attacker whose pledge
//!   hash does not match the shipped result; clients reject instantly.
//! * [`SlaveBehavior::StaleServer`] — stops applying state updates but
//!   keeps answering with fresh stamps (detected by the audit because the
//!   pledged version's correct state no longer matches its answers).
//! * [`SlaveBehavior::Refuser`] — denial of service: claims to be out of
//!   sync with some probability.

use crate::config::SystemConfig;
use crate::cost::{proof_fold_charge, query_charge};
use crate::messages::{Msg, RefuseReason, StateDigestStamp, VersionStamp};
use crate::metrics as id;
use crate::pledge::{Pledge, ResultHash, PLEDGE_ALGO};
use sdr_crypto::{Digest, Hash256, PublicKey, Sha256, Signer};
use sdr_sim::{CostModel, Counter, Ctx, NodeId, Payload, Process, SimDuration, SimTime};
use sdr_store::fsview::GrepMatch;
use sdr_store::{
    Database, Document, ExecMemo, LruByteCache, Query, QueryResult, StreamProof, UpdateOp, Value,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The evidence a read request asks for: the one parameter of
/// [`SlaveProcess::serve`].  `Proof` covers point paths and range
/// skeletons alike — the query picks which.
#[derive(Clone, Copy)]
enum ReadKind {
    /// `ReadRequest`: a signed pledge over the result hash.
    Pledge,
    /// `ProofRead`: a Merkle path or range skeleton to the signed digest.
    Proof,
    /// `StreamRead`: a manifest-slice header, then the chunks it commits to.
    Stream,
}

/// An honest answer, built or taken from the cache, before the lie step.
enum Answer {
    /// The result; its pledge is hashed and signed after the lie step.
    Pledged(QueryResult),
    /// The assembled `ProofReadReply`; `cached` when
    /// the allocation was accounted for by an earlier send.
    Proof { reply: Arc<Msg>, cached: bool },
    /// The header proof and the chunks at their absolute manifest indexes.
    Stream {
        proof: Box<StreamProof>,
        chunks: Vec<(u32, Vec<u8>)>,
    },
}

/// The lie step, shared by every evidence kind: one coin, then the liar
/// corrupts what it ships and returns the forgery (a consistent liar
/// pledges it).
/// Only a pledge can cover a lie (a consistent liar pledges the corrupted
/// hash); proofs and stream headers stay *honest* because forging one
/// against the signed digest would need a hash collision — which is
/// exactly why those lies die at the client instead of waiting for the
/// auditor.
fn apply_lie_behavior(
    behavior: SlaveBehavior,
    ctx: &mut Ctx<'_, Msg>,
    answer: &mut Answer,
) -> Option<QueryResult> {
    let salt = match behavior {
        SlaveBehavior::ConsistentLiar { prob, collude } if ctx.coin() < prob => {
            if collude {
                0
            } else {
                u64::from(ctx.id().0)
            }
        }
        SlaveBehavior::InconsistentLiar { prob } if ctx.coin() < prob => 1,
        _ => return None,
    };
    match answer {
        // Shipped and pledged at reply assembly.
        Answer::Pledged(result) => Some(corrupt(result, salt)),
        // A per-request copy: the cache keeps the honest reply.
        Answer::Proof { reply, cached } => {
            let mut forged = (**reply).clone();
            let Msg::ProofReadReply { result, .. } = &mut forged else {
                return None; // Poisoned by the test hook with junk.
            };
            *result = corrupt(result, salt);
            let bad = result.clone();
            (*reply, *cached) = (Arc::new(forged), false);
            Some(bad)
        }
        // One chunk's bytes; the client rejects at exactly that chunk.
        Answer::Stream { chunks, .. } => {
            let (_, data) = chunks.last_mut()?;
            data[0] ^= 0x5a;
            Some(QueryResult::Text(Some(
                String::from_utf8_lossy(data).into_owned(),
            )))
        }
    }
}

/// Counts `metric` and yields the refusal every failed serve step sends.
fn out_of_sync(ctx: &mut Ctx<'_, Msg>, metric: Counter) -> RefuseReason {
    ctx.metrics().inc(metric);
    RefuseReason::OutOfSync
}

/// Executes `query` through the deployment's memo, adding its modeled
/// cost to `cost` (the same whether it ran here or earlier); the error
/// is the metric to count.
fn run_query(
    memo: &ExecMemo,
    db: &Database,
    query: &Query,
    costs: &CostModel,
    cost: &mut SimDuration,
) -> Result<QueryResult, Counter> {
    let done = memo
        .execute(db, query)
        .map_err(|_| id::SLAVE_QUERY_ERRORS)?;
    let (result, qcost) = Arc::unwrap_or_clone(done);
    *cost += query_charge(&qcost, result.size(), costs);
    Ok(result)
}

/// Cache key of a memoized answer: the anchor stamp's version,
/// timestamp, *and* digest plus what was asked.  Version alone would
/// suffice given wholesale invalidation; the timestamp makes a
/// keep-alive refresh (same version, newer stamp) miss by construction,
/// and the digest is belt-and-braces against any anchor/state
/// divergence.
fn cache_key(anchor: &StateDigestStamp, subject: &[u8]) -> Hash256 {
    Sha256::digest_parts(&[
        b"sdr/slave-cache/v3",
        &anchor.version.to_be_bytes(),
        &anchor.timestamp.as_micros().to_be_bytes(),
        anchor.digest.as_ref(),
        subject,
    ])
}

/// The build step behind the one cache probe.  `build` assembles the
/// honest answer and its cache weight, adding what it costs in modeled
/// time to its argument; its error is the metric to count before
/// refusing.  With a `slot` (hot-read fast path: under one anchor the
/// honest answer is immutable) a hit skips the build and its cost, and a
/// miss stores what was built.  Building draws no randomness, so hit and
/// miss consume identical RNG streams and a run's trace never depends on
/// cache contents.  Returns the answer and whether it was a hit.
fn fetch<V: Clone + PartialEq>(
    ctx: &mut Ctx<'_, Msg>,
    cache_verify: bool,
    mut slot: Option<(&mut LruByteCache<V>, Hash256)>,
    build: impl Fn(&mut SimDuration) -> Result<(V, usize), Counter>,
) -> Result<(V, bool), RefuseReason> {
    if let Some((cache, key)) = &mut slot {
        ctx.charge(ctx.costs().cache_lookup);
        if let Some(hit) = cache.get(key).cloned() {
            ctx.metrics().inc(id::SLAVE_PROOF_CACHE_HIT);
            // Host-side oracle: rebuild fresh and compare.  No charges —
            // virtual time must not see the recheck.
            if cache_verify && build(&mut SimDuration::default()).map_or(true, |(v, _)| v != hit) {
                ctx.metrics().inc(id::SLAVE_CACHE_DIVERGENCE);
            }
            return Ok((hit, true));
        }
        ctx.metrics().inc(id::SLAVE_PROOF_CACHE_MISS);
    }
    let mut cost = SimDuration::ZERO;
    let built = build(&mut cost);
    ctx.charge(cost);
    let (fresh, bytes) = built.map_err(|metric| out_of_sync(ctx, metric))?;
    if let Some((cache, key)) = slot {
        let evicted = cache.put(key, fresh.clone(), bytes);
        ctx.metrics().add(id::SLAVE_PROOF_CACHE_EVICT, evicted);
    }
    Ok((fresh, false))
}

/// Behaviour model of a slave.
#[derive(Clone, Copy, Debug, PartialEq, serde::ToJson, serde::FromJson)]
pub enum SlaveBehavior {
    /// Follows the protocol.
    Honest,
    /// With probability `prob`, returns a corrupted result with a
    /// self-consistent pledge (hash matches the corrupted result).
    ///
    /// When `collude` is true, every colluding liar forges the *same*
    /// wrong answer (salt 0), which is what defeating the quorum-read
    /// variant requires; otherwise each liar corrupts with its own salt.
    ConsistentLiar {
        /// Lie probability per read.
        prob: f64,
        /// Forge identically to other colluders.
        collude: bool,
    },
    /// With probability `prob`, ships a corrupted result but pledges the
    /// hash of the *correct* one.
    InconsistentLiar {
        /// Lie probability per read.
        prob: f64,
    },
    /// Applies keep-alive stamps but silently drops state updates once the
    /// version reaches `freeze_at`, serving stale data with fresh stamps.
    StaleServer {
        /// Version after which updates are ignored.
        freeze_at: u64,
    },
    /// With probability `prob`, falsely claims to be out of sync.
    Refuser {
        /// Refusal probability per read.
        prob: f64,
    },
}

impl SlaveBehavior {
    /// Whether this behaviour ever produces wrong answers.
    pub fn is_malicious(&self) -> bool {
        !matches!(self, SlaveBehavior::Honest)
    }
}

/// Deterministically corrupts a query result (the lie a malicious slave
/// tells).  Guaranteed to differ from the input under the canonical
/// encoding; different `salt` values produce different forgeries, so
/// independent (non-colluding) liars disagree with each other too.
pub fn corrupt(result: &QueryResult, salt: u64) -> QueryResult {
    let s = salt as i64 + 1;
    match result {
        QueryResult::Rows(rows) => {
            let mut rows = rows.clone();
            if rows.is_empty() {
                rows.push((u64::MAX, Document::new().with("forged", s)));
            } else {
                rows.pop();
                rows.push((u64::MAX - 1, Document::new().with("forged", s)));
            }
            QueryResult::Rows(rows)
        }
        QueryResult::Scalar(v) => QueryResult::Scalar(match v {
            Value::Int(i) => Value::Int(i.wrapping_add(s)),
            Value::Float(f) => Value::Float(f + s as f64),
            _ => Value::Int(666 + s),
        }),
        QueryResult::Groups(groups) => {
            let mut groups = groups.clone();
            match groups.first_mut() {
                Some((_, v)) => {
                    *v = match v {
                        Value::Int(i) => Value::Int(i.wrapping_add(s)),
                        Value::Float(f) => Value::Float(*f + s as f64),
                        _ => Value::Int(666 + s),
                    }
                }
                None => groups.push((Value::Null, Value::Int(666 + s))),
            }
            QueryResult::Groups(groups)
        }
        QueryResult::Text(t) => QueryResult::Text(Some(format!(
            "{}[tampered:{salt}]",
            t.clone().unwrap_or_default()
        ))),
        QueryResult::Matches(ms) => {
            let mut ms = ms.clone();
            if ms.is_empty() {
                ms.push(GrepMatch {
                    path: format!("/forged-{salt}"),
                    line: 1,
                    text: "forged".into(),
                });
            } else {
                ms.pop();
            }
            QueryResult::Matches(ms)
        }
        QueryResult::Paths(ps) => {
            let mut ps = ps.clone();
            if ps.is_empty() {
                ps.push(format!("/forged-{salt}"));
            } else {
                ps.pop();
            }
            QueryResult::Paths(ps)
        }
    }
}

/// A slave server process.
pub struct SlaveProcess {
    cfg: SystemConfig,
    db: Database,
    behavior: SlaveBehavior,
    signer: Box<dyn Signer>,
    master_keys: HashMap<NodeId, PublicKey>,
    latest_stamp: Option<VersionStamp>,
    /// Freshest master-signed digest stamp that matches this replica's
    /// *applied* state — the anchor served with proof reads.  Deliberately
    /// absent while the replica lags: a correct slave refuses proof reads
    /// it cannot anchor, and a stale server's anchor ages out.
    latest_digest_stamp: Option<StateDigestStamp>,
    last_keepalive_at: SimTime,
    /// Buffered out-of-order updates, keyed by version.  The digest
    /// stamp is `None` for intermediate versions of a commit round: the
    /// master signs one anchor — the round's final version — so only that
    /// run carries a provable digest.
    pending_updates: BTreeMap<u64, (Vec<UpdateOp>, VersionStamp, Option<StateDigestStamp>)>,
    excluded: bool,
    /// Earliest time the next sync request may be sent (rate limit: the
    /// simulated network reorders packets, so most gaps heal by
    /// themselves; only persistent gaps are worth a replay).
    sync_cooldown_until: SimTime,
    /// Highest version this slave consumed-but-dropped (StaleServer only);
    /// keeps gap detection from re-requesting updates it chose to ignore.
    dropped_up_to: u64,
    reads_served: u64,
    /// Hot-read fast path: honest `ProofReadReply` payloads memoized per
    /// `(anchor stamp, query)` as shared allocations, so a flash crowd
    /// reading one hot key costs one proof build plus N pointer bumps.
    /// Wiped wholesale whenever the anchor or the replica state changes.
    reply_cache: LruByteCache<Arc<Msg>>,
    /// Same for `StreamProof` headers, keyed by `(anchor stamp, path)`
    /// (chunk payloads are per-request and stay uncached).
    stream_proof_cache: LruByteCache<StreamProof>,
    /// The execution memo shared by every replica of the deployment.
    memo: ExecMemo,
}

/// Byte budget of each of a slave's two hot-read caches.
const PROOF_CACHE_BYTES: usize = 1 << 20;

impl SlaveProcess {
    /// Creates a slave starting from `db` with the given behaviour.
    pub fn new(
        cfg: SystemConfig,
        db: Database,
        behavior: SlaveBehavior,
        signer: Box<dyn Signer>,
        master_keys: HashMap<NodeId, PublicKey>,
        memo: ExecMemo,
    ) -> Self {
        SlaveProcess {
            cfg,
            db,
            behavior,
            signer,
            master_keys,
            latest_stamp: None,
            latest_digest_stamp: None,
            last_keepalive_at: SimTime::ZERO,
            pending_updates: BTreeMap::new(),
            excluded: false,
            sync_cooldown_until: SimTime::ZERO,
            dropped_up_to: 0,
            reads_served: 0,
            reply_cache: LruByteCache::new(PROOF_CACHE_BYTES),
            stream_proof_cache: LruByteCache::new(PROOF_CACHE_BYTES),
            memo,
        }
    }

    /// The slave's verification key.
    pub fn public_key(&self) -> PublicKey {
        self.signer.public_key()
    }

    /// Number of reads served.
    pub fn reads_served(&self) -> u64 {
        self.reads_served
    }

    /// Current replica version (test inspection).
    pub fn version(&self) -> u64 {
        self.db.version()
    }

    /// State digest (test inspection).
    pub fn state_digest(&self) -> sdr_crypto::Hash256 {
        self.db.state_digest()
    }

    /// Whether this slave has been excluded.
    pub fn is_excluded(&self) -> bool {
        self.excluded
    }

    /// Bytes currently held by the hot-read caches (stats gauge).
    pub fn cache_bytes(&self) -> u64 {
        (self.reply_cache.bytes() + self.stream_proof_cache.bytes()) as u64
    }

    /// Wipes both hot-read caches.  Called whenever the proof-read anchor
    /// moves (any newer digest stamp, including same-version keep-alive
    /// refreshes) *and* whenever the replica applies a write — the latter
    /// covers the gap where the database advances but the accompanying
    /// digest stamp is rejected, which would otherwise leave cached
    /// replies proving a state the replica no longer has.
    fn invalidate_caches(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if !self.reply_cache.is_empty() || !self.stream_proof_cache.is_empty() {
            ctx.metrics().inc(id::SLAVE_PROOF_CACHE_INVALIDATE);
        }
        self.reply_cache.clear();
        self.stream_proof_cache.clear();
    }

    /// The proof-read anchor this replica currently serves under
    /// (test/stats inspection).
    pub fn digest_anchor(&self) -> Option<&StateDigestStamp> {
        self.latest_digest_stamp.as_ref()
    }

    /// Test hook: plant an arbitrary payload in the proof-reply cache
    /// under the current anchor — models a Byzantine slave poisoning its
    /// own cache.  No-op while the slave has no anchor.
    pub fn poison_reply_cache_for_test(&mut self, query: &Query, reply: Msg) {
        if let Some(anchor) = self.latest_digest_stamp.clone() {
            let key = cache_key(&anchor, &query.encode());
            let bytes = reply.wire_len();
            self.reply_cache.put(key, Arc::new(reply), bytes);
        }
    }

    /// Adopts a version stamp for pledges — only when it certifies the
    /// version this replica has reached.  A stamp from ahead (a keep-alive
    /// that overtook or outlived a lost update) would make an honest slave
    /// pledge its older state's answers under a version it never applied,
    /// and the audit, re-executing at that version, would convict it.
    fn accept_stamp(&mut self, stamp: VersionStamp) {
        if stamp.version != self.effective_version() {
            return;
        }
        let newer = match &self.latest_stamp {
            Some(cur) => {
                stamp.version > cur.version
                    || (stamp.version == cur.version && stamp.timestamp > cur.timestamp)
            }
            None => true,
        };
        if newer {
            self.latest_stamp = Some(stamp);
        }
    }

    /// Adopts a digest stamp as the proof-read anchor — only when it
    /// certifies exactly the state this replica has applied.  A stamp for
    /// a version we have not reached (or whose digest contradicts our
    /// own state) is useless for proving and is dropped; an honest slave
    /// that diverged would otherwise serve proofs doomed to fail.
    fn accept_digest_stamp(&mut self, ctx: &mut Ctx<'_, Msg>, stamp: StateDigestStamp) {
        if stamp.version != self.db.version() {
            return;
        }
        if stamp.digest != self.db.state_digest() {
            ctx.metrics().inc(id::SLAVE_DIGEST_MISMATCH);
            return;
        }
        let newer = match &self.latest_digest_stamp {
            Some(cur) => {
                stamp.version > cur.version
                    || (stamp.version == cur.version && stamp.timestamp > cur.timestamp)
            }
            None => true,
        };
        if newer {
            // The anchor moved (even a same-version keep-alive refresh):
            // every cached reply carries the old stamp, so none may be
            // served again.
            self.invalidate_caches(ctx);
            self.latest_digest_stamp = Some(stamp);
        }
    }

    /// Charges and runs the two signature checks every master push pays:
    /// only stamps genuinely signed by one known master count.
    fn stamps_valid(
        &self,
        ctx: &mut Ctx<'_, Msg>,
        stamp: &VersionStamp,
        digest_stamp: &StateDigestStamp,
    ) -> bool {
        ctx.charge(ctx.costs().verify * 2);
        self.master_keys
            .get(&stamp.master)
            .is_some_and(|k| stamp.verify(k).is_ok() && digest_stamp.verify(k).is_ok())
    }

    /// The version this slave *appears* to be at: applied updates plus any
    /// it silently dropped (StaleServer keeps consuming the stream so it
    /// never looks like it has a gap).
    fn effective_version(&self) -> u64 {
        self.db.version().max(self.dropped_up_to)
    }

    fn apply_ready_updates(&mut self, ctx: &mut Ctx<'_, Msg>) {
        while let Some((&version, _)) = self.pending_updates.first_key_value() {
            if version != self.effective_version() + 1 {
                break;
            }
            let (ops, stamp, digest_stamp) =
                self.pending_updates.remove(&version).expect("present");
            let frozen = matches!(self.behavior, SlaveBehavior::StaleServer { freeze_at }
                if self.effective_version() >= freeze_at);
            if frozen {
                // StaleServer: keep the fresh stamp, drop the data.  The
                // digest stamp is useless to it — its frozen state can
                // never match the certified digest, so its proof-read
                // anchor ages out and that path self-gates.
                self.dropped_up_to = version;
                self.accept_stamp(stamp);
                ctx.metrics().inc(id::SLAVE_UPDATES_DROPPED);
                continue;
            }
            let bytes: usize = ops.iter().map(UpdateOp::size).sum();
            ctx.charge(ctx.costs().write_apply * ops.len() as u64);
            ctx.charge(ctx.costs().serde_cost(bytes));
            if self.db.apply_write(&ops).is_ok() {
                ctx.metrics().inc(id::SLAVE_UPDATES_APPLIED);
                // The replica state moved: cached proofs describe the old
                // state even if the new digest stamp ends up rejected, so
                // wipe before (not only when) the anchor adoption below.
                self.invalidate_caches(ctx);
            }
            self.accept_stamp(stamp);
            if let Some(digest_stamp) = digest_stamp {
                self.accept_digest_stamp(ctx, digest_stamp);
            }
        }
    }

    /// Gap detection: ask the master for anything still missing,
    /// rate-limited so transient network reordering (which heals by
    /// itself) does not trigger replay storms.
    fn request_missing(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId) {
        if let Some((&lowest, _)) = self.pending_updates.first_key_value() {
            if lowest > self.effective_version() + 1 && ctx.now() >= self.sync_cooldown_until {
                self.sync_cooldown_until = ctx.now() + self.cfg.keepalive_period;
                ctx.metrics().inc(id::SLAVE_SYNC_REQUESTS);
                ctx.send(
                    from,
                    Msg::SlaveSyncRequest {
                        from_version: self.effective_version() + 1,
                    },
                );
            }
        }
    }

    /// Serves one read of any evidence kind, or refuses it.
    fn serve(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        client: NodeId,
        req_id: u64,
        kind: ReadKind,
        query: Query,
    ) {
        if let Err(reason) = self.try_serve(ctx, client, req_id, kind, query) {
            ctx.send(client, Msg::ReadRefused { req_id, reason });
        }
    }

    /// The read pipeline: gate → cache probe / build → lie step → reply.
    /// Each step exists once; `kind` picks the anchor the gate checks and
    /// the evidence that is built, corrupted and shipped.
    fn try_serve(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        client: NodeId,
        req_id: u64,
        kind: ReadKind,
        query: Query,
    ) -> Result<(), RefuseReason> {
        if self.excluded {
            return Err(RefuseReason::Excluded);
        }
        // Freshness self-gate (correct-slave duty from Section 3): "if they
        // behave correctly they should stop handling user requests until
        // they are back in sync".  A pledge rides the version stamp;
        // everything else needs a digest anchor the client will still
        // consider fresh.
        let (now, bound) = (ctx.now(), self.cfg.max_latency);
        let fresh = match kind {
            ReadKind::Pledge => self
                .latest_stamp
                .as_ref()
                .is_some_and(|s| now.since(s.timestamp) <= bound),
            _ => self
                .latest_digest_stamp
                .as_ref()
                .is_some_and(|s| s.is_fresh(now, bound)),
        };
        if !fresh {
            return Err(out_of_sync(ctx, id::SLAVE_REFUSED_STALE));
        }
        if let SlaveBehavior::Refuser { prob } = self.behavior {
            if ctx.coin() < prob {
                return Err(out_of_sync(ctx, id::SLAVE_REFUSED_MALICIOUS));
            }
        }

        let costs = *ctx.costs();
        let (db, memo, verify) = (&self.db, &self.memo, self.cfg.cache_verify);
        let anchor = self.latest_digest_stamp.as_ref();
        let mut answer = match kind {
            ReadKind::Pledge => {
                let build = |cost: &mut _| Ok((run_query(memo, db, &query, &costs, cost)?, 0));
                Answer::Pledged(fetch(ctx, verify, None, build)?.0)
            }
            ReadKind::Proof => {
                let anchor = anchor.expect("checked fresh");
                let slot = Some((&mut self.reply_cache, cache_key(anchor, &query.encode())));
                let (reply, cached) = fetch(ctx, verify, slot, |cost| {
                    let result = run_query(memo, db, &query, &costs, cost)?;
                    // Not a point read or scan, or the table itself is gone.
                    let Some(Ok(proof)) = db.prove_query(&query) else {
                        return Err(id::SLAVE_PROOF_UNSUPPORTED);
                    };
                    *cost += proof_fold_charge(proof.depth(), &costs);
                    let reply = Arc::new(Msg::ProofReadReply {
                        query: Box::new(query.clone()),
                        result,
                        proof: Box::new(proof),
                        digest_stamp: anchor.clone(),
                    });
                    let bytes = reply.wire_len();
                    Ok((reply, bytes))
                })?;
                ctx.metrics().inc(id::SLAVE_PROOF_READS);
                if !cached && matches!(query, Query::ScanRange { .. }) {
                    ctx.metrics().inc(id::SLAVE_RANGE_READS);
                }
                Answer::Proof { reply, cached }
            }
            ReadKind::Stream => {
                let Query::ReadFileRange { path, offset, len } = &query else {
                    return Err(out_of_sync(ctx, id::SLAVE_PROOF_UNSUPPORTED));
                };
                // A slice header depends only on which chunk-table rows
                // the byte range overlaps, so keying on that window — not
                // the raw `(offset, len)` — lets every read landing in the
                // same chunks share one cached header.  `u64::MAX` keys
                // the absent-file header.
                let (a, b) = db.fs().manifest(path).map_or((u64::MAX, u64::MAX), |m| {
                    let (a, b) = m.chunk_range(*offset, *len);
                    (a as u64, b as u64)
                });
                let subject = [&a.to_be_bytes(), &b.to_be_bytes(), path.as_bytes()].concat();
                let key = cache_key(anchor.expect("checked fresh"), &subject);
                let slot = Some((&mut self.stream_proof_cache, key));
                let (proof, _) = fetch(ctx, verify, slot, |cost| {
                    let proof = db.prove_stream(path, *offset, *len);
                    *cost += proof_fold_charge(proof.depth(), &costs);
                    let bytes = proof.wire_len();
                    Ok((proof, bytes))
                })?;
                // The slice covers exactly the chunks overlapping the
                // requested byte range; the bytes really move, so chunk
                // collection is per request.
                let (first, entries) = proof
                    .slice
                    .as_ref()
                    .map_or((0, &[][..]), |s| (s.first, &s.entries[..]));
                let chunks: Vec<(u32, Vec<u8>)> = entries
                    .iter()
                    .zip(first..)
                    .filter_map(|(entry, index)| {
                        Some((index, db.fs().chunk_bytes(&entry.id)?.to_vec()))
                    })
                    .collect();
                if chunks.len() != entries.len() {
                    // A manifest chunk missing from the store means replica
                    // corruption; refusing beats streaming a doomed proof.
                    return Err(out_of_sync(ctx, id::SLAVE_QUERY_ERRORS));
                }
                ctx.charge(costs.serde_cost(chunks.iter().map(|(_, d)| d.len()).sum()));
                ctx.metrics().inc(id::SLAVE_STREAM_READS);
                let proof = Box::new(proof);
                Answer::Stream { proof, chunks }
            }
        };
        self.reads_served += 1;
        ctx.metrics().inc(id::SLAVE_READS);

        let lie = apply_lie_behavior(self.behavior, ctx, &mut answer);
        if lie.is_some() {
            ctx.metrics().inc(id::SLAVE_LIES);
        }

        match answer {
            Answer::Pledged(result) => {
                // A consistent liar pledges the corrupted hash too; an
                // inconsistent one pledges the correct hash, ships garbage.
                let pledged = match (&lie, self.behavior) {
                    (Some(bad), SlaveBehavior::ConsistentLiar { .. }) => bad,
                    _ => &result,
                };
                let result_hash = ResultHash::of(pledged, PLEDGE_ALGO);
                ctx.charge(costs.hash_cost(pledged.size()));
                let stamp = self.latest_stamp.clone().expect("fresh implies stamp");
                ctx.charge(costs.sign);
                let pledge =
                    Pledge::build(query, result_hash, stamp, ctx.id(), self.signer.as_mut())
                        .map_err(|_| out_of_sync(ctx, id::SLAVE_SIGN_FAILURES))?;
                let (result, pledge) = (lie.unwrap_or(result), Box::new(pledge));
                ctx.send(
                    client,
                    Msg::ReadResponse {
                        req_id,
                        result,
                        pledge,
                    },
                );
            }
            Answer::Proof { reply, cached } => {
                if cached {
                    ctx.send_cached(client, reply)
                } else {
                    ctx.send_shared(client, reply)
                }
            }
            Answer::Stream { proof, chunks } => {
                ctx.send(
                    client,
                    Msg::StreamHeader {
                        req_id,
                        first_chunk: proof.slice.as_ref().map_or(0, |s| s.first),
                        chunk_count: chunks.len() as u32,
                        proof,
                        digest_stamp: self.latest_digest_stamp.clone().expect("checked fresh"),
                    },
                );
                for (index, data) in chunks {
                    ctx.send(
                        client,
                        Msg::StreamChunk {
                            req_id,
                            index,
                            data,
                        },
                    );
                }
            }
        }
        Ok(())
    }
}

impl Process<Msg> for SlaveProcess {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::ReadRequest { req_id, query } => {
                self.serve(ctx, from, req_id, ReadKind::Pledge, query)
            }
            Msg::ProofRead { req_id, query } => {
                self.serve(ctx, from, req_id, ReadKind::Proof, query)
            }
            Msg::StreamRead { req_id, query } => {
                self.serve(ctx, from, req_id, ReadKind::Stream, query)
            }
            Msg::KeepAlive {
                stamp,
                digest_stamp,
            } => {
                if self.stamps_valid(ctx, &stamp, &digest_stamp) {
                    self.last_keepalive_at = ctx.now();
                    self.accept_stamp(stamp);
                    self.accept_digest_stamp(ctx, digest_stamp);
                } else {
                    ctx.metrics().inc(id::SLAVE_BAD_KEEPALIVES);
                }
            }
            Msg::StateUpdate {
                updates,
                stamp,
                digest_stamp,
            } => {
                // Only the master that signed the round may push it: no
                // signature covers the ops, so a genuine stamp pair
                // replayed by anyone else (a client holds one from any
                // pledge and proof reply) could carry forged ops.  One
                // stamp pair covers the whole round: verify twice, not
                // 2 x round.
                if from != stamp.master || !self.stamps_valid(ctx, &stamp, &digest_stamp) {
                    ctx.metrics().inc(id::SLAVE_BAD_UPDATES);
                    return;
                }
                let last = updates.last().map(|(v, _)| *v);
                for (version, ops) in updates {
                    if version <= self.effective_version() {
                        continue;
                    }
                    // Only the round's final version carries the signed
                    // digest anchor; intermediates apply without one (a
                    // mid-round digest was never signed).
                    let anchor = (Some(version) == last).then(|| digest_stamp.clone());
                    self.pending_updates
                        .insert(version, (ops, stamp.clone(), anchor));
                }
                self.apply_ready_updates(ctx);
                self.request_missing(ctx, from);
            }
            Msg::ExcludeNotice => {
                self.excluded = true;
                ctx.metrics().inc(id::SLAVE_EXCLUDED_NOTICES);
            }
            _ => {}
        }
    }

    fn name(&self) -> String {
        format!("slave({:?})", self.behavior)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_always_changes_hash() {
        let samples = vec![
            QueryResult::Rows(vec![]),
            QueryResult::Rows(vec![(1, Document::new().with("a", 1i64))]),
            QueryResult::Scalar(Value::Int(5)),
            QueryResult::Scalar(Value::Str("x".into())),
            QueryResult::Groups(vec![]),
            QueryResult::Groups(vec![(Value::Int(1), Value::Int(2))]),
            QueryResult::Text(None),
            QueryResult::Text(Some("abc".into())),
            QueryResult::Matches(vec![]),
            QueryResult::Paths(vec![]),
            QueryResult::Paths(vec!["/a".into()]),
        ];
        for r in samples {
            let c = corrupt(&r, 0);
            assert_ne!(r.sha1(), c.sha1(), "corrupt({r:?}) did not change hash");
            // Different salts give different forgeries for non-empty cases
            // where the salt lands in the payload.
            let c2 = corrupt(&r, 7);
            if matches!(
                r,
                QueryResult::Scalar(_) | QueryResult::Text(_) | QueryResult::Rows(_)
            ) {
                assert_ne!(c.sha1(), c2.sha1(), "salt ignored for {r:?}");
            }
        }
    }

    #[test]
    fn behavior_malice_flags() {
        assert!(!SlaveBehavior::Honest.is_malicious());
        assert!(SlaveBehavior::ConsistentLiar {
            prob: 0.1,
            collude: false
        }
        .is_malicious());
        assert!(SlaveBehavior::StaleServer { freeze_at: 1 }.is_malicious());
    }
}
