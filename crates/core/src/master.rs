//! Master servers: the trusted core.
//!
//! Each master embeds a `sdr-broadcast` engine for totally ordered writes
//! and membership, holds an authoritative replica plus per-version
//! snapshots, pushes lazy updates and signed keep-alives to its slave set,
//! serves double-checks and trusted reads, detects greedy clients, takes
//! corrective action against slaves (Section 3.5), and — when elected —
//! runs the auditor (see [`crate::auditor`]).

use crate::acl::WritePolicy;
use crate::auditor::AuditorState;
use crate::config::SystemConfig;
use crate::evidence::{Discovery, Evidence};
use crate::messages::{
    CheckVerdict, MasterEvent, Msg, StateDigestStamp, VersionStamp, WriteOutcome,
};
use crate::metrics as id;
use crate::pledge::{Pledge, ResultHash};
use sdr_broadcast::{Action, MemberId, TobConfig, TotalOrder, View};
use sdr_crypto::{CertRole, Certificate, CertificateBody, Hash256, PublicKey, Signer};
use sdr_sim::{Ctx, NodeId, Process, SimTime};
use sdr_store::{execute, Database, SnapshotStore, UpdateOp};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// Admission bound on queued *rounds* of writes: keeps worst-case commit
/// latency at `MAX_PENDING_ROUNDS x max_latency`, safely inside client
/// write timeouts, and sheds load beyond the spacing rule's capacity.
/// The queue bound in writes is `MAX_PENDING_ROUNDS x max_write_batch`,
/// since one round drains up to a full batch.
const MAX_PENDING_ROUNDS: usize = 3;

/// Timer tags.
const T_TOB_TICK: u64 = 1;
const T_KEEPALIVE: u64 = 2;
const T_AUDIT: u64 = 3;
const T_WRITE_PUMP: u64 = 4;
const T_GOSSIP: u64 = 5;

/// A master server process.
pub struct MasterProcess {
    cfg: SystemConfig,
    /// The shard of the content space this master's subgroup owns.  All
    /// state below (replica, write queue, snapshots, digest stamps,
    /// slave set, auditor duties) is scoped to it.
    shard: u32,
    rank: MemberId,
    member_nodes: Vec<NodeId>,
    master_keys: HashMap<NodeId, PublicKey>,
    signer: Box<dyn Signer>,
    content_id: Hash256,

    db: Database,
    snapshots: SnapshotStore,
    write_log: BTreeMap<u64, Vec<UpdateOp>>,
    /// `version → state digest`, bounded alongside `write_log`, so sync
    /// replays can re-stamp historical versions without re-materialising
    /// snapshots.
    digest_log: BTreeMap<u64, Hash256>,
    policy: WritePolicy,

    tob: TotalOrder<MasterEvent>,
    prev_view: View,

    my_slaves: Vec<NodeId>,
    slave_keys: HashMap<NodeId, PublicKey>,
    slave_owner: HashMap<NodeId, MemberId>,
    slave_clients: HashMap<NodeId, HashSet<NodeId>>,
    slave_certs: HashMap<NodeId, Certificate>,
    excluded: HashSet<NodeId>,
    my_clients: HashSet<NodeId>,
    next_cert_serial: u64,

    pending_writes: VecDeque<(NodeId, u64, Vec<UpdateOp>)>,
    earliest_next_write: SimTime,
    inflight_write: bool,

    dc_times: HashMap<NodeId, VecDeque<SimTime>>,

    auditor_state: AuditorState,
    evidence_log: Vec<Evidence>,
    directory: NodeId,
}

impl MasterProcess {
    /// Creates a master of subgroup `shard`.
    ///
    /// `member_nodes[i]` is the world node of the *shard's* master rank
    /// `i`; `my_slaves` is this master's initial slave set (empty for
    /// the shard's initial auditor); `slave_keys`/`slave_owner` cover
    /// the shard's whole slave population.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: SystemConfig,
        shard: u32,
        rank: MemberId,
        member_nodes: Vec<NodeId>,
        master_keys: HashMap<NodeId, PublicKey>,
        signer: Box<dyn Signer>,
        content_id: Hash256,
        db: Database,
        policy: WritePolicy,
        my_slaves: Vec<NodeId>,
        slave_keys: HashMap<NodeId, PublicKey>,
        slave_owner: HashMap<NodeId, MemberId>,
        directory: NodeId,
    ) -> Self {
        let n = member_nodes.len();
        let auditor_state = AuditorState::new(&cfg, db.clone(), SimTime::ZERO);
        let mut snapshots = SnapshotStore::new(cfg.snapshot_capacity);
        snapshots.record(&db);
        let mut digest_log = BTreeMap::new();
        digest_log.insert(db.version(), db.state_digest());
        MasterProcess {
            tob: TotalOrder::new(rank, n, TobConfig::default()),
            prev_view: View::initial(n),
            auditor_state,
            cfg,
            shard,
            rank,
            member_nodes,
            master_keys,
            signer,
            content_id,
            db,
            snapshots,
            write_log: BTreeMap::new(),
            digest_log,
            policy,
            my_slaves,
            slave_keys,
            slave_owner,
            slave_clients: HashMap::new(),
            slave_certs: HashMap::new(),
            excluded: HashSet::new(),
            my_clients: HashSet::new(),
            next_cert_serial: 1,
            pending_writes: VecDeque::new(),
            earliest_next_write: SimTime::ZERO,
            inflight_write: false,
            dc_times: HashMap::new(),
            evidence_log: Vec::new(),
            directory,
        }
    }

    /// The shard this master's subgroup owns.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// World node of the shard's currently elected auditor.
    pub fn auditor_node(&self) -> NodeId {
        self.member_nodes[self.tob.view().auditor().index()]
    }

    /// Whether this master is the elected auditor.
    pub fn is_auditor(&self) -> bool {
        self.tob.view().auditor() == self.rank
    }

    /// Current content version (test inspection).
    pub fn version(&self) -> u64 {
        self.db.version()
    }

    /// State digest (test inspection).
    pub fn state_digest(&self) -> Hash256 {
        self.db.state_digest()
    }

    /// Evidence collected so far (forensics).
    pub fn evidence_log(&self) -> &[Evidence] {
        &self.evidence_log
    }

    /// This master's current slave set (test inspection).
    pub fn slaves(&self) -> &[NodeId] {
        &self.my_slaves
    }

    /// The auditor state (test inspection).
    pub fn auditor_state(&self) -> &AuditorState {
        &self.auditor_state
    }

    /// Versions retained by the snapshot ring (test inspection).
    pub fn snapshot_versions(&self) -> Vec<u64> {
        self.snapshots.versions()
    }

    /// Versions retained in the bounded write log (test inspection).
    pub fn write_log_versions(&self) -> Vec<u64> {
        self.write_log.keys().copied().collect()
    }

    /// Versions retained in the bounded digest log (test inspection;
    /// pruned in lockstep with the write log).
    pub fn digest_log_versions(&self) -> Vec<u64> {
        self.digest_log.keys().copied().collect()
    }

    /// Digest of the retained snapshot at `version` (test inspection).
    pub fn snapshot_digest(&self, version: u64) -> Option<Hash256> {
        self.snapshots.get(version).map(Database::state_digest)
    }

    /// Shared-vs-owned node counts over the snapshot ring (memory
    /// telemetry: retention cost vs churn).
    pub fn snapshot_node_stats(&self) -> sdr_store::NodeStats {
        self.snapshots.node_stats()
    }

    /// Shared-vs-owned node counts of the live replica (memory
    /// telemetry).
    pub fn db_node_stats(&self) -> sdr_store::NodeStats {
        self.db.node_stats()
    }

    /// Chunk-store telemetry of the live replica: dedup hits, logical
    /// vs physical bytes.
    pub fn chunk_stats(&self) -> sdr_store::ChunkStats {
        self.db.fs().chunk_stats()
    }

    /// Write-access policy (test harness mutation).
    pub fn policy_mut(&mut self) -> &mut WritePolicy {
        &mut self.policy
    }

    fn node_of(&self, m: MemberId) -> NodeId {
        self.member_nodes[m.index()]
    }

    /// The reference state for `version`: the live replica when current,
    /// otherwise the snapshot ring's copy (None once evicted).  Both the
    /// double-check path and accusation handling re-execute against this.
    fn reference_state(&self, version: u64) -> Option<&Database> {
        if version == self.db.version() {
            Some(&self.db)
        } else {
            self.snapshots.get(version)
        }
    }

    fn make_stamp(&mut self, ctx: &mut Ctx<'_, Msg>) -> Option<VersionStamp> {
        ctx.charge(ctx.costs().sign);
        VersionStamp::build(self.db.version(), ctx.now(), ctx.id(), self.signer.as_mut()).ok()
    }

    /// Signs a digest stamp for `version` (defaulting to the live state);
    /// `None` when the version's digest is no longer retained.
    fn make_digest_stamp(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        version: u64,
    ) -> Option<StateDigestStamp> {
        let digest = if version == self.db.version() {
            // O(1) amortized on the live copy-on-write state.
            self.db.state_digest()
        } else {
            *self.digest_log.get(&version)?
        };
        ctx.charge(ctx.costs().sign);
        StateDigestStamp::build(version, digest, ctx.now(), ctx.id(), self.signer.as_mut()).ok()
    }

    /// The stamp pair attached to keep-alives and state updates: the
    /// version stamp (pledge freshness) plus the digest stamp (proof
    /// anchor), both over the live version.
    fn make_stamps(&mut self, ctx: &mut Ctx<'_, Msg>) -> Option<(VersionStamp, StateDigestStamp)> {
        let stamp = self.make_stamp(ctx)?;
        let digest_stamp = self.make_digest_stamp(ctx, self.db.version())?;
        Some((stamp, digest_stamp))
    }

    fn issue_slave_cert(&mut self, ctx: &mut Ctx<'_, Msg>, slave: NodeId) -> Option<Certificate> {
        if let Some(c) = self.slave_certs.get(&slave) {
            return Some(c.clone());
        }
        let key = self.slave_keys.get(&slave)?;
        let body = CertificateBody {
            serial: self.next_cert_serial,
            role: CertRole::Slave,
            subject_addr: format!("slave-{}", slave.0),
            subject_key: *key,
            issued_at_us: ctx.now().as_micros(),
            content_id: self.content_id,
            shard: self.shard,
        };
        self.next_cert_serial += 1;
        ctx.charge(ctx.costs().sign);
        let cert = Certificate::issue(body, self.signer.as_mut()).ok()?;
        self.slave_certs.insert(slave, cert.clone());
        Some(cert)
    }

    /// Least-loaded live slaves of mine, excluding `avoid`.
    fn pick_slaves(&self, k: usize, avoid: Option<NodeId>) -> Vec<NodeId> {
        let mut candidates: Vec<NodeId> = self
            .my_slaves
            .iter()
            .copied()
            .filter(|s| !self.excluded.contains(s) && Some(*s) != avoid)
            .collect();
        candidates.sort_by_key(|s| {
            (
                self.slave_clients.get(s).map_or(0, HashSet::len),
                s.0,
            )
        });
        candidates.truncate(k);
        candidates
    }

    fn drain_tob(&mut self, ctx: &mut Ctx<'_, Msg>, actions: Vec<Action<MasterEvent>>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    let node = self.node_of(to);
                    ctx.send(node, Msg::Tob(msg));
                }
                Action::Deliver { payload, .. } => self.deliver_event(ctx, payload),
                Action::ViewInstalled(view) => self.on_view_installed(ctx, view),
            }
        }
    }

    fn deliver_event(&mut self, ctx: &mut Ctx<'_, Msg>, event: MasterEvent) {
        match event {
            MasterEvent::Write {
                origin_master,
                client,
                req_id,
                ops,
            } => self.commit_write(ctx, origin_master, client, req_id, ops),
            MasterEvent::WriteBatch {
                origin_master,
                writes,
            } => self.commit_batch(ctx, origin_master, writes),
            MasterEvent::SlaveList { master, slaves } => {
                for s in slaves {
                    self.slave_owner.insert(s, master);
                }
            }
            MasterEvent::Exclude { slave } => self.execute_exclusion(ctx, slave),
        }
    }

    fn commit_write(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        origin_master: MemberId,
        client: NodeId,
        req_id: u64,
        ops: Vec<UpdateOp>,
    ) {
        ctx.charge(ctx.costs().write_apply * ops.len() as u64);
        let outcome = match self.db.apply_write(&ops) {
            Ok(version) => {
                let now = ctx.now();
                ctx.metrics().inc(id::MASTER_WRITES_APPLIED);
                if origin_master == self.rank {
                    // Exactly one member per commit (the admitting
                    // sequencer) records the per-shard commit stream:
                    // the series the cross-shard ordering tests and the
                    // throughput sweeps read.
                    let shard = self.shard as usize;
                    ctx.metrics().inc(id::WRITE_COMMITTED_SHARD.at(shard));
                    let commits = id::WRITE_COMMIT_US_SHARD.at(shard);
                    ctx.metrics().series_push(commits, now, version as f64);
                    // A single-write round: the degenerate batch.
                    ctx.metrics().observe(id::WRITE_BATCH_SIZE, 1);
                }
                self.snapshots.record(&self.db);
                self.write_log.insert(version, ops.clone());
                self.digest_log.insert(version, self.db.state_digest());
                self.prune_logs();
                self.auditor_state.on_write_committed(version, ops.clone(), now);
                self.earliest_next_write = now + self.cfg.max_latency;

                // Lazy slave update (Section 3.1): push only after commit,
                // stamped with both the version (pledge freshness) and the
                // state digest (proof-read anchor).
                if !self.my_slaves.is_empty() {
                    if let Some((stamp, digest_stamp)) = self.make_stamps(ctx) {
                        // One shared payload for the whole subgroup: the
                        // queue holds pointers, not per-slave deep copies.
                        ctx.multicast(
                            self.my_slaves.iter().copied(),
                            Msg::StateUpdate {
                                version,
                                ops: ops.clone(),
                                stamp,
                                digest_stamp,
                            },
                        );
                    }
                }
                WriteOutcome::Committed { version }
            }
            Err(e) => WriteOutcome::Failed(e.to_string()),
        };
        if origin_master == self.rank {
            self.inflight_write = false;
            ctx.send(client, Msg::WriteResponse { req_id, outcome });
            self.pump_writes(ctx);
        }
    }

    /// Commits one ordered round of writes as a multi-version batch:
    /// every member applies the runs in order (each write still bumps
    /// the version by one, keeping per-version snapshots, write-log and
    /// digest-log entries intact for sync replay and rollback), but the
    /// round signs only **one** stamp pair — at the batch's final
    /// version — and pushes all runs to the slaves in one message.  A
    /// write that fails mid-batch rolls back to its own pre-write state
    /// (the store's write atomicity) and the rest of the batch continues.
    fn commit_batch(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        origin_master: MemberId,
        writes: Vec<(NodeId, u64, Vec<UpdateOp>)>,
    ) {
        let now = ctx.now();
        let mut outcomes = Vec::with_capacity(writes.len());
        let mut applied: Vec<(u64, Vec<UpdateOp>)> = Vec::new();
        for (client, req_id, ops) in writes {
            ctx.charge(ctx.costs().write_apply * ops.len() as u64);
            let outcome = match self.db.apply_write(&ops) {
                Ok(version) => {
                    ctx.metrics().inc(id::MASTER_WRITES_APPLIED);
                    if origin_master == self.rank {
                        let shard = self.shard as usize;
                        ctx.metrics().inc(id::WRITE_COMMITTED_SHARD.at(shard));
                        let commits = id::WRITE_COMMIT_US_SHARD.at(shard);
                        ctx.metrics().series_push(commits, now, version as f64);
                    }
                    self.snapshots.record(&self.db);
                    self.write_log.insert(version, ops.clone());
                    self.digest_log.insert(version, self.db.state_digest());
                    self.auditor_state.on_write_committed(version, ops.clone(), now);
                    applied.push((version, ops));
                    WriteOutcome::Committed { version }
                }
                Err(e) => WriteOutcome::Failed(e.to_string()),
            };
            outcomes.push((client, req_id, outcome));
        }
        self.prune_logs();
        self.earliest_next_write = now + self.cfg.max_latency;
        if !applied.is_empty() {
            if origin_master == self.rank {
                ctx.metrics().observe(id::WRITE_BATCH_SIZE, applied.len() as u64);
            }
            // One stamp pair anchors the whole batch: the amortisation
            // this round exists for.  Per-row proofs at the final
            // version all verify against this single digest stamp.
            if !self.my_slaves.is_empty() {
                if let Some((stamp, digest_stamp)) = self.make_stamps(ctx) {
                    ctx.multicast(
                        self.my_slaves.iter().copied(),
                        Msg::StateUpdateBatch {
                            updates: applied.clone(),
                            stamp,
                            digest_stamp,
                        },
                    );
                }
            }
        }
        if origin_master == self.rank {
            self.inflight_write = false;
            for (client, req_id, outcome) in outcomes {
                ctx.send(client, Msg::WriteResponse { req_id, outcome });
            }
            self.pump_writes(ctx);
        }
    }

    /// Bounds the op and digest logs like the snapshot ring, in strict
    /// lockstep: the digest log covers exactly the write log's window.
    /// The digest seeded at construction (for the initial version, which
    /// has no ops to replay) ages out as soon as the window starts —
    /// sync replays only re-stamp versions the write log retains.
    fn prune_logs(&mut self) {
        while self.write_log.len() > self.cfg.snapshot_capacity {
            let oldest = *self.write_log.keys().next().expect("non-empty");
            self.write_log.remove(&oldest);
            self.digest_log.remove(&oldest);
        }
        if let Some((&floor, _)) = self.write_log.first_key_value() {
            while self
                .digest_log
                .first_key_value()
                .is_some_and(|(&v, _)| v < floor)
            {
                let straggler = *self.digest_log.keys().next().expect("non-empty");
                self.digest_log.remove(&straggler);
            }
        }
    }

    /// Routes an admitted write: the sequencer owns the single global
    /// write queue (and therefore the spacing rule); everyone else
    /// forwards to it.
    fn admit_write(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        client: NodeId,
        req_id: u64,
        ops: Vec<UpdateOp>,
    ) {
        if self.tob.view().sequencer() != self.rank {
            let seq_node = self.node_of(self.tob.view().sequencer());
            ctx.send(
                seq_node,
                Msg::WriteForward {
                    client,
                    req_id,
                    ops,
                },
            );
            return;
        }
        if self.pending_writes.len() >= MAX_PENDING_ROUNDS * self.cfg.max_write_batch {
            // Backpressure: beyond the spacing rule's capacity the queue
            // would only add unbounded commit latency, so shed load
            // explicitly instead (the client sees a prompt failure, not a
            // timeout it would mistake for a master crash).
            ctx.metrics().inc(id::WRITE_OVERLOADED);
            ctx.send(
                client,
                Msg::WriteResponse {
                    req_id,
                    outcome: WriteOutcome::Failed("overloaded".into()),
                },
            );
            return;
        }
        self.pending_writes.push_back((client, req_id, ops));
        self.pump_writes(ctx);
    }

    fn pump_writes(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.inflight_write || self.pending_writes.is_empty() {
            return;
        }
        if ctx.now() < self.earliest_next_write {
            return;
        }
        if self.cfg.max_write_batch <= 1 {
            let (client, req_id, ops) = self.pending_writes.pop_front().expect("non-empty");
            self.inflight_write = true;
            // Optimistic local reservation; the commit re-arms it exactly.
            self.earliest_next_write = ctx.now() + self.cfg.max_latency;
            let actions = self.tob.broadcast(MasterEvent::Write {
                origin_master: self.rank,
                client,
                req_id,
                ops,
            });
            self.drain_tob(ctx, actions);
            return;
        }
        // Batched round: drain everything at the head of the queue (up
        // to `max_write_batch`) into one ordered round.  The spacing
        // rule is unchanged — the queue still opens once per
        // `max_latency` — but the round carries a whole batch.
        let n = self.pending_writes.len().min(self.cfg.max_write_batch);
        let writes: Vec<_> = self.pending_writes.drain(..n).collect();
        self.inflight_write = true;
        self.earliest_next_write = ctx.now() + self.cfg.max_latency;
        let actions = self.tob.broadcast(MasterEvent::WriteBatch {
            origin_master: self.rank,
            writes,
        });
        self.drain_tob(ctx, actions);
    }

    fn on_view_installed(&mut self, ctx: &mut Ctx<'_, Msg>, view: View) {
        ctx.metrics().inc(id::MASTER_VIEW_CHANGES);
        // A write queue stranded on a non-sequencer (after roles moved)
        // re-routes to the new sequencer.
        if view.sequencer() != self.rank && !self.pending_writes.is_empty() {
            let seq_node = self.member_nodes[view.sequencer().index()];
            for (client, req_id, ops) in self.pending_writes.drain(..) {
                ctx.send(
                    seq_node,
                    Msg::WriteForward {
                        client,
                        req_id,
                        ops,
                    },
                );
            }
        }
        let old = std::mem::replace(&mut self.prev_view, view.clone());
        let dead: Vec<MemberId> = old
            .members
            .iter()
            .copied()
            .filter(|m| !view.contains(*m))
            .collect();

        // Divide the slave sets of dead masters — and of the new auditor,
        // which must not keep slaves — deterministically so every survivor
        // computes the same assignment without extra messages.
        let auditor = view.auditor();
        let eligible: Vec<MemberId> = if view.len() > 1 {
            view.members
                .iter()
                .copied()
                .filter(|&m| m != auditor)
                .collect()
        } else {
            view.members.clone()
        };

        let mut orphans: Vec<NodeId> = self
            .slave_owner
            .iter()
            .filter(|(_, owner)| dead.contains(owner) || (view.len() > 1 && **owner == auditor))
            .map(|(s, _)| *s)
            .collect();
        orphans.sort_unstable();

        for (i, slave) in orphans.iter().enumerate() {
            let new_owner = eligible[i % eligible.len()];
            self.slave_owner.insert(*slave, new_owner);
            if new_owner == self.rank {
                if !self.my_slaves.contains(slave) && !self.excluded.contains(slave) {
                    self.my_slaves.push(*slave);
                    ctx.metrics().inc(id::MASTER_SLAVES_ADOPTED);
                    // Immediately give the adopted slave a fresh stamp so it
                    // keeps serving.
                    if let Some((stamp, digest_stamp)) = self.make_stamps(ctx) {
                        ctx.send(*slave, Msg::KeepAlive { stamp, digest_stamp });
                    }
                }
            } else {
                self.my_slaves.retain(|s| s != slave);
            }
        }

        // Auditor duties moved?  Updates are scoped to this shard: the
        // directory entry and client state of other shards never move.
        if old.auditor() != auditor {
            let auditor_node = self.node_of(auditor);
            // The lowest survivor informs the directory.
            if view.sequencer() == self.rank {
                ctx.send(
                    self.directory,
                    Msg::AuditorChanged {
                        shard: self.shard,
                        auditor: auditor_node,
                    },
                );
            }
            // Everyone tells their clients where pledges now go.
            for &c in &self.my_clients {
                ctx.send(
                    c,
                    Msg::AuditorChanged {
                        shard: self.shard,
                        auditor: auditor_node,
                    },
                );
            }
        }
        if self.is_auditor() {
            // The auditor shed its slaves above; its clients must re-run
            // setup with another master (Section 3: clients of a departed
            // master redo the setup phase — same flow here).
            for c in self.my_clients.drain().collect::<Vec<_>>() {
                ctx.send(
                    c,
                    Msg::Reassign {
                        excluded: NodeId(u32::MAX),
                        replacement: None,
                    },
                );
            }
            self.slave_clients.clear();
        }
    }

    fn execute_exclusion(&mut self, ctx: &mut Ctx<'_, Msg>, slave: NodeId) {
        if !self.excluded.insert(slave) {
            return; // Already handled.
        }
        let mine = self.my_slaves.contains(&slave);
        // Count each exclusion once system-wide: the owner does the
        // book-keeping (every master still marks the slave excluded).
        if mine {
            ctx.metrics().inc(id::EXCLUSION_COUNT);
            let now = ctx.now();
            ctx.metrics()
                .series_push(id::EXCLUSION_AT_US, now, f64::from(slave.0));
        }
        if !mine {
            return;
        }
        self.my_slaves.retain(|s| *s != slave);
        ctx.send(slave, Msg::ExcludeNotice);
        // Re-home every client of the excluded slave (Section 3.5: "the
        // master contacts all the clients connected to the (now provably
        // malicious) slave … and assigns each of them to a new slave").
        // Sort: HashSet iteration order is process-random, and both the
        // replacement picks and the message sequence must be reproducible
        // from the world seed.
        let mut clients: Vec<NodeId> = self
            .slave_clients
            .remove(&slave)
            .unwrap_or_default()
            .into_iter()
            .collect();
        clients.sort_unstable();
        for client in clients {
            let replacement = self
                .pick_slaves(1, Some(slave))
                .first()
                .copied()
                .and_then(|s| self.issue_slave_cert(ctx, s).map(|c| (s, c)));
            if let Some((s, _)) = &replacement {
                self.slave_clients.entry(*s).or_default().insert(client);
            }
            ctx.metrics().inc(id::REASSIGN_COUNT);
            ctx.send(
                client,
                Msg::Reassign {
                    excluded: slave,
                    replacement,
                },
            );
        }
    }

    /// Greedy-client tracking: record a double-check and decide whether to
    /// ignore it (Section 3.3).
    fn greedy_should_ignore(&mut self, ctx: &mut Ctx<'_, Msg>, client: NodeId) -> bool {
        let now = ctx.now();
        let window = self.cfg.greedy.window;
        let times = self.dc_times.entry(client).or_default();
        times.push_back(now);
        while let Some(&front) = times.front() {
            if now.since(front) > window {
                times.pop_front();
            } else {
                break;
            }
        }
        let my_count = self.dc_times.get(&client).map_or(0, VecDeque::len) as u64;

        // Median double-check count across this master's other clients.
        let mut counts: Vec<u64> = self
            .my_clients
            .iter()
            .filter(|c| **c != client)
            .map(|c| self.dc_times.get(c).map_or(0, VecDeque::len) as u64)
            .collect();
        counts.sort_unstable();
        let median = counts.get(counts.len() / 2).copied().unwrap_or(0);

        let suspected = my_count >= self.cfg.greedy.min_count
            && my_count as f64 > self.cfg.greedy.factor * (median.max(1)) as f64;
        if suspected {
            ctx.metrics().inc(id::GREEDY_SUSPECTED_CHECKS);
            if ctx.coin() < self.cfg.greedy.ignore_fraction {
                return true;
            }
        }
        false
    }

    /// Re-executes a pledged query at the pledge's version and tells the
    /// client how the slave's answer compares (Section 3.3).
    fn handle_double_check(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        client: NodeId,
        req_id: u64,
        pledge: Pledge,
    ) {
        let verdict = self.double_check(ctx, client, pledge);
        ctx.send(client, Msg::DoubleCheckResponse { req_id, verdict });
    }

    fn double_check(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        client: NodeId,
        pledge: Pledge,
    ) -> CheckVerdict {
        ctx.metrics().inc(id::DC_RECEIVED);
        if self.greedy_should_ignore(ctx, client) {
            ctx.metrics().inc(id::DC_THROTTLED);
            return CheckVerdict::Throttled;
        }
        let Some(reference) = self.reference_state(pledge.stamp.version) else {
            return CheckVerdict::VersionUnavailable;
        };
        let Ok((correct, qcost)) = execute(reference, &pledge.query) else {
            return CheckVerdict::VersionUnavailable;
        };
        ctx.charge(crate::cost::query_charge(&qcost, correct.size(), ctx.costs()));
        ctx.charge(ctx.costs().hash_cost(correct.size()));

        let correct_hash = ResultHash::of(&correct, pledge.result_hash.algo());
        if correct_hash == pledge.result_hash {
            ctx.metrics().inc(id::DC_MATCH);
            return CheckVerdict::Match;
        }

        // Mismatch: the pledge is the proof — if it verifies (no framing).
        ctx.metrics().inc(id::DC_MISMATCH);
        ctx.charge(ctx.costs().verify);
        let sig_ok = self
            .slave_keys
            .get(&pledge.slave)
            .is_some_and(|k| pledge.verify_signature(k).is_ok());
        if sig_ok {
            ctx.metrics().inc(id::DISCOVERY_IMMEDIATE);
            let slave = pledge.slave;
            self.evidence_log.push(Evidence {
                pledge,
                correct_hash,
                discovery: Discovery::Immediate,
                found_at: ctx.now(),
            });
            let actions = self.tob.broadcast(MasterEvent::Exclude { slave });
            self.drain_tob(ctx, actions);
        } else {
            ctx.metrics().inc(id::DC_UNVERIFIABLE_PLEDGE);
        }
        CheckVerdict::Mismatch { correct }
    }

    fn handle_setup(&mut self, ctx: &mut Ctx<'_, Msg>, client: NodeId) {
        self.my_clients.insert(client);
        let picks = self.pick_slaves(self.cfg.read_quorum, None);
        // One extra replica of the shard — any live one, not necessarily
        // ours; masters hold the whole shard's slave keys — handed out
        // as a *spare*: the client retries a rejected proof there before
        // falling back to pledge+audit (proof-path hardening).  Spares
        // are best-effort and unregistered: a stale spare heals through
        // the ordinary `ReadRefused`/re-setup path.
        let spare_pick = {
            let mut all: Vec<NodeId> = self
                .slave_keys
                .keys()
                .copied()
                .filter(|s| !self.excluded.contains(s) && !picks.contains(s))
                .collect();
            all.sort_unstable();
            all.first().copied()
        };
        let mut slaves = Vec::with_capacity(picks.len());
        for s in picks {
            if let Some(cert) = self.issue_slave_cert(ctx, s) {
                self.slave_clients.entry(s).or_default().insert(client);
                slaves.push((s, cert));
            }
        }
        let spares = spare_pick
            .and_then(|s| self.issue_slave_cert(ctx, s).map(|c| vec![(s, c)]))
            .unwrap_or_default();
        ctx.metrics().inc(id::MASTER_SETUPS);
        let auditor = self.auditor_node();
        ctx.send(
            client,
            Msg::SetupResponse {
                shard: self.shard,
                slaves,
                spares,
                auditor,
            },
        );
    }

    fn handle_accusation(&mut self, ctx: &mut Ctx<'_, Msg>, evidence: Evidence) {
        let version = evidence.pledge.stamp.version;
        let slave = evidence.pledge.slave;
        let Some(key) = self.slave_keys.get(&slave) else {
            ctx.metrics().inc(id::ACCUSATION_UNKNOWN_SLAVE);
            return;
        };
        let Some(reference) = self.reference_state(version) else {
            ctx.metrics().inc(id::ACCUSATION_VERSION_UNAVAILABLE);
            return;
        };
        ctx.charge(ctx.costs().verify);
        // Evidence re-executes the query internally; charge the work.
        if let Ok((_, qcost)) = execute(reference, &evidence.pledge.query) {
            ctx.charge(crate::cost::query_charge(&qcost, 0, ctx.costs()));
        }
        match evidence.verify(key, reference) {
            Ok(()) => {
                if evidence.discovery == Discovery::Delayed {
                    ctx.metrics().inc(id::DISCOVERY_DELAYED);
                }
                self.evidence_log.push(evidence);
                let actions = self.tob.broadcast(MasterEvent::Exclude { slave });
                self.drain_tob(ctx, actions);
            }
            Err(_) => {
                ctx.metrics().inc(id::ACCUSATION_REJECTED);
            }
        }
    }
}

impl Process<Msg> for MasterProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.set_timer(self.cfg.tob_tick, T_TOB_TICK);
        ctx.set_timer(self.cfg.keepalive_period, T_KEEPALIVE);
        ctx.set_timer(self.cfg.audit_tick, T_AUDIT);
        ctx.set_timer(self.cfg.max_latency / 8, T_WRITE_PUMP);
        // Peers may not be spawned yet during on_start, so the first
        // gossip/keep-alive round goes through a near-immediate timer.
        ctx.set_timer(sdr_sim::SimDuration::from_millis(1), T_GOSSIP);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        match tag {
            T_TOB_TICK => {
                let actions = self.tob.on_tick();
                self.drain_tob(ctx, actions);
                ctx.set_timer(self.cfg.tob_tick, T_TOB_TICK);
            }
            T_KEEPALIVE => {
                if !self.my_slaves.is_empty() {
                    if let Some((stamp, digest_stamp)) = self.make_stamps(ctx) {
                        ctx.metrics().inc(id::KEEPALIVE_SENT);
                        ctx.multicast(
                            self.my_slaves.iter().copied(),
                            Msg::KeepAlive {
                                stamp,
                                digest_stamp,
                            },
                        );
                    }
                }
                ctx.set_timer(self.cfg.keepalive_period, T_KEEPALIVE);
            }
            T_AUDIT => {
                if self.is_auditor() {
                    let findings = self.auditor_state.process_slice(
                        ctx,
                        &self.slave_keys,
                        &self.master_keys,
                    );
                    for f in findings {
                        // Route to the slave's owner ("the auditor sends the
                        // incriminating pledge to the master in charge of
                        // the slave that has signed it").
                        let owner = self
                            .slave_owner
                            .get(&f.slave)
                            .copied()
                            .unwrap_or(self.tob.view().sequencer());
                        let owner_node = self.node_of(owner);
                        ctx.send(
                            owner_node,
                            Msg::Accusation {
                                evidence: Box::new(f.evidence),
                            },
                        );
                    }
                }
                ctx.set_timer(self.cfg.audit_tick, T_AUDIT);
            }
            T_WRITE_PUMP => {
                self.pump_writes(ctx);
                ctx.set_timer(self.cfg.max_latency / 8, T_WRITE_PUMP);
            }
            T_GOSSIP => {
                // Periodic slave-list broadcast (Section 3) plus a
                // keep-alive so freshly assigned slaves can serve at once.
                let actions = self.tob.broadcast(MasterEvent::SlaveList {
                    master: self.rank,
                    slaves: self.my_slaves.clone(),
                });
                self.drain_tob(ctx, actions);
                if !self.my_slaves.is_empty() {
                    if let Some((stamp, digest_stamp)) = self.make_stamps(ctx) {
                        ctx.multicast(
                            self.my_slaves.iter().copied(),
                            Msg::KeepAlive {
                                stamp,
                                digest_stamp,
                            },
                        );
                    }
                }
                ctx.set_timer(self.cfg.keepalive_period * 8, T_GOSSIP);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::Tob(tm) => {
                // Map the sender node back to its rank.
                let Some(rank) = self
                    .member_nodes
                    .iter()
                    .position(|n| *n == from)
                    .map(|i| MemberId(i as u32))
                else {
                    return;
                };
                let actions = self.tob.on_message(rank, tm);
                self.drain_tob(ctx, actions);
            }
            Msg::SetupRequest => self.handle_setup(ctx, from),
            Msg::WriteRequest { req_id, ops } => {
                ctx.metrics().inc(id::WRITE_RECEIVED);
                if !self.policy.allows(from, &ops) {
                    ctx.metrics().inc(id::WRITE_DENIED);
                    ctx.send(
                        from,
                        Msg::WriteResponse {
                            req_id,
                            outcome: WriteOutcome::AccessDenied,
                        },
                    );
                    return;
                }
                self.admit_write(ctx, from, req_id, ops);
            }
            Msg::WriteForward {
                client,
                req_id,
                ops,
            } => {
                // Already ACL-checked by the forwarding master.
                self.admit_write(ctx, client, req_id, ops);
            }
            Msg::DoubleCheck { req_id, pledge } => {
                self.handle_double_check(ctx, from, req_id, *pledge)
            }
            Msg::TrustedRead { req_id, query } => {
                ctx.metrics().inc(id::MASTER_TRUSTED_READS);
                if let Ok((result, qcost)) = execute(&self.db, &query) {
                    ctx.charge(crate::cost::query_charge(&qcost, result.size(), ctx.costs()));
                    ctx.send(from, Msg::TrustedReadResponse { req_id, result });
                }
            }
            Msg::AuditSubmit { pledge } => {
                if self.is_auditor() {
                    self.auditor_state.enqueue(*pledge, ctx.metrics());
                } else {
                    // Stale client knowledge: forward to the real auditor.
                    let auditor = self.auditor_node();
                    ctx.send(auditor, Msg::AuditSubmit { pledge });
                }
            }
            Msg::Accusation { evidence } => self.handle_accusation(ctx, *evidence),
            Msg::SlaveSyncRequest { from_version } => {
                // Replay what we still hold, bounded per request; the
                // slave re-requests if it is still behind afterwards.
                // Each replayed version gets its *own* digest stamp (the
                // digest log retains one per write-log entry) so the
                // catching-up slave can re-anchor proof reads at every
                // step.
                let missing: Vec<(u64, Vec<UpdateOp>)> = self
                    .write_log
                    .range(from_version..)
                    .take(16)
                    .map(|(&v, ops)| (v, ops.clone()))
                    .collect();
                if let Some(stamp) = self.make_stamp(ctx) {
                    for (version, ops) in missing {
                        let Some(digest_stamp) = self.make_digest_stamp(ctx, version) else {
                            continue;
                        };
                        ctx.send(
                            from,
                            Msg::StateUpdate {
                                version,
                                ops,
                                stamp: stamp.clone(),
                                digest_stamp,
                            },
                        );
                    }
                }
            }
            _ => {}
        }
    }

    fn name(&self) -> String {
        // Global label (shard-major), identical to the unsharded layout
        // when `n_shards == 1`.
        format!(
            "master-{}",
            self.shard as usize * self.cfg.n_masters + self.rank.index()
        )
    }
}
