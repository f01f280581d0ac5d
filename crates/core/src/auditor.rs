//! The background auditor (Section 3.4).
//!
//! The auditor is the master elected by the group's broadcast protocol (the
//! highest rank in the current view; see `sdr-broadcast`).  It holds no
//! slave set and serves no double-checks.  Its sole duty is replaying every
//! pledged read and comparing hashes.
//!
//! Faithful to the paper, the auditor **lags on writes**: "it executes a
//! write only after it has audited all the read requests for the
//! `content_version` that precedes that write", and it advances to a new
//! version "only after a sufficiently large time interval (more than
//! `max_latency`) has elapsed since the rest of the trusted servers have
//! moved to that same content version", which guarantees no client will
//! still accept results for the version it is closing out.
//!
//! It keeps no history of its own: it re-executes each pledge against the
//! owning master's snapshot ring, which holds every version's state, ops
//! and commit time, and which the master pins from the version under
//! audit so nothing the audit has not closed is evicted.
//!
//! Its throughput advantages over slaves, all modeled here, are exactly the
//! paper's four: it signs nothing, it answers nobody, it may cache results
//! (it replays a known query stream), and it can spread work over idle
//! off-peak hours — the lag metric visualised by experiment E7.
//!
//! The modeled result cache keeps, per `(version, query)`, only what a
//! comparison needs: the result's size (for the hash charge) and its
//! hash, so it costs O(entries × 32 B) whatever the results weigh.  A
//! miss re-executes through the deployment's [`ExecMemo`], which spares
//! the host a query some slave or master already ran against the same
//! state; the modeled charge is the same either way.

use crate::config::SystemConfig;
use crate::evidence::{Discovery, Evidence};
use crate::metrics as id;
use crate::pledge::{Pledge, ResultHash};
use sdr_crypto::PublicKey;
use sdr_sim::{Ctx, NodeId, SimDuration, SimTime};
use sdr_store::{ExecMemo, QueryCache, Snapshot, SnapshotStore};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Capacity of the auditor's result cache, in entries.
const CACHE_CAPACITY: usize = 4_096;

/// Outcome of one audit slice, to be routed by the owning master.
#[derive(Debug)]
pub struct AuditFinding {
    /// The convicted slave.
    pub slave: NodeId,
    /// Self-contained proof.
    pub evidence: Evidence,
}

/// The auditor's state (embedded in every master; only the elected
/// auditor receives pledges and advances).
pub struct AuditorState {
    cfg: SystemConfig,
    /// The version under audit: its pledges are re-executed against the
    /// ring's entry for it until the advance rule closes it.
    version: u64,
    /// Pledges bucketed by the version their stamp names.
    buckets: BTreeMap<u64, VecDeque<Pledge>>,
    /// The size and hash of each re-executed result.
    cache: QueryCache<(usize, ResultHash)>,
}

impl AuditorState {
    /// Creates the state auditing from `version` (the seed).
    pub fn new(cfg: &SystemConfig, version: u64) -> Self {
        AuditorState {
            cache: QueryCache::new(CACHE_CAPACITY),
            cfg: cfg.clone(),
            version,
            buckets: BTreeMap::new(),
        }
    }

    /// Version currently under audit.
    pub fn audit_version(&self) -> u64 {
        self.version
    }

    /// Pledges waiting across all buckets.
    pub fn backlog(&self) -> u64 {
        self.buckets.values().map(|b| b.len() as u64).sum()
    }

    /// Resumes a newly elected auditor at `oldest`, the oldest version
    /// its master's ring holds: pledges for anything older can no longer
    /// be re-executed, so their buckets go.
    pub fn resume_at(&mut self, oldest: u64) {
        if oldest > self.version {
            self.version = oldest;
            self.buckets = self.buckets.split_off(&oldest);
        }
    }

    /// Accepts a pledge for background verification; `live` is the
    /// master's current version.
    pub fn enqueue(&mut self, pledge: Pledge, live: u64, counters: &mut sdr_sim::Metrics) {
        let version = pledge.stamp.version;
        if version < self.version {
            // Its bucket already closed, so it is never checked.  Yet the
            // client accepted this answer in the same step that forwarded
            // the pledge, before the pledge reached us: a late pledge is
            // an accepted answer that nobody audits (`audit_late`).
            counters.inc(id::AUDIT_LATE);
            return;
        }
        if version > live + 8 {
            // A stamp for a far-future version cannot have a valid master
            // signature; don't let garbage accumulate.
            counters.inc(id::AUDIT_BOGUS_VERSION);
            return;
        }
        counters.inc(id::AUDIT_SUBMITTED);
        self.buckets.entry(version).or_default().push_back(pledge);
    }

    /// Runs one audit slice bounded by `cfg.audit_slice` of virtual CPU,
    /// re-executing through `memo` against `ring`, the master's snapshot
    /// ring.
    ///
    /// Returns findings (wrong pledges with evidence) for the master to
    /// route to the slaves' owners.
    pub fn process_slice(
        &mut self,
        ctx: &mut Ctx<'_, crate::messages::Msg>,
        ring: &SnapshotStore,
        memo: &ExecMemo,
        slave_keys: &HashMap<NodeId, PublicKey>,
        master_keys: &HashMap<NodeId, PublicKey>,
    ) -> Vec<AuditFinding> {
        let budget = self.cfg.audit_slice;
        let start = ctx.charged();
        let mut findings = Vec::new();
        let since = |now: SimTime, s: &Snapshot| now.since(SimTime::from_micros(s.committed_us));

        while ctx.charged().saturating_sub(start) < budget {
            let va = self.version;
            if let Some(pledge) = self.buckets.get_mut(&va).and_then(VecDeque::pop_front) {
                // Sampled auditing (overload fallback, Section 3.4).
                if self.cfg.audit_fraction < 1.0 && ctx.coin() >= self.cfg.audit_fraction {
                    ctx.metrics().inc(id::AUDIT_SKIPPED_SAMPLING);
                    continue;
                }

                // Verify the two signatures; unverifiable pledges cannot
                // convict anyone and are dropped.
                ctx.charge(ctx.costs().verify * 2);
                let sig_ok = slave_keys
                    .get(&pledge.slave)
                    .is_some_and(|k| pledge.verify_signature(k).is_ok());
                let stamp_ok = master_keys
                    .get(&pledge.stamp.master)
                    .is_some_and(|k| pledge.stamp.verify(k).is_ok());
                if !sig_ok || !stamp_ok {
                    ctx.metrics().inc(id::AUDIT_UNVERIFIABLE);
                    continue;
                }

                // Re-execute (with the cache — the paper's optimisation)
                // against the version under audit, which the ring never
                // evicts.
                let caching = self.cfg.auditor_cache;
                let algo = pledge.result_hash.algo();
                let run = || ring.get(va).map(|s| memo.execute(&s.state, &pledge.query));
                let cached = if caching {
                    ctx.charge(ctx.costs().cache_lookup);
                    self.cache.get(va, &pledge.query)
                } else {
                    None
                };
                let (size, correct_hash) = match cached {
                    Some((size, hash)) => {
                        ctx.metrics().inc(id::AUDIT_CACHE_HIT);
                        // A pledge naming another algorithm is rehashed on
                        // the host; the model charges a hit the same.
                        let hash = if hash.algo() == algo {
                            hash
                        } else {
                            let done = run().expect("pinned").expect("ran before");
                            ResultHash::of(&done.0, algo)
                        };
                        (size, hash)
                    }
                    None => {
                        let Some(Ok(done)) = run() else {
                            ctx.metrics().inc(id::AUDIT_QUERY_ERRORS);
                            continue;
                        };
                        let (r, qcost) = &*done;
                        ctx.charge(crate::cost::query_charge(qcost, r.size(), ctx.costs()));
                        let entry = (r.size(), ResultHash::of(r, algo));
                        if caching {
                            self.cache.put(va, &pledge.query, entry);
                        }
                        entry
                    }
                };
                ctx.charge(ctx.costs().hash_cost(size));
                ctx.metrics().inc(id::AUDIT_CHECKED);

                if correct_hash != pledge.result_hash {
                    ctx.metrics().inc(id::AUDIT_MISMATCH);
                    findings.push(AuditFinding {
                        slave: pledge.slave,
                        evidence: Evidence {
                            pledge,
                            correct_hash,
                            discovery: Discovery::Delayed,
                            found_at: ctx.now(),
                        },
                    });
                }
            } else if let Some(next) = ring
                .get(va + 1)
                .filter(|s| since(ctx.now(), s) > self.cfg.max_latency + self.cfg.keepalive_period)
            {
                // The advance rule: more than `max_latency` (plus one
                // keep-alive period) since the next version committed.
                let n_ops = next.ops.as_ref().map_or(0, Vec::len);
                ctx.charge(ctx.costs().write_apply * n_ops as u64);
                self.buckets.remove(&va);
                self.version += 1;
                ctx.metrics().inc(id::AUDIT_VERSION_ADVANCES);
            } else {
                break;
            }
        }

        // Telemetry for E7: how long the oldest version the audit has
        // not reached has been committed.
        let now = ctx.now();
        let lag = ring.get(self.version + 1).map_or(SimDuration::ZERO, |s| since(now, s));
        let backlog = self.backlog();
        ctx.metrics().series_push(id::AUDIT_LAG_US, now, lag.as_micros() as f64);
        ctx.metrics().series_push(id::AUDIT_BACKLOG, now, backlog as f64);
        ctx.metrics()
            .observe(id::AUDIT_LAG_HIST_US, lag.as_micros());
        findings
    }
}
