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
//! Its throughput advantages over slaves, all modeled here, are exactly the
//! paper's four: it signs nothing, it answers nobody, it may cache results
//! (it replays a known query stream), and it can spread work over idle
//! off-peak hours — the lag metric visualised by experiment E7.

use crate::config::SystemConfig;
use crate::evidence::{Discovery, Evidence};
use crate::metrics as id;
use crate::pledge::{Pledge, ResultHash};
use sdr_crypto::PublicKey;
use sdr_sim::{Ctx, NodeId, SimTime};
use sdr_store::{execute, Database, QueryCache, UpdateOp};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Outcome of one audit slice, to be routed by the owning master.
#[derive(Debug)]
pub struct AuditFinding {
    /// The convicted slave.
    pub slave: NodeId,
    /// Self-contained proof.
    pub evidence: Evidence,
}

/// The auditor's private state (embedded in every master; only the elected
/// auditor receives pledges, but keeping the lagging replica warm on every
/// master makes auditor failover cheap).
pub struct AuditorState {
    cfg: SystemConfig,
    /// The lagging replica: at version `v` while pledges for `v` are
    /// being audited.
    db: Database,
    /// Committed writes not yet applied to the lagging replica.
    pending_writes: BTreeMap<u64, Vec<UpdateOp>>,
    /// When each version committed at this master (drives the advance
    /// rule).
    commit_times: BTreeMap<u64, SimTime>,
    /// Pledges bucketed by the version their stamp names.
    buckets: BTreeMap<u64, VecDeque<Pledge>>,
    cache: QueryCache,
    backlog: u64,
}

impl AuditorState {
    /// Creates the state from the initial replica.
    pub fn new(cfg: &SystemConfig, initial: Database, now: SimTime) -> Self {
        let mut commit_times = BTreeMap::new();
        commit_times.insert(initial.version(), now);
        AuditorState {
            cache: QueryCache::new(cfg.auditor_cache_capacity),
            cfg: cfg.clone(),
            db: initial,
            pending_writes: BTreeMap::new(),
            commit_times,
            buckets: BTreeMap::new(),
            backlog: 0,
        }
    }

    /// Version currently under audit.
    pub fn audit_version(&self) -> u64 {
        self.db.version()
    }

    /// Pledges waiting across all buckets.
    pub fn backlog(&self) -> u64 {
        self.backlog
    }

    /// Result-cache hit rate so far.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Records a write the master group committed (the auditor applies it
    /// later, per the lag rule).
    pub fn on_write_committed(&mut self, version: u64, ops: Vec<UpdateOp>, now: SimTime) {
        self.commit_times.insert(version, now);
        self.pending_writes.insert(version, ops);
    }

    /// Accepts a pledge for background verification.
    pub fn enqueue(&mut self, pledge: Pledge, counters: &mut sdr_sim::Metrics) {
        let version = pledge.stamp.version;
        if version < self.db.version() {
            // Its bucket already closed: under the advance rule no client
            // can still accept this answer, so it was either checked in
            // time or never mattered.
            counters.inc(id::AUDIT_LATE);
            return;
        }
        let newest_known = self
            .commit_times
            .keys()
            .next_back()
            .copied()
            .unwrap_or(0);
        if version > newest_known + 8 {
            // A stamp for a far-future version cannot have a valid master
            // signature; don't let garbage accumulate.
            counters.inc(id::AUDIT_BOGUS_VERSION);
            return;
        }
        counters.inc(id::AUDIT_SUBMITTED);
        self.backlog += 1;
        self.buckets.entry(version).or_default().push_back(pledge);
    }

    /// Seconds of audit lag: how far behind the newest committed version
    /// the lagging replica is, in commit-time terms.
    pub fn lag(&self, now: SimTime) -> sdr_sim::SimDuration {
        match self.pending_writes.keys().next() {
            Some(oldest_pending) => {
                let t = self
                    .commit_times
                    .get(oldest_pending)
                    .copied()
                    .unwrap_or(now);
                now.since(t)
            }
            None => sdr_sim::SimDuration::ZERO,
        }
    }

    /// Whether the advance rule permits moving to `version + 1` at `now`.
    fn may_advance(&self, now: SimTime) -> bool {
        let next = self.db.version() + 1;
        match (self.pending_writes.get(&next), self.commit_times.get(&next)) {
            (Some(_), Some(&committed)) => {
                now.since(committed) > self.cfg.max_latency + self.cfg.keepalive_period
            }
            _ => false,
        }
    }

    /// Runs one audit slice bounded by `cfg.audit_slice` of virtual CPU.
    ///
    /// Returns findings (wrong pledges with evidence) for the master to
    /// route to the slaves' owners.
    pub fn process_slice(
        &mut self,
        ctx: &mut Ctx<'_, crate::messages::Msg>,
        slave_keys: &HashMap<NodeId, PublicKey>,
        master_keys: &HashMap<NodeId, PublicKey>,
    ) -> Vec<AuditFinding> {
        let budget = self.cfg.audit_slice;
        let start = ctx.charged();
        let mut findings = Vec::new();

        loop {
            if ctx.charged().since_start(start) >= budget {
                break;
            }
            let va = self.db.version();
            let has_pledge = self
                .buckets
                .get(&va)
                .is_some_and(|b| !b.is_empty());

            if has_pledge {
                let pledge = self
                    .buckets
                    .get_mut(&va)
                    .and_then(VecDeque::pop_front)
                    .expect("checked non-empty");
                self.backlog = self.backlog.saturating_sub(1);

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

                // Re-execute (with the cache — the paper's optimisation).
                let caching = self.cfg.auditor_cache;
                let cached = if caching {
                    ctx.charge(ctx.costs().cache_lookup);
                    self.cache.get(va, &pledge.query)
                } else {
                    None
                };
                let result = match cached {
                    Some(r) => {
                        ctx.metrics().inc(id::AUDIT_CACHE_HIT);
                        r
                    }
                    None => {
                        let Ok((r, qcost)) = execute(&self.db, &pledge.query) else {
                            ctx.metrics().inc(id::AUDIT_QUERY_ERRORS);
                            continue;
                        };
                        ctx.charge(crate::cost::query_charge(&qcost, r.size(), ctx.costs()));
                        if caching {
                            self.cache.put(va, &pledge.query, r.clone());
                        }
                        r
                    }
                };
                ctx.charge(ctx.costs().hash_cost(result.size()));
                ctx.metrics().inc(id::AUDIT_CHECKED);

                let correct_hash = ResultHash::of(&result, pledge.result_hash.algo());
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
            } else if self.may_advance(ctx.now()) {
                let next = self.db.version() + 1;
                let ops = self.pending_writes.remove(&next).expect("may_advance");
                ctx.charge(ctx.costs().write_apply * ops.len() as u64);
                if self.db.apply_write(&ops).is_err() {
                    // Committed writes applied deterministically cannot
                    // fail here unless state diverged — surface loudly.
                    ctx.metrics().inc(id::AUDIT_APPLY_ERRORS);
                }
                self.buckets.remove(&(next - 1));
                ctx.metrics().inc(id::AUDIT_VERSION_ADVANCES);
            } else {
                break;
            }
        }

        // Telemetry for E7.
        let lag = self.lag(ctx.now());
        let now = ctx.now();
        ctx.metrics().series_push(id::AUDIT_LAG_US, now, lag.as_micros() as f64);
        ctx.metrics()
            .series_push(id::AUDIT_BACKLOG, now, self.backlog as f64);
        ctx.metrics()
            .observe(id::AUDIT_LAG_HIST_US, lag.as_micros());
        findings
    }
}

/// Extension trait: duration since a starting charge mark.
trait ChargedSince {
    fn since_start(&self, start: sdr_sim::SimDuration) -> sdr_sim::SimDuration;
}

impl ChargedSince for sdr_sim::SimDuration {
    fn since_start(&self, start: sdr_sim::SimDuration) -> sdr_sim::SimDuration {
        self.saturating_sub(start)
    }
}
