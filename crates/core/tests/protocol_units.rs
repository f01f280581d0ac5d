//! Focused protocol-unit tests: exercise single mechanisms through small
//! worlds where the surrounding noise (workload randomness) is disabled.

use sdr_broadcast::MemberId;
use sdr_core::acl::WritePolicy;
use sdr_core::dataset::DatasetSpec;
use sdr_core::master::MasterProcess;
use sdr_core::messages::{RefuseReason, WriteOutcome};
use sdr_core::pledge::ResultHash;
use sdr_core::slave::SlaveProcess;
use sdr_core::truth::Truth;
use sdr_core::{
    metrics, HashAlgo, Msg, Pledge, SlaveBehavior, System, SystemBuilder, SystemConfig,
    VersionStamp, Workload,
};
use sdr_crypto::{Digest, HmacSigner, Sha256, Signer};
use sdr_sim::{
    CostModel, Counter, Ctx, LinkModel, NetworkConfig, NodeId, Process, SimDuration, SimTime,
    World,
};
use sdr_store::{
    execute, Aggregate, Document, ExecMemo, Predicate, Query, QueryResult, UpdateOp, Value,
};
use std::collections::HashMap;

/// A quiet system: no reads, no writes — only protocol background traffic.
fn quiet(seed: u64, n_masters: usize, n_slaves: usize) -> System {
    quiet_with(seed, n_masters, vec![SlaveBehavior::Honest; n_slaves])
}

fn quiet_with(seed: u64, n_masters: usize, behaviors: Vec<SlaveBehavior>) -> System {
    let n_slaves = behaviors.len();
    let cfg = SystemConfig {
        n_masters,
        n_slaves,
        n_clients: 2,
        seed,
        ..SystemConfig::default()
    };
    let workload = Workload {
        reads_per_sec: 0.0,
        writes_per_sec: 0.0,
        ..Workload::default()
    };
    SystemBuilder::new(cfg)
        .behaviors(behaviors)
        .workload(workload)
        .build()
}

/// A bare node that sends what the harness injects for it and records
/// read refusals, write responses (with arrival time), state updates and
/// the anchor version of each proof-read reply.
#[derive(Default)]
struct Probe {
    refusals: Vec<(u64, RefuseReason)>,
    writes: Vec<(SimTime, u64, WriteOutcome)>,
    updates: usize,
    proofs: Vec<u64>,
}

impl Process<Msg> for Probe {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        match msg {
            Msg::ReadRefused { req_id, reason } => self.refusals.push((req_id, reason)),
            Msg::WriteResponse { req_id, outcome } => {
                self.writes.push((ctx.now(), req_id, outcome))
            }
            Msg::StateUpdate { .. } => self.updates += 1,
            Msg::ProofReadReply { digest_stamp, .. } => self.proofs.push(digest_stamp.version),
            _ => {}
        }
    }
}

/// A real slave that also records, for every `StateUpdate` it receives,
/// the versions carried and the versions of its stamp pair.
struct RecordedSlave {
    slave: SlaveProcess,
    updates: Vec<(Vec<u64>, u64, u64)>,
}

impl Process<Msg> for RecordedSlave {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        if let Msg::StateUpdate {
            updates,
            stamp,
            digest_stamp,
        } = &msg
        {
            let versions = updates.iter().map(|(v, _)| *v).collect();
            self.updates
                .push((versions, stamp.version, digest_stamp.version));
        }
        self.slave.on_message(ctx, from, msg);
    }
}

/// A hand-built shard on 10 ms links: master rank 0 (the sequencer) owns
/// one recorded slave, rank 1 audits, and a probe writes and reads.
struct ReplayWorld {
    world: World<Msg>,
    master: NodeId,
    slave: NodeId,
    probe: NodeId,
}

impl ReplayWorld {
    fn new(seed: u64) -> Self {
        let cfg = SystemConfig {
            n_masters: 2,
            n_slaves: 1,
            n_clients: 1,
            max_latency: SimDuration::from_millis(500),
            keepalive_period: SimDuration::from_millis(125),
            seed,
            ..SystemConfig::default()
        };
        let db = DatasetSpec::default().build();
        let signer = |label: &str| -> Box<dyn Signer> {
            Box::new(HmacSigner::from_seed_label(seed, label.as_bytes()))
        };
        let masters = vec![NodeId(0), NodeId(1)];
        let (slave, probe) = (NodeId(2), NodeId(3));
        let master_keys: HashMap<NodeId, _> = (0..2)
            .map(|r| (masters[r], signer(&format!("master-{r}")).public_key()))
            .collect();
        let slave_signer = signer("slave-0");
        let slave_keys = HashMap::from([(slave, slave_signer.public_key())]);
        let net = NetworkConfig::new(LinkModel::constant(SimDuration::from_millis(10)));
        let mut world = World::new(seed, net, CostModel::standard());
        let memo = ExecMemo::new();
        let truth = Truth::new(std::slice::from_ref(&db), memo.clone());
        for rank in 0..2u32 {
            let master = MasterProcess::new(
                cfg.clone(),
                0,
                MemberId(rank),
                masters.clone(),
                master_keys.clone(),
                signer(&format!("master-{rank}")),
                Sha256::digest(b"replay-world"),
                db.clone(),
                WritePolicy::allow_all(),
                if rank == 0 { vec![slave] } else { Vec::new() },
                slave_keys.clone(),
                HashMap::from([(slave, MemberId(0))]),
                probe,
                memo.clone(),
                truth.clone(),
            );
            world.spawn(format!("master-{rank}"), Box::new(master));
        }
        let slave_process = SlaveProcess::new(
            cfg,
            db,
            SlaveBehavior::Honest,
            slave_signer,
            master_keys,
            memo,
        );
        let recorded = RecordedSlave {
            slave: slave_process,
            updates: Vec::new(),
        };
        assert_eq!(world.spawn("slave", Box::new(recorded)), slave);
        assert_eq!(world.spawn("probe", Box::new(Probe::default())), probe);
        ReplayWorld {
            world,
            master: masters[0],
            slave,
            probe,
        }
    }

    /// Sends `n` writes to the sequencer and runs until they committed.
    fn commit(&mut self, n: u64) {
        let before = self.committed();
        for req_id in before + 1..=before + n {
            let msg = Msg::WriteRequest { req_id, ops: append("x") };
            self.world.inject(self.probe, self.master, msg);
        }
        // The spacing rule commits one round per `max_latency`.
        self.world.run_for(SimDuration::from_millis(500 * n + 500));
        assert_eq!(self.committed(), before + n, "writes did not commit");
    }

    fn committed(&mut self) -> u64 {
        let writes = self.world.with_process(self.probe, |p: &mut Probe| p.writes.clone());
        writes
            .iter()
            .filter(|(_, _, o)| matches!(o, WriteOutcome::Committed { .. }))
            .count() as u64
    }

    fn master_version(&mut self) -> u64 {
        self.world.with_process(self.master, |m: &mut MasterProcess| m.version())
    }

    /// The slave's version and the version of its proof-read anchor.
    fn slave_state(&mut self) -> (u64, Option<u64>) {
        self.world.with_process(self.slave, |r: &mut RecordedSlave| {
            (r.slave.version(), r.slave.digest_anchor().map(|a| a.version))
        })
    }

    fn updates(&mut self) -> Vec<(Vec<u64>, u64, u64)> {
        self.world.with_process(self.slave, |r: &mut RecordedSlave| r.updates.clone())
    }
}

/// A write the quickstart dataset always accepts.
fn append(text: &str) -> Vec<UpdateOp> {
    vec![UpdateOp::AppendFile {
        path: "/docs/probe.log".into(),
        contents: text.into(),
    }]
}

/// The slave's gate — excluded, no fresh anchor, `Refuser` coin — is one
/// piece of code in front of every evidence kind: each request message
/// meets the same refusal and moves the same counter.
#[test]
fn slave_gate_refuses_every_read_kind_alike() {
    const STALE: Counter = metrics::SLAVE_REFUSED_STALE;
    const MALICIOUS: Counter = metrics::SLAVE_REFUSED_MALICIOUS;
    let cases = [
        ("excluded", SlaveBehavior::Honest, RefuseReason::Excluded, None),
        ("no fresh anchor", SlaveBehavior::Honest, RefuseReason::OutOfSync, Some(STALE)),
        ("refuser", SlaveBehavior::Refuser { prob: 1.0 }, RefuseReason::OutOfSync, Some(MALICIOUS)),
    ];
    for (i, (case, behavior, reason, counter)) in cases.into_iter().enumerate() {
        let mut sys = quiet_with(20 + i as u64, 2, vec![behavior; 2]);
        sys.run_for(SimDuration::from_secs(2));
        let slave = sys.slaves[0];
        match case {
            "excluded" => sys.world.inject(sys.masters[0], slave, Msg::ExcludeNotice),
            "no fresh anchor" => {
                // Silence the masters: the stamps age past `max_latency`.
                let now = sys.now();
                (0..2).for_each(|rank| sys.crash_master_at(now, rank));
            }
            _ => {}
        }
        sys.run_for(SimDuration::from_secs(5));

        let probe = sys.world.spawn("probe", Box::new(Probe::default()));
        let get = Query::GetRow { table: "products".into(), key: 1 };
        let range = Query::ReadFileRange { path: "/docs/readme".into(), offset: 0, len: 64 };
        let requests = [
            Msg::ReadRequest { req_id: 1, query: get.clone() },
            Msg::ProofRead { req_id: 2, query: get },
            Msg::StreamRead { req_id: 3, query: range },
        ];
        for (req_id, request) in (1..).zip(requests) {
            let count = |sys: &System, name| sys.world.metrics().counter(name);
            let before = (count(&sys, STALE), count(&sys, MALICIOUS));
            sys.world.inject(probe, slave, request);
            sys.run_for(SimDuration::from_millis(500));
            let refusals = sys.world.with_process(probe, |p: &mut Probe| p.refusals.clone());
            assert_eq!(refusals.last(), Some(&(req_id, reason)), "{case}, request {req_id}");
            let moved = (count(&sys, STALE) - before.0, count(&sys, MALICIOUS) - before.1);
            let expected = |name| u64::from(counter == Some(name));
            assert_eq!(moved, (expected(STALE), expected(MALICIOUS)), "{case}, request {req_id}");
        }
    }
}

#[test]
fn keepalives_keep_slaves_fresh_without_writes() {
    let mut sys = quiet(1, 3, 4);
    sys.run_for(SimDuration::from_secs(20));
    // Keep-alives flowed...
    assert!(sys.world.metrics().counter(metrics::KEEPALIVE_SENT) >= 30);
    // ...and no slave ever refused for staleness (nobody read, but the
    // mechanism's health shows in zero bad-keepalive counts).
    assert_eq!(sys.world.metrics().counter(metrics::SLAVE_BAD_KEEPALIVES), 0);
}

#[test]
fn clients_complete_setup_and_get_distinct_masters() {
    let mut sys = quiet(2, 4, 6);
    sys.run_for(SimDuration::from_secs(5));
    let mut ready = 0;
    for i in 0..2 {
        if sys.with_client(i, |c| c.is_ready()) {
            ready += 1;
        }
    }
    assert_eq!(ready, 2, "both clients should finish setup");
    // Each client got read_quorum slaves.
    for i in 0..2 {
        let slaves = sys.with_client(i, |c| c.assigned_slaves());
        assert_eq!(slaves.len(), 1);
    }
}

#[test]
fn auditor_advances_versions_while_lagging() {
    let cfg = SystemConfig {
        n_masters: 3,
        n_slaves: 2,
        n_clients: 2,
        max_latency: SimDuration::from_millis(500),
        keepalive_period: SimDuration::from_millis(125),
        seed: 3,
        ..SystemConfig::default()
    };
    let workload = Workload {
        reads_per_sec: 1.0,
        writes_per_sec: 1.0, // Saturates the 2-per-second spacing budget.
        writer_fraction: 1.0,
        ..Workload::default()
    };
    let mut sys = SystemBuilder::new(cfg)
        .behaviors(vec![SlaveBehavior::Honest; 2])
        .workload(workload)
        .build();
    sys.run_for(SimDuration::from_secs(20));

    let master_version = sys.with_master(0, |m| m.version());
    let (audit_version, backlog) = sys.with_master(2, |m| {
        (m.auditor_state().audit_version(), m.auditor_state().backlog())
    });
    assert!(master_version > 8, "writes should commit: {master_version}");
    // The auditor lags by design but stays within a few versions once the
    // max_latency horizon passes.
    assert!(audit_version <= master_version);
    assert!(
        master_version - audit_version <= 4,
        "auditor stuck: audit at {audit_version}, masters at {master_version} (backlog {backlog})"
    );
}

#[test]
fn version_stamps_advance_monotonically_at_slaves() {
    let cfg = SystemConfig {
        n_masters: 3,
        n_slaves: 3,
        n_clients: 2,
        seed: 4,
        ..SystemConfig::default()
    };
    let workload = Workload {
        reads_per_sec: 0.5,
        writes_per_sec: 0.4,
        writer_fraction: 1.0,
        ..Workload::default()
    };
    let mut sys = SystemBuilder::new(cfg)
        .behaviors(vec![SlaveBehavior::Honest; 3])
        .workload(workload)
        .build();

    let mut last = [0u64; 3];
    for _ in 0..10 {
        sys.run_for(SimDuration::from_secs(3));
        for (i, prev) in last.iter_mut().enumerate() {
            let v = sys.with_slave(i, |s| s.version());
            assert!(v >= *prev, "slave {i} version went backwards");
            *prev = v;
        }
    }
    // All slaves ended up past the initial dataset version.
    assert!(last.iter().all(|&v| v > 4));
}

#[test]
fn overload_backpressure_rejects_excess_writes_quickly() {
    let cfg = SystemConfig {
        n_masters: 3,
        n_slaves: 2,
        n_clients: 4,
        max_latency: SimDuration::from_millis(2_000),
        seed: 5,
        ..SystemConfig::default()
    };
    let workload = Workload {
        reads_per_sec: 0.5,
        writes_per_sec: 10.0, // 20x the spacing capacity.
        writer_fraction: 1.0,
        ..Workload::default()
    };
    let mut sys = SystemBuilder::new(cfg)
        .behaviors(vec![SlaveBehavior::Honest; 2])
        .workload(workload)
        .build();
    sys.run_for(SimDuration::from_secs(30));
    let m = sys.world.metrics();

    assert!(m.counter(metrics::WRITE_OVERLOADED) > 0, "no backpressure seen");
    // Overload must not be misread as master crashes.
    assert_eq!(m.counter(metrics::WRITE_TIMEOUT), 0, "writes timed out");
    // Committed rate respects the spacing bound (1 per 2 s, ~15 total,
    // plus slack for the pipeline).
    let committed = m.counter(metrics::WRITE_COMMITTED);
    assert!(committed <= 20, "spacing violated: {committed} commits in 30s");
    assert!(committed >= 10, "write path starved: {committed}");
}

#[test]
fn excluded_slave_refuses_and_clients_rehome() {
    let cfg = SystemConfig {
        n_masters: 3,
        n_slaves: 4,
        n_clients: 6,
        double_check_prob: 0.5,
        seed: 6,
        ..SystemConfig::default()
    };
    let mut behaviors = vec![SlaveBehavior::Honest; 4];
    behaviors[0] = SlaveBehavior::ConsistentLiar {
        prob: 1.0,
        collude: false,
    };
    let mut sys = SystemBuilder::new(cfg)
        .behaviors(behaviors)
        .workload(Workload {
            reads_per_sec: 4.0,
            writes_per_sec: 0.0,
            ..Workload::default()
        })
        .build();
    sys.run_for(SimDuration::from_secs(30));
    let stats = sys.stats();

    assert!(stats.exclusions >= 1, "{}", stats.render());
    assert!(sys.with_slave(0, |s| s.is_excluded()));
    // No client still has the excluded slave assigned.
    let excluded_node = sys.slaves[0];
    for i in 0..6 {
        let assigned = sys.with_client(i, |c| c.assigned_slaves());
        assert!(
            !assigned.contains(&excluded_node),
            "client {i} still assigned to excluded slave"
        );
    }
    // And the excluded slave serves nothing after exclusion: its reads
    // stop growing.
    let served_at_exclusion = sys.with_slave(0, |s| s.reads_served());
    sys.run_for(SimDuration::from_secs(10));
    let served_later = sys.with_slave(0, |s| s.reads_served());
    assert_eq!(served_at_exclusion, served_later);
}

#[test]
fn auditor_election_follows_view() {
    let mut sys = quiet(7, 4, 4);
    sys.run_for(SimDuration::from_secs(5));
    // Initially rank 3 is the auditor.
    assert!(sys.with_master(3, |m| m.is_auditor()));
    assert!(!sys.with_master(2, |m| m.is_auditor()));

    // Kill it; rank 2 must take over.
    let t = sys.now();
    sys.crash_master_at(t + SimDuration::from_secs(1), 3);
    sys.run_for(SimDuration::from_secs(15));
    assert!(
        sys.with_master(2, |m| m.is_auditor()),
        "auditor duty did not move to the highest survivor"
    );
    // And the old auditor's (empty) duties moved without slave loss.
    let total: usize = (0..3).map(|r| sys.with_master(r, |m| m.slaves().len())).sum();
    assert_eq!(total, 4);
}

/// A master replays its write log only to the shard's own slaves: each
/// replay costs it signatures and ships the log, so a stranger's
/// `SlaveSyncRequest` gets nothing back.
#[test]
fn sync_replay_serves_only_the_shards_slaves() {
    let mut sys = quiet(8, 3, 2);
    sys.run_for(SimDuration::from_secs(2));
    let master = sys.masters[0];
    let probe = sys.world.spawn("probe", Box::new(Probe::default()));
    for req_id in 1..=3 {
        let ops = append("x");
        sys.world
            .inject(probe, master, Msg::WriteRequest { req_id, ops });
    }
    sys.run_for(SimDuration::from_secs(8));
    let committed = sys.world.with_process(probe, |p: &mut Probe| {
        p.writes
            .iter()
            .filter(|(_, _, o)| matches!(o, WriteOutcome::Committed { .. }))
            .count()
    });
    assert_eq!(committed, 3, "the write log must hold something to replay");

    sys.world
        .inject(probe, master, Msg::SlaveSyncRequest { from_version: 0 });
    sys.run_for(SimDuration::from_secs(1));
    let updates = sys.world.with_process(probe, |p: &mut Probe| p.updates);
    assert_eq!(updates, 0, "a non-slave got a write-log replay");
}

/// The spacing rule re-arms after every commit round, even one whose
/// only write failed: a valid write queued behind a duplicate `Insert`
/// commits no earlier than `max_latency` after the failed round.  Links
/// are constant, so response arrivals mirror the sequencer's commits.
#[test]
fn spacing_rearms_after_a_failed_round() {
    let cfg = SystemConfig {
        n_masters: 3,
        n_slaves: 2,
        n_clients: 2,
        seed: 9,
        ..SystemConfig::default()
    };
    let max_latency = cfg.max_latency;
    let mut sys = SystemBuilder::new(cfg)
        .behaviors(vec![SlaveBehavior::Honest; 2])
        .workload(Workload {
            reads_per_sec: 0.0,
            writes_per_sec: 0.0,
            ..Workload::default()
        })
        .network(NetworkConfig::new(LinkModel::constant(
            SimDuration::from_millis(10),
        )))
        .build();
    sys.run_for(SimDuration::from_secs(2));
    let sequencer = sys.masters[0];
    let probe = sys.world.spawn("probe", Box::new(Probe::default()));
    let duplicate = vec![UpdateOp::Insert {
        table: "products".into(),
        key: 1,
        doc: Document::new().with("name", "dup"),
    }];
    let requests = [(1, duplicate), (2, append("ok"))];
    for (req_id, ops) in requests {
        sys.world
            .inject(probe, sequencer, Msg::WriteRequest { req_id, ops });
    }
    sys.run_for(max_latency * 3);

    let writes = sys
        .world
        .with_process(probe, |p: &mut Probe| p.writes.clone());
    let [(failed_at, 1, WriteOutcome::Failed(_)), (ok_at, 2, WriteOutcome::Committed { .. })] =
        writes.as_slice()
    else {
        panic!("expected a failed then a committed write: {writes:?}");
    };
    assert!(
        ok_at.since(*failed_at) >= max_latency,
        "the round after a failed one came {:?} later, inside max_latency",
        ok_at.since(*failed_at)
    );
}

/// A slave that missed k rounds catches up in **one** round: the next
/// push shows it the gap, it asks once, and the master answers with a
/// single `StateUpdate` carrying every version it lacks under one stamp
/// pair at the live version — so the slave lands on the master's version,
/// re-anchors there, and serves proof reads again.
#[test]
fn sync_replay_catches_a_slave_up_in_one_round() {
    const MISSED: u64 = 3;
    let mut w = ReplayWorld::new(10);
    w.world.run_for(SimDuration::from_secs(1));
    let v0 = w.master_version();
    assert_eq!(w.slave_state().0, v0);

    w.world.set_island(w.slave, 1);
    w.commit(MISSED);
    w.world.heal_partitions();
    assert_eq!(w.slave_state().0, v0, "the partition let an update through");

    let seen = w.updates().len();
    w.commit(1);
    let live = w.master_version();
    assert_eq!(live, v0 + MISSED + 1);
    let replay = ((v0 + 1..=live).collect(), live, live);
    assert_eq!(
        w.updates()[seen..],
        [(vec![live], live, live), replay],
        "expected the live round, then one catch-up round"
    );
    assert_eq!(w.slave_state(), (live, Some(live)));
    assert_eq!(w.world.metrics().counter(metrics::SLAVE_SYNC_REQUESTS), 1);

    let query = Query::GetRow { table: "products".into(), key: 1 };
    w.world.inject(w.probe, w.slave, Msg::ProofRead { req_id: 1, query });
    w.world.run_for(SimDuration::from_millis(100));
    let proofs = w.world.with_process(w.probe, |p: &mut Probe| p.proofs.clone());
    assert_eq!(proofs, [live], "the caught-up slave must serve proof reads");
}

/// `from_version: 0` asks for everything retained; the seed version is in
/// the ring but has no ops, so the replay starts at the first write.
#[test]
fn sync_replay_never_replays_the_seed_version() {
    let mut w = ReplayWorld::new(11);
    w.world.run_for(SimDuration::from_secs(1));
    let seed = w.master_version();
    w.commit(2);
    let live = w.master_version();
    let seen = w.updates().len();

    let request = Msg::SlaveSyncRequest { from_version: 0 };
    w.world.inject(w.slave, w.master, request);
    w.world.run_for(SimDuration::from_millis(100));
    assert_eq!(w.updates()[seen..], [((seed + 1..=live).collect(), live, live)]);
    assert_eq!(w.slave_state(), (live, Some(live)));
}

/// The auditor's result cache keeps a result's size and hash, not the
/// result: a cached `(version, query)` pledged under another hash
/// algorithm is rehashed, so an honest pledge under either algorithm
/// passes and a lying one is still convicted.
#[test]
fn auditor_cache_rehashes_a_pledge_under_another_algorithm() {
    let seed = 41;
    let mut w = ReplayWorld::new(seed);
    let auditor = NodeId(1);
    let db = DatasetSpec::default().build();
    let query = Query::Aggregate {
        table: "products".into(),
        predicate: Predicate::True,
        agg: Aggregate::Count,
        group_by: Some("category".into()),
    };
    let (honest, _) = execute(&db, &query).unwrap();
    let lie = QueryResult::Scalar(Value::Int(0));
    let mut master = HmacSigner::from_seed_label(seed, b"master-0");
    let mut slave = HmacSigner::from_seed_label(seed, b"slave-0");
    let stamp = VersionStamp::build(db.version(), SimTime::ZERO, NodeId(0), &mut master).unwrap();
    for (result, algo) in [
        (&honest, HashAlgo::Sha1),
        (&honest, HashAlgo::Sha256),
        (&lie, HashAlgo::Sha256),
    ] {
        let hash = ResultHash::of(result, algo);
        let pledge = Pledge::build(query.clone(), hash, stamp.clone(), w.slave, &mut slave).unwrap();
        let submit = Msg::AuditSubmit { pledge: Box::new(pledge) };
        w.world.inject(w.probe, auditor, submit);
    }
    w.world.run_for(SimDuration::from_secs(2));
    let count = |name| w.world.metrics().counter(name);
    assert_eq!(count(metrics::AUDIT_CHECKED), 3);
    assert_eq!(count(metrics::AUDIT_CACHE_HIT), 2);
    assert_eq!(count(metrics::AUDIT_MISMATCH), 1, "exactly the lie is convicted");
}
