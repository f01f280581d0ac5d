//! Focused protocol-unit tests: exercise single mechanisms through small
//! worlds where the surrounding noise (workload randomness) is disabled.

use sdr_core::messages::RefuseReason;
use sdr_core::{metrics, Msg, SlaveBehavior, System, SystemBuilder, SystemConfig, Workload};
use sdr_sim::{Counter, Ctx, NodeId, Process, SimDuration};
use sdr_store::Query;

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

/// A bare node that asks slaves to serve reads and records every refusal.
#[derive(Default)]
struct Probe {
    refusals: Vec<(u64, RefuseReason)>,
}

impl Process<Msg> for Probe {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        if let Msg::ReadRefused { req_id, reason } = msg {
            self.refusals.push((req_id, reason));
        }
    }
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
