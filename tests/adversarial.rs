//! Adversarial integration tests: framing, refusal, lossy networks, and
//! combined failure modes.

use secure_replication::core::messages::{CheckVerdict, StateDigestStamp, VersionStamp};
use secure_replication::core::{
    metrics, Msg, SlaveBehavior, SystemBuilder, SystemConfig, Workload,
};
use secure_replication::crypto::{Digest, HmacSigner, Sha256};
use secure_replication::sim::metrics::SIM_LOST_MESSAGES;
use secure_replication::sim::{Ctx, LinkModel, NetworkConfig, NodeId, Process, SimDuration};
use secure_replication::store::{Document, QueryResult, UpdateOp, Value};

fn base_cfg(seed: u64) -> SystemConfig {
    SystemConfig {
        n_masters: 3,
        n_slaves: 5,
        n_clients: 8,
        seed,
        ..SystemConfig::default()
    }
}

/// A refuser (DoS) slave degrades service but never causes wrong results,
/// and honest retries keep the overall acceptance rate high.
#[test]
fn refuser_hurts_liveness_not_safety() {
    let cfg = base_cfg(31);
    let mut behaviors = vec![SlaveBehavior::Honest; 5];
    behaviors[0] = SlaveBehavior::Refuser { prob: 0.6 };
    let mut sys = SystemBuilder::new(cfg)
        .behaviors(behaviors)
        .workload(Workload::default())
        .build();
    sys.run_for(SimDuration::from_secs(40));
    let stats = sys.stats();

    assert!(
        sys.world.metrics().counter(metrics::SLAVE_REFUSED_MALICIOUS) > 0,
        "refuser never refused"
    );
    assert_eq!(stats.wrong_accepted, 0);
    assert_eq!(stats.lies_told, 0);
    // Clients whose slave refuses retry and mostly succeed.
    assert!(
        stats.reads_accepted as f64 >= 0.6 * stats.reads_issued as f64,
        "acceptance collapsed: {}",
        stats.render()
    );
}

/// Control replies pass the same gate as data replies: only the master a
/// trusted read or a double-check was sent to may settle it.  Every
/// slave refuses every read, so nothing can legitimately complete; one
/// of them then answers the pending request ids (which it has seen in
/// the requests) with spoofed master verdicts and trusted results.
#[test]
fn spoofed_control_replies_accept_nothing() {
    let mut sys = SystemBuilder::new(base_cfg(35))
        .behaviors(vec![SlaveBehavior::Refuser { prob: 1.0 }; 5])
        .workload(Workload::default())
        .build();
    let (spoofer, clients) = (sys.slaves[0], sys.clients.clone());
    for _ in 0..40 {
        sys.run_for(SimDuration::from_millis(250));
        for &client in &clients {
            for req_id in 1..100 {
                let verdict = CheckVerdict::Match;
                sys.world
                    .inject(spoofer, client, Msg::DoubleCheckResponse { req_id, verdict });
                let result = QueryResult::Scalar(Value::Int(666));
                sys.world
                    .inject(spoofer, client, Msg::TrustedReadResponse { req_id, result });
            }
        }
    }
    sys.run_for(SimDuration::from_secs(1));
    let stats = sys.stats();

    let refused = sys.world.metrics().counter(metrics::SLAVE_REFUSED_MALICIOUS);
    assert!(refused > 0 && stats.reads_issued > 0, "{}", stats.render());
    assert_eq!(stats.reads_accepted, 0, "{}", stats.render());
    assert_eq!(stats.wrong_accepted, 0);
}

/// The protocol survives a lossy network: reads retry, the broadcast
/// retransmits, and no replica diverges.
#[test]
fn lossy_network_degrades_gracefully() {
    let cfg = base_cfg(32);
    let net = NetworkConfig::new(
        LinkModel::wan(SimDuration::from_millis(10)).with_loss(0.05),
    );
    let mut sys = SystemBuilder::new(cfg)
        .behaviors(vec![SlaveBehavior::Honest; 5])
        .workload(Workload::default())
        .network(net)
        .build();
    sys.run_for(SimDuration::from_secs(45));
    let stats = sys.stats();

    assert!(
        sys.world.metrics().counter(SIM_LOST_MESSAGES) > 0,
        "loss model inactive"
    );
    assert!(stats.reads_accepted > 0);
    assert_eq!(stats.wrong_accepted, 0);
    assert!(stats.writes_committed > 0, "writes must survive loss");
    // Masters still agree.
    let d0 = sys.with_master(0, |m| m.state_digest());
    let d1 = sys.with_master(1, |m| m.state_digest());
    assert_eq!(d0, d1);
}

/// Combined stress: liars + a master crash + loss, all at once.  Safety
/// invariants hold: nothing wrong is accepted without eventually being
/// detectable, honest slaves are never excluded.
#[test]
fn combined_stress_keeps_invariants() {
    let mut cfg = base_cfg(33);
    cfg.n_masters = 4;
    cfg.double_check_prob = 0.1;
    let mut behaviors = vec![SlaveBehavior::Honest; 5];
    behaviors[1] = SlaveBehavior::ConsistentLiar {
        prob: 0.4,
        collude: false,
    };
    behaviors[4] = SlaveBehavior::InconsistentLiar { prob: 0.3 };
    let net = NetworkConfig::new(
        LinkModel::wan(SimDuration::from_millis(12)).with_loss(0.02),
    );
    let mut sys = SystemBuilder::new(cfg)
        .behaviors(behaviors)
        .workload(Workload::default())
        .network(net)
        .build();
    sys.crash_master_at(secure_replication::sim::SimTime::from_secs(25), 1);
    sys.run_for(SimDuration::from_secs(80));
    let stats = sys.stats();

    // Safety: honest slaves (indices 0, 2, 3) never excluded.
    assert_eq!(stats.honest_excluded, 0, "{}", stats.render());
    // Wrong results only from the consistent liar, bounded by its lies.
    assert!(stats.wrong_accepted <= stats.lies_told);
    // The system made progress through all of it.
    assert!(stats.reads_accepted > 100, "{}", stats.render());
}

/// Message loss alone must never convict an honest slave.  A slave that
/// lost an update still receives keep-alives stamped with the master's
/// newer version; pledging its older state's answers under that stamp
/// would make the audit, which re-executes at the stamped version, find
/// a mismatch.  These seeds each convicted an honest slave that way, and
/// the ground truth judges each such answer wrong the moment it is
/// accepted.
#[test]
fn lossy_network_never_convicts_honest_slaves() {
    for seed in [21, 22, 24] {
        let mut cfg = base_cfg(seed);
        cfg.n_masters = 4;
        cfg.double_check_prob = 0.1;
        let net = NetworkConfig::new(
            LinkModel::wan(SimDuration::from_millis(12)).with_loss(0.02),
        );
        let mut sys = SystemBuilder::new(cfg)
            .behaviors(vec![SlaveBehavior::Honest; 5])
            .workload(Workload::default())
            .network(net)
            .build();
        sys.run_for(SimDuration::from_secs(80));
        let stats = sys.stats();
        assert!(
            stats.honest_excluded == 0 && stats.wrong_accepted == 0,
            "seed {seed}: {}",
            stats.render()
        );
        assert!(stats.reads_accepted > 100, "seed {seed}: no progress");
    }
}

/// Write access control: a deny-all policy rejects every client write
/// while reads continue unharmed.
#[test]
fn acl_blocks_writes() {
    use secure_replication::core::acl::WritePolicy;
    let cfg = base_cfg(34);
    let workload = Workload {
        writes_per_sec: 2.0,
        writer_fraction: 0.5,
        ..Workload::default()
    };
    let mut sys = SystemBuilder::new(cfg)
        .behaviors(vec![SlaveBehavior::Honest; 5])
        .workload(workload)
        .policy(WritePolicy::deny_all())
        .build();
    sys.run_for(SimDuration::from_secs(30));
    let stats = sys.stats();

    assert_eq!(stats.writes_committed, 0);
    assert!(stats.writes_denied > 0, "no denials recorded");
    assert!(stats.reads_accepted > 0);
}

/// A node that only sends (what the harness injects on its behalf).
struct Mute;

impl Process<Msg> for Mute {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: Msg) {}
}

/// A state update counts only from the master that signed it.  No
/// signature covers a round's ops, and any client holds a genuine stamp
/// pair (the version stamp inside a pledge, the digest stamp of a proof
/// reply), so a round that pairs master-signed stamps for the next
/// version with forged ops must move nothing when anyone else sends it:
/// not the slave's version, not its digest.
#[test]
fn replayed_stamps_cannot_carry_forged_ops() {
    let seed = 36;
    let mut sys = SystemBuilder::new(base_cfg(seed))
        .behaviors(vec![SlaveBehavior::Honest; 5])
        .workload(Workload {
            reads_per_sec: 0.0,
            writes_per_sec: 0.0,
            ..Workload::default()
        })
        .build();
    sys.run_for(SimDuration::from_secs(2));
    let (master, slave) = (sys.masters[0], sys.slaves[0]);
    let before = sys.with_slave(0, |s| (s.version(), s.state_digest()));
    let bad_before = sys.world.metrics().counter(metrics::SLAVE_BAD_UPDATES);

    // Stamps genuinely signed by the shard master's key (the signer the
    // builder derives for `master-0`) for the slave's next version.
    let mut key = HmacSigner::from_seed_label(seed, b"master-0");
    let (next, now) = (before.0 + 1, sys.now());
    let stamp = VersionStamp::build(next, now, master, &mut key).unwrap();
    let digest = Sha256::digest(b"whatever the forged state hashes to");
    let digest_stamp = StateDigestStamp::build(next, digest, now, master, &mut key).unwrap();
    let forged = vec![UpdateOp::Update {
        table: "products".into(),
        key: 1,
        changes: Document::new().with("price", 0i64),
    }];
    let probe = sys.world.spawn("probe", Box::new(Mute));
    let round = Msg::StateUpdate {
        updates: vec![(next, forged)],
        stamp,
        digest_stamp,
    };
    sys.world.inject(probe, slave, round);
    sys.run_for(SimDuration::from_secs(1));

    let after = sys.with_slave(0, |s| (s.version(), s.state_digest()));
    assert_eq!(after, before, "a replayed stamp pair moved the slave");
    let bad = sys.world.metrics().counter(metrics::SLAVE_BAD_UPDATES) - bad_before;
    assert_eq!(bad, 1, "the forged round must count as a bad update");
}
