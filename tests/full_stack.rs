//! Cross-crate integration: real MSS signatures end-to-end, offline
//! evidence verification, and the facade crate's public API surface.

use secure_replication::core::evidence::{Discovery, Evidence};
use secure_replication::core::messages::VersionStamp;
use secure_replication::core::pledge::{Pledge, ResultHash};
use secure_replication::core::{metrics, SlaveBehavior, SystemBuilder, SystemConfig, Workload};
use secure_replication::crypto::{MssSigner, SignatureScheme, Signer};
use secure_replication::sim::{NodeId, SimDuration, SimTime};
use secure_replication::store::{execute, Database, Document, Query, UpdateOp};

/// A short deployment using the *real* Merkle signature scheme everywhere
/// (not the HMAC stand-in): pledges, stamps, and certificates all carry
/// hash-based signatures, and the protocol still works.
#[test]
fn real_mss_signatures_end_to_end() {
    let cfg = SystemConfig {
        n_masters: 2,
        n_slaves: 2,
        n_clients: 3,
        signer: SignatureScheme::Mss,
        mss_height: 10, // 1024 signatures per node: plenty for 10 s.
        double_check_prob: 0.1,
        seed: 5,
        ..SystemConfig::default()
    };
    let workload = Workload {
        reads_per_sec: 2.0,
        writes_per_sec: 0.1,
        ..Workload::default()
    };
    let mut sys = SystemBuilder::new(cfg)
        .behaviors(vec![SlaveBehavior::Honest; 2])
        .workload(workload)
        .build();
    sys.run_for(SimDuration::from_secs(10));
    let stats = sys.stats();
    assert!(stats.reads_accepted > 10, "{}", stats.render());
    assert_eq!(stats.wrong_accepted, 0);
    // Signature failures would show up as rejections.
    assert_eq!(sys.world.metrics().counter(metrics::READ_REJECTED_SIG), 0);
    assert_eq!(
        sys.world
            .metrics()
            .counter(metrics::READ_REJECTED_STAMP_SIG),
        0
    );
}

/// Evidence produced inside the system verifies *outside* it, using only
/// public crate APIs — the "take it to court" property.
#[test]
fn evidence_verifies_offline_with_mss() {
    // Reference content.
    let mut db = Database::new();
    db.apply_write(&[
        UpdateOp::CreateTable {
            table: "records".into(),
            indexes: vec![],
        },
        UpdateOp::Insert {
            table: "records".into(),
            key: 1,
            doc: Document::new().with("diagnosis", "benign"),
        },
    ])
    .expect("setup");

    let mut master = MssSigner::generate([1; 32], 4).expect("keygen");
    let mut slave = MssSigner::generate([2; 32], 4).expect("keygen");

    let query = Query::GetRow {
        table: "records".into(),
        key: 1,
    };
    let (correct, _) = execute(&db, &query).expect("query");
    // The slave lies: claims a different diagnosis.
    let lie = secure_replication::core::slave::corrupt(&correct, 3);

    let stamp = VersionStamp::build(
        db.version(),
        SimTime::from_millis(50),
        NodeId(0),
        &mut master,
    )
    .expect("stamp");
    let pledge = Pledge::build(
        query,
        ResultHash::of(&lie, secure_replication::core::HashAlgo::Sha1),
        stamp,
        NodeId(9),
        &mut slave,
    )
    .expect("pledge");

    let evidence = Evidence {
        pledge,
        correct_hash: ResultHash::of(&correct, secure_replication::core::HashAlgo::Sha1),
        discovery: Discovery::Delayed,
        found_at: SimTime::from_millis(500),
    };
    // An independent verifier holding only the slave's public key and a
    // replica at the right version convicts the slave.
    evidence
        .verify(&slave.public_key(), &db)
        .expect("conviction stands offline");

    // The same evidence against a *different* key (i.e. accusing an
    // innocent slave) fails.
    let innocent = MssSigner::generate([3; 32], 4).expect("keygen");
    assert!(evidence.verify(&innocent.public_key(), &db).is_err());
}

/// All replicas and the auditor's lagging copy converge to the same state
/// digest once the system quiesces.
#[test]
fn every_replica_converges_to_one_digest() {
    let cfg = SystemConfig {
        n_masters: 3,
        n_slaves: 5,
        n_clients: 6,
        seed: 17,
        ..SystemConfig::default()
    };
    let workload = Workload {
        reads_per_sec: 3.0,
        writes_per_sec: 0.5,
        ..Workload::default()
    };
    let mut sys = SystemBuilder::new(cfg)
        .behaviors(vec![SlaveBehavior::Honest; 5])
        .workload(workload)
        .build();
    sys.run_for(SimDuration::from_secs(25));
    // Quiet period: no new writes land within max_latency spacing after
    // clients stop being exercised hard; give updates time to propagate.
    sys.run_for(SimDuration::from_secs(15));

    let reference = sys.with_master(0, |m| m.state_digest());
    for r in 1..3 {
        assert_eq!(sys.with_master(r, |m| m.state_digest()), reference);
    }
    for i in 0..5 {
        assert_eq!(
            sys.with_slave(i, |s| s.state_digest()),
            reference,
            "slave {i} diverged"
        );
    }
    let stats = sys.stats();
    assert!(stats.writes_committed >= 5, "want real write traffic");
}
