//! End-to-end authenticated reads: the `proof_vs_pledge` scenario runs
//! from the registry, proof-verified static reads skip the auditor
//! entirely, computed queries still flow through pledge+audit, and a
//! lying slave's proof-path forgeries die at the client immediately.

use secure_replication::core::scenario::{
    registry, BehaviorSpec, Grid, Param, Runner, SweepAxis,
};
use secure_replication::core::{Msg, SlaveBehavior, SystemBuilder, SystemConfig, Workload};
use secure_replication::sim::SimDuration;
use secure_replication::store::Query;

/// Runs a trimmed copy of the registered `proof_vs_pledge` scenario and
/// checks the headline property in its RunReport: with an all-static
/// mix and proofs on, the auditor sees *nothing*; with a mixed mix the
/// computed queries still go through pledge+audit; with proofs off the
/// proof path stays silent.
#[test]
fn proof_vs_pledge_report_shows_auditor_skipped() {
    let mut spec = registry::lookup("proof_vs_pledge").expect("registered scenario");
    // Trim for test time: honest slaves isolate the routing property
    // (lie handling is covered by `proof_path_rejects_lies_immediately`).
    spec.behaviors = BehaviorSpec::default();
    spec.duration = SimDuration::from_secs(10);
    spec.seeds = vec![1_259];
    spec.grid = Grid::cartesian(vec![
        SweepAxis::new(
            "static read fraction",
            Param::StaticReadFraction,
            &[1.0, 0.5],
        ),
        SweepAxis::new("proof reads", Param::ProofReads, &[1.0, 0.0]),
    ]);

    let report = Runner::new(spec).run().expect("scenario runs");
    assert_eq!(report.scenario, "proof_vs_pledge");
    assert_eq!(report.cells.len(), 4);

    for cell in &report.cells {
        let static_fraction = cell.coords[0].1;
        let proofs_on = cell.coords[1].1 != 0.0;
        let stats = &cell.runs[0].stats;
        assert!(stats.reads_accepted > 20, "starved cell: {}", stats.render());

        if !proofs_on {
            // Control: the proof path must stay completely silent.
            assert_eq!(stats.proof_reads_issued, 0, "{}", stats.render());
            assert_eq!(stats.proof_reads_accepted, 0);
            continue;
        }
        assert!(
            stats.proof_reads_accepted > 10,
            "proof path unused: {}",
            stats.render()
        );
        // Proof-verified reads never reach the double-check or audit
        // machinery, so auditor traffic is bounded by the *pledged*
        // acceptances alone.
        let pledged_accepted = stats.reads_accepted - stats.proof_reads_accepted;
        assert!(
            stats.audit_submitted <= pledged_accepted,
            "auditor saw proof reads: audit={} pledged={} ({})",
            stats.audit_submitted,
            pledged_accepted,
            stats.render()
        );
        if static_fraction == 1.0 {
            // Nothing pledged at all: the auditor is fully bypassed.
            assert_eq!(stats.audit_submitted, 0, "{}", stats.render());
            assert_eq!(stats.dc_sent, 0);
        } else {
            // Computed queries still flow through pledge+audit.
            assert!(stats.audit_submitted > 0, "{}", stats.render());
        }
    }
}

/// A slave that lies on every answer cannot survive the proof path: its
/// forgeries are rejected deterministically at the client (no audit
/// delay), and the read is retried — still on the proof path — at
/// another replica of the same shard (here the honest spare), so the
/// pledged fallback never needs to fire.
#[test]
fn proof_path_rejects_lies_immediately() {
    let cfg = SystemConfig {
        n_masters: 2,
        n_slaves: 2,
        n_clients: 4,
        double_check_prob: 0.0,
        audit_fraction: 0.0, // No detectors: the proof check stands alone.
        // Every proof-accepted result is also re-executed on the ground
        // truth at its anchor's version.
        cache_verify: true,
        seed: 97,
        ..SystemConfig::default()
    };
    let workload = Workload {
        reads_per_sec: 6.0,
        writes_per_sec: 0.1,
        ..Workload::default()
    };
    let mut sys = SystemBuilder::new(cfg)
        .behaviors(vec![
            SlaveBehavior::ConsistentLiar {
                prob: 1.0,
                collude: false,
            },
            SlaveBehavior::Honest,
        ])
        .workload(workload)
        .build();
    sys.run_for(SimDuration::from_secs(15));
    let stats = sys.stats();

    assert!(stats.proof_reads_issued > 0, "{}", stats.render());
    assert!(
        stats.proof_reads_rejected > 0,
        "liar never caught on the proof path: {}",
        stats.render()
    );
    assert!(
        stats.proof_retries > 0,
        "rejected proof reads must retry another replica first: {}",
        stats.render()
    );
    assert_eq!(
        stats.proof_fallbacks, 0,
        "the honest spare absorbs every rejection: {}",
        stats.render()
    );
    // The deterministic check accepts only honest proofs, so none of the
    // *proof-accepted* reads can be wrong; pledged reads may still have
    // accepted consistent lies (that is exactly the paper's gap).
    assert!(stats.proof_reads_accepted > 0, "{}", stats.render());
    assert_eq!(stats.wrong_accepted_proof, 0, "{}", stats.render());
}

/// A proof request for a query shape with no Merkle path (here a range
/// scan) is refused, counted, and — since this PR — *surfaced*: the
/// `slave.proof_unsupported` counter reaches `SystemStats` and its JSON
/// report, so rejected proof paths are visible, not silent.
#[test]
fn unsupported_proof_shapes_are_refused_and_surfaced() {
    let cfg = SystemConfig {
        n_masters: 2,
        n_slaves: 2,
        n_clients: 4,
        seed: 23,
        ..SystemConfig::default()
    };
    let mut sys = SystemBuilder::new(cfg)
        .behaviors(vec![SlaveBehavior::Honest; 2])
        .workload(Workload {
            reads_per_sec: 2.0,
            writes_per_sec: 0.5, // Keeps digest anchors fresh on slaves.
            ..Workload::default()
        })
        .build();
    sys.run_for(SimDuration::from_secs(10));
    assert_eq!(sys.stats().proof_unsupported, 0, "clients never route ranges to proofs");

    // A buggy or probing client asks a slave to *prove* a range scan:
    // no Merkle path exists for it, so the slave must refuse and count.
    let client = sys.clients[0];
    for &slave in &[sys.slaves[0], sys.slaves[1]] {
        sys.world.inject(
            client,
            slave,
            Msg::ProofRead {
                req_id: 999_999,
                query: Query::Range {
                    table: "products".into(),
                    low: 0,
                    high: 10,
                    limit: None,
                },
            },
        );
    }
    sys.run_for(SimDuration::from_secs(1));

    let stats = sys.stats();
    assert_eq!(
        stats.proof_unsupported, 2,
        "both refusals must surface in SystemStats: {}",
        stats.render()
    );
    assert!(
        stats.render().contains("unsupported=2"),
        "render must show the counter: {}",
        stats.render()
    );
    // And it reaches the report's numeric fields (the --json path).
    let fields = stats.numeric_fields();
    let (_, v) = fields
        .iter()
        .find(|(name, _)| *name == "proof_unsupported")
        .expect("field exported");
    assert_eq!(*v, 2.0);
}

/// Proof generation and verification are O(log n): the observed path
/// depth on a populated store stays logarithmic, so the wire cost per
/// authenticated read is tens of hashes, not a state scan.
#[test]
fn proof_depth_stays_logarithmic_in_sim() {
    let cfg = SystemConfig {
        n_masters: 2,
        n_slaves: 2,
        n_clients: 4,
        seed: 11,
        ..SystemConfig::default()
    };
    let mut sys = SystemBuilder::new(cfg)
        .behaviors(vec![SlaveBehavior::Honest; 2])
        .workload(Workload {
            reads_per_sec: 6.0,
            writes_per_sec: 0.2,
            ..Workload::default()
        })
        .build();
    sys.run_for(SimDuration::from_secs(10));
    let stats = sys.stats();
    assert!(stats.proof_reads_accepted > 0, "{}", stats.render());
    // Default dataset: 500 products (+ reviews + files).  A treap path
    // plus the table-entry hop stays well under 64 even at p99.
    assert!(
        stats.proof_depth.max < 64,
        "proof depth {} looks super-logarithmic",
        stats.proof_depth.max
    );
    assert!(stats.proof_bytes.max > 0);
}
