//! Batched sequencer commits: version arithmetic, history pruning
//! lockstep, failed-batch rollback, and replica convergence under
//! multi-version rounds anchored by a single digest stamp.

use proptest::prelude::*;
use sdr_core::{metrics, SlaveBehavior, SystemBuilder, SystemConfig, Workload};
use sdr_sim::{SimDuration, SimTime};
use sdr_store::{Database, Document, UpdateOp};

fn doc(v: i64) -> Document {
    Document::new().with("v", v)
}

proptest! {
    /// A commit advances the version by exactly one per applied write
    /// batch — so a sequencer round of `n` writes moves the store from
    /// `V` to `V + n`, never more, never less.
    #[test]
    fn version_advances_by_exactly_the_batch_length(
        n in 1usize..8,
        keys in proptest::collection::vec(0u64..64, 8..9),
    ) {
        let mut db = Database::new();
        db.apply_write(&[UpdateOp::CreateTable {
            table: "t".into(),
            indexes: vec![],
        }])
        .expect("create");
        let before = db.version();
        for (i, key) in keys.iter().take(n).enumerate() {
            let v = db
                .apply_write(&[UpdateOp::Upsert {
                    table: "t".into(),
                    key: *key,
                    doc: doc(i as i64),
                }])
                .expect("write applies");
            prop_assert_eq!(v, before + i as u64 + 1);
        }
        prop_assert_eq!(db.version(), before + n as u64);
    }

    /// A write that fails mid-batch leaves the handle exactly at its
    /// pre-batch state: same version, same digest — the rollback the
    /// master's batch loop relies on when one entry of a round fails.
    #[test]
    fn failed_batch_restores_the_pre_batch_handle(
        good in 0u64..32,
        dup in 0u64..32,
    ) {
        let mut db = Database::new();
        db.apply_write(&[
            UpdateOp::CreateTable { table: "t".into(), indexes: vec![] },
            UpdateOp::Insert { table: "t".into(), key: dup, doc: doc(1) },
        ])
        .expect("seed");
        let pre = db.clone();
        // Poisoned op list: the first op succeeds, the second (duplicate
        // insert) fails — the whole list must roll back.
        let err = db.apply_write(&[
            UpdateOp::Upsert { table: "t".into(), key: good, doc: doc(2) },
            UpdateOp::Insert { table: "t".into(), key: dup, doc: doc(3) },
        ]);
        prop_assert!(err.is_err());
        prop_assert_eq!(db.version(), pre.version());
        prop_assert_eq!(db.state_digest(), pre.state_digest());
        // The handle is still live: the next good batch commits.
        let v = db
            .apply_write(&[UpdateOp::Upsert { table: "t".into(), key: good, doc: doc(4) }])
            .expect("recovers");
        prop_assert_eq!(v, pre.version() + 1);
    }
}

fn batched(seed: u64, max_write_batch: usize, snapshot_capacity: usize) -> sdr_core::System {
    batched_with(seed, max_write_batch, snapshot_capacity, SlaveBehavior::Honest)
}

/// `batched` with the second slave running `behavior`.
fn batched_with(
    seed: u64,
    max_write_batch: usize,
    snapshot_capacity: usize,
    behavior: SlaveBehavior,
) -> sdr_core::System {
    let cfg = SystemConfig {
        n_masters: 3,
        n_slaves: 2,
        n_clients: 8,
        max_latency: SimDuration::from_millis(500),
        keepalive_period: SimDuration::from_millis(125),
        double_check_prob: 0.0,
        max_write_batch,
        snapshot_capacity,
        seed,
        ..SystemConfig::default()
    };
    SystemBuilder::new(cfg)
        .behaviors(vec![SlaveBehavior::Honest, behavior])
        .workload(Workload {
            reads_per_sec: 1.0,
            writes_per_sec: 30.0,
            writer_fraction: 1.0,
            ..Workload::default()
        })
        .build()
}

/// End to end: under batched rounds the sequencer's version moves by
/// exactly the number of committed writes (the sum of the per-round
/// batch sizes), and the batch-size histogram actually records batches
/// bigger than one.
#[test]
fn sequencer_version_tracks_committed_writes_under_batching() {
    let mut sys = batched(31_337, 4, 64);
    let v0 = sys.with_master(0, |m| m.version());
    sys.run_for(SimDuration::from_secs(20));

    let committed = sys.world.metrics().counter(metrics::WRITE_COMMITTED_SHARD.at(0));
    let rounds = sys.world.metrics_mut().summary(metrics::WRITE_BATCH_SIZE);
    assert!(committed > 10, "write demand never saturated: {committed}");
    let v1 = sys.with_master(0, |m| m.version());
    assert_eq!(
        v1 - v0,
        committed,
        "sequencer version must advance by exactly the committed writes"
    );
    // The histogram's total is the same count, split over fewer rounds.
    let total = (rounds.mean * rounds.count as f64).round() as u64;
    assert_eq!(total, committed, "batch-size observations must sum to the commits");
    assert!(
        (rounds.count as u64) < committed,
        "saturating demand must pack some rounds beyond one write"
    );
    assert!(rounds.max <= 4, "no round may exceed max_write_batch");
}

/// The snapshot ring prunes its state handles, ops and digests in
/// lockstep under batched commits: every master keeps a contiguous
/// version window, bounded by `snapshot_capacity` and ending at the live
/// version, with a digest for every retained version (sync replay needs
/// the ops and the digest of each).
#[test]
fn log_pruning_stays_in_lockstep_under_batched_commits() {
    let mut sys = batched(808, 4, 8);
    sys.run_for(SimDuration::from_secs(25));
    assert!(
        sys.world.metrics().counter(metrics::WRITE_COMMITTED_SHARD.at(0)) > 8,
        "must commit past the retention window to exercise pruning"
    );
    for rank in 0..3 {
        let (version, snaps) = sys.with_master(rank, |m| (m.version(), m.snapshot_versions()));
        assert!(snaps.len() <= 8, "master {rank}: window exceeds snapshot_capacity");
        assert!(
            snaps.first().copied().unwrap_or(0) > 1,
            "master {rank}: oldest version never pruned: {snaps:?}"
        );
        assert_eq!(snaps.last().copied(), Some(version), "master {rank}");
        for pair in snaps.windows(2) {
            assert_eq!(pair[1], pair[0] + 1, "master {rank}: window must be contiguous");
        }
        for &v in &snaps {
            assert!(
                sys.with_master(rank, |m| m.snapshot_digest(v)).is_some(),
                "master {rank}: retained v{v} has no digest"
            );
        }
    }
}

/// Replicas converge under batched pushes: one `StateUpdate` per
/// round carries every version run plus a single stamp pair, and the
/// slaves apply it without ever seeing a digest mismatch (the anchor is
/// attached only to the batch's final version).
#[test]
fn slaves_converge_under_batched_pushes_without_digest_mismatches() {
    let mut sys = batched(4_004, 8, 64);
    sys.run_for(SimDuration::from_secs(20));
    let committed = sys.world.metrics().counter(metrics::WRITE_COMMITTED_SHARD.at(0));
    assert!(committed > 10, "write demand never saturated");
    // Let in-flight pushes land, then stop the workload clock reading.
    let master_version = sys.with_master(0, |m| m.version());
    for i in 0..2 {
        let v = sys.with_slave(i, |s| s.version());
        assert!(
            master_version - v <= 8,
            "slave {i} fell behind the last round: master={master_version} slave={v}"
        );
    }
    assert_eq!(
        sys.world.metrics().counter(metrics::SLAVE_DIGEST_MISMATCH),
        0,
        "batch anchors must never be tried against intermediate versions"
    );
    assert_eq!(sys.world.metrics().counter(metrics::SLAVE_BAD_UPDATES), 0);
}

/// The elected auditor lags several versions behind under batched
/// rounds, further than a ring of 2 reaches: its ring is pinned from the
/// version under audit, so every pledge is still audited and the liar
/// convicted, while every other master keeps exactly its capacity.
#[test]
fn lagging_auditor_keeps_its_versions_past_capacity() {
    let liar = SlaveBehavior::ConsistentLiar {
        prob: 0.3,
        collude: false,
    };
    let mut sys = batched_with(97, 4, 2, liar);
    sys.run_for(SimDuration::from_secs(20));
    let stats = sys.stats();
    assert_eq!(stats.audit_late, 0, "a pledge missed its audit");
    // The audit convicts: it holds evidence against the liar.  (Its
    // owner, whose ring of 2 no longer holds the pledged versions,
    // cannot re-verify that evidence, so no exclusion follows here.)
    assert!(stats.audit_mismatch > 0, "the liar was never convicted");

    let auditor = (0..3).find(|&r| sys.with_master(r, |m| m.is_auditor())).expect("elected");
    let (audit, live, ring) = sys.with_master(auditor, |m| {
        (m.auditor_state().audit_version(), m.version(), m.snapshot_versions())
    });
    assert!(live - audit > 2, "the audit never lagged past the capacity: {audit}..{live}");
    assert_eq!(ring, (audit..=live).collect::<Vec<_>>(), "auditor ring");
    for rank in (0..3).filter(|&r| r != auditor) {
        let ring = sys.with_master(rank, |m| m.snapshot_versions());
        assert!(ring.len() <= 2, "master {rank} holds {ring:?}");
    }
}

/// After the elected auditor crashes, its successor resumes at the oldest
/// version its own ring holds — not at the seed, which a ring of 4 has
/// long evicted — catches up to the live version and keeps convicting.
/// Every read is pledged, so the two rare liars keep feeding the audit.
#[test]
fn new_auditor_resumes_at_oldest_retained_version() {
    let cfg = SystemConfig {
        n_masters: 3,
        n_slaves: 4,
        n_clients: 8,
        max_latency: SimDuration::from_millis(500),
        keepalive_period: SimDuration::from_millis(125),
        double_check_prob: 0.0,
        proof_reads: false,
        snapshot_capacity: 4,
        seed: 5,
        ..SystemConfig::default()
    };
    let liar = SlaveBehavior::ConsistentLiar {
        prob: 0.01,
        collude: false,
    };
    let mut sys = SystemBuilder::new(cfg)
        .behaviors(vec![SlaveBehavior::Honest, liar, SlaveBehavior::Honest, liar])
        .workload(Workload {
            reads_per_sec: 4.0,
            writes_per_sec: 0.2,
            writer_fraction: 1.0,
            ..Workload::default()
        })
        .build();
    let crash_at = SimTime::from_secs(6);
    sys.run_until(crash_at);
    assert!(sys.with_master(2, |m| m.is_auditor()), "rank 2 starts as auditor");
    let commits = sys.with_master(1, |m| m.version()) - 1;
    assert!(commits > 4, "too few commits before the crash: {commits}");
    let mismatches_at_crash = sys.stats().audit_mismatch;
    sys.crash_master_at(crash_at, 2);

    // Step finely until rank 1 takes over, to see where it resumes.
    let mut waited = 0;
    while !sys.with_master(1, |m| m.is_auditor()) {
        sys.run_for(SimDuration::from_millis(1));
        waited += 1;
        assert!(waited < 5_000, "rank 1 never took over the audit");
    }
    let (resumed_at, ring) =
        sys.with_master(1, |m| (m.auditor_state().audit_version(), m.snapshot_versions()));
    assert!(resumed_at > 1, "the new auditor replays from the seed");
    assert_eq!(ring.first(), Some(&resumed_at), "not the oldest retained version");

    let mut caught_up = false;
    for _ in 0..200 {
        sys.run_for(SimDuration::from_millis(100));
        let (audit, live) = sys.with_master(1, |m| (m.auditor_state().audit_version(), m.version()));
        caught_up |= audit == live;
    }
    assert!(caught_up, "the new auditor never reached the live version");
    assert!(
        sys.stats().audit_mismatch > mismatches_at_crash,
        "no lie was audited after the failover"
    );
}
