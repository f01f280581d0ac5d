//! Batched sequencer commits: version arithmetic, log pruning lockstep,
//! failed-batch rollback, and replica convergence under multi-version
//! rounds anchored by a single digest stamp.

use proptest::prelude::*;
use sdr_core::{metrics, SlaveBehavior, SystemBuilder, SystemConfig, Workload};
use sdr_sim::SimDuration;
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
        .behaviors(vec![SlaveBehavior::Honest; 2])
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

/// `write_log` and `digest_log` prune in lockstep under batched commits:
/// every master keeps the identical, contiguous version window, bounded
/// by `snapshot_capacity`, with the digest log covering exactly the
/// write log (sync replay needs both for every retained version).
#[test]
fn log_pruning_stays_in_lockstep_under_batched_commits() {
    let mut sys = batched(808, 4, 8);
    sys.run_for(SimDuration::from_secs(25));
    assert!(
        sys.world.metrics().counter(metrics::WRITE_COMMITTED_SHARD.at(0)) > 8,
        "must commit past the retention window to exercise pruning"
    );
    for rank in 0..3 {
        let (wl, dl) = sys.with_master(rank, |m| {
            (m.write_log_versions(), m.digest_log_versions())
        });
        assert_eq!(wl, dl, "master {rank}: logs must prune in lockstep");
        assert!(wl.len() <= 8, "master {rank}: window exceeds snapshot_capacity");
        for pair in wl.windows(2) {
            assert_eq!(pair[1], pair[0] + 1, "master {rank}: window must be contiguous");
        }
    }
}

/// Replicas converge under batched pushes: one `StateUpdateBatch` per
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
