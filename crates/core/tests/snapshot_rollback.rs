//! Snapshot-ring eviction and Section 3.5 rollback re-materialisation
//! over the copy-on-write store.
//!
//! The master keeps one bounded, version-keyed history: the snapshot
//! ring, whose entries hold a cheap structural-sharing handle and the ops
//! that produced the version (the write log).  These tests pin down that
//! the two stay in lockstep under live traffic, that eviction works, and
//! that any retained version re-materialises exactly — both by handle and
//! by replaying the ring's ops onto an older snapshot.

use sdr_core::dataset::DatasetSpec;
use sdr_core::{SlaveBehavior, System, SystemBuilder, SystemConfig, Workload};
use sdr_sim::SimDuration;
use sdr_store::{Database, SnapshotStore, UpdateOp};

fn run_system(snapshot_capacity: usize, seed: u64) -> System {
    let cfg = SystemConfig {
        n_masters: 3,
        n_slaves: 4,
        n_clients: 8,
        snapshot_capacity,
        seed,
        ..SystemConfig::default()
    };
    let n = cfg.n_slaves;
    let workload = Workload {
        writes_per_sec: 2.0,
        writer_fraction: 0.5,
        ..Workload::default()
    };
    let mut sys = SystemBuilder::new(cfg)
        .behaviors(vec![SlaveBehavior::Honest; n])
        .workload(workload)
        .build();
    sys.run_for(SimDuration::from_secs(60));
    sys
}

/// The write log is the ring's ops, so it cannot drift from the state
/// handles: under live traffic every master's ring stays within
/// capacity, evicts its oldest versions and keeps a contiguous window
/// ending at the live version, and the ops evict with their state.
#[test]
fn write_log_stays_in_lockstep_with_snapshot_ring() {
    let capacity = 4;
    let mut sys = run_system(capacity, 11);
    for rank in 0..sys.masters.len() {
        let (version, snaps) = sys.with_master(rank, |m| (m.version(), m.snapshot_versions()));
        assert!(
            version > capacity as u64 + 4,
            "master {rank}: too few writes committed ({version}) to exercise eviction"
        );
        assert!(snaps.len() <= capacity, "master {rank}: ring over capacity");
        // Eviction happened: the initial version is long gone.
        assert!(
            snaps.first().copied().unwrap_or(0) > 1,
            "master {rank}: oldest snapshot never evicted: {snaps:?}"
        );
        assert_eq!(snaps.last().copied(), Some(version), "master {rank}");
        for pair in snaps.windows(2) {
            assert_eq!(pair[1], pair[0] + 1, "master {rank}: window must be contiguous");
        }
    }

    // The replayable versions are exactly the retained ones bar the seed,
    // before and after the seed itself is evicted.
    let mut db = Database::new();
    let mut ring = SnapshotStore::new(capacity);
    ring.record(&db, None, 0);
    let seed = db.version();
    for i in 0..10u64 {
        let ops = vec![UpdateOp::AppendFile {
            path: "/docs/audit.log".into(),
            contents: format!("audit entry {i}\n"),
        }];
        db.apply_write(&ops).expect("writes apply");
        ring.record(&db, Some(ops), 0);
        let logged: Vec<u64> = ring.writes_from(0).into_iter().map(|(v, _)| v).collect();
        let retained: Vec<u64> = ring.versions().into_iter().filter(|&v| v != seed).collect();
        assert_eq!(logged, retained, "write log and snapshot ring diverged at v{}", db.version());
    }
    assert_eq!(ring.versions().len(), capacity);
}

#[test]
fn retained_snapshots_rematerialise_identically_across_masters() {
    let mut sys = run_system(8, 12);
    let versions = sys.with_master(0, |m| m.snapshot_versions());
    assert!(versions.len() > 2, "expected several retained versions");
    let mut compared = 0;
    for v in versions {
        let reference = sys.with_master(0, |m| m.snapshot_digest(v)).expect("retained");
        for rank in 1..sys.masters.len() {
            if let Some(d) = sys.with_master(rank, |m| m.snapshot_digest(v)) {
                assert_eq!(d, reference, "master {rank} snapshot v{v} diverged");
                compared += 1;
            }
        }
    }
    assert!(
        compared > 2,
        "masters retained too few common versions to compare ({compared})"
    );
}

/// Replaying the ring's retained ops onto an older snapshot must land on
/// the exact same state the newer snapshot retains — the re-execution
/// path Section 3.5 uses after a delayed discovery, and the ops a slave
/// catch-up ships.
#[test]
fn write_log_replay_over_cow_handles_reproduces_snapshots() {
    let mut db = DatasetSpec {
        n_products: 200,
        n_reviews: 100,
        n_files: 10,
        lines_per_file: 5,
        shared_block_lines: 0,
        hot_fraction: 0.01,
        skew: 0.0,
        seed: 3,
    }
    .build();
    let mut snaps = SnapshotStore::new(16);
    snaps.record(&db, None, 0);

    // A deterministic write stream touching rows and files.
    for i in 0..12u64 {
        let ops = vec![
            UpdateOp::Update {
                table: "products".into(),
                key: 1 + (i * 17) % 200,
                changes: sdr_store::Document::new().with("price", (50 + i) as i64),
            },
            UpdateOp::AppendFile {
                path: format!("/docs/file-{:03}.log", i % 10),
                contents: format!("audit entry {i}\n"),
            },
        ];
        db.apply_write(&ops).expect("writes apply");
        snaps.record(&db, Some(ops), 0);
    }

    // Roll back to each retained version and replay the retained ops; the
    // replay must hit every later snapshot's digest exactly, even though
    // all these states share structure.
    for start in snaps.versions() {
        let mut replay: Database = snaps.get(start).expect("retained").state.clone();
        assert_eq!(replay.state_digest(), snaps.get(start).unwrap().state.state_digest());
        for (version, ops) in snaps.writes_from(start + 1) {
            replay.apply_write(&ops).expect("replay applies");
            assert_eq!(replay.version(), version);
            assert_eq!(
                replay.state_digest(),
                snaps.get(version).expect("retained").state.state_digest(),
                "replay from v{start} diverged at v{version}"
            );
        }
        assert_eq!(replay.state_digest(), db.state_digest());
    }
}

/// A zero-capacity ring retains nothing beyond what the elected auditor
/// has not closed, and leaves the master protocol functional:
/// current-version double-checks still work because the live replica
/// answers them.
#[test]
fn no_retention_mode_keeps_system_live() {
    let mut sys = run_system(0, 13);
    let stats = sys.stats();
    assert!(stats.writes_committed > 0, "no writes committed");
    assert!(
        stats.reads_accepted as f64 >= 0.8 * stats.reads_issued as f64,
        "accepted {}/{} reads",
        stats.reads_accepted,
        stats.reads_issued
    );
    for rank in 0..sys.masters.len() {
        let (snaps, auditor, audit, live) = sys.with_master(rank, |m| {
            let audit = m.auditor_state().audit_version();
            (m.snapshot_versions(), m.is_auditor(), audit, m.version())
        });
        if auditor {
            let window: Vec<u64> = (audit..=live).collect();
            assert_eq!(snaps, window, "auditor {rank} must retain exactly its audit window");
        } else {
            assert!(snaps.is_empty(), "master {rank} retained snapshots: {snaps:?}");
        }
    }
}
