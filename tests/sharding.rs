//! Cross-shard behaviour of the sharded deployment: per-shard total
//! order with cross-shard concurrency, Byzantine isolation between
//! shards, proof-path hardening, and single-shard determinism.

use secure_replication::core::dataset::DatasetSpec;
use secure_replication::core::scenario::{registry, Param, Runner};
use secure_replication::core::{
    metrics, Msg, ShardMap, SlaveBehavior, SystemBuilder, SystemConfig, QueryMix, Workload,
};
use secure_replication::sim::{NodeId, SimDuration};
use secure_replication::store::{execute, Query, QueryResult};

fn write_heavy(n_shards: usize, seed: u64) -> SystemConfig {
    SystemConfig {
        n_shards,
        n_masters: 3,
        n_slaves: 2,
        n_clients: 8,
        max_latency: SimDuration::from_millis(1_000),
        keepalive_period: SimDuration::from_millis(250),
        double_check_prob: 0.0,
        seed,
        ..SystemConfig::default()
    }
}

/// (a) Writes to different shards commit concurrently, yet each shard's
/// commit stream respects its own total order and the per-queue
/// `max_latency` spacing rule.
#[test]
fn shards_commit_concurrently_without_violating_per_shard_order() {
    let cfg = write_heavy(2, 101);
    let max_latency = cfg.max_latency;
    let mut sys = SystemBuilder::new(cfg)
        .workload(Workload {
            reads_per_sec: 1.0,
            writes_per_sec: 30.0, // Saturates both queues.
            writer_fraction: 1.0,
            ..Workload::default()
        })
        .build();
    sys.run_for(SimDuration::from_secs(30));

    let mut streams = Vec::new();
    for shard in 0..2 {
        let series: Vec<(u64, u64)> = sys
            .world
            .metrics()
            .series(metrics::WRITE_COMMIT_US_SHARD.at(shard))
            .iter()
            .map(|(t, v)| (t.as_micros(), *v as u64))
            .collect();
        assert!(
            series.len() >= 5,
            "shard {shard} committed too little: {} commits",
            series.len()
        );
        // Per-shard total order: versions advance by exactly one.
        for pair in series.windows(2) {
            assert_eq!(
                pair[1].1,
                pair[0].1 + 1,
                "shard {shard} version stream must be gapless and ordered"
            );
            // Per-shard spacing rule: consecutive commits at least
            // max_latency apart.
            assert!(
                pair[1].0 - pair[0].0 >= max_latency.as_micros(),
                "shard {shard} violated the spacing rule: {} then {}",
                pair[0].0,
                pair[1].0
            );
        }
        streams.push(series);
    }

    // Cross-shard concurrency: some commit of shard 1 lands well inside
    // a shard-0 spacing window (closer than max_latency/2 to a shard-0
    // commit) — impossible under a single global queue.
    let concurrent = streams[0].iter().any(|&(t0, _)| {
        streams[1]
            .iter()
            .any(|&(t1, _)| t0.abs_diff(t1) < max_latency.as_micros() / 2)
    });
    assert!(
        concurrent,
        "expected commits of different shards inside one spacing window"
    );

    // Both shards beat a single queue's ceiling together.
    let total = streams[0].len() + streams[1].len();
    assert!(
        total as f64 > 1.25 * 30.0 / max_latency.as_secs_f64(),
        "two shards should out-commit one queue's 1/max_latency bound, got {total}"
    );
}

/// (b) A Byzantine slave in shard 0 cannot affect proof reads served by
/// shard 1 — and the proof path survives it via the same-shard replica
/// retry, never falling back to pledge+audit.
#[test]
fn byzantine_shard_cannot_affect_other_shards_proof_reads() {
    let cfg = SystemConfig {
        n_shards: 2,
        n_masters: 3,
        n_slaves: 2,
        n_clients: 8,
        double_check_prob: 0.0,
        seed: 202,
        ..SystemConfig::default()
    };
    let mut sys = SystemBuilder::new(cfg)
        // Global slave indexes are shard-major: 0 and 1 serve shard 0.
        .slave_behavior(0, SlaveBehavior::ConsistentLiar { prob: 1.0, collude: false })
        .workload(Workload {
            reads_per_sec: 6.0,
            writes_per_sec: 0.0,
            // Static-only mix: every read takes the proof path.
            mix: QueryMix {
                get: 80,
                read_file: 20,
                range: 0,
                filter: 0,
                aggregate: 0,
                join: 0,
                grep: 0,
                stream: 0,
                scan: 0,
                scan_len: 0,
            },
            ..Workload::default()
        })
        .build();
    sys.run_for(SimDuration::from_secs(30));
    let stats = sys.stats();

    // The liar was exercised and caught deterministically at clients.
    assert!(stats.lies_told > 0, "liar never triggered");
    assert!(stats.proof_reads_rejected > 0, "no proof rejections seen");
    assert_eq!(stats.wrong_accepted, 0, "a lie was accepted: {}", stats.render());

    // Proof-path hardening: every rejection retried shard 0's *other*
    // (honest) replica on the proof path; with one liar and one honest
    // replica per shard, no read needed the pledged fallback.
    assert!(stats.proof_retries > 0, "expected same-shard proof retries");
    assert_eq!(
        stats.proof_fallbacks, 0,
        "healthy replica present: fallback must not fire"
    );

    // Shard 1's replicas served reads, and no honest replica anywhere was
    // excluded: the Byzantine replica's blast radius ends at its shard
    // boundary.
    let shard1_served: u64 = (2..4).map(|i| sys.with_slave(i, |s| s.reads_served())).sum();
    assert!(shard1_served > 0, "shard 1 served nothing");
    assert_eq!(stats.honest_excluded, 0, "{}", stats.render());
    assert_eq!(stats.wrong_accepted_proof, 0);
}

/// When the whole shard lies, the one proof-path retry is spent and the
/// read falls back to the pledged pipeline (the pre-hardening path).
#[test]
fn proof_retry_exhausted_falls_back_to_pledged() {
    let cfg = SystemConfig {
        n_shards: 2,
        n_masters: 3,
        n_slaves: 2,
        n_clients: 6,
        double_check_prob: 0.05,
        seed: 303,
        ..SystemConfig::default()
    };
    let mut sys = SystemBuilder::new(cfg)
        .slave_behavior(0, SlaveBehavior::ConsistentLiar { prob: 1.0, collude: true })
        .slave_behavior(1, SlaveBehavior::ConsistentLiar { prob: 1.0, collude: true })
        .workload(Workload {
            reads_per_sec: 6.0,
            writes_per_sec: 0.0,
            mix: QueryMix {
                get: 100,
                read_file: 0,
                range: 0,
                filter: 0,
                aggregate: 0,
                join: 0,
                grep: 0,
                stream: 0,
                scan: 0,
                scan_len: 0,
            },
            ..Workload::default()
        })
        .build();
    sys.run_for(SimDuration::from_secs(20));
    let stats = sys.stats();
    assert!(stats.proof_retries > 0, "retry must be attempted first");
    assert!(
        stats.proof_fallbacks > 0,
        "with every shard-0 replica lying, fallback must fire: {}",
        stats.render()
    );
}

/// (c) `n_shards = 1` reproduces the unsharded topology and its reports
/// byte-identically: the registry spec (which defaults to one shard)
/// and an explicit `NShards = 1` sweep cell produce the same bytes, run
/// after run.
#[test]
fn single_shard_reproduces_seed_topology_byte_identically() {
    let mut base = registry::lookup("quickstart").expect("registered");
    base.duration = SimDuration::from_secs(5);
    base.seeds = vec![2_003];
    assert_eq!(base.config.n_shards, 1, "registry default must be one shard");

    let plain_a = Runner::new(base.clone()).run().expect("runs").to_json_string();
    let plain_b = Runner::new(base.clone()).run().expect("runs").to_json_string();
    assert_eq!(plain_a, plain_b, "same spec must reproduce identical bytes");

    // Explicitly applying `NShards = 1` must change nothing: the report
    // bytes match the implicit single-shard run exactly.
    let mut explicit = base.clone();
    Param::NShards
        .apply(&mut explicit, 1.0)
        .expect("param applies");
    let explicit_bytes = Runner::new(explicit).run().expect("runs").to_json_string();
    assert_eq!(
        explicit_bytes, plain_a,
        "explicit n_shards=1 must match the default topology byte-identically"
    );

    // Topology check: one shard spawns the classic roster.
    let cfg = base.config.clone();
    let (nm, ns, nc) = (cfg.n_masters, cfg.n_slaves, cfg.n_clients);
    let sys = SystemBuilder::new(cfg).build();
    assert_eq!(sys.world.node_count(), nm + ns + 1 + nc);
    assert_eq!(sys.masters.len(), nm);
    assert_eq!(sys.slaves.len(), ns);
}

/// Regression for the cross-shard blacklist wipe: exhausting shard k's
/// master candidates used to call `blacklist.clear()`, erasing Byzantine
/// evidence accumulated against *every other* shard's masters.  The
/// forgiveness must stay scoped to the shard that ran dry.
#[test]
fn blacklist_survives_other_shards_boot_retry() {
    let cfg = write_heavy(2, 404);
    let mut sys = SystemBuilder::new(cfg)
        // Read-only, non-sensitive traffic: no write/sensitive timeouts
        // can blacklist masters behind the test's back.
        .workload(Workload {
            reads_per_sec: 2.0,
            writes_per_sec: 0.0,
            ..Workload::default()
        })
        .build();
    sys.run_for(SimDuration::from_secs(10));
    assert!(sys.with_client(0, |c| c.is_ready()), "client 0 must be ready");

    let shard0 = sys.with_client(0, |c| c.shard_masters(0));
    let shard1 = sys.with_client(0, |c| c.shard_masters(1));
    assert_eq!(shard0.len(), 3);
    assert_eq!(shard1.len(), 3);

    // Plant Byzantine evidence: one shard-0 master the client is *not*
    // set up with (liveness never needs to forgive it), plus every
    // shard-1 master (shard 1's candidate list runs completely dry).
    let chosen0 = sys.with_client(0, |c| c.chosen_master(0)).expect("ready");
    let marked = *shard0.iter().find(|n| **n != chosen0).expect("three masters");
    sys.with_client(0, |c| {
        c.blacklist_insert(marked);
        for n in &shard1 {
            c.blacklist_insert(*n);
        }
    });

    // A retiring-master notice forces the full re-setup path; shard 1's
    // directory response then finds every candidate blacklisted and must
    // forgive only shard 1's masters before retrying.
    let from = sys.masters[0];
    let client = sys.clients[0];
    sys.world.inject(
        from,
        client,
        Msg::Reassign {
            excluded: NodeId(u32::MAX),
            replacement: None,
        },
    );
    sys.run_for(SimDuration::from_secs(20));

    let bl = sys.with_client(0, |c| c.blacklisted());
    assert!(
        bl.contains(&marked),
        "shard-0 evidence wiped by shard-1's boot retry: {bl:?}"
    );
    // Forgiving shard 1's own masters restored liveness.
    assert!(
        sys.with_client(0, |c| c.is_ready()),
        "client must finish re-setup once shard 1's masters are forgiven"
    );
}

/// Boot-storm audit of the same retry site: repeated full re-setups
/// across every client of a multi-shard deployment must re-request the
/// directory for *all* shards and leave no stale `awaiting_setup`/phase
/// state behind — every client returns Ready with a full pipeline per
/// shard, and writes keep committing on every shard afterwards.
#[test]
fn multi_shard_boot_storm_recovers_cleanly() {
    let cfg = write_heavy(3, 505);
    let n_clients = cfg.n_clients;
    let mut sys = SystemBuilder::new(cfg)
        .workload(Workload {
            reads_per_sec: 1.0,
            writes_per_sec: 20.0,
            writer_fraction: 1.0,
            ..Workload::default()
        })
        .build();
    sys.run_for(SimDuration::from_secs(10));

    let lookups_before: u64 = (0..3)
        .map(|k| {
            sys.world
                .metrics()
                .counter(metrics::DIRECTORY_LOOKUPS_SHARD.at(k))
        })
        .sum();

    // Three waves of retiring-master notices to every client, spaced so
    // re-setups overlap with live traffic and with each other.
    for wave in 0..3 {
        for i in 0..n_clients {
            let from = sys.masters[wave % sys.masters.len()];
            let client = sys.clients[i];
            sys.world.inject(
                from,
                client,
                Msg::Reassign {
                    excluded: NodeId(u32::MAX),
                    replacement: None,
                },
            );
        }
        sys.run_for(SimDuration::from_secs(4));
    }
    let committed_after_storm = sys.stats().writes_committed_per_shard.clone();
    sys.run_for(SimDuration::from_secs(15));

    // Every client fully recovered: Ready, with a chosen master and
    // slaves for every shard (no half-booted shard views).
    for i in 0..n_clients {
        assert!(sys.with_client(i, |c| c.is_ready()), "client {i} stuck");
        for shard in 0..3 {
            assert!(
                sys.with_client(i, |c| c.chosen_master(shard)).is_some(),
                "client {i} shard {shard} has no master after the storm"
            );
            assert!(
                !sys.with_client(i, |c| c.assigned_slaves_of_shard(shard)).is_empty(),
                "client {i} shard {shard} has no slaves after the storm"
            );
        }
    }
    // Each re-boot re-requested the directory for all shards.
    let lookups_after: u64 = (0..3)
        .map(|k| {
            sys.world
                .metrics()
                .counter(metrics::DIRECTORY_LOOKUPS_SHARD.at(k))
        })
        .sum();
    assert!(
        lookups_after >= lookups_before + (3 * n_clients as u64 * 3),
        "every storm wave must re-request the directory for every shard: \
         before={lookups_before} after={lookups_after}"
    );
    // And the write pipeline kept going on every shard.
    let committed_final = sys.stats().writes_committed_per_shard.clone();
    for shard in 0..3 {
        assert!(
            committed_final[shard] > committed_after_storm[shard],
            "shard {shard} stopped committing after the storm: \
             {committed_after_storm:?} -> {committed_final:?}"
        );
    }
}

/// The registry's `batched_commit` sweep delivers the tentpole claim:
/// at a fixed `max_latency` (the spacing rule unchanged), commit
/// throughput scales with the sequencer's batch bound — ≥ 4× at
/// batch = 8 vs batch = 1 on a single shard.
#[test]
fn batched_commit_sweep_scales_with_batch_size() {
    let mut spec = registry::lookup("batched_commit").expect("registered");
    // Shrink for test time; the shape of the claim is unchanged.
    spec.duration = SimDuration::from_secs(12);
    spec.seeds = vec![6_006];
    let report = Runner::new(spec).run().expect("scenario runs");
    assert_eq!(report.cells.len(), 4);

    let committed: Vec<f64> = report
        .cells
        .iter()
        .map(|c| c.mean("writes_committed"))
        .collect();
    for (i, pair) in committed.windows(2).enumerate() {
        assert!(
            pair[1] > pair[0],
            "writes_committed must grow with batch size: {committed:?} (step {i})"
        );
    }
    assert!(
        committed[3] >= 4.0 * committed[0],
        "batch=8 must commit at least 4x batch=1: {committed:?}"
    );
    // The batch-size histogram shows real batches at batch=8 and the
    // degenerate single-write rounds at batch=1.
    let batched = &report.cells[3].runs[0].stats;
    assert!(
        batched.writes_per_round.mean > 1.5,
        "batch=8 rounds must actually pack writes: mean={}",
        batched.writes_per_round.mean
    );
    assert!(batched.writes_per_round.max <= 8);
    let unbatched = &report.cells[0].runs[0].stats;
    assert_eq!(unbatched.writes_per_round.max, 1);
}

/// The registry's `sharded_commit` sweep delivers the tentpole claim:
/// committed writes grow monotonically with shard count on the
/// write-heavy workload.
#[test]
fn sharded_commit_sweep_scales_monotonically() {
    let mut spec = registry::lookup("sharded_commit").expect("registered");
    // Shrink for test time; the shape of the claim is unchanged.
    spec.duration = SimDuration::from_secs(12);
    spec.seeds = vec![8_008];
    let report = Runner::new(spec).run().expect("scenario runs");
    assert_eq!(report.cells.len(), 4);

    let committed: Vec<f64> = report
        .cells
        .iter()
        .map(|c| c.mean("writes_committed"))
        .collect();
    for (i, pair) in committed.windows(2).enumerate() {
        assert!(
            pair[1] > pair[0],
            "writes_committed must grow with shards: {committed:?} (step {i})"
        );
    }
    // And the per-shard counters actually cover every shard.
    let last = &report.cells[3].runs[0].stats;
    assert_eq!(last.writes_committed_per_shard.len(), 8);
    assert!(
        last.writes_committed_per_shard.iter().all(|&w| w > 0),
        "every shard must commit: {:?}",
        last.writes_committed_per_shard
    );
}

/// (h) The scatter-gather invariant at the store level: splitting a
/// scan at shard boundaries, proving each piece against its *own*
/// shard's digest, and stitching yields exactly the rows of the
/// unsharded scan — and a corrupted slice from any one shard dies in
/// that shard's proof (the range proof's completeness check refuses
/// dropped or forged rows, not just wrong values).
#[test]
fn cross_shard_scan_stitches_byte_identically_to_one_shard() {
    let spec = DatasetSpec::default(); // 500 products.
    let whole = spec.build();
    let map = ShardMap::new(4, &spec);
    let shards = spec.build_shards(&map);
    let scan = |s: u64, e: u64| Query::ScanRange { table: "products".into(), start: s, end: e };

    // [100, 420) crosses every boundary of the 125-row shards.
    let (start, end) = (100u64, 420u64);
    let (expect, _) = execute(&whole, &scan(start, end)).unwrap();
    whole
        .prove_scan("products", start, end)
        .unwrap()
        .verify_result(&whole.state_digest(), whole.version(), &scan(start, end), &expect)
        .unwrap();

    let parts = map.split_scan(start, end);
    assert_eq!(parts.len(), 4, "range must span every shard: {parts:?}");
    let mut stitched = Vec::new();
    for &(s, lo, hi) in &parts {
        let db = &shards[s];
        let (result, _) = execute(db, &scan(lo, hi)).unwrap();
        db.prove_scan("products", lo, hi)
            .unwrap()
            .verify_result(&db.state_digest(), db.version(), &scan(lo, hi), &result)
            .unwrap_or_else(|e| panic!("shard {s} piece [{lo},{hi}) rejected: {e:?}"));
        let QueryResult::Rows(rows) = result else { panic!("scan returns rows") };
        stitched.extend(rows);
    }
    assert_eq!(QueryResult::Rows(stitched), expect, "stitched row set differs");

    // A Byzantine slave corrupting one shard's slice (the liar's edit:
    // drop the last row, append a forged one) is caught by that shard's
    // own proof — no cross-shard information needed.
    let (s, lo, hi) = parts[2];
    let db = &shards[s];
    let (result, _) = execute(db, &scan(lo, hi)).unwrap();
    let proof = db.prove_scan("products", lo, hi).unwrap();
    let bad = secure_replication::core::slave::corrupt(&result, 0);
    assert!(
        proof
            .verify_result(&db.state_digest(), db.version(), &scan(lo, hi), &bad)
            .is_err(),
        "corrupted slice must not verify"
    );
}

/// (i) End-to-end scatter-gather under attack: a consistent liar owning
/// one replica of shard 1 corrupts its slice of every scan it serves.
/// The per-shard proof kills each forgery at the client, the sub-scan
/// retries the shard's honest replica (never the pledged fallback), and
/// no stitched scan ever accepts a wrong row.
#[test]
fn stitched_scans_reject_a_byzantine_shard_slice() {
    let cfg = SystemConfig {
        n_shards: 4,
        n_masters: 3,
        n_slaves: 2,
        n_clients: 8,
        double_check_prob: 0.0,
        seed: 404,
        ..SystemConfig::default()
    };
    let mut sys = SystemBuilder::new(cfg)
        // Global slave indexes are shard-major: 2 and 3 serve shard 1.
        .slave_behavior(2, SlaveBehavior::ConsistentLiar { prob: 1.0, collude: false })
        .workload(Workload {
            reads_per_sec: 6.0,
            writes_per_sec: 0.0,
            mix: QueryMix {
                get: 0,
                range: 0,
                filter: 0,
                aggregate: 0,
                join: 0,
                grep: 0,
                read_file: 0,
                stream: 0,
                scan: 100,
                scan_len: 200, // Spans 2-3 of the 4 125-row shards.
            },
            ..Workload::default()
        })
        .build();
    sys.run_for(SimDuration::from_secs(30));
    let stats = sys.stats();
    let m = sys.world.metrics();

    assert!(
        stats.range_scans_scattered > 0,
        "no scan crossed a shard boundary: {}",
        stats.render()
    );
    assert!(
        m.counter(metrics::READ_RANGE_STITCHED) > 0,
        "no stitched scan completed: {}",
        stats.render()
    );
    assert!(stats.lies_told > 0, "liar never triggered");
    assert!(
        stats.proof_reads_rejected > 0,
        "forged slices were never caught: {}",
        stats.render()
    );
    assert_eq!(
        stats.wrong_accepted, 0,
        "a corrupted slice was stitched into an accepted scan: {}",
        stats.render()
    );
    assert_eq!(
        stats.range_stitch_rejects, 0,
        "verified honest pieces must tile the range: {}",
        stats.render()
    );
    assert!(stats.range_rows_verified > 0, "no rows verified under range proofs");
}
