//! End-to-end protocol tests: full deployments in the simulator.

use sdr_core::{SlaveBehavior, System, SystemBuilder, SystemConfig, Workload};
use sdr_sim::{SimDuration, SimTime};
use serde::json::ToJson;

fn small_config(seed: u64) -> SystemConfig {
    SystemConfig {
        n_masters: 3,
        n_slaves: 4,
        n_clients: 8,
        seed,
        ..SystemConfig::default()
    }
}

fn build(cfg: SystemConfig, behaviors: Vec<SlaveBehavior>, workload: Workload) -> System {
    SystemBuilder::new(cfg).behaviors(behaviors).workload(workload).build()
}

#[test]
fn honest_run_accepts_reads_and_commits_writes() {
    let cfg = small_config(1);
    let n = cfg.n_slaves;
    let mut sys = build(cfg, vec![SlaveBehavior::Honest; n], Workload::default());
    sys.run_for(SimDuration::from_secs(30));
    let stats = sys.stats();

    assert!(stats.reads_issued > 100, "reads issued: {}", stats.reads_issued);
    assert!(
        stats.reads_accepted as f64 >= 0.9 * stats.reads_issued as f64,
        "accepted {}/{} reads",
        stats.reads_accepted,
        stats.reads_issued
    );
    assert!(stats.writes_committed > 0, "no writes committed");
    assert_eq!(stats.lies_told, 0);
    assert_eq!(stats.wrong_accepted, 0);
    assert_eq!(stats.exclusions, 0);
    assert_eq!(stats.dc_mismatch, 0);
    assert_eq!(stats.audit_mismatch, 0);
    // Every pledge either double-checked or audited.
    assert!(stats.audit_submitted > 0);
}

#[test]
fn replicas_converge_after_writes() {
    let cfg = small_config(2);
    let n = cfg.n_slaves;
    let mut sys = build(cfg, vec![SlaveBehavior::Honest; n], Workload::default());
    sys.run_for(SimDuration::from_secs(20));
    // Quiesce: stop issuing (time passes, writes spaced >= max_latency so
    // let propagation settle by just running further).
    sys.run_for(SimDuration::from_secs(10));

    let master_digest = sys.with_master(0, |m| m.state_digest());
    let master_version = sys.with_master(0, |m| m.version());
    for r in 1..sys.masters.len() {
        assert_eq!(sys.with_master(r, |m| m.state_digest()), master_digest);
    }
    assert!(master_version > 4, "writes should have advanced the version");
    // Slaves converge to within the inconsistency window; after quiet time
    // they must match exactly.
    for i in 0..sys.slaves.len() {
        let (v, d) = sys.with_slave(i, |s| (s.version(), s.state_digest()));
        assert_eq!(v, master_version, "slave {i} at version {v}");
        assert_eq!(d, master_digest, "slave {i} digest mismatch");
    }
}

#[test]
fn consistent_liar_is_caught_and_excluded() {
    let mut cfg = small_config(3);
    cfg.double_check_prob = 0.2; // Aggressive checking to catch it fast.
    let mut behaviors = vec![SlaveBehavior::Honest; cfg.n_slaves];
    behaviors[0] = SlaveBehavior::ConsistentLiar { prob: 0.5, collude: false };
    let mut sys = build(cfg, behaviors, Workload::default());
    sys.run_for(SimDuration::from_secs(60));
    let stats = sys.stats();

    assert!(stats.lies_told > 0, "liar never lied");
    assert!(
        stats.exclusions >= 1,
        "liar not excluded: {}",
        stats.render()
    );
    assert!(stats.discoveries() >= 1);
    // The excluded slave must know it.
    assert!(sys.with_slave(0, |s| s.is_excluded()));
    // System keeps operating after the exclusion.
    assert!(stats.reads_accepted > 0);
}

#[test]
fn audit_alone_catches_liar_when_no_double_checks() {
    let mut cfg = small_config(4);
    cfg.double_check_prob = 0.0; // No probabilistic checking at all.
    cfg.audit_fraction = 1.0;
    let mut behaviors = vec![SlaveBehavior::Honest; cfg.n_slaves];
    behaviors[1] = SlaveBehavior::ConsistentLiar { prob: 0.3, collude: false };
    let mut sys = build(cfg, behaviors, Workload::default());
    sys.run_for(SimDuration::from_secs(90));
    let stats = sys.stats();

    assert!(stats.lies_told > 0);
    assert_eq!(stats.dc_sent, 0, "no double-checks should happen");
    assert!(
        stats.discovery_delayed >= 1,
        "audit never caught the liar: {}",
        stats.render()
    );
    assert!(stats.exclusions >= 1);
    // Every wrong answer that was accepted is eventually detected: with
    // full audit the number of audit mismatches must reach the number of
    // accepted lies (the paper's 100% detection claim), modulo pledges
    // still in the backlog at cutoff.
    assert!(stats.audit_mismatch >= 1);
}

#[test]
fn inconsistent_liar_rejected_instantly_no_harm() {
    let mut cfg = small_config(5);
    cfg.double_check_prob = 0.05;
    let mut behaviors = vec![SlaveBehavior::Honest; cfg.n_slaves];
    behaviors[2] = SlaveBehavior::InconsistentLiar { prob: 0.4 };
    let mut sys = build(cfg, behaviors, Workload::default());
    sys.run_for(SimDuration::from_secs(30));
    let stats = sys.stats();

    assert!(stats.rejected_hash > 0, "hash check never fired");
    assert_eq!(
        stats.wrong_accepted, 0,
        "client accepted a hash-mismatched result"
    );
}

#[test]
fn honest_streamed_reads_verify_every_chunk() {
    let cfg = small_config(41);
    let n = cfg.n_slaves;
    let workload = Workload {
        mix: sdr_core::QueryMix::media(),
        ..Workload::default()
    };
    let mut sys = build(cfg, vec![SlaveBehavior::Honest; n], workload);
    sys.run_for(SimDuration::from_secs(30));
    let stats = sys.stats();

    assert!(
        stats.stream_reads_issued > 20,
        "streamed reads issued: {}",
        stats.stream_reads_issued
    );
    assert_eq!(
        stats.stream_reads_accepted, stats.stream_reads_issued,
        "honest streams must all verify: {}",
        stats.render()
    );
    assert_eq!(stats.stream_chunk_rejects, 0);
    assert!(
        stats.stream_chunks_verified >= stats.stream_reads_accepted,
        "each accepted stream verifies its chunks: {} chunks / {} streams",
        stats.stream_chunks_verified,
        stats.stream_reads_accepted
    );
    assert_eq!(stats.wrong_accepted, 0);
}

#[test]
fn corrupted_stream_chunk_rejected_at_that_chunk() {
    let mut cfg = small_config(42);
    cfg.double_check_prob = 0.0; // Stream verification needs no checks.
    let mut behaviors = vec![SlaveBehavior::Honest; cfg.n_slaves];
    behaviors[1] = SlaveBehavior::ConsistentLiar { prob: 0.5, collude: false };
    let workload = Workload {
        mix: sdr_core::QueryMix::media(),
        ..Workload::default()
    };
    let mut sys = build(cfg, behaviors, workload);
    sys.run_for(SimDuration::from_secs(60));
    let stats = sys.stats();

    // The chunk hash pins each corruption to the exact chunk: detection
    // is the client's own verification, with no checks configured.
    assert!(
        stats.stream_chunk_rejects > 0,
        "corrupted chunks never rejected: {}",
        stats.render()
    );
    // Every accepted *stream* verified all its chunks — a corrupted
    // stream can only be rejected, never folded into an accept.  (The
    // pledged fallback path can still wrongly accept a consistent lie
    // until audits catch it, which is the paper's delayed-detection
    // story, not the stream path's.)
    assert!(stats.stream_reads_accepted < stats.stream_reads_issued);
    assert!(
        stats.stream_chunks_verified > 0 && stats.reads_accepted > 0,
        "clients stopped making progress: {}",
        stats.render()
    );
}

#[test]
fn stale_server_detected_by_audit() {
    let mut cfg = small_config(6);
    cfg.double_check_prob = 0.02;
    cfg.audit_fraction = 1.0;
    let mut behaviors = vec![SlaveBehavior::Honest; cfg.n_slaves];
    // Freeze at the initial version: it keeps serving pre-write data.
    behaviors[3] = SlaveBehavior::StaleServer { freeze_at: 4 };
    let workload = Workload {
        writes_per_sec: 0.5,
        ..Workload::default()
    };
    let mut sys = build(cfg, behaviors, workload);
    sys.run_for(SimDuration::from_secs(90));
    let stats = sys.stats();

    assert!(stats.writes_committed > 3, "need writes to expose staleness");
    assert!(
        stats.exclusions >= 1 || stats.discoveries() >= 1,
        "stale server never caught: {}",
        stats.render()
    );
    // A stale server records no lie of its own, but the answers it
    // pledged under fresh stamps were wrong, and some were accepted.
    assert_eq!(stats.lies_told, 0);
    assert!(stats.wrong_accepted >= 1, "{}", stats.render());
}

/// Two colluding liars answer one quorum-2 read with the same forgery:
/// one wrong read, counted once however many pledges agree on it.  With
/// no double-checks and no audit nobody catches them, so every wrong read
/// is unconvicted too.
#[test]
fn colluding_quorum_lie_counts_once_per_read() {
    let mut cfg = small_config(12);
    // One slave-owning master (the other is the auditor) assigns both
    // slaves to every client.
    cfg.n_masters = 2;
    cfg.n_slaves = 2;
    cfg.read_quorum = 2;
    cfg.double_check_prob = 0.0;
    cfg.audit_fraction = 0.0;
    let liar = SlaveBehavior::ConsistentLiar { prob: 1.0, collude: true };
    let mut sys = build(cfg, vec![liar; 2], Workload::default());
    sys.run_for(SimDuration::from_secs(20));
    let stats = sys.stats();

    // Every accepted read was a lie both slaves pledged.
    assert!(stats.reads_accepted > 20, "{}", stats.render());
    assert_eq!(stats.wrong_accepted, stats.reads_accepted, "{}", stats.render());
    assert_eq!(stats.wrong_accepted_unconvicted, stats.wrong_accepted);
    assert_eq!(stats.wrong_accepted_proof, 0);
}

#[test]
fn wrong_accepts_bounded_and_all_detected_eventually() {
    let mut cfg = small_config(7);
    cfg.double_check_prob = 0.1;
    let mut behaviors = vec![SlaveBehavior::Honest; cfg.n_slaves];
    behaviors[0] = SlaveBehavior::ConsistentLiar { prob: 1.0, collude: false }; // Lies always.
    let mut sys = build(cfg, behaviors, Workload::default());
    sys.run_for(SimDuration::from_secs(60));
    let stats = sys.stats();

    // An always-liar gets caught fast; only a handful of lies slip through
    // before exclusion, and each slipped lie is found by the audit.
    assert!(stats.exclusions >= 1);
    assert!(
        stats.wrong_accepted <= stats.lies_told,
        "more wrong reads than lies: {}",
        stats.render()
    );
    let detected = stats.audit_mismatch + stats.dc_mismatch;
    assert!(
        detected >= 1,
        "no detection events despite constant lying: {}",
        stats.render()
    );
}

#[test]
fn master_crash_redistributes_slaves_and_clients_recover() {
    let mut cfg = small_config(8);
    cfg.n_masters = 4;
    cfg.n_slaves = 6;
    let n = cfg.n_slaves;
    let mut sys = build(cfg, vec![SlaveBehavior::Honest; n], Workload::default());
    // Let it warm up, then kill master 0 (the sequencer).
    sys.crash_master_at(SimTime::from_secs(10), 0);
    sys.run_for(SimDuration::from_secs(60));
    let stats = sys.stats();

    // Slaves of the dead master were adopted by survivors.
    let mut owned = 0;
    for r in 1..4 {
        owned += sys.with_master(r, |m| m.slaves().len());
    }
    assert_eq!(owned, 6, "all slaves must be owned by survivors");
    // The system still serves reads and commits writes after the crash.
    assert!(stats.reads_accepted > 0);
    assert!(stats.writes_committed > 0);
    // Clients of the dead master redid setup.
    let re_setups: u64 = stats.per_client.iter().map(|c| c.re_setups).sum();
    assert!(re_setups > 0, "no client redid setup after master crash");
}

#[test]
fn quorum_reads_catch_single_liar_without_accepting() {
    let mut cfg = small_config(9);
    cfg.read_quorum = 2;
    cfg.double_check_prob = 0.0;
    let mut behaviors = vec![SlaveBehavior::Honest; cfg.n_slaves];
    behaviors[0] = SlaveBehavior::ConsistentLiar { prob: 1.0, collude: false };
    behaviors[1] = SlaveBehavior::ConsistentLiar { prob: 1.0, collude: false };
    let mut sys = build(cfg, behaviors, Workload::default());
    sys.run_for(SimDuration::from_secs(60));
    let stats = sys.stats();

    // Any disagreement forces a double-check even though p = 0.
    assert!(
        stats.dc_sent > 0,
        "quorum mismatch must auto-double-check: {}",
        stats.render()
    );
    // Lies never get accepted unverified: the corrupted answer can only be
    // accepted if *all* quorum members colluded on the same wrong result,
    // which independent corruption here cannot do.
    assert_eq!(stats.wrong_accepted, 0);
}

#[test]
fn sensitive_reads_served_by_master_always_correct() {
    let mut cfg = small_config(10);
    cfg.sensitive_fraction = 0.5;
    let mut behaviors = vec![SlaveBehavior::Honest; cfg.n_slaves];
    behaviors[0] = SlaveBehavior::ConsistentLiar { prob: 1.0, collude: false };
    let mut sys = build(cfg, behaviors, Workload::default());
    sys.run_for(SimDuration::from_secs(30));
    let stats = sys.stats();

    assert!(stats.reads_sensitive > 0, "no sensitive reads issued");
    // Sensitive reads bypass slaves entirely, so lies can only enter
    // through the non-sensitive path.
    assert!(stats.reads_accepted > stats.reads_sensitive / 2);
}

#[test]
fn greedy_client_gets_throttled() {
    let mut cfg = small_config(11);
    cfg.n_clients = 10;
    cfg.double_check_prob = 0.02;
    let workload = Workload {
        greedy_clients: vec![(0, 0.9)], // Client 0 double-checks 90% of reads.
        reads_per_sec: 8.0,
        ..Workload::default()
    };
    let n = cfg.n_slaves;
    let mut sys = build(cfg, vec![SlaveBehavior::Honest; n], workload);
    sys.run_for(SimDuration::from_secs(120));
    let stats = sys.stats();

    let greedy = &stats.per_client[0];
    assert!(
        greedy.dc_throttled > 0,
        "greedy client was never throttled: {:?}",
        greedy
    );
    // Honest clients are (essentially) never throttled.
    let honest_throttled: u64 = stats.per_client[1..].iter().map(|c| c.dc_throttled).sum();
    assert!(
        honest_throttled * 10 <= greedy.dc_throttled.max(1) * 2,
        "honest clients throttled too much: {honest_throttled} vs greedy {}",
        greedy.dc_throttled
    );
}

#[test]
fn determinism_same_seed_same_stats() {
    let run = |seed: u64| {
        let cfg = small_config(seed);
        let n = cfg.n_slaves;
        let mut behaviors = vec![SlaveBehavior::Honest; n];
        behaviors[0] = SlaveBehavior::ConsistentLiar { prob: 0.2, collude: false };
        let mut sys = build(cfg, behaviors, Workload::default());
        sys.run_for(SimDuration::from_secs(20));
        let s = sys.stats();
        (
            s.reads_issued,
            s.reads_accepted,
            s.lies_told,
            s.dc_sent,
            s.writes_committed,
            s.audit_checked,
        )
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43));
}

/// A view change that moves the auditor is still a function of the seed.
/// Every master tells each of its clients where pledges now go, and the
/// order of those messages sets when each client learns it.  Two runs in
/// one process, where every hash map gets fresh keys, agree on every
/// statistic.
#[test]
fn auditor_crash_run_is_reproducible_in_one_process() {
    let run = || {
        let mut cfg = small_config(21);
        cfg.n_masters = 4;
        cfg.n_slaves = 6;
        cfg.n_clients = 48;
        let n = cfg.n_slaves;
        let mut w = Workload {
            reads_per_sec: 20.0,
            ..Workload::default()
        };
        // Computed queries only, so most accepted reads forward a pledge.
        (w.mix.get, w.mix.range, w.mix.read_file, w.mix.stream, w.mix.scan) = (0, 0, 0, 0, 0);
        (w.mix.filter, w.mix.aggregate) = (50, 50);
        let mut sys = build(cfg, vec![SlaveBehavior::Honest; n], w);
        sys.crash_master_at(SimTime::from_secs(2), 3);
        sys.run_for(SimDuration::from_secs(5));
        sys.stats().to_json().render()
    };
    assert_eq!(run(), run());
}

#[test]
fn audit_sampling_reduces_checks() {
    let mut cfg = small_config(12);
    cfg.audit_fraction = 0.3;
    cfg.double_check_prob = 0.0;
    let n = cfg.n_slaves;
    let mut sys = build(cfg, vec![SlaveBehavior::Honest; n], Workload::default());
    sys.run_for(SimDuration::from_secs(30));
    let stats = sys.stats();

    assert!(stats.audit_skipped > 0, "sampling never skipped a pledge");
    assert!(stats.audit_checked > 0);
    let frac = stats.audit_checked as f64 / (stats.audit_checked + stats.audit_skipped) as f64;
    assert!(
        (0.15..0.45).contains(&frac),
        "checked fraction {frac} far from configured 0.3"
    );
}

#[test]
fn churning_clients_rejoin_and_keep_reading() {
    let cfg = SystemConfig {
        n_masters: 3,
        n_slaves: 4,
        n_clients: 12,
        seed: 77,
        ..SystemConfig::default()
    };
    let n = cfg.n_slaves;
    let workload = Workload {
        reads_per_sec: 4.0,
        churn: Some(sdr_core::workload::ChurnModel {
            session: SimDuration::from_secs(6),
            offline: SimDuration::from_secs(3),
            fraction: 0.75,
        }),
        ..Workload::default()
    };
    let mut sys = build(cfg, vec![SlaveBehavior::Honest; n], workload);
    sys.run_for(SimDuration::from_secs(60));
    let stats = sys.stats();

    // Churners left and came back — each rejoin redoes the setup phase.
    assert!(stats.churn_leaves > 10, "leaves: {}", stats.churn_leaves);
    assert!(stats.churn_joins > 10, "joins: {}", stats.churn_joins);
    // The system keeps serving through the churn: reads flow and nearly
    // all issued reads verify (in-flight reads dropped at a leave are
    // issued-but-never-answered, so demand only near-equality).
    assert!(stats.reads_issued > 200, "reads issued: {}", stats.reads_issued);
    assert!(
        stats.reads_accepted as f64 >= 0.8 * stats.reads_issued as f64,
        "accepted {}/{} reads",
        stats.reads_accepted,
        stats.reads_issued
    );
    assert_eq!(stats.wrong_accepted, 0);
    // Offline clients answer nothing, so no exclusions of honest slaves.
    assert_eq!(stats.exclusions, 0);
}

#[test]
fn churn_scheduler_telemetry_is_populated() {
    let cfg = SystemConfig {
        n_masters: 3,
        n_slaves: 4,
        n_clients: 8,
        seed: 78,
        ..SystemConfig::default()
    };
    let n = cfg.n_slaves;
    let mut sys = build(cfg, vec![SlaveBehavior::Honest; n], Workload::default());
    sys.run_for(SimDuration::from_secs(20));
    let stats = sys.stats();
    assert!(stats.sim_events > 1_000, "events: {}", stats.sim_events);
    assert!(stats.sim_queue_peak > 0);
    assert!(stats.sim_msg_bytes_logical >= stats.sim_msg_bytes_resident);
    assert!(stats.sim_msg_bytes_resident > 0);
    // Master → slave replication fans out shared payloads: the logical
    // byte volume must exceed the resident (allocated-once) volume.
    assert!(
        stats.msg_sharing_ratio() > 1.0,
        "sharing ratio {}",
        stats.msg_sharing_ratio()
    );
}
