//! Named scenarios: every experiment and example, by name.
//!
//! The registry is the workspace's scenario catalogue.  `lookup("e1_detection")`
//! returns the exact spec `experiment run e1_detection` runs; experiments
//! fetch, optionally tweak (CLI seed/duration overrides), run, and
//! render.  Keeping the catalogue in `sdr-core` lets tests, examples,
//! and the bench harness share one source of truth.

use super::spec::{BehaviorSpec, CrashSpec, LinkSpec, NetworkSpec, ScenarioSpec};
use super::sweep::{liar_template, Grid, Param, SweepAxis};
use crate::config::SystemConfig;
use crate::dataset::DatasetSpec;
use crate::slave::SlaveBehavior;
use crate::workload::{DiurnalPattern, QueryMix, Workload};
use sdr_sim::SimDuration;

/// Every registered scenario name, in catalogue order.
pub fn names() -> Vec<&'static str> {
    BUILDERS.iter().map(|(n, _)| *n).collect()
}

/// Fetches a scenario by name.
pub fn lookup(name: &str) -> Option<ScenarioSpec> {
    BUILDERS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, build)| build())
}

type Builder = fn() -> ScenarioSpec;

const BUILDERS: &[(&str, Builder)] = &[
    ("e1_detection", e1_detection),
    ("e2_audit", e2_audit),
    ("e3_freshness", e3_freshness),
    ("e3_slow_client", e3_slow_client),
    ("e4_writes", e4_writes),
    ("e5_master_load", e5_master_load),
    ("e6_comparison", e6_comparison),
    ("e7_auditor", e7_auditor),
    ("e8_greedy", e8_greedy),
    ("e9_quorum_reads", e9_quorum_reads),
    ("e10_levels", e10_levels),
    ("e11_crypto", e11_crypto),
    ("e12_failover", e12_failover),
    ("quickstart", quickstart),
    ("byzantine_storm", byzantine_storm),
    ("master_failover", master_failover),
    ("cdn_catalog", cdn_catalog),
    ("medical_db", medical_db),
    ("large_catalog", large_catalog),
    ("proof_vs_pledge", proof_vs_pledge),
    ("sharded_commit", sharded_commit),
    ("batched_commit", batched_commit),
    ("cdn_media", cdn_media),
    ("churn_100k", churn_100k),
    ("flash_crowd", flash_crowd),
    ("range_scan", range_scan),
];

fn read_only(reads_per_sec: f64) -> Workload {
    Workload {
        reads_per_sec,
        writes_per_sec: 0.0,
        ..Workload::default()
    }
}

fn e1_detection() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "e1_detection",
        "Detection speed vs double-check probability p (always-lying slave, audit off)",
        SystemConfig {
            n_masters: 3,
            n_slaves: 4,
            n_clients: 8,
            audit_fraction: 0.0, // Isolate the double-check mechanism.
            seed: 1_000,
            ..SystemConfig::default()
        },
    );
    spec.behaviors = BehaviorSpec::with_overrides(vec![(0, liar_template(1.0, false))]);
    spec.workload = read_only(8.0);
    spec.duration = SimDuration::from_secs(600);
    spec.seeds = vec![1_000, 2_000, 3_000, 4_000, 5_000];
    spec.capture_series = vec!["exclusion.at_us".into()];
    spec.grid = Grid::sweep(
        "p",
        Param::DoubleCheckProb,
        &[0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5],
    );
    spec
}

fn e2_audit() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "e2_audit",
        "Lies accepted before the audit's first catch vs audited fraction (always-liar, p=0)",
        SystemConfig {
            n_masters: 3,
            n_slaves: 4,
            n_clients: 8,
            double_check_prob: 0.0, // Audit is the only detector.
            seed: 21,
            ..SystemConfig::default()
        },
    );
    spec.behaviors = BehaviorSpec::with_overrides(vec![(0, liar_template(1.0, false))]);
    spec.workload = Workload {
        reads_per_sec: 6.0,
        writes_per_sec: 0.1,
        ..Workload::default()
    };
    spec.duration = SimDuration::from_secs(240);
    spec.seeds = vec![21, 22, 23, 24, 25];
    spec.capture_series = vec!["exclusion.at_us".into()];
    spec.grid = Grid::sweep("audit fraction", Param::AuditFraction, &[0.05, 0.1, 0.25, 0.5, 1.0]);
    spec
}

fn e3_freshness() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "e3_freshness",
        "Stale-read rate vs keep-alive period (max_latency = 1000 ms, 50 ms client links)",
        SystemConfig {
            n_masters: 3,
            n_slaves: 4,
            n_clients: 6,
            max_latency: SimDuration::from_millis(1_000),
            double_check_prob: 0.0,
            seed: 31,
            ..SystemConfig::default()
        },
    );
    spec.workload = read_only(5.0);
    spec.network = Some(NetworkSpec {
        client_links: (0..6).map(|c| (c, LinkSpec::wan_ms(50))).collect(),
        ..NetworkSpec::default()
    });
    spec.grid = Grid::sweep(
        "keepalive (ms)",
        Param::KeepaliveMs,
        &[100.0, 250.0, 500.0, 800.0, 950.0],
    );
    spec
}

fn e3_slow_client() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "e3_slow_client",
        "A slow client starves under the global freshness bound; its own relaxed max_latency restores service",
        SystemConfig {
            n_masters: 3,
            n_slaves: 4,
            n_clients: 6,
            max_latency: SimDuration::from_millis(1_000),
            keepalive_period: SimDuration::from_millis(250),
            double_check_prob: 0.0,
            seed: 31,
            ..SystemConfig::default()
        },
    );
    spec.workload = read_only(5.0);
    spec.network = Some(NetworkSpec {
        client_links: (0..6).map(|c| (c, LinkSpec::wan_ms(10))).collect(),
        ..NetworkSpec::default()
    });
    // Zip: client 0's link degrades while its personal freshness bound
    // stays global (0 = none) or relaxes to 6 s.
    spec.grid = Grid::zip(vec![
        SweepAxis::new(
            "client link median (ms)",
            Param::ClientLinkMs { client: 0 },
            &[10.0, 300.0, 700.0, 700.0, 1500.0, 1500.0],
        ),
        SweepAxis::new(
            "client max_latency (ms)",
            Param::ClientMaxLatencyMs { client: 0 },
            &[0.0, 0.0, 0.0, 6000.0, 0.0, 6000.0],
        ),
    ]);
    spec
}

fn e4_writes() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "e4_writes",
        "Achievable write throughput vs max_latency (offered load 50 writes/s)",
        SystemConfig {
            n_masters: 3,
            n_slaves: 4,
            n_clients: 8,
            double_check_prob: 0.01,
            seed: 41,
            ..SystemConfig::default()
        },
    );
    // Saturating write demand: far more writes offered than the spacing
    // rule can admit.
    spec.workload = Workload {
        reads_per_sec: 4.0,
        writes_per_sec: 50.0,
        writer_fraction: 0.5,
        ..Workload::default()
    };
    spec.duration = SimDuration::from_secs(120);
    // Keep-alive tracks max_latency at a fixed 1:4 ratio (zipped axes).
    spec.grid = Grid::zip(vec![
        SweepAxis::new(
            "max_latency (ms)",
            Param::MaxLatencyMs,
            &[250.0, 500.0, 1000.0, 2000.0, 4000.0],
        ),
        SweepAxis::new(
            "keepalive (ms)",
            Param::KeepaliveMs,
            &[62.5, 125.0, 250.0, 500.0, 1000.0],
        ),
    ]);
    spec
}

fn e5_master_load() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "e5_master_load",
        "Trusted-host load vs double-check probability p (96 reads/s offered)",
        SystemConfig {
            n_masters: 3,
            n_slaves: 6,
            n_clients: 12,
            audit_fraction: 1.0,
            seed: 51,
            ..SystemConfig::default()
        },
    );
    spec.workload = Workload {
        reads_per_sec: 8.0,
        writes_per_sec: 0.2,
        ..Workload::default()
    };
    spec.grid = Grid::sweep(
        "p",
        Param::DoubleCheckProb,
        &[0.0, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5],
    );
    spec
}

fn e6_comparison() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "e6_comparison",
        "Per-read cost comparison vs state signing and SMR on an identical query stream",
        SystemConfig {
            seed: 61,
            ..SystemConfig::default()
        },
    );
    // The experiment evaluates analytically over this workload's query mix and
    // dataset; no simulated system runs, so the grid stays empty.
    spec.workload.mix = QueryMix::catalogue();
    spec
}

fn e7_auditor() -> ScenarioSpec {
    let day = SimDuration::from_secs(240);
    let mut spec = ScenarioSpec::new(
        "e7_auditor",
        "Auditor backlog/lag over two compressed diurnal days (peak 144 reads/s)",
        SystemConfig {
            n_masters: 3,
            n_slaves: 6,
            n_clients: 12,
            double_check_prob: 0.01,
            seed: 71,
            ..SystemConfig::default()
        },
    );
    spec.workload = Workload {
        reads_per_sec: 12.0, // Peak rate; the trough is 5% of this.
        writes_per_sec: 0.1,
        diurnal: Some(DiurnalPattern {
            period: day,
            trough: 0.05,
        }),
        ..Workload::default()
    };
    spec.duration = SimDuration::from_secs(480); // Two full days.
    spec.capture_series = vec!["audit.backlog".into(), "audit.lag_us".into()];
    spec.grid = Grid::cartesian(vec![
        SweepAxis::new("cache", Param::AuditorCache, &[1.0, 0.0]),
        SweepAxis::new("audit slice (ms)", Param::AuditSliceMs, &[20.0, 2.0]),
    ]);
    spec
}

fn e8_greedy() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "e8_greedy",
        "Greedy-client throttling vs greediness (honest p = 0.02, window 30 s)",
        SystemConfig {
            n_masters: 3,
            n_slaves: 4,
            n_clients: 10,
            double_check_prob: 0.02, // Honest rate.
            seed: 81,
            ..SystemConfig::default()
        },
    );
    spec.workload = read_only(8.0);
    spec.workload.greedy_clients = vec![(0, 0.02)];
    spec.duration = SimDuration::from_secs(120);
    spec.grid = Grid::sweep(
        "greedy client p",
        Param::GreedyClientProb { client: 0 },
        &[0.02, 0.05, 0.1, 0.3, 0.6, 0.9],
    );
    spec
}

fn e9_quorum_reads() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "e9_quorum_reads",
        "Quorum reads vs colluding liars (6 slaves, lie prob 0.3, p=0 and audit off)",
        SystemConfig {
            n_masters: 3,
            n_slaves: 6,
            n_clients: 9,
            double_check_prob: 0.0, // Isolate the quorum mechanism.
            audit_fraction: 0.0,
            seed: 91,
            ..SystemConfig::default()
        },
    );
    // Colluders agree on the forged answer; LiarCount replicates this
    // template across the first k slaves.
    spec.behaviors = BehaviorSpec::with_overrides(vec![(0, liar_template(0.3, true))]);
    spec.workload = read_only(6.0);
    spec.grid = Grid::cartesian(vec![
        SweepAxis::new("read quorum k", Param::ReadQuorum, &[1.0, 2.0, 3.0]),
        SweepAxis::new("colluders", Param::LiarCount, &[1.0, 2.0, 3.0]),
    ]);
    spec
}

fn e10_levels() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "e10_levels",
        "Sensitive-read fraction vs correctness and trusted load (one liar, checks disabled)",
        SystemConfig {
            n_masters: 3,
            n_slaves: 4,
            n_clients: 10,
            double_check_prob: 0.0,
            audit_fraction: 0.0, // Expose raw lie acceptance on the normal path.
            seed: 101,
            ..SystemConfig::default()
        },
    );
    spec.behaviors = BehaviorSpec::with_overrides(vec![(0, liar_template(0.25, false))]);
    spec.workload = read_only(8.0);
    spec.grid = Grid::sweep(
        "sensitive fraction",
        Param::SensitiveFraction,
        &[0.0, 0.1, 0.25, 0.5, 0.75, 1.0],
    );
    spec
}

fn e11_crypto() -> ScenarioSpec {
    ScenarioSpec::new(
        "e11_crypto",
        "Measured crypto costs (wall clock): hash, WOTS, MSS, pledge build/verify",
        SystemConfig {
            seed: 111,
            ..SystemConfig::default()
        },
    )
    // The experiment wall-clock-times primitives; the spec carries identity only.
}

fn e12_failover() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "e12_failover",
        "Master crash at t=20s: slave-set division and client re-setup",
        SystemConfig {
            n_masters: 4,
            n_slaves: 8,
            n_clients: 12,
            double_check_prob: 0.02,
            seed: 121,
            ..SystemConfig::default()
        },
    );
    spec.workload = Workload {
        reads_per_sec: 6.0,
        writes_per_sec: 0.3,
        ..Workload::default()
    };
    spec.duration = SimDuration::from_secs(80);
    spec.checkpoints = vec![SimDuration::from_secs(20)];
    spec.crashes = vec![CrashSpec {
        at: SimDuration::from_secs(20),
        master_rank: 0,
    }];
    spec.grid = Grid::sweep("crashed rank", Param::CrashRank, &[0.0, 1.0]);
    spec
}

fn quickstart() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "quickstart",
        "The smallest end-to-end deployment: one subtle liar, mixed reads and writes",
        SystemConfig {
            n_masters: 3,
            n_slaves: 4,
            n_clients: 8,
            double_check_prob: 0.05, // 5% of reads are double-checked.
            seed: 2003,              // HotOS IX.
            ..SystemConfig::default()
        },
    );
    // One slave lies on 20% of reads — with a *self-consistent* pledge,
    // so only double-checking or the audit can catch it.
    spec.behaviors = BehaviorSpec::with_overrides(vec![(0, liar_template(0.2, false))]);
    spec.duration = SimDuration::from_secs(30);
    spec
}

fn byzantine_storm() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "byzantine_storm",
        "Every misbehaviour model at once; exclusion evidence verifies offline",
        SystemConfig {
            n_masters: 3,
            n_slaves: 8,
            n_clients: 16,
            double_check_prob: 0.08,
            audit_fraction: 1.0,
            seed: 666,
            ..SystemConfig::default()
        },
    );
    spec.behaviors = BehaviorSpec::with_overrides(vec![
        (0, SlaveBehavior::ConsistentLiar { prob: 0.5, collude: false }),
        (1, SlaveBehavior::ConsistentLiar { prob: 0.1, collude: false }),
        (2, SlaveBehavior::InconsistentLiar { prob: 0.3 }),
        (3, SlaveBehavior::StaleServer { freeze_at: 4 }),
        (4, SlaveBehavior::Refuser { prob: 0.4 }),
    ]);
    spec.workload = Workload {
        reads_per_sec: 6.0,
        writes_per_sec: 0.3,
        ..Workload::default()
    };
    spec.duration = SimDuration::from_secs(120);
    spec
}

fn master_failover() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "master_failover",
        "Two of five masters crash in sequence (including the sequencer); service continues",
        SystemConfig {
            n_masters: 5,
            n_slaves: 8,
            n_clients: 12,
            double_check_prob: 0.02,
            seed: 55,
            ..SystemConfig::default()
        },
    );
    spec.workload = Workload {
        reads_per_sec: 5.0,
        writes_per_sec: 0.3,
        ..Workload::default()
    };
    spec.duration = SimDuration::from_secs(90);
    // The sequencer dies at t=20s, the elected auditor at t=50s.
    spec.crashes = vec![
        CrashSpec {
            at: SimDuration::from_secs(20),
            master_rank: 0,
        },
        CrashSpec {
            at: SimDuration::from_secs(50),
            master_rank: 4,
        },
    ];
    spec.checkpoints = vec![SimDuration::from_secs(15), SimDuration::from_secs(40)];
    spec
}

fn cdn_catalog() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "cdn_catalog",
        "A CDN-served product catalogue over two compressed shopping days (Section 6 scenario)",
        SystemConfig {
            n_masters: 4,  // Owner-run trusted core (rank 3 audits).
            n_slaves: 10,  // CDN edge nodes.
            n_clients: 20, // Shoppers.
            double_check_prob: 0.01,
            max_latency: SimDuration::from_millis(2_000),
            seed: 7,
            ..SystemConfig::default()
        },
    );
    // The CDN is mostly honest; one node was compromised and lies
    // subtly, another is broken and serves stale catalogue pages.
    spec.behaviors = BehaviorSpec::with_overrides(vec![
        (3, SlaveBehavior::ConsistentLiar { prob: 0.1, collude: false }),
        (7, SlaveBehavior::StaleServer { freeze_at: 4 }),
    ]);
    spec.workload = Workload {
        dataset: DatasetSpec {
            n_products: 800,
            n_reviews: 1_600,
            n_files: 50,
            lines_per_file: 25,
            shared_block_lines: 0,
            hot_fraction: 0.01,
            skew: 0.0,
            seed: 7,
        },
        reads_per_sec: 6.0,
        writes_per_sec: 0.3, // Occasional price/stock updates.
        writer_fraction: 0.1,
        mix: QueryMix::catalogue(),
        diurnal: Some(DiurnalPattern {
            period: SimDuration::from_secs(120), // Compressed shopping day.
            trough: 0.15,
        }),
        ..Workload::default()
    };
    spec.duration = SimDuration::from_secs(240);
    spec.checkpoints = vec![SimDuration::from_secs(120)];
    spec
}

fn medical_db() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "medical_db",
        "Sensitive reads routed to trusted masters (one compromised replica, checks off)",
        SystemConfig {
            n_masters: 3,
            n_slaves: 6,
            n_clients: 12,
            // Checks off so the table isolates what the variant buys.
            double_check_prob: 0.0,
            audit_fraction: 0.0,
            seed: 99,
            ..SystemConfig::default()
        },
    );
    // A compromised replica lies on a quarter of its answers.
    spec.behaviors = BehaviorSpec::with_overrides(vec![(2, liar_template(0.25, false))]);
    spec.workload = Workload {
        reads_per_sec: 6.0,
        writes_per_sec: 0.05,
        ..Workload::default()
    };
    spec.grid = Grid::sweep(
        "sensitive fraction",
        Param::SensitiveFraction,
        &[0.0, 0.25, 0.5, 1.0],
    );
    spec
}

fn large_catalog() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "large_catalog",
        "Production-scale catalogue (10k products): feasible only with the \
         copy-on-write store — per-write snapshots and digests no longer \
         scan the whole dataset",
        SystemConfig {
            n_masters: 3,
            n_slaves: 8,
            n_clients: 16,
            double_check_prob: 0.02,
            snapshot_capacity: 32,
            seed: 4_242,
            ..SystemConfig::default()
        },
    );
    // One compromised edge node keeps the detection machinery (and its
    // snapshot re-materialisations) exercised at scale.
    spec.behaviors = BehaviorSpec::with_overrides(vec![(5, SlaveBehavior::ConsistentLiar {
        prob: 0.05,
        collude: false,
    })]);
    spec.workload = Workload {
        dataset: DatasetSpec {
            n_products: 10_000,
            n_reviews: 20_000,
            n_files: 200,
            lines_per_file: 20,
            shared_block_lines: 0,
            hot_fraction: 0.01,
            skew: 0.0,
            seed: 4_242,
        },
        reads_per_sec: 3.0,
        // A steady write stream: before the persistent store each of
        // these cloned and re-hashed the full 30k-row state several
        // times over (undo backup + snapshot ring + digests).
        writes_per_sec: 1.0,
        writer_fraction: 0.25,
        mix: QueryMix::catalogue(),
        ..Workload::default()
    };
    spec.duration = SimDuration::from_secs(120);
    spec.checkpoints = vec![SimDuration::from_secs(60)];
    spec
}

fn proof_vs_pledge() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "proof_vs_pledge",
        "The two read paths head to head: static reads verified by Merkle \
         proofs (no auditor) vs pledge+audit, swept over the static share \
         of the mix and with the proof path toggled off as the control",
        SystemConfig {
            n_masters: 3,
            n_slaves: 6,
            n_clients: 12,
            double_check_prob: 0.02,
            audit_fraction: 1.0,
            seed: 1_259,
            ..SystemConfig::default()
        },
    );
    // One compromised replica lying on a fifth of its answers: on the
    // proof path its lies die at the client (proof_reads_rejected), on
    // the pledged path they linger until a double-check or the audit.
    spec.behaviors = BehaviorSpec::with_overrides(vec![(0, liar_template(0.2, false))]);
    spec.workload = Workload {
        reads_per_sec: 8.0,
        writes_per_sec: 0.3,
        ..Workload::default()
    };
    spec.duration = SimDuration::from_secs(120);
    spec.seeds = vec![1_259, 2_259];
    spec.grid = Grid::cartesian(vec![
        SweepAxis::new(
            "static read fraction",
            Param::StaticReadFraction,
            &[0.0, 0.25, 0.5, 0.75, 1.0],
        ),
        SweepAxis::new("proof reads", Param::ProofReads, &[1.0, 0.0]),
    ]);
    spec
}

fn sharded_commit() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "sharded_commit",
        "Commit throughput vs shard count under saturating write demand: \
         the max_latency spacing rule is per write queue, so splitting the \
         key/path space across master subgroups is the first axis that \
         scales writes instead of just replicating reads",
        SystemConfig {
            n_masters: 3,
            n_slaves: 2, // Per shard; the subgroup replicates its slice.
            n_clients: 16,
            double_check_prob: 0.01,
            max_latency: SimDuration::from_millis(1_000),
            keepalive_period: SimDuration::from_millis(250),
            seed: 8_008,
            ..SystemConfig::default()
        },
    );
    // Saturating, uniformly-sharded write demand: far more writes
    // offered than any single queue can admit (1/max_latency = 1/s), so
    // committed writes track the number of queues.
    spec.workload = Workload {
        reads_per_sec: 2.0,
        writes_per_sec: 40.0,
        writer_fraction: 0.5,
        ..Workload::default()
    };
    spec.duration = SimDuration::from_secs(60);
    spec.seeds = vec![8_008, 9_009];
    spec.grid = Grid::sweep("shards", Param::NShards, &[1.0, 2.0, 4.0, 8.0]);
    spec
}

fn batched_commit() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "batched_commit",
        "Commit throughput vs sequencer batch size on one shard under \
         saturating write demand: the queue still opens once per \
         max_latency, but each round drains up to max_write_batch writes \
         as one multi-version commit anchored by a single signed digest \
         stamp, so committed writes track the batch bound",
        SystemConfig {
            n_masters: 3,
            n_slaves: 2,
            n_clients: 16,
            double_check_prob: 0.01,
            max_latency: SimDuration::from_millis(1_000),
            keepalive_period: SimDuration::from_millis(250),
            seed: 6_006,
            ..SystemConfig::default()
        },
    );
    // The same saturating write demand as `sharded_commit`: one queue
    // can admit only 1/max_latency rounds, so throughput moves with how
    // much each round carries.
    spec.workload = Workload {
        reads_per_sec: 2.0,
        writes_per_sec: 40.0,
        writer_fraction: 0.5,
        ..Workload::default()
    };
    spec.duration = SimDuration::from_secs(60);
    spec.seeds = vec![6_006, 7_007];
    spec.grid = Grid::sweep("batch", Param::WriteBatch, &[1.0, 2.0, 4.0, 8.0]);
    spec
}

fn cdn_media() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "cdn_media",
        "Media distribution over untrusted edge nodes: large files served \
         as verified chunk streams (no client buffers a whole file), a \
         flash crowd modelled as a sharp diurnal read peak, and a sweep \
         over how much content the files share — shared segments chunk \
         identically, so the edge stores each one once",
        SystemConfig {
            n_masters: 3,
            n_slaves: 8,  // Edge nodes holding the media tree.
            n_clients: 24, // Flash-crowd audience.
            double_check_prob: 0.01,
            max_latency: SimDuration::from_millis(2_000),
            seed: 5_150,
            ..SystemConfig::default()
        },
    );
    // One edge node was compromised and corrupts chunks mid-stream;
    // chunk-by-chunk verification pins the lie to the exact chunk.
    spec.behaviors = BehaviorSpec::with_overrides(vec![(4, SlaveBehavior::ConsistentLiar {
        prob: 0.1,
        collude: false,
    })]);
    spec.workload = Workload {
        dataset: DatasetSpec {
            n_products: 100,
            n_reviews: 200,
            n_files: 60,          // The media library.
            lines_per_file: 400,  // ~14 KiB per file: many chunks each.
            shared_block_lines: 0, // Swept below.
            hot_fraction: 0.01,
            skew: 0.0,
            seed: 5_150,
        },
        reads_per_sec: 8.0,
        writes_per_sec: 0.2, // Occasional re-encodes/uploads.
        writer_fraction: 0.1,
        mix: QueryMix::media(),
        // Flash crowd: reads spike to the peak and collapse to 10%
        // of it between waves.
        diurnal: Some(DiurnalPattern {
            period: SimDuration::from_secs(60),
            trough: 0.1,
        }),
        ..Workload::default()
    };
    spec.duration = SimDuration::from_secs(120);
    spec.checkpoints = vec![SimDuration::from_secs(60)];
    // Dedup sweep: 0 lines shared (every file unique) up to ~90% of
    // each file shared (300-line block on 400 own lines ≈ 43% …; at
    // 3_600 lines the shared block is 90% of every file's bytes).
    spec.grid = Grid::sweep(
        "shared lines",
        Param::SharedBlockLines,
        &[0.0, 400.0, 3_600.0],
    );
    spec
}

fn churn_100k() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "churn_100k",
        "Registry at population scale: a 100k-row catalogue sharded four \
         ways, served to two thousand clients that join and leave all day \
         under a diurnal read mix.  Every rejoin redoes the full setup \
         phase, so the scenario stresses the directory, slave assignment, \
         and the simulator's event scheduler far more than any steady \
         workload — the target of the bucketed event queue and the \
         shared-payload multicast path",
        SystemConfig {
            n_shards: 4,
            n_masters: 3, // Per shard: 12 masters total.
            n_slaves: 4,  // Per shard: 16 replicas total.
            n_clients: 2_000,
            double_check_prob: 0.005,
            audit_fraction: 0.25, // Population-scale auditor sampling.
            max_latency: SimDuration::from_millis(2_000),
            snapshot_capacity: 32,
            seed: 100_000,
            ..SystemConfig::default()
        },
    );
    spec.workload = Workload {
        dataset: DatasetSpec {
            n_products: 100_000,
            n_reviews: 50_000,
            n_files: 100,
            lines_per_file: 10,
            shared_block_lines: 0,
            hot_fraction: 0.01,
            skew: 0.0,
            seed: 100_000,
        },
        // Per-client rates are low — load comes from the population.
        reads_per_sec: 0.5,
        writes_per_sec: 2.0,
        writer_fraction: 0.05,
        mix: QueryMix::catalogue(),
        diurnal: Some(DiurnalPattern {
            period: SimDuration::from_secs(30),
            trough: 0.2,
        }),
        churn: Some(crate::workload::ChurnModel {
            session: SimDuration::from_secs(10),
            offline: SimDuration::from_secs(5),
            fraction: 0.5,
        }),
        ..Workload::default()
    };
    spec.duration = SimDuration::from_secs(60);
    spec.checkpoints = vec![SimDuration::from_secs(30)];
    spec
}

fn flash_crowd() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "flash_crowd",
        "A flash crowd hammers a handful of hot keys on one shard: two \
         thousand clients, a 10k-row catalogue whose hot set is eight \
         keys, and a sweep of the hot-read probability from uniform to \
         extreme.  The target of the hot-read fast path: at high skew \
         the slave answers almost every proof read from its reply cache \
         (one proof build per anchor window, shared Arc payloads) and \
         the client verifies each anchor's signature once, so repeat \
         verified reads cost a cache lookup plus the Merkle fold",
        SystemConfig {
            n_shards: 1,
            n_masters: 3,
            n_slaves: 4,
            n_clients: 2_000,
            double_check_prob: 0.005,
            audit_fraction: 0.25,
            max_latency: SimDuration::from_millis(2_000),
            seed: 20_003,
            ..SystemConfig::default()
        },
    );
    spec.workload = Workload {
        dataset: DatasetSpec {
            n_products: 10_000,
            n_reviews: 5_000,
            n_files: 50,
            lines_per_file: 20,
            shared_block_lines: 0,
            hot_fraction: 0.0008, // ceil(10_000 × 0.0008) = 8 hot keys.
            skew: 0.0,            // Swept below.
            seed: 20_003,
        },
        // Per-client rates are modest; the crowd is the load.
        reads_per_sec: 2.0,
        writes_per_sec: 0.05, // Rare updates keep invalidation honest.
        writer_fraction: 0.02,
        // Nearly all point reads (the proof path the caches serve), a
        // sliver of computed filters and verified chunk streams.
        mix: QueryMix {
            get: 80,
            range: 0,
            filter: 5,
            aggregate: 0,
            join: 0,
            grep: 0,
            read_file: 10,
            stream: 5,
            scan: 0,
            scan_len: 0,
        },
        ..Workload::default()
    };
    spec.duration = SimDuration::from_secs(20);
    spec.grid = Grid::sweep("skew", Param::Skew, &[0.0, 0.5, 0.9, 0.99]);
    spec
}

fn range_scan() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "range_scan",
        "Verified range reads on a 10k-row catalogue: every read is a \
         half-open ScanRange answered under a single O(log n + k) treap \
         range proof, swept from single-row scans to 256-row pages.  The \
         proof attests both membership and completeness (no row in the \
         range omitted), so the interesting curve is proof bytes and \
         verify cost per row as k grows: the log-depth skeleton is \
         amortised across the page, and wide scans approach one hash \
         per row where per-row point proofs would pay the full path \
         each time",
        SystemConfig {
            n_shards: 1,
            n_masters: 3,
            n_slaves: 3,
            n_clients: 40,
            double_check_prob: 0.01,
            audit_fraction: 0.25,
            seed: 21_001,
            ..SystemConfig::default()
        },
    );
    spec.workload = Workload {
        dataset: DatasetSpec {
            n_products: 10_000,
            n_reviews: 2_000,
            n_files: 20,
            lines_per_file: 20,
            shared_block_lines: 0,
            hot_fraction: 0.0,
            skew: 0.0,
            seed: 21_001,
        },
        reads_per_sec: 4.0,
        writes_per_sec: 0.1, // Writes move the anchor under live scans.
        writer_fraction: 0.1,
        // Scans only, plus a sliver of point gets so both proof shapes
        // share the run (and the reply cache) at every swept length.
        mix: QueryMix {
            get: 10,
            range: 0,
            filter: 0,
            aggregate: 0,
            join: 0,
            grep: 0,
            read_file: 0,
            stream: 0,
            scan: 90,
            scan_len: 0, // Swept below.
        },
        ..Workload::default()
    };
    spec.duration = SimDuration::from_secs(20);
    spec.grid = Grid::sweep("scan rows", Param::RangeLen, &[1.0, 16.0, 256.0]);
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_spec_validates() {
        for name in names() {
            let spec = lookup(name).expect("registered");
            spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            spec.grid
                .check_applicable(&spec)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(spec.name, name, "spec name must match registry key");
        }
    }

    #[test]
    fn lookup_unknown_is_none() {
        assert!(lookup("e99_nonsense").is_none());
    }
}
