//! The four workloads, owned here as literals.
//!
//! The simulated specs are copied from `sdr_core::scenario::registry`
//! (`flash_crowd`, `range_scan`, `churn_100k`) rather than looked up, so a
//! later registry edit cannot silently change what the benchmark runs.
//! Fields not named fall through to `SystemConfig::default()` /
//! `Workload::default()`, exactly as the registry entries do.
//!
//! Sizes are the ones recorded in `BENCHMARK.json`: one repetition of each
//! workload is sized to roughly two to five seconds of host time on the
//! two-core sandbox, so several repetitions (each in its own process) fit
//! in one `--seconds` budget and the reported value is a median.

use sdr_core::dataset::DatasetSpec;
use sdr_core::workload::ChurnModel;
use sdr_core::{DiurnalPattern, QueryMix, SystemConfig, Workload};
use sdr_sim::SimDuration;

/// A workload whose reads are issued by simulated clients on the modeled
/// clock, run as a batch job of fixed simulated length.
pub struct SimSpec {
    pub config: SystemConfig,
    pub workload: Workload,
    /// Simulated seconds one repetition runs for.
    pub sim_secs: u64,
    /// Queries the traced run replays through the read pipeline directly.
    pub replay_queries: usize,
}

/// The simulator-free closed loop: one replica, one MSS master signer,
/// one client, every check paid in full on every read.
pub struct ColdSpec {
    pub dataset: DatasetSpec,
    /// Size of the one large file streamed once per round.
    pub file_bytes: usize,
    pub mss_height: u8,
    pub rounds: usize,
    pub writes_per_round: usize,
    pub points_per_round: usize,
    pub scans_per_round: usize,
    pub scan_len: u64,
}

pub enum Kind {
    Sim(Box<SimSpec>),
    Cold(ColdSpec),
}

pub struct WorkloadDef {
    pub name: &'static str,
    /// Which layer does most of the work, in one line (also the `why` of
    /// `BENCHMARK.json`).
    pub why: &'static str,
    pub kind: Kind,
}

pub const NAMES: [&str; 4] = ["flash_point", "scan_pages", "churn_mix", "cold_mix"];

/// Path of the large file `cold_mix` streams.
pub const COLD_FILE: &str = "/media/blob-1mib.log";

const fn mix_zero() -> QueryMix {
    QueryMix {
        get: 0,
        range: 0,
        filter: 0,
        aggregate: 0,
        join: 0,
        grep: 0,
        read_file: 0,
        stream: 0,
        scan: 0,
        scan_len: 0,
    }
}

/// Builds the named workload for `seed`.  `smoke` shrinks the run to two
/// simulated seconds / five rounds, the size the self-tests run (one
/// simulated second is too short: the reads still in flight at the
/// cut-off alone would trip the accepted-to-issued gate).
pub fn lookup(name: &str, seed: u64, smoke: bool) -> Option<WorkloadDef> {
    let def = match name {
        "flash_point" => flash_point(seed, smoke),
        "scan_pages" => scan_pages(seed, smoke),
        "churn_mix" => churn_mix(seed, smoke),
        "cold_mix" => cold_mix(seed, smoke),
        _ => return None,
    };
    Some(def)
}

/// `flash_crowd` at skew 0.9.
fn flash_point(seed: u64, smoke: bool) -> WorkloadDef {
    let config = SystemConfig {
        n_shards: 1,
        n_masters: 3,
        n_slaves: 4,
        n_clients: 2_000,
        double_check_prob: 0.005,
        audit_fraction: 0.25,
        max_latency: SimDuration::from_millis(2_000),
        seed,
        ..SystemConfig::default()
    };
    let workload = Workload {
        dataset: DatasetSpec {
            n_products: 10_000,
            n_reviews: 5_000,
            n_files: 50,
            lines_per_file: 20,
            shared_block_lines: 0,
            hot_fraction: 0.0008, // 8 hot keys
            skew: 0.9,
            seed,
        },
        reads_per_sec: 2.0,
        writes_per_sec: 0.05,
        writer_fraction: 0.02,
        mix: QueryMix {
            get: 80,
            filter: 5,
            read_file: 10,
            stream: 5,
            ..mix_zero()
        },
        ..Workload::default()
    };
    WorkloadDef {
        name: "flash_point",
        why: "2000 clients on 8 hot keys, both caches hot, HMAC signer, 3 simulated s: most sim events \
              and core glue per read; its 5% computed filters still take a large share of the host time",
        kind: Kind::Sim(Box::new(SimSpec {
            config,
            workload,
            sim_secs: if smoke { 2 } else { 3 },
            replay_queries: if smoke { 100 } else { 2_000 },
        })),
    }
}

/// `range_scan` at `scan_len` 256.
fn scan_pages(seed: u64, smoke: bool) -> WorkloadDef {
    let config = SystemConfig {
        n_shards: 1,
        n_masters: 3,
        n_slaves: 3,
        n_clients: 40,
        double_check_prob: 0.01,
        audit_fraction: 0.25,
        seed,
        ..SystemConfig::default()
    };
    let workload = Workload {
        dataset: DatasetSpec {
            n_products: 10_000,
            n_reviews: 2_000,
            n_files: 20,
            lines_per_file: 20,
            shared_block_lines: 0,
            hot_fraction: 0.0,
            skew: 0.0,
            seed,
        },
        reads_per_sec: 4.0,
        writes_per_sec: 0.1,
        writer_fraction: 0.1,
        mix: QueryMix {
            get: 10,
            scan: 90,
            scan_len: 256,
            ..mix_zero()
        },
        ..Workload::default()
    };
    WorkloadDef {
        name: "scan_pages",
        why: "40 clients paging 256-row verified scans over 10k rows, 12 simulated s: \
              store range proofs and the sha256 under them do most of the work; sim almost none",
        kind: Kind::Sim(Box::new(SimSpec {
            config,
            workload,
            sim_secs: if smoke { 2 } else { 12 },
            replay_queries: if smoke { 100 } else { 2_000 },
        })),
    }
}

/// `churn_100k` with sessions short enough that whole leave→rejoin cycles
/// fit in the run, and a write load that keeps all four sequencers busy.
fn churn_mix(seed: u64, smoke: bool) -> WorkloadDef {
    let config = SystemConfig {
        n_shards: 4,
        n_masters: 3,
        n_slaves: 4,
        n_clients: 2_000,
        double_check_prob: 0.005,
        audit_fraction: 0.25,
        max_latency: SimDuration::from_millis(2_000),
        snapshot_capacity: 32,
        max_write_batch: 8,
        seed,
        ..SystemConfig::default()
    };
    let workload = Workload {
        dataset: DatasetSpec {
            n_products: 100_000,
            n_reviews: 50_000,
            n_files: 100,
            lines_per_file: 10,
            shared_block_lines: 0,
            hot_fraction: 0.01,
            skew: 0.0,
            seed,
        },
        reads_per_sec: 0.5,
        writes_per_sec: 2.0,
        writer_fraction: 0.25,
        mix: QueryMix::catalogue(),
        diurnal: Some(DiurnalPattern {
            period: SimDuration::from_secs(30),
            trough: 0.2,
        }),
        churn: Some(ChurnModel {
            session: SimDuration::from_secs(4),
            offline: SimDuration::from_secs(2),
            fraction: 0.5,
        }),
        ..Workload::default()
    };
    WorkloadDef {
        name: "churn_mix",
        why: "4 shards, 2000 clients half churning over 100k+50k rows, catalogue mix, writes beside \
              reads, 8 simulated s: cache-cold computed queries, audits and rejoins; large setup and RSS",
        kind: Kind::Sim(Box::new(SimSpec {
            config,
            workload,
            sim_secs: if smoke { 2 } else { 8 },
            replay_queries: if smoke { 50 } else { 500 },
        })),
    }
}

/// The ROADMAP's "one point read, one 256-row scan, one 1 MiB stream"
/// with real hash-based signatures and no caches.
fn cold_mix(seed: u64, smoke: bool) -> WorkloadDef {
    WorkloadDef {
        name: "cold_mix",
        why: "no simulator: one replica, MSS-signed stamps, 80 rounds of 8 writes then 32 point reads, \
              8 scans of 256 rows and one 1 MiB stream, all checks on: crypto and store do all the work",
        kind: Kind::Cold(ColdSpec {
            dataset: DatasetSpec {
                n_products: 10_000,
                n_reviews: 2_000,
                n_files: 20,
                lines_per_file: 20,
                shared_block_lines: 0,
                hot_fraction: 0.0,
                skew: 0.0,
                seed,
            },
            file_bytes: 1 << 20,
            mss_height: 10,
            rounds: if smoke { 5 } else { 80 },
            writes_per_round: 8,
            points_per_round: 32,
            scans_per_round: 8,
            scan_len: 256,
        }),
    }
}
