//! The experiment table: one row per paper claim or scale study.
//!
//! A row names the registry scenario it runs (plus any in its `then`
//! list); each is looked up, given the CLI overrides, run (in the
//! simulator unless the row says otherwise), and passed through its
//! `derive` step, which attaches the claim's columns to the finished
//! [`RunReport`].  The same report then renders as the row's text table
//! or as JSON.

use crate::{print_report_table, BenchCli, Col};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sdr_baselines::{SchemeCosts, SignedState, SmrCluster};
use sdr_core::config::HashAlgo;
use sdr_core::messages::VersionStamp;
use sdr_core::pledge::{Pledge, ResultHash};
use sdr_core::scenario::{
    registry, CellReport, NamedSeries, RunRecord, RunReport, Runner, ScenarioSpec,
};
use sdr_crypto::{Digest, HmacSigner, MssKeypair, PublicKey, Sha1, Sha256, Signer, WotsKeypair};
use sdr_sim::{CostModel, LatencyModel, NodeId, SimDuration, SimTime};
use sdr_store::{execute, Database, Query, QueryResult, Value};
use serde::json::{ToJson, Value as Json};
use std::time::Instant;

/// One row of [`EXPERIMENT_TABLE`]: a paper claim, the registry scenario
/// that reproduces it, the columns derived from its report, and how it
/// renders as text.
pub struct Experiment {
    /// Registry name of the scenario the row runs; also the row's name.
    pub name: &'static str,
    /// Paper section(s) the claim comes from (`-`, the default, for
    /// scale studies).
    pub section: &'static str,
    /// The claim, in one line.
    pub claim: &'static str,
    run: fn(ScenarioSpec) -> Result<RunReport, String>,
    derive: fn(&mut RunReport),
    title: &'static str,
    cols: &'static [Col],
    /// Text lines computed from the report, printed between the table
    /// and the notes.
    footer: fn(&RunReport) -> Vec<String>,
    notes: &'static [&'static str],
    /// Further scenarios behind the same claim, each run and printed
    /// after this one (`e3_freshness` adds `e3_slow_client`).
    then: &'static [Experiment],
}

/// The defaults a row overrides: simulate, derive nothing, no footer.
const SIM: Experiment = Experiment {
    name: "",
    section: "-",
    claim: "",
    run: simulate,
    derive: |_| {},
    title: "",
    cols: &[],
    footer: |_| Vec::new(),
    notes: &[],
    then: &[],
};

fn simulate(spec: ScenarioSpec) -> Result<RunReport, String> {
    Runner::new(spec).run()
}

impl Experiment {
    /// The row called `name`, if any.
    pub fn find(name: &str) -> Option<&'static Experiment> {
        EXPERIMENT_TABLE.iter().find(|e| e.name == name)
    }

    /// This row, then the further scenarios behind the same claim, in
    /// output order.
    pub fn scenarios(&self) -> impl Iterator<Item = &Experiment> {
        std::iter::once(self).chain(self.then)
    }

    /// Runs each scenario with the CLI overrides applied, then derives
    /// its columns.
    pub fn run(&self, cli: &BenchCli) -> Result<Vec<RunReport>, String> {
        self.scenarios()
            .map(|e| {
                let mut spec = registry::lookup(e.name)
                    .ok_or_else(|| format!("scenario `{}` is not registered", e.name))?;
                cli.apply(&mut spec);
                let mut report = (e.run)(spec)?;
                (e.derive)(&mut report);
                Ok(report)
            })
            .collect()
    }

    /// Prints each scenario's table, footer and notes.
    pub fn print(&self, reports: &[RunReport]) {
        for (e, report) in self.scenarios().zip(reports) {
            print_report_table(e.title, report, e.cols);
            for line in (e.footer)(report) {
                println!("{line}");
            }
            for note in e.notes {
                println!("  note: {note}");
            }
        }
    }
}

/// A row's reports as one JSON value: the report, or an array of them
/// when the row runs several scenarios (`e3_freshness`).
pub fn reports_json(reports: &[RunReport]) -> Json {
    match reports {
        [one] => one.to_json(),
        many => Json::Array(many.iter().map(ToJson::to_json).collect()),
    }
}

/// Mean over a cell's runs of a per-run value.
fn per_run_mean(cell: &CellReport, value: impl Fn(&RunRecord) -> f64) -> f64 {
    cell.runs.iter().fold(0.0, |sum, r| sum + value(r)) / cell.runs.len().max(1) as f64
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 { num / den } else { 0.0 }
}

/// Mean utilisation of the masters serving double-checks: all but the
/// last, which is the auditor.
fn serving_master_util(r: &RunRecord) -> f64 {
    let util = &r.stats.master_utilisation;
    let nm = util.len();
    util[..nm - 1].iter().sum::<f64>() / (nm - 1) as f64
}

/// Attaches, given `(exclusion time, count)` per run that caught its
/// liar, the `caught/runs` annotation and the means over those runs of
/// the count (as `count_metric`) and of the time to exclusion (NaN when
/// no run caught it).
fn push_caught(cell: &mut CellReport, caught: &[(f64, f64)], count_metric: &str) {
    cell.push_annotation("caught_ratio", format!("{}/{}", caught.len(), cell.runs.len()));
    let n = caught.len() as f64;
    let mean = |pick: fn(&(f64, f64)) -> f64| {
        if caught.is_empty() { f64::NAN } else { caught.iter().map(pick).sum::<f64>() / n }
    };
    cell.push_metric(count_metric, mean(|&(_, c)| c));
    cell.push_metric("time_to_exclusion_s", mean(|&(t, _)| t));
}

/// A report for a row that runs no simulator: the spec's identity, one
/// cell per labelled row added later.
fn unsimulated(spec: &ScenarioSpec) -> RunReport {
    RunReport {
        scenario: spec.name.clone(),
        description: spec.description.clone(),
        duration_secs: 0.0,
        seeds: vec![spec.config.seed],
        cells: Vec::new(),
    }
}

/// Every experiment, in the order `experiment all` runs them.
pub const EXPERIMENT_TABLE: &[Experiment] = &[
    Experiment {
        name: "e1_detection",
        section: "§3.3",
        claim: "a client double-checks each read with probability p, so an always-lying slave survives ~1/p reads before it is caught red-handed",
        derive: e1_derive,
        title: "E1: detection speed vs double-check probability p (always-lying slave, audit off)",
        cols: &[
            Col::Coord { axis: "p", header: "p", prec: 3 },
            Col::Annot { name: "caught_ratio", header: "caught" },
            Col::Metric { name: "lies_before_exclusion", header: "lies before exclusion", prec: 1 },
            Col::Metric { name: "geometric", header: "geometric 1/p", prec: 1 },
            Col::Metric { name: "time_to_exclusion_s", header: "time to exclusion (s)", prec: 1 },
            Col::Field { field: "lies_told", header: "lies told (avg)", prec: 1 },
        ],
        notes: &["lies-before-exclusion should track 1/p: small p = slow immediate detection (paper relies on the audit as the backstop)."],
        ..SIM
    },
    Experiment {
        name: "e2_audit",
        section: "§3.4",
        claim: "full auditing catches the first accepted lie with certainty; auditing a fraction f lets ~1/f lies slip through first",
        derive: e2_derive,
        title: "E2: lies accepted before the audit's first catch vs audited fraction (always-liar, p=0)",
        cols: &[
            Col::Coord { axis: "audit fraction", header: "audit fraction", prec: 2 },
            Col::Annot { name: "caught_ratio", header: "caught" },
            Col::Metric { name: "lies_slipped", header: "lies slipped (avg)", prec: 1 },
            Col::Metric { name: "expected_slip", header: "expected ~1/fraction", prec: 1 },
            Col::Metric { name: "time_to_exclusion_s", header: "time to exclusion (s)", prec: 1 },
        ],
        notes: &["full audit catches the very first accepted lie (once its version bucket closes after max_latency); sampling f lets ~1/f lies through first — the paper's 'weaken the security guarantees' trade-off, with exclusion still guaranteed eventually."],
        ..SIM
    },
    // Every client sits behind a 50 ms WAN link, so the freshness budget
    // left after the keep-alive phase decides acceptance.
    Experiment {
        name: "e3_freshness",
        section: "§3.1–3.2",
        claim: "stale-on-arrival rejections stay rare for a keep-alive period well under max_latency; a slow client restores service by relaxing its own max_latency",
        derive: e3a_derive,
        title: "E3a: stale-read rate vs keep-alive period (max_latency = 1000 ms, 50 ms client links)",
        cols: &[
            Col::Coord { axis: "keepalive (ms)", header: "keepalive (ms)", prec: 0 },
            Col::Metric { name: "max_latency_ms", header: "max_latency (ms)", prec: 0 },
            Col::Metric { name: "stale_pct", header: "stale rejects (%)", prec: 2 },
        ],
        notes: &["as the keep-alive period approaches max_latency, stamps arrive at clients with little freshness budget left and rejections climb."],
        // One client behind a degrading link, with and without a relaxed
        // personal freshness bound (zipped axes).
        then: &[Experiment {
            name: "e3_slow_client",
            derive: e3b_derive,
            title: "E3b: a slow client starves under the global bound; its own relaxed max_latency restores service",
            cols: &[
                Col::Coord { axis: "client link median (ms)", header: "client link median (ms)", prec: 0 },
                Col::Metric { name: "bound_ms", header: "client max_latency (ms)", prec: 0 },
                Col::Metric { name: "slow_stale", header: "stale rejections", prec: 0 },
                Col::Metric { name: "slow_accept_pct", header: "reads accepted (%)", prec: 1 },
            ],
            notes: &["the paper's accommodation: slow clients set modest freshness expectations and become serviceable again."],
            ..SIM
        }],
        ..SIM
    },
    Experiment {
        name: "e4_writes",
        section: "§3.1, §6",
        claim: "two writes cannot be closer than max_latency, so write throughput is capped at 1/max_latency",
        derive: e4_derive,
        title: "E4: achievable write throughput vs max_latency (offered load 50 writes/s)",
        cols: &[
            Col::Coord { axis: "max_latency (ms)", header: "max_latency (ms)", prec: 0 },
            Col::Metric { name: "achieved_wps", header: "achieved writes/s", prec: 2 },
            Col::Metric { name: "bound_wps", header: "bound 1/max_latency", prec: 2 },
            Col::Metric { name: "bound_utilisation", header: "utilisation of bound", prec: 2 },
            Col::Metric { name: "write_p50_ms", header: "write latency p50 (ms)", prec: 1 },
            Col::Metric { name: "read_accept_pct", header: "reads accepted (%)", prec: 1 },
            Col::Field { field: "writes_denied", header: "writes denied", prec: 0 },
        ],
        notes: &[
            "committed writes track the 1/max_latency ceiling — the structural reason the paper restricts the design to read-heavy workloads.",
            "read service stays high throughout: lazy updates decouple reads from write admission.",
        ],
        ..SIM
    },
    Experiment {
        name: "e5_master_load",
        section: "§3.3",
        claim: "the double-check probability trades trusted (master) CPU for detection speed; slave load does not move",
        derive: e5_derive,
        title: "E5: trusted-host load vs double-check probability p (96 reads/s offered)",
        cols: &[
            Col::Coord { axis: "p", header: "p", prec: 2 },
            Col::Metric { name: "dc_rate", header: "measured DC rate", prec: 3 },
            Col::Metric { name: "serving_cpu_pct", header: "serving-master CPU (%)", prec: 2 },
            Col::Metric { name: "auditor_cpu_pct", header: "auditor CPU (%)", prec: 2 },
            Col::Metric { name: "slave_cpu_pct", header: "avg slave CPU (%)", prec: 2 },
        ],
        notes: &[
            "serving-master load grows linearly in p while slave load is flat — the knob trades trusted CPU for detection speed (E1).",
            "the auditor's load is independent of p: it re-executes every non-double-checked read regardless.",
        ],
        ..SIM
    },
    Experiment {
        name: "e6_comparison",
        section: "§1, §5",
        claim: "state signing forces dynamic queries onto trusted hosts and SMR multiplies untrusted compute by q; ours serves them on one untrusted host",
        run: e6_run,
        title: "E6: per-read cost comparison on an identical 2000-query stream",
        cols: &[
            Col::Label("scheme"),
            Col::Metric { name: "trusted_us_per_read", header: "trusted us/read", prec: 1 },
            Col::Metric { name: "untrusted_us_per_read", header: "untrusted us/read", prec: 1 },
            Col::Metric { name: "client_us_per_read", header: "client us/read", prec: 1 },
            Col::Metric { name: "latency_mean_ms", header: "latency mean (ms)", prec: 2 },
            Col::Annot { name: "guarantee", header: "guarantee" },
        ],
        footer: e6_footer,
        notes: &["shape to check: SMR's untrusted cost ≈ q × ours; SMR latency grows with q (slowest-member effect); state signing's trusted cost ≫ ours because every dynamic query runs on trusted hardware."],
        ..SIM
    },
    Experiment {
        name: "e7_auditor",
        section: "§3.4",
        claim: "the auditor lags at the daily peak and catches up overnight; its cache cuts re-execution work",
        derive: e7_derive,
        title: "E7: auditor backlog/lag over two compressed diurnal days (peak 144 reads/s)",
        cols: &[
            Col::Label("configuration"),
            Col::Metric { name: "peak_backlog", header: "peak backlog", prec: 0 },
            Col::Field { field: "audit_backlog", header: "final backlog", prec: 0 },
            Col::Metric { name: "peak_lag_ms", header: "peak lag (ms)", prec: 1 },
            Col::Metric { name: "final_lag_ms", header: "final lag (ms)", prec: 1 },
            Col::Metric { name: "cache_hit_rate", header: "cache hit rate", prec: 2 },
        ],
        footer: e7_footer,
        notes: &["backlog swells at the midday peak and drains overnight; the cache cuts re-execution work; a starved auditor without cache ends the day still behind — the paper's cue to add auditors or sample."],
        ..SIM
    },
    Experiment {
        name: "e8_greedy",
        section: "§3.3",
        claim: "a master spots a greedy client by its double-check rate and ignores most of its requests",
        derive: e8_derive,
        title: "E8: greedy-client throttling vs greediness (honest p = 0.02, window 30 s)",
        cols: &[
            Col::Coord { axis: "greedy client p", header: "greedy client p", prec: 2 },
            Col::Metric { name: "greedy_dc_sent", header: "greedy DCs sent", prec: 0 },
            Col::Metric { name: "greedy_throttled_pct", header: "greedy throttled (%)", prec: 1 },
            Col::Metric { name: "honest_dc_sent", header: "honest DCs sent", prec: 0 },
            Col::Metric { name: "honest_throttled_pct", header: "honest throttled (%)", prec: 1 },
        ],
        notes: &["at p = 0.02 the 'greedy' client is indistinguishable from honest (false-positive row ≈ 0%); as its rate departs from the population median the master ignores most of its quota abuse."],
        ..SIM
    },
    Experiment {
        name: "e9_quorum_reads",
        section: "§4",
        claim: "sending each read to k slaves means k liars must collude to pass a wrong answer, at k times the untrusted compute",
        derive: e9_derive,
        title: "E9: quorum reads vs colluding liars (6 slaves, lie prob 0.3, p=0 and audit off)",
        cols: &[
            Col::Coord { axis: "read quorum k", header: "read quorum k", prec: 0 },
            Col::Coord { axis: "colluders", header: "colluders", prec: 0 },
            Col::Field { field: "lies_told", header: "lies told", prec: 0 },
            Col::Field { field: "wrong_accepted", header: "wrong accepted", prec: 0 },
            Col::Field { field: "dc_sent", header: "auto double-checks", prec: 0 },
            Col::Metric { name: "untrusted_us_per_read", header: "untrusted us/read", prec: 0 },
        ],
        notes: &[
            "k=1 accepts every consistent lie (nothing else checks here); k>=2 accepts a lie only when ALL k assigned slaves collude on it, and any disagreement triggers a mandatory double-check.",
            "untrusted us/read grows ~k-fold — the paper's 'more computing resources … but these resources need not be trusted'.",
        ],
        ..SIM
    },
    Experiment {
        name: "e10_levels",
        section: "§4",
        claim: "security-sensitive reads run on trusted hosts: always correct, at the price of master load",
        derive: e10_derive,
        title: "E10: sensitive-read fraction vs correctness and trusted load (one liar, checks disabled)",
        cols: &[
            Col::Coord { axis: "sensitive fraction", header: "sensitive fraction", prec: 2 },
            Col::Field { field: "reads_sensitive", header: "sensitive reads", prec: 0 },
            Col::Field { field: "wrong_accepted", header: "wrong accepted", prec: 0 },
            Col::Metric { name: "wrong_rate_pct", header: "wrong rate (%)", prec: 2 },
            Col::Metric { name: "serving_cpu_pct", header: "serving-master CPU (%)", prec: 2 },
        ],
        notes: &["wrong answers come only from the normal (slave) path: at fraction 1.0 every read runs on trusted hardware and the wrong rate is exactly 0, with master CPU scaling up accordingly."],
        ..SIM
    },
    Experiment {
        name: "e11_crypto",
        section: "§3.2, §3.4",
        claim: "pledges are cheap to verify but expensive to sign, and hashing the result is the client's main cost (wall clock)",
        run: e11_run,
        title: "E11: measured crypto costs (wall clock)",
        cols: &[Col::Label("operation"), Col::Metric { name: "us_per_op", header: "us/op", prec: 2 }],
        footer: e11_footer,
        notes: &["the auditor never signs: per checked pledge it saves one full sign (the single most expensive operation above)."],
        ..SIM
    },
    Experiment {
        name: "e12_failover",
        section: "§3",
        claim: "when a master crashes the survivors divide its slaves and its clients redo setup",
        run: e12_run,
        derive: e12_derive,
        title: "E12: master crash at t=20s (4 masters, 8 slaves, 12 clients; run to t=80s)",
        cols: &[
            Col::Label("crashed master"),
            Col::Annot { name: "survivor_slaves", header: "slaves owned by survivors" },
            Col::Metric { name: "re_setups", header: "client re-setups", prec: 0 },
            Col::Metric { name: "post_accept_pct", header: "post-crash accept rate (%)", prec: 1 },
            Col::Metric { name: "post_writes", header: "post-crash writes", prec: 0 },
            Col::Metric { name: "post_failed_reads", header: "post-crash failed reads", prec: 0 },
        ],
        notes: &["all 8 slaves end up owned by survivors (deterministic division); clients of the dead master redo setup and service continues, including writes ordered by the new sequencer."],
        ..SIM
    },
    Experiment {
        name: "sharded_commit",
        claim: "splitting the key space across master subgroups multiplies the 1/max_latency write ceiling by the shard count",
        title: "sharded_commit: committed writes vs shard count (saturating write demand)",
        cols: &[
            Col::Coord { axis: "shards", header: "shards", prec: 0 },
            Col::Field { field: "writes_committed", header: "committed writes", prec: 1 },
        ],
        ..SIM
    },
    Experiment {
        name: "batched_commit",
        claim: "one signed digest stamp per write round lets committed writes track the batch bound",
        title: "batched_commit: committed writes vs sequencer batch size (one shard)",
        cols: &[
            Col::Coord { axis: "batch", header: "batch", prec: 0 },
            Col::Field { field: "writes_committed", header: "committed writes", prec: 1 },
        ],
        ..SIM
    },
    Experiment {
        name: "cdn_media",
        claim: "media served as verified chunk streams; shared segments are stored once at the edge",
        title: "cdn_media: chunk dedup and verified streams vs shared content",
        cols: &[
            Col::Coord { axis: "shared lines", header: "shared lines", prec: 0 },
            Col::Field { field: "chunk_dedup_ratio", header: "dedup ratio", prec: 3 },
            Col::Field { field: "stream_reads_accepted", header: "streams accepted", prec: 1 },
        ],
        ..SIM
    },
    Experiment {
        name: "churn_100k",
        claim: "2000 churning clients over a 100k-row, four-shard catalogue keep reading with no wrong answer",
        title: "churn_100k: clients churning over a 100k-row catalogue",
        cols: &[
            Col::Field { field: "churn_joins", header: "joins", prec: 0 },
            Col::Field { field: "churn_leaves", header: "leaves", prec: 0 },
            Col::Field { field: "reads_accepted", header: "reads accepted", prec: 0 },
            Col::Field { field: "sim_queue_peak", header: "queue peak", prec: 0 },
            Col::Field { field: "msg_sharing_ratio", header: "sharing (x)", prec: 2 },
        ],
        ..SIM
    },
    Experiment {
        name: "flash_crowd",
        claim: "under a flash crowd on a few hot keys the slave's reply cache answers almost every proof read",
        title: "flash_crowd: hot-read caches vs key skew (2000 clients, 8 hot keys)",
        cols: &[
            Col::Coord { axis: "skew", header: "skew", prec: 2 },
            Col::Field { field: "proof_cache_hit_rate", header: "proof cache hit rate", prec: 3 },
            Col::Field { field: "stamp_cache_hits", header: "stamp hits", prec: 0 },
            Col::Field { field: "wrong_accepted", header: "wrong accepts", prec: 0 },
        ],
        ..SIM
    },
    Experiment {
        name: "range_scan",
        claim: "one range proof covers a whole page, so verify cost per row falls as scans widen",
        title: "range_scan: verified range reads vs page size (10k rows)",
        cols: &[
            Col::Coord { axis: "scan rows", header: "scan rows", prec: 0 },
            Col::Field { field: "range_rows_verified", header: "rows verified", prec: 0 },
            Col::Field { field: "range_proof_bytes", header: "range proof bytes", prec: 0 },
            Col::Field { field: "wrong_accepted", header: "wrong accepts", prec: 0 },
        ],
        ..SIM
    },
];

fn e1_derive(report: &mut RunReport) {
    for cell in &mut report.cells {
        let p = cell.coord("p").unwrap_or(0.0);
        // (time of first exclusion, lies the liar got to tell) per caught run.
        let caught: Vec<(f64, f64)> = cell
            .runs
            .iter()
            .filter_map(|r| {
                r.first_point("exclusion.at_us")
                    .map(|(t, _)| (t, r.stats.lies_told as f64))
            })
            .collect();
        cell.push_metric("caught", caught.len() as f64);
        cell.push_metric("runs", cell.runs.len() as f64);
        cell.push_metric("geometric", 1.0 / p);
        push_caught(cell, &caught, "lies_before_exclusion");
    }
}

fn e2_derive(report: &mut RunReport) {
    for cell in &mut report.cells {
        let frac = cell.coord("audit fraction").unwrap_or(1.0);
        // Per caught run: (first exclusion instant, lies accepted first).
        let caught: Vec<(f64, f64)> = cell
            .runs
            .iter()
            .filter(|r| r.stats.exclusions >= 1)
            .map(|r| {
                (
                    r.first_point("exclusion.at_us").map_or(0.0, |(t, _)| t),
                    r.stats.wrong_accepted as f64,
                )
            })
            .collect();
        cell.push_metric("expected_slip", 1.0 / frac);
        push_caught(cell, &caught, "lies_slipped");
    }
}

fn e3a_derive(report: &mut RunReport) {
    for cell in &mut report.cells {
        let stale_rate = ratio(cell.mean("rejected_stale"), cell.mean("reads_issued"));
        cell.push_metric("stale_pct", stale_rate * 100.0);
        cell.push_metric("max_latency_ms", 1000.0);
    }
}

fn e3b_derive(report: &mut RunReport) {
    for cell in &mut report.cells {
        // Client 0 is the slow one.
        let stale = per_run_mean(cell, |r| {
            r.stats.per_client.first().map_or(0.0, |c| c.stale_rejections as f64)
        });
        let accept = per_run_mean(cell, |r| {
            r.stats.per_client.first().map_or(0.0, |c| {
                ratio(c.reads_accepted as f64, c.reads_issued as f64)
            })
        });
        cell.push_metric("slow_stale", stale);
        cell.push_metric("slow_accept_pct", accept * 100.0);
        // Render "global bound" (0) as the 1000 ms default.
        let bound = cell.coord("client max_latency (ms)").unwrap_or(0.0);
        cell.push_metric("bound_ms", if bound > 0.0 { bound } else { 1000.0 });
    }
}

fn e4_derive(report: &mut RunReport) {
    let run_secs = report.duration_secs;
    for cell in &mut report.cells {
        let ml = cell.coord("max_latency (ms)").unwrap_or(1.0);
        let achieved = cell.mean("writes_committed") / run_secs;
        let bound = 1_000.0 / ml;
        cell.push_metric("achieved_wps", achieved);
        cell.push_metric("bound_wps", bound);
        cell.push_metric("bound_utilisation", achieved / bound);
        let accept = ratio(cell.mean("reads_accepted"), cell.mean("reads_issued")) * 100.0;
        cell.push_metric("read_accept_pct", accept);
        cell.push_metric("write_p50_ms", cell.mean("write_latency_p50") / 1000.0);
    }
}

fn e5_derive(report: &mut RunReport) {
    for cell in &mut report.cells {
        let dc_rate = per_run_mean(cell, |r| {
            ratio(r.stats.dc_sent as f64, r.stats.reads_issued as f64)
        });
        let serving = per_run_mean(cell, serving_master_util);
        let auditor = per_run_mean(cell, |r| {
            r.stats.master_utilisation.last().copied().unwrap_or(0.0)
        });
        let slave = per_run_mean(cell, |r| {
            let util = &r.stats.slave_utilisation;
            util.iter().sum::<f64>() / util.len() as f64
        });
        cell.push_metric("dc_rate", dc_rate);
        cell.push_metric("serving_cpu_pct", serving * 100.0);
        cell.push_metric("auditor_cpu_pct", auditor * 100.0);
        cell.push_metric("slave_cpu_pct", slave * 100.0);
    }
}

/// All three schemes execute the *same* sampled query stream over the
/// *same* content with the *same* cost model; no simulated system runs,
/// so the spec contributes the dataset, query mix and seed, and each
/// scheme becomes one labelled cell.
fn e6_run(spec: ScenarioSpec) -> Result<RunReport, String> {
    let costs = CostModel::standard();
    let dataset = spec.workload.dataset;
    let db = dataset.build();
    let mix = spec.workload.mix;
    let mut rng = SmallRng::seed_from_u64(spec.config.seed);
    let n_queries = 2_000usize;
    let queries: Vec<_> = (0..n_queries).map(|_| mix.sample(&mut rng, &dataset)).collect();

    let mut report = unsimulated(&spec);
    let mut add_cell = |label: &str, c: &SchemeCosts, lat_sum: u64, guarantee: &str| {
        let mut cell = CellReport { label: label.into(), ..CellReport::default() };
        let per = |d: SimDuration| d.as_micros() as f64 / n_queries as f64;
        cell.push_metric("trusted_us_per_read", per(c.trusted));
        cell.push_metric("untrusted_us_per_read", per(c.untrusted));
        cell.push_metric("client_us_per_read", per(c.client));
        cell.push_metric("latency_mean_ms", lat_sum as f64 / n_queries as f64 / 1000.0);
        cell.push_annotation("guarantee", guarantee);
        report.cells.push(cell);
    };

    // --- Ours: slave executes + signs; client hashes + verifies twice;
    // trusted side pays p × double-check plus the audit re-execution
    // (cache-discounted).
    let p = 0.02;
    let audit_cache_hit = 0.5; // Measured in E7; conservative here.
    let mut ours = SchemeCosts::default();
    let mut ours_lat_sum = 0u64;
    let link = LatencyModel::LogNormal {
        median: SimDuration::from_millis(10),
        sigma: 0.4,
    };
    for q in &queries {
        let (r, qc) = execute(&db, q).expect("query ok");
        let exec = costs.query_fixed
            + costs.row_scan * qc.rows_scanned
            + costs.index_probe * qc.index_probes
            + costs.grep_cost(qc.bytes_processed as usize);
        let per = SchemeCosts {
            untrusted: exec + costs.hash_cost(r.size()) + costs.sign,
            client: costs.hash_cost(r.size()) + costs.verify * 2,
            trusted: (exec + costs.hash_cost(r.size())).mul_f64(p)
                + (exec.mul_f64(1.0 - audit_cache_hit) + costs.cache_lookup + costs.verify * 2)
                    .mul_f64(1.0 - p),
            wire_bytes: (r.size() + 200) as u64,
            latency: SimDuration::ZERO,
        };
        // Client latency: one round trip to the slave + slave work.
        let rtt = link.sample(&mut rng) + link.sample(&mut rng);
        ours_lat_sum += (rtt + per.untrusted).as_micros();
        ours.accumulate(&per);
    }
    let guarantee = "statistical + eventual detection";
    add_cell("ours (p=0.02 + full audit)", &ours, ours_lat_sum, guarantee);

    // --- State signing.
    let (signed, owner_pk, _) = e6_publish(db.clone(), &costs);
    let mut ss = SchemeCosts::default();
    let mut ss_lat_sum = 0u64;
    for q in &queries {
        let (_, c) = signed.serve_query(q, &owner_pk, &costs).expect("serve");
        let rtt = link.sample(&mut rng) + link.sample(&mut rng);
        // Dynamic queries add a hop to the trusted host.
        let extra = if c.trusted > SimDuration::ZERO {
            link.sample(&mut rng) + link.sample(&mut rng)
        } else {
            SimDuration::ZERO
        };
        ss_lat_sum += (rtt + extra + c.trusted + c.untrusted).as_micros();
        ss.accumulate(&c);
    }
    add_cell("state signing", &ss, ss_lat_sum, "immediate (static reads only)");

    // --- SMR at several quorum sizes.
    for &q in &[4usize, 7, 10] {
        let cluster = SmrCluster::new(&db, q, &[], link);
        let mut smr = SchemeCosts::default();
        let mut lat_sum = 0u64;
        for query in &queries {
            let o = cluster.quorum_read(query, q, &costs, &mut rng).expect("quorum read");
            lat_sum += o.costs.latency.as_micros();
            smr.accumulate(&o.costs);
        }
        let guarantee = "immediate (needs majority honest)";
        add_cell(&format!("SMR (q={q})"), &smr, lat_sum, guarantee);
    }
    Ok(report)
}

/// The state-signing baseline: the owner signs the content once.
fn e6_publish(db: Database, costs: &CostModel) -> (SignedState, PublicKey, SimDuration) {
    let mut owner = HmacSigner::from_seed_label(62, b"owner");
    let owner_pk = owner.public_key();
    let (signed, publish_cost) = SignedState::publish(db, &mut owner, costs).expect("publish");
    (signed, owner_pk, publish_cost)
}

/// The publish cost is no report column, so the text view signs the
/// registry content again to state it.
fn e6_footer(_: &RunReport) -> Vec<String> {
    let spec = registry::lookup("e6_comparison").expect("registered");
    let (signed, _, cost) = e6_publish(spec.workload.dataset.build(), &CostModel::standard());
    let leaves = signed.leaf_count();
    vec![format!("  note: state-signing publish cost (per content update): {cost} of trusted CPU over {leaves} leaves — paid again on every write.")]
}

fn e7_derive(report: &mut RunReport) {
    for cell in &mut report.cells {
        let cache_on = cell.coord("cache").unwrap_or(1.0) != 0.0;
        let slice = cell.coord("audit slice (ms)").unwrap_or(0.0);
        cell.label = format!(
            "cache {}, {} CPU",
            if cache_on { "on" } else { "off" },
            if slice >= 10.0 { "generous" } else { "starved" }
        );

        // Series-derived peaks come from the first run (one seed here).
        let (peak_backlog, peak_lag, final_lag) = cell
            .runs
            .first()
            .map(|r| {
                let lag = r.series("audit.lag_us").map(|s| s.points.as_slice()).unwrap_or(&[]);
                (
                    backlog(r).iter().map(|&(_, v)| v).fold(0.0, f64::max),
                    lag.iter().map(|&(_, v)| v / 1000.0).fold(0.0, f64::max),
                    lag.last().map(|&(_, v)| v / 1000.0).unwrap_or(0.0),
                )
            })
            .unwrap_or((0.0, 0.0, 0.0));
        let hits = cell.mean("audit_cache_hits");
        let checked = cell.mean("audit_checked");
        cell.push_metric("peak_backlog", peak_backlog);
        cell.push_metric("peak_lag_ms", peak_lag);
        cell.push_metric("final_lag_ms", final_lag);
        cell.push_metric("cache_hit_rate", ratio(hits, hits + checked));
    }
}

fn backlog(r: &RunRecord) -> &[(f64, f64)] {
    r.series("audit.backlog").map(|s| s.points.as_slice()).unwrap_or(&[])
}

fn e7_footer(report: &RunReport) -> Vec<String> {
    let mut lines =
        vec!["\n  backlog over time (two days; expect humps at the two midday peaks):".to_string()];
    for cell in &report.cells {
        let shape = cell.runs.first().map(|r| sparkline(backlog(r), 48)).unwrap_or_default();
        lines.push(format!("  {:>26}  |{shape}|", cell.label));
    }
    lines
}

fn sparkline(series: &[(f64, f64)], buckets: usize) -> String {
    if series.is_empty() {
        return String::new();
    }
    let t_max = series.last().map(|(t, _)| *t).unwrap_or(1.0);
    let mut maxima = vec![0.0f64; buckets];
    for (t, v) in series {
        let b = ((t / t_max) * (buckets as f64 - 1.0)) as usize;
        maxima[b] = maxima[b].max(*v);
    }
    let peak = maxima.iter().copied().fold(1.0f64, f64::max);
    const BARS: [char; 8] = [' ', '.', ':', '-', '=', '+', '*', '#'];
    maxima
        .iter()
        .map(|v| BARS[((v / peak) * 7.0).round() as usize])
        .collect()
}

fn e8_derive(report: &mut RunReport) {
    for cell in &mut report.cells {
        // Client 0 is the greedy one; the rest are honest.
        let honest = |r: &RunRecord| {
            let rest = &r.stats.per_client[1..];
            let sent: u64 = rest.iter().map(|c| c.dc_sent).sum();
            let throttled: u64 = rest.iter().map(|c| c.dc_throttled).sum();
            (sent as f64, throttled as f64)
        };
        let g_sent = per_run_mean(cell, |r| r.stats.per_client[0].dc_sent as f64);
        let g_rate = per_run_mean(cell, |r| {
            let g = &r.stats.per_client[0];
            ratio(g.dc_throttled as f64, g.dc_sent as f64)
        });
        let h_sent = per_run_mean(cell, |r| honest(r).0);
        let h_rate = per_run_mean(cell, |r| {
            let (sent, throttled) = honest(r);
            ratio(throttled, sent)
        });
        cell.push_metric("greedy_dc_sent", g_sent);
        cell.push_metric("greedy_throttled_pct", g_rate * 100.0);
        cell.push_metric("honest_dc_sent", h_sent);
        cell.push_metric("honest_throttled_pct", h_rate * 100.0);
    }
}

fn e9_derive(report: &mut RunReport) {
    let duration_secs = report.duration_secs;
    for cell in &mut report.cells {
        let untrusted = per_run_mean(cell, |r| {
            ratio(
                r.stats.slave_utilisation.iter().sum::<f64>() * duration_secs * 1e6,
                r.stats.reads_accepted as f64,
            )
        });
        cell.push_metric("untrusted_us_per_read", untrusted);
    }
}

fn e10_derive(report: &mut RunReport) {
    for cell in &mut report.cells {
        let serving = per_run_mean(cell, serving_master_util);
        cell.push_metric("serving_cpu_pct", serving * 100.0);
        cell.push_metric("wrong_rate_pct", cell.mean("wrong_accept_rate") * 100.0);
    }
}

/// Mean wall-clock µs per call of `body` over `iters` calls.
fn time_us<T>(iters: u32, mut body: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(body());
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
}

/// Wall-clock-times the real primitives (criterion benches in `benches/`
/// give the rigorous numbers); each timed operation becomes one cell.
fn e11_run(spec: ScenarioSpec) -> Result<RunReport, String> {
    let mut report = unsimulated(&spec);
    let mut add = |label: &str, us: f64| {
        let mut cell = CellReport { label: label.into(), ..CellReport::default() };
        cell.push_metric("us_per_op", us);
        report.cells.push(cell);
    };

    let data_1k = vec![0xabu8; 1024];
    let data_64k = vec![0xcdu8; 65536];
    add("SHA-1 1 KiB", time_us(2000, || Sha1::digest(&data_1k)));
    add(SHA256_1K, time_us(2000, || Sha256::digest(&data_1k)));
    add("SHA-256 64 KiB", time_us(200, || Sha256::digest(&data_64k)));

    // WOTS one-time signatures.
    add("WOTS keygen", time_us(50, || WotsKeypair::from_seed(&[7u8; 32])));
    let kp = WotsKeypair::from_seed(&[7u8; 32]);
    let sig = kp.sign_unchecked(b"message");
    add("WOTS sign", time_us(100, || kp.sign_unchecked(b"message")));
    let pk = kp.public_key();
    let wots_verify = || WotsKeypair::verify(&pk, b"message", &sig).expect("valid");
    add("WOTS verify", time_us(100, wots_verify));

    // MSS (height 8 = 256 signatures).
    let mss_keygen = || MssKeypair::generate([9u8; 32], 8).expect("keygen");
    add("MSS keygen (h=8)", time_us(3, mss_keygen));
    let mut mss = mss_keygen();
    let mpk = mss.public_key();
    let msig = mss.sign(b"message").expect("capacity");
    add(MSS_SIGN, time_us(100, || mss.clone().sign(b"message").expect("capacity")));
    let mss_verify = || MssKeypair::verify(&mpk, b"message", &msig).expect("valid");
    add("MSS verify", time_us(100, mss_verify));

    // Pledge build/verify with the HMAC signer scheme.
    let mut master = HmacSigner::from_seed_label(1, b"master");
    let stamp = VersionStamp::build(5, SimTime::from_millis(1), NodeId(0), &mut master)
        .expect("stamp");
    let result = QueryResult::Scalar(Value::Int(42));
    let query = Query::GetRow {
        table: "products".into(),
        key: 7,
    };
    let mut slave = HmacSigner::from_seed_label(2, b"slave");
    let mut build = || {
        let hash = ResultHash::of(&result, HashAlgo::Sha1);
        Pledge::build(query.clone(), hash, stamp.clone(), NodeId(3), &mut slave).expect("pledge")
    };
    add("pledge build (HMAC signer)", time_us(1000, &mut build));
    let pledge = build();
    let spk = slave.public_key();
    let pledge_verify = || pledge.verify_signature(&spk).expect("valid");
    add("pledge verify (HMAC signer)", time_us(1000, pledge_verify));
    Ok(report)
}

const SHA256_1K: &str = "SHA-256 1 KiB";
const MSS_SIGN: &str = "MSS sign";

fn e11_footer(report: &RunReport) -> Vec<String> {
    let cells = &report.cells;
    let us = |label| cells.iter().find(|c| c.label == label).and_then(|c| c.metric("us_per_op"));
    let ratio = us(MSS_SIGN).unwrap_or(0.0) / us(SHA256_1K).unwrap_or(0.0).max(0.001);
    vec![format!("  note: MSS sign is {ratio:.0}x a 1 KiB hash — the sign >> verify >> hash shape the cost model encodes (sign=2500us vs hash_per_kib=4us at paper-era RSA scale).")]
}

/// Runs with a probe that counts survivor-owned slaves after the crash.
fn e12_run(spec: ScenarioSpec) -> Result<RunReport, String> {
    let n_masters = spec.config.n_masters;
    Runner::new(spec)
        .probe(move |sys, record| {
            // Ownership after the crash: every slave should sit with a
            // surviving master.
            let mut survivor_slaves = 0usize;
            for rank in 0..n_masters {
                if !sys.world.is_crashed(sys.masters[rank]) {
                    survivor_slaves += sys.with_master(rank, |m| m.slaves().len());
                }
            }
            // A one-point series carries the probe's finding into the
            // record (and therefore into the JSON report).
            record.series.push(NamedSeries {
                name: "survivor_slaves".into(),
                points: vec![(0.0, survivor_slaves as f64)],
            });
        })
        .run()
}

fn e12_derive(report: &mut RunReport) {
    for cell in &mut report.cells {
        let rank = cell.coord("crashed rank").unwrap_or(0.0) as usize;
        cell.label = if rank == 0 {
            "sequencer (rank 0)".into()
        } else {
            format!("mid master (rank {rank})")
        };
        let n_slaves = cell.runs.first().map_or(0, |r| r.stats.slave_utilisation.len());
        // Post-crash deltas against the checkpoint taken at the crash
        // instant: (reads issued, accepted, failed; writes committed).
        let after = |r: &RunRecord| {
            let (s, b) = (&r.stats, r.checkpoints.first().map(|c| &c.stats));
            let (bi, ba, bf, bw) = b.map_or((0, 0, 0, 0), |b| {
                (b.reads_issued, b.reads_accepted, b.reads_failed, b.writes_committed)
            });
            (s.reads_issued - bi, s.reads_accepted - ba, s.reads_failed - bf, s.writes_committed - bw)
        };
        let survivors =
            per_run_mean(cell, |r| r.first_point("survivor_slaves").map_or(0.0, |(_, v)| v));
        let re_setups = per_run_mean(cell, |r| {
            r.stats.per_client.iter().map(|c| c.re_setups).sum::<u64>() as f64
        });
        let accept_pct = per_run_mean(cell, |r| {
            let (issued, accepted, _, _) = after(r);
            accepted as f64 / issued.max(1) as f64 * 100.0
        });
        let writes = per_run_mean(cell, |r| after(r).3 as f64);
        let failed = per_run_mean(cell, |r| after(r).2 as f64);
        cell.push_annotation("survivor_slaves", format!("{}/{n_slaves}", survivors as usize));
        cell.push_metric("re_setups", re_setups);
        cell.push_metric("post_accept_pct", accept_pct);
        cell.push_metric("post_writes", writes);
        cell.push_metric("post_failed_reads", failed);
    }
}
