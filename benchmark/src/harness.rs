//! The parent side: runs every repetition in its own child process, one
//! at a time, and folds their reports into medians.
//!
//! A child per repetition keeps `peak_rss_mib` and allocator state per
//! repetition, and makes set-up time (process start to first timed
//! operation) something every repetition measures afresh.

use crate::child::ChildReport;
use crate::metrics::END_TO_END;
use crate::quantile::{median, Quartiles};
use crate::report::{per_layer_complete, SetResult, WorkloadResult};
use crate::workloads::{self, NAMES};
use serde::json::Value;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

/// What every run of one workload shares.
#[derive(Clone, Debug)]
pub struct RunOpts {
    pub seed: u64,
    pub smoke: bool,
    /// Self-test hook: `cold_mix` leaves one tamper probe untampered, so
    /// the gate "every probe is rejected" must fail the run.
    pub sabotage: bool,
}

/// Fewest repetitions a median is taken over.
const MIN_REPS: usize = 3;
/// No run spends longer than this repeating, whatever `--seconds` says,
/// so that a traced run after it still ends well inside the driver's
/// 180-second limit.
const MAX_REPEAT_SECONDS: f64 = 100.0;

fn spawn(
    workload: &str,
    opts: &RunOpts,
    mode: &str,
    base_wall_s: Option<f64>,
) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "child",
        "--workload",
        workload,
        "--seed",
        &opts.seed.to_string(),
        "--mode",
        mode,
    ]);
    if let Some(w) = base_wall_s {
        cmd.args(["--base-wall-s", &w.to_string()]);
    }
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if opts.sabotage {
        cmd.arg("--sabotage");
    }
    // `output` waits for the child to end before returning.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} child ({mode}) ended with {}",
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let v = Value::parse(line).map_err(|e| format!("child output is not JSON: {e:?}"))?;
    ChildReport::from_json(&v)
}

/// One timed repetition.  Every repetition made is reported on stderr,
/// not only the median they fold into.
fn timed_rep(workload: &str, opts: &RunOpts, index: usize) -> Result<ChildReport, String> {
    let rep = spawn(workload, opts, "timed", None)?;
    let shown: Vec<String> = END_TO_END
        .iter()
        .filter_map(|m| {
            rep.metrics
                .get(m.name)
                .map(|v| format!("{}={v:.4}", m.name))
        })
        .collect();
    eprintln!("[{workload}] repetition {}: {}", index + 1, shown.join(" "));
    Ok(rep)
}

fn push_unique(violations: &mut Vec<String>, more: &[String]) {
    for v in more {
        if !violations.contains(v) {
            violations.push(v.clone());
        }
    }
}

fn samples(reps: &[ChildReport], key: &str) -> Vec<f64> {
    reps.iter()
        .filter_map(|r| r.metrics.get(key).copied())
        .collect()
}

/// Folds the timed repetitions of one workload into medians and checks
/// they all did the same work.
pub fn fold_reps(name: &str, why: &str, reps: &[ChildReport]) -> WorkloadResult {
    let first = reps.first().expect("at least one repetition");
    let mut violations: Vec<String> = Vec::new();
    for r in reps {
        push_unique(&mut violations, &r.violations);
    }
    if reps.iter().any(|r| r.fingerprint != first.fingerprint) {
        violations.push("repetitions of one seed produced different fingerprints".into());
    }
    if reps
        .iter()
        .any(|r| (r.attempted, r.failed) != (first.attempted, first.failed))
    {
        violations.push("repetitions of one seed attempted or failed different operations".into());
    }
    if first.attempted == 0 {
        violations.push("no operation was attempted".into());
    }
    let mut end_to_end = BTreeMap::new();
    for m in END_TO_END {
        let values = samples(reps, m.name);
        if values.len() == reps.len() {
            end_to_end.insert(m.name.to_string(), Quartiles::of(&values));
        } else {
            violations.push(format!("metric {} missing from a repetition", m.name));
        }
    }
    WorkloadResult {
        name: name.to_string(),
        why: why.to_string(),
        fingerprint: first.fingerprint.clone(),
        ops_attempted: first.attempted,
        ops_failed: first.failed,
        violations,
        end_to_end,
        per_layer: BTreeMap::new(),
    }
}

/// One traced run, judged against the timed repetitions it follows.
pub fn traced(
    result: &mut WorkloadResult,
    reps: &[ChildReport],
    opts: &RunOpts,
) -> Result<(), String> {
    let base_wall_s = median(&samples(reps, "wall_s"));
    let t = spawn(&result.name, opts, "traced", Some(base_wall_s))?;
    push_unique(&mut result.violations, &t.violations);
    if t.fingerprint != result.fingerprint {
        result
            .violations
            .push("the traced run did different work from the timed runs".into());
    }
    let mut values = t.metrics;
    // The write side of `cold_mix` is a timed-run number; the traced run's
    // own copy carries the tracing overhead.
    let commits = samples(reps, "commits_per_s");
    if !commits.is_empty() {
        values.insert("commits_per_s".into(), median(&commits));
    }
    values.insert(
        "host.cpu_over_wall".into(),
        median(&samples(reps, "cpu_over_wall")),
    );
    values.insert(
        "host.rep_iqr_share".into(),
        Quartiles::of(&samples(reps, "reads_per_s")).iqr_share(),
    );
    result.per_layer = per_layer_complete(&values);
    Ok(())
}

fn describe(name: &str, opts: &RunOpts) -> Result<&'static str, String> {
    workloads::lookup(name, opts.seed, opts.smoke)
        .map(|d| d.why)
        .ok_or_else(|| format!("unknown workload `{name}` (known: {})", NAMES.join(", ")))
}

/// One workload, repeated until `seconds` have passed (at least three
/// repetitions; one at smoke size).  With `trace`, half the time goes to
/// repetitions and a traced run follows.
pub fn one_workload(
    name: &str,
    opts: &RunOpts,
    seconds: f64,
    trace: bool,
) -> Result<WorkloadResult, String> {
    let why = describe(name, opts)?;
    let budget = (if trace { seconds / 2.0 } else { seconds }).min(MAX_REPEAT_SECONDS);
    let min_reps = match (opts.smoke, trace) {
        (true, _) => 1,
        (false, true) => 2,
        (false, false) => MIN_REPS,
    };
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps || (!opts.smoke && started.elapsed().as_secs_f64() < budget) {
        let rep = timed_rep(name, opts, reps.len())?;
        reps.push(rep);
    }
    let mut result = fold_reps(name, why, &reps);
    if trace {
        traced(&mut result, &reps, opts)?;
    }
    Ok(result)
}

fn host_facts() -> BTreeMap<String, String> {
    let mut h = BTreeMap::new();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    h.insert("available_parallelism".into(), cores.to_string());
    h
}

/// `sets` full sets at once.  Each is `reps` repetitions of every
/// workload plus one traced run per workload; the repetitions of all sets
/// and workloads are interleaved round-robin (w1 set1, w1 set2, w2 set1,
/// …), so a slow minute on a shared machine hits every workload, and both
/// sides of a `repeat-check`, alike.
pub fn full_sets(opts: &RunOpts, reps: usize, sets: usize) -> Result<Vec<SetResult>, String> {
    let reps = if opts.smoke { 1 } else { reps.max(1) };
    // Indexed [set][workload].
    let mut timed: Vec<Vec<Vec<ChildReport>>> = vec![vec![Vec::new(); NAMES.len()]; sets];
    for rep in 0..reps {
        for (w, name) in NAMES.iter().enumerate() {
            for set in timed.iter_mut() {
                set[w].push(timed_rep(name, opts, rep)?);
            }
        }
    }
    let mut results: Vec<SetResult> = (0..sets)
        .map(|_| SetResult {
            seed: opts.seed,
            reps,
            host: host_facts(),
            workloads: Vec::new(),
        })
        .collect();
    for (w, name) in NAMES.iter().enumerate() {
        for (set, result) in timed.iter().zip(&mut results) {
            eprintln!("[{name}] traced run");
            let mut workload = fold_reps(name, describe(name, opts)?, &set[w]);
            traced(&mut workload, &set[w], opts)?;
            result.workloads.push(workload);
        }
    }
    Ok(results)
}
