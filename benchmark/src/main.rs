//! The repo benchmark.  See `benchmark/README.md`.
//!
//! ```text
//! sdr-benchmark [--seed N] [--reps N] [--smoke] [--out FILE]      full set, all four workloads
//! sdr-benchmark --workload W --seed N --seconds S --trace 0|1      one run, one JSON line last
//! sdr-benchmark compare A.json B.json                              two result files, row by row
//! sdr-benchmark repeat-check [--seed N] [--reps N] [--smoke]       two full sets must agree
//! sdr-benchmark profile                                            prints `release` or `debug`
//! ```

mod child;
mod cold;
mod harness;
mod metrics;
mod pipeline;
mod probe;
mod quantile;
mod replay;
mod report;
mod simrun;
mod trace;
mod traced;
mod units;
mod workloads;

use harness::RunOpts;
use metrics::{END_TO_END, PER_LAYER};
use report::{SetResult, Verdict, WorkloadResult};
use serde::json::{Object, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// `--key value` pairs and bare `--flag`s after an optional subcommand.
struct Args {
    command: Option<String>,
    positional: Vec<String>,
    options: BTreeMap<String, String>,
}

const FLAGS: [&str; 2] = ["--smoke", "--sabotage"];

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            command: None,
            positional: Vec::new(),
            options: BTreeMap::new(),
        };
        while let Some(a) = raw.next() {
            if FLAGS.contains(&a.as_str()) {
                args.options.insert(a, "1".into());
            } else if a.starts_with("--") {
                let v = raw.next().ok_or_else(|| format!("{a} needs a value"))?;
                args.options.insert(a, v);
            } else if args.command.is_none() && args.options.is_empty() {
                args.command = Some(a);
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    fn flag(&self, name: &str) -> bool {
        self.options.contains_key(name)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.options.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value `{v}` for {name}")),
        }
    }

    fn run_opts(&self) -> Result<RunOpts, String> {
        Ok(RunOpts {
            seed: self.get("--seed", 11)?,
            smoke: self.flag("--smoke"),
            sabotage: self.flag("--sabotage"),
        })
    }
}

const PROFILE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

/// Host-clock numbers from an unoptimised build describe nothing; only
/// the smoke size (which the self-tests run to check the plumbing, not
/// to measure) may run in one.
fn refuse_debug(opts: &RunOpts) -> Result<(), String> {
    if cfg!(debug_assertions) && !opts.smoke {
        return Err(
            "refusing to measure a debug build: build with --release (or pass --smoke)".into(),
        );
    }
    Ok(())
}

/// The line the driver reads: `correct`, `attempted`, `failed`, and the
/// end-to-end metrics (tracing off) or the per-layer metrics (tracing on).
fn driver_line(result: &WorkloadResult, trace: bool) -> String {
    let mut metrics = Object::new();
    let mut put = |name: &str, unit: &str, value: f64| {
        let mut m = Object::new();
        m.insert("value", Value::Float(value));
        m.insert("unit", Value::Str(unit.to_string()));
        metrics.insert(name, Value::Object(m));
    };
    if trace {
        for m in PER_LAYER {
            put(m.name, m.unit, result.per_layer[m.name]);
        }
    } else {
        for m in END_TO_END {
            put(m.name, m.unit, result.end_to_end[m.name].median);
        }
    }
    let mut o = Object::new();
    o.insert("correct", Value::Bool(result.violations.is_empty()));
    o.insert("attempted", Value::UInt(result.ops_attempted));
    o.insert("failed", Value::UInt(result.ops_failed));
    o.insert("metrics", Value::Object(metrics));
    Value::Object(o).render()
}

fn load(path: &str) -> Result<SetResult, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let v = Value::parse(&text).map_err(|e| format!("{path}: {e:?}"))?;
    SetResult::from_json(&v).map_err(|e| format!("{path}: {e}"))
}

fn save(set: &SetResult, path: &std::path::Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, set.to_json().render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn child_main(args: &Args, started: Instant) -> Result<bool, String> {
    let opts = args.run_opts()?;
    let name: String = args.get("--workload", String::new())?;
    let def = workloads::lookup(&name, opts.seed, opts.smoke)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let mode: String = args.get("--mode", "timed".to_string())?;
    let report = match (mode.as_str(), &def.kind) {
        ("timed", workloads::Kind::Sim(spec)) => simrun::timed(spec, started),
        ("timed", workloads::Kind::Cold(spec)) => {
            cold::timed(spec, opts.seed, started, opts.sabotage)
        }
        ("traced", kind) => {
            let base: f64 = args.get("--base-wall-s", 0.0)?;
            match kind {
                workloads::Kind::Sim(spec) => traced::sim(def.name, spec, base)?,
                workloads::Kind::Cold(spec) => traced::cold(def.name, spec, opts.seed, base)?,
            }
        }
        _ => return Err(format!("unknown child mode `{mode}`")),
    };
    println!("{}", report.to_json().render());
    // A child that measured is a child that succeeded; the parent judges
    // the violations it reports.
    Ok(true)
}

fn one_run(args: &Args) -> Result<bool, String> {
    let opts = args.run_opts()?;
    let name: String = args.get("--workload", String::new())?;
    let seconds: f64 = args.get("--seconds", 20.0)?;
    let trace = args.get("--trace", 0u8)? != 0;
    refuse_debug(&opts)?;
    let result = harness::one_workload(&name, &opts, seconds, trace)?;
    for v in &result.violations {
        eprintln!("GATE FAILED [{name}]: {v}");
    }
    println!(
        "{name}: seed {} fingerprint {}",
        opts.seed, result.fingerprint
    );
    println!("{}", driver_line(&result, trace));
    Ok(result.violations.is_empty())
}

fn full_set(args: &Args) -> Result<bool, String> {
    let opts = args.run_opts()?;
    refuse_debug(&opts)?;
    let set = harness::full_sets(&opts, args.get("--reps", 5)?, 1)?.remove(0);
    print!("{}", set.render());
    let default_out = traced::out_dir().join("result.json");
    let out: String = args.get("--out", default_out.display().to_string())?;
    save(&set, std::path::Path::new(&out))?;
    println!("\nresult written to {out}");
    Ok(set.correct())
}

fn compare(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("usage: compare A.json B.json".into());
    };
    let rows = report::compare(&load(a)?, &load(b)?);
    print!("{}", report::render_rows(&rows));
    Ok(rows.iter().all(|r| r.verdict != Verdict::Worse))
}

/// Two full sets of the same code, their repetitions alternating, must
/// agree: every end-to-end pair `ok`, every deterministic number identical.
fn repeat_check(args: &Args) -> Result<bool, String> {
    let opts = args.run_opts()?;
    let reps = args.get("--reps", 5)?;
    refuse_debug(&opts)?;
    let sets = harness::full_sets(&opts, reps, 2)?;
    let (a, b) = (&sets[0], &sets[1]);
    save(a, &traced::out_dir().join("repeat-a.json"))?;
    save(b, &traced::out_dir().join("repeat-b.json"))?;
    let rows = report::compare(a, b);
    print!("{}", report::render_rows(&rows));
    let exact = report::exactness_violations(a, b);
    for v in &exact {
        println!("NOT IDENTICAL: {v}");
    }
    Ok(a.correct()
        && b.correct()
        && exact.is_empty()
        && rows.iter().all(|r| r.verdict == Verdict::Ok))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let outcome =
        Args::parse(std::env::args().skip(1)).and_then(|args| match args.command.as_deref() {
            Some("child") => child_main(&args, started),
            Some("compare") => compare(&args),
            Some("repeat-check") => repeat_check(&args),
            Some("profile") => {
                println!("{PROFILE}");
                Ok(true)
            }
            Some(other) => Err(format!("unknown command `{other}`")),
            None if args.options.contains_key("--workload") => one_run(&args),
            None => full_set(&args),
        });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sdr-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
