//! Runs the built benchmark end to end at `--smoke` size and checks it
//! against the contract in `BENCHMARK.json`.
//!
//! Everything that starts the binary lives in one test: the runs share
//! `out/`, and timing children in parallel would only disturb each other.

use serde::json::{Object, Value};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_sdr-benchmark");

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

fn last_json_line(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .expect("the run printed a result line");
    Value::parse(line).unwrap_or_else(|e| panic!("last line is not JSON ({e:?}): {line}"))
}

fn contract() -> Object {
    let text =
        std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).expect("BENCHMARK.json");
    Value::parse(&text)
        .expect("BENCHMARK.json parses")
        .as_object()
        .expect("an object")
        .clone()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(contract: &Object, section: &str) -> BTreeSet<(String, String)> {
    contract
        .get(section)
        .and_then(Value::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let m = m.as_object().expect("metric is an object");
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Checks one driver-mode result line; returns `(name, unit)` printed.
fn check_driver_line(v: &Value) -> BTreeSet<(String, String)> {
    let o = v.as_object().expect("result is an object");
    let keys: BTreeSet<&str> = o.iter().map(|(k, _)| k).collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"]
            .into_iter()
            .collect()
    );
    assert_eq!(o.get("correct").and_then(Value::as_bool), Some(true));
    assert!(
        o.get("attempted")
            .and_then(Value::as_u64)
            .expect("attempted is a count")
            >= 1
    );
    assert_eq!(o.get("failed").and_then(Value::as_u64), Some(0));
    o.get("metrics")
        .and_then(Value::as_object)
        .expect("metrics is an object")
        .iter()
        .map(|(name, m)| {
            let m = m.as_object().expect("metric is an object");
            assert!(m
                .get("value")
                .and_then(Value::as_f64)
                .expect("value is a number")
                .is_finite());
            (
                name.to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn smoke_runs_end_to_end_and_matches_the_contract() {
    let contract = contract();
    let end_to_end = declared(&contract, "end_to_end");
    let per_layer = declared(&contract, "per_layer");

    // One driver-style run per trace mode: exactly the declared metrics.
    for (trace, want) in [("0", &end_to_end), ("1", &per_layer)] {
        let out = run(&[
            "--workload",
            "cold_mix",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ]);
        assert!(
            out.status.success(),
            "cold_mix --trace {trace} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            &check_driver_line(&last_json_line(&out)),
            want,
            "--trace {trace}"
        );
    }
    assert!(manifest_dir().join("out/trace-cold_mix.jsonl").exists());

    // A probe whose expectation is broken must fail the whole command.
    let out = run(&[
        "--workload",
        "cold_mix",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--smoke",
        "--sabotage",
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a tamper probe that is accepted must exit non-zero"
    );
    assert_eq!(
        last_json_line(&out)
            .as_object()
            .unwrap()
            .get("correct")
            .and_then(Value::as_bool),
        Some(false)
    );

    // An unknown workload is an error, not a result.
    let out = run(&[
        "--workload",
        "nope",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--smoke",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());

    // The full set: four workloads, every metric by name, span files.
    let result: PathBuf = manifest_dir().join("out/smoke-result.json");
    let out = run(&["--smoke", "--seed", "5", "--out", result.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "full smoke set failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&result).expect("result file written");
    let set = Value::parse(&text).expect("result parses");
    let workloads = set
        .as_object()
        .unwrap()
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap();
    let declared_workloads: Vec<&str> = contract
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| {
            w.as_object()
                .unwrap()
                .get("name")
                .and_then(Value::as_str)
                .unwrap()
        })
        .collect();
    assert_eq!(workloads.len(), 4);
    for (w, declared_name) in workloads.iter().zip(&declared_workloads) {
        let w = w.as_object().unwrap();
        let name = w.get("name").and_then(Value::as_str).unwrap();
        assert_eq!(name, *declared_name);
        assert_eq!(
            w.get("violations")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(0),
            "{name}"
        );
        for (section, want) in [("end_to_end", &end_to_end), ("per_layer", &per_layer)] {
            let got: BTreeSet<&str> = w
                .get(section)
                .and_then(Value::as_object)
                .unwrap()
                .iter()
                .map(|(k, _)| k)
                .collect();
            let want: BTreeSet<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(got, want, "{name} {section}");
        }
        assert!(manifest_dir()
            .join(format!("out/trace-{name}.jsonl"))
            .exists());
        // The budget is reported everywhere, and is exhaustive enough on
        // cold_mix for the 5 % check to have passed (no violation above).
        let layers = w.get("per_layer").and_then(Value::as_object).unwrap();
        assert!(layers
            .get("budget.unattributed_share")
            .and_then(Value::as_f64)
            .is_some());
    }
    let printed = String::from_utf8_lossy(&out.stdout);
    for (name, _) in end_to_end.iter().chain(&per_layer) {
        assert!(
            printed.contains(name.as_str()),
            "{name} not printed by the full run"
        );
    }

    // A result compared with itself: one row per (metric, workload), all ok.
    let path = result.to_str().unwrap();
    let out = run(&["compare", path, path]);
    assert!(out.status.success());
    let table = String::from_utf8_lossy(&out.stdout);
    assert_eq!(table.lines().count(), 1 + 4 * end_to_end.len());
    assert!(!table.contains("worse") && !table.contains("unresolved"));
}
