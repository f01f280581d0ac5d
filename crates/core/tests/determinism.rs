//! Scheduler-determinism pin.
//!
//! The bucketed event queue must reproduce the seed `BinaryHeap`
//! scheduler's behaviour *exactly* at small sizes: same event order,
//! same RNG draws, same stats, byte for byte.  Each fixture under
//! `tests/fixtures/` was captured from an earlier build (the quickstart
//! one from the seed scheduler); every field it contains must match the
//! current run bit-exactly (fields added to `SystemStats` after the
//! capture are allowed to appear alongside).
//!
//! Regenerate (only when intentionally changing workload semantics):
//! `UPDATE_FIXTURES=1 cargo test -p sdr-core --test determinism`.

use sdr_core::scenario::{registry, Grid, Param, Runner, ScenarioSpec};
use sdr_sim::SimDuration;
use serde::json::Value;
use std::path::PathBuf;

/// The pinned runs, each with its fixture: a short single-shard
/// quickstart (one subtle liar, mixed reads and writes, every
/// timer path exercised) and one `batched_commit` point at batch
/// 8, so commit rounds of more than one write are pinned byte for byte
/// too.
fn pinned_specs() -> [(ScenarioSpec, PathBuf); 2] {
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut quickstart = registry::lookup("quickstart").expect("registered scenario");
    quickstart.duration = SimDuration::from_secs(10);
    quickstart.checkpoints = vec![SimDuration::from_secs(5)];
    let mut batched = registry::lookup("batched_commit").expect("registered scenario");
    batched.duration = SimDuration::from_secs(10);
    batched.seeds.truncate(1);
    batched.grid = Grid::sweep("batch", Param::WriteBatch, &[8.0]);
    [
        (quickstart, fixtures.join("quickstart_seed_report.json")),
        (batched, fixtures.join("batched_commit_batch8_report.json")),
    ]
}

/// Asserts every value present in `fixture` appears identically in
/// `current`.  Objects may gain keys (new telemetry fields) but keep the
/// fixture's keys in the fixture's order; arrays of `{field, ...}` /
/// `{name, ...}` records are matched by that key, wherever they sit.
fn assert_subset(fixture: &Value, current: &Value, path: &str) {
    match (fixture, current) {
        (Value::Object(f), Value::Object(c)) => {
            // Keys are matched in order: the fixture's keys must be a
            // subsequence of the current run's, because key order is part
            // of the bytes the benchmark fingerprints hash.
            let mut rest = c.iter();
            for (k, fv) in f.iter() {
                let (_, cv) = rest.find(|(ck, _)| ck == &k).unwrap_or_else(|| {
                    panic!("{path}.{k}: missing or out of order in current run")
                });
                assert_subset(fv, cv, &format!("{path}.{k}"));
            }
        }
        (Value::Array(f), Value::Array(c)) => {
            let keyed = |v: &Value| -> Option<String> {
                if let Value::Object(o) = v {
                    for key in ["field", "name"] {
                        if let Some(Value::Str(s)) = o.get(key) {
                            return Some(s.clone());
                        }
                    }
                }
                None
            };
            if f.iter().all(|v| keyed(v).is_some()) && !f.is_empty() {
                for fv in f {
                    let k = keyed(fv).unwrap();
                    let cv = c
                        .iter()
                        .find(|v| keyed(v).as_deref() == Some(&k))
                        .unwrap_or_else(|| panic!("{path}[{k}]: missing in current run"));
                    assert_subset(fv, cv, &format!("{path}[{k}]"));
                }
            } else {
                assert_eq!(
                    f.len(),
                    c.len(),
                    "{path}: array length {} != {}",
                    f.len(),
                    c.len()
                );
                for (i, (fv, cv)) in f.iter().zip(c.iter()).enumerate() {
                    assert_subset(fv, cv, &format!("{path}[{i}]"));
                }
            }
        }
        _ => {
            assert_eq!(
                fixture.render(),
                current.render(),
                "{path}: fixture {} != current {}",
                fixture.render(),
                current.render()
            );
        }
    }
}

#[test]
fn small_run_is_byte_identical_to_seed_scheduler() {
    for (spec, path) in pinned_specs() {
        let text = Runner::new(spec).run().expect("run").to_json_string();
        let current = Value::parse(&text).expect("report parses");

        if std::env::var("UPDATE_FIXTURES").is_ok() {
            std::fs::write(&path, &text).expect("write fixture");
            continue;
        }
        let raw = std::fs::read_to_string(&path).expect("fixture present");
        let fixture = Value::parse(&raw).expect("fixture parses");
        assert_subset(&fixture, &current, "$");
    }
}

#[test]
fn repeated_runs_are_byte_identical() {
    for (spec, _) in pinned_specs() {
        let a = Runner::new(spec.clone())
            .run()
            .expect("run")
            .to_json_string();
        let b = Runner::new(spec).run().expect("run").to_json_string();
        assert_eq!(a, b);
    }
}
