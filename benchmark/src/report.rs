//! The result of one full set of runs, as written to `out/result-*.json`,
//! and the comparison of two such sets.

use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::quantile::Quartiles;
use serde::json::{Object, Value};
use std::collections::BTreeMap;

#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub why: String,
    pub fingerprint: String,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub violations: Vec<String>,
    /// Median and quartiles over the repetitions, by end-to-end metric.
    pub end_to_end: BTreeMap<String, Quartiles>,
    /// One value per per-layer metric, from the traced run.
    pub per_layer: BTreeMap<String, f64>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct SetResult {
    pub seed: u64,
    pub reps: usize,
    /// `nproc`-style facts a reader needs next to any host-clock number.
    pub host: BTreeMap<String, String>,
    pub workloads: Vec<WorkloadResult>,
}

impl SetResult {
    pub fn correct(&self) -> bool {
        self.workloads.iter().all(|w| w.violations.is_empty())
    }

    pub fn to_json(&self) -> Value {
        let mut host = Object::new();
        for (k, v) in &self.host {
            host.insert(k.clone(), Value::Str(v.clone()));
        }
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                let mut e2e = Object::new();
                for (name, q) in &w.end_to_end {
                    let mut o = Object::new();
                    o.insert("median", Value::Float(q.median));
                    o.insert("q1", Value::Float(q.q1));
                    o.insert("q3", Value::Float(q.q3));
                    o.insert("n", Value::UInt(q.n as u64));
                    e2e.insert(name.clone(), Value::Object(o));
                }
                let mut layers = Object::new();
                for (name, v) in &w.per_layer {
                    layers.insert(name.clone(), Value::Float(*v));
                }
                let mut o = Object::new();
                o.insert("name", Value::Str(w.name.clone()));
                o.insert("why", Value::Str(w.why.clone()));
                o.insert("fingerprint", Value::Str(w.fingerprint.clone()));
                o.insert("ops_attempted", Value::UInt(w.ops_attempted));
                o.insert("ops_failed", Value::UInt(w.ops_failed));
                o.insert(
                    "violations",
                    Value::Array(w.violations.iter().cloned().map(Value::Str).collect()),
                );
                o.insert("end_to_end", Value::Object(e2e));
                o.insert("per_layer", Value::Object(layers));
                Value::Object(o)
            })
            .collect();
        let mut o = Object::new();
        o.insert("seed", Value::UInt(self.seed));
        o.insert("reps", Value::UInt(self.reps as u64));
        o.insert("host", Value::Object(host));
        o.insert("workloads", Value::Array(workloads));
        Value::Object(o)
    }

    pub fn from_json(v: &Value) -> Result<Self, String> {
        fn obj<'a>(v: &'a Value, what: &str) -> Result<&'a Object, String> {
            v.as_object()
                .ok_or_else(|| format!("{what} is not an object"))
        }
        fn get<'a>(o: &'a Object, k: &str) -> Result<&'a Value, String> {
            o.get(k).ok_or_else(|| format!("result lacks `{k}`"))
        }
        fn num(o: &Object, k: &str) -> Result<f64, String> {
            get(o, k)?
                .as_f64()
                .ok_or_else(|| format!("`{k}` is not a number"))
        }
        fn text(o: &Object, k: &str) -> Result<String, String> {
            Ok(get(o, k)?
                .as_str()
                .ok_or_else(|| format!("`{k}` is not a string"))?
                .to_string())
        }
        fn count(o: &Object, k: &str) -> Result<u64, String> {
            get(o, k)?
                .as_u64()
                .ok_or_else(|| format!("`{k}` is not a count"))
        }

        let o = obj(v, "result")?;
        let mut host = BTreeMap::new();
        for (k, v) in obj(get(o, "host")?, "`host`")?.iter() {
            host.insert(k.to_string(), v.as_str().unwrap_or_default().to_string());
        }
        let mut workloads = Vec::new();
        for w in get(o, "workloads")?
            .as_array()
            .ok_or("`workloads` is not an array")?
        {
            let w = obj(w, "workload")?;
            let mut end_to_end = BTreeMap::new();
            for (name, q) in obj(get(w, "end_to_end")?, "`end_to_end`")?.iter() {
                let q = obj(q, name)?;
                end_to_end.insert(
                    name.to_string(),
                    Quartiles {
                        q1: num(q, "q1")?,
                        median: num(q, "median")?,
                        q3: num(q, "q3")?,
                        n: count(q, "n")? as usize,
                    },
                );
            }
            let mut per_layer = BTreeMap::new();
            for (name, v) in obj(get(w, "per_layer")?, "`per_layer`")?.iter() {
                per_layer.insert(
                    name.to_string(),
                    v.as_f64().ok_or("per-layer value is not a number")?,
                );
            }
            workloads.push(WorkloadResult {
                name: text(w, "name")?,
                why: text(w, "why")?,
                fingerprint: text(w, "fingerprint")?,
                ops_attempted: count(w, "ops_attempted")?,
                ops_failed: count(w, "ops_failed")?,
                violations: get(w, "violations")?
                    .as_array()
                    .ok_or("`violations` is not an array")?
                    .iter()
                    .map(|s| s.as_str().unwrap_or_default().to_string())
                    .collect(),
                end_to_end,
                per_layer,
            });
        }
        Ok(SetResult {
            seed: count(o, "seed")?,
            reps: count(o, "reps")? as usize,
            host,
            workloads,
        })
    }

    /// Every metric by name, with unit, clock and direction.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let host: Vec<String> = self.host.iter().map(|(k, v)| format!("{k}={v}")).collect();
        s.push_str(&format!(
            "seed {}  reps {}  {}\n",
            self.seed,
            self.reps,
            host.join("  ")
        ));
        for w in &self.workloads {
            s.push_str(&format!("\n== {} — {}\n", w.name, w.why));
            s.push_str(&format!(
                "   fingerprint {}  ops_attempted {}  ops_failed {}  correct {}\n",
                w.fingerprint,
                w.ops_attempted,
                w.ops_failed,
                w.violations.is_empty()
            ));
            for v in &w.violations {
                s.push_str(&format!("   GATE FAILED: {v}\n"));
            }
            s.push_str("   end to end (tracing off; median [q1, q3] over n repetitions)\n");
            for m in END_TO_END {
                if let Some(q) = w.end_to_end.get(m.name) {
                    s.push_str(&format!(
                        "   {:<22} {:>14.4} [{:.4}, {:.4}] n={}  {}  clock={}  {} is better  bound {:.0}%\n",
                        m.name,
                        q.median,
                        q.q1,
                        q.q3,
                        q.n,
                        m.unit,
                        m.clock,
                        m.better.as_str(),
                        m.bound * 100.0
                    ));
                }
            }
            s.push_str("   per layer (one traced run)\n");
            for m in PER_LAYER {
                if let Some(v) = w.per_layer.get(m.name) {
                    s.push_str(&format!(
                        "   {:<40} {:>16.4}  {}  clock={}  {} is better\n",
                        m.name,
                        v,
                        m.unit,
                        m.clock,
                        m.better.as_str()
                    ));
                }
            }
        }
        s
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the base by more than the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Worse,
    /// Either side's inter-quartile range exceeds the bound, so the two
    /// medians cannot be told apart at this bound.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub base: Quartiles,
    pub other: Quartiles,
    /// `other.median / base.median`.
    pub ratio: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// By how much `other` is worse than `base`, as a share of `base`
/// (negative when it is better).
pub fn worsening(better: Better, base: f64, other: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (other - base) / base.abs(),
        Better::Higher => (base - other) / base.abs(),
    }
}

pub fn judge(better: Better, bound: f64, base: &Quartiles, other: &Quartiles) -> Verdict {
    if base.iqr_share() > bound || other.iqr_share() > bound {
        Verdict::Unresolved
    } else if worsening(better, base.median, other.median) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// One row per (metric, workload) present in both sets; `a` is the base.
pub fn compare(a: &SetResult, b: &SetResult) -> Vec<Row> {
    let mut rows = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            continue;
        };
        for m in END_TO_END {
            let (Some(base), Some(other)) = (wa.end_to_end.get(m.name), wb.end_to_end.get(m.name))
            else {
                continue;
            };
            rows.push(Row {
                workload: wa.name.clone(),
                metric: m.name,
                base: *base,
                other: *other,
                ratio: if base.median == 0.0 {
                    1.0
                } else {
                    other.median / base.median
                },
                bound: m.bound,
                verdict: judge(m.better, m.bound, base, other),
            });
        }
    }
    rows
}

pub fn render_rows(rows: &[Row]) -> String {
    let mut s = format!(
        "{:<12} {:<22} {:>14} {:>24} {:>14} {:>24} {:>14} {:>6}  verdict\n",
        "workload",
        "metric",
        "base median",
        "base [q1, q3]",
        "other median",
        "other [q1, q3]",
        "other/base",
        "bound"
    );
    for r in rows {
        s.push_str(&format!(
            "{:<12} {:<22} {:>14.4} {:>24} {:>14.4} {:>24} {:>14.4} {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            r.base.median,
            format!("[{:.4}, {:.4}]", r.base.q1, r.base.q3),
            r.other.median,
            format!("[{:.4}, {:.4}]", r.other.q1, r.other.q3),
            r.ratio,
            r.bound * 100.0,
            r.verdict.as_str()
        ));
    }
    s
}

/// What two sets of the *same code* must agree on exactly: fingerprints,
/// operation counts, and every end-to-end metric on the count clock.
pub fn exactness_violations(a: &SetResult, b: &SetResult) -> Vec<String> {
    let mut v = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            v.push(format!("{}: missing from the second set", wa.name));
            continue;
        };
        if wa.fingerprint != wb.fingerprint {
            v.push(format!(
                "{}: fingerprints differ ({} vs {})",
                wa.name, wa.fingerprint, wb.fingerprint
            ));
        }
        if (wa.ops_attempted, wa.ops_failed) != (wb.ops_attempted, wb.ops_failed) {
            v.push(format!("{}: operation counts differ", wa.name));
        }
        for m in END_TO_END.iter().filter(|m| m.clock == "count") {
            let (x, y) = (wa.end_to_end.get(m.name), wb.end_to_end.get(m.name));
            if x.map(|q| q.median) != y.map(|q| q.median) {
                v.push(format!(
                    "{}: deterministic metric {} differs",
                    wa.name, m.name
                ));
            }
        }
    }
    v
}

/// The per-layer value a workload did not report: the metric does not
/// apply there (`cold_mix` has no simulator, `flash_point` no scans).
pub const NOT_APPLICABLE: f64 = 0.0;

pub fn per_layer_complete(values: &BTreeMap<String, f64>) -> BTreeMap<String, f64> {
    PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                values.get(m.name).copied().unwrap_or(NOT_APPLICABLE),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn q(median: f64, spread: f64) -> Quartiles {
        Quartiles {
            q1: median - spread / 2.0,
            median,
            q3: median + spread / 2.0,
            n: 5,
        }
    }

    fn set(reads_per_s: Quartiles, wire: f64) -> SetResult {
        let mut end_to_end = BTreeMap::new();
        end_to_end.insert("reads_per_s".to_string(), reads_per_s);
        end_to_end.insert("wire_bytes_per_read".to_string(), q(wire, 0.0));
        let mut per_layer = BTreeMap::new();
        per_layer.insert("sim.events".to_string(), 2_030_000.0);
        SetResult {
            seed: 11,
            reps: 5,
            host: [("nproc".to_string(), "2".to_string())]
                .into_iter()
                .collect(),
            workloads: vec![WorkloadResult {
                name: "flash_point".into(),
                why: "because".into(),
                fingerprint: "abc".into(),
                ops_attempted: 100,
                ops_failed: 0,
                violations: vec![],
                end_to_end,
                per_layer,
            }],
        }
    }

    #[test]
    fn result_round_trips_through_json_text() {
        let a = set(q(1000.5, 20.25), 7361.9764057132525);
        let text = a.to_json().render();
        let back = SetResult::from_json(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back, a);
        assert!(a.render().contains("reads_per_s"));
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let bound = metrics::end_to_end("reads_per_s").unwrap().bound;
        let base = set(q(1000.0, 10.0), 7000.0);
        let same = compare(&base, &set(q(1000.0 * (1.0 - bound / 2.0), 10.0), 7000.0));
        assert!(same.iter().all(|r| r.verdict == Verdict::Ok));
        // Higher is better, so a large drop is worse and a rise is ok.
        let slow = compare(&base, &set(q(1000.0 * (1.0 - bound * 1.5), 10.0), 7000.0));
        assert_eq!(slow[0].verdict, Verdict::Worse);
        assert!((slow[0].ratio - (1.0 - bound * 1.5)).abs() < 1e-12);
        let fast = compare(&base, &set(q(2000.0, 10.0), 7000.0));
        assert_eq!(fast[0].verdict, Verdict::Ok);
        // A spread wider than the bound resolves nothing.
        let noisy = compare(&base, &set(q(1000.0, 1000.0 * bound * 1.1), 7000.0));
        assert_eq!(noisy[0].verdict, Verdict::Unresolved);
        // Lower is better for bytes.
        let fat = compare(&base, &set(q(1000.0, 10.0), 7000.0 * 2.0));
        assert_eq!(fat[1].verdict, Verdict::Worse);
        assert!(render_rows(&fat).contains("worse"));
    }

    #[test]
    fn same_code_must_agree_exactly_on_counts() {
        let a = set(q(1000.0, 10.0), 7000.0);
        assert!(exactness_violations(&a, &a).is_empty());
        let mut b = set(q(990.0, 10.0), 7000.5);
        b.workloads[0].fingerprint = "abd".into();
        let v = exactness_violations(&a, &b);
        assert_eq!(v.len(), 2, "{v:?}");
    }

    #[test]
    fn missing_per_layer_values_read_as_not_applicable() {
        let mut m = BTreeMap::new();
        m.insert("sim.events".to_string(), 5.0);
        let full = per_layer_complete(&m);
        assert_eq!(full.len(), PER_LAYER.len());
        assert_eq!(full["sim.events"], 5.0);
        assert_eq!(full["crypto.mss_sign_us"], NOT_APPLICABLE);
    }
}
