//! What one child process (one repetition, or one traced run) hands back
//! to the parent: a flat map of measurements, the same-work fingerprint,
//! the operation counts, and any correctness-gate violations.

use serde::json::{Object, Value};
use std::collections::BTreeMap;

#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChildReport {
    pub metrics: BTreeMap<String, f64>,
    pub fingerprint: String,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl ChildReport {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn to_json(&self) -> Value {
        let mut metrics = Object::new();
        for (k, v) in &self.metrics {
            metrics.insert(k.clone(), Value::Float(*v));
        }
        let mut o = Object::new();
        o.insert("metrics", Value::Object(metrics));
        o.insert("fingerprint", Value::Str(self.fingerprint.clone()));
        o.insert("attempted", Value::UInt(self.attempted));
        o.insert("failed", Value::UInt(self.failed));
        o.insert(
            "violations",
            Value::Array(self.violations.iter().cloned().map(Value::Str).collect()),
        );
        Value::Object(o)
    }

    pub fn from_json(v: &Value) -> Result<Self, String> {
        let o = v.as_object().ok_or("child report is not an object")?;
        let field = |k: &str| o.get(k).ok_or_else(|| format!("child report lacks `{k}`"));
        let mut metrics = BTreeMap::new();
        for (k, v) in field("metrics")?
            .as_object()
            .ok_or("`metrics` is not an object")?
            .iter()
        {
            let x = v
                .as_f64()
                .ok_or_else(|| format!("metric `{k}` is not a number"))?;
            metrics.insert(k.to_string(), x);
        }
        let violations = field("violations")?
            .as_array()
            .ok_or("`violations` is not an array")?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or("violation is not a string")
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ChildReport {
            metrics,
            fingerprint: field("fingerprint")?
                .as_str()
                .ok_or("`fingerprint` is not a string")?
                .to_string(),
            attempted: field("attempted")?
                .as_u64()
                .ok_or("`attempted` is not a count")?,
            failed: field("failed")?.as_u64().ok_or("`failed` is not a count")?,
            violations,
        })
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` does not say).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds this (single-threaded) process has run so far, from the
/// scheduler's own accounting (0 where `/proc` does not say).
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json_text() {
        let mut r = ChildReport {
            fingerprint: "ab12".into(),
            attempted: 41,
            failed: 0,
            violations: vec!["accepted 1 < 0.9 x issued 9".into()],
            ..ChildReport::default()
        };
        r.set("reads_per_s", 1234.5678);
        r.set("sim.events", 2_030_000.0);
        r.set("setup_s", 0.25);
        let text = r.to_json().render();
        let back = ChildReport::from_json(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        assert!(ChildReport::from_json(&Value::parse("{\"metrics\":{}}").unwrap()).is_err());
    }

    #[test]
    fn host_probes_read_proc() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
