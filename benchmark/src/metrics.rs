//! Every metric the benchmark prints, declared once: name, unit, clock,
//! direction, and (end to end) the bound by which the median may worsen
//! before it counts as a regression.  `BENCHMARK.json` lists the same
//! names; a self-test keeps the two in step.
//!
//! Clocks: `host` is wall time of this machine; `modeled` is the
//! simulator's virtual clock (deterministic per seed); `count` is a
//! counter or a ratio of counters (deterministic per seed).

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: &'static str,
    better: Better,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        clock,
        better,
        bound,
    }
}

/// Bounds are as wide as they are because the driver measures the spread
/// over ten different seeds on a shared two-core host; see the README.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", "host", Lower, 0.25),
    e2e("reads_per_s", "1/s", "host", Higher, 0.25),
    e2e("peak_rss_mib", "MiB", "host", Lower, 0.2),
    e2e("wire_bytes_per_read", "B", "count", Lower, 0.25),
];

const fn pl(
    name: &'static str,
    unit: &'static str,
    clock: &'static str,
    better: Better,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        clock,
        better,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // Whole-workload numbers that not every workload has, so they cannot
    // carry a bound (0 where they do not apply).
    pl("commits_per_s", "1/s", "host", Higher),
    pl("modeled_commits_per_sim_s", "1/s", "modeled", Higher),
    pl("modeled_slave_util", "ratio", "modeled", Lower),
    pl("modeled_read_p50_ms", "ms", "modeled", Lower),
    pl("modeled_read_p99_ms", "ms", "modeled", Lower),
    // crypto
    pl("crypto.sha256_64b_ns", "ns", "host", Lower),
    pl("crypto.sha256_4k_ns", "ns", "host", Lower),
    pl("crypto.mss_sign_us", "us", "host", Lower),
    pl("crypto.mss_verify_us", "us", "host", Lower),
    pl("crypto.wots_verify_us", "us", "host", Lower),
    pl("crypto.hmac_sign_ns", "ns", "host", Lower),
    pl("crypto.hmac_verify_ns", "ns", "host", Lower),
    pl("crypto.est_share_of_verify", "ratio", "host", Lower),
    // store
    pl("store.execute_point_us", "us", "host", Lower),
    pl("store.execute_scan_us", "us", "host", Lower),
    pl("store.execute_computed_us", "us", "host", Lower),
    pl("store.prove_point_us", "us", "host", Lower),
    pl("store.prove_scan_us", "us", "host", Lower),
    pl("store.prove_stream_us", "us", "host", Lower),
    pl("store.verify_point_us", "us", "host", Lower),
    pl("store.verify_scan_us", "us", "host", Lower),
    pl("store.verify_stream_header_us", "us", "host", Lower),
    pl("store.verify_chunks_1mib_us", "us", "host", Lower),
    pl("store.apply_write_us", "us", "host", Lower),
    pl("store.state_digest_us", "us", "host", Lower),
    pl("store.proof_bytes_point", "B", "count", Lower),
    pl("store.proof_bytes_scan", "B", "count", Lower),
    pl("store.proof_depth_point", "count", "count", Lower),
    pl("store.range_rows_verified", "count", "count", Higher),
    pl("store.stream_chunks_verified", "count", "count", Higher),
    pl("store.nodes_owned", "count", "count", Lower),
    pl("store.nodes_shared", "count", "count", Higher),
    pl("store.chunk_dedup_ratio", "ratio", "count", Higher),
    // sim
    pl("sim.events", "count", "count", Lower),
    pl("sim.events_per_s", "1/s", "host", Higher),
    pl("sim.events_per_read", "count", "count", Lower),
    pl("sim.dispatch_ns", "ns", "host", Lower),
    pl("sim.queue_pop_push_ns", "ns", "host", Lower),
    pl("sim.queue_peak", "count", "count", Lower),
    pl("sim.timers_cancelled", "count", "count", Lower),
    pl("sim.msg_bytes_logical", "B", "count", Lower),
    pl("sim.msg_sharing_ratio", "ratio", "count", Higher),
    pl("sim.slice_wall_ms_p50", "ms", "host", Lower),
    pl("sim.slice_wall_ms_max", "ms", "host", Lower),
    // core
    pl("core.slave.proof_cache_hit_rate", "ratio", "count", Higher),
    pl("core.slave.proof_cache_evictions", "count", "count", Lower),
    pl(
        "core.slave.proof_cache_invalidations",
        "count",
        "count",
        Lower,
    ),
    pl("core.slave.util_mean", "ratio", "modeled", Lower),
    pl("core.client.stamp_cache_hit_rate", "ratio", "count", Higher),
    pl("core.client.cert_cache_hit_rate", "ratio", "count", Higher),
    pl("core.client.accept_ratio", "ratio", "count", Higher),
    pl("core.client.read_retries", "count", "count", Lower),
    pl("core.client.proof_fallbacks", "count", "count", Lower),
    pl("core.client.proof_rejected", "count", "count", Lower),
    pl("core.client.churn_joins", "count", "count", Higher),
    pl("core.verify.stamp_us", "us", "host", Lower),
    pl("core.verify.proof_read_us", "us", "host", Lower),
    pl("core.verify.pledge_build_us", "us", "host", Lower),
    pl("core.verify.pledge_verify_us", "us", "host", Lower),
    pl("core.master.writes_committed", "count", "count", Higher),
    pl(
        "core.master.writes_per_round_mean",
        "count",
        "count",
        Higher,
    ),
    pl("core.master.util_mean", "ratio", "modeled", Lower),
    pl("core.master.write_latency_p50_ms", "ms", "modeled", Lower),
    pl("core.auditor.checked", "count", "count", Higher),
    pl("core.auditor.backlog", "count", "count", Lower),
    pl("core.auditor.lag_p50_ms", "ms", "modeled", Lower),
    pl("core.auditor.reexecute_us", "us", "host", Lower),
    pl("core.directory.lookups", "count", "count", Lower),
    // broadcast
    pl("broadcast.order_100_us", "us", "host", Lower),
    // Where reads_per_s went, and how noisy the host was.
    pl("budget.crypto_share", "ratio", "host", Lower),
    pl("budget.store_share", "ratio", "host", Lower),
    pl("budget.sim_share", "ratio", "host", Lower),
    pl("budget.unattributed_share", "ratio", "host", Lower),
    pl("trace.overhead_share", "ratio", "host", Lower),
    pl("host.cpu_over_wall", "ratio", "host", Higher),
    pl("host.rep_iqr_share", "ratio", "host", Lower),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = BTreeSet::new();
        for (n, u) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(name_ok(n), "bad metric name {n}");
            assert!(unit_ok(u), "bad unit {u} of {n}");
            assert!(seen.insert(n), "metric {n} declared twice");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` at the repo root declares exactly this catalogue
    /// and exactly the workloads of `workloads.rs`.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        use crate::workloads;
        use serde::json::Value;

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let v = Value::parse(&text).expect("BENCHMARK.json parses");
        let o = v.as_object().expect("an object");
        let keys: Vec<&str> = o.iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |k: &str| o.get(k).and_then(Value::as_array).expect("an array");
        let text_of = |m: &Value, k: &str| {
            m.as_object()
                .and_then(|m| m.get(k))
                .and_then(Value::as_str)
                .expect("a string")
                .to_string()
        };

        let declared: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m
                    .as_object()
                    .unwrap()
                    .get("bound")
                    .and_then(Value::as_f64)
                    .expect("bound");
                (
                    text_of(m, "name"),
                    text_of(m, "unit"),
                    text_of(m, "better"),
                    bound,
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.as_str().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(declared, ours);

        let declared: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(declared, ours);

        let declared: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = workloads::NAMES
            .iter()
            .map(|n| {
                let def = workloads::lookup(n, 11, false).expect("every listed workload exists");
                assert_eq!(def.name, *n);
                assert!(
                    def.why.len() <= 200 && !def.why.contains('\n'),
                    "{n}: why must be one short line"
                );
                (def.name.to_string(), def.why.to_string())
            })
            .collect();
        assert_eq!(declared, ours);

        assert_eq!(list("paths"), [Value::Str("benchmark".into())]);
        let seconds = o
            .get("run_seconds")
            .and_then(Value::as_u64)
            .expect("run_seconds");
        assert!((1..=60).contains(&seconds));
        assert!(workloads::lookup("no_such_workload", 11, false).is_none());
    }
}
