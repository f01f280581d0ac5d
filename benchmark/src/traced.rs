//! The traced run of one workload: slices, replay and unit spans, folded
//! into the per-layer metrics and the layer budget.
//!
//! The budget attributes the timed run's host wall from outside:
//! counts from the run itself multiplied by unit times measured by
//! replaying the same kind of work through the same public functions.
//! What it cannot reach (actor glue, metric maps, allocation) is
//! reported as `budget.unattributed_share`, not spread over the layers.

use crate::child::ChildReport;
use crate::cold::{self, ColdOutcome};
use crate::probe::SimProbe;
use crate::quantile::{median, quantile};
use crate::trace::{totals_by_name, NameTotals, Tracer};
use crate::workloads::{ColdSpec, SimSpec};
use crate::{replay, simrun, units};
use std::collections::BTreeMap;
use std::path::PathBuf;

type Totals = BTreeMap<&'static str, NameTotals>;

fn mean_us(totals: &Totals, name: &str) -> f64 {
    totals.get(name).map_or(0.0, NameTotals::mean_us)
}

fn total_ns(totals: &Totals, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.total_ns as f64)
}

fn count(totals: &Totals, name: &str, key: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.count(key) as f64)
}

fn per_span(totals: &Totals, name: &str, key: &str) -> f64 {
    match totals.get(name) {
        Some(t) if t.spans > 0 => t.count(key) as f64 / t.spans as f64,
        _ => 0.0,
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Where the span files go: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_trace(workload: &str, tracer: &Tracer) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.jsonl"));
    std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// The store and verify metrics every workload derives from its spans.
fn span_metrics(t: &Totals, r: &mut ChildReport) {
    for kind in ["point", "scan", "computed"] {
        r.set(
            &format!("store.execute_{kind}_us"),
            mean_us(t, &format!("store.execute.{kind}")),
        );
    }
    for kind in ["point", "scan", "stream"] {
        r.set(
            &format!("store.prove_{kind}_us"),
            mean_us(t, &format!("store.prove.{kind}")),
        );
    }
    r.set("store.verify_point_us", mean_us(t, "store.verify.point"));
    r.set("store.verify_scan_us", mean_us(t, "store.verify.scan"));
    r.set(
        "store.verify_stream_header_us",
        mean_us(t, "store.verify.stream_header"),
    );
    // Normalised to one MiB of chunk bytes, whatever the stream lengths.
    let chunk_bytes = count(t, "store.verify.chunks", "bytes");
    r.set(
        "store.verify_chunks_1mib_us",
        share(
            total_ns(t, "store.verify.chunks") / 1e3 * (1u64 << 20) as f64,
            chunk_bytes,
        ),
    );
    r.set("store.apply_write_us", mean_us(t, "store.apply_write"));
    r.set("store.state_digest_us", mean_us(t, "store.state_digest"));
    r.set("core.verify.stamp_us", mean_us(t, "core.verify.stamp"));
    r.set(
        "core.verify.proof_read_us",
        mean_us(t, "core.verify.stamp") + mean_us(t, "store.verify.point"),
    );
    r.set(
        "core.verify.pledge_build_us",
        mean_us(t, "core.verify.pledge_build"),
    );
    r.set(
        "core.verify.pledge_verify_us",
        mean_us(t, "core.verify.pledge_verify"),
    );
    r.set(
        "core.auditor.reexecute_us",
        mean_us(t, "core.auditor.reexecute"),
    );
}

fn unit_metrics(u: &units::Units, depth_point: f64, r: &mut ChildReport) {
    for (k, v) in u {
        r.set(k, *v);
    }
    let verify_ns = r.metrics["store.verify_point_us"] * 1e3;
    let sha = u.get("crypto.sha256_64b_ns").copied().unwrap_or(0.0);
    r.set(
        "crypto.est_share_of_verify",
        share(depth_point * sha, verify_ns),
    );
}

/// Per-layer metrics of a simulated workload.  `base_wall_s` is the
/// median wall of the timed repetitions this run is compared against.
pub fn sim(name: &str, spec: &SimSpec, base_wall_s: f64) -> Result<ChildReport, String> {
    let mut tracer = Tracer::new(true);
    let (p, slice_ms) = simrun::sliced(spec, &mut tracer);
    let replay_failed = replay::replay(spec, &mut tracer);
    let mut u = units::Units::new();
    units::crypto(&mut tracer, spec.config.mss_height, &mut u);
    units::sim(&mut tracer, p.sim_queue_peak, &mut u);
    units::broadcast(&mut tracer, &mut u);
    write_trace(name, &tracer)?;
    let t = totals_by_name(tracer.spans());

    let mut r = ChildReport {
        fingerprint: p.fingerprint.clone(),
        attempted: p.reads_issued,
        failed: p.ops_failed() + replay_failed,
        violations: p.gate_violations(),
        ..ChildReport::default()
    };
    if replay_failed != 0 {
        r.violations.push(format!(
            "{replay_failed} replayed honest reads failed verification"
        ));
    }
    span_metrics(&t, &mut r);
    unit_metrics(&u, p.proof_depth_mean, &mut r);

    let sim_secs = spec.sim_secs as f64;
    r.set(
        "commits_per_s",
        share(p.writes_committed as f64, base_wall_s),
    );
    r.set(
        "modeled_commits_per_sim_s",
        p.writes_committed as f64 / sim_secs,
    );
    r.set("modeled_slave_util", p.slave_util_mean);
    r.set("modeled_read_p50_ms", p.read_p50_us as f64 / 1e3);
    r.set("modeled_read_p99_ms", p.read_p99_us as f64 / 1e3);
    r.set("store.proof_bytes_point", p.proof_bytes_mean);
    r.set("store.proof_bytes_scan", p.range_proof_bytes_mean);
    r.set("store.proof_depth_point", p.proof_depth_mean);
    r.set("store.range_rows_verified", p.range_rows_verified as f64);
    r.set(
        "store.stream_chunks_verified",
        p.stream_chunks_verified as f64,
    );
    r.set("store.nodes_owned", p.nodes_owned as f64);
    r.set("store.nodes_shared", p.nodes_shared as f64);
    r.set("store.chunk_dedup_ratio", p.chunk_dedup_ratio);
    r.set("sim.events", p.sim_events as f64);
    r.set("sim.events_per_s", share(p.sim_events as f64, base_wall_s));
    r.set(
        "sim.events_per_read",
        share(p.sim_events as f64, p.reads_accepted as f64),
    );
    r.set("sim.queue_peak", p.sim_queue_peak as f64);
    r.set("sim.timers_cancelled", p.sim_timers_cancelled as f64);
    r.set("sim.msg_bytes_logical", p.sim_msg_bytes_logical as f64);
    r.set("sim.msg_sharing_ratio", p.msg_sharing_ratio);
    r.set("sim.slice_wall_ms_p50", median(&slice_ms));
    r.set("sim.slice_wall_ms_max", quantile(&slice_ms, 1.0));
    r.set("core.slave.proof_cache_hit_rate", p.proof_cache_hit_rate());
    r.set(
        "core.slave.proof_cache_evictions",
        p.proof_cache_evictions as f64,
    );
    r.set(
        "core.slave.proof_cache_invalidations",
        p.proof_cache_invalidations as f64,
    );
    r.set("core.slave.util_mean", p.slave_util_mean);
    r.set("core.client.stamp_cache_hit_rate", p.stamp_cache_hit_rate());
    r.set("core.client.cert_cache_hit_rate", p.cert_cache_hit_rate());
    r.set("core.client.accept_ratio", p.accept_ratio());
    r.set("core.client.read_retries", p.read_retries as f64);
    r.set("core.client.proof_fallbacks", p.proof_fallbacks as f64);
    r.set("core.client.proof_rejected", p.proof_rejected as f64);
    r.set("core.client.churn_joins", p.churn_joins as f64);
    r.set("core.master.writes_committed", p.writes_committed as f64);
    r.set("core.master.writes_per_round_mean", p.writes_per_round_mean);
    r.set("core.master.util_mean", p.master_util_mean);
    r.set(
        "core.master.write_latency_p50_ms",
        p.write_latency_p50_us as f64 / 1e3,
    );
    r.set("core.auditor.checked", p.audit_checked as f64);
    r.set("core.auditor.backlog", p.audit_backlog as f64);
    r.set("core.auditor.lag_p50_ms", p.audit_lag_p50_us as f64 / 1e3);
    r.set("core.directory.lookups", p.dir_lookups as f64);

    // The budget divides by the sliced run's own wall: it did the same
    // work as the timed repetitions, and it ran in the same process and
    // minute as the replay and unit spans its unit times come from.
    let sliced_wall_s = slice_ms.iter().sum::<f64>() / 1e3;
    for (name, value) in sim_budget(&p, &t, u["sim.dispatch_ns"], sliced_wall_s) {
        r.set(name, value);
    }
    r.set(
        "trace.overhead_share",
        share(sliced_wall_s - base_wall_s, base_wall_s),
    );
    Ok(r)
}

/// Counts from the run × unit times from replay and unit spans.
fn sim_budget(p: &SimProbe, t: &Totals, dispatch_ns: f64, wall_s: f64) -> [(&'static str, f64); 4] {
    let us = |span: &str| mean_us(t, span);
    let wall_us = wall_s * 1e6;

    let sim_us = p.sim_events as f64 * dispatch_ns / 1e3;

    // Replica side: a proof-cache hit skips execute and prove alike.
    let miss = 1.0 - p.proof_cache_hit_rate();
    let points = p.point_reads_accepted() as f64;
    let scans = p.range_scans_accepted as f64;
    let streams = p.stream_reads_accepted as f64;
    let computed = p.pledged_reads_accepted() as f64;
    let replica_us = miss
        * (points * (us("store.execute.point") + us("store.prove.point"))
            + scans * (us("store.execute.scan") + us("store.prove.scan"))
            + streams * (us("store.execute.stream") + us("store.prove.stream")))
        + computed * us("store.execute.computed");
    // Client side: the fold runs on every accepted read, cached or not.
    let client_us = points * us("store.verify.point")
        + scans * us("store.verify.scan")
        + streams * us("store.verify.stream_header")
        + p.stream_chunks_verified as f64 * per_chunk_us(t);
    let auditor_us = p.audit_checked as f64 * us("core.auditor.reexecute");
    let store_us = replica_us + client_us + auditor_us;

    // Signatures and result hashes: a stamp check per stamp-cache miss,
    // a pledge built and checked per computed read.
    let crypto_us = p.stamp_cache_misses as f64 * us("core.verify.stamp")
        + computed * (us("core.verify.pledge_build") + us("core.verify.pledge_verify"));

    [
        ("budget.sim_share", share(sim_us, wall_us)),
        ("budget.store_share", share(store_us, wall_us)),
        ("budget.crypto_share", share(crypto_us, wall_us)),
        (
            "budget.unattributed_share",
            1.0 - share(sim_us + store_us + crypto_us, wall_us),
        ),
    ]
}

fn per_chunk_us(t: &Totals) -> f64 {
    share(
        total_ns(t, "store.verify.chunks") / 1e3,
        count(t, "store.verify.chunks", "chunks"),
    )
}

/// Per-layer metrics of `cold_mix`: the timed loop itself re-run with
/// spans on.  Its spans are exhaustive, so the layer self times must
/// account for the loop's wall within 5 %.
pub fn cold(
    name: &str,
    spec: &ColdSpec,
    seed: u64,
    base_wall_s: f64,
) -> Result<ChildReport, String> {
    let mut tracer = Tracer::new(true);
    let env = cold::setup(spec, seed);
    let node_stats = env.node_stats();
    let dedup = env.chunk_dedup_ratio();
    let out: ColdOutcome = cold::run(spec, env, &mut tracer, false);
    let loop_spans = tracer.spans().len();
    let mut u = units::Units::new();
    units::crypto(&mut tracer, spec.mss_height, &mut u);
    write_trace(name, &tracer)?;

    let t = totals_by_name(&tracer.spans()[..loop_spans]);
    let mut r = ChildReport {
        fingerprint: out.state_digest.clone(),
        attempted: out.reads + out.write_ops,
        failed: out.verify_errors + out.probes_accepted,
        violations: out.violations(),
        ..ChildReport::default()
    };
    span_metrics(&t, &mut r);
    let depth_point = per_span(&t, "read.point", "proof_depth");
    unit_metrics(&u, depth_point, &mut r);

    // Layer self times against the wall the end-to-end numbers use.
    let timed_ns = (out.read_wall_ns + out.write_wall_ns) as f64;
    let layer = |prefixes: &[&str]| -> f64 {
        t.iter()
            .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
            .map(|(_, tot)| tot.self_ns as f64)
            .sum()
    };
    let store_ns = layer(&["store."]);
    let crypto_ns = layer(&["crypto.", "core.verify.stamp"]);
    let glue_ns = layer(&["read.", "write."]);
    let accounted = store_ns + crypto_ns + glue_ns;
    if (accounted - timed_ns).abs() > 0.05 * timed_ns {
        r.violations.push(format!(
            "cold_mix layer self times sum to {:.1} ms but the timed wall is {:.1} ms (must agree within 5%)",
            accounted / 1e6,
            timed_ns / 1e6
        ));
    }
    r.set("budget.store_share", share(store_ns, timed_ns));
    r.set("budget.crypto_share", share(crypto_ns, timed_ns));
    r.set("budget.sim_share", 0.0);
    r.set(
        "budget.unattributed_share",
        1.0 - share(store_ns + crypto_ns, timed_ns),
    );
    r.set(
        "trace.overhead_share",
        share(out.timed_wall_s() - base_wall_s, base_wall_s),
    );

    r.set(
        "commits_per_s",
        share(out.write_ops as f64, out.write_wall_ns as f64 / 1e9),
    );
    r.set(
        "store.proof_bytes_point",
        per_span(&t, "read.point", "proof_bytes"),
    );
    r.set(
        "store.proof_bytes_scan",
        per_span(&t, "read.scan", "proof_bytes"),
    );
    r.set("store.proof_depth_point", depth_point);
    r.set("store.range_rows_verified", out.rows_verified as f64);
    r.set("store.stream_chunks_verified", out.chunks_verified as f64);
    r.set("store.nodes_owned", node_stats.owned as f64);
    r.set("store.nodes_shared", node_stats.shared as f64);
    r.set("store.chunk_dedup_ratio", dedup);
    r.set(
        "core.client.accept_ratio",
        share((out.reads - out.verify_errors) as f64, out.reads as f64),
    );
    r.set("core.master.writes_committed", out.write_ops as f64);
    r.set(
        "core.master.writes_per_round_mean",
        spec.writes_per_round as f64,
    );
    Ok(r)
}
