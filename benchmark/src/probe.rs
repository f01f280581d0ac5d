//! The one file that reads `SystemStats` fields by name.
//!
//! Everything the benchmark reports about a simulated run goes through
//! [`SimProbe`], so a later PR that renames or regroups a stats field has
//! exactly one place in the benchmark that must keep compiling.

use sdr_core::SystemStats;
use sdr_crypto::{Digest, Sha256};

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The counters and modeled-clock summaries of one simulated run.
#[derive(Clone, Debug, PartialEq)]
pub struct SimProbe {
    /// sha256 of the `SystemStats` JSON: equal fingerprints mean two
    /// repetitions did the same simulated work, event for event.
    pub fingerprint: String,
    pub reads_issued: u64,
    pub reads_accepted: u64,
    pub reads_failed: u64,
    pub wrong_accepted: u64,
    pub range_stitch_rejects: u64,
    pub stream_chunk_rejects: u64,
    pub read_p50_us: u64,
    pub read_p99_us: u64,
    pub writes_committed: u64,
    pub writes_per_round_mean: f64,
    pub write_latency_p50_us: u64,
    pub slave_util_mean: f64,
    pub master_util_mean: f64,
    pub sim_events: u64,
    pub sim_queue_peak: u64,
    pub sim_timers_cancelled: u64,
    pub sim_msg_bytes_logical: u64,
    pub msg_sharing_ratio: f64,
    pub proof_reads_accepted: u64,
    pub stream_reads_accepted: u64,
    pub stream_chunks_verified: u64,
    pub range_scans_accepted: u64,
    pub range_rows_verified: u64,
    pub proof_bytes_mean: f64,
    pub proof_depth_mean: f64,
    pub range_proof_bytes_mean: f64,
    pub proof_cache_hits: u64,
    pub proof_cache_misses: u64,
    pub proof_cache_evictions: u64,
    pub proof_cache_invalidations: u64,
    pub stamp_cache_hits: u64,
    pub stamp_cache_misses: u64,
    pub cert_cache_hits: u64,
    pub cert_cache_misses: u64,
    pub read_retries: u64,
    pub proof_fallbacks: u64,
    pub proof_rejected: u64,
    pub audit_checked: u64,
    pub audit_backlog: u64,
    pub audit_lag_p50_us: u64,
    pub dir_lookups: u64,
    pub churn_joins: u64,
    pub nodes_owned: u64,
    pub nodes_shared: u64,
    pub chunk_dedup_ratio: f64,
}

impl SimProbe {
    pub fn read(s: &SystemStats) -> Self {
        let json = serde::json::to_string(s);
        SimProbe {
            fingerprint: Sha256::digest(json.as_bytes()).to_string(),
            reads_issued: s.reads_issued,
            reads_accepted: s.reads_accepted,
            reads_failed: s.reads_failed,
            wrong_accepted: s.wrong_accepted,
            range_stitch_rejects: s.range_stitch_rejects,
            stream_chunk_rejects: s.stream_chunk_rejects,
            read_p50_us: s.read_latency.p50,
            read_p99_us: s.read_latency.p99,
            writes_committed: s.writes_committed,
            writes_per_round_mean: s.writes_per_round.mean,
            write_latency_p50_us: s.write_latency.p50,
            slave_util_mean: mean(&s.slave_utilisation),
            master_util_mean: mean(&s.master_utilisation),
            sim_events: s.sim_events,
            sim_queue_peak: s.sim_queue_peak,
            sim_timers_cancelled: s.sim_timers_cancelled,
            sim_msg_bytes_logical: s.sim_msg_bytes_logical,
            msg_sharing_ratio: s.msg_sharing_ratio(),
            proof_reads_accepted: s.proof_reads_accepted,
            stream_reads_accepted: s.stream_reads_accepted,
            stream_chunks_verified: s.stream_chunks_verified,
            range_scans_accepted: s.range_proof_bytes.count as u64,
            range_rows_verified: s.range_rows_verified,
            proof_bytes_mean: s.proof_bytes.mean,
            proof_depth_mean: s.proof_depth.mean,
            range_proof_bytes_mean: s.range_proof_bytes.mean,
            proof_cache_hits: s.proof_cache_hits,
            proof_cache_misses: s.proof_cache_misses,
            proof_cache_evictions: s.proof_cache_evictions,
            proof_cache_invalidations: s.proof_cache_invalidations,
            stamp_cache_hits: s.stamp_cache_hits,
            stamp_cache_misses: s.stamp_cache_misses,
            cert_cache_hits: s.cert_cache_hits,
            cert_cache_misses: s.cert_cache_misses,
            read_retries: s.read_retries,
            proof_fallbacks: s.proof_fallbacks,
            proof_rejected: s.proof_reads_rejected,
            audit_checked: s.audit_checked,
            audit_backlog: s.audit_backlog,
            audit_lag_p50_us: s.audit_lag.p50,
            dir_lookups: s.dir_lookups_per_shard.iter().sum(),
            churn_joins: s.churn_joins,
            nodes_owned: s.snapshot_nodes_owned,
            nodes_shared: s.snapshot_nodes_shared,
            chunk_dedup_ratio: s.chunk_dedup_ratio(),
        }
    }

    /// Reads neither accepted nor failed when the run was cut off are
    /// still in flight and count for neither side.
    pub fn ops_failed(&self) -> u64 {
        self.reads_failed + self.wrong_accepted
    }

    pub fn accept_ratio(&self) -> f64 {
        ratio(self.reads_accepted, self.reads_issued)
    }

    pub fn proof_cache_hit_rate(&self) -> f64 {
        ratio(
            self.proof_cache_hits,
            self.proof_cache_hits + self.proof_cache_misses,
        )
    }

    pub fn stamp_cache_hit_rate(&self) -> f64 {
        ratio(
            self.stamp_cache_hits,
            self.stamp_cache_hits + self.stamp_cache_misses,
        )
    }

    pub fn cert_cache_hit_rate(&self) -> f64 {
        ratio(
            self.cert_cache_hits,
            self.cert_cache_hits + self.cert_cache_misses,
        )
    }

    /// Accepted reads that took the pledged (computed-query) pipeline.
    pub fn pledged_reads_accepted(&self) -> u64 {
        self.reads_accepted
            .saturating_sub(self.proof_reads_accepted)
    }

    /// Point proof reads: the proof path minus streams and range scans.
    pub fn point_reads_accepted(&self) -> u64 {
        self.proof_reads_accepted
            .saturating_sub(self.stream_reads_accepted + self.range_scans_accepted)
    }

    /// The correctness gates of a simulated workload; empty when all hold.
    pub fn gate_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.wrong_accepted != 0 {
            v.push(format!(
                "wrong_accepted = {} (must be 0)",
                self.wrong_accepted
            ));
        }
        if self.range_stitch_rejects != 0 {
            v.push(format!(
                "range_stitch_rejects = {} (must be 0)",
                self.range_stitch_rejects
            ));
        }
        if self.stream_chunk_rejects != 0 {
            v.push(format!(
                "stream_chunk_rejects = {} (must be 0)",
                self.stream_chunk_rejects
            ));
        }
        if (self.reads_accepted as f64) < 0.9 * self.reads_issued as f64 {
            v.push(format!(
                "accepted {} < 0.9 x issued {}",
                self.reads_accepted, self.reads_issued
            ));
        }
        v
    }

    /// The slice-to-slice change of the counters a trace reader needs to
    /// line a slice's wall time up with the work done in it.
    pub fn delta_counts(&self, before: Option<&SimProbe>) -> Vec<(&'static str, u64)> {
        let d = |now: u64, then: fn(&SimProbe) -> u64| now - before.map_or(0, then);
        vec![
            ("events", d(self.sim_events, |p| p.sim_events)),
            (
                "reads_accepted",
                d(self.reads_accepted, |p| p.reads_accepted),
            ),
            (
                "writes_committed",
                d(self.writes_committed, |p| p.writes_committed),
            ),
            ("churn_joins", d(self.churn_joins, |p| p.churn_joins)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_core::{SystemBuilder, SystemConfig};
    use sdr_sim::SimTime;

    fn tiny_run() -> SimProbe {
        let mut sys = SystemBuilder::new(SystemConfig::default()).build();
        sys.run_until(SimTime::from_secs(2));
        SimProbe::read(&sys.stats())
    }

    #[test]
    fn same_seed_same_fingerprint_and_gates_hold_on_an_honest_run() {
        let (a, b) = (tiny_run(), tiny_run());
        assert_eq!(a, b);
        assert_eq!(a.fingerprint.len(), 64);
        assert!(a.reads_accepted > 0);
        assert!(a.gate_violations().is_empty(), "{:?}", a.gate_violations());
        assert_eq!(
            a.delta_counts(None)[0],
            ("events", a.sim_events),
            "the first slice's delta is the total"
        );
        assert!(a.delta_counts(Some(&b)).iter().all(|(_, d)| *d == 0));
    }

    #[test]
    fn each_gate_trips_on_its_own_counter() {
        let honest = tiny_run();
        for breakit in [
            (|p: &mut SimProbe| p.wrong_accepted = 1) as fn(&mut SimProbe),
            |p| p.range_stitch_rejects = 1,
            |p| p.stream_chunk_rejects = 1,
            |p| p.reads_accepted = p.reads_issued / 2,
        ] {
            let mut p = honest.clone();
            breakit(&mut p);
            assert_eq!(p.gate_violations().len(), 1);
        }
    }
}
