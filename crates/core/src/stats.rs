//! Experiment-facing statistics extraction: the hand-computed half of
//! [`SystemStats::collect`], the derived rates and the human summary.  The
//! struct itself, its metric-backed fields and `numeric_fields` come from
//! the table in [`crate::metrics`].

use crate::metrics;
use crate::system::System;
use sdr_sim::NodeId;
use std::collections::HashSet;

pub use crate::metrics::SystemStats;

impl SystemStats {
    /// Collects statistics from a (finished or running) system.
    pub fn collect(sys: &mut System) -> Self {
        // Ground truth at collect: the slaves any master has excluded.
        let mut excluded = HashSet::<NodeId>::new();
        for rank in 0..sys.masters.len() {
            sys.with_master(rank, |m| excluded.extend(m.excluded()));
        }
        let honest_excluded = (sys.slaves.iter().zip(&sys.behaviors))
            .filter(|(n, b)| !b.is_malicious() && excluded.contains(*n))
            .count() as u64;
        let wrong_accepted_unconvicted = sys.truth.wrong_unconvicted(|s| excluded.contains(&s));
        let per_client = (0..sys.clients.len())
            .map(|i| sys.with_client(i, |c| c.counters()))
            .collect();

        // Snapshot-ring memory telemetry: retention cost vs churn.
        let mut snapshot_nodes = sdr_store::NodeStats::default();
        for rank in 0..sys.masters.len() {
            snapshot_nodes.merge(sys.with_master(rank, |m| m.snapshot_node_stats()));
        }

        // Chunk-store telemetry: one master per shard (masters of the
        // same subgroup hold identical replicas; summing them all would
        // just multiply by the replication factor), summed across
        // shards.
        let masters_per_shard = (sys.masters.len() / sys.config.n_shards.max(1)).max(1);
        let mut chunk_stats = sdr_store::ChunkStats::default();
        for rank in (0..sys.masters.len()).step_by(masters_per_shard) {
            let cs = sys.with_master(rank, |m| m.chunk_stats());
            chunk_stats.chunks_stored += cs.chunks_stored;
            chunk_stats.chunks_deduped += cs.chunks_deduped;
            chunk_stats.logical_bytes += cs.logical_bytes;
            chunk_stats.physical_bytes += cs.physical_bytes;
        }

        // Slave proof-cache residency: per-slave state, summed over the
        // whole replica population.
        let mut proof_cache_bytes = 0u64;
        for i in 0..sys.slaves.len() {
            proof_cache_bytes += sys.with_slave(i, |s| s.cache_bytes());
        }

        // One elected auditor per shard: the backlog is their sum.
        let mut audit_backlog = 0u64;
        for rank in 0..sys.masters.len() {
            let (is_auditor, backlog) =
                sys.with_master(rank, |m| (m.is_auditor(), m.auditor_state().backlog()));
            if is_auditor {
                audit_backlog += backlog;
            }
        }

        let utilisation = |nodes: &[NodeId]| -> Vec<f64> {
            nodes.iter().map(|&n| sys.world.utilisation(n)).collect()
        };
        let n_shards = sys.config.n_shards;
        let queue_depth = sys.world.queue_depth();
        let m = sys.world.metrics();
        SystemStats {
            wrong_accepted_unconvicted,
            honest_excluded,
            audit_backlog,
            snapshot_nodes_owned: snapshot_nodes.owned as u64,
            snapshot_nodes_shared: snapshot_nodes.shared as u64,
            master_utilisation: utilisation(&sys.masters),
            slave_utilisation: utilisation(&sys.slaves),
            per_client,
            writes_committed_per_shard: (0..n_shards)
                .map(|k| m.counter(metrics::WRITE_COMMITTED_SHARD.at(k)))
                .collect(),
            dir_lookups_per_shard: (0..n_shards)
                .map(|k| m.counter(metrics::DIRECTORY_LOOKUPS_SHARD.at(k)))
                .collect(),
            chunks_stored: chunk_stats.chunks_stored,
            chunks_deduped: chunk_stats.chunks_deduped,
            chunk_logical_bytes: chunk_stats.logical_bytes,
            chunk_physical_bytes: chunk_stats.physical_bytes,
            sim_events: sys.world.events_processed(),
            sim_queue_peak: queue_depth.peak as u64,
            sim_queue_live: queue_depth.live as u64,
            sim_queue_slots: queue_depth.slots as u64,
            // Nothing cancels timers; the field stays for report readers.
            sim_timers_cancelled: 0,
            sim_msg_bytes_logical: sys.world.msg_bytes_logical(),
            sim_msg_bytes_resident: sys.world.msg_bytes_resident(),
            proof_cache_bytes,
            ..SystemStats::from_metrics(sys.world.metrics_mut())
        }
    }

    /// Fraction of accepted reads that were wrong (the headline
    /// correctness metric).
    pub fn wrong_accept_rate(&self) -> f64 {
        ratio(self.wrong_accepted, self.reads_accepted)
    }

    /// Total misbehaviour discoveries.
    pub fn discoveries(&self) -> u64 {
        self.discovery_immediate + self.discovery_delayed
    }

    /// How many queued deliveries each unique payload allocation served
    /// on average (`logical / resident` bytes; 1.0 means no sharing,
    /// higher means multicast fan-out amortised its payloads).
    pub fn msg_sharing_ratio(&self) -> f64 {
        if self.sim_msg_bytes_resident == 0 {
            1.0
        } else {
            self.sim_msg_bytes_logical as f64 / self.sim_msg_bytes_resident as f64
        }
    }

    /// Fraction of proof reads the slaves answered from their reply
    /// caches (hits over hits+misses; 0 when no proof read probed one).
    pub fn proof_cache_hit_rate(&self) -> f64 {
        let total = self.proof_cache_hits + self.proof_cache_misses;
        ratio(self.proof_cache_hits, total)
    }

    /// Fraction of anchor-signature checks the clients answered from
    /// their stamp-verification caches.
    pub fn stamp_cache_hit_rate(&self) -> f64 {
        let total = self.stamp_cache_hits + self.stamp_cache_misses;
        ratio(self.stamp_cache_hits, total)
    }

    /// Fraction of logical bytes the chunk store saved through dedup
    /// (`1 - physical/logical`; 0 when nothing was written).
    pub fn chunk_dedup_ratio(&self) -> f64 {
        if self.chunk_logical_bytes == 0 {
            0.0
        } else {
            1.0 - self.chunk_physical_bytes as f64 / self.chunk_logical_bytes as f64
        }
    }

    /// Compact human-readable summary (used by examples).
    pub fn render(&self) -> String {
        format!(
            "reads: issued={} accepted={} failed={} stale_rejects={} sensitive={}\n\
             proofs: issued={} accepted={} rejected={} retries={} fallbacks={} \
             unsupported={} bytes_p50={} depth_p50={}\n\
             streams: issued={} accepted={} chunks_verified={} chunk_rejects={}\n\
             ranges: rows_verified={} proof_bytes_p50={} scattered={} stitch_rejects={}\n\
             chunks: stored={} deduped={} logical={}B physical={}B dedup_ratio={:.3}\n\
             writes: committed={} denied={} per_round_mean={:.2}\n\
             lies: told={} wrong_accepted={} ({:.4}%) proof={} unconvicted={} \
             honest_excluded={}\n\
             double-check: sent={} mismatch={} throttled={}\n\
             discovery: immediate={} delayed={} exclusions={} reassignments={}\n\
             audit: submitted={} checked={} cache_hits={} mismatch={} late={} backlog={}\n\
             caches: proof hit={} miss={} (rate={:.3}) evict={} inval={} bytes={} \
             stamp hit={} miss={} cert hit={} miss={}\n\
             sim: events={} queue_peak={} slots={} cancelled={} \
             msg_logical={}B msg_resident={}B sharing={:.2}x\n\
             read latency: p50={}us p90={}us p99={}us",
            self.reads_issued,
            self.reads_accepted,
            self.reads_failed,
            self.rejected_stale,
            self.reads_sensitive,
            self.proof_reads_issued,
            self.proof_reads_accepted,
            self.proof_reads_rejected,
            self.proof_retries,
            self.proof_fallbacks,
            self.proof_unsupported,
            self.proof_bytes.p50,
            self.proof_depth.p50,
            self.stream_reads_issued,
            self.stream_reads_accepted,
            self.stream_chunks_verified,
            self.stream_chunk_rejects,
            self.range_rows_verified,
            self.range_proof_bytes.p50,
            self.range_scans_scattered,
            self.range_stitch_rejects,
            self.chunks_stored,
            self.chunks_deduped,
            self.chunk_logical_bytes,
            self.chunk_physical_bytes,
            self.chunk_dedup_ratio(),
            self.writes_committed,
            self.writes_denied,
            self.writes_per_round.mean,
            self.lies_told,
            self.wrong_accepted,
            100.0 * self.wrong_accept_rate(),
            self.wrong_accepted_proof,
            self.wrong_accepted_unconvicted,
            self.honest_excluded,
            self.dc_sent,
            self.dc_mismatch,
            self.dc_throttled,
            self.discovery_immediate,
            self.discovery_delayed,
            self.exclusions,
            self.reassignments,
            self.audit_submitted,
            self.audit_checked,
            self.audit_cache_hits,
            self.audit_mismatch,
            self.audit_late,
            self.audit_backlog,
            self.proof_cache_hits,
            self.proof_cache_misses,
            self.proof_cache_hit_rate(),
            self.proof_cache_evictions,
            self.proof_cache_invalidations,
            self.proof_cache_bytes,
            self.stamp_cache_hits,
            self.stamp_cache_misses,
            self.cert_cache_hits,
            self.cert_cache_misses,
            self.sim_events,
            self.sim_queue_peak,
            self.sim_queue_slots,
            self.sim_timers_cancelled,
            self.sim_msg_bytes_logical,
            self.sim_msg_bytes_resident,
            self.msg_sharing_ratio(),
            self.read_latency.p50,
            self.read_latency.p90,
            self.read_latency.p99,
        )
    }
}

/// `part / whole`, or 0 of nothing.
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
