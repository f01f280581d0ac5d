//! Every metric, declared once.
//!
//! The `metrics_table!` invocation at the bottom of this file is the one
//! place a metric is spelled.  A row gives its id constant, its registry
//! name and its kind (`counter`, `hist`, `series`, or a per-shard
//! `shard_counter` / `shard_series` family), and the table has three
//! sections:
//!
//! * `reported` — the fields of [`SystemStats`], in JSON key order.  Each
//!   row is the field's doc, its name and what feeds it: a `counter` or a
//!   `hist` (whose bracket lists the `Summary` quantiles that become
//!   `<field>_<quantile>` aggregates), or `computed` / `computed_vec` for
//!   a value [`SystemStats::collect`] works out by hand (`mean "<name>"`
//!   reports a vector's mean as an aggregate).
//! * `derived` — rates computed from other fields: a method of
//!   [`SystemStats`] that is reported as an aggregate only.
//! * `internal` — metrics the actors write and tests read but no report
//!   carries.
//!
//! From the rows the macro derives the id constants (`READ_ISSUED`, …; the
//! actors import this module as `id` and write
//! `ctx.metrics().inc(id::READ_ISSUED)`), the
//! [`SystemStats`] struct with its JSON impls, the metric-backed half of
//! `collect`, [`SystemStats::numeric_fields`] (in table order: reported
//! rows, then derived ones) and [`TABLE`], the names as data.  Adding a
//! counter is one `internal` row; reporting it is one `reported` row
//! instead.  An id that is not in the table does not compile; only
//! [`lookup`] still takes a string, for the series names that scenario
//! specs carry as JSON.
//!
//! Ids are slot indices into `sdr_sim::Metrics`, numbered per kind in table
//! order; the per-shard families follow the flat ids of their kind.

use crate::client::ClientCounters;
use sdr_sim::{Counter, Hist, Metrics, PerShard, Series, Summary};

/// Arithmetic mean; 0 of nothing.
fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Expands to what follows the arrow; the token before it only ties the
/// expansion to the row alternative that bound it.
macro_rules! when {
    ($row:tt => $($then:tt)*) => { $($then)* };
}

/// The name of one histogram aggregate: `<field>_<quantile>` unless the
/// row gives it outright.
macro_rules! aggregate_name {
    ($field:ident $q:ident) => {
        concat!(stringify!($field), "_", stringify!($q))
    };
    ($field:ident $q:ident $name:literal) => {
        $name
    };
}

/// The id constant of one flat metric, numbered by its `ordinal`.
macro_rules! id {
    ($kind:ident $id:ident $name:literal) => {
        #[doc = concat!("`", $name, "`")]
        pub const $id: $kind = $kind::new(ordinal::$kind::$id as usize);
    };
}

/// The id constant of one per-shard family, placed after the flat ids of
/// its kind.
macro_rules! family {
    ($kind:ident $family:ident $id:ident $name:literal) => {
        #[doc = concat!("`", $name, "<shard>`")]
        pub const $id: PerShard<$kind> = PerShard::new(
            ordinal::$kind::Len as usize + ordinal::$family::$id as usize,
            ordinal::$family::Len as usize,
            $kind::new,
        );
    };
}

/// Derives everything listed in the module docs from the table's rows.
macro_rules! metrics_table {
    (
        reported {$(
            $(#[$doc:meta])*
            $field:ident =
                $(counter $cid:ident $cname:literal)?
                $(hist $hid:ident $hname:literal [$($q:ident $(as $qname:literal)?),*])?
                $(computed $pty:ident)?
                $(computed_vec $vty:ident $(mean $vmean:literal)?)?;
        )*}
        derived {$($rate:ident;)*}
        internal {$(
            $(counter $icid:ident $icname:literal)?
            $(hist $ihid:ident $ihname:literal)?
            $(series $isid:ident $isname:literal)?
            $(shard_counter $scid:ident $scname:literal)?
            $(shard_series $ssid:ident $ssname:literal)?;
        )*}
    ) => {
        /// Slot numbers: one enum per id kind, its variants in table order.
        #[allow(non_camel_case_types)]
        mod ordinal {
            pub enum Counter { $($($cid,)?)* $($($icid,)?)* Len }
            pub enum Hist { $($($hid,)?)* $($($ihid,)?)* }
            pub enum Series { $($($isid,)?)* Len }
            pub enum ShardCounter { $($($scid,)?)* Len }
            pub enum ShardSeries { $($($ssid,)?)* Len }
        }
        $(
            $(id!(Counter $cid $cname);)?
            $(id!(Hist $hid $hname);)?
        )*
        $(
            $(id!(Counter $icid $icname);)?
            $(id!(Hist $ihid $ihname);)?
            $(id!(Series $isid $isname);)?
            $(family!(Counter ShardCounter $scid $scname);)?
            $(family!(Series ShardSeries $ssid $ssname);)?
        )*

        /// Every metric's registry name (a per-shard family's is followed
        /// by the shard number) with the [`SystemStats`] field it feeds:
        /// the `reported` section, then the `internal` one, in row order.
        pub const TABLE: &[(&str, Option<&str>)] = &[
            $($(($cname, Some(stringify!($field))),)? $(($hname, Some(stringify!($field))),)?)*
            $(
                $(($icname, None),)? $(($ihname, None),)? $(($isname, None),)?
                $(($scname, None),)? $(($ssname, None),)?
            )*
        ];

        /// Resolves a time series by registry name — the one read by
        /// string, for `ScenarioSpec::capture_series`, which is JSON.
        /// `None` for a name no `series` row declares.
        pub fn lookup(name: &str) -> Option<Series> {
            match name {
                $($($isname => Some($isid),)?)*
                _ => None,
            }
        }

        /// Aggregated statistics for one run.
        #[derive(Clone, Debug, Default, serde::ToJson, serde::FromJson)]
        pub struct SystemStats {$(
            $(#[$doc])*
            pub $field:
                $(when!($cid => u64))? $(when!($hid => Summary))? $($pty)? $(Vec<$vty>)?,
        )*}

        impl SystemStats {
            /// Reads every metric-backed field out of `m`; the `computed`
            /// rows are left at their defaults for
            /// [`SystemStats::collect`] to fill in.
            pub(crate) fn from_metrics(m: &mut Metrics) -> Self {
                SystemStats {
                    $($($field: m.counter($cid),)? $($field: m.summary($hid),)?)*
                    ..SystemStats::default()
                }
            }

            /// Every scalar field (histograms as their listed quantiles,
            /// then the derived rates), flattened to `(name, value)` pairs
            /// in table order.  This is what the scenario runner's
            /// per-cell mean/min/max aggregation runs over, so a row in
            /// the table is reportable everywhere.
            pub fn numeric_fields(&self) -> Vec<(&'static str, f64)> {
                vec![
                    $(
                        $(when!($cid => (stringify!($field), self.$field as f64)),)?
                        $($((aggregate_name!($field $q $($qname)?), self.$field.$q as f64),)*)?
                        $(when!($pty => (stringify!($field), self.$field as f64)),)?
                        $($(($vmean, mean(&self.$field)),)?)?
                    )*
                    $((stringify!($rate), self.$rate()),)*
                ]
            }
        }
    };
}

metrics_table! {
    reported {
        /// Reads issued by clients.
        reads_issued = counter READ_ISSUED "read.issued";
        /// Reads fully verified and accepted.
        reads_accepted = counter READ_ACCEPTED "read.accepted";
        /// Reads that exhausted retries.
        reads_failed = counter READ_FAILED "read.failed";
        /// Responses rejected for staleness.
        rejected_stale = counter READ_REJECTED_STALE "read.rejected.stale";
        /// Responses rejected for hash mismatch (inconsistent liars).
        rejected_hash = counter READ_REJECTED_HASH "read.rejected.hash";
        /// Read retries.
        read_retries = counter READ_RETRY "read.retry";
        /// Reads served by the trusted masters (sensitive variant).
        reads_sensitive = counter READ_SENSITIVE "read.sensitive";
        /// Static reads issued on the authenticated proof path.
        proof_reads_issued = counter READ_PROOF_ISSUED "read.proof_issued";
        /// Proof-verified reads accepted (deterministically, no auditor).
        proof_reads_accepted = counter READ_PROOF_ACCEPTED "read.proof_accepted";
        /// Proof-read replies rejected by client-side verification for any
        /// reason — bad proof, stale or forged digest stamp, unknown sender
        /// (lying or stale slaves caught immediately).
        proof_reads_rejected = counter READ_PROOF_REJECTED "read.proof_rejected";
        /// Proof reads that fell back to the pledged pipeline.
        proof_fallbacks = counter READ_PROOF_FALLBACK "read.proof_fallback";
        /// Proof requests a slave refused because the query shape has no
        /// Merkle path (non-point queries routed to the proof path).
        proof_unsupported = counter SLAVE_PROOF_UNSUPPORTED "slave.proof_unsupported";
        /// Rejected proof replies retried on another replica of the same
        /// shard while still on the proof path (proof-path hardening; these
        /// happen *before* any pledged fallback).
        proof_retries = counter READ_PROOF_RETRY "read.proof_retry";
        /// Proof size on the wire, bytes (per accepted proof read).
        proof_bytes = hist PROOF_BYTES "proof.bytes" [mean];
        /// Proof path depth (hash work per verification).
        proof_depth = hist PROOF_DEPTH "proof.depth" [mean];
        /// Latency of proof-verified reads (µs).
        proof_latency = hist READ_PROOF_LATENCY_US "read.proof_latency_us" [mean, p50, p99];
        /// Lies slaves told (ground truth).
        lies_told = counter SLAVE_LIES "slave.lies";
        /// Accepted reads that were wrong, judged against the ground truth
        /// at the version their evidence names, once per read whatever its
        /// quorum (a trusted master's answer is not judged).
        wrong_accepted = counter READ_WRONG_ACCEPTED "read.wrong_accepted";
        /// The proof, range and stream reads among `wrong_accepted`: 0
        /// unless client-side verification itself is broken.
        wrong_accepted_proof = counter READ_WRONG_ACCEPTED_PROOF "read.wrong_accepted_proof";
        /// The reads among `wrong_accepted` whose serving slave no master
        /// had excluded by the end of the run: liars not (yet) caught.
        wrong_accepted_unconvicted = computed u64;
        /// Honest slaves in any master's excluded set at the end of the run.
        honest_excluded = computed u64;
        /// Double-checks sent by clients.
        dc_sent = counter DC_SENT "dc.sent";
        /// Double-check mismatches (immediate discoveries at the master).
        dc_mismatch = counter DC_MISMATCH "dc.mismatch";
        /// Double-checks throttled by greedy enforcement.
        dc_throttled = counter DC_THROTTLED "dc.throttled";
        /// Immediate discoveries (Section 3.5).
        discovery_immediate = counter DISCOVERY_IMMEDIATE "discovery.immediate";
        /// Delayed discoveries via the audit (Section 3.5).
        discovery_delayed = counter DISCOVERY_DELAYED "discovery.delayed";
        /// Slaves excluded.
        exclusions = counter EXCLUSION_COUNT "exclusion.count";
        /// Client reassignments after exclusions.
        reassignments = counter REASSIGN_COUNT "reassign.count";
        /// Pledges submitted to the auditor.
        audit_submitted = counter AUDIT_SUBMITTED "audit.submitted";
        /// Pledges actually checked.
        audit_checked = counter AUDIT_CHECKED "audit.checked";
        /// Auditor cache hits.
        audit_cache_hits = counter AUDIT_CACHE_HIT "audit.cache_hit";
        /// Audit mismatches found.
        audit_mismatch = counter AUDIT_MISMATCH "audit.mismatch";
        /// Pledges skipped by sampled auditing.
        audit_skipped = counter AUDIT_SKIPPED_SAMPLING "audit.skipped_sampling";
        /// Pledges that reached the auditor after their version's bucket
        /// closed: answers a client already accepted that nobody audits.
        audit_late = counter AUDIT_LATE "audit.late";
        /// Writes committed.
        writes_committed = counter WRITE_COMMITTED "write.committed";
        /// Writes denied by ACL.
        writes_denied = counter WRITE_DENIED "write.denied";
        /// Client writes committed per sequencer round (batch-size
        /// distribution; every observation is `1` at `max_write_batch = 1`).
        writes_per_round = hist WRITE_BATCH_SIZE "write.batch_size" [mean, max];
        /// Read latency summary (µs).
        read_latency = hist READ_LATENCY_US "read.latency_us" [mean, p50, p90, p99];
        /// Write commit latency summary (µs).
        write_latency = hist WRITE_LATENCY_US "write.latency_us" [mean, p50, p90, p99];
        /// Audit lag summary (µs).
        audit_lag = hist AUDIT_LAG_HIST_US "audit.lag_hist_us" [mean, p50, p90, p99];
        /// Final auditor backlog.
        audit_backlog = computed u64;
        /// Snapshot-ring nodes owned exclusively by one retained snapshot,
        /// summed over all masters (the ring's true retention cost).
        snapshot_nodes_owned = computed u64;
        /// Snapshot-ring nodes shared with other handles, summed over all
        /// masters (structural reuse across versions).
        snapshot_nodes_shared = computed u64;
        /// Per-master CPU utilisation (0..=1), by global shard-major index.
        master_utilisation = computed_vec f64 mean "master_util_mean";
        /// Per-slave CPU utilisation (0..=1), by global shard-major index.
        slave_utilisation = computed_vec f64 mean "slave_util_mean";
        /// Per-client counters, by index.
        per_client = computed_vec ClientCounters;
        /// Writes committed per shard (counted once per commit, at the
        /// admitting sequencer of the owning subgroup).
        writes_committed_per_shard = computed_vec u64;
        /// Directory lookups per shard (the routing-table load split).
        dir_lookups_per_shard = computed_vec u64;
        /// Unique chunks in the content store (one master per shard, summed).
        chunks_stored = computed u64;
        /// Chunk writes that hit an existing chunk (dedup hits).
        chunks_deduped = computed u64;
        /// Logical file bytes (what the files claim to hold).
        chunk_logical_bytes = computed u64;
        /// Physical chunk bytes actually stored (after dedup).
        chunk_physical_bytes = computed u64;
        /// Streamed `ReadFileRange` requests issued on the proof path.
        stream_reads_issued = counter READ_STREAM_ISSUED "read.stream_issued";
        /// Streams fully verified chunk-by-chunk and accepted.
        stream_reads_accepted = counter READ_STREAM_ACCEPTED "read.stream_accepted";
        /// Individual chunks verified across all streams.
        stream_chunks_verified = counter READ_STREAM_CHUNKS_VERIFIED "read.stream_chunks_verified";
        /// Streams rejected at a corrupted chunk.
        stream_chunk_rejects = counter READ_STREAM_CHUNK_REJECTED "read.stream_chunk_rejected";
        /// Range-proof size on the wire, bytes (per verified `ScanRange`
        /// reply — one proof covers every row in the page).
        range_proof_bytes = hist RANGE_PROOF_BYTES "range.proof_bytes" [mean as "range_proof_bytes"];
        /// Rows delivered under a verified range proof, summed over all
        /// accepted `ScanRange` replies.
        range_rows_verified = counter RANGE_ROWS_VERIFIED "range.rows_verified";
        /// `ScanRange` reads scattered across shard boundaries (the parent
        /// counts once; per-shard sub-scans are bookkeeping).
        range_scans_scattered = counter READ_RANGE_SCATTERED "read.range_scattered";
        /// Scattered scans whose verified per-shard pieces failed the
        /// stitch check (gap, overlap, or short coverage) and were refused.
        range_stitch_rejects = counter READ_RANGE_STITCH_REJECTED "read.range_stitch_rejected";
        /// Client churn rejoins completed (each redoes the setup phase).
        churn_joins = counter CLIENT_CHURN_JOIN "client.churn_join";
        /// Client churn departures.
        churn_leaves = counter CLIENT_CHURN_LEAVE "client.churn_leave";
        /// Simulator events processed over the run.
        sim_events = computed u64;
        /// High-water mark of live events in the scheduler.
        sim_queue_peak = computed u64;
        /// Live events still queued at collection time.
        sim_queue_live = computed u64;
        /// Event-slab slots allocated (scheduler resident-set proxy).
        sim_queue_slots = computed u64;
        /// Always 0: the scheduler has no timer cancellation.  Kept so
        /// reports and their readers keep one shape.
        sim_timers_cancelled = computed u64;
        /// Wire bytes summed over every enqueued delivery — what the queue
        /// would hold if each fan-out delivery carried its own copy.
        sim_msg_bytes_logical = computed u64;
        /// Wire bytes of unique payload allocations enqueued; a multicast
        /// counts once here, so `logical / resident` is the sharing ratio.
        sim_msg_bytes_resident = computed u64;
        /// Slave proof-cache hits: proof reads answered from a memoized
        /// reply (point proofs and stream headers alike).
        proof_cache_hits = counter SLAVE_PROOF_CACHE_HIT "slave.proof_cache_hit";
        /// Slave proof-cache misses (the reply was built and cached).
        proof_cache_misses = counter SLAVE_PROOF_CACHE_MISS "slave.proof_cache_miss";
        /// Entries evicted from slave proof caches by the LRU byte budget.
        proof_cache_evictions = counter SLAVE_PROOF_CACHE_EVICT "slave.proof_cache_evict";
        /// Wholesale slave proof-cache invalidations (new anchor stamp or
        /// an applied write wiped a non-empty cache).
        proof_cache_invalidations = counter SLAVE_PROOF_CACHE_INVALIDATE "slave.proof_cache_invalidate";
        /// Bytes resident in slave proof caches at collection time, summed
        /// over every slave.
        proof_cache_bytes = computed u64;
        /// Client stamp-verification cache hits (anchor signature skipped).
        stamp_cache_hits = counter CLIENT_STAMP_CACHE_HIT "client.stamp_cache_hit";
        /// Client stamp-verification cache misses (full signature check).
        stamp_cache_misses = counter CLIENT_STAMP_CACHE_MISS "client.stamp_cache_miss";
        /// Client verified-certificate cache hits.
        cert_cache_hits = counter CLIENT_CERT_CACHE_HIT "client.cert_cache_hit";
        /// Client verified-certificate cache misses.
        cert_cache_misses = counter CLIENT_CERT_CACHE_MISS "client.cert_cache_miss";
    }
    derived {
        wrong_accept_rate;
        chunk_dedup_ratio;
        msg_sharing_ratio;
        proof_cache_hit_rate;
        stamp_cache_hit_rate;
    }
    internal {
        counter ACCUSATION_REJECTED "accusation.rejected";
        counter ACCUSATION_UNKNOWN_SLAVE "accusation.unknown_slave";
        counter ACCUSATION_VERSION_UNAVAILABLE "accusation.version_unavailable";
        series AUDIT_BACKLOG "audit.backlog";
        counter AUDIT_BOGUS_VERSION "audit.bogus_version";
        series AUDIT_LAG_US "audit.lag_us";
        counter AUDIT_QUERY_ERRORS "audit.query_errors";
        counter AUDIT_UNVERIFIABLE "audit.unverifiable";
        counter AUDIT_VERSION_ADVANCES "audit.version_advances";
        counter CLIENT_BAD_MASTER_CERT "client.bad_master_cert";
        counter CLIENT_BAD_SLAVE_CERT "client.bad_slave_cert";
        counter CLIENT_CACHE_DIVERGENCE "client.cache_divergence";
        counter CLIENT_DC_MATCH "client.dc_match";
        counter CLIENT_DC_MISMATCH "client.dc_mismatch";
        counter CLIENT_DC_THROTTLED "client.dc_throttled";
        counter CLIENT_DC_VERSION_UNAVAILABLE "client.dc_version_unavailable";
        counter CLIENT_READY "client.ready";
        counter CLIENT_REASSIGNED "client.reassigned";
        counter DC_MATCH "dc.match";
        counter DC_RECEIVED "dc.received";
        counter DC_UNVERIFIABLE_PLEDGE "dc.unverifiable_pledge";
        counter DIRECTORY_AUDITOR_CHANGES "directory.auditor_changes";
        shard_counter DIRECTORY_AUDITOR_CHANGES_SHARD "directory.auditor_changes.shard";
        counter DIRECTORY_LOOKUPS "directory.lookups";
        shard_counter DIRECTORY_LOOKUPS_SHARD "directory.lookups.shard";
        counter DIRECTORY_UNKNOWN_SHARD "directory.unknown_shard";
        series EXCLUSION_AT_US "exclusion.at_us";
        counter GREEDY_SUSPECTED_CHECKS "greedy.suspected_checks";
        counter KEEPALIVE_SENT "keepalive.sent";
        counter MASTER_SETUPS "master.setups";
        counter MASTER_SLAVES_ADOPTED "master.slaves_adopted";
        counter MASTER_TRUSTED_READS "master.trusted_reads";
        counter MASTER_VIEW_CHANGES "master.view_changes";
        counter MASTER_WRITES_APPLIED "master.writes_applied";
        hist RANGE_SCAN_ROWS "range.scan_rows";
        counter READ_ACCEPTED_SENSITIVE "read.accepted_sensitive";
        counter READ_CORRECTED_BY_MASTER "read.corrected_by_master";
        counter READ_QUORUM_MISMATCH "read.quorum_mismatch";
        counter READ_RANGE_FAILED "read.range_failed";
        counter READ_RANGE_STITCHED "read.range_stitched";
        counter READ_REFUSED "read.refused";
        counter READ_REJECTED_PROOF "read.rejected.proof";
        counter READ_REJECTED_SIG "read.rejected.sig";
        counter READ_REJECTED_STAMP_SIG "read.rejected.stamp_sig";
        counter READ_REJECTED_UNKNOWN_SLAVE "read.rejected.unknown_slave";
        hist READ_SENSITIVE_LATENCY_US "read.sensitive_latency_us";
        counter READ_TIMEOUT "read.timeout";
        counter SLAVE_BAD_KEEPALIVES "slave.bad_keepalives";
        counter SLAVE_BAD_UPDATES "slave.bad_updates";
        counter SLAVE_CACHE_DIVERGENCE "slave.cache_divergence";
        counter SLAVE_DIGEST_MISMATCH "slave.digest_mismatch";
        counter SLAVE_EXCLUDED_NOTICES "slave.excluded_notices";
        counter SLAVE_PROOF_READS "slave.proof_reads";
        counter SLAVE_QUERY_ERRORS "slave.query_errors";
        counter SLAVE_RANGE_READS "slave.range_reads";
        counter SLAVE_READS "slave.reads";
        counter SLAVE_REFUSED_MALICIOUS "slave.refused_malicious";
        counter SLAVE_REFUSED_STALE "slave.refused_stale";
        counter SLAVE_SIGN_FAILURES "slave.sign_failures";
        counter SLAVE_STREAM_READS "slave.stream_reads";
        counter SLAVE_SYNC_REQUESTS "slave.sync_requests";
        counter SLAVE_UPDATES_APPLIED "slave.updates_applied";
        counter SLAVE_UPDATES_DROPPED "slave.updates_dropped";
        hist STREAM_BYTES "stream.bytes";
        hist STREAM_CHUNKS "stream.chunks";
        shard_series WRITE_COMMIT_US_SHARD "write.commit_us.shard";
        shard_counter WRITE_COMMITTED_SHARD "write.committed.shard";
        counter WRITE_DEFERRED "write.deferred";
        counter WRITE_DENIED_SEEN "write.denied_seen";
        counter WRITE_FAILED_SEEN "write.failed_seen";
        counter WRITE_ISSUED "write.issued";
        counter WRITE_OVERLOADED "write.overloaded";
        counter WRITE_RECEIVED "write.received";
        counter WRITE_TIMEOUT "write.timeout";
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json::ToJson;
    use std::collections::HashSet;

    #[test]
    fn every_metric_and_every_aggregate_is_declared_once() {
        let mut names = HashSet::new();
        for (name, _) in TABLE {
            assert!(names.insert(name), "metric `{name}` declared twice");
        }
        let stats = SystemStats::default();
        let mut aggregates = HashSet::new();
        for (name, _) in stats.numeric_fields() {
            assert!(aggregates.insert(name), "aggregate `{name}` declared twice");
        }

        // Every reported row feeds a key of the stats JSON, and the rows
        // come in the order of the keys.
        let json = stats.to_json();
        let mut keys = json
            .as_object()
            .expect("stats object")
            .iter()
            .map(|(k, _)| k);
        for field in TABLE.iter().filter_map(|row| row.1) {
            assert!(
                keys.any(|k| k == field),
                "`{field}` missing or out of table order"
            );
        }

        // A name resolves to the id declared on its row.
        assert_eq!(lookup("audit.backlog"), Some(AUDIT_BACKLOG));
        assert_eq!(lookup("audit.checked"), None, "a counter is not a series");
    }
}
