//! CDN catalogue: the paper's Section 6 motivating scenario.
//!
//! "One possibility is having the organization that owns the data content
//! provide the master servers, while the CDN provides the slaves" — an
//! e-commerce product catalogue replicated over a CDN whose edge nodes the
//! owner does not control.  Content changes slowly (price updates), reads
//! vastly outnumber writes, and a handful of edge nodes misbehave.
//!
//! The `cdn_catalog` scenario runs two compressed shopping days with a
//! checkpoint at the day boundary; per-day numbers fall out of the run
//! record's checkpoint snapshots.
//!
//! Run with: `cargo run --release --example cdn_catalog`

use secure_replication::core::scenario::{registry, Runner};
use secure_replication::core::SystemStats;

fn day_summary(day: usize, stats: &SystemStats) {
    println!(
        "\n--- end of day {day} ---\n\
         catalogue reads accepted: {} (of {} issued)\n\
         price/stock updates committed: {}\n\
         compromised-node lies told: {}; accepted reads wrong by the ground truth: {} \
         ({} from edge nodes not yet excluded)\n\
         discoveries: {} immediate + {} delayed; edge nodes excluded: {}",
        stats.reads_accepted,
        stats.reads_issued,
        stats.writes_committed,
        stats.lies_told,
        stats.wrong_accepted,
        stats.wrong_accepted_unconvicted,
        stats.discovery_immediate,
        stats.discovery_delayed,
        stats.exclusions,
    );
}

fn main() {
    let spec = registry::lookup("cdn_catalog").expect("registered scenario");
    let n_masters = spec.config.n_masters;

    println!("simulating two compressed shopping days on the CDN ...");
    let report = Runner::new(spec).run().expect("scenario runs");

    let run = &report.cells[0].runs[0];
    // Day 1 = the checkpoint at t=120s; day 2 = the final stats.
    if let Some(cp) = run.checkpoints.first() {
        day_summary(1, &cp.stats);
    }
    day_summary(2, &run.stats);

    let final_stats = &run.stats;
    println!(
        "\nread latency: p50 = {} µs, p99 = {} µs",
        final_stats.read_latency.p50, final_stats.read_latency.p99
    );
    println!(
        "audit: checked {} pledges, cache hits {}, final backlog {}",
        final_stats.audit_checked, final_stats.audit_cache_hits, final_stats.audit_backlog
    );
    println!(
        "\nbottom line: the owner ran {} trusted machines while the CDN served {} reads;\n\
         misbehaving edge nodes were evicted with signed pledges as evidence.",
        n_masters, final_stats.reads_accepted
    );
}
