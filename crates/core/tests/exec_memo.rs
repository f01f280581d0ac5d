//! The execution memo every replica of a deployment shares must be a
//! host-side optimisation only: a run with every memo hit re-executed
//! and compared (`cache_verify`) is clean and reports exactly what the
//! same run reports without the check, and the memo does take hits.

use sdr_core::scenario::{registry, Runner};
use sdr_sim::SimDuration;
use sdr_store::ExecMemoStats;

/// `churn_100k` shrunk to a debug-build test: computed queries (the
/// catalogue mix) across four shards, audits, double-checks and churn.
fn run(cache_verify: bool) -> (String, ExecMemoStats) {
    let mut spec = registry::lookup("churn_100k").expect("registered");
    spec.duration = SimDuration::from_secs(4);
    spec.checkpoints.clear();
    spec.seeds = vec![5];
    spec.config.n_clients = 150;
    spec.config.cache_verify = cache_verify;
    spec.workload.dataset.n_products = 4_000;
    spec.workload.dataset.n_reviews = 2_000;
    spec.workload.dataset.n_files = 20;
    let mut memo = ExecMemoStats::default();
    let report = Runner::new(spec)
        .probe(|sys, _| memo = sys.exec_memo_stats())
        .run()
        .expect("runs");
    (report.to_json_string(), memo)
}

#[test]
fn checked_memo_hits_do_not_change_the_report() {
    // A hit that differs from a fresh execution panics under the check.
    let (checked, memo) = run(true);
    let (plain, plain_memo) = run(false);
    assert_eq!(checked, plain, "cache_verify leaked into the report");
    assert_eq!(memo, plain_memo, "the check changed what the memo holds");
    assert!(memo.hits > 0, "the memo never hit: {memo:?}");
    assert!(memo.misses > 0, "nothing was executed: {memo:?}");
    assert!(memo.peak_bytes <= sdr_store::EXEC_MEMO_BUDGET);
}
