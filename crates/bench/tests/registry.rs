//! Registry completeness: every row of the experiment table runs
//! registered scenarios, and every paper-claim and sweep scenario has
//! exactly one row, so the table never rots as scenarios are added or
//! renamed.

use sdr_bench::EXPERIMENT_TABLE;
use sdr_core::scenario::registry;

/// Row names are unique, every scenario a row runs is registered, and
/// each `e*` scenario and sweep study is run by exactly one row.
#[test]
fn experiment_table_runs_each_scenario_once() {
    let mut rows: Vec<&str> = EXPERIMENT_TABLE.iter().map(|e| e.name).collect();
    rows.sort_unstable();
    rows.dedup();
    assert_eq!(rows.len(), EXPERIMENT_TABLE.len(), "duplicate experiment names");

    let run: Vec<&str> = EXPERIMENT_TABLE
        .iter()
        .flat_map(|e| e.scenarios().map(|s| s.name))
        .collect();
    for name in &run {
        assert!(registry::lookup(name).is_some(), "`{name}` is not registered");
    }
    let sweeps = [
        "sharded_commit",
        "batched_commit",
        "cdn_media",
        "churn_100k",
        "flash_crowd",
        "range_scan",
    ];
    let claims = registry::names()
        .into_iter()
        .filter(|n| n.strip_prefix('e').is_some_and(|r| r.starts_with(|c: char| c.is_ascii_digit())));
    for name in claims.chain(sweeps) {
        let rows = run.iter().filter(|&&r| r == name).count();
        assert_eq!(rows, 1, "`{name}` is run by {rows} experiment rows, not one");
    }
}

/// The registry's own invariants: names are unique and every spec
/// validates (including sweep applicability).
#[test]
fn registry_names_are_unique_and_valid() {
    let names = registry::names();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "duplicate registry names");
    for name in names {
        let spec = registry::lookup(name).expect("registered");
        spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// The production-scale scenario actually runs: a shrunk `large_catalog`
/// (10k products) completes end-to-end — infeasible before the
/// copy-on-write store, when every committed write deep-cloned and every
/// digest re-encoded the whole dataset.
#[test]
fn large_catalog_scenario_runs_shrunk() {
    use sdr_core::scenario::Runner;
    use sdr_sim::SimDuration;

    let mut spec = registry::lookup("large_catalog").expect("registered");
    spec.duration = SimDuration::from_secs(10);
    spec.checkpoints.clear();
    spec.seeds = vec![spec.seeds[0]];
    let report = Runner::new(spec).run().expect("scenario runs");
    let stats = &report.cells[0].runs[0].stats;
    assert!(stats.reads_issued > 0, "no reads issued");
    assert!(stats.writes_committed > 0, "no writes committed");
}

/// The five examples are registered too (they fetch specs by name).
#[test]
fn example_scenarios_are_registered() {
    for name in [
        "quickstart",
        "byzantine_storm",
        "master_failover",
        "cdn_catalog",
        "medical_db",
    ] {
        assert!(
            registry::lookup(name).is_some(),
            "example scenario `{name}` missing from registry"
        );
    }
}
