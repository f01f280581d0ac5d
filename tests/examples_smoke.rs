//! Smoke test: every example builds, `quickstart` runs to completion, and
//! `master_failover` — the one example that crashes the elected auditor —
//! ends with the service intact.
//!
//! Guards the README's promises — `cargo run --example quickstart` must
//! always work from a clean checkout.  Uses the same `cargo` binary that
//! is running this test, against this workspace.

use std::path::Path;
use std::process::Command;

fn cargo() -> Command {
    let mut cmd = Command::new(env!("CARGO"));
    cmd.current_dir(Path::new(env!("CARGO_MANIFEST_DIR")));
    cmd
}

#[test]
fn examples_build_and_quickstart_runs() {
    // Build all five examples in one pass (debug: shares the work this
    // test run already did).
    let build = cargo()
        .args(["build", "--examples", "-p", "secure_replication"])
        .output()
        .expect("failed to spawn cargo build --examples");
    assert!(
        build.status.success(),
        "cargo build --examples failed:\n{}",
        String::from_utf8_lossy(&build.stderr)
    );

    // A short quickstart run must reach the success banner.  2 simulated
    // seconds keeps the debug-profile run fast; the example itself defaults
    // to 30 s when no override is given.
    let run = cargo()
        .args(["run", "-q", "--example", "quickstart", "-p", "secure_replication"])
        .env("QUICKSTART_SIM_SECS", "2")
        .output()
        .expect("failed to spawn cargo run --example quickstart");
    assert!(
        run.status.success(),
        "quickstart exited nonzero:\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        stdout.contains("running") && stdout.contains("simulated second"),
        "quickstart output missing expected banner:\n{stdout}"
    );
}

#[test]
fn master_failover_never_stops_the_service() {
    let run = cargo()
        .args(["run", "-q", "--example", "master_failover", "-p", "secure_replication"])
        .output()
        .expect("failed to spawn cargo run --example master_failover");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "master_failover exited nonzero:\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(
        stdout.contains("the service never stopped"),
        "master_failover output missing its final verdict:\n{stdout}"
    );
}
