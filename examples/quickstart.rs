//! Quickstart: the smallest end-to-end deployment.
//!
//! Fetches the `quickstart` scenario from the registry — a 3-master /
//! 4-slave / 8-client system over the default catalogue content with one
//! subtly lying slave — runs 30 simulated seconds of mixed reads and
//! writes through the scenario [`Runner`], and prints the run statistics.
//!
//! Run with: `cargo run --release --example quickstart`

use secure_replication::core::scenario::{registry, Runner};
use secure_replication::sim::SimDuration;

fn main() {
    let mut spec = registry::lookup("quickstart").expect("registered scenario");

    // The examples smoke test shortens the run; humans get the full 30 s.
    if let Some(secs) = std::env::var("QUICKSTART_SIM_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        spec.duration = SimDuration::from_secs(secs);
    }
    println!(
        "running {} simulated seconds ...",
        spec.duration.as_secs_f64()
    );

    let report = Runner::new(spec).run().expect("scenario runs");
    let stats = &report.cells[0].runs[0].stats;
    println!("\n{}", stats.render());

    if stats.exclusions > 0 {
        println!(
            "\nthe lying slave was caught and excluded; {} accepted reads were wrong by \
             the ground truth before corrective action ({} from a slave never excluded).",
            stats.wrong_accepted, stats.wrong_accepted_unconvicted
        );
    } else {
        println!(
            "\nthe liar survived this short run (it told {} lies); run longer or raise \
             double_check_prob to catch it faster — that trade-off is experiment E1.",
            stats.lies_told
        );
    }
}
