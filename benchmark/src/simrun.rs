//! One repetition of a simulated workload: build the deployment (set-up),
//! run the fixed simulated duration (timed), harvest the statistics.

use crate::child::{cpu_seconds, peak_rss_mib, ChildReport};
use crate::probe::SimProbe;
use crate::trace::Tracer;
use crate::workloads::SimSpec;
use sdr_core::{System, SystemBuilder};
use sdr_sim::SimTime;
use std::time::Instant;

fn build(spec: &SimSpec) -> System {
    SystemBuilder::new(spec.config.clone())
        .workload(spec.workload.clone())
        .build()
}

/// The end-to-end numbers of one run, with tracing off.  `started` is the
/// process start: set-up time runs from there to the first timed event.
pub fn timed(spec: &SimSpec, started: Instant) -> ChildReport {
    let mut sys = build(spec);
    let setup_s = started.elapsed().as_secs_f64();

    let cpu0 = cpu_seconds();
    let t = Instant::now();
    sys.run_until(SimTime::from_secs(spec.sim_secs));
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;

    let p = SimProbe::read(&sys.stats());
    let reads = p.reads_accepted.max(1) as f64;
    let mut r = ChildReport {
        fingerprint: p.fingerprint.clone(),
        attempted: p.reads_issued,
        failed: p.ops_failed(),
        violations: p.gate_violations(),
        ..ChildReport::default()
    };
    r.set("setup_s", setup_s);
    r.set("reads_per_s", p.reads_accepted as f64 / wall_s);
    r.set("peak_rss_mib", peak_rss_mib());
    r.set(
        "wire_bytes_per_read",
        p.sim_msg_bytes_logical as f64 / reads,
    );
    r.set("wall_s", wall_s);
    r.set(
        "cpu_over_wall",
        if wall_s > 0.0 { cpu_s / wall_s } else { 0.0 },
    );
    r
}

/// Part 1 of the traced run: the same seeded run stepped in slices of one
/// simulated second, one span per slice with the statistics delta.
/// Returns the final statistics and the wall time of every slice.
pub fn sliced(spec: &SimSpec, tracer: &mut Tracer) -> (SimProbe, Vec<f64>) {
    let mut sys = build(spec);
    let mut before: Option<SimProbe> = None;
    let mut slice_ms = Vec::with_capacity(spec.sim_secs as usize);
    for s in 1..=spec.sim_secs {
        let open = tracer.open("sim.slice");
        let t = Instant::now();
        sys.run_until(SimTime::from_secs(s));
        slice_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.close(open);
        // Harvesting walks every client, so it stays outside the span.
        let now = SimProbe::read(&sys.stats());
        tracer.annotate(open, &now.delta_counts(before.as_ref()));
        before = Some(now);
    }
    (before.expect("at least one simulated second"), slice_ms)
}
