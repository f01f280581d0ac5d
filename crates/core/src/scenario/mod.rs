//! The scenario API: declarative experiment specs, sweeps, a multi-seed
//! runner, and machine-readable run reports.
//!
//! This module is the front door for driving the whole system:
//!
//! * [`ScenarioSpec`] — a serialisable description of a deployment,
//!   workload, behaviour roster, network, fault schedule, and sweep.
//! * [`Param`]/[`SweepAxis`]/[`Grid`] — declarative parameter sweeps
//!   (cartesian or zipped) replacing hand-rolled per-experiment loops.
//! * [`Runner`] — executes a spec across its grid and seeds, with
//!   optional probes for experiment-specific extraction, and aggregates
//!   into a [`RunReport`] (per-cell mean/min/max of every
//!   [`SystemStats`](crate::stats::SystemStats) field plus captured
//!   metric series).
//! * [`registry`] — named scenarios (`e1_detection`, `byzantine_storm`,
//!   …): the catalogue every experiment and example draws from.
//!
//! ```
//! use sdr_core::scenario::{registry, Runner};
//!
//! let mut spec = registry::lookup("quickstart").unwrap();
//! spec.duration = sdr_sim::SimDuration::from_secs(2);
//! let report = Runner::new(spec).run().unwrap();
//! let json = report.to_json_string(); // machine-readable
//! ```

pub mod registry;
mod report;
mod runner;
mod spec;
mod sweep;

pub use report::{CellReport, FieldAggregate, NamedSeries, RunRecord, RunReport, StatsCheckpoint};
pub use runner::{CheckpointProbe, Probe, Runner};
pub use spec::{BehaviorSpec, CrashSpec, LatencySpec, LinkSpec, NetworkSpec, ScenarioSpec};
pub use sweep::{liar_template, Grid, GridMode, Param, SweepAxis};
