//! Executes a [`ScenarioSpec`] across its sweep grid and seeds.

use super::report::{CellReport, NamedSeries, RunRecord, RunReport, StatsCheckpoint};
use super::spec::ScenarioSpec;
use crate::metrics;
use crate::system::{System, SystemBuilder};
use sdr_sim::SimTime;

/// Inspects the finished (or checkpointed) system of one run.
///
/// Probes exist so experiments can pull out state the generic statistics
/// don't cover (evidence logs, per-master rosters, …) without giving up
/// the declarative spec.
pub type Probe<'a> = Box<dyn FnMut(&mut System, &mut RunRecord) + 'a>;

/// Like [`Probe`], but fired at each mid-run checkpoint with the
/// checkpoint's index.
pub type CheckpointProbe<'a> = Box<dyn FnMut(&mut System, usize, &mut RunRecord) + 'a>;

/// Runs a scenario: expands the grid, executes every `(cell, seed)`
/// pair, and aggregates into a [`RunReport`].
pub struct Runner<'a> {
    spec: ScenarioSpec,
    probe: Option<Probe<'a>>,
    checkpoint_probe: Option<CheckpointProbe<'a>>,
}

impl<'a> Runner<'a> {
    /// A runner over the given spec.
    pub fn new(spec: ScenarioSpec) -> Self {
        Runner {
            spec,
            probe: None,
            checkpoint_probe: None,
        }
    }

    /// Installs an end-of-run probe.
    pub fn probe(mut self, f: impl FnMut(&mut System, &mut RunRecord) + 'a) -> Self {
        self.probe = Some(Box::new(f));
        self
    }

    /// Installs a checkpoint probe (fired after each mid-run snapshot).
    pub fn checkpoint_probe(
        mut self,
        f: impl FnMut(&mut System, usize, &mut RunRecord) + 'a,
    ) -> Self {
        self.checkpoint_probe = Some(Box::new(f));
        self
    }

    /// Executes the scenario and returns the structured report.
    pub fn run(mut self) -> Result<RunReport, String> {
        self.spec.validate()?;
        self.spec.grid.check_applicable(&self.spec)?;

        let mut report = RunReport {
            scenario: self.spec.name.clone(),
            description: self.spec.description.clone(),
            duration_secs: self.spec.duration.as_secs_f64(),
            seeds: self.spec.seeds.clone(),
            cells: Vec::new(),
        };

        for (cell_index, assignments) in self.spec.grid.cells().into_iter().enumerate() {
            // Materialise this cell's spec from the base.
            let mut cell_spec = self.spec.clone();
            let mut coords = Vec::with_capacity(assignments.len());
            for (axis, param, value) in assignments {
                param.apply(&mut cell_spec, value)?;
                coords.push((axis, value));
            }
            cell_spec
                .validate()
                .map_err(|e| format!("sweep cell {cell_index}: {e}"))?;

            let mut cell = CellReport {
                coords,
                ..CellReport::default()
            };
            for &seed in &self.spec.seeds {
                let world_seed = mix_seed(seed, cell_index);
                let record = run_one(
                    &cell_spec,
                    seed,
                    world_seed,
                    &mut self.probe,
                    &mut self.checkpoint_probe,
                );
                cell.runs.push(record);
            }
            cell.recompute_aggregates();
            report.cells.push(cell);
        }
        Ok(report)
    }
}

/// Deterministically mixes a base seed with a sweep-cell index so cells
/// draw uncorrelated randomness (SplitMix64 increment).
fn mix_seed(base: u64, cell_index: usize) -> u64 {
    base ^ (cell_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn run_one(
    spec: &ScenarioSpec,
    seed: u64,
    world_seed: u64,
    probe: &mut Option<Probe<'_>>,
    checkpoint_probe: &mut Option<CheckpointProbe<'_>>,
) -> RunRecord {
    let mut cfg = spec.config.clone();
    cfg.seed = world_seed;
    let behaviors = spec
        .behaviors
        .materialize(cfg.n_slaves * cfg.n_shards)
        .expect("validated earlier");

    let mut builder = SystemBuilder::new(cfg)
        .behaviors(behaviors)
        .workload(spec.workload.clone());
    if let Some(net) = &spec.network {
        builder = builder.network(net.build(&spec.config));
    }
    let mut sys = builder.build();

    for crash in &spec.crashes {
        sys.crash_master_at(SimTime::from_micros(crash.at.as_micros()), crash.master_rank);
    }

    let mut record = RunRecord {
        seed,
        world_seed,
        // Placeholder until the run finishes; replaced below.
        stats: sys.stats(),
        checkpoints: Vec::new(),
        series: Vec::new(),
    };

    // Checkpoints in ascending order, clipped to the duration.
    let mut checkpoints: Vec<_> = spec
        .checkpoints
        .iter()
        .copied()
        .filter(|c| c.as_micros() <= spec.duration.as_micros())
        .collect();
    checkpoints.sort_unstable();
    for (i, at) in checkpoints.into_iter().enumerate() {
        sys.run_until(SimTime::from_micros(at.as_micros()));
        record.checkpoints.push(StatsCheckpoint {
            at_secs: at.as_secs_f64(),
            stats: sys.stats(),
        });
        if let Some(probe) = checkpoint_probe.as_mut() {
            probe(&mut sys, i, &mut record);
        }
    }

    sys.run_until(SimTime::from_micros(spec.duration.as_micros()));
    record.stats = sys.stats();

    for name in &spec.capture_series {
        let id = metrics::lookup(name).expect("validated earlier");
        let points: Vec<(f64, f64)> = sys
            .world
            .metrics()
            .series(id)
            .iter()
            .map(|(t, v)| (t.as_secs_f64(), *v))
            .collect();
        record.series.push(NamedSeries {
            name: name.clone(),
            points,
        });
    }

    if let Some(p) = probe.as_mut() {
        p(&mut sys, &mut record);
    }

    record
}
