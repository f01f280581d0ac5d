//! The declarative scenario description: everything a run needs, as data.

use crate::config::SystemConfig;
use crate::metrics;
use crate::slave::SlaveBehavior;
use crate::workload::Workload;
use sdr_sim::{LatencyModel, LinkModel, NetworkConfig, NodeId, SimDuration};
use serde::{FromJson, ToJson};

use super::sweep::Grid;

/// A serialisable latency distribution (mirrors [`LatencyModel`] with
/// named fields so it derives the JSON codecs).
#[derive(Clone, Copy, Debug, PartialEq, ToJson, FromJson)]
pub enum LatencySpec {
    /// Fixed latency.
    Fixed {
        /// One-way delivery latency.
        latency: SimDuration,
    },
    /// Uniform in `[min, max]`.
    Uniform {
        /// Lower bound.
        min: SimDuration,
        /// Upper bound.
        max: SimDuration,
    },
    /// Exponential with the given mean.
    Exponential {
        /// Distribution mean.
        mean: SimDuration,
    },
    /// Log-normal parameterised by median and sigma (WAN-shaped).
    LogNormal {
        /// Median one-way latency.
        median: SimDuration,
        /// Log-space standard deviation.
        sigma: f64,
    },
}

impl LatencySpec {
    /// Converts to the simulator's model.
    pub fn to_model(self) -> LatencyModel {
        match self {
            LatencySpec::Fixed { latency } => LatencyModel::Constant(latency),
            LatencySpec::Uniform { min, max } => LatencyModel::Uniform(min, max),
            LatencySpec::Exponential { mean } => LatencyModel::Exponential(mean),
            LatencySpec::LogNormal { median, sigma } => LatencyModel::LogNormal { median, sigma },
        }
    }
}

/// A serialisable link description.
#[derive(Clone, Copy, Debug, PartialEq, ToJson, FromJson)]
pub struct LinkSpec {
    /// Latency distribution.
    pub latency: LatencySpec,
    /// Drop probability.
    pub loss: f64,
}

impl LinkSpec {
    /// A WAN-shaped link with the given median latency in milliseconds.
    pub fn wan_ms(median_ms: u64) -> Self {
        LinkSpec {
            latency: LatencySpec::LogNormal {
                median: SimDuration::from_millis(median_ms),
                sigma: 0.4,
            },
            loss: 0.0,
        }
    }

    /// A lossless fixed-latency link.
    pub fn fixed_ms(ms: u64) -> Self {
        LinkSpec {
            latency: LatencySpec::Fixed {
                latency: SimDuration::from_millis(ms),
            },
            loss: 0.0,
        }
    }

    /// Converts to the simulator's model.
    pub fn to_model(self) -> LinkModel {
        LinkModel {
            latency: self.latency.to_model(),
            loss: self.loss,
        }
    }
}

/// Role-addressed network description.
///
/// Scenario authors think in roles ("client 0 sits behind a 700 ms
/// link"), not raw node ids; [`NetworkSpec::build`] translates using the
/// deployment's deterministic node layout (masters, slaves, directory,
/// clients).
#[derive(Clone, Debug, Default, PartialEq, ToJson, FromJson)]
pub struct NetworkSpec {
    /// Link used where no override applies (`None` = the builder's
    /// default 10 ms WAN link).
    pub default_link: Option<LinkSpec>,
    /// Per-client overrides (all traffic touching that client).
    pub client_links: Vec<(usize, LinkSpec)>,
    /// Per-slave overrides.
    pub slave_links: Vec<(usize, LinkSpec)>,
    /// Per-master overrides (by rank).
    pub master_links: Vec<(usize, LinkSpec)>,
}

impl NetworkSpec {
    /// Checks role indexes against a configuration.  Master and slave
    /// indexes are global (shard-major), so they range over
    /// `n_shards * n_masters` and `n_shards * n_slaves`.
    pub fn validate(&self, cfg: &SystemConfig) -> Result<(), String> {
        let total_masters = cfg.n_masters * cfg.n_shards;
        let total_slaves = cfg.n_slaves * cfg.n_shards;
        for &(i, _) in &self.client_links {
            if i >= cfg.n_clients {
                return Err(format!(
                    "network.client_links: client {i} out of range (n_clients = {})",
                    cfg.n_clients
                ));
            }
        }
        for &(i, _) in &self.slave_links {
            if i >= total_slaves {
                return Err(format!(
                    "network.slave_links: slave {i} out of range (total slaves = {total_slaves})"
                ));
            }
        }
        for &(r, _) in &self.master_links {
            if r >= total_masters {
                return Err(format!(
                    "network.master_links: master {r} out of range (total masters = {total_masters})"
                ));
            }
        }
        Ok(())
    }

    /// Materialises a [`NetworkConfig`] for the node layout `cfg` implies.
    pub fn build(&self, cfg: &SystemConfig) -> NetworkConfig {
        let default = self
            .default_link
            .map(LinkSpec::to_model)
            .unwrap_or_else(|| LinkModel::wan(SimDuration::from_millis(10)));
        let mut net = NetworkConfig::new(default);
        let nm = (cfg.n_masters * cfg.n_shards) as u32;
        let ns = (cfg.n_slaves * cfg.n_shards) as u32;
        for &(r, link) in &self.master_links {
            net.set_node_link(NodeId(r as u32), link.to_model());
        }
        for &(i, link) in &self.slave_links {
            net.set_node_link(NodeId(nm + i as u32), link.to_model());
        }
        for &(i, link) in &self.client_links {
            net.set_node_link(NodeId(nm + ns + 1 + i as u32), link.to_model());
        }
        net
    }
}

/// Slave behaviour roster: a default plus per-index overrides.
#[derive(Clone, Debug, PartialEq, ToJson, FromJson)]
pub struct BehaviorSpec {
    /// Behaviour of every slave not listed in `overrides`.
    pub default: SlaveBehavior,
    /// `(slave index, behaviour)` overrides.
    pub overrides: Vec<(usize, SlaveBehavior)>,
}

impl Default for BehaviorSpec {
    fn default() -> Self {
        BehaviorSpec {
            default: SlaveBehavior::Honest,
            overrides: Vec::new(),
        }
    }
}

impl BehaviorSpec {
    /// An all-honest roster.
    pub fn honest() -> Self {
        BehaviorSpec::default()
    }

    /// A roster with the given per-index overrides over honest slaves.
    pub fn with_overrides(overrides: Vec<(usize, SlaveBehavior)>) -> Self {
        BehaviorSpec {
            default: SlaveBehavior::Honest,
            overrides,
        }
    }

    /// Expands to a per-slave vector over the *total* (shard-major)
    /// slave population, bounds-checking every override (the spec-layer
    /// mirror of [`crate::system::SystemBuilder::slave_behavior`]'s
    /// validation).
    pub fn materialize(&self, n_slaves: usize) -> Result<Vec<SlaveBehavior>, String> {
        let mut behaviors = vec![self.default; n_slaves];
        for &(i, b) in &self.overrides {
            if i >= n_slaves {
                return Err(format!(
                    "behaviors.overrides: slave index {i} out of range (n_slaves = {n_slaves})"
                ));
            }
            behaviors[i] = b;
        }
        Ok(behaviors)
    }
}

/// A scheduled master crash (fault injection).
#[derive(Clone, Copy, Debug, PartialEq, ToJson, FromJson)]
pub struct CrashSpec {
    /// When the crash fires.
    pub at: SimDuration,
    /// Which master dies, by rank.
    pub master_rank: usize,
}

/// A complete, serialisable description of an experiment run.
///
/// This is the workspace's front door: every experiment and
/// example fetches one of these (usually from the
/// [registry](super::registry)), optionally tweaks it, and hands it to a
/// [`Runner`](super::Runner).  `ScenarioSpec` round-trips through JSON,
/// so scenarios can be stored, diffed, and replayed.
#[derive(Clone, Debug, ToJson, FromJson)]
pub struct ScenarioSpec {
    /// Scenario name (registry key; also stamped into reports).
    pub name: String,
    /// One-line description of what the scenario demonstrates.
    pub description: String,
    /// Deployment configuration.  `config.seed` is the *base* seed; the
    /// runner mixes it with the sweep-cell index and the per-run seed so
    /// rows draw uncorrelated randomness.
    pub config: SystemConfig,
    /// Read/write workload.
    pub workload: Workload,
    /// Slave behaviour roster.
    pub behaviors: BehaviorSpec,
    /// Network topology (`None` = builder default).
    pub network: Option<NetworkSpec>,
    /// Virtual run length.
    pub duration: SimDuration,
    /// Base seeds; the runner executes the scenario once per seed and
    /// aggregates.
    pub seeds: Vec<u64>,
    /// Mid-run instants at which statistics snapshots are taken.
    pub checkpoints: Vec<SimDuration>,
    /// Scheduled master crashes.
    pub crashes: Vec<CrashSpec>,
    /// Metric time-series (by the name their row in [`crate::metrics`]
    /// gives them, e.g. `exclusion.at_us`) to copy into each run record.
    pub capture_series: Vec<String>,
    /// Parameter sweep; an empty grid runs a single cell.
    pub grid: Grid,
}

impl ScenarioSpec {
    /// A single-cell scenario over the given configuration with default
    /// workload, honest slaves, one seed, and a 60 s duration.
    pub fn new(name: &str, description: &str, config: SystemConfig) -> Self {
        let seed = config.seed;
        ScenarioSpec {
            name: name.to_string(),
            description: description.to_string(),
            config,
            workload: Workload::default(),
            behaviors: BehaviorSpec::honest(),
            network: None,
            duration: SimDuration::from_secs(60),
            seeds: vec![seed],
            checkpoints: Vec::new(),
            crashes: Vec::new(),
            capture_series: Vec::new(),
            grid: Grid::none(),
        }
    }

    /// Checks the whole spec (config, behaviours, network, crashes,
    /// sweep axes) and returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        self.config
            .validate()
            .map_err(|e| format!("{}: config: {e}", self.name))?;
        self.workload
            .validate()
            .map_err(|e| format!("{}: {e}", self.name))?;
        self.behaviors
            .materialize(self.config.n_slaves * self.config.n_shards)
            .map_err(|e| format!("{}: {e}", self.name))?;
        if let Some(net) = &self.network {
            net.validate(&self.config)
                .map_err(|e| format!("{}: {e}", self.name))?;
        }
        if self.duration == SimDuration::ZERO {
            return Err(format!("{}: duration must be positive", self.name));
        }
        if self.seeds.is_empty() {
            return Err(format!("{}: at least one seed required", self.name));
        }
        for c in &self.crashes {
            let total_masters = self.config.n_masters * self.config.n_shards;
            if c.master_rank >= total_masters {
                return Err(format!(
                    "{}: crash rank {} out of range (total masters = {total_masters})",
                    self.name, c.master_rank
                ));
            }
        }
        for series in &self.capture_series {
            metrics::lookup(series)
                .ok_or_else(|| format!("{}: capture_series: unknown `{series}`", self.name))?;
        }
        self.grid.validate().map_err(|e| format!("{}: {e}", self.name))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behavior_overrides_are_bounds_checked() {
        let spec = BehaviorSpec::with_overrides(vec![(5, SlaveBehavior::Refuser { prob: 0.5 })]);
        assert!(spec.materialize(6).is_ok());
        let err = spec.materialize(5).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn network_spec_translates_roles_to_node_ids() {
        let cfg = SystemConfig {
            n_masters: 3,
            n_slaves: 4,
            n_clients: 6,
            ..SystemConfig::default()
        };
        let net = NetworkSpec {
            client_links: vec![(0, LinkSpec::fixed_ms(700))],
            slave_links: vec![(1, LinkSpec::fixed_ms(5))],
            ..NetworkSpec::default()
        };
        net.validate(&cfg).unwrap();
        let built = net.build(&cfg);
        // Client 0 lives at node nm + ns + 1 = 8; slave 1 at node 4.
        assert!(built.node_overrides.contains_key(&NodeId(8)));
        assert!(built.node_overrides.contains_key(&NodeId(4)));
        let bad = NetworkSpec {
            client_links: vec![(6, LinkSpec::fixed_ms(1))],
            ..NetworkSpec::default()
        };
        assert!(bad.validate(&cfg).is_err());
    }

    #[test]
    fn spec_validation_catches_bad_writer_fraction() {
        let mut spec = ScenarioSpec::new("t", "", SystemConfig::default());
        spec.workload.writer_fraction = 1.75;
        let err = spec.validate().unwrap_err();
        assert!(err.contains("writer_fraction"), "{err}");
    }

    #[test]
    fn spec_validation_catches_bad_crash_rank() {
        let mut spec = ScenarioSpec::new("t", "", SystemConfig::default());
        spec.crashes.push(CrashSpec {
            at: SimDuration::from_secs(1),
            master_rank: 99,
        });
        assert!(spec.validate().is_err());

        // So is a `capture_series` name the metric table does not declare
        // as a series: misspelt, or a counter's.
        spec.crashes.clear();
        spec.capture_series = vec!["exclusion.at_us".into(), "audit.backlog".into()];
        spec.validate().unwrap();
        for bad in ["exclusion.at_uss", "exclusion.count"] {
            spec.capture_series = vec![bad.into()];
            let err = spec.validate().unwrap_err();
            assert!(err.contains("capture_series") && err.contains(bad), "{err}");
        }
    }
}
