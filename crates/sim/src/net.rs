//! Network models: latency distributions, loss, and per-node link overrides.

use crate::process::NodeId;
use crate::time::SimDuration;
use rand::Rng;
use std::collections::HashMap;

/// A latency distribution for one-way message delivery.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LatencyModel {
    /// Fixed latency.
    Constant(SimDuration),
    /// Uniform in `[min, max]`.
    Uniform(SimDuration, SimDuration),
    /// Exponential with the given mean (heavy tail of WAN queueing).
    Exponential(SimDuration),
    /// Log-normal parameterised by median and sigma (typical WAN RTT shape).
    LogNormal {
        /// Median one-way latency.
        median: SimDuration,
        /// Log-space standard deviation (0.3–0.6 is WAN-like).
        sigma: f64,
    },
}

impl LatencyModel {
    /// Samples a latency.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> SimDuration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform(min, max) => {
                let (lo, hi) = (min.as_micros(), max.as_micros().max(min.as_micros()));
                SimDuration(rng.gen_range(lo..=hi))
            }
            LatencyModel::Exponential(mean) => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                SimDuration((-(u.ln()) * mean.as_micros() as f64) as u64)
            }
            LatencyModel::LogNormal { median, sigma } => {
                // Box-Muller for a standard normal sample.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let mu = (median.as_micros() as f64).ln();
                SimDuration((mu + sigma * z).exp() as u64)
            }
        }
    }

    /// The distribution mean, in microseconds (for reporting).
    pub fn mean_micros(&self) -> f64 {
        match *self {
            LatencyModel::Constant(d) => d.as_micros() as f64,
            LatencyModel::Uniform(min, max) => (min.as_micros() + max.as_micros()) as f64 / 2.0,
            LatencyModel::Exponential(mean) => mean.as_micros() as f64,
            LatencyModel::LogNormal { median, sigma } => {
                (median.as_micros() as f64) * (sigma * sigma / 2.0).exp()
            }
        }
    }
}

/// Behaviour of a (directed) link.
#[derive(Clone, Copy, Debug)]
pub struct LinkModel {
    /// Propagation latency distribution.
    pub latency: LatencyModel,
    /// Probability a message is silently dropped.
    pub loss: f64,
}

impl LinkModel {
    /// A lossless constant-latency link.
    pub fn constant(latency: SimDuration) -> Self {
        LinkModel {
            latency: LatencyModel::Constant(latency),
            loss: 0.0,
        }
    }

    /// A WAN-flavoured link: log-normal latency around `median`.
    pub fn wan(median: SimDuration) -> Self {
        LinkModel {
            latency: LatencyModel::LogNormal { median, sigma: 0.4 },
            loss: 0.0,
        }
    }

    /// Returns this link with the given loss probability.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss.clamp(0.0, 1.0);
        self
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel::constant(SimDuration::from_millis(10))
    }
}

/// Full network configuration: a default link plus per-node overrides.
#[derive(Clone, Debug, Default)]
pub struct NetworkConfig {
    /// Link used when no override matches.
    pub default_link: LinkModel,
    /// Per-node overrides applying to all traffic touching that node
    /// (`from` first, then `to`).
    pub node_overrides: HashMap<NodeId, LinkModel>,
}

impl NetworkConfig {
    /// Creates a config with the given default link.
    pub fn new(default_link: LinkModel) -> Self {
        NetworkConfig {
            default_link,
            node_overrides: HashMap::new(),
        }
    }

    /// Sets an override for every link touching `node`.
    pub fn set_node_link(&mut self, node: NodeId, link: LinkModel) {
        self.node_overrides.insert(node, link);
    }

    /// Resolves the link model for a `(from, to)` pair.
    pub fn link(&self, from: NodeId, to: NodeId) -> &LinkModel {
        self.node_overrides
            .get(&from)
            .or_else(|| self.node_overrides.get(&to))
            .unwrap_or(&self.default_link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn constant_is_constant() {
        let m = LatencyModel::Constant(SimDuration::from_millis(5));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(m.sample(&mut r), SimDuration::from_millis(5));
        }
    }

    #[test]
    fn uniform_within_bounds() {
        let m = LatencyModel::Uniform(SimDuration(100), SimDuration(200));
        let mut r = rng();
        for _ in 0..1000 {
            let s = m.sample(&mut r).as_micros();
            assert!((100..=200).contains(&s));
        }
    }

    #[test]
    fn exponential_mean_close() {
        let m = LatencyModel::Exponential(SimDuration(1_000));
        let mut r = rng();
        let n = 20_000;
        let total: u64 = (0..n).map(|_| m.sample(&mut r).as_micros()).sum();
        let mean = total as f64 / n as f64;
        assert!((800.0..1200.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn lognormal_median_close() {
        let m = LatencyModel::LogNormal {
            median: SimDuration(10_000),
            sigma: 0.4,
        };
        let mut r = rng();
        let mut samples: Vec<u64> = (0..10_001).map(|_| m.sample(&mut r).as_micros()).collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2] as f64;
        assert!((8500.0..11500.0).contains(&median), "median {median}");
    }

    #[test]
    fn link_resolution_precedence() {
        let mut cfg = NetworkConfig::new(LinkModel::constant(SimDuration(1)));
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        cfg.set_node_link(b, LinkModel::constant(SimDuration(2)));
        cfg.set_node_link(c, LinkModel::constant(SimDuration(3)));

        // The sender's override wins.
        assert_eq!(
            cfg.link(c, b).latency,
            LatencyModel::Constant(SimDuration(3))
        );
        // Either end's override applies.
        assert_eq!(
            cfg.link(b, c).latency,
            LatencyModel::Constant(SimDuration(2))
        );
        assert_eq!(
            cfg.link(a, b).latency,
            LatencyModel::Constant(SimDuration(2))
        );
        // Default otherwise.
        assert_eq!(
            cfg.link(a, NodeId(3)).latency,
            LatencyModel::Constant(SimDuration(1))
        );
    }

    #[test]
    fn loss_is_clamped() {
        let l = LinkModel::constant(SimDuration(1)).with_loss(1.7);
        assert_eq!(l.loss, 1.0);
        let l = LinkModel::constant(SimDuration(1)).with_loss(-0.2);
        assert_eq!(l.loss, 0.0);
    }

    #[test]
    fn mean_micros_reporting() {
        assert_eq!(LatencyModel::Constant(SimDuration(5)).mean_micros(), 5.0);
        assert_eq!(
            LatencyModel::Uniform(SimDuration(0), SimDuration(10)).mean_micros(),
            5.0
        );
    }
}
