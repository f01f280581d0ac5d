//! Metrics: counters, histograms with percentiles, and time series, held
//! in slot vectors indexed by typed ids.
//!
//! A metric is an id — [`Counter`], [`Hist`] or [`Series`] — naming one
//! slot of the world's [`Metrics`], so a write is one array index: no
//! name, no allocation, no map probe.  A per-shard family is a
//! [`PerShard`] whose `.at(k)` is the id of shard `k`.  The simulator
//! declares the ids of its own six `sim.*` counters here, in the first
//! counter slots; the system running on top declares every other id (and
//! the names that go with them) in one table of its own, built with the
//! `new` constructors, which number slots *after* the simulator's.  Slots
//! grow on first touch and an unwritten slot reads as zero / empty, so a
//! [`Metrics`] never has to be told how many ids exist.

use crate::time::SimTime;
use serde::{FromJson, ToJson};

/// A slot index, typed by the kind of slot it names so that a histogram
/// id cannot be passed where a counter is wanted.  Use the aliases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotId<const KIND: char>(usize);
/// Id of a counter slot.
pub type Counter = SlotId<'c'>;
/// Id of a histogram slot.
pub type Hist = SlotId<'h'>;
/// Id of a time-series slot.
pub type Series = SlotId<'s'>;

impl<const KIND: char> SlotId<KIND> {
    /// The id of the `slot`-th slot of its kind that is not one of the
    /// simulator's own (which are all counters).
    pub const fn new(slot: usize) -> Self {
        SlotId(slot + if KIND == 'c' { SIM_COUNTERS } else { 0 })
    }
}

/// `sim.dropped_to_crashed`: deliveries discarded at a crashed node.
pub const SIM_DROPPED_TO_CRASHED: Counter = SlotId(0);
/// `sim.crashes`: injected crashes that took a live node down.
pub const SIM_CRASHES: Counter = SlotId(1);
/// `sim.recoveries`: injected recoveries that brought a node back.
pub const SIM_RECOVERIES: Counter = SlotId(2);
/// `sim.partitioned_drops`: sends dropped at an island boundary.
pub const SIM_PARTITIONED_DROPS: Counter = SlotId(3);
/// `sim.lost_messages`: sends dropped by link loss.
pub const SIM_LOST_MESSAGES: Counter = SlotId(4);
/// `sim.messages_sent`: sends that reached the event queue.
pub const SIM_MESSAGES_SENT: Counter = SlotId(5);
const SIM_COUNTERS: usize = 6;

/// A family of per-shard slots of one kind.  Families interleave: shard
/// `k` of a family is slot `first + k * stride`, where `stride` is the
/// number of families sharing the range, so the slot vector ends at the
/// highest shard written.
#[derive(Clone, Copy, Debug)]
pub struct PerShard<I> {
    first: usize,
    stride: usize,
    id: fn(usize) -> I,
}

impl<I> PerShard<I> {
    /// The family whose shard 0 is `id(first)`, one of `stride` families.
    pub const fn new(first: usize, stride: usize, id: fn(usize) -> I) -> Self {
        PerShard { first, stride, id }
    }

    /// The id of shard `shard`'s slot.  Writing through it sizes the slot
    /// vector, so `shard` must already be checked against the shard count.
    pub fn at(&self, shard: usize) -> I {
        (self.id)(self.first + shard * self.stride)
    }
}

/// A recording of `u64` observations with on-demand percentile queries.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    values: Vec<u64>,
    sorted: bool,
}

/// Summary statistics extracted from a [`Histogram`]; the default (all
/// zeros) is the summary of an empty one.
#[derive(Clone, Copy, Debug, Default, PartialEq, ToJson, FromJson)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum value.
    pub min: u64,
    /// Median (p50).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum value.
    pub max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.values.push(value);
        self.sorted = false;
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `q`-quantile (0.0..=1.0) by nearest-rank; 0 when empty.
    pub fn quantile(&mut self, q: f64) -> u64 {
        if self.values.is_empty() {
            return 0;
        }
        self.ensure_sorted();
        let rank = ((self.values.len() as f64) * q).ceil() as usize;
        let idx = rank.clamp(1, self.values.len()) - 1;
        self.values[idx]
    }

    /// Arithmetic mean; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().map(|&v| v as f64).sum::<f64>() / self.values.len() as f64
    }

    /// Full summary statistics.
    pub fn summary(&mut self) -> Summary {
        if self.values.is_empty() {
            return Summary::default();
        }
        self.ensure_sorted();
        Summary {
            count: self.values.len(),
            mean: self.mean(),
            min: self.values[0],
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: *self.values.last().expect("non-empty"),
        }
    }
}

/// The metric slots of one simulation run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    counters: Vec<u64>,
    histograms: Vec<Histogram>,
    series: Vec<Vec<(SimTime, f64)>>,
}

/// The slot at `index`, grown into existence on first touch.
fn slot<T: Default>(slots: &mut Vec<T>, index: usize) -> &mut T {
    if index >= slots.len() {
        slots.resize_with(index + 1, T::default);
    }
    &mut slots[index]
}

impl Metrics {
    /// Creates an empty set of slots.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `delta` to a counter.
    pub fn add(&mut self, id: Counter, delta: u64) {
        *slot(&mut self.counters, id.0) += delta;
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, id: Counter) {
        self.add(id, 1);
    }

    /// Reads a counter (0 when never written).
    pub fn counter(&self, id: Counter) -> u64 {
        self.counters.get(id.0).copied().unwrap_or(0)
    }

    /// Records an observation into a histogram.
    pub fn observe(&mut self, id: Hist, value: u64) {
        slot(&mut self.histograms, id.0).observe(value);
    }

    /// Summary of a histogram (all zeros when never written).
    pub fn summary(&mut self, id: Hist) -> Summary {
        slot(&mut self.histograms, id.0).summary()
    }

    /// Appends a `(time, value)` point to a time series.
    pub fn series_push(&mut self, id: Series, at: SimTime, value: f64) {
        slot(&mut self.series, id.0).push((at, value));
    }

    /// Reads a time series (empty when never written).
    pub fn series(&self, id: Series) -> &[(SimTime, f64)] {
        self.series.get(id.0).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters() {
        let (reads, never) = (Counter::new(0), Counter::new(7));
        let mut m = Metrics::new();
        m.inc(reads);
        m.add(reads, 4);
        assert_eq!(m.counter(reads), 5);
        assert_eq!(m.counter(never), 0);
        // The simulator's own slots sit below every `new` id.
        assert_eq!(m.counter(SIM_MESSAGES_SENT), 0);
        assert_ne!(reads, SIM_DROPPED_TO_CRASHED);
    }

    #[test]
    fn per_shard_families_interleave_without_colliding() {
        let a = PerShard::new(2, 2, Counter::new);
        let b = PerShard::new(3, 2, Counter::new);
        let mut m = Metrics::new();
        m.inc(a.at(0));
        m.add(b.at(0), 2);
        m.add(a.at(3), 5);
        assert_eq!(m.counter(a.at(0)), 1);
        assert_eq!(m.counter(b.at(0)), 2);
        assert_eq!(m.counter(a.at(3)), 5);
        assert_eq!(m.counter(b.at(3)), 0);
        // Reading far past the last written slot allocates nothing.
        assert_eq!(m.counter(a.at(u32::MAX as usize)), 0);
        assert_eq!(m.counters.len(), SIM_COUNTERS + 2 + 3 * 2 + 1);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.50), 50);
        assert_eq!(h.quantile(0.90), 90);
        assert_eq!(h.quantile(0.99), 99);
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(h.quantile(0.0), 1);
        assert!((h.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_summary() {
        let mut h = Histogram::new();
        assert_eq!(h.summary(), Summary::default());
        assert_eq!(h.summary().count, 0);
        assert_eq!(Metrics::new().summary(Hist::new(3)), Summary::default());
    }

    #[test]
    fn summary_fields() {
        let lat = Hist::new(1);
        let mut m = Metrics::new();
        for v in [10u64, 20, 30] {
            m.observe(lat, v);
        }
        let s = m.summary(lat);
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 30);
        assert_eq!(s.p50, 20);
        assert!((s.mean - 20.0).abs() < 1e-9);
    }

    #[test]
    fn observe_after_summary_stays_correct() {
        let mut h = Histogram::new();
        h.observe(5);
        let _ = h.summary();
        h.observe(1);
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn series_ordering() {
        let (lag, never) = (Series::new(0), Series::new(1));
        let mut m = Metrics::new();
        m.series_push(lag, SimTime(1), 0.5);
        m.series_push(lag, SimTime(2), 0.7);
        assert_eq!(m.series(lag).len(), 2);
        assert_eq!(m.series(lag)[1], (SimTime(2), 0.7));
        assert!(m.series(never).is_empty());
    }
}
