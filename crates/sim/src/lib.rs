//! Deterministic discrete-event simulation substrate.
//!
//! The paper's system runs over a WAN with untrusted CDN hosts; this crate
//! is the testbed substitute.  It provides:
//!
//! * **Virtual time** ([`time`]) — integer microseconds, no wall-clock
//!   dependence, fully reproducible runs from a single `u64` seed.
//! * **Processes** ([`process`]) — actor-style nodes with message and timer
//!   callbacks.
//! * **A world** ([`world`]) — the event loop wiring processes together
//!   through a configurable network.
//! * **Network models** ([`net`]) — constant/uniform/exponential/lognormal
//!   latency, message loss, and partitions ("islands").
//! * **CPU accounting** ([`world`], [`cost`]) — handlers charge virtual
//!   work; a busy node queues subsequent events, so server load and auditor
//!   lag emerge naturally (needed by experiments E5 and E7).
//! * **Fault injection** ([`world`]) — scheduled crashes and recoveries
//!   (experiment E12).
//! * **Metrics** ([`metrics`]) — counters, histograms with percentiles, and
//!   time series in slots indexed by typed ids, which the benchmark harness
//!   turns into tables.
//!
//! Determinism contract: given the same seed, node construction order, and
//! schedule of API calls, every run produces the identical event sequence.
//! Event ties break on (time, insertion sequence).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod event;
pub mod metrics;
pub mod net;
pub mod process;
pub mod ring;
pub mod time;
pub mod world;

pub use cost::CostModel;
pub use event::{BaselineHeap, EventQueue, QueueDepthStats};
pub use metrics::{Counter, Hist, Histogram, Metrics, PerShard, Series, Summary};
pub use net::{LatencyModel, LinkModel, NetworkConfig};
pub use process::{NodeId, Payload, Process};
pub use ring::RingLog;
pub use time::{SimDuration, SimTime};
pub use world::{Ctx, World};
