//! The paper's system: secure data replication over untrusted hosts.
//!
//! Implements the full architecture of Popescu, Crispo & Tanenbaum (HotOS
//! 2003) on top of the workspace substrates:
//!
//! * **Masters** ([`master`]) — trusted servers holding the content.
//!   Writes are admitted through access control, spaced at least
//!   `max_latency` apart, totally ordered via `sdr-broadcast`, applied by
//!   every master, then lazily pushed to slaves together with signed,
//!   time-stamped `content_version` stamps.  Masters also serve
//!   double-check requests, detect greedy clients, take corrective action
//!   against slaves caught misbehaving, and redistribute a crashed
//!   master's slave set.
//! * **Slaves** ([`slave`]) — marginally-trusted replicas executing
//!   arbitrary queries.  Every response carries a signed **pledge**
//!   ([`pledge`]): the request, the SHA-1 of the result, and the latest
//!   master stamp.  Slaves self-gate when their freshest keep-alive is
//!   older than `max_latency`.  Byzantine behaviour models are pluggable.
//! * **Clients** ([`client`]) — verify hash, signature, and freshness on
//!   every read; double-check a random fraction `p` against their master;
//!   forward all other pledges to the auditor; and re-run setup when their
//!   master crashes.
//! * **The auditor** ([`auditor`]) — the master elected by the group's
//!   broadcast protocol (highest rank in the current view).  It lags
//!   behind on writes, re-executes every pledged read against the exact
//!   version the pledge names (with a result cache), and produces
//!   irrefutable [`evidence`] against lying slaves.
//!
//! The content space can be **sharded** across master subgroups
//! ([`shard`]): each shard owns a contiguous slice of the key/path
//! space with its own write queue, sequencer, digest stamps, slave set,
//! and elected auditor, so commit throughput scales with shard count
//! while every shard independently carries the paper's trust argument.
//!
//! [`system`] wires everything into an `sdr-sim` world; [`workload`]
//! generates read/write mixes (including diurnal patterns and greedy
//! clients); [`stats`] extracts the numbers the experiment harness prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acl;
pub mod auditor;
pub mod client;
pub mod config;
pub mod cost;
pub mod dataset;
pub mod directory;
pub mod error;
pub mod evidence;
pub mod master;
pub mod messages;
pub mod metrics;
pub mod pledge;
pub mod scenario;
pub mod shard;
pub mod slave;
pub mod stats;
pub mod system;
pub mod verify;
pub mod workload;

pub use config::{GreedyConfig, HashAlgo, ReadLevel, SystemConfig};
pub use error::CoreError;
pub use evidence::Evidence;
pub use messages::{Msg, StateDigestStamp, VersionStamp};
pub use pledge::Pledge;
pub use verify::{ReadStrategy, RejectReason};
pub use scenario::{RunReport, Runner, ScenarioSpec};
pub use shard::ShardMap;
pub use slave::SlaveBehavior;
pub use stats::SystemStats;
pub use system::{System, SystemBuilder};
pub use workload::{DiurnalPattern, QueryMix, Workload};
