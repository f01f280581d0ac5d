//! Compile-time contract for the facade's public API.
//!
//! The `secure_replication` crate promises that every subsystem is
//! reachable through a stable re-export path.  Each alias below fails to
//! compile if a documented type moves or disappears, so renames surface
//! here as a reviewable diff rather than as downstream breakage.

#![allow(dead_code)]

use secure_replication::{baselines, broadcast, core, crypto, sim, store};

// crypto — hashes, signatures, certificates.
type Sha1 = crypto::Sha1;
type Sha256 = crypto::Sha256;
type Hash160 = crypto::Hash160;
type Hash256 = crypto::Hash256;
type HmacDrbg = crypto::HmacDrbg;
type MerkleTree = crypto::MerkleTree;
type MerkleProof = crypto::MerkleProof;
type WotsKeypair = crypto::WotsKeypair;
type MssKeypair = crypto::MssKeypair;
type HmacSigner = crypto::HmacSigner;
type MssSigner = crypto::MssSigner;
type Certificate = crypto::Certificate;
const HMAC_SHA256: fn(&[u8], &[u8]) -> crypto::Hash256 = crypto::hmac_sha256;

// sim — deterministic discrete-event simulator.
type World<M> = sim::World<M>;
type NodeId = sim::NodeId;
type SimTime = sim::SimTime;
type SimDuration = sim::SimDuration;
type CostModel = sim::CostModel;
type NetworkConfig = sim::NetworkConfig;
type Metrics = sim::Metrics;
type Counter = sim::Counter;
type Hist = sim::Hist;
type Series = sim::Series;
type PerShard<I> = sim::PerShard<I>;

// store — the replicated data content.
type Database = store::Database;
type Document = store::Document;
type Value = store::Value;
type Query = store::Query;
type QueryResult = store::QueryResult;
type Pattern = store::Pattern;
type Predicate = store::Predicate;
type UpdateOp = store::UpdateOp;
type QueryCache = store::QueryCache;
type SnapshotStore = store::SnapshotStore;

// broadcast — total order for the master set.
type TotalOrder<T> = broadcast::TotalOrder<T>;
type TobConfig = broadcast::TobConfig;
type View = broadcast::View;
type MemberId = broadcast::MemberId;

// core — the paper's system.
type System = core::System;
type SystemBuilder = core::SystemBuilder;
type ShardMap = core::ShardMap;
type SystemConfig = core::SystemConfig;
type SlaveBehavior = core::SlaveBehavior;
type Workload = core::Workload;
type Pledge = core::Pledge;
type Evidence = core::Evidence;
type VersionStamp = core::VersionStamp;
type SystemStats = core::SystemStats;
const WRITE_COMMITTED: sim::Counter = core::metrics::WRITE_COMMITTED;
const METRIC_LOOKUP: fn(&str) -> Option<sim::Series> = core::metrics::lookup;
type HashAlgo = core::HashAlgo;
type ReadLevel = core::ReadLevel;

// core::scenario — the declarative experiment front door.
type ScenarioSpec = core::scenario::ScenarioSpec;
type BehaviorSpec = core::scenario::BehaviorSpec;
type NetworkSpec = core::scenario::NetworkSpec;
type LinkSpec = core::scenario::LinkSpec;
type CrashSpec = core::scenario::CrashSpec;
type Grid = core::scenario::Grid;
type SweepAxis = core::scenario::SweepAxis;
type Param = core::scenario::Param;
type Runner<'a> = core::scenario::Runner<'a>;
type RunReport = core::scenario::RunReport;
type CellReport = core::scenario::CellReport;
type RunRecord = core::scenario::RunRecord;
const REGISTRY_LOOKUP: fn(&str) -> Option<core::scenario::ScenarioSpec> =
    core::scenario::registry::lookup;

// baselines — comparator schemes.
type SchemeCosts = baselines::SchemeCosts;
type SmrCluster = baselines::SmrCluster;
type SignedState = baselines::SignedState;

/// The traits clients implement or consume must stay object-reachable too.
fn _signer_is_usable(
    s: &mut crypto::HmacSigner,
) -> Result<crypto::Signature, crypto::CryptoError> {
    use crypto::Signer;
    s.sign(b"api contract")
}

#[test]
fn facade_re_exports_resolve() {
    // The real assertions are the aliases above, checked by the compiler;
    // this test exists so the target shows up in `cargo test` output.
    use crypto::Digest;
    let digest = crypto::Sha256::digest(b"secure data replication");
    assert_eq!(digest, crypto::Sha256::digest(b"secure data replication"));
}
