//! Wires a full deployment into a simulation world.
//!
//! The [`SystemBuilder`] plays the *content owner*: it generates the
//! content key, signs shard-scoped master certificates, splits the
//! initial data content across shards (each shard's replicas load only
//! their slice), assigns each shard's slaves to that shard's masters
//! (the highest-ranked master of every subgroup is its initial elected
//! auditor and gets none), and spawns the directory, every shard's
//! masters and slaves, and the clients into an `sdr-sim` [`World`].
//!
//! Every master and slave of one deployment shares one [`ExecMemo`], so
//! the host executes each computed query once per state however many
//! replicas re-execute it in the model.  The masters commit every round
//! to one [`Truth`] and check every stamp against it; the clients ask it
//! whether each read they accept is right.
//!
//! Node layout is shard-major and collapses to the classic single-group
//! layout when `n_shards == 1`: all masters (shard 0 ranks, then shard 1
//! ranks, …), all slaves (shard-major), the directory, then the clients.

use crate::client::ClientProcess;
use crate::config::SystemConfig;
use crate::dataset::DatasetSpec;
use crate::directory::{DirectoryProcess, ShardEntry};
use crate::master::MasterProcess;
use crate::messages::Msg;
use crate::shard::ShardMap;
use crate::slave::{SlaveBehavior, SlaveProcess};
use crate::stats::SystemStats;
use crate::truth::Truth;
use crate::workload::Workload;
use crate::acl::WritePolicy;
use sdr_broadcast::MemberId;
use sdr_crypto::{
    content_id_for_key, CertRole, Certificate, CertificateBody, HmacDrbg, HmacSigner, MssSigner,
    PublicKey, SignatureScheme, Signer,
};
use sdr_sim::{CostModel, LinkModel, NetworkConfig, NodeId, SimDuration, SimTime, World};
use sdr_store::{ExecMemo, ExecMemoStats};
use std::collections::HashMap;

/// Builder for a complete simulated deployment.
pub struct SystemBuilder {
    config: SystemConfig,
    workload: Workload,
    behaviors: Vec<SlaveBehavior>,
    net: Option<NetworkConfig>,
    costs: CostModel,
    policy: WritePolicy,
}

impl SystemBuilder {
    /// Starts a builder from a configuration.
    pub fn new(config: SystemConfig) -> Self {
        let behaviors =
            vec![SlaveBehavior::Honest; config.n_slaves * config.n_shards.max(1)];
        SystemBuilder {
            config,
            workload: Workload::default(),
            behaviors,
            net: None,
            costs: CostModel::standard(),
            policy: WritePolicy::allow_all(),
        }
    }

    /// Sets the workload.
    pub fn workload(mut self, w: Workload) -> Self {
        self.workload = w;
        self
    }

    /// Sets one slave's behaviour (`index` is the global, shard-major
    /// slave index).
    ///
    /// # Panics
    ///
    /// Panics when `index` is not a valid slave index for the
    /// configuration this builder was created with.
    pub fn slave_behavior(mut self, index: usize, b: SlaveBehavior) -> Self {
        assert!(
            index < self.behaviors.len(),
            "slave_behavior: index {index} out of range (total slaves = {})",
            self.behaviors.len()
        );
        self.behaviors[index] = b;
        self
    }

    /// Sets every slave's behaviour at once (length must match the total
    /// slave count, `n_shards * n_slaves`).
    pub fn behaviors(mut self, b: Vec<SlaveBehavior>) -> Self {
        assert_eq!(b.len(), self.behaviors.len());
        self.behaviors = b;
        self
    }

    /// Overrides the network model (default: 10 ms WAN-ish links).
    pub fn network(mut self, net: NetworkConfig) -> Self {
        self.net = Some(net);
        self
    }

    /// Overrides the virtual cost model.
    pub fn costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Overrides the write policy (default: allow all).
    pub fn policy(mut self, policy: WritePolicy) -> Self {
        self.policy = policy;
        self
    }

    fn make_signer(scheme: SignatureScheme, mss_height: u8, seed: u64, label: &str) -> Box<dyn Signer> {
        match scheme {
            SignatureScheme::Hmac => {
                Box::new(HmacSigner::from_seed_label(seed, label.as_bytes()))
            }
            SignatureScheme::Mss => {
                let mut drbg = HmacDrbg::from_seed_label(seed, label.as_bytes());
                let key_seed: [u8; 32] = drbg.gen_array();
                Box::new(
                    MssSigner::generate(key_seed, mss_height)
                        .expect("valid MSS height"),
                )
            }
        }
    }

    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics when the configuration fails [`SystemConfig::validate`].
    pub fn build(self) -> System {
        let cfg = self.config;
        cfg.validate().unwrap_or_else(|e| panic!("bad config: {e}"));
        let seed = cfg.seed;
        let n_shards = cfg.n_shards;
        let map = ShardMap::new(n_shards, &self.workload.dataset);

        let net = self.net.unwrap_or_else(|| {
            NetworkConfig::new(LinkModel::wan(SimDuration::from_millis(10)))
        });
        let mut world: World<Msg> = World::new(seed, net, self.costs);

        // Deterministic shard-major node-id layout (spawn order below
        // must match): all masters, all slaves, directory, clients.
        let nm = cfg.n_masters;
        let ns = cfg.n_slaves;
        let total_masters = nm * n_shards;
        let total_slaves = ns * n_shards;
        let master_ids: Vec<NodeId> = (0..total_masters).map(|i| NodeId(i as u32)).collect();
        let slave_ids: Vec<NodeId> =
            (0..total_slaves).map(|i| NodeId((total_masters + i) as u32)).collect();
        let directory_id = NodeId((total_masters + total_slaves) as u32);
        let client_ids: Vec<NodeId> = (0..cfg.n_clients)
            .map(|i| NodeId((total_masters + total_slaves + 1 + i) as u32))
            .collect();

        // The content owner and its key.
        let mut owner_signer =
            Self::make_signer(cfg.signer, cfg.mss_height, seed, "content-owner");
        let content_key = owner_signer.public_key();
        let content_id = content_id_for_key(&content_key);

        // Per-node signers and public keys (labels use the global,
        // shard-major index so `n_shards == 1` reproduces the classic
        // key material exactly).
        let mut master_signers: Vec<Box<dyn Signer>> = (0..total_masters)
            .map(|i| Self::make_signer(cfg.signer, cfg.mss_height, seed, &format!("master-{i}")))
            .collect();
        let master_keys_all: Vec<PublicKey> =
            master_signers.iter().map(|s| s.public_key()).collect();
        let slave_signers: Vec<Box<dyn Signer>> = (0..total_slaves)
            .map(|i| Self::make_signer(cfg.signer, cfg.mss_height, seed, &format!("slave-{i}")))
            .collect();
        let slave_keys_all: Vec<PublicKey> =
            slave_signers.iter().map(|s| s.public_key()).collect();

        // Master certificates signed with the content key (Section 2),
        // carrying the shard-scope claim.
        let master_certs: Vec<Certificate> = (0..total_masters)
            .map(|i| {
                Certificate::issue(
                    CertificateBody {
                        serial: i as u64 + 1,
                        role: CertRole::Master,
                        subject_addr: format!("master-{i}"),
                        subject_key: master_keys_all[i],
                        issued_at_us: 0,
                        content_id,
                        shard: (i / nm) as u32,
                    },
                    owner_signer.as_mut(),
                )
                .expect("owner cert issuance")
            })
            .collect();

        // Per-shard rosters, keys, and slave assignment (the shard's
        // initial auditor — highest rank — gets none).
        let mut shard_master_nodes: Vec<Vec<NodeId>> = Vec::with_capacity(n_shards);
        let mut shard_master_keys: Vec<HashMap<NodeId, PublicKey>> =
            Vec::with_capacity(n_shards);
        let mut shard_slave_keys: Vec<HashMap<NodeId, PublicKey>> =
            Vec::with_capacity(n_shards);
        let mut shard_assignment: Vec<Vec<Vec<NodeId>>> = Vec::with_capacity(n_shards);
        let mut shard_slave_owner: Vec<HashMap<NodeId, MemberId>> =
            Vec::with_capacity(n_shards);
        let auditor_rank = nm - 1;
        for s in 0..n_shards {
            let m_nodes: Vec<NodeId> = (0..nm).map(|r| master_ids[s * nm + r]).collect();
            let m_keys: HashMap<NodeId, PublicKey> = m_nodes
                .iter()
                .enumerate()
                .map(|(r, id)| (*id, master_keys_all[s * nm + r]))
                .collect();
            let s_nodes: Vec<NodeId> = (0..ns).map(|i| slave_ids[s * ns + i]).collect();
            let s_keys: HashMap<NodeId, PublicKey> = s_nodes
                .iter()
                .enumerate()
                .map(|(i, id)| (*id, slave_keys_all[s * ns + i]))
                .collect();

            let eligible: Vec<usize> = (0..nm).filter(|&r| r != auditor_rank).collect();
            let mut assignment: Vec<Vec<NodeId>> = vec![Vec::new(); nm];
            let mut slave_owner: HashMap<NodeId, MemberId> = HashMap::new();
            for (i, sid) in s_nodes.iter().enumerate() {
                let owner = eligible[i % eligible.len()];
                assignment[owner].push(*sid);
                slave_owner.insert(*sid, MemberId(owner as u32));
            }

            shard_master_nodes.push(m_nodes);
            shard_master_keys.push(m_keys);
            shard_slave_keys.push(s_keys);
            shard_assignment.push(assignment);
            shard_slave_owner.push(slave_owner);
        }

        // Initial content: each shard's replicas hold only their slice
        // (identical across the shard's masters and slaves); one
        // generator pass builds every slice.
        let shard_dbs = self.workload.dataset.build_shards(&map);
        let memo = ExecMemo::new().check_hits(cfg.cache_verify);
        let truth = Truth::new(&shard_dbs, memo.clone());

        // Spawn masters, shard-major.
        {
            let mut signers = master_signers.drain(..);
            for s in 0..n_shards {
                for rank in 0..nm {
                    let signer = signers.next().expect("one signer per master");
                    let process = MasterProcess::new(
                        cfg.clone(),
                        s as u32,
                        MemberId(rank as u32),
                        shard_master_nodes[s].clone(),
                        shard_master_keys[s].clone(),
                        signer,
                        content_id,
                        shard_dbs[s].clone(),
                        self.policy.clone(),
                        shard_assignment[s][rank].clone(),
                        shard_slave_keys[s].clone(),
                        shard_slave_owner[s].clone(),
                        directory_id,
                        memo.clone(),
                        truth.clone(),
                    );
                    let id = world.spawn(format!("master-{}", s * nm + rank), Box::new(process));
                    debug_assert_eq!(id, master_ids[s * nm + rank]);
                }
            }
        }

        // Spawn slaves, shard-major; each knows only its own shard's
        // master keys, so another shard's stamps never anchor it.
        let behaviors = self.behaviors;
        for (i, signer) in slave_signers.into_iter().enumerate() {
            let s = i / ns;
            let process = SlaveProcess::new(
                cfg.clone(),
                shard_dbs[s].clone(),
                behaviors[i],
                signer,
                shard_master_keys[s].clone(),
                memo.clone(),
            );
            let id = world.spawn(format!("slave-{i}"), Box::new(process));
            debug_assert_eq!(id, slave_ids[i]);
        }

        // Spawn the shard-routing directory.
        let entries: Vec<ShardEntry> = (0..n_shards)
            .map(|s| ShardEntry {
                certs: master_certs[s * nm..(s + 1) * nm].to_vec(),
                nodes: shard_master_nodes[s].clone(),
                auditor: shard_master_nodes[s][auditor_rank],
            })
            .collect();
        let id = world.spawn("directory", Box::new(DirectoryProcess::new(entries)));
        debug_assert_eq!(id, directory_id);

        // Spawn clients.
        // `Workload::validate` bounds writer_fraction at spec level; the
        // clamp keeps direct builder users safe from `ceil` overshoot too.
        let n_writers = (((cfg.n_clients as f64) * self.workload.writer_fraction).ceil() as usize)
            .min(cfg.n_clients);
        for (i, expected_id) in client_ids.iter().enumerate() {
            let process = ClientProcess::new(
                cfg.clone(),
                self.workload.clone(),
                i,
                directory_id,
                content_key,
                i < n_writers,
                truth.clone(),
            );
            let id = world.spawn(format!("client-{i}"), Box::new(process));
            debug_assert_eq!(id, *expected_id);
        }

        System {
            world,
            config: cfg,
            map,
            masters: master_ids,
            slaves: slave_ids,
            directory: directory_id,
            clients: client_ids,
            content_key,
            initial_dataset: self.workload.dataset,
            behaviors,
            memo,
            truth,
        }
    }
}

/// A running deployment: the world plus the node roster.
pub struct System {
    /// The simulation world.
    pub world: World<Msg>,
    /// The configuration it was built with.
    pub config: SystemConfig,
    /// The shard routing map the deployment was built with.
    pub map: ShardMap,
    /// Master nodes, shard-major (`shard * n_masters + rank`).
    pub masters: Vec<NodeId>,
    /// Slave nodes, shard-major (`shard * n_slaves + index`).
    pub slaves: Vec<NodeId>,
    /// The directory node.
    pub directory: NodeId,
    /// Client nodes, by index.
    pub clients: Vec<NodeId>,
    /// The content public key.
    pub content_key: PublicKey,
    /// Dataset spec the content was generated from.
    pub initial_dataset: DatasetSpec,
    /// Each slave's behaviour, by global index (ground truth).
    pub(crate) behaviors: Vec<SlaveBehavior>,
    memo: ExecMemo,
    pub(crate) truth: Truth,
}

impl System {
    /// Runs the world for `d` of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        self.world.run_for(d);
    }

    /// Runs the world until `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.world.run_until(t);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// Number of shards in this deployment.
    pub fn n_shards(&self) -> usize {
        self.config.n_shards
    }

    /// Global master index of `(shard, rank)`.
    pub fn master_index(&self, shard: usize, rank: usize) -> usize {
        shard * self.config.n_masters + rank
    }

    /// Crashes a master at time `at` (fault injection for E12).
    /// `rank` is the global, shard-major master index.
    pub fn crash_master_at(&mut self, at: SimTime, rank: usize) {
        let node = self.masters[rank];
        self.world.schedule_crash(at, node);
    }

    /// Typed access to a master by global (shard-major) index.
    pub fn with_master<R>(&mut self, rank: usize, f: impl FnOnce(&mut MasterProcess) -> R) -> R {
        let node = self.masters[rank];
        self.world.with_process::<MasterProcess, R>(node, f)
    }

    /// Typed access to a slave by global (shard-major) index.
    pub fn with_slave<R>(&mut self, index: usize, f: impl FnOnce(&mut SlaveProcess) -> R) -> R {
        let node = self.slaves[index];
        self.world.with_process::<SlaveProcess, R>(node, f)
    }

    /// Typed access to a client by index.
    pub fn with_client<R>(&mut self, index: usize, f: impl FnOnce(&mut ClientProcess) -> R) -> R {
        let node = self.clients[index];
        self.world.with_process::<ClientProcess, R>(node, f)
    }

    /// Host-side counters of the execution memo the replicas share.
    /// They describe the simulator's own work, not the modeled system's,
    /// so they are not part of [`SystemStats`].
    pub fn exec_memo_stats(&self) -> ExecMemoStats {
        self.memo.stats()
    }

    /// Harvests statistics.
    pub fn stats(&mut self) -> SystemStats {
        SystemStats::collect(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_spawns_expected_roster() {
        let cfg = SystemConfig {
            n_masters: 3,
            n_slaves: 4,
            n_clients: 5,
            ..SystemConfig::default()
        };
        let sys = SystemBuilder::new(cfg).build();
        // masters + slaves + directory + clients
        assert_eq!(sys.world.node_count(), 3 + 4 + 1 + 5);
        assert_eq!(sys.masters.len(), 3);
        assert_eq!(sys.clients.len(), 5);
    }

    #[test]
    fn sharded_build_spawns_one_subgroup_per_shard() {
        let cfg = SystemConfig {
            n_shards: 3,
            n_masters: 2,
            n_slaves: 2,
            n_clients: 4,
            ..SystemConfig::default()
        };
        let mut sys = SystemBuilder::new(cfg).build();
        assert_eq!(sys.masters.len(), 6);
        assert_eq!(sys.slaves.len(), 6);
        assert_eq!(sys.world.node_count(), 6 + 6 + 1 + 4);
        // Each subgroup knows its own shard and its own auditor rank.
        for shard in 0..3usize {
            for rank in 0..2usize {
                let gi = sys.master_index(shard, rank);
                assert_eq!(sys.with_master(gi, |m| m.shard()), shard as u32);
            }
            let auditor = sys.master_index(shard, 1);
            assert!(sys.with_master(auditor, |m| m.is_auditor()));
            assert_eq!(sys.with_master(auditor, |m| m.slaves().len()), 0);
        }
        // Shard replicas hold different slices: digests differ pairwise.
        let d0 = sys.with_master(0, |m| m.state_digest());
        let d1 = sys.with_master(sys.master_index(1, 0), |m| m.state_digest());
        assert_ne!(d0, d1);
        // But agree within a shard (master vs its slaves).
        let ds = sys.with_slave(0, |s| s.state_digest());
        assert_eq!(d0, ds);
    }

    #[test]
    fn initial_auditor_has_no_slaves() {
        let cfg = SystemConfig::default();
        let nm = cfg.n_masters;
        let mut sys = SystemBuilder::new(cfg).build();
        let auditor_slaves = sys.with_master(nm - 1, |m| m.slaves().len());
        assert_eq!(auditor_slaves, 0);
        let total: usize = (0..nm - 1)
            .map(|r| sys.with_master(r, |m| m.slaves().len()))
            .sum();
        assert_eq!(total, sys.slaves.len());
    }

    #[test]
    fn replicas_start_identical() {
        let mut sys = SystemBuilder::new(SystemConfig::default()).build();
        let d0 = sys.with_master(0, |m| m.state_digest());
        let d1 = sys.with_master(1, |m| m.state_digest());
        let ds = sys.with_slave(0, |s| s.state_digest());
        assert_eq!(d0, d1);
        assert_eq!(d0, ds);
    }
}
