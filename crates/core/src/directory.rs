//! The public directory of master certificates — shard-routing edition.
//!
//! Section 2: certificates "are stored in a public directory, indexed by
//! content public key.  Thus, by knowing the content public key and the
//! address of the directory, any client can securely get the addresses and
//! public keys of all the master servers replicating that content."
//!
//! With the content space sharded across master subgroups, the directory
//! becomes the routing table: a lookup names a *shard* and returns that
//! shard's master certificates, nodes, and currently elected auditor.
//! The directory itself stays untrusted *for integrity* — clients verify
//! every certificate (including its shard-scope claim) against the
//! content key — but must be available.  Masters update their own
//! shard's auditor entry on view changes; entries of other shards are
//! never touched, so one shard's failover cannot corrupt another's
//! routing.

use crate::messages::Msg;
use crate::metrics as id;
use sdr_crypto::Certificate;
use sdr_sim::{Ctx, NodeId, Process, SimDuration};

/// One shard's directory entry: the subgroup's certificates, nodes, and
/// elected auditor.
#[derive(Clone, Debug)]
pub struct ShardEntry {
    /// Master certificates (owner-signed, shard-scoped).
    pub certs: Vec<Certificate>,
    /// Node ids corresponding to `certs` (same order).
    pub nodes: Vec<NodeId>,
    /// The shard's currently elected auditor.
    pub auditor: NodeId,
}

/// The directory process.
pub struct DirectoryProcess {
    shards: Vec<ShardEntry>,
}

impl DirectoryProcess {
    /// Creates a directory serving the given per-shard entries.
    pub fn new(shards: Vec<ShardEntry>) -> Self {
        assert!(!shards.is_empty(), "directory needs at least one shard");
        for (i, e) in shards.iter().enumerate() {
            assert_eq!(e.certs.len(), e.nodes.len(), "shard {i} certs/nodes mismatch");
        }
        DirectoryProcess { shards }
    }

    /// Convenience for single-shard deployments and tests.
    pub fn single(certs: Vec<Certificate>, nodes: Vec<NodeId>, auditor: NodeId) -> Self {
        DirectoryProcess::new(vec![ShardEntry {
            certs,
            nodes,
            auditor,
        }])
    }

    /// Number of shards served.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The currently recorded auditor of `shard` (test inspection).
    pub fn auditor(&self, shard: usize) -> NodeId {
        self.shards[shard].auditor
    }
}

impl Process<Msg> for DirectoryProcess {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::DirLookup { shard } => {
                // Each lookup is charged, and counted against the shard it
                // routes to, so per-shard directory load is observable —
                // but only once the routing table knows the shard: `shard`
                // is a peer's word, and a per-shard slot is sized by it.
                ctx.charge(SimDuration::from_micros(20));
                ctx.metrics().inc(id::DIRECTORY_LOOKUPS);
                let Some(entry) = self.shards.get(shard as usize) else {
                    ctx.metrics().inc(id::DIRECTORY_UNKNOWN_SHARD);
                    return;
                };
                ctx.metrics()
                    .inc(id::DIRECTORY_LOOKUPS_SHARD.at(shard as usize));
                ctx.send(
                    from,
                    Msg::DirResponse {
                        shard,
                        certs: entry.certs.clone(),
                        nodes: entry.nodes.clone(),
                        auditor: entry.auditor,
                    },
                );
            }
            Msg::AuditorChanged { shard, auditor } => {
                // Scoped write: only the named shard's entry moves.
                let Some(entry) = self.shards.get_mut(shard as usize) else {
                    ctx.metrics().inc(id::DIRECTORY_UNKNOWN_SHARD);
                    return;
                };
                entry.auditor = auditor;
                ctx.metrics().inc(id::DIRECTORY_AUDITOR_CHANGES);
                ctx.metrics()
                    .inc(id::DIRECTORY_AUDITOR_CHANGES_SHARD.at(shard as usize));
            }
            _ => {}
        }
    }

    fn name(&self) -> String {
        "directory".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Entries with no master roster: enough for routing/metric tests
    // (`certs`/`nodes` stay paired-empty to satisfy the constructor).
    fn entry(auditor: u32) -> ShardEntry {
        ShardEntry {
            certs: Vec::new(),
            nodes: Vec::new(),
            auditor: NodeId(auditor),
        }
    }

    #[test]
    fn auditor_change_for_one_shard_never_clobbers_another() {
        // Two shards with distinct subgroups and auditors; drive the
        // process through a real world so metrics/messages flow.
        use sdr_sim::{CostModel, LinkModel, NetworkConfig, SimDuration as D, World};

        let mut world: World<Msg> = World::new(
            7,
            NetworkConfig::new(LinkModel::wan(D::from_millis(1))),
            CostModel::standard(),
        );
        let dir = world.spawn(
            "directory",
            Box::new(DirectoryProcess::new(vec![
                entry(2),
                entry(5),
            ])),
        );
        // A second (dummy) directory stands in as the sending master
        // node; it ignores every reply.
        let sender = world.spawn("sender", Box::new(DirectoryProcess::new(vec![entry(0)])));
        // Shard 1's auditor moves; shard 0's must not.
        world.inject(
            sender,
            dir,
            Msg::AuditorChanged {
                shard: 1,
                auditor: NodeId(4),
            },
        );
        world.run_to_quiescence();
        world.with_process::<DirectoryProcess, ()>(dir, |d| {
            assert_eq!(d.auditor(1), NodeId(4), "shard 1 auditor must move");
            assert_eq!(d.auditor(0), NodeId(2), "shard 0 auditor must not move");
        });
        // An out-of-range shard is ignored, not a panic or a clobber.
        world.inject(
            sender,
            dir,
            Msg::AuditorChanged {
                shard: 9,
                auditor: NodeId(0),
            },
        );
        world.run_to_quiescence();
        world.with_process::<DirectoryProcess, ()>(dir, |d| {
            assert_eq!(d.auditor(0), NodeId(2));
            assert_eq!(d.auditor(1), NodeId(4));
        });
        assert_eq!(world.metrics().counter(id::DIRECTORY_UNKNOWN_SHARD), 1);
        // Lookups for shards the routing table does not know are counted
        // as unknown and never against a per-shard slot: the shard id is a
        // Byzantine peer's word, and it must not size the slot vector.
        let unknown = [2, 9, 1 << 20, u32::MAX];
        for shard in unknown {
            world.inject(sender, dir, Msg::DirLookup { shard });
        }
        world.inject(sender, dir, Msg::DirLookup { shard: 1 });
        world.run_to_quiescence();
        let m = world.metrics();
        assert_eq!(m.counter(id::DIRECTORY_UNKNOWN_SHARD), 1 + 4);
        assert_eq!(m.counter(id::DIRECTORY_LOOKUPS), 5);
        assert_eq!(m.counter(id::DIRECTORY_LOOKUPS_SHARD.at(1)), 1);
        for shard in unknown {
            let slot = id::DIRECTORY_LOOKUPS_SHARD.at(shard as usize);
            assert_eq!(m.counter(slot), 0, "shard {shard} got a slot");
        }
    }

    #[test]
    fn lookups_are_counted_per_shard() {
        use sdr_sim::{CostModel, LinkModel, NetworkConfig, SimDuration as D, World};

        let mut world: World<Msg> = World::new(
            7,
            NetworkConfig::new(LinkModel::wan(D::from_millis(1))),
            CostModel::standard(),
        );
        let dir = world.spawn(
            "directory",
            Box::new(DirectoryProcess::new(vec![
                entry(1),
                entry(3),
            ])),
        );
        let client = world.spawn("client", Box::new(DirectoryProcess::new(vec![entry(0)])));
        world.inject(client, dir, Msg::DirLookup { shard: 0 });
        world.inject(client, dir, Msg::DirLookup { shard: 1 });
        world.inject(client, dir, Msg::DirLookup { shard: 1 });
        world.run_to_quiescence();
        let m = world.metrics();
        assert_eq!(m.counter(id::DIRECTORY_LOOKUPS), 3);
        assert_eq!(m.counter(id::DIRECTORY_LOOKUPS_SHARD.at(0)), 1);
        assert_eq!(m.counter(id::DIRECTORY_LOOKUPS_SHARD.at(1)), 2);
    }
}
