//! System configuration: every knob the paper names, plus simulation knobs.

use sdr_crypto::SignatureScheme;
use sdr_sim::SimDuration;
use serde::{FromJson, ToJson};

/// Which hash goes into a pledge packet.
///
/// The paper specifies SHA-1 \[1\], which every slave pledges with
/// ([`crate::pledge::PLEDGE_ALGO`]); SHA-256 is offered as the modern
/// choice.  Verifiers take the algorithm from the pledge itself, so the
/// protocol logic is identical either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq, ToJson, FromJson)]
pub enum HashAlgo {
    /// SHA-1 (the paper's choice).
    Sha1,
    /// SHA-256.
    Sha256,
}

/// Full system configuration: what a scenario can set or sweep.
/// Protocol constants no run varies (read timeout and retries, cache
/// sizes, the greedy-client detector) live beside their one reader.
#[derive(Clone, Debug, ToJson, FromJson)]
pub struct SystemConfig {
    /// Number of master subgroups, each owning one contiguous shard of
    /// the key/path space with its own write queue, sequencer, digest
    /// stamps, slave set, and elected auditor.  `1` reproduces the
    /// paper's single-group deployment exactly; higher values scale
    /// commit throughput, since the `max_latency` write-spacing rule is
    /// per-queue.
    pub n_shards: usize,
    /// Number of master servers *per shard* (the trusted core).  The
    /// highest-ranked master in each shard's current view is that
    /// shard's elected auditor and holds no slaves.
    pub n_masters: usize,
    /// Number of slave servers *per shard* (assigned round-robin to the
    /// shard's non-auditor masters).
    pub n_slaves: usize,
    /// Number of clients.
    pub n_clients: usize,
    /// The paper's `max_latency`: bound on the inconsistency window, the
    /// minimum spacing between writes, and the pledge freshness horizon.
    pub max_latency: SimDuration,
    /// Period between master keep-alive broadcasts (must be well under
    /// `max_latency` for slaves to stay serviceable).
    pub keepalive_period: SimDuration,
    /// The "double-check" probability `p` (Section 3.3).
    pub double_check_prob: f64,
    /// Fraction of pledges the auditor verifies (1.0 = every read, the
    /// paper's default; lower values model the overload fallback of
    /// Section 3.4).
    pub audit_fraction: f64,
    /// Whether the auditor uses its query-result cache.
    pub auditor_cache: bool,
    /// Maximum virtual CPU the auditor spends per audit slice (bounds how
    /// long its event handler can stay busy between heartbeats).
    pub audit_slice: SimDuration,
    /// Number of slaves each client reads from (1 = basic protocol;
    /// >1 = the Section 4 replicated-read variant).
    ///
    /// At most `n_slaves / (n_masters - 1)`: a client reads only from its
    /// own master's slaves.
    pub read_quorum: usize,
    /// Whether static point reads (`GetRow`/`ReadFile`) take the
    /// authenticated proof path: the slave answers with an O(log n)
    /// Merkle path against a master-signed state digest, the client
    /// verifies deterministically, and the auditor never sees the read.
    /// When off, every read goes through pledge + audit.
    pub proof_reads: bool,
    /// Recheck mode: on every cache hit the host *also* recomputes the
    /// value fresh and compares, counting any divergence in the
    /// `slave.cache_divergence` / `client.cache_divergence` metrics; a
    /// hit of the shared execution memo that differs panics; and the
    /// ground truth re-executes every accepted point and scan result at
    /// its anchor's version (a difference counts in
    /// `wrong_accepted_proof`).  Purely a host-side oracle — virtual
    /// charges, message bytes, and the `RunReport` of a run it finds
    /// nothing wrong in are byte-identical with it on or off.
    pub cache_verify: bool,
    /// Fraction of reads that are security-sensitive (Section 4 variant;
    /// 0.0 = everything normal).
    pub sensitive_fraction: f64,
    /// Signature scheme for all parties (HMAC stand-in for large sims,
    /// MSS for real end-to-end security).
    pub signer: SignatureScheme,
    /// MSS tree height when `signer == Mss` (2^height signatures/node).
    pub mss_height: u8,
    /// How many queued client writes one commit round drains.  Every
    /// write commits through a round — the queue opens once per
    /// `max_latency`, and each round is one ordered
    /// [`crate::messages::MasterEvent::Commit`] anchored by a single
    /// signed stamp pair — and this bounds only its size.  `1` (the
    /// default) is a round of one: the paper's pipeline exactly.  Higher
    /// values amortise the ordering round and the stamp signatures over
    /// up to `max_write_batch` consecutive versions.
    pub max_write_batch: usize,
    /// Versions each master's snapshot ring retains: the window for
    /// rollback re-execution and for slave catch-up replays.  The
    /// elected auditor's ring also keeps every version from the one
    /// under audit on, however many that is.  `0` retains nothing
    /// beyond what the elected auditor has not closed.
    pub snapshot_capacity: usize,
    /// World seed (drives all randomness).
    pub seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            n_shards: 1,
            n_masters: 3,
            n_slaves: 6,
            n_clients: 12,
            max_latency: SimDuration::from_millis(2_000),
            keepalive_period: SimDuration::from_millis(500),
            double_check_prob: 0.02,
            audit_fraction: 1.0,
            auditor_cache: true,
            audit_slice: SimDuration::from_millis(20),
            read_quorum: 1,
            proof_reads: true,
            cache_verify: false,
            sensitive_fraction: 0.0,
            signer: SignatureScheme::Hmac,
            mss_height: 10,
            max_write_batch: 1,
            snapshot_capacity: 64,
            seed: 42,
        }
    }
}

impl SystemConfig {
    /// Sanity-checks the configuration, returning a description of the
    /// first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_shards == 0 {
            return Err("need at least 1 shard".into());
        }
        if self.n_masters < 2 {
            return Err("need at least 2 masters per shard (one is the auditor)".into());
        }
        if self.n_slaves == 0 || self.n_clients == 0 {
            return Err("need at least one slave and one client".into());
        }
        if !(0.0..=1.0).contains(&self.double_check_prob) {
            return Err("double_check_prob must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.audit_fraction) {
            return Err("audit_fraction must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.sensitive_fraction) {
            return Err("sensitive_fraction must be in [0,1]".into());
        }
        if self.keepalive_period >= self.max_latency {
            return Err("keepalive_period must be below max_latency".into());
        }
        // A client reads only from the slaves of the one master it set
        // up with, and slaves are dealt round-robin over the shard's
        // non-auditor masters, so the smallest such share bounds k.
        if self.read_quorum == 0 || self.read_quorum > self.n_slaves / (self.n_masters - 1) {
            return Err("read_quorum must be in 1..=n_slaves / (n_masters - 1)".into());
        }
        if self.max_write_batch == 0 {
            return Err("max_write_batch must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        SystemConfig::default().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = SystemConfig {
            n_masters: 1,
            ..SystemConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SystemConfig {
            double_check_prob: 1.5,
            ..SystemConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SystemConfig {
            keepalive_period: SystemConfig::default().max_latency,
            ..SystemConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SystemConfig {
            read_quorum: 99,
            ..SystemConfig::default()
        };
        assert!(c.validate().is_err());

        // Two slaves over two non-auditor masters: one slave each.
        let c = SystemConfig {
            n_masters: 3,
            n_slaves: 2,
            read_quorum: 2,
            ..SystemConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SystemConfig { n_masters: 2, ..c };
        c.validate().unwrap();

        let c = SystemConfig {
            n_shards: 0,
            ..SystemConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SystemConfig {
            max_write_batch: 0,
            ..SystemConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
