//! Pledge packets — the heart of the paper's accountability mechanism.
//!
//! Section 3.2: "The slave executes the request, and constructs a 'pledge'
//! packet which contains a copy of the request, the secure hash (SHA-1) of
//! the result, and the latest time-stamped `content_version` value received
//! from the master.  After signing this 'pledge' packet, the slave sends it
//! to the client, together with the result of the query."
//!
//! Because the slave signs `(request, hash(result), stamp)`, a wrong answer
//! makes the pledge "an irrefutable proof of its dishonesty" (Section 3.3),
//! while a client cannot frame an honest slave without forging its
//! signature — both properties are enforced (and property-tested) here.

use crate::config::HashAlgo;
use crate::messages::VersionStamp;
use sdr_crypto::{CryptoError, PublicKey, Signature, Signer};
use sdr_sim::{NodeId, SimDuration, SimTime};
use sdr_store::{Query, QueryResult};

/// Hash of a query result under the configured algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ResultHash {
    /// SHA-1 digest (the paper's choice).
    Sha1(sdr_crypto::Hash160),
    /// SHA-256 digest.
    Sha256(sdr_crypto::Hash256),
}

impl ResultHash {
    /// Hashes a query result under `algo`.
    pub fn of(result: &QueryResult, algo: HashAlgo) -> Self {
        match algo {
            HashAlgo::Sha1 => ResultHash::Sha1(result.sha1()),
            HashAlgo::Sha256 => ResultHash::Sha256(result.sha256()),
        }
    }

    /// The algorithm used.
    pub fn algo(&self) -> HashAlgo {
        match self {
            ResultHash::Sha1(_) => HashAlgo::Sha1,
            ResultHash::Sha256(_) => HashAlgo::Sha256,
        }
    }

    /// Raw digest bytes.
    pub fn bytes(&self) -> &[u8] {
        match self {
            ResultHash::Sha1(h) => h.as_ref(),
            ResultHash::Sha256(h) => h.as_ref(),
        }
    }
}

/// A signed pledge accompanying every slave read response.
#[derive(Clone, Debug, PartialEq)]
pub struct Pledge {
    /// Copy of the request.
    pub query: Query,
    /// Secure hash of the result the slave computed.
    pub result_hash: ResultHash,
    /// Latest time-stamped `content_version` received from the master.
    pub stamp: VersionStamp,
    /// The slave that produced (and signed) this pledge.
    pub slave: NodeId,
    /// Slave signature over [`Pledge::signing_bytes`].
    pub signature: Signature,
}

impl Pledge {
    /// Canonical bytes the slave signs.
    pub fn signing_bytes(
        query: &Query,
        result_hash: &ResultHash,
        stamp: &VersionStamp,
        slave: NodeId,
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        out.extend_from_slice(b"sdr/pledge/v1");
        query.encode_into(&mut out);
        out.push(match result_hash.algo() {
            HashAlgo::Sha1 => 1,
            HashAlgo::Sha256 => 2,
        });
        out.extend_from_slice(result_hash.bytes());
        out.extend_from_slice(&stamp.signing_bytes());
        out.extend_from_slice(&stamp.master.0.to_be_bytes());
        out.extend_from_slice(&slave.0.to_be_bytes());
        out
    }

    /// Builds and signs a pledge over an already-computed result hash.
    ///
    /// Taking the *hash* (not the result) keeps the API honest: a malicious
    /// slave signs whatever hash it likes — the protocol's security never
    /// rests on this constructor being well-behaved.
    pub fn build(
        query: Query,
        result_hash: ResultHash,
        stamp: VersionStamp,
        slave: NodeId,
        signer: &mut dyn Signer,
    ) -> Result<Self, CryptoError> {
        let bytes = Self::signing_bytes(&query, &result_hash, &stamp, slave);
        let signature = signer.sign(&bytes)?;
        Ok(Pledge {
            query,
            result_hash,
            stamp,
            slave,
            signature,
        })
    }

    /// Verifies the slave's signature over this pledge.
    pub fn verify_signature(&self, slave_key: &PublicKey) -> Result<(), CryptoError> {
        let bytes = Self::signing_bytes(&self.query, &self.result_hash, &self.stamp, self.slave);
        slave_key.verify(&bytes, &self.signature)
    }

    /// Whether `result` matches the pledged hash.
    pub fn matches_result(&self, result: &QueryResult) -> bool {
        ResultHash::of(result, self.result_hash.algo()) == self.result_hash
    }

    /// Whether the embedded stamp is still fresh at `now` under the
    /// client's `max_latency` bound (Section 3.2's third client check).
    pub fn is_fresh(&self, now: SimTime, max_latency: SimDuration) -> bool {
        now.since(self.stamp.timestamp) <= max_latency
    }

    /// Approximate wire size (result hash + query + stamp + signature).
    pub fn wire_len(&self) -> usize {
        self.query.encode().len() + self.result_hash.bytes().len() + 64 + self.signature.wire_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_crypto::HmacSigner;
    use sdr_store::Value;

    fn stamp(version: u64, ts_ms: u64, master_signer: &mut dyn Signer) -> VersionStamp {
        VersionStamp::build(version, SimTime::from_millis(ts_ms), NodeId(0), master_signer)
            .unwrap()
    }

    fn setup() -> (HmacSigner, HmacSigner, Pledge, QueryResult) {
        let mut master = HmacSigner::from_seed_label(1, b"master");
        let mut slave = HmacSigner::from_seed_label(2, b"slave");
        let query = Query::GetRow {
            table: "t".into(),
            key: 7,
        };
        let result = QueryResult::Scalar(Value::Int(99));
        let st = stamp(5, 1_000, &mut master);
        let pledge = Pledge::build(
            query,
            ResultHash::of(&result, HashAlgo::Sha1),
            st,
            NodeId(3),
            &mut slave,
        )
        .unwrap();
        (master, slave, pledge, result)
    }

    #[test]
    fn honest_pledge_verifies() {
        let (_, slave, pledge, result) = setup();
        pledge.verify_signature(&slave.public_key()).unwrap();
        assert!(pledge.matches_result(&result));
    }

    #[test]
    fn wrong_result_detected_by_hash() {
        let (_, _, pledge, _) = setup();
        let other = QueryResult::Scalar(Value::Int(100));
        assert!(!pledge.matches_result(&other));
    }

    #[test]
    fn client_cannot_frame_slave() {
        // A client tampering with any pledge field invalidates the slave's
        // signature — the "framing" attack of Section 3.3.
        let (_, slave, pledge, result) = setup();
        let key = slave.public_key();

        let mut forged = pledge.clone();
        forged.result_hash = ResultHash::of(
            &QueryResult::Scalar(Value::Int(-1)),
            HashAlgo::Sha1,
        );
        assert!(forged.verify_signature(&key).is_err());

        let mut forged = pledge.clone();
        forged.query = Query::GetRow {
            table: "t".into(),
            key: 8,
        };
        assert!(forged.verify_signature(&key).is_err());

        let mut forged = pledge.clone();
        forged.stamp.version += 1;
        assert!(forged.verify_signature(&key).is_err());

        let mut forged = pledge;
        forged.slave = NodeId(99);
        assert!(forged.verify_signature(&key).is_err());
        let _ = result;
    }

    #[test]
    fn freshness_window() {
        let (_, _, pledge, _) = setup();
        let ml = SimDuration::from_millis(500);
        // Stamp at t=1000ms.
        assert!(pledge.is_fresh(SimTime::from_millis(1_200), ml));
        assert!(pledge.is_fresh(SimTime::from_millis(1_500), ml));
        assert!(!pledge.is_fresh(SimTime::from_millis(1_501), ml));
    }

    #[test]
    fn sha256_mode() {
        let mut slave = HmacSigner::from_seed_label(3, b"slave");
        let mut master = HmacSigner::from_seed_label(4, b"master");
        let result = QueryResult::Scalar(Value::Int(1));
        let pledge = Pledge::build(
            Query::ListFiles { prefix: "/".into() },
            ResultHash::of(&result, HashAlgo::Sha256),
            stamp(1, 0, &mut master),
            NodeId(1),
            &mut slave,
        )
        .unwrap();
        assert_eq!(pledge.result_hash.algo(), HashAlgo::Sha256);
        assert!(pledge.matches_result(&result));
        pledge.verify_signature(&slave.public_key()).unwrap();
    }

    #[test]
    fn signature_scheme_mismatch_rejected() {
        let (_, _, pledge, _) = setup();
        let mss = sdr_crypto::MssSigner::generate([9; 32], 1).unwrap();
        assert_eq!(
            pledge.verify_signature(&mss.public_key()),
            Err(CryptoError::SchemeMismatch)
        );
    }
}
