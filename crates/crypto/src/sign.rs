//! Pluggable signature facade used by every protocol role.
//!
//! Two schemes implement the same [`Signer`] interface:
//!
//! * [`MssSigner`] — the real hash-based Merkle signature scheme.  Use for
//!   security-focused tests, examples, and whenever end-to-end
//!   unforgeability matters.
//! * [`HmacSigner`] — a *simulation-only* stand-in whose "signature" is an
//!   HMAC under a key that is also embedded in the "public" key.  Anyone
//!   holding the public key could forge; this is acceptable inside the
//!   deterministic simulator (which is itself trusted) and keeps
//!   million-read experiments fast.  The simulator still charges the
//!   configured *virtual* signing cost, so performance results are
//!   unaffected by the swap.
//!
//! Protocol code treats both uniformly through [`Signature`] /
//! [`PublicKey`]; mixing schemes yields [`CryptoError::SchemeMismatch`].

use crate::digest::Hash256;
use crate::error::CryptoError;
use crate::hmac::{ct_eq, hmac_sha256};
use crate::mss::{MssKeypair, MssPublicKey, MssSignature};
use serde::{FromJson, ToJson};

/// Identifies the signature scheme of a key or signature.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, ToJson, FromJson)]
pub enum SignatureScheme {
    /// Merkle signature scheme (hash-based, stateful, real security).
    Mss,
    /// HMAC stand-in (simulation-only, see module docs).
    Hmac,
}

/// A signature under either scheme.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Signature {
    /// Merkle signature scheme signature.
    Mss(MssSignature),
    /// HMAC tag.
    Hmac(Hash256),
}

impl Signature {
    /// The scheme this signature belongs to.
    pub fn scheme(&self) -> SignatureScheme {
        match self {
            Signature::Mss(_) => SignatureScheme::Mss,
            Signature::Hmac(_) => SignatureScheme::Hmac,
        }
    }

    /// Approximate wire size in bytes (for cost accounting).
    pub fn wire_len(&self) -> usize {
        match self {
            Signature::Mss(s) => 8 + s.wots.values.len() * 32 + 8 + s.auth_path.siblings.len() * 32,
            Signature::Hmac(_) => 32,
        }
    }
}

/// A verification key under either scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PublicKey {
    /// MSS root + height.
    Mss(MssPublicKey),
    /// Simulation-only HMAC key (shared secret; see module docs).
    Hmac([u8; 32]),
}

impl PublicKey {
    /// The scheme of this key.
    pub fn scheme(&self) -> SignatureScheme {
        match self {
            PublicKey::Mss(_) => SignatureScheme::Mss,
            PublicKey::Hmac(_) => SignatureScheme::Hmac,
        }
    }

    /// Canonical byte encoding (for embedding into certificates and
    /// fingerprints).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            PublicKey::Mss(pk) => {
                let mut out = Vec::with_capacity(34);
                out.push(0x01);
                out.extend_from_slice(pk.root.as_ref());
                out.push(pk.height);
                out
            }
            PublicKey::Hmac(key) => {
                let mut out = Vec::with_capacity(33);
                out.push(0x02);
                out.extend_from_slice(key);
                out
            }
        }
    }

    /// Short fingerprint of the key (first 8 hex chars of its hash).
    pub fn fingerprint(&self) -> String {
        use crate::digest::Digest;
        crate::sha256::Sha256::digest(&self.encode()).short()
    }

    /// Verifies `sig` over `message`.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> Result<(), CryptoError> {
        match (self, sig) {
            (PublicKey::Mss(pk), Signature::Mss(s)) => MssKeypair::verify(pk, message, s),
            (PublicKey::Hmac(key), Signature::Hmac(tag)) => {
                let expect = hmac_sha256(key, message);
                if ct_eq(expect.as_ref(), tag.as_ref()) {
                    Ok(())
                } else {
                    Err(CryptoError::InvalidSignature)
                }
            }
            _ => Err(CryptoError::SchemeMismatch),
        }
    }
}

/// A signing key: stateful, scheme-agnostic.
pub trait Signer: Send {
    /// Returns the verification key.
    fn public_key(&self) -> PublicKey;

    /// Signs a message (may consume one-time state).
    fn sign(&mut self, message: &[u8]) -> Result<Signature, CryptoError>;

    /// Signatures remaining, if the scheme is stateful (`None` = unlimited).
    fn remaining(&self) -> Option<u64> {
        None
    }

    /// The scheme implemented by this signer.
    fn scheme(&self) -> SignatureScheme;
}

/// Signer backed by the real Merkle signature scheme.
pub struct MssSigner {
    keypair: MssKeypair,
}

impl MssSigner {
    /// Creates a signer from seed material with `2^height` signatures.
    pub fn generate(seed: [u8; 32], height: u8) -> Result<Self, CryptoError> {
        Ok(MssSigner {
            keypair: MssKeypair::generate(seed, height)?,
        })
    }

    /// Wraps an existing keypair.
    pub fn from_keypair(keypair: MssKeypair) -> Self {
        MssSigner { keypair }
    }
}

impl Signer for MssSigner {
    fn public_key(&self) -> PublicKey {
        PublicKey::Mss(self.keypair.public_key())
    }

    fn sign(&mut self, message: &[u8]) -> Result<Signature, CryptoError> {
        Ok(Signature::Mss(self.keypair.sign(message)?))
    }

    fn remaining(&self) -> Option<u64> {
        Some(self.keypair.remaining())
    }

    fn scheme(&self) -> SignatureScheme {
        SignatureScheme::Mss
    }
}

/// Simulation-only HMAC signer (see module docs for the trust caveat).
#[derive(Clone)]
pub struct HmacSigner {
    key: [u8; 32],
}

impl HmacSigner {
    /// Creates a signer from key material.
    pub fn new(key: [u8; 32]) -> Self {
        HmacSigner { key }
    }

    /// Derives a signer deterministically from a seed and label.
    pub fn from_seed_label(seed: u64, label: &[u8]) -> Self {
        let mut drbg = crate::drbg::HmacDrbg::from_seed_label(seed, label);
        HmacSigner {
            key: drbg.gen_array(),
        }
    }
}

impl Signer for HmacSigner {
    fn public_key(&self) -> PublicKey {
        PublicKey::Hmac(self.key)
    }

    fn sign(&mut self, message: &[u8]) -> Result<Signature, CryptoError> {
        Ok(Signature::Hmac(hmac_sha256(&self.key, message)))
    }

    fn scheme(&self) -> SignatureScheme {
        SignatureScheme::Hmac
    }
}

/// Convenience wrapper bundling a public key with its owner name, used by
/// registries (directory, master slave-tables).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyedVerifier {
    /// Human-readable owner label (e.g. "slave-3").
    pub owner: String,
    /// The verification key.
    pub key: PublicKey,
}

impl KeyedVerifier {
    /// Creates a named verifier.
    pub fn new(owner: impl Into<String>, key: PublicKey) -> Self {
        KeyedVerifier {
            owner: owner.into(),
            key,
        }
    }

    /// Verifies a signature, labelling errors with the owner.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> Result<(), CryptoError> {
        self.key.verify(message, sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hmac_signer_roundtrip() {
        let mut s = HmacSigner::from_seed_label(1, b"test");
        let pk = s.public_key();
        let sig = s.sign(b"message").unwrap();
        pk.verify(b"message", &sig).unwrap();
        assert!(pk.verify(b"other", &sig).is_err());
    }

    #[test]
    fn mss_signer_roundtrip() {
        let mut s = MssSigner::generate([1; 32], 2).unwrap();
        let pk = s.public_key();
        let sig = s.sign(b"message").unwrap();
        pk.verify(b"message", &sig).unwrap();
        assert_eq!(s.remaining(), Some(3));
    }

    #[test]
    fn scheme_mismatch_detected() {
        let mut hmac = HmacSigner::from_seed_label(2, b"a");
        let mss = MssSigner::generate([2; 32], 1).unwrap();
        let sig = hmac.sign(b"m").unwrap();
        assert_eq!(
            mss.public_key().verify(b"m", &sig),
            Err(CryptoError::SchemeMismatch)
        );
    }

    #[test]
    fn mss_exhaustion_reported() {
        let mut s = MssSigner::generate([3; 32], 1).unwrap();
        s.sign(b"1").unwrap();
        s.sign(b"2").unwrap();
        assert_eq!(s.sign(b"3"), Err(CryptoError::KeyExhausted));
        assert_eq!(s.remaining(), Some(0));
    }

    #[test]
    fn fingerprints_differ_per_key() {
        let a = HmacSigner::from_seed_label(1, b"x").public_key();
        let b = HmacSigner::from_seed_label(2, b"x").public_key();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint().len(), 8);
    }

    #[test]
    fn wire_len_shapes() {
        let mut hmac = HmacSigner::from_seed_label(5, b"x");
        let mut mss = MssSigner::generate([5; 32], 3).unwrap();
        let hs = hmac.sign(b"m").unwrap();
        let ms = mss.sign(b"m").unwrap();
        // MSS signatures are much larger than HMAC tags.
        assert!(ms.wire_len() > 50 * hs.wire_len());
    }

    #[test]
    fn keyed_verifier_labels() {
        let mut s = HmacSigner::from_seed_label(9, b"kv");
        let v = KeyedVerifier::new("slave-1", s.public_key());
        let sig = s.sign(b"payload").unwrap();
        v.verify(b"payload", &sig).unwrap();
        assert_eq!(v.owner, "slave-1");
    }
}
