//! Merkle signature scheme (MSS): many-time signatures from WOTS leaves.
//!
//! A keypair of height `h` certifies `2^h` Winternitz one-time keys under a
//! single Merkle root.  Each signature reveals the leaf index, the WOTS
//! signature, and the authentication path; verifiers fold the recovered
//! one-time public key up the path and compare against the root.
//!
//! The signer is *stateful*: signing consumes leaves, and a fully consumed
//! key returns [`CryptoError::KeyExhausted`] — the system layer reacts by
//! rotating keys and re-certifying (see `sdr-core`).

use crate::digest::{Digest, Hash256};
use crate::error::CryptoError;
use crate::merkle::{MerkleProof, MerkleTree};
use crate::sha256::Sha256;
use crate::wots::{WotsKeypair, WotsSignature};

/// Hashes a WOTS compressed public key into an MSS tree leaf.
fn mss_leaf(wots_pk: &Hash256) -> Hash256 {
    Sha256::digest_parts(&[b"mss/leaf", wots_pk.as_ref()])
}

/// Public key of an MSS keypair: the tree root plus its height.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MssPublicKey {
    /// Merkle root certifying all one-time keys.
    pub root: Hash256,
    /// Tree height (`2^height` signatures available).
    pub height: u8,
}

/// An MSS signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MssSignature {
    /// Which one-time key produced this signature.
    pub leaf_index: u64,
    /// The underlying one-time signature.
    pub wots: WotsSignature,
    /// Authentication path from the leaf to the root.
    pub auth_path: MerkleProof,
}

/// A stateful MSS signing key.
#[derive(Clone)]
pub struct MssKeypair {
    seed: [u8; 32],
    height: u8,
    next_leaf: u64,
    tree: MerkleTree,
}

impl MssKeypair {
    /// Generates a keypair of `height` (`2^height` signatures) from a seed.
    ///
    /// Key generation cost is `O(2^height)` WOTS key generations; heights of
    /// 8–12 are practical for tests and simulations.
    pub fn generate(seed: [u8; 32], height: u8) -> Result<Self, CryptoError> {
        if height == 0 || height > 20 {
            return Err(CryptoError::Malformed("MSS height must be in 1..=20"));
        }
        let leaf_count = 1u64 << height;
        let leaves: Vec<Hash256> = (0..leaf_count)
            .map(|i| mss_leaf(&WotsKeypair::for_leaf(&seed, i).public_key()))
            .collect();
        let tree = MerkleTree::from_leaves(leaves)?;
        Ok(MssKeypair {
            seed,
            height,
            next_leaf: 0,
            tree,
        })
    }

    /// The public key.
    pub fn public_key(&self) -> MssPublicKey {
        MssPublicKey {
            root: self.tree.root(),
            height: self.height,
        }
    }

    /// Number of signatures still available.
    pub fn remaining(&self) -> u64 {
        (1u64 << self.height) - self.next_leaf
    }

    /// Total capacity (`2^height`).
    pub fn capacity(&self) -> u64 {
        1u64 << self.height
    }

    /// Signs `message`, consuming one leaf.
    pub fn sign(&mut self, message: &[u8]) -> Result<MssSignature, CryptoError> {
        if self.next_leaf >= self.capacity() {
            return Err(CryptoError::KeyExhausted);
        }
        let index = self.next_leaf;
        self.next_leaf += 1;

        let wots_kp = WotsKeypair::for_leaf(&self.seed, index);
        let wots = wots_kp.sign_unchecked(message);
        let auth_path = self.tree.prove(index as usize)?;
        Ok(MssSignature {
            leaf_index: index,
            wots,
            auth_path,
        })
    }

    /// Verifies `sig` over `message` against `public`.
    pub fn verify(
        public: &MssPublicKey,
        message: &[u8],
        sig: &MssSignature,
    ) -> Result<(), CryptoError> {
        if sig.leaf_index != sig.auth_path.leaf_index {
            return Err(CryptoError::Malformed("leaf index mismatch"));
        }
        if sig.leaf_index >= (1u64 << public.height) {
            return Err(CryptoError::Malformed("leaf index beyond key capacity"));
        }
        let wots_pk = WotsKeypair::recover_public(message, &sig.wots)?;
        let leaf = mss_leaf(&wots_pk);
        MerkleTree::verify(&public.root, &leaf, &sig.auth_path)
            .map_err(|_| CryptoError::InvalidSignature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keypair(height: u8) -> MssKeypair {
        MssKeypair::generate([0x42; 32], height).unwrap()
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut kp = keypair(3);
        let pk = kp.public_key();
        for i in 0..8 {
            let msg = format!("message {i}");
            let sig = kp.sign(msg.as_bytes()).unwrap();
            MssKeypair::verify(&pk, msg.as_bytes(), &sig).unwrap();
            assert_eq!(sig.leaf_index, i);
        }
    }

    #[test]
    fn exhaustion() {
        let mut kp = keypair(2);
        for _ in 0..4 {
            kp.sign(b"m").unwrap();
        }
        assert_eq!(kp.remaining(), 0);
        assert_eq!(kp.sign(b"m"), Err(CryptoError::KeyExhausted));
    }

    #[test]
    fn wrong_message_rejected() {
        let mut kp = keypair(2);
        let pk = kp.public_key();
        let sig = kp.sign(b"genuine").unwrap();
        assert!(MssKeypair::verify(&pk, b"forged", &sig).is_err());
    }

    #[test]
    fn cross_key_rejected() {
        let mut a = keypair(2);
        let b = MssKeypair::generate([0x43; 32], 2).unwrap();
        let sig = a.sign(b"msg").unwrap();
        assert!(MssKeypair::verify(&b.public_key(), b"msg", &sig).is_err());
    }

    #[test]
    fn replayed_leaf_index_mismatch_rejected() {
        let mut kp = keypair(3);
        let pk = kp.public_key();
        let mut sig = kp.sign(b"msg").unwrap();
        sig.leaf_index = 1; // Claim a different leaf than the path proves.
        assert!(MssKeypair::verify(&pk, b"msg", &sig).is_err());
    }

    #[test]
    fn out_of_capacity_index_rejected() {
        let mut kp = keypair(2);
        let pk = kp.public_key();
        let mut sig = kp.sign(b"msg").unwrap();
        sig.leaf_index = 100;
        sig.auth_path.leaf_index = 100;
        assert!(MssKeypair::verify(&pk, b"msg", &sig).is_err());
    }

    #[test]
    fn deterministic_public_key() {
        let a = MssKeypair::generate([7; 32], 3).unwrap();
        let b = MssKeypair::generate([7; 32], 3).unwrap();
        assert_eq!(a.public_key(), b.public_key());
    }

    #[test]
    fn invalid_heights_rejected() {
        assert!(MssKeypair::generate([0; 32], 0).is_err());
        assert!(MssKeypair::generate([0; 32], 21).is_err());
    }

    #[test]
    fn remaining_counts_down() {
        let mut kp = keypair(3);
        assert_eq!(kp.capacity(), 8);
        assert_eq!(kp.remaining(), 8);
        kp.sign(b"x").unwrap();
        assert_eq!(kp.remaining(), 7);
    }
}
