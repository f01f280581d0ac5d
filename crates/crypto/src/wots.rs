//! Winternitz one-time signatures (WOTS) over SHA-256.
//!
//! The one-time primitive underneath the Merkle signature scheme
//! ([`crate::mss`]).  Parameters follow the classic construction with
//! Winternitz parameter `w = 16` (4-bit digits): 64 message digits plus a
//! 3-digit checksum gives 67 hash chains of length 15.
//!
//! Security rests only on the hash function, which keeps this crate free of
//! bignum arithmetic while preserving the sign ≫ verify ≫ hash cost shape
//! the paper's auditor-throughput argument relies on.

use crate::digest::{Digest, Hash256};
use crate::drbg::HmacDrbg;
use crate::error::CryptoError;
use crate::hmac::HmacSha256;
use crate::sha256::Sha256;

/// WOTS parameter set (fixed w=16 over SHA-256).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WotsParams;

impl WotsParams {
    /// Winternitz parameter (digit base).
    pub const W: u32 = 16;
    /// Chain length (`W - 1` applications of the chain function).
    pub const CHAIN_LEN: u32 = 15;
    /// Number of 4-bit message digits (256 / 4).
    pub const LEN1: usize = 64;
    /// Number of checksum digits (max checksum 64*15 = 960 < 16^3).
    pub const LEN2: usize = 3;
    /// Total number of chains.
    pub const LEN: usize = Self::LEN1 + Self::LEN2;
}

/// Chain function: one step of the Winternitz hash chain.
fn chain_step(x: &Hash256) -> Hash256 {
    Sha256::digest_parts(&[b"wots/chain", x.as_ref()])
}

/// Applies the chain function `steps` times.
fn chain(x: &Hash256, steps: u32) -> Hash256 {
    let mut acc = *x;
    for _ in 0..steps {
        acc = chain_step(&acc);
    }
    acc
}

/// Splits a message hash into `LEN1` base-16 digits plus checksum digits.
fn digits(msg_hash: &Hash256) -> [u8; WotsParams::LEN] {
    let mut out = [0u8; WotsParams::LEN];
    for (i, byte) in msg_hash.0.iter().enumerate() {
        out[i * 2] = byte >> 4;
        out[i * 2 + 1] = byte & 0x0f;
    }
    let checksum: u32 = out[..WotsParams::LEN1]
        .iter()
        .map(|&d| WotsParams::CHAIN_LEN - u32::from(d))
        .sum();
    out[WotsParams::LEN1] = ((checksum >> 8) & 0x0f) as u8;
    out[WotsParams::LEN1 + 1] = ((checksum >> 4) & 0x0f) as u8;
    out[WotsParams::LEN1 + 2] = (checksum & 0x0f) as u8;
    out
}

/// A WOTS keypair (secret chains plus compressed public key).
#[derive(Clone)]
pub struct WotsKeypair {
    secrets: Vec<Hash256>,
    public: Hash256,
    used: bool,
}

/// A WOTS signature: one intermediate chain value per digit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WotsSignature {
    /// Chain values; `values[i] = F^{d_i}(sk_i)`.
    pub values: Vec<Hash256>,
}

impl WotsKeypair {
    /// Derives a keypair deterministically from 32 bytes of seed material.
    pub fn from_seed(seed: &[u8; 32]) -> Self {
        let mut drbg = HmacDrbg::new(seed);
        let secrets: Vec<Hash256> = (0..WotsParams::LEN)
            .map(|_| Hash256(drbg.gen_array()))
            .collect();
        let public = Self::compress(secrets.iter().map(|s| chain(s, WotsParams::CHAIN_LEN)));
        WotsKeypair {
            secrets,
            public,
            used: false,
        }
    }

    /// Derives the keypair for MSS leaf `index` under a master seed.
    pub fn for_leaf(master_seed: &[u8; 32], index: u64) -> Self {
        let mut material = [0u8; 32];
        let mac = {
            let mut h = HmacSha256::new(master_seed);
            h.update(b"wots/leaf");
            h.update(&index.to_be_bytes());
            h.finalize()
        };
        material.copy_from_slice(&mac.0);
        Self::from_seed(&material)
    }

    fn compress<I: Iterator<Item = Hash256>>(chain_ends: I) -> Hash256 {
        let mut h = Sha256::new();
        h.update(b"wots/pk");
        for end in chain_ends {
            h.update(end.as_ref());
        }
        h.finalize()
    }

    /// The compressed public key (hash of all chain ends).
    pub fn public_key(&self) -> Hash256 {
        self.public
    }

    /// Signs `message`; fails on second use (one-time property).
    pub fn sign(&mut self, message: &[u8]) -> Result<WotsSignature, CryptoError> {
        if self.used {
            return Err(CryptoError::KeyExhausted);
        }
        self.used = true;
        Ok(self.sign_unchecked(message))
    }

    /// Signs without consuming the key.
    ///
    /// Only for use by [`crate::mss`], which guarantees each leaf key signs
    /// exactly once via its leaf counter.
    pub fn sign_unchecked(&self, message: &[u8]) -> WotsSignature {
        let msg_hash = Sha256::digest_parts(&[b"wots/msg", message]);
        let ds = digits(&msg_hash);
        let values = self
            .secrets
            .iter()
            .zip(ds.iter())
            .map(|(sk, &d)| chain(sk, u32::from(d)))
            .collect();
        WotsSignature { values }
    }

    /// Recovers the compressed public key implied by a signature on
    /// `message` (verification = comparing this against the known key).
    pub fn recover_public(message: &[u8], sig: &WotsSignature) -> Result<Hash256, CryptoError> {
        if sig.values.len() != WotsParams::LEN {
            return Err(CryptoError::InvalidLength(WotsParams::LEN, sig.values.len()));
        }
        let msg_hash = Sha256::digest_parts(&[b"wots/msg", message]);
        let ds = digits(&msg_hash);
        let ends = sig
            .values
            .iter()
            .zip(ds.iter())
            .map(|(v, &d)| chain(v, WotsParams::CHAIN_LEN - u32::from(d)));
        Ok(Self::compress(ends))
    }

    /// Verifies a signature against a known compressed public key.
    pub fn verify(
        public: &Hash256,
        message: &[u8],
        sig: &WotsSignature,
    ) -> Result<(), CryptoError> {
        if Self::recover_public(message, sig)? == *public {
            Ok(())
        } else {
            Err(CryptoError::InvalidSignature)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keypair(tag: u8) -> WotsKeypair {
        WotsKeypair::from_seed(&[tag; 32])
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut kp = keypair(1);
        let pk = kp.public_key();
        let sig = kp.sign(b"hello world").unwrap();
        WotsKeypair::verify(&pk, b"hello world", &sig).unwrap();
    }

    #[test]
    fn wrong_message_rejected() {
        let mut kp = keypair(2);
        let pk = kp.public_key();
        let sig = kp.sign(b"msg A").unwrap();
        assert_eq!(
            WotsKeypair::verify(&pk, b"msg B", &sig),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let mut kp = keypair(3);
        let other = keypair(4);
        let sig = kp.sign(b"msg").unwrap();
        assert!(WotsKeypair::verify(&other.public_key(), b"msg", &sig).is_err());
    }

    #[test]
    fn second_sign_fails() {
        let mut kp = keypair(5);
        kp.sign(b"first").unwrap();
        assert_eq!(kp.sign(b"second"), Err(CryptoError::KeyExhausted));
    }

    #[test]
    fn tampered_signature_rejected() {
        let mut kp = keypair(6);
        let pk = kp.public_key();
        let mut sig = kp.sign(b"msg").unwrap();
        sig.values[10] = Hash256([0xee; 32]);
        assert!(WotsKeypair::verify(&pk, b"msg", &sig).is_err());
    }

    #[test]
    fn truncated_signature_rejected() {
        let mut kp = keypair(7);
        let pk = kp.public_key();
        let mut sig = kp.sign(b"msg").unwrap();
        sig.values.pop();
        assert!(matches!(
            WotsKeypair::verify(&pk, b"msg", &sig),
            Err(CryptoError::InvalidLength(_, _))
        ));
    }

    #[test]
    fn deterministic_from_seed() {
        let a = keypair(8);
        let b = keypair(8);
        assert_eq!(a.public_key(), b.public_key());
    }

    #[test]
    fn leaf_derivation_distinct() {
        let seed = [9u8; 32];
        let k0 = WotsKeypair::for_leaf(&seed, 0);
        let k1 = WotsKeypair::for_leaf(&seed, 1);
        assert_ne!(k0.public_key(), k1.public_key());
    }

    #[test]
    fn digit_checksum_within_range() {
        let h = Sha256::digest(b"check digits");
        let ds = digits(&h);
        assert!(ds.iter().all(|&d| d < 16));
        let checksum: u32 = ds[..WotsParams::LEN1]
            .iter()
            .map(|&d| WotsParams::CHAIN_LEN - u32::from(d))
            .sum();
        let encoded = (u32::from(ds[64]) << 8) | (u32::from(ds[65]) << 4) | u32::from(ds[66]);
        assert_eq!(checksum, encoded);
    }
}
