//! From-scratch cryptographic substrate for the Secure Data Replication system.
//!
//! The paper ("Secure Data Replication over Untrusted Hosts", HotOS 2003)
//! relies on three cryptographic building blocks:
//!
//! * **SHA-1** (FIPS 180-1) — the secure hash used inside pledge packets
//!   (`sha1`); we additionally provide SHA-256 (`sha256`) as the modern
//!   default used by the signature scheme.
//! * **Digital signatures** — slaves sign pledge packets, masters sign
//!   keep-alives and state updates, and the content owner signs master
//!   certificates.  Instead of 2003-era RSA/DSA (which would need a bignum
//!   stack) we implement *hash-based* signatures: Winternitz one-time
//!   signatures (`wots`) certified by a Merkle tree (`mss`).  These preserve
//!   the cost asymmetry the paper's auditor argument depends on: signing is
//!   far more expensive than verification, which is more expensive than
//!   hashing.
//! * **Certificates** (`cert`) binding a server's contact address to its
//!   public key, signed with the content key, exactly as in the paper's
//!   system model (Section 2).
//!
//! Supporting pieces: HMAC (`hmac`), a deterministic HMAC-DRBG (`drbg`) so
//! key generation is reproducible from a seed, Merkle hash trees (`merkle`,
//! also used by the state-signing baseline), and a pluggable signer facade
//! (`sign`) that lets large-scale simulations swap the real Merkle signature
//! scheme for a cheap HMAC-based stand-in without changing protocol code.
//!
//! No external cryptography dependencies are used.  `unsafe` appears in
//! exactly two places: the calls in `Sha256::compress` and `Sha1::compress`
//! into the x86_64 SHA-extension functions of the private `shani` module,
//! each taken only after run-time CPU detection confirmed the instructions
//! exist.  Hashing is what every read, signature and proof in this system
//! pays for, so it runs at hardware speed where the CPU allows; the scalar
//! code stays the path on every other CPU and the tests' oracle.  Every
//! other crate in the workspace is `forbid(unsafe_code)`, and a root test
//! fails if `unsafe` appears anywhere else.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod cert;
pub mod digest;
pub mod drbg;
pub mod error;
pub mod hex;
pub mod hmac;
pub mod merkle;
pub mod mss;
pub mod sha1;
pub mod sha256;
#[cfg(target_arch = "x86_64")]
mod shani;
pub mod sign;
pub mod wots;

pub use cert::{content_id_for_key, CertRole, Certificate, CertificateBody};
pub use digest::{Digest, Hash160, Hash256};
pub use drbg::HmacDrbg;
pub use error::CryptoError;
pub use hmac::{hmac_sha1, hmac_sha256, Hmac, HmacSha256};
pub use merkle::{chunk_hash, MerkleProof, MerkleRangeProof, MerkleTree};
pub use mss::{MssKeypair, MssPublicKey, MssSignature};
pub use sha1::Sha1;
pub use sha256::Sha256;
pub use sign::{
    HmacSigner, KeyedVerifier, MssSigner, PublicKey, Signature, SignatureScheme, Signer,
};
pub use wots::{WotsKeypair, WotsParams, WotsSignature};
