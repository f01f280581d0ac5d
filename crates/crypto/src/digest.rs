//! Common digest trait and fixed-size hash value types.

use std::fmt;

/// An incremental cryptographic hash function.
///
/// Implemented by [`crate::Sha1`] and [`crate::Sha256`].  The associated
/// `Output` type is a fixed-size value type ([`Hash160`] or [`Hash256`]).
pub trait Digest: Clone {
    /// The hash value produced by this function.
    type Output: AsRef<[u8]> + Clone + Eq + fmt::Debug;

    /// Internal block length in bytes (needed by HMAC).
    const BLOCK_LEN: usize;
    /// Output length in bytes.
    const OUTPUT_LEN: usize;

    /// Creates a fresh hasher in its initial state.
    fn new() -> Self;

    /// Absorbs `data` into the hash state.
    fn update(&mut self, data: &[u8]);

    /// Consumes the hasher and returns the final hash value.
    fn finalize(self) -> Self::Output;

    /// Convenience one-shot hash of `data`.
    fn digest(data: &[u8]) -> Self::Output {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// One-shot hash over a sequence of byte slices (domain-separated
    /// concatenation is the caller's responsibility).
    fn digest_parts(parts: &[&[u8]]) -> Self::Output {
        let mut h = Self::new();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }
}

macro_rules! hash_value {
    ($(#[$doc:meta])* $name:ident, $len:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub [u8; $len]);

        impl $name {
            /// Length of the hash value in bytes.
            pub const LEN: usize = $len;

            /// The all-zero hash value (used as a placeholder/sentinel).
            pub const ZERO: $name = $name([0u8; $len]);

            /// Returns the raw bytes.
            pub fn as_bytes(&self) -> &[u8; $len] {
                &self.0
            }

            /// Builds a hash value from a slice.
            ///
            /// Returns `None` when `bytes` is not exactly [`Self::LEN`] long.
            pub fn from_slice(bytes: &[u8]) -> Option<Self> {
                if bytes.len() == $len {
                    let mut out = [0u8; $len];
                    out.copy_from_slice(bytes);
                    Some(Self(out))
                } else {
                    None
                }
            }

            /// Hex-encodes the hash value.
            pub fn to_hex(&self) -> String {
                crate::hex::encode(&self.0)
            }

            /// Parses a hex-encoded hash value.
            pub fn from_hex(s: &str) -> Option<Self> {
                crate::hex::decode(s).and_then(|v| Self::from_slice(&v))
            }

            /// Returns a short (8 hex char) prefix, handy for logs.
            pub fn short(&self) -> String {
                self.to_hex()[..8].to_string()
            }
        }

        impl AsRef<[u8]> for $name {
            fn as_ref(&self) -> &[u8] {
                &self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.short())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.to_hex())
            }
        }
    };
}

hash_value!(
    /// A 160-bit hash value (SHA-1 output).
    Hash160,
    20
);
hash_value!(
    /// A 256-bit hash value (SHA-256 output).
    Hash256,
    32
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash256_hex_roundtrip() {
        let h = Hash256([0xab; 32]);
        let hex = h.to_hex();
        assert_eq!(hex.len(), 64);
        assert_eq!(Hash256::from_hex(&hex), Some(h));
    }

    #[test]
    fn hash160_from_slice_rejects_bad_length() {
        assert!(Hash160::from_slice(&[0u8; 19]).is_none());
        assert!(Hash160::from_slice(&[0u8; 21]).is_none());
        assert!(Hash160::from_slice(&[0u8; 20]).is_some());
    }

    #[test]
    fn short_prefix_is_eight_chars() {
        assert_eq!(Hash256::ZERO.short(), "00000000");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Hash160([0x01; 20]);
        let b = Hash160([0x02; 20]);
        assert!(a < b);
    }
}
