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

/// The 64-byte block buffer and Merkle–Damgård padding SHA-1 and SHA-256
/// share; each hash supplies only its compression function.
#[derive(Clone)]
pub(crate) struct BlockBuffer {
    block: [u8; 64],
    len: usize,
    total_len: u64,
}

impl BlockBuffer {
    pub(crate) const fn new() -> Self {
        BlockBuffer {
            block: [0u8; 64],
            len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`, handing every completed block to `compress`.  Whole
    /// blocks of `data` are compressed in place, without a copy.
    pub(crate) fn update(&mut self, mut data: &[u8], mut compress: impl FnMut(&[[u8; 64]])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.len > 0 {
            let take = (64 - self.len).min(data.len());
            self.block[self.len..self.len + take].copy_from_slice(&data[..take]);
            self.len += take;
            data = &data[take..];
            if self.len < 64 {
                return;
            }
            compress(std::slice::from_ref(&self.block));
            self.len = 0;
        }
        let (blocks, rest) = data.as_chunks::<64>();
        if !blocks.is_empty() {
            compress(blocks);
        }
        self.block[..rest.len()].copy_from_slice(rest);
        self.len = rest.len();
    }

    /// Pads in place — 0x80, zeros, the big-endian bit length — and
    /// compresses the last one or two blocks.
    pub(crate) fn finalize(mut self, mut compress: impl FnMut(&[[u8; 64]])) {
        let bit_len = self.total_len.wrapping_mul(8);
        self.block[self.len] = 0x80;
        self.block[self.len + 1..].fill(0);
        if self.len >= 56 {
            compress(std::slice::from_ref(&self.block));
            self.block = [0u8; 64];
        }
        self.block[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(std::slice::from_ref(&self.block));
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
