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
        Self::digest_parts(&[data])
    }

    /// One-shot hash over a sequence of byte slices (domain-separated
    /// concatenation is the caller's responsibility).
    fn digest_parts(parts: &[&[u8]]) -> Self::Output {
        stream_parts::<Self>(parts)
    }
}

/// Hashes the concatenation of `parts` through `new`/`update`/`finalize`.
pub(crate) fn stream_parts<D: Digest>(parts: &[&[u8]]) -> D::Output {
    let mut h = D::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// Longest tail [`pad_and_compress`] takes: with the 0x80 terminator and
/// the 8-byte bit length it fills exactly two blocks.
pub(crate) const SHORT_MAX: usize = 2 * 64 - 9;

/// Merkle–Damgård padding, the one routine every message ends with: the
/// `tail` bytes not yet compressed (at most [`SHORT_MAX`]) are copied into
/// a zeroed two-block stack buffer followed by 0x80, zeros and the
/// big-endian bit length of the whole `total_len`-byte message, and the
/// one or two blocks they fill go to a single `compress` call.
#[inline]
fn pad_and_compress(tail: &[&[u8]], total_len: u64, compress: impl FnOnce(&[[u8; 64]])) {
    let mut blocks = [[0u8; 64]; 2];
    let flat = blocks.as_flattened_mut();
    let mut len = 0;
    for p in tail {
        flat[len..len + p.len()].copy_from_slice(p);
        len += p.len();
    }
    flat[len] = 0x80;
    let n = if len < 56 { 1 } else { 2 };
    flat[64 * n - 8..64 * n].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    compress(&blocks[..n]);
}

/// Hashes a message of at most [`SHORT_MAX`] bytes, the concatenation of
/// `parts`, from `state` without the block buffer: the whole message is
/// the padded tail, so it costs one `compress` call — every leaf, node and
/// entry hash of the Merkle trees does.  Returns `None` for a longer
/// message, which streams.
#[inline]
pub(crate) fn short_message<const N: usize>(
    mut state: [u32; N],
    parts: &[&[u8]],
    compress: impl FnOnce(&mut [u32; N], &[[u8; 64]]),
) -> Option<[u32; N]> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    if len > SHORT_MAX {
        return None;
    }
    pad_and_compress(parts, len as u64, |blocks| compress(&mut state, blocks));
    Some(state)
}

/// A hash state's words as the big-endian output bytes.
pub(crate) fn be_bytes<const N: usize, const B: usize>(state: [u32; N]) -> [u8; B] {
    const { assert!(B == 4 * N, "four output bytes per state word") };
    let mut out = [0u8; B];
    for (o, word) in out.chunks_exact_mut(4).zip(state) {
        o.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The 64-byte block buffer SHA-1 and SHA-256 share; each hash supplies
/// only its compression function.
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

    /// Pads the buffered bytes and compresses the last one or two blocks.
    pub(crate) fn finalize(self, compress: impl FnOnce(&[[u8; 64]])) {
        pad_and_compress(&[&self.block[..self.len]], self.total_len, compress);
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

    /// Textbook Merkle–Damgård: the whole message padded in one vector,
    /// then compressed block by block with the portable function.
    fn padded_reference<const N: usize>(
        h0: [u32; N],
        compress: fn(&mut [u32; N], &[u8; 64]),
        msg: &[u8],
    ) -> Vec<u8> {
        let mut m = msg.to_vec();
        m.push(0x80);
        while m.len() % 64 != 56 {
            m.push(0);
        }
        m.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
        let mut state = h0;
        for block in m.as_chunks::<64>().0 {
            compress(&mut state, block);
        }
        state.iter().flat_map(|w| w.to_be_bytes()).collect()
    }

    /// Both ways to hash — the short-message path of `digest` and
    /// `digest_parts` (at most [`SHORT_MAX`] bytes) and `new`/`update`/
    /// `finalize` — against the reference for every length from 0 to 200
    /// bytes: one padded block (≤ 55), two (56–119) and past the short
    /// path, where the buffered tail pads into one or two blocks.  Each
    /// message is fed whole, split in two at every point, with empty
    /// parts, and one byte per part.
    fn padding_matches_textbook<D: Digest, const N: usize>(
        h0: [u32; N],
        compress: fn(&mut [u32; N], &[u8; 64]),
    ) {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 167 + 13) as u8).collect();
        for len in 0..=data.len() {
            let msg = &data[..len];
            let want = padded_reference(h0, compress, msg);
            assert_eq!(D::digest(msg).as_ref(), want, "digest of {len} bytes");
            let mut splits: Vec<Vec<&[u8]>> = vec![msg.chunks(1).collect()];
            for at in 0..=len {
                let (x, y) = msg.split_at(at);
                splits.extend([vec![x, y], vec![x, &[], y], vec![&[], x, y, &[]]]);
            }
            for parts in &splits {
                let lens = || parts.iter().map(|p| p.len()).collect::<Vec<_>>();
                let got = D::digest_parts(parts);
                assert_eq!(got.as_ref(), want, "digest_parts, {:?}", lens());
                let mut h = D::new();
                parts.iter().for_each(|p| h.update(p));
                assert_eq!(h.finalize().as_ref(), want, "update, {:?}", lens());
            }
        }
    }

    #[test]
    fn sha256_padding_matches_textbook() {
        use crate::sha256::{Sha256, H0};
        padding_matches_textbook::<Sha256, 8>(H0, Sha256::compress_scalar);
    }

    #[test]
    fn sha1_padding_matches_textbook() {
        use crate::sha1::{Sha1, H0};
        padding_matches_textbook::<Sha1, 5>(H0, Sha1::compress_scalar);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Hash160([0x01; 20]);
        let b = Hash160([0x02; 20]);
        assert!(a < b);
    }
}
