//! SHA-1 (FIPS 180-1), the secure hash named by the paper for pledge packets.
//!
//! SHA-1 is cryptographically broken for collision resistance today; it is
//! implemented here because the paper (2003) specifies it for hashing query
//! results inside pledges.  The rest of the system uses SHA-256 by default,
//! and the pledge hash algorithm is configurable.

use crate::digest::{be_bytes, short_message, stream_parts, BlockBuffer, Digest, Hash160};

pub(crate) const H0: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

/// Incremental SHA-1 hasher.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buffer: BlockBuffer,
}

impl Sha1 {
    /// Compresses `blocks` into `state`: with the CPU's SHA extensions when
    /// it has them, otherwise with [`Sha1::compress_scalar`].
    pub(crate) fn compress(state: &mut [u32; 5], blocks: &[[u8; 64]]) {
        #[cfg(target_arch = "x86_64")]
        if crate::shani::available() {
            // SAFETY: `shani::available()` just confirmed that this CPU
            // executes the SHA, SSE2, SSSE3 and SSE4.1 instructions the
            // function is compiled for.
            #[allow(unsafe_code)]
            unsafe {
                crate::shani::sha1_compress(state, blocks)
            };
            return;
        }
        for block in blocks {
            Self::compress_scalar(state, block);
        }
    }

    /// The portable compression function: the only path on CPUs without
    /// SHA extensions, and the oracle the hardware path is tested against.
    pub(crate) fn compress_scalar(state: &mut [u32; 5], block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for t in 16..80 {
            w[t] = (w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = *state;
        for (t, &wt) in w.iter().enumerate() {
            let (f, k) = match t {
                0..=19 => ((b & c) | ((!b) & d), 0x5A82_7999),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let temp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wt);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = temp;
        }

        let add = [a, b, c, d, e];
        for (s, v) in state.iter_mut().zip(add) {
            *s = s.wrapping_add(v);
        }
    }
}

impl Digest for Sha1 {
    type Output = Hash160;
    const BLOCK_LEN: usize = 64;
    const OUTPUT_LEN: usize = 20;

    fn new() -> Self {
        Sha1 {
            state: H0,
            buffer: BlockBuffer::new(),
        }
    }

    fn update(&mut self, data: &[u8]) {
        self.buffer
            .update(data, |blocks| Self::compress(&mut self.state, blocks));
    }

    fn finalize(mut self) -> Hash160 {
        self.buffer
            .finalize(|blocks| Self::compress(&mut self.state, blocks));
        Hash160(be_bytes(self.state))
    }

    fn digest_parts(parts: &[&[u8]]) -> Hash160 {
        match short_message(H0, parts, Self::compress) {
            Some(state) => Hash160(be_bytes(state)),
            None => stream_parts::<Self>(parts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(data: &[u8]) -> String {
        Sha1::digest(data).to_hex()
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(hex(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(hex(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn fips_vector_two_block() {
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(hex(&data), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha1::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn exact_block_boundary() {
        // 64- and 128-byte messages exercise the padding-block overflow path.
        let d64 = [0x61u8; 64];
        let d128 = [0x61u8; 128];
        assert_eq!(
            Sha1::digest(&d64).to_hex(),
            "0098ba824b5c16427bd7a1122a5a442a25ec644d"
        );
        let mut h = Sha1::new();
        h.update(&d128[..100]);
        h.update(&d128[100..]);
        assert_eq!(h.finalize(), Sha1::digest(&d128));
    }

    #[test]
    fn fifty_five_and_fifty_six_byte_messages() {
        // 55 bytes: padding fits in one block; 56 bytes: needs an extra block.
        let m55 = [7u8; 55];
        let m56 = [7u8; 56];
        assert_ne!(Sha1::digest(&m55), Sha1::digest(&m56));
        // Cross-check against incremental single-byte feeding.
        let mut h = Sha1::new();
        for b in m56 {
            h.update(&[b]);
        }
        assert_eq!(h.finalize(), Sha1::digest(&m56));
    }
}
