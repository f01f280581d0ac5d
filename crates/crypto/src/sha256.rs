//! SHA-256 (FIPS 180-2), the default hash for signatures and state digests.

use crate::digest::{be_bytes, short_message, stream_parts, BlockBuffer, Digest, Hash256};

pub(crate) const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

#[rustfmt::skip]
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: BlockBuffer,
}

impl Sha256 {
    /// Compresses `blocks` into `state`: with the CPU's SHA extensions when
    /// it has them, otherwise with [`Sha256::compress_scalar`].
    pub(crate) fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        #[cfg(target_arch = "x86_64")]
        if crate::shani::available() {
            // SAFETY: `shani::available()` just confirmed that this CPU
            // executes the SHA, SSE2, SSSE3 and SSE4.1 instructions the
            // function is compiled for.
            #[allow(unsafe_code)]
            unsafe {
                crate::shani::sha256_compress(state, blocks)
            };
            return;
        }
        for block in blocks {
            Self::compress_scalar(state, block);
        }
    }

    /// The portable compression function: the only path on CPUs without
    /// SHA extensions, and the oracle the hardware path is tested against.
    pub(crate) fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for t in 0..64 {
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = big_s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        let add = [a, b, c, d, e, f, g, h];
        for (s, v) in state.iter_mut().zip(add) {
            *s = s.wrapping_add(v);
        }
    }
}

impl Digest for Sha256 {
    type Output = Hash256;
    const BLOCK_LEN: usize = 64;
    const OUTPUT_LEN: usize = 32;

    fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: BlockBuffer::new(),
        }
    }

    fn update(&mut self, data: &[u8]) {
        self.buffer
            .update(data, |blocks| Self::compress(&mut self.state, blocks));
    }

    fn finalize(mut self) -> Hash256 {
        self.buffer
            .finalize(|blocks| Self::compress(&mut self.state, blocks));
        Hash256(be_bytes(self.state))
    }

    fn digest_parts(parts: &[&[u8]]) -> Hash256 {
        match short_message(H0, parts, Self::compress) {
            Some(state) => Hash256(be_bytes(state)),
            None => stream_parts::<Self>(parts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(data: &[u8]) -> String {
        Sha256::digest(data).to_hex()
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_two_block() {
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..2048u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 63, 64, 65, 127, 128, 1000, 2048] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn digest_parts_equals_concatenation() {
        let out = Sha256::digest_parts(&[b"hello ", b"world"]);
        assert_eq!(out, Sha256::digest(b"hello world"));
    }

    #[test]
    fn padding_boundaries() {
        // Exercise every interesting length around the 56-byte padding cut.
        for len in 50..70usize {
            let data = vec![0x5au8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), Sha256::digest(&data), "len {len}");
        }
    }
}
