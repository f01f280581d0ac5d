//! SHA-256 and SHA-1 compression on the x86_64 SHA extensions.
//!
//! This is why `sdr-crypto` is the one crate that is not `forbid(unsafe_code)`.
//! The functions here are safe `#[target_feature]` functions: every
//! intrinsic they use is safe inside a function compiled for its feature,
//! and blocks enter registers through byte-array conversions, not pointers.
//! Calling one from code compiled for baseline x86_64 needs `unsafe`,
//! though, because the CPU must really have the features. `Sha256::compress`
//! and `Sha1::compress` are the only callers; each checks [`available`]
//! first and otherwise runs its scalar loop, which stays the path on every
//! other CPU and is the oracle this module's tests compare against.
//!
//! Outputs are bit-identical to the scalar code's; only host time changes.

use std::arch::x86_64::*;
use std::sync::LazyLock;

use crate::sha256::K;

/// Whether this CPU executes every instruction the functions below use.
///
/// The CPU is probed once; every later call is one load of the cached
/// answer, since `compress` asks on every call.
pub(crate) fn available() -> bool {
    static AVAILABLE: LazyLock<bool> = LazyLock::new(|| {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    });
    *AVAILABLE
}

/// Bytes `16 * i .. 16 * i + 16` of `block` as one vector, in memory order.
#[inline]
#[target_feature(enable = "sse2")]
fn load(block: &[u8; 64], i: usize) -> __m128i {
    let bytes: [u8; 16] = block[16 * i..16 * i + 16]
        .try_into()
        .expect("a 16-byte quarter of a 64-byte block");
    let x = u128::from_le_bytes(bytes);
    _mm_set_epi64x((x >> 64) as i64, x as i64)
}

/// Runs the SHA-256 compression function over `blocks`, in order.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
pub(crate) fn sha256_compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    // Byte-swaps each 32-bit lane: the message words are big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let [a, b, c, d, e, f, g, h] = state.map(|x| x as i32);
    // `sha256rnds2` keeps the state as two vectors, (A, B, E, F) and
    // (C, D, G, H), highest lane first.
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);

    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let mut w0 = _mm_shuffle_epi8(load(block, 0), bswap);
        let mut w1 = _mm_shuffle_epi8(load(block, 1), bswap);
        let mut w2 = _mm_shuffle_epi8(load(block, 2), bswap);
        let mut w3 = _mm_shuffle_epi8(load(block, 3), bswap);
        for i in 0..16 {
            let k = _mm_set_epi32(
                K[4 * i + 3] as i32,
                K[4 * i + 2] as i32,
                K[4 * i + 1] as i32,
                K[4 * i] as i32,
            );
            let wk = _mm_add_epi32(w0, k);
            // Two rounds per instruction; each swaps which vector holds ABEF.
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            // W[4i+16 .. 4i+20] from the sixteen words before them.
            let w4 = _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4)),
                w3,
            );
            (w0, w1, w2, w3) = (w1, w2, w3, w4);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    *state = [
        _mm_extract_epi32(abef, 3),
        _mm_extract_epi32(abef, 2),
        _mm_extract_epi32(cdgh, 3),
        _mm_extract_epi32(cdgh, 2),
        _mm_extract_epi32(abef, 1),
        _mm_extract_epi32(abef, 0),
        _mm_extract_epi32(cdgh, 1),
        _mm_extract_epi32(cdgh, 0),
    ]
    .map(|x| x as u32);
}

/// Runs the SHA-1 compression function over `blocks`, in order.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
pub(crate) fn sha1_compress(state: &mut [u32; 5], blocks: &[[u8; 64]]) {
    // Reverses all 16 bytes: big-endian words, first word in the top lane.
    let reverse = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    let [a, b, c, d, e] = state.map(|x| x as i32);
    let mut abcd = _mm_set_epi32(a, b, c, d);
    let mut e_lane = _mm_set_epi32(e, 0, 0, 0);

    for block in blocks {
        let (abcd_in, e_in) = (abcd, e_lane);
        let mut w0 = _mm_shuffle_epi8(load(block, 0), reverse);
        let mut w1 = _mm_shuffle_epi8(load(block, 1), reverse);
        let mut w2 = _mm_shuffle_epi8(load(block, 2), reverse);
        let mut w3 = _mm_shuffle_epi8(load(block, 3), reverse);
        // E for the first four rounds comes from the state; for every later
        // four, `sha1nexte` derives it from A as it was four rounds earlier.
        let mut e_plus_w = _mm_add_epi32(e_in, w0);
        let mut abcd_prev = abcd;
        // Twenty rounds, four at a time, with round function `$f`.
        macro_rules! twenty_rounds {
            ($f:literal) => {
                for _ in 0..5 {
                    abcd_prev = abcd;
                    abcd = _mm_sha1rnds4_epu32(abcd, e_plus_w, $f);
                    // The next four message words from the sixteen before them.
                    let w4 = _mm_sha1msg2_epu32(_mm_xor_si128(_mm_sha1msg1_epu32(w0, w1), w2), w3);
                    (w0, w1, w2, w3) = (w1, w2, w3, w4);
                    e_plus_w = _mm_sha1nexte_epu32(abcd_prev, w0);
                }
            };
        }
        twenty_rounds!(0);
        twenty_rounds!(1);
        twenty_rounds!(2);
        twenty_rounds!(3);
        abcd = _mm_add_epi32(abcd, abcd_in);
        e_lane = _mm_sha1nexte_epu32(abcd_prev, e_in);
    }

    *state = [
        _mm_extract_epi32(abcd, 3),
        _mm_extract_epi32(abcd, 2),
        _mm_extract_epi32(abcd, 1),
        _mm_extract_epi32(abcd, 0),
        _mm_extract_epi32(e_lane, 3),
    ]
    .map(|x| x as u32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::BlockBuffer;
    use crate::drbg::HmacDrbg;
    use crate::hex;
    use crate::sha1::{self, Sha1};
    use crate::sha256::{self, Sha256};

    /// Random (state, blocks) inputs: 1000 draws of one to three blocks.
    fn draws<const N: usize>(label: &[u8]) -> Vec<([u32; N], Vec<[u8; 64]>)> {
        let mut drbg = HmacDrbg::new(label);
        (0..1000)
            .map(|i| {
                let state = [(); N].map(|()| u32::from_be_bytes(drbg.gen_array()));
                let blocks = (0..=i % 3).map(|_| drbg.gen_array()).collect();
                (state, blocks)
            })
            .collect()
    }

    /// The tests below reach the hardware path through `compress`, the
    /// dispatcher, which takes it whenever [`available`] holds.
    fn skip_without_extensions() -> bool {
        if !available() {
            eprintln!("note: this CPU lacks the SHA extensions; only the scalar path is tested");
        }
        !available()
    }

    #[test]
    fn sha256_hardware_matches_scalar() {
        if skip_without_extensions() {
            return;
        }
        for (state, blocks) in draws::<8>(b"shani/sha256") {
            let mut scalar = state;
            for block in &blocks {
                Sha256::compress_scalar(&mut scalar, block);
            }
            let mut hardware = state;
            Sha256::compress(&mut hardware, &blocks);
            assert_eq!(hardware, scalar, "state {state:x?}");
        }
    }

    #[test]
    fn sha1_hardware_matches_scalar() {
        if skip_without_extensions() {
            return;
        }
        for (state, blocks) in draws::<5>(b"shani/sha1") {
            let mut scalar = state;
            for block in &blocks {
                Sha1::compress_scalar(&mut scalar, block);
            }
            let mut hardware = state;
            Sha1::compress(&mut hardware, &blocks);
            assert_eq!(hardware, scalar, "state {state:x?}");
        }
    }

    /// Hashes `data` with the shared block buffer and only `compress`.
    fn scalar_hex<const N: usize>(
        h0: [u32; N],
        compress: fn(&mut [u32; N], &[u8; 64]),
        data: &[u8],
    ) -> String {
        let mut state = h0;
        let mut buffer = BlockBuffer::new();
        let mut run = |blocks: &[[u8; 64]]| blocks.iter().for_each(|b| compress(&mut state, b));
        buffer.update(data, &mut run);
        buffer.finalize(&mut run);
        let bytes: Vec<u8> = state.iter().flat_map(|w| w.to_be_bytes()).collect();
        hex::encode(&bytes)
    }

    #[test]
    fn scalar_oracle_passes_fips_vectors() {
        let two_block = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".as_slice();
        let million_a = vec![b'a'; 1_000_000];
        let cases: [(&[u8], &str, &str); 4] = [
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
                "a9993e364706816aba3e25717850c26c9cd0d89d",
            ),
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                "da39a3ee5e6b4b0d3255bfef95601890afd80709",
            ),
            (
                two_block,
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "34aa973cd4c4daa4f61eeb2bdbad27316534016f",
            ),
        ];
        for (data, sha256_hex, sha1_hex) in cases {
            let len = data.len();
            let got = scalar_hex(sha256::H0, Sha256::compress_scalar, data);
            assert_eq!(got, sha256_hex, "sha256 of {len} bytes");
            let got = scalar_hex(sha1::H0, Sha1::compress_scalar, data);
            assert_eq!(got, sha1_hex, "sha1 of {len} bytes");
        }
    }
}
