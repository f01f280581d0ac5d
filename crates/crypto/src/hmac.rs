//! HMAC (RFC 2104) over any [`Digest`] implementation.

use crate::digest::{Digest, Hash160, Hash256};
use crate::sha1::Sha1;
use crate::sha256::Sha256;

/// Generic incremental HMAC.
#[derive(Clone)]
pub struct Hmac<D: Digest> {
    inner: D,
    opad_key: [u8; 64],
}

/// Incremental HMAC-SHA-256 (the workhorse MAC in this workspace).
pub type HmacSha256 = Hmac<Sha256>;

impl<D: Digest> Hmac<D> {
    /// Creates an HMAC instance keyed with `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        // The pads live on the stack, sized for the 64-byte block both
        // digests of this crate have.
        const { assert!(D::BLOCK_LEN == 64, "HMAC pads are 64-byte arrays") };
        let mut key_block = [0u8; 64];
        if key.len() > D::BLOCK_LEN {
            let kh = D::digest(key);
            key_block[..D::OUTPUT_LEN].copy_from_slice(kh.as_ref());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut ipad = key_block;
        let mut opad = key_block;
        for b in ipad.iter_mut() {
            *b ^= 0x36;
        }
        for b in opad.iter_mut() {
            *b ^= 0x5c;
        }

        let mut inner = D::new();
        inner.update(&ipad);
        Hmac {
            inner,
            opad_key: opad,
        }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finalizes and returns the MAC value.
    pub fn finalize(self) -> D::Output {
        let inner_hash = self.inner.finalize();
        D::digest_parts(&[&self.opad_key, inner_hash.as_ref()])
    }

    /// One-shot MAC of `data` under `key`.
    pub fn mac(key: &[u8], data: &[u8]) -> D::Output {
        let mut h = Self::new(key);
        h.update(data);
        h.finalize()
    }
}

/// One-shot HMAC-SHA-1.
pub fn hmac_sha1(key: &[u8], data: &[u8]) -> Hash160 {
    Hmac::<Sha1>::mac(key, data)
}

/// One-shot HMAC-SHA-256.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> Hash256 {
    Hmac::<Sha256>::mac(key, data)
}

/// Constant-time byte-slice equality (length leaks, contents do not).
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            mac.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            mac.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3: 20x 0xaa key, 50x 0xdd data.
    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            mac.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6: key longer than block size.
    #[test]
    fn rfc4231_long_key() {
        let key = [0xaau8; 131];
        let mac = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            mac.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    // RFC 2202 test case 1 for HMAC-SHA-1.
    #[test]
    fn rfc2202_sha1_case1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha1(&key, b"Hi There");
        assert_eq!(mac.to_hex(), "b617318655057264e28bc0b6fb378c8ef146be00");
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"some key";
        let mut h = HmacSha256::new(key);
        h.update(b"part one | ");
        h.update(b"part two");
        assert_eq!(h.finalize(), hmac_sha256(key, b"part one | part two"));
    }

    #[test]
    fn different_keys_different_macs() {
        assert_ne!(hmac_sha256(b"k1", b"msg"), hmac_sha256(b"k2", b"msg"));
    }

    #[test]
    fn ct_eq_behaviour() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }
}
