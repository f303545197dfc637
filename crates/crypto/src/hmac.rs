//! HMAC-SHA256 (RFC 2104), with reusable keyed midstates.
//!
//! [`HmacKey`] absorbs the ipad/opad blocks once at construction, so every
//! subsequent MAC over a short message costs two compressions instead of
//! four.

use crate::sha256::{sha256, Sha256};
use yav_simd::sha256::{compress, H0};

const BLOCK: usize = 64;

/// A reusable HMAC-SHA256 key: the ipad/opad chaining values, precomputed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Derives the midstates from a key. Keys longer than the 64-byte
    /// block are hashed first; shorter keys are zero-padded, per the RFC.
    pub fn new(key: &[u8]) -> HmacKey {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0x36u8; BLOCK];
        let mut opad = [0x5cu8; BLOCK];
        for i in 0..BLOCK {
            ipad[i] ^= k[i];
            opad[i] ^= k[i];
        }

        let mut inner = H0;
        let mut outer = H0;
        compress(&mut inner, &ipad);
        compress(&mut outer, &opad);
        HmacKey { inner, outer }
    }

    /// MACs one message: two compressions on top of the stored midstates.
    pub fn mac(&self, message: &[u8]) -> [u8; 32] {
        let mut inner = Sha256::from_midstate(self.inner, BLOCK as u64);
        inner.update(message);
        let inner_digest = inner.finalize();

        let mut outer = Sha256::from_midstate(self.outer, BLOCK as u64);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// Computes `HMAC-SHA256(key, message)` in one shot.
///
/// Keys longer than the 64-byte block are hashed first; shorter keys are
/// zero-padded, per the RFC. Callers MACing repeatedly under one key
/// should hold an [`HmacKey`] instead and skip the key schedule.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(message)
}

/// Constant-time equality for MAC tags. Not strictly needed inside a
/// simulator, but integrity checks should never be written any other way.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::hex_encode;

    // RFC 4231 test vectors for HMAC-SHA256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex_encode(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex_encode(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            hex_encode(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex_encode(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn key_sensitivity() {
        assert_ne!(hmac_sha256(b"key1", b"msg"), hmac_sha256(b"key2", b"msg"));
        assert_ne!(hmac_sha256(b"key", b"msg1"), hmac_sha256(b"key", b"msg2"));
    }

    #[test]
    fn ct_eq_behaviour() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"sane"));
        assert!(!ct_eq(b"short", b"longer"));
        assert!(ct_eq(b"", b""));
    }

    /// Deterministic filler so the parity tests exercise varied bytes.
    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
            .collect()
    }

    #[test]
    fn hmac_key_reuse_matches_one_shot() {
        // Key lengths straddle the block size (zero-pad vs hash-first);
        // message lengths straddle the single-block padding boundary.
        for key_len in [0usize, 1, 20, 63, 64, 65, 131] {
            let key = pattern(key_len, 0xA5);
            let hk = HmacKey::new(&key);
            for msg_len in [0usize, 1, 16, 24, 55, 56, 57, 100, 200] {
                let msg = pattern(msg_len, 0x3C);
                assert_eq!(
                    hk.mac(&msg),
                    hmac_sha256(&key, &msg),
                    "key {key_len} msg {msg_len}"
                );
            }
        }
    }
}
