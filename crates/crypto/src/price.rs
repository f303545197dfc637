//! The 28-byte encrypted winning-price scheme.
//!
//! Modelled on the DoubleClick construction the paper cites (§2.3): a
//! 28-byte token laid out as
//!
//! ```text
//! +----------------+----------------------+-------------+
//! |  IV (16 bytes) | price ⊕ pad (8 bytes)| sig (4 bytes)|
//! +----------------+----------------------+-------------+
//! ```
//!
//! * `pad = HMAC(encryption_key, iv)[..8]`
//! * `sig = HMAC(integrity_key, price_bytes ‖ iv)[..4]`
//! * the price plaintext is the charge price in **micro-CPM**, big-endian.
//!
//! The IV carries a timestamp + entropy in the real protocol; here the
//! simulator builds it from the impression id so each impression gets a
//! unique pad. Without both keys the token is indistinguishable from
//! random bytes — exactly the property that forces the paper's estimation
//! approach. Tokens are shipped in nURLs as unpadded URL-safe base64
//! (38 characters).

use crate::codec::{base64url_decode_into, base64url_encode, hex_decode_into, CodecError, B64_INV};
use crate::hmac::{ct_eq, hmac_sha256, HmacKey};
use std::fmt;

/// Byte length of the full token.
pub const TOKEN_LEN: usize = 28;

/// Length of the unpadded base64url wire form of a token:
/// `ceil(28 / 3) * 4 - 2` characters.
const WIRE_B64_LEN: usize = 38;

/// Branchless fixed-width base64url decode of the 38-character wire
/// form. Invalid values from [`B64_INV`] carry the high bit, so one OR
/// accumulator replaces per-character error branches; `None` means some
/// byte was outside the alphabet (the caller re-runs the general
/// decoder for the exact error).
fn decode_b64_38(b: &[u8]) -> Option<[u8; TOKEN_LEN]> {
    debug_assert_eq!(b.len(), WIRE_B64_LEN);
    let mut out = [0u8; TOKEN_LEN];
    let mut bad = 0u8;
    for g in 0..9 {
        let (v0, v1, v2, v3) = (
            B64_INV[b[g * 4] as usize],
            B64_INV[b[g * 4 + 1] as usize],
            B64_INV[b[g * 4 + 2] as usize],
            B64_INV[b[g * 4 + 3] as usize],
        );
        bad |= v0 | v1 | v2 | v3;
        let w = ((v0 as u32) << 18) | ((v1 as u32) << 12) | ((v2 as u32) << 6) | v3 as u32;
        out[g * 3] = (w >> 16) as u8;
        out[g * 3 + 1] = (w >> 8) as u8;
        out[g * 3 + 2] = w as u8;
    }
    // Two-character tail: one final byte, low bits discarded exactly as
    // the general decoder discards them.
    let (v0, v1) = (B64_INV[b[36] as usize], B64_INV[b[37] as usize]);
    bad |= v0 | v1;
    out[27] = (v0 << 2) | (v1 >> 4);
    if bad & 0x80 != 0 {
        None
    } else {
        Some(out)
    }
}
/// Byte length of the initialisation vector.
pub const IV_LEN: usize = 16;
/// Byte length of the encrypted price field.
pub const PRICE_LEN: usize = 8;
/// Byte length of the integrity tag.
pub const SIG_LEN: usize = 4;

/// The pair of secrets an exchange shares with each buyer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PriceKeys {
    /// Key deriving the XOR pad.
    pub encryption_key: [u8; 32],
    /// Key deriving the integrity tag.
    pub integrity_key: [u8; 32],
}

impl PriceKeys {
    /// Derives a deterministic key pair from a seed label — the simulator
    /// gives each (exchange, buyer) integration its own label.
    pub fn derive(label: &str) -> PriceKeys {
        PriceKeys {
            encryption_key: hmac_sha256(b"yav/price/enc", label.as_bytes()),
            integrity_key: hmac_sha256(b"yav/price/int", label.as_bytes()),
        }
    }
}

/// Errors surfaced when handling encrypted-price tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PriceTokenError {
    /// The token did not base64url-decode.
    Encoding,
    /// Decoded length was not [`TOKEN_LEN`].
    Length(usize),
    /// The integrity tag did not verify — wrong keys or tampering.
    Integrity,
}

impl fmt::Display for PriceTokenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PriceTokenError::Encoding => write!(f, "token is not valid base64url"),
            PriceTokenError::Length(n) => write!(f, "token decodes to {n} bytes, expected 28"),
            PriceTokenError::Integrity => write!(f, "integrity check failed"),
        }
    }
}

impl std::error::Error for PriceTokenError {}

/// A decoded (but not necessarily decryptable) 28-byte token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncryptedPrice {
    bytes: [u8; TOKEN_LEN],
}

impl EncryptedPrice {
    /// Parses the wire (base64url) form. This is all an *observer* can do
    /// with a token — shape validation, no decryption. Allocation-free:
    /// decoding lands directly in the token's own 28-byte array.
    pub fn from_wire(s: &str) -> Result<EncryptedPrice, PriceTokenError> {
        // Fixed-width fast path: a well-formed token is exactly 38
        // unpadded base64url characters. Any byte outside the alphabet
        // (including `=` padding) falls through to the general decoder,
        // so error values and padded inputs behave exactly as before.
        if s.len() == WIRE_B64_LEN {
            if let Some(bytes) = decode_b64_38(s.as_bytes()) {
                return Ok(EncryptedPrice { bytes });
            }
        }
        let mut bytes = [0u8; TOKEN_LEN];
        let n = match base64url_decode_into(s, &mut bytes) {
            Ok(n) => n,
            Err(CodecError::BufferTooSmall(n)) => n,
            Err(_) => return Err(PriceTokenError::Encoding),
        };
        if n != TOKEN_LEN {
            return Err(PriceTokenError::Length(n));
        }
        Ok(EncryptedPrice { bytes })
    }

    /// Parses the bare-hex wire form (the `price=B6A3F3C1…` shape:
    /// 56 hex characters), also allocation-free.
    pub fn from_hex_wire(s: &str) -> Result<EncryptedPrice, PriceTokenError> {
        let mut bytes = [0u8; TOKEN_LEN];
        let n = match hex_decode_into(s, &mut bytes) {
            Ok(n) => n,
            Err(CodecError::BufferTooSmall(n)) => n,
            Err(_) => return Err(PriceTokenError::Encoding),
        };
        if n != TOKEN_LEN {
            return Err(PriceTokenError::Length(n));
        }
        Ok(EncryptedPrice { bytes })
    }

    /// Serialises back to the wire form (38 base64url characters).
    pub fn to_wire(self) -> String {
        base64url_encode(&self.bytes)
    }

    /// Appends the wire form to `buf` without allocating — the hot-path
    /// counterpart of [`EncryptedPrice::to_wire`].
    pub fn write_wire(&self, buf: &mut String) {
        crate::codec::base64url_encode_push(&self.bytes, buf);
    }

    /// Appends the 56-character UPPERCASE-hex wire form to `buf` — what
    /// hex-token exchanges embed as `price=B6A3F3C1…`.
    pub fn write_hex_wire_upper(&self, buf: &mut String) {
        crate::codec::hex_encode_push_upper(&self.bytes, buf);
    }

    /// The raw token bytes.
    pub fn as_bytes(&self) -> &[u8; TOKEN_LEN] {
        &self.bytes
    }

    /// The IV portion.
    pub fn iv(&self) -> &[u8] {
        &self.bytes[..IV_LEN]
    }
}

/// Encrypts and decrypts price tokens for one (exchange, buyer) key pair.
///
/// Caches the two keys' HMAC midstates, so each encrypt/decrypt
/// costs four SHA-256 compressions instead of eight. The midstates are
/// computed on first use, not at construction: the market builds a
/// crypter per (exchange, buyer) integration once per market template,
/// and most integrations never seal a price.
#[derive(Debug)]
pub struct PriceCrypter {
    keys: PriceKeys,
    mids: std::sync::OnceLock<(HmacKey, HmacKey)>,
}

impl PriceCrypter {
    /// Creates a crypter around a key pair. Cheap: the HMAC midstates
    /// are derived lazily on the first operation.
    pub fn new(keys: PriceKeys) -> PriceCrypter {
        PriceCrypter {
            keys,
            mids: std::sync::OnceLock::new(),
        }
    }

    /// The cached `(encryption, integrity)` midstates.
    fn mids(&self) -> &(HmacKey, HmacKey) {
        self.mids.get_or_init(|| {
            (
                HmacKey::new(&self.keys.encryption_key),
                HmacKey::new(&self.keys.integrity_key),
            )
        })
    }

    /// Encrypts a price (micro-CPM) under a caller-supplied IV. The IV must
    /// be unique per impression; the simulator derives it from the
    /// impression id plus the pair's DSP id and exchange index.
    pub fn encrypt(&self, micro_cpm: u64, iv: [u8; IV_LEN]) -> EncryptedPrice {
        let price_bytes = micro_cpm.to_be_bytes();
        let pad = self.mids().0.mac(&iv);
        let mut sig_input = [0u8; PRICE_LEN + IV_LEN];
        sig_input[..PRICE_LEN].copy_from_slice(&price_bytes);
        sig_input[PRICE_LEN..].copy_from_slice(&iv);
        let sig = self.mids().1.mac(&sig_input);
        let mut bytes = [0u8; TOKEN_LEN];
        bytes[..IV_LEN].copy_from_slice(&iv);
        for i in 0..PRICE_LEN {
            bytes[IV_LEN + i] = price_bytes[i] ^ pad[i];
        }
        bytes[IV_LEN + PRICE_LEN..].copy_from_slice(&sig[..SIG_LEN]);
        EncryptedPrice { bytes }
    }

    /// Decrypts and verifies a token, returning the price in micro-CPM.
    /// This is what the *winning DSP* does with its copy of the keys.
    pub fn decrypt(&self, token: &EncryptedPrice) -> Result<u64, PriceTokenError> {
        let iv = &token.bytes[..IV_LEN];
        let pad = self.mids().0.mac(iv);
        let mut price_bytes = [0u8; PRICE_LEN];
        for i in 0..PRICE_LEN {
            price_bytes[i] = token.bytes[IV_LEN + i] ^ pad[i];
        }
        let mut sig_input = [0u8; PRICE_LEN + IV_LEN];
        sig_input[..PRICE_LEN].copy_from_slice(&price_bytes);
        sig_input[PRICE_LEN..].copy_from_slice(iv);
        let sig = self.mids().1.mac(&sig_input);
        if !ct_eq(&sig[..SIG_LEN], &token.bytes[IV_LEN + PRICE_LEN..]) {
            return Err(PriceTokenError::Integrity);
        }
        Ok(u64::from_be_bytes(price_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn crypter(label: &str) -> PriceCrypter {
        PriceCrypter::new(PriceKeys::derive(label))
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let c = crypter("mopub<->mediamath");
        let token = c.encrypt(950_000, [7u8; IV_LEN]);
        assert_eq!(c.decrypt(&token).unwrap(), 950_000);
    }

    #[test]
    fn wire_form_is_38_chars() {
        let c = crypter("x");
        let token = c.encrypt(1, [0u8; IV_LEN]);
        let wire = token.to_wire();
        assert_eq!(wire.len(), 38);
        assert_eq!(EncryptedPrice::from_wire(&wire).unwrap(), token);
    }

    #[test]
    fn wrong_keys_fail_integrity() {
        let a = crypter("exchange-a");
        let b = crypter("exchange-b");
        let token = a.encrypt(2_000_000, [1u8; IV_LEN]);
        assert_eq!(b.decrypt(&token), Err(PriceTokenError::Integrity));
    }

    #[test]
    fn tampering_detected() {
        let c = crypter("k");
        let token = c.encrypt(500_000, [9u8; IV_LEN]);
        let mut bytes = *token.as_bytes();
        bytes[IV_LEN] ^= 0x01; // flip one bit of the price field
        let tampered = EncryptedPrice::from_wire(&base64url_encode(&bytes)).unwrap();
        assert_eq!(c.decrypt(&tampered), Err(PriceTokenError::Integrity));
    }

    #[test]
    fn malformed_wire_rejected() {
        assert_eq!(
            EncryptedPrice::from_wire("!!!"),
            Err(PriceTokenError::Encoding)
        );
        assert_eq!(
            EncryptedPrice::from_wire("Zm9v"), // 3 bytes
            Err(PriceTokenError::Length(3))
        );
    }

    #[test]
    fn same_price_different_iv_different_token() {
        let c = crypter("k");
        let t1 = c.encrypt(750_000, [1u8; IV_LEN]);
        let t2 = c.encrypt(750_000, [2u8; IV_LEN]);
        assert_ne!(t1, t2);
        assert_eq!(c.decrypt(&t1).unwrap(), c.decrypt(&t2).unwrap());
    }

    #[test]
    fn ciphertext_leaks_nothing_obvious() {
        // The XOR pad must differ per IV: identical prices should share no
        // price-field bytes across random IVs more than chance allows.
        let c = crypter("k");
        let mut matches = 0usize;
        for i in 0..100u8 {
            let mut iv = [0u8; IV_LEN];
            iv[0] = i;
            let t = c.encrypt(123_456, iv);
            let u = c.encrypt(123_456, {
                let mut v = iv;
                v[1] = 1;
                v
            });
            matches += t.as_bytes()[IV_LEN..IV_LEN + PRICE_LEN]
                .iter()
                .zip(&u.as_bytes()[IV_LEN..IV_LEN + PRICE_LEN])
                .filter(|(a, b)| a == b)
                .count();
        }
        // 800 byte comparisons, expected ~3 matches by chance; allow slack.
        assert!(matches < 30, "pads look correlated: {matches} byte matches");
    }

    #[test]
    fn hex_wire_round_trip() {
        let c = crypter("hex");
        let token = c.encrypt(640_000, [3u8; IV_LEN]);
        let hex = crate::codec::hex_encode(token.as_bytes());
        assert_eq!(hex.len(), 56);
        assert_eq!(EncryptedPrice::from_hex_wire(&hex).unwrap(), token);
        assert_eq!(
            EncryptedPrice::from_hex_wire("zz"),
            Err(PriceTokenError::Encoding)
        );
        assert_eq!(
            EncryptedPrice::from_hex_wire("00ff"),
            Err(PriceTokenError::Length(2))
        );
        // 30 bytes of valid hex: too long, reported as a length error just
        // like the base64 form.
        assert_eq!(
            EncryptedPrice::from_hex_wire(&"ab".repeat(30)),
            Err(PriceTokenError::Length(30))
        );
    }

    #[test]
    fn overlong_base64_wire_is_length_error() {
        // 30 decoded bytes — more than the token's 28. The non-allocating
        // parser must still report the true decoded length.
        let wire = base64url_encode(&[0x11u8; 30]);
        assert_eq!(
            EncryptedPrice::from_wire(&wire),
            Err(PriceTokenError::Length(30))
        );
    }

    proptest! {
        #[test]
        fn prop_round_trip(price in 0u64..10_000_000_000, iv: [u8; 16]) {
            let c = crypter("prop");
            let token = c.encrypt(price, iv);
            prop_assert_eq!(c.decrypt(&token).unwrap(), price);
            let wire = token.to_wire();
            let back = EncryptedPrice::from_wire(&wire).unwrap();
            prop_assert_eq!(c.decrypt(&back).unwrap(), price);
        }

        #[test]
        fn prop_signature_covers_price(price in 0u64..1_000_000_000, iv: [u8; 16], flip in 0usize..8) {
            let c = crypter("prop2");
            let token = c.encrypt(price, iv);
            let mut bytes = *token.as_bytes();
            bytes[IV_LEN + flip] ^= 0x80;
            let tampered = EncryptedPrice::from_wire(&base64url_encode(&bytes)).unwrap();
            prop_assert_eq!(c.decrypt(&tampered), Err(PriceTokenError::Integrity));
        }
    }
}
