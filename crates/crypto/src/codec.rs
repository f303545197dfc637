//! Byte-string codecs: lowercase hex and URL-safe base64.
//!
//! Encrypted price tokens travel inside URL query parameters, so exchanges
//! encode them with the URL-safe base64 alphabet (`-` and `_`, unpadded) —
//! the `rtbwinprice=VLwbi4K2...` shape of Table 1 — or as bare hex
//! (`price=B6A3F3C1...`). Both directions are implemented here with strict
//! validation: a token that fails to decode is *not* an encrypted price.

use std::fmt;

/// Error produced by the decoders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A byte outside the codec alphabet, at the given position.
    InvalidByte(usize),
    /// The input length is impossible for this codec.
    InvalidLength(usize),
    /// The caller's output buffer cannot hold the decoded bytes; carries
    /// the full decoded length the input would produce. Only the `_into`
    /// decoders report this, and only for inputs that are otherwise valid.
    BufferTooSmall(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::InvalidByte(pos) => write!(f, "invalid byte at position {pos}"),
            CodecError::InvalidLength(len) => write!(f, "invalid input length {len}"),
            CodecError::BufferTooSmall(need) => {
                write!(f, "output buffer too small: need {need} bytes")
            }
        }
    }
}

impl std::error::Error for CodecError {}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Encodes bytes as lowercase hex.
pub fn hex_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len() * 2);
    hex_encode_push(data, &mut out);
    out
}

/// Appends the lowercase-hex encoding of `data` to `out` — the
/// allocation-free form used by hot-path renderers.
pub fn hex_encode_push(data: &[u8], out: &mut String) {
    for &b in data {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0x0f) as usize] as char);
    }
}

/// Appends the UPPERCASE-hex encoding of `data` to `out` — the wire
/// shape of hex price tokens (`price=B6A3F3C1…`), without the
/// encode-then-`to_ascii_uppercase` round trip.
pub fn hex_encode_push_upper(data: &[u8], out: &mut String) {
    const HEX_UP: &[u8; 16] = b"0123456789ABCDEF";
    for &b in data {
        out.push(HEX_UP[(b >> 4) as usize] as char);
        out.push(HEX_UP[(b & 0x0f) as usize] as char);
    }
}

fn nibble(b: u8, pos: usize) -> Result<u8, CodecError> {
    match b {
        b'0'..=b'9' => Ok(b - b'0'),
        b'a'..=b'f' => Ok(b - b'a' + 10),
        b'A'..=b'F' => Ok(b - b'A' + 10),
        _ => Err(CodecError::InvalidByte(pos)),
    }
}

/// Decodes hex (either case) into `out` without allocating, returning the
/// decoded length. An invalid byte is reported at its position even past
/// the end of `out`; an input that is valid but does not fit yields
/// [`CodecError::BufferTooSmall`] with the full decoded length.
pub fn hex_decode_into(s: &str, out: &mut [u8]) -> Result<usize, CodecError> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err(CodecError::InvalidLength(bytes.len()));
    }
    let n = bytes.len() / 2;
    for i in 0..n {
        let b = (nibble(bytes[2 * i], 2 * i)? << 4) | nibble(bytes[2 * i + 1], 2 * i + 1)?;
        // Keep validating past the end of `out` so InvalidByte wins over
        // BufferTooSmall at every position.
        if i < out.len() {
            out[i] = b;
        }
    }
    if n > out.len() {
        return Err(CodecError::BufferTooSmall(n));
    }
    Ok(n)
}

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

/// Encodes bytes with the URL-safe base64 alphabet, unpadded (the form
/// exchanges embed in query strings).
pub fn base64url_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    base64url_encode_push(data, &mut out);
    out
}

/// Appends the unpadded URL-safe base64 encoding of `data` to `out` —
/// the allocation-free form used by hot-path renderers.
pub fn base64url_encode_push(data: &[u8], out: &mut String) {
    for chunk in data.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = *chunk.get(1).unwrap_or(&0) as u32;
        let b2 = *chunk.get(2).unwrap_or(&0) as u32;
        let n = (b0 << 16) | (b1 << 8) | b2;
        out.push(B64[(n >> 18) as usize & 63] as char);
        out.push(B64[(n >> 12) as usize & 63] as char);
        if chunk.len() > 1 {
            out.push(B64[(n >> 6) as usize & 63] as char);
        }
        if chunk.len() > 2 {
            out.push(B64[n as usize & 63] as char);
        }
    }
}

/// Inverse-alphabet table: base64url value per byte, `0xFF` for bytes
/// outside the alphabet. Valid values never set the high bit, so a
/// fixed-width decoder can OR the looked-up values together and test
/// `0x80` once instead of branching per character.
pub(crate) const B64_INV: [u8; 256] = {
    let mut t = [0xFFu8; 256];
    let mut i = 0;
    while i < 64 {
        t[B64[i] as usize] = i as u8;
        i += 1;
    }
    t
};

fn b64_val(b: u8, pos: usize) -> Result<u32, CodecError> {
    match b {
        b'A'..=b'Z' => Ok((b - b'A') as u32),
        b'a'..=b'z' => Ok((b - b'a' + 26) as u32),
        b'0'..=b'9' => Ok((b - b'0' + 52) as u32),
        b'-' => Ok(62),
        b'_' => Ok(63),
        _ => Err(CodecError::InvalidByte(pos)),
    }
}

/// Decodes URL-safe base64 (unpadded; trailing `=` padding is tolerated)
/// into `out` without allocating, returning the decoded length. An
/// invalid byte is reported at its position even past the end of `out`;
/// an input that is valid but does not fit yields
/// [`CodecError::BufferTooSmall`] with the full decoded length.
pub fn base64url_decode_into(s: &str, out: &mut [u8]) -> Result<usize, CodecError> {
    let trimmed = s.trim_end_matches('=');
    let bytes = trimmed.as_bytes();
    if bytes.len() % 4 == 1 {
        return Err(CodecError::InvalidLength(s.len()));
    }
    let mut n = 0usize;
    for (ci, chunk) in bytes.chunks(4).enumerate() {
        let base = ci * 4;
        let mut word = 0u32;
        for (i, &b) in chunk.iter().enumerate() {
            word |= b64_val(b, base + i)? << (18 - 6 * i);
        }
        // A chunk of 2/3/4 characters carries 1/2/3 bytes. Keep
        // validating past the end of `out` so InvalidByte wins over
        // BufferTooSmall at every position.
        let emit = chunk.len() - 1;
        for k in 0..emit {
            if n + k < out.len() {
                out[n + k] = (word >> (16 - 8 * k)) as u8;
            }
        }
        n += emit;
    }
    if n > out.len() {
        return Err(CodecError::BufferTooSmall(n));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hex_round_trip() {
        assert_eq!(hex_encode(&[0x00, 0xff, 0x5a]), "00ff5a");
        for wire in ["00ff5a", "00FF5A"] {
            let mut buf = [0u8; 3];
            assert_eq!(hex_decode_into(wire, &mut buf), Ok(3));
            assert_eq!(buf, [0x00, 0xff, 0x5a]);
        }
        assert_eq!(hex_decode_into("", &mut []), Ok(0));
    }

    #[test]
    fn hex_rejects() {
        let mut buf = [0u8; 2];
        assert_eq!(
            hex_decode_into("abc", &mut buf),
            Err(CodecError::InvalidLength(3))
        );
        assert_eq!(
            hex_decode_into("zz", &mut buf),
            Err(CodecError::InvalidByte(0))
        );
        assert_eq!(
            hex_decode_into("a!", &mut buf),
            Err(CodecError::InvalidByte(1))
        );
    }

    #[test]
    fn base64url_known_vectors() {
        // RFC 4648 vectors, translated to the URL-safe unpadded form.
        assert_eq!(base64url_encode(b""), "");
        assert_eq!(base64url_encode(b"f"), "Zg");
        assert_eq!(base64url_encode(b"fo"), "Zm8");
        assert_eq!(base64url_encode(b"foo"), "Zm9v");
        assert_eq!(base64url_encode(b"foob"), "Zm9vYg");
        assert_eq!(base64url_encode(b"fooba"), "Zm9vYmE");
        assert_eq!(base64url_encode(b"foobar"), "Zm9vYmFy");
        // The URL-safe alphabet appears where standard base64 would use +/.
        assert_eq!(base64url_encode(&[0xfb, 0xff]), "-_8");
    }

    #[test]
    fn base64url_decode_tolerates_padding() {
        for wire in ["Zm9vYg==", "Zm9vYg"] {
            let mut buf = [0u8; 4];
            assert_eq!(base64url_decode_into(wire, &mut buf), Ok(4));
            assert_eq!(&buf, b"foob");
        }
    }

    #[test]
    fn base64url_rejects() {
        let mut buf = [0u8; 8];
        assert!(matches!(
            base64url_decode_into("Zm9v+", &mut buf),
            Err(CodecError::InvalidLength(_))
        ));
        assert_eq!(
            base64url_decode_into("Zm+v", &mut buf),
            Err(CodecError::InvalidByte(2))
        );
        assert_eq!(
            base64url_decode_into("Zm/v", &mut buf),
            Err(CodecError::InvalidByte(2))
        );
    }

    #[test]
    fn decode_into_exact_fit() {
        let mut buf = [0u8; 3];
        assert_eq!(hex_decode_into("00ff5a", &mut buf), Ok(3));
        assert_eq!(buf, [0x00, 0xff, 0x5a]);
        let mut buf = [0u8; 4];
        assert_eq!(base64url_decode_into("Zm9vYg==", &mut buf), Ok(4));
        assert_eq!(&buf, b"foob");
        // Oversized buffers report the true decoded length.
        let mut big = [0u8; 16];
        assert_eq!(base64url_decode_into("Zm9v", &mut big), Ok(3));
        assert_eq!(&big[..3], b"foo");
    }

    #[test]
    fn decode_into_reports_needed_length() {
        let mut buf = [0u8; 2];
        assert_eq!(
            hex_decode_into("00ff5a", &mut buf),
            Err(CodecError::BufferTooSmall(3))
        );
        assert_eq!(
            base64url_decode_into("Zm9vYmFy", &mut buf),
            Err(CodecError::BufferTooSmall(6))
        );
    }

    #[test]
    fn decode_into_invalid_byte_beats_small_buffer() {
        // The invalid byte sits past the buffer's capacity; the position
        // must still be reported.
        let mut buf = [0u8; 1];
        assert_eq!(
            hex_decode_into("00ffzz", &mut buf),
            Err(CodecError::InvalidByte(4))
        );
        assert_eq!(
            base64url_decode_into("Zm9vY%", &mut buf),
            Err(CodecError::InvalidByte(5))
        );
    }

    proptest! {
        #[test]
        fn prop_hex_round_trip(data: Vec<u8>) {
            let mut buf = vec![0u8; data.len()];
            prop_assert_eq!(hex_decode_into(&hex_encode(&data), &mut buf), Ok(data.len()));
            prop_assert_eq!(buf, data);
        }

        #[test]
        fn prop_decode_into_oversized_buffer(data: Vec<u8>) {
            // Room to spare: the true length comes back and the tail is
            // left untouched.
            let mut buf = vec![0xAAu8; data.len() + 5];
            let hex = hex_encode(&data);
            prop_assert_eq!(hex_decode_into(&hex, &mut buf), Ok(data.len()));
            prop_assert_eq!(&buf[..data.len()], &data[..]);
            let b64 = base64url_encode(&data);
            prop_assert_eq!(base64url_decode_into(&b64, &mut buf), Ok(data.len()));
            prop_assert_eq!(&buf[..data.len()], &data[..]);
            prop_assert!(buf[data.len()..].iter().all(|&b| b == 0xAA));
        }

        #[test]
        fn prop_base64url_round_trip(data: Vec<u8>) {
            let mut buf = vec![0u8; data.len()];
            let b64 = base64url_encode(&data);
            prop_assert_eq!(base64url_decode_into(&b64, &mut buf), Ok(data.len()));
            prop_assert_eq!(buf, data);
        }

        #[test]
        fn prop_base64url_is_url_safe(data: Vec<u8>) {
            let s = base64url_encode(&data);
            prop_assert!(s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_'));
        }
    }
}
