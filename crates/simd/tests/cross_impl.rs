//! Cross-implementation identity: the SWAR hex kernel must agree with
//! the standard library's parser on random bytes over the full byte
//! range — value for value, rejection for rejection.

/// Deterministic LCG over arbitrary bytes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn byte(&mut self) -> u8 {
        self.next() as u8
    }
}

#[test]
fn swar_hex_agrees_with_std_parsing_on_hostile_bytes() {
    // Exhaustive per-position invalid bytes are unit-tested in the
    // crate; here, random 16-byte strings over the full byte range.
    let mut rng = Rng(0x4E57);
    for _ in 0..4000 {
        let buf: [u8; 16] = std::array::from_fn(|_| rng.byte());
        let want = std::str::from_utf8(&buf)
            .ok()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            // from_str_radix accepts a leading `+`; the wire format
            // does not, and 16 digits with `+` cannot fill 16 chars
            // anyway — but guard the comparison to digits-only inputs.
            .filter(|_| buf.iter().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(yav_simd::hex::parse_hex16(&buf), want, "input {buf:02x?}");
    }
}
