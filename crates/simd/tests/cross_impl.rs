//! Cross-implementation identity: every available tier of every kernel
//! must agree with the scalar reference on a corpus of random and
//! hostile inputs — bit for bit, verdict for verdict, index for index.
//!
//! This is the property the whole dispatch design rests on: callers
//! never know (or care) which tier ran, so nothing short of exact
//! agreement is acceptable. The corpus stresses the places vector code
//! goes wrong: lane boundaries (lengths 7/8/9, 15/16/17, 31/32/33),
//! bytes with the high bit set (SWAR's 7-bit comparisons must pre-mask
//! them), and matches in the unaligned head/tail.
//!
//! The suite runs identically under `--no-default-features` (only the
//! Scalar and Swar tiers exist there) — CI runs both configurations.

use yav_simd::{scan, sha256, Level};

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

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.byte()).collect()
    }
}

fn available_levels() -> Vec<Level> {
    Level::all()
        .iter()
        .copied()
        .filter(|l| l.available())
        .collect()
}

/// Lengths that straddle every vector width in play (8 for SWAR, 16 for
/// SSE2/NEON, 32 for AVX2) plus degenerate sizes.
const LENGTHS: &[usize] = &[0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 200];

#[test]
fn byte_scans_agree_across_tiers_on_random_and_hostile_inputs() {
    let mut rng = Rng(0xC0FFEE);
    for &n in LENGTHS {
        let mut corpus: Vec<Vec<u8>> = vec![
            rng.bytes(n),
            vec![0x80; n], // high bit everywhere: SWAR's 7-bit trap
            vec![0xFF; n], // all-ones
            vec![b'%'; n], // match at every position
            vec![b'a'; n], // no match anywhere
        ];
        // The needle at every single position, alone in a clean field.
        for pos in 0..n {
            let mut v = vec![b'x'; n];
            v[pos] = b'%';
            corpus.push(v);
        }
        for h in &corpus {
            let want_b = scan::find_byte_with(Level::Scalar, h, b'%');
            let want_e = scan::find_either_with(Level::Scalar, h, b'%', b'+');
            let want_h = scan::host_invalid_at_with(Level::Scalar, h);
            for &lvl in &available_levels() {
                assert_eq!(scan::find_byte_with(lvl, h, b'%'), want_b, "{lvl:?} n={n}");
                assert_eq!(
                    scan::find_either_with(lvl, h, b'%', b'+'),
                    want_e,
                    "{lvl:?} n={n}"
                );
                assert_eq!(scan::host_invalid_at_with(lvl, h), want_h, "{lvl:?} n={n}");
            }
        }
    }
}

#[test]
fn case_insensitive_eq_agrees_across_tiers() {
    let mut rng = Rng(0xCA5E);
    for &n in LENGTHS {
        for _ in 0..8 {
            let a = rng.bytes(n);
            // b: sometimes a case-flipped copy, sometimes one byte off,
            // sometimes unrelated.
            let mut b = a.clone();
            match rng.next() % 3 {
                0 => {
                    for x in &mut b {
                        if x.is_ascii_alphabetic() {
                            *x ^= 0x20;
                        }
                    }
                }
                1 if n > 0 => {
                    let i = (rng.next() as usize) % n;
                    b[i] = b[i].wrapping_add(1);
                }
                _ => b = rng.bytes(n),
            }
            let want = scan::eq_ignore_ascii_case_with(Level::Scalar, &a, &b);
            assert_eq!(want, a.eq_ignore_ascii_case(&b), "scalar vs std n={n}");
            for &lvl in &available_levels() {
                assert_eq!(
                    scan::eq_ignore_ascii_case_with(lvl, &a, &b),
                    want,
                    "{lvl:?} n={n}"
                );
            }
        }
    }
}

#[test]
fn multiway_sha256_compression_matches_sequential() {
    let mut rng = Rng(0x5AA5);
    for lanes in 0..=10usize {
        let blocks: Vec<[u8; 64]> = (0..lanes)
            .map(|_| {
                let mut b = [0u8; 64];
                for x in &mut b {
                    *x = rng.byte();
                }
                b
            })
            .collect();
        let init: Vec<[u32; 8]> = (0..lanes)
            .map(|i| {
                let mut s = sha256::H0;
                s[0] ^= i as u32; // distinct chaining values per lane
                s
            })
            .collect();
        let mut want = init.clone();
        for (s, b) in want.iter_mut().zip(&blocks) {
            sha256::compress(s, b);
        }
        for &lvl in &available_levels() {
            let mut got = init.clone();
            sha256::compress_many_with(lvl, &mut got, &blocks);
            assert_eq!(got, want, "{lvl:?} lanes={lanes}");
        }
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
