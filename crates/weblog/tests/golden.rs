//! Golden bytes for the generator.
//!
//! The thread-count identity checks compare the generator with itself,
//! so they cannot see its output move. This test pins one digest over
//! every request of the tiny preset, field by field, and over its
//! ground truth. Any change to how a URL or user agent is rendered,
//! to a random draw or to the order of events moves it.
//!
//! The digest is FNV-1a (64-bit) written out here rather than a std
//! hasher, whose algorithm may change between releases.

use yav_auction::MarketConfig;
use yav_weblog::{WeblogConfig, WeblogGenerator};

/// The digest of the tiny preset under the default market.
const GOLDEN: u64 = 0xce0b_25d1_6d1e_9beb;

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// A length prefix keeps adjacent strings from running into each
    /// other.
    fn str(&mut self, s: &str) {
        self.bytes(&(s.len() as u64).to_le_bytes());
        self.bytes(s.as_bytes());
    }

    fn int(&mut self, n: i64) {
        self.bytes(&n.to_le_bytes());
    }
}

#[test]
fn tiny_stream_matches_its_golden_digest() {
    let log = WeblogGenerator::new(WeblogConfig::tiny()).collect(&MarketConfig::default());
    let mut h = Fnv1a::new();
    h.int(log.requests.len() as i64);
    for r in &log.requests {
        h.str(&r.url);
        h.str(&r.user_agent);
        h.int(r.time.minutes());
        h.int(r.user.0 as i64);
        h.int(r.client_ip as i64);
        h.int(r.bytes as i64);
        h.int(r.duration_ms as i64);
    }
    h.int(log.truth.len() as i64);
    for t in &log.truth {
        h.int(t.impression.0 as i64);
        h.int(t.user.0 as i64);
        h.int(t.time.minutes());
        h.int(t.adx.index() as i64);
        h.int(t.charge.micros());
        h.int(t.visibility as i64);
    }
    assert_eq!(
        h.0,
        GOLDEN,
        "generator output moved: digest {:#018x} over {} requests and {} truth records",
        h.0,
        log.requests.len(),
        log.truth.len()
    );
}
