//! Opaque identifiers.
//!
//! Newtype wrappers so the simulator cannot confuse a user with an auction
//! or a campaign. All ids are dense `u64`/`u32` indices assigned by their
//! owning subsystem; wire formats render them as hexadecimal tokens (the
//! `ID` placeholders of Table 1).

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident($inner:ty)) => {
        $(#[$doc])*
        #[derive(
            Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
            Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(pub $inner);

        impl $name {
            /// The raw index.
            pub const fn raw(self) -> $inner {
                self.0
            }

            /// Renders the id as the hexadecimal token carried in nURLs.
            pub fn wire(self) -> String {
                let mut out = String::with_capacity(16);
                self.wire_into(&mut out);
                out
            }

            /// Appends the wire token to `buf` without allocating (beyond
            /// any growth of `buf` itself) — the hot-path form used by the
            /// allocation-free nURL renderer.
            pub fn wire_into(self, buf: &mut String) {
                // Mix the bits so consecutive ids don't look consecutive on
                // the wire (real exchanges emit opaque tokens). This is the
                // splitmix64 finaliser — a bijection, so ids stay unique.
                let mut z = (self.0 as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                const HEX: &[u8; 16] = b"0123456789abcdef";
                for shift in (0..16).rev() {
                    buf.push(HEX[((z >> (shift * 4)) & 0xf) as usize] as char);
                }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({})", stringify!($name), self.0)
            }
        }
    };
}

id_type! {
    /// A panel user (one of the 1 594 volunteers of dataset *D*).
    UserId(u32)
}
id_type! {
    /// One RTB auction instance.
    AuctionId(u64)
}
id_type! {
    /// One delivered ad impression.
    ImpressionId(u64)
}
id_type! {
    /// An advertiser's ad-campaign.
    CampaignId(u32)
}
id_type! {
    /// A publisher (website or mobile app).
    PublisherId(u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn wire_tokens_are_unique_and_opaque() {
        let mut seen = BTreeSet::new();
        for i in 0..10_000u64 {
            let tok = AuctionId(i).wire();
            assert_eq!(tok.len(), 16);
            assert!(tok.bytes().all(|b| b.is_ascii_hexdigit()));
            assert!(seen.insert(tok), "collision at {i}");
        }
    }

    #[test]
    fn wire_into_matches_wire() {
        let mut buf = String::from("x=");
        AuctionId(12345).wire_into(&mut buf);
        assert_eq!(buf, format!("x={}", AuctionId(12345).wire()));
        for i in [0u32, 1, 255, u32::MAX] {
            let mut b = String::new();
            UserId(i).wire_into(&mut b);
            assert_eq!(b, UserId(i).wire());
        }
    }

    #[test]
    fn display_is_debuggable() {
        assert_eq!(UserId(7).to_string(), "UserId(7)");
        assert_eq!(CampaignId(3).raw(), 3);
    }
}
