//! Cryptographic substrate: the encrypted winning-price channel.
//!
//! A growing share of 2015-era exchanges delivered their charge prices as
//! opaque 28-byte tokens (§2.3 of the paper cites Google's scheme, which
//! "cannot easily be broken"). The whole premise of the paper is that an
//! on-path observer — the user's own browser — sees these tokens but cannot
//! decrypt them, so prices must be *estimated* from auction metadata.
//!
//! To reproduce that constraint faithfully the simulator needs a real
//! scheme: exchanges hold keys and encrypt; DSPs hold the same keys and
//! decrypt; the analyzer/YourAdValue side holds nothing and can only
//! recognise the token shape.
//!
//! The public surface is the token scheme of [`price`] — the
//! DoubleClick-style `iv ‖ (plaintext ⊕ pad) ‖ signature` construction
//! over a 28-byte layout (16-byte IV, 8-byte price, 4-byte integrity
//! tag): [`PriceKeys`], [`PriceCrypter`], [`EncryptedPrice`] and
//! [`PriceTokenError`], plus [`hex_encode`] for the hex wire form of a
//! token. Behind it sit three private modules: FIPS 180-4 SHA-256 and
//! RFC 2104 HMAC over it, both from scratch, and the hex and URL-safe
//! base64 codecs the tokens wear inside notification URLs.
//!
//! No third-party crypto crates are used; determinism and auditability
//! matter more here than raw speed. The SHA-256 compression itself comes
//! from the workspace's [`yav_simd`] kernel crate, its one safe
//! implementation.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod codec;
mod hmac;
pub mod price;
mod sha256;

pub use codec::hex_encode;
pub use price::{EncryptedPrice, PriceCrypter, PriceKeys, PriceTokenError};
