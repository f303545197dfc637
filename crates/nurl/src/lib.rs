//! RTB winning-price notification URLs (nURLs): wire formats.
//!
//! When an ad-exchange resolves an auction it piggybacks a *notification
//! URL* in the ad response; the user's browser fires it as the impression
//! renders, telling the winning DSP what it will be charged (§2.2 of the
//! paper). Those URLs are the paper's entire measurement surface, so this
//! crate treats them as a first-class wire format, smoltcp-style:
//!
//! * [`url`] — a strict, allocation-conscious URL parser/builder with
//!   percent-encoding, sufficient for HTTP(S) query-string URLs;
//! * [`urlref`] / [`scratch`] — the zero-copy layer underneath it: a
//!   borrowed [`urlref::UrlRef`] whose components are subslices of the
//!   raw request string, with percent-decoding deferred into a
//!   caller-owned reusable [`scratch::UrlScratch`]. The owned parser is
//!   a thin wrapper over this layer; the monitor rejects non-nURL
//!   traffic on it without touching the heap;
//! * [`fields`] — the typed payload of a notification
//!   ([`fields::NurlFields`]) with its cleartext-or-encrypted price;
//! * [`template`] — per-exchange emitters and parsers: every exchange has
//!   a house format (parameter names, price encoding) modelled after the
//!   Table-1 examples; emit ∘ parse is the identity on the typed payload;
//! * [`detect`] — the analyzer-side detector that recognises nURLs in raw
//!   traffic by domain/path/parameter *macros* (the paper's pattern list),
//!   and disambiguates charge prices from co-occurring bid prices.
//!
//! Parsing never panics on untrusted input — malformed URLs yield typed
//! errors, unknown hosts yield `None`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod detect;
pub mod fields;
pub mod scratch;
pub mod template;
pub mod url;
pub mod urlref;

pub use detect::{exchange_host, screen_adx, DetectedPrice, FastReject, NurlDetector};
pub use fields::{NurlFields, NurlFieldsRef, PricePayload};
pub use scratch::{DecodedPairs, UrlScratch};
pub use template::{
    emit, parse, parse_borrowed_screened, render_into, NurlParseError, NurlRefError,
};
pub use url::{Url, UrlParseError};
pub use urlref::{QueryIter, UrlRef};
