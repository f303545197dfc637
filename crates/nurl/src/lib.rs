//! RTB winning-price notification URLs (nURLs): wire formats.
//!
//! When an ad-exchange resolves an auction it piggybacks a *notification
//! URL* in the ad response; the user's browser fires it as the impression
//! renders, telling the winning DSP what it will be charged (§2.2 of the
//! paper). Those URLs are the paper's entire measurement surface, so this
//! crate treats them as a first-class wire format, smoltcp-style:
//!
//! * [`urlref`] / [`scratch`] — the one URL type: a borrowed
//!   [`urlref::UrlRef`] whose components are subslices of the raw request
//!   string, with percent-decoding deferred into a caller-owned reusable
//!   [`scratch::UrlScratch`]. The monitor rejects non-nURL traffic on it
//!   without touching the heap;
//! * [`fields`] — the typed payload of a notification
//!   ([`fields::NurlFields`]) with its cleartext-or-encrypted price;
//! * [`template`] — the per-exchange renderer and parser: every exchange
//!   has a house format (parameter names, price encoding) modelled after
//!   the Table-1 examples; render ∘ parse is the identity on the typed
//!   payload;
//! * [`detect`] — the observer-side screen that names a notification's
//!   exchange by its host, on a raw URL string or on a parsed host.
//!
//! Parsing never panics on untrusted input — malformed URLs yield typed
//! errors, unknown hosts yield `None`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod detect;
pub mod fields;
pub mod scratch;
pub mod template;
pub mod urlref;

pub use detect::{exchange_host, screen_adx, FastReject};
pub use fields::{NurlFields, NurlFieldsRef, PricePayload};
pub use scratch::{DecodedPairs, UrlScratch};
pub use template::{parse_borrowed_screened, render_into, NurlParseError, NurlRefError};
pub use urlref::{QueryIter, UrlParseError, UrlRef};
