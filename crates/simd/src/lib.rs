//! Byte kernels shared by the nURL and crypto layers.
//!
//! Two kernels live here, each with exactly one safe implementation:
//!
//! * [`hex`] — fixed-width SWAR hex parsing for the 16-digit identifiers
//!   every nURL template ships (word-parallel on every architecture);
//! * [`sha256`] — the SHA-256 compression function behind the
//!   encrypted-price HMACs in `yav-crypto`.
//!
//! The nURL parser's byte scans (`%`/`+` discovery, hostname charset,
//! exchange-host comparison) call the standard library's slice methods
//! in place; none of them needs a kernel of its own.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod hex;
pub mod sha256;
