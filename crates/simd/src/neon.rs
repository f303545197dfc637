//! NEON byte-scan kernels (aarch64, `native` feature).
//!
//! Deliberately minimal: only the two first-match scans, using the
//! standard `vshrn` 4-bit-per-lane mask narrowing. The charset and
//! SHA-256 kernels fall back to SWAR/scalar on aarch64 — this
//! workspace's builders are x86_64, so the aarch64 surface is kept to
//! code simple enough to review by eye. Results are bit-identical to
//! the scalar tier by the same argument as the x86 kernels: the mask's
//! lowest set nibble is the first matching lane.

#![cfg(all(target_arch = "aarch64", feature = "native"))]

use crate::scan::scalar;
use std::arch::aarch64::*;

/// Narrows a 16-lane byte mask to a u64 with 4 bits per lane.
#[target_feature(enable = "neon")]
fn mask_u64(eq: uint8x16_t) -> u64 {
    let narrowed = vshrn_n_u16::<4>(vreinterpretq_u16_u8(eq));
    vget_lane_u64::<0>(vreinterpret_u64_u8(narrowed))
}

/// First occurrence of `b`, 16 bytes per step.
#[target_feature(enable = "neon")]
pub fn find_byte_neon(h: &[u8], b: u8) -> Option<usize> {
    let needle = vdupq_n_u8(b);
    let mut i = 0usize;
    while i + 16 <= h.len() {
        // SAFETY: `i + 16 <= h.len()` keeps the 16-byte load inside `h`.
        let x = unsafe { vld1q_u8(h.as_ptr().add(i)) };
        let m = mask_u64(vceqq_u8(x, needle));
        if m != 0 {
            return Some(i + (m.trailing_zeros() >> 2) as usize);
        }
        i += 16;
    }
    scalar::find_byte(&h[i..], b).map(|p| i + p)
}

/// First occurrence of `b1` or `b2`, 16 bytes per step.
#[target_feature(enable = "neon")]
pub fn find_either_neon(h: &[u8], b1: u8, b2: u8) -> Option<usize> {
    let n1 = vdupq_n_u8(b1);
    let n2 = vdupq_n_u8(b2);
    let mut i = 0usize;
    while i + 16 <= h.len() {
        // SAFETY: `i + 16 <= h.len()` keeps the 16-byte load inside `h`.
        let x = unsafe { vld1q_u8(h.as_ptr().add(i)) };
        let m = mask_u64(vorrq_u8(vceqq_u8(x, n1), vceqq_u8(x, n2)));
        if m != 0 {
            return Some(i + (m.trailing_zeros() >> 2) as usize);
        }
        i += 16;
    }
    scalar::find_either(&h[i..], b1, b2).map(|p| i + p)
}
