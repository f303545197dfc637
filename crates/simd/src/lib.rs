//! Runtime-dispatched SIMD kernels for the workspace's hot paths.
//!
//! Two byte-bashing loops dominate the monitor's per-request cost
//! (BENCH_ingest.json): percent-decode/validation scans in `yav-nurl`
//! and SHA-256 compression behind the encrypted-price HMACs in
//! `yav-crypto`. This crate owns the vector kernels for both so that
//! exactly one place in the workspace contains `unsafe` code and
//! exactly one dispatch policy decides what runs.
//!
//! # Tiers
//!
//! Every kernel exists at up to four [`Level`]s, all producing
//! **bit-identical results**:
//!
//! * [`Level::Scalar`] — the reference loop, byte at a time. This is the
//!   canonical semantics; every other tier is checked against it.
//! * [`Level::Swar`] — SIMD-within-a-register: 8 bytes per step in a
//!   `u64`, pure safe Rust, available on every architecture and under
//!   `--no-default-features`.
//! * [`Level::Sse2`] / [`Level::Avx2`] — 16/32 bytes per step via
//!   `core::arch` intrinsics, compiled only with the `native` feature on
//!   x86_64 and selected only after `is_x86_feature_detected!` proves
//!   the CPU supports them.
//! * [`Level::Neon`] — 16 bytes per step on aarch64 (byte scans only;
//!   the other kernels fall back to SWAR/scalar there).
//!
//! Bit-identity holds by construction: the scan kernels report the same
//! first-match index and the same validity verdicts; the SHA-256 tiers
//! perform the same wrapping 32-bit integer arithmetic lane-wise. The
//! `cross_impl` test suite pins this on random and hostile inputs for
//! every available tier.
//!
//! # Dispatch
//!
//! [`level()`] resolves once per process: the best detected tier, capped
//! by the `YAV_SIMD` environment variable (`off`/`scalar`, `swar`,
//! `sse2`, `avx2`, `neon`, `native`). Benches may override it with
//! [`force_level`]. Each public kernel also has an explicit `*_with`
//! variant taking a [`Level`] so tests can cross-check tiers directly
//! without touching process-global state.

#![deny(missing_docs)]
// yav-lint: allow(forbid-unsafe-coverage) — this is the workspace's one
// designated unsafe crate: every unsafe block below a `#[target_feature]`
// boundary carries its own SAFETY comment, enforced by the same lint rule.

pub mod hex;
pub mod scan;
pub mod sha256;

#[cfg(all(target_arch = "x86_64", feature = "native"))]
pub(crate) mod x86;

#[cfg(all(target_arch = "aarch64", feature = "native"))]
pub(crate) mod neon;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// One implementation tier. Ordered: a greater level is a wider kernel.
/// All levels compute bit-identical results; they differ only in speed
/// and availability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Reference byte-at-a-time loops (canonical semantics).
    Scalar = 0,
    /// Portable u64-word SWAR, 8 bytes per step, safe Rust everywhere.
    Swar = 1,
    /// SSE2 intrinsics, 16 bytes per step (x86_64 + `native` feature).
    Sse2 = 2,
    /// AVX2 intrinsics, 32 bytes per step (x86_64 + `native` feature).
    Avx2 = 3,
    /// NEON intrinsics, 16 bytes per step (aarch64 + `native` feature;
    /// byte scans only, other kernels fall back to SWAR/scalar).
    Neon = 4,
}

impl Level {
    /// Every level, ascending. Includes levels this build cannot run —
    /// filter with [`Level::available`].
    pub fn all() -> &'static [Level] {
        &[
            Level::Scalar,
            Level::Swar,
            Level::Sse2,
            Level::Avx2,
            Level::Neon,
        ]
    }

    /// The kebab-case name used by `YAV_SIMD` and bench labels.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Swar => "swar",
            Level::Sse2 => "sse2",
            Level::Avx2 => "avx2",
            Level::Neon => "neon",
        }
    }

    /// True when this tier can run in this build on this CPU.
    pub fn available(self) -> bool {
        match self {
            Level::Scalar | Level::Swar => true,
            #[cfg(all(target_arch = "x86_64", feature = "native"))]
            Level::Sse2 => std::arch::is_x86_feature_detected!("sse2"),
            #[cfg(all(target_arch = "x86_64", feature = "native"))]
            Level::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(all(target_arch = "aarch64", feature = "native"))]
            Level::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Scalar,
            1 => Level::Swar,
            2 => Level::Sse2,
            3 => Level::Avx2,
            _ => Level::Neon,
        }
    }
}

/// The best available tier on this CPU in this build.
pub fn detect_best() -> Level {
    Level::all()
        .iter()
        .copied()
        .filter(|l| l.available())
        .max()
        .unwrap_or(Level::Scalar)
}

/// A one-line summary of what detection found, for bench metadata:
/// e.g. `"avx2,sse2"` on a modern x86_64 box, `"portable"` when the
/// `native` feature is off or nothing beyond SWAR exists.
pub fn detected_features() -> String {
    let native: Vec<&str> = Level::all()
        .iter()
        .copied()
        .filter(|l| *l > Level::Swar && l.available())
        .rev()
        .map(Level::name)
        .collect();
    if native.is_empty() {
        "portable".to_owned()
    } else {
        native.join(",")
    }
}

/// Test/bench override: `0` = none, otherwise `level as u8 + 1`.
static FORCE: AtomicU8 = AtomicU8::new(0);
/// The env/detection resolution, computed once.
static RESOLVED: OnceLock<Level> = OnceLock::new();

/// The active tier: a [`force_level`] override if set, else the
/// once-resolved combination of detection and the `YAV_SIMD` env var.
#[inline]
pub fn level() -> Level {
    let f = FORCE.load(Ordering::Relaxed);
    if f != 0 {
        return Level::from_u8(f - 1);
    }
    *RESOLVED.get_or_init(resolve)
}

/// Forces the dispatch tier (or clears the override with `None`).
///
/// Intended for single-threaded bench sections; correctness never
/// depends on the tier (all tiers are bit-identical), so a concurrent
/// reader only ever observes a different speed.
///
/// # Panics
/// Panics when the requested level is not [`Level::available`].
pub fn force_level(level: Option<Level>) {
    if let Some(l) = level {
        assert!(l.available(), "cannot force unavailable level {:?}", l);
        FORCE.store(l as u8 + 1, Ordering::Relaxed);
    } else {
        FORCE.store(0, Ordering::Relaxed);
    }
}

/// Resolves `YAV_SIMD` against detection. Unknown values and `native`
/// mean "best detected"; a requested tier is degraded to the best
/// available tier at or below it, bottoming out at SWAR.
fn resolve() -> Level {
    let best = detect_best();
    let Ok(raw) = std::env::var("YAV_SIMD") else {
        return best;
    };
    let want = match raw.to_ascii_lowercase().as_str() {
        "off" | "scalar" => Level::Scalar,
        "swar" | "portable" => Level::Swar,
        "sse2" => Level::Sse2,
        "avx2" => Level::Avx2,
        "neon" => Level::Neon,
        _ => return best,
    };
    if want.available() {
        return want;
    }
    Level::all()
        .iter()
        .copied()
        .filter(|l| *l <= want && l.available())
        .max()
        .unwrap_or(Level::Swar)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_and_swar_always_available() {
        assert!(Level::Scalar.available());
        assert!(Level::Swar.available());
        assert!(detect_best() >= Level::Swar);
    }

    #[test]
    fn names_round_trip_sorted() {
        for l in Level::all() {
            assert!(!l.name().is_empty());
        }
        assert!(Level::Scalar < Level::Swar);
        assert!(Level::Swar < Level::Avx2);
    }

    #[test]
    fn force_level_overrides_and_clears() {
        force_level(Some(Level::Swar));
        assert_eq!(level(), Level::Swar);
        force_level(None);
        assert!(level().available());
    }

    #[test]
    #[should_panic(expected = "cannot force unavailable level")]
    fn forcing_unavailable_level_panics() {
        // Neon is never available on x86_64 builds and Sse2 never on
        // aarch64, so one of the two must be unavailable everywhere.
        let l = if Level::Neon.available() {
            Level::Sse2
        } else {
            Level::Neon
        };
        force_level(Some(l));
    }

    #[test]
    fn detected_features_is_nonempty() {
        assert!(!detected_features().is_empty());
    }
}
