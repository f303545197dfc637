//! The three metric primitives: counters, gauges and log-bucketed
//! histograms.
//!
//! Everything here is lock-free on the hot path: counters and gauges are
//! single atomics, histograms a fixed array of atomic buckets. Handles
//! are cheap `Arc` clones, so call sites may either look a metric up by
//! name on every event (one `RwLock` read + map lookup) or cache the
//! handle once and pay only the atomic op.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonically increasing event count.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    inner: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.inner.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.inner.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (stored as `f64` bits).
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge::new()
    }
}

impl Gauge {
    pub(crate) fn new() -> Gauge {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }

    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (compare-and-swap loop; gauges are low-frequency).
    pub fn add(&self, delta: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Sub-buckets per power of two. Width `2^(1/8)` bounds the relative
/// quantile error at about 9 % (4.5 % against the geometric midpoint).
const SUB: usize = 8;
/// Lowest representable octave: `2^-24` (≈ 6e-8).
const MIN_EXP: i32 = -24;
/// One past the highest octave: `2^40` (≈ 1.1e12).
const MAX_EXP: i32 = 40;
/// Total log buckets.
const BUCKETS: usize = ((MAX_EXP - MIN_EXP) as usize) * SUB;

/// A histogram over positive values with logarithmic buckets.
///
/// Values at or below zero (and NaN) land in a dedicated underflow
/// bucket and count toward `count` but not the quantiles. Quantiles are
/// read from the bucket geometry, so `p50`/`p90`/`p99` carry a bounded
/// ~5 % relative error; `min`/`max`/`sum` are exact.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramCore>,
}

#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: Box<[AtomicU64]>,
    underflow: AtomicU64,
    count: AtomicU64,
    /// Exact running sum, as f64 bits.
    sum_bits: AtomicU64,
    /// Exact extrema, as f64 bits (positive floats order like their bits).
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

fn bucket_index(value: f64) -> usize {
    let pos = (value.log2() - MIN_EXP as f64) * SUB as f64;
    if pos < 0.0 {
        0
    } else {
        (pos as usize).min(BUCKETS - 1)
    }
}

/// Geometric midpoint of bucket `i` — the representative value quantile
/// reads return.
fn bucket_mid(i: usize) -> f64 {
    ((i as f64 + 0.5) / SUB as f64 + MIN_EXP as f64).exp2()
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub(crate) fn new() -> Histogram {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(HistogramCore {
                buckets: buckets.into_boxed_slice(),
                underflow: AtomicU64::new(0),
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
                // Positive floats order like their bit patterns, so
                // `fetch_min`/`fetch_max` on the bits implement exact
                // extrema. `+inf` bounds min from above; `+0.0` (all-zero
                // bits) bounds max from below — `-inf` would not, its
                // sign bit makes it the *largest* u64.
                min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
                max_bits: AtomicU64::new(0f64.to_bits()),
            }),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let core = &*self.inner;
        core.count.fetch_add(1, Ordering::Relaxed);
        if value.is_nan() || value <= 0.0 {
            core.underflow.fetch_add(1, Ordering::Relaxed);
            return;
        }
        core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        // Exact sum via CAS (histogram writes are far rarer than counter
        // bumps; contention here is negligible).
        let mut seen = core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(seen) + value).to_bits();
            match core.sum_bits.compare_exchange_weak(
                seen,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => seen = now,
            }
        }
        core.min_bits.fetch_min(value.to_bits(), Ordering::Relaxed);
        core.max_bits.fetch_max(value.to_bits(), Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Starts an RAII timer recording elapsed **microseconds** into this
    /// histogram on drop. Hold it in a named binding; binding to `_`
    /// drops immediately and times nothing.
    pub fn time_us(&self) -> HistogramTimer {
        HistogramTimer {
            hist: self.clone(),
            start: Instant::now(),
            per_second: 1e6,
        }
    }

    /// Like [`Histogram::time_us`], recording **milliseconds** (the
    /// timer behind [`crate::span!`]).
    pub fn time_ms(&self) -> HistogramTimer {
        HistogramTimer {
            hist: self.clone(),
            start: Instant::now(),
            per_second: 1e3,
        }
    }

    /// The non-empty log buckets as `(geometric midpoint, cumulative
    /// count)` pairs, midpoints ascending.
    ///
    /// Counts are cumulative since process start, like every other
    /// metric read; rolling-window consumers (the `yav-trace` health
    /// engine) difference successive calls to recover per-window
    /// distributions. The underflow bucket is excluded, matching the
    /// quantile semantics of [`Histogram::snapshot`].
    pub fn bucket_counts(&self) -> Vec<(f64, u64)> {
        self.inner
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then(|| (bucket_mid(i), c))
            })
            .collect()
    }

    /// A point-in-time summary.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &*self.inner;
        let counts: Vec<u64> = core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let positive: u64 = counts.iter().sum();
        let min = f64::from_bits(core.min_bits.load(Ordering::Relaxed));
        let max = f64::from_bits(core.max_bits.load(Ordering::Relaxed));
        // Bucket midpoints can overshoot the true extrema by the bucket
        // error; the exact min/max bound them back so a snapshot never
        // reports p99 > max (or p50 < min). A snapshot can race an
        // observation's extrema writes and briefly see min > max — skip
        // the bound then (clamp would panic).
        let bound = |v: f64| if min <= max { v.clamp(min, max) } else { v };
        let quantile = |q: f64| -> f64 {
            if positive == 0 {
                return f64::NAN;
            }
            let target = ((q * positive as f64).ceil() as u64).clamp(1, positive);
            let mut cumulative = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                cumulative += c;
                if cumulative >= target {
                    return bound(bucket_mid(i));
                }
            }
            bound(bucket_mid(BUCKETS - 1))
        };
        HistogramSnapshot {
            count: core.count.load(Ordering::Relaxed),
            underflow: core.underflow.load(Ordering::Relaxed),
            sum: f64::from_bits(core.sum_bits.load(Ordering::Relaxed)),
            min: if positive > 0 { min } else { f64::NAN },
            max: if positive > 0 { max } else { f64::NAN },
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }
}

/// An RAII guard from [`Histogram::time_us`]/[`Histogram::time_ms`];
/// records the elapsed time into its histogram when dropped.
#[derive(Debug)]
#[must_use = "binding to _ drops the timer immediately and times nothing"]
pub struct HistogramTimer {
    hist: Histogram,
    start: Instant,
    per_second: f64,
}

impl HistogramTimer {
    /// Elapsed time so far, in the timer's unit.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * self.per_second
    }
}

impl Drop for HistogramTimer {
    fn drop(&mut self) {
        self.hist.observe(self.elapsed());
    }
}

/// A frozen view of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Total observations (including underflow).
    pub count: u64,
    /// Observations at or below zero (or NaN), excluded from quantiles.
    pub underflow: u64,
    /// Exact sum of positive observations.
    pub sum: f64,
    /// Exact minimum positive observation (NaN when empty).
    pub min: f64,
    /// Exact maximum positive observation (NaN when empty).
    pub max: f64,
    /// Approximate median.
    pub p50: f64,
    /// Approximate 90th percentile.
    pub p90: f64,
    /// Approximate 99th percentile.
    pub p99: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_geometry_is_monotone() {
        let mut last = 0.0;
        for i in 0..BUCKETS {
            let mid = bucket_mid(i);
            assert!(mid > last);
            last = mid;
            assert_eq!(bucket_index(mid), i, "midpoint must index its own bucket");
        }
    }

    #[test]
    fn histogram_timer_records_on_drop() {
        let h = Histogram::new();
        {
            let t = h.time_us();
            assert!(t.elapsed() >= 0.0);
        }
        {
            let _t = h.time_ms();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        // Sub-nanosecond regions can legally round to 0.0 (underflow
        // bucket); everything else must be positive.
        assert!(s.count == s.underflow + 2 || s.max > 0.0);
    }

    #[test]
    fn extremes_clamp_instead_of_panicking() {
        assert_eq!(bucket_index(1e-300), 0);
        assert_eq!(bucket_index(1e300), BUCKETS - 1);
        let h = Histogram::new();
        h.observe(f64::INFINITY);
        h.observe(0.0);
        h.observe(-3.0);
        h.observe(f64::NAN);
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.underflow, 3);
    }
}
