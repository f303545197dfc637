//! Deterministic parallel execution for world building.
//!
//! Every hot path in the pipeline (the world builders' fused weblog
//! generation and analysis, campaign sweeps, forest training)
//! parallelises the same way: the work is cut into **fixed logical
//! shards** whose randomness derives from `(base seed, shard index)`,
//! the shards run on a scoped worker pool, and the results are merged
//! in shard (or other canonical) order.
//! Because the shard structure never depends on the worker count, the
//! output is identical whether the pool has 1 thread or 64 — the same
//! invariant `RandomForest::fit` has always honoured.
//!
//! [`ExecConfig`] carries the one tunable — how many workers to run —
//! and flows from the CLI (`figures --threads`) through `WeblogConfig`,
//! `campaign::execute_parallel` and `World::build_with`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use yav_telemetry::journal;

/// Upper clamp for auto-detected worker counts: shards in this workspace
/// are coarse (whole users-blocks, whole campaign setups), so pools wider
/// than this only add scheduling noise.
pub const MAX_AUTO_THREADS: usize = 16;

/// Worker threads matched to the host: `available_parallelism`, clamped
/// to `[1, MAX_AUTO_THREADS]`.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, MAX_AUTO_THREADS)
}

/// How many workers the parallel stages may use. Scheduling only: thread
/// count never affects any pipeline output (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecConfig {
    /// Worker threads (1 = serial execution on the calling thread).
    pub threads: usize,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            threads: default_threads(),
        }
    }
}

impl ExecConfig {
    /// Serial execution (one worker, on the calling thread).
    pub fn serial() -> ExecConfig {
        ExecConfig { threads: 1 }
    }

    /// An explicit worker count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> ExecConfig {
        ExecConfig {
            threads: threads.max(1),
        }
    }

    /// The effective worker count (never 0).
    pub fn threads(&self) -> usize {
        self.threads.max(1)
    }
}

/// Derives an independent RNG seed for one logical shard of a base
/// stream. A splitmix64-style finalizer: nearby `(base, stream)` pairs
/// land far apart, and the result depends on nothing else — reseeding a
/// shard is reproducible anywhere.
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    let mut z = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `f(0), f(1), …, f(n-1)` on a scoped worker pool and returns the
/// results **in index order**. Work is handed out through an atomic
/// cursor, so stragglers never stall idle workers; results are slotted by
/// index, so scheduling order can never leak into the output.
///
/// With one worker (or one task) the closures run serially on the
/// calling thread — no pool, no overhead.
///
/// Panics in `f` propagate to the caller after all workers stop.
pub fn par_map_indexed<T, F>(exec: &ExecConfig, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let _span = yav_telemetry::span!("exec.pool.par_map", n);
    yav_telemetry::counter("exec.pool.tasks").add(n as u64);
    let workers = exec.threads().min(n.max(1));
    yav_telemetry::gauge("exec.pool.workers").set(workers as f64);

    // Each shard task records into its own trace stream, keyed by this
    // fan-out's generation and the shard index — never by worker thread
    // — so the merged trace is canonical across thread counts. The
    // generation is taken here, on the coordinating thread, keeping it
    // deterministic for a deterministic call sequence.
    let trace_group = if journal::enabled() {
        Some((journal::next_group(), journal::current_ctx()))
    } else {
        None
    };
    let run_shard = |i: usize| match trace_group {
        Some((group, origin)) => journal::stream_scope(
            journal::StreamId {
                group,
                index: i as u32,
            },
            origin,
            || f(i),
        ),
        None => f(i),
    };

    if workers <= 1 {
        return (0..n).map(run_shard).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let worker_parts: Vec<Vec<(usize, T)>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let run_shard = &run_shard;
                scope.spawn(move |_| {
                    let mut out: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, run_shard(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("exec worker panicked"))
            .collect()
    })
    .expect("exec pool scope failed");

    let mut tasks_per_worker = Vec::with_capacity(workers);
    for part in worker_parts {
        tasks_per_worker.push(part.len() as f64);
        for (i, value) in part {
            slots[i] = Some(value);
        }
    }
    // Shard balance diagnostic: the spread between the busiest and the
    // idlest worker this call.
    let max = tasks_per_worker.iter().cloned().fold(0.0f64, f64::max);
    let min = tasks_per_worker.iter().cloned().fold(f64::MAX, f64::min);
    yav_telemetry::gauge("exec.pool.shard_imbalance").set(max - min);

    slots
        .into_iter()
        .map(|s| s.expect("every index produced"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_index_order() {
        let out = par_map_indexed(&ExecConfig::with_threads(4), 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_never_changes_results() {
        let run = |threads| {
            par_map_indexed(&ExecConfig::with_threads(threads), 37, |i| {
                derive_seed(0xD474, i as u64)
            })
        };
        let serial = run(1);
        for threads in [2, 3, 8, 32] {
            assert_eq!(run(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<usize> = par_map_indexed(&ExecConfig::default(), 0, |i| i);
        assert!(empty.is_empty());
        assert_eq!(par_map_indexed(&ExecConfig::default(), 1, |i| i + 7), [7]);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        // Stability: the derivation is part of the output contract; a
        // change here invalidates every committed baseline.
        assert_eq!(derive_seed(0, 0), derive_seed(0, 0));
        let seeds: std::collections::BTreeSet<u64> =
            (0..10_000).map(|s| derive_seed(0xD474, s)).collect();
        assert_eq!(seeds.len(), 10_000, "shard seeds must not collide");
        assert_ne!(derive_seed(1, 5), derive_seed(2, 5));
    }

    #[test]
    fn config_defaults_are_sane() {
        assert!(ExecConfig::default().threads() >= 1);
        assert_eq!(ExecConfig::serial().threads(), 1);
        assert_eq!(ExecConfig::with_threads(0).threads(), 1);
        assert!(default_threads() <= MAX_AUTO_THREADS);
    }

    #[test]
    fn traced_shards_merge_canonically() {
        journal::set_enabled(true);
        let out = par_map_indexed(&ExecConfig::with_threads(4), 6, |i| {
            yav_telemetry::instant!("exec.test_marker", i);
            i
        });
        journal::set_enabled(false);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
        let trace = journal::drain();
        // Other tests in this binary may have traced concurrently; look
        // only at the streams carrying our marker.
        let mine: Vec<_> = trace
            .streams
            .iter()
            .filter(|s| {
                s.records
                    .iter()
                    .any(|r| journal::name_of(r.name) == "exec.test_marker")
            })
            .collect();
        assert_eq!(mine.len(), 6, "one stream per shard");
        let group = mine[0].stream.group;
        assert!(group > 0, "shards get a scoped (non-zero) group");
        for (i, s) in mine.iter().enumerate() {
            assert_eq!(s.stream.group, group, "one generation per par_map");
            assert_eq!(s.stream.index, i as u32, "canonical shard order");
            assert!(s.records.iter().any(|r| r.arg == i as u64));
        }
    }

    #[test]
    fn workers_share_borrowed_environment() {
        let data: Vec<u64> = (0..500).collect();
        let sums = par_map_indexed(&ExecConfig::with_threads(4), 10, |i| {
            data[i * 50..(i + 1) * 50].iter().sum::<u64>()
        });
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }
}
