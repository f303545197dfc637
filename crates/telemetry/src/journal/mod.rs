//! The causal journal behind [`crate::span!`] and [`crate::instant!`]:
//! the kill switch, per-thread rings, shard stream scopes and the
//! canonical drain.
//!
//! Where the registry answers "how many, how slow on aggregate", the
//! journal answers "which request, which stage, in what order". Records
//! carry **logical sequence numbers**, never a wall clock, so a journal
//! of a deterministic run is itself deterministic.
//!
//! Ownership model: every ring has exactly one writer. Free-running
//! threads own a thread-local ring (stream group 0); a
//! [`stream_scope`] temporarily swaps in a fresh ring for one shard
//! task, then submits it to the finished list. [`drain`] flushes the
//! calling thread's ring, takes every finished ring, and sorts streams
//! by `(group, index)` — a canonical order independent of worker
//! scheduling, so traces of a deterministic run are byte-stable across
//! thread counts.
//!
//! The journal is **off by default**. Off, a span writes no record and
//! an instant or [`stream_scope`] costs one relaxed atomic load and a
//! branch — no allocation, no TLS write. Recording never feeds back into
//! pipeline values, so world output is bit-identical with the journal
//! on or off (CI pins this).
//!
//! ```
//! use yav_telemetry::journal;
//!
//! journal::set_enabled(true);
//! {
//!     let _span = yav_telemetry::span!("ingest.observe", 2);
//!     yav_telemetry::instant!("ingest.drop", 1);
//! }
//! journal::set_enabled(false);
//! let trace = journal::drain();
//! assert_eq!(trace.len(), 3);
//! assert_eq!(journal::name_of(trace.streams[0].records[0].name), "ingest.observe");
//! journal::clear();
//! ```

mod record;
mod ring;

pub use record::{name_of, EventKind, NameId, TraceRecord, NO_PARENT};
pub(crate) use record::{span_name, SpanName};
pub use ring::{StreamId, StreamTrace, Trace};

use parking_lot::Mutex;
use ring::TraceRing;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The journal starts **off**: the monitor's default posture is no
/// journal overhead, mirroring the paper's in-browser deployment.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Capacity for rings created after the last [`set_ring_capacity`].
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);

/// Default per-stream ring capacity (records).
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// Next stream index for free-running (group-0) threads.
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

/// Next `par_map` generation; 0 is reserved for free-running threads.
static NEXT_GROUP: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static CURRENT: RefCell<Option<TraceRing>> = const { RefCell::new(None) };
}

fn finished() -> &'static Mutex<Vec<StreamTrace>> {
    static FINISHED: OnceLock<Mutex<Vec<StreamTrace>>> = OnceLock::new();
    FINISHED.get_or_init(|| Mutex::new(Vec::new()))
}

struct JournalMetrics {
    records: crate::Counter,
    streams: crate::Counter,
    dropped: crate::Counter,
}

fn journal_metrics() -> &'static JournalMetrics {
    static METRICS: OnceLock<JournalMetrics> = OnceLock::new();
    METRICS.get_or_init(|| JournalMetrics {
        records: crate::counter("trace.records_flushed"),
        streams: crate::counter("trace.streams_flushed"),
        dropped: crate::counter("trace.records_dropped"),
    })
}

/// Turns the journal on or off process-wide. Off is the default;
/// flipping mid-run is safe (a span opened while on still writes its
/// End, so its ring's stack stays balanced).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True when spans and instants write records.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the capacity (records) of rings created from now on. Existing
/// rings keep their size.
pub fn set_ring_capacity(records: usize) {
    RING_CAPACITY.store(records.max(8), Ordering::Relaxed);
}

fn capacity() -> usize {
    RING_CAPACITY.load(Ordering::Relaxed)
}

fn with_ring<R>(f: impl FnOnce(&mut TraceRing) -> R) -> R {
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let ring = cur.get_or_insert_with(|| {
            let index = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            TraceRing::new(StreamId { group: 0, index }, capacity())
        });
        f(ring)
    })
}

/// Opens a span on the calling thread's ring; returns its begin seq.
pub(crate) fn begin(name: SpanName, arg: u64) -> u32 {
    with_ring(|r| r.begin(name, arg))
}

/// Closes the span opened at `begin_seq`.
pub(crate) fn end(begin_seq: u32, name: SpanName) {
    with_ring(|r| r.end(begin_seq, name));
}

/// Records a point event under the calling thread's open span.
pub(crate) fn instant(name: SpanName, arg: u64) {
    with_ring(|r| r.instant(name, arg));
}

/// The current thread's innermost open span as a cross-stream context
/// (`(stream, begin seq)`), or `None` when untraced. `par_map` captures
/// this before fanning out so shard streams carry their causal origin.
pub fn current_ctx() -> Option<(StreamId, u32)> {
    if !enabled() {
        return None;
    }
    CURRENT.with(|c| {
        let cur = c.borrow();
        let ring = cur.as_ref()?;
        Some((ring.stream(), ring.current_span()?))
    })
}

/// Reserves the next fan-out generation number. Called once per
/// `par_map` invocation (on the coordinating thread, so generations are
/// deterministic for a deterministic call sequence).
pub fn next_group() -> u32 {
    NEXT_GROUP.fetch_add(1, Ordering::Relaxed)
}

/// Runs `f` with a fresh ring for `stream`, then submits that ring to
/// the finished list and restores the thread's previous ring. This is
/// how `yav-exec` gives each shard task its own stream no matter which
/// worker thread runs it. No-op wrapper when the journal is off.
pub fn stream_scope<R>(
    stream: StreamId,
    origin: Option<(StreamId, u32)>,
    f: impl FnOnce() -> R,
) -> R {
    if !enabled() {
        return f();
    }
    let mut ring = TraceRing::new(stream, capacity());
    ring.set_origin(origin);
    let prev = CURRENT.with(|c| c.borrow_mut().replace(ring));
    let out = f();
    let ring = CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let ring = cur.take();
        *cur = prev;
        ring
    });
    if let Some(ring) = ring {
        submit(ring);
    }
    out
}

fn submit(ring: TraceRing) {
    let s = ring.into_stream();
    let m = journal_metrics();
    m.records.add(s.records.len() as u64);
    m.dropped.add(s.dropped);
    m.streams.inc();
    finished().lock().push(s);
}

/// Takes everything journaled so far — finished shard streams plus the
/// calling thread's own ring — as one [`Trace`] in canonical stream
/// order. Leaves the collector empty.
pub fn drain() -> Trace {
    if let Some(ring) = CURRENT.with(|c| c.borrow_mut().take()) {
        submit(ring);
    }
    let mut streams: Vec<StreamTrace> = std::mem::take(&mut *finished().lock());
    streams.sort_by_key(|s| s.stream);
    Trace { streams }
}

/// Discards all collected records and resets stream numbering. Call on
/// the coordinating thread between runs (tests, repeated world builds)
/// so stream ids start from `t0`/`g1` again.
pub fn clear() {
    CURRENT.with(|c| c.borrow_mut().take());
    finished().lock().clear();
    NEXT_THREAD.store(0, Ordering::Relaxed);
    NEXT_GROUP.store(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Journal tests share the process-global collector, so they run
    /// under one lock to stay independent of test-thread scheduling.
    fn with_journal_lock<R>(f: impl FnOnce() -> R) -> R {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        clear();
        set_enabled(true);
        let out = f();
        set_enabled(false);
        clear();
        out
    }

    #[test]
    fn disabled_journal_records_nothing() {
        with_journal_lock(|| {
            set_enabled(false);
            let _s = crate::span!("core.test_span");
            crate::instant!("core.test_instant", 7);
            drop(_s);
            assert!(drain().is_empty());
        });
    }

    #[test]
    fn spans_nest_and_drain_in_order() {
        with_journal_lock(|| {
            {
                let _outer = crate::span!("core.outer", 1);
                let _inner = crate::span!("core.inner");
                crate::instant!("core.tick", 9);
            }
            let t = drain();
            assert_eq!(t.streams.len(), 1);
            let recs = &t.streams[0].records;
            assert_eq!(recs.len(), 5);
            assert_eq!(recs[0].kind, EventKind::Begin);
            assert_eq!(name_of(recs[0].name), "core.outer");
            assert_eq!(recs[0].arg, 1);
            assert_eq!(recs[1].parent, recs[0].seq);
            assert_eq!(recs[2].parent, recs[1].seq);
            // Guards drop LIFO: inner ends before outer.
            assert_eq!(name_of(recs[3].name), "core.inner");
            assert_eq!(name_of(recs[4].name), "core.outer");
        });
    }

    #[test]
    fn stream_scopes_merge_canonically() {
        with_journal_lock(|| {
            let _root = crate::span!("core.fanout_root");
            let origin = current_ctx();
            assert!(origin.is_some());
            let group = next_group();
            // Simulate shards finishing out of order.
            for index in [2u32, 0, 1] {
                stream_scope(StreamId { group, index }, origin, || {
                    let _s = crate::span!("core.shard_work", index);
                });
            }
            drop(_root);
            let t = drain();
            // Canonical order: main thread (group 0) first, then shards
            // by index — not by completion order.
            let labels: Vec<String> = t.streams.iter().map(|s| s.stream.label()).collect();
            assert_eq!(labels, vec!["t0", "g1.s0", "g1.s1", "g1.s2"]);
            for s in &t.streams[1..] {
                assert_eq!(s.origin, origin);
            }
        });
    }

    #[test]
    fn ring_capacity_bounds_memory() {
        with_journal_lock(|| {
            set_ring_capacity(16);
            for i in 0..100u64 {
                crate::instant!("core.spin", i);
            }
            let t = drain();
            set_ring_capacity(DEFAULT_RING_CAPACITY);
            assert_eq!(t.len(), 16);
            assert_eq!(t.dropped(), 84);
        });
    }
}
