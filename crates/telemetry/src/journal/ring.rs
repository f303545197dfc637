//! The fixed-size per-stream ring journal.
//!
//! Each `TraceRing` has exactly one owner — a thread (via the
//! journal's thread-local) or one shard task inside a
//! [`super::stream_scope`] — so the record path takes no lock and no
//! atomic: bump a plain counter, write one slot. When the ring is full
//! the oldest records are overwritten and counted in `dropped`, so a
//! runaway span can never grow memory.

use super::record::{EventKind, SpanName, TraceRecord, NO_PARENT};

/// Identifies one record stream in the canonical merge order.
///
/// `group` 0 holds free-running threads (the main thread is `t0` in
/// practice); each `par_map` invocation takes the next group number and
/// its shards become `(group, shard_index)`. Sorting by
/// `(group, index)` therefore yields: main-thread narrative first, then
/// every fan-out in invocation order, shards in shard order — identical
/// no matter which worker thread ran which shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId {
    /// 0 for free-running threads; `par_map` generation otherwise.
    pub group: u32,
    /// Thread number within group 0, shard index otherwise.
    pub index: u32,
}

impl StreamId {
    /// Stable display label: `t<index>` for free-running threads,
    /// `g<group>.s<index>` for scoped shard streams.
    pub fn label(&self) -> String {
        if self.group == 0 {
            format!("t{}", self.index)
        } else {
            format!("g{}.s{}", self.group, self.index)
        }
    }
}

/// A bounded, single-owner event journal.
#[derive(Debug)]
pub(crate) struct TraceRing {
    stream: StreamId,
    /// Cross-stream causal origin: the `(stream, begin seq)` under which
    /// this stream was spawned, if any.
    origin: Option<(StreamId, u32)>,
    records: Vec<TraceRecord>,
    /// Index of the oldest record once the ring has wrapped.
    start: usize,
    capacity: usize,
    next_seq: u32,
    dropped: u64,
    /// Begin-seqs of currently open spans, innermost last.
    stack: Vec<u32>,
}

impl TraceRing {
    /// An empty ring for `stream` holding at most `capacity` records
    /// (minimum 8 — a zero-size ring would make every record a drop and
    /// every export empty for no benefit).
    pub fn new(stream: StreamId, capacity: usize) -> TraceRing {
        let capacity = capacity.max(8);
        TraceRing {
            stream,
            origin: None,
            records: Vec::new(),
            start: 0,
            capacity,
            next_seq: 0,
            dropped: 0,
            stack: Vec::new(),
        }
    }

    pub(crate) fn set_origin(&mut self, origin: Option<(StreamId, u32)>) {
        self.origin = origin;
    }

    /// This ring's stream id.
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    fn push(&mut self, record: TraceRecord) {
        if self.records.len() < self.capacity {
            self.records.push(record);
        } else {
            self.records[self.start] = record;
            self.start = (self.start + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn next_seq(&mut self) -> u32 {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        seq
    }

    /// Opens a span; returns its begin seq for the matching
    /// [`TraceRing::end`].
    pub fn begin(&mut self, name: SpanName, arg: u64) -> u32 {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let seq = self.next_seq();
        self.stack.push(seq);
        self.push(TraceRecord {
            seq,
            parent,
            name: name.id(),
            kind: EventKind::Begin,
            arg,
        });
        seq
    }

    /// Closes the span opened at `begin_seq`. Spans close LIFO (RAII
    /// guards enforce this); a mismatched close is recorded anyway and
    /// the stack unwound to it, so one leaked guard cannot corrupt the
    /// rest of the journal.
    pub fn end(&mut self, begin_seq: u32, name: SpanName) {
        while let Some(top) = self.stack.pop() {
            if top == begin_seq {
                break;
            }
        }
        let seq = self.next_seq();
        self.push(TraceRecord {
            seq,
            parent: begin_seq,
            name: name.id(),
            kind: EventKind::End,
            arg: 0,
        });
    }

    /// Begin-seq of the innermost open span, if any.
    pub fn current_span(&self) -> Option<u32> {
        self.stack.last().copied()
    }

    /// Records a point event under the currently open span.
    pub fn instant(&mut self, name: SpanName, arg: u64) {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let seq = self.next_seq();
        self.push(TraceRecord {
            seq,
            parent,
            name: name.id(),
            kind: EventKind::Instant,
            arg,
        });
    }

    /// Freezes the ring into an exportable stream: records in seq order
    /// (oldest surviving first).
    pub fn into_stream(self) -> StreamTrace {
        let mut records = self.records;
        records.rotate_left(self.start);
        StreamTrace {
            stream: self.stream,
            origin: self.origin,
            records,
            dropped: self.dropped,
        }
    }
}

/// One stream's frozen records, ready for merging and export.
#[derive(Debug, Clone)]
pub struct StreamTrace {
    /// Which stream these records belong to.
    pub stream: StreamId,
    /// Cross-stream causal origin (`par_map` caller's open span).
    pub origin: Option<(StreamId, u32)>,
    /// Records in logical order, oldest surviving first.
    pub records: Vec<TraceRecord>,
    /// Records lost to ring wrap-around.
    pub dropped: u64,
}

/// A full drained trace: streams in canonical `(group, index)` order.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Streams sorted by `(group, index)`.
    pub streams: Vec<StreamTrace>,
}

impl Trace {
    /// Total records across all streams.
    pub fn len(&self) -> usize {
        self.streams.iter().map(|s| s.records.len()).sum()
    }

    /// True when no stream holds any record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records lost to ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.streams.iter().map(|s| s.dropped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::record::span_name;

    fn sid() -> StreamId {
        StreamId { group: 0, index: 0 }
    }

    #[test]
    fn ring_orders_and_nests() {
        let mut r = TraceRing::new(sid(), 64);
        let outer = span_name("test.outer");
        let inner = span_name("test.inner");
        let a = r.begin(outer, 0);
        let b = r.begin(inner, 0);
        r.instant(span_name("test.tick"), 42);
        r.end(b, inner);
        r.end(a, outer);
        let s = r.into_stream();
        assert_eq!(s.records.len(), 5);
        assert_eq!(s.records[0].parent, NO_PARENT);
        assert_eq!(s.records[1].parent, a);
        assert_eq!(s.records[2].parent, b);
        assert_eq!(s.records[2].arg, 42);
        let seqs: Vec<u32> = s.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn full_ring_drops_oldest() {
        let mut r = TraceRing::new(sid(), 8);
        let tick = span_name("test.tick");
        for i in 0..20u64 {
            r.instant(tick, i);
        }
        let s = r.into_stream();
        assert_eq!(s.records.len(), 8);
        // Oldest survivor first, newest last.
        assert_eq!(s.records.first().map(|r| r.arg), Some(12));
        assert_eq!(s.records.last().map(|r| r.arg), Some(19));
        assert_eq!(s.dropped, 12);
    }

    #[test]
    fn mismatched_end_unwinds_stack() {
        let mut r = TraceRing::new(sid(), 16);
        let outer = span_name("test.outer");
        let inner = span_name("test.inner");
        let a = r.begin(outer, 0);
        let _b = r.begin(inner, 0);
        // Close outer while inner is still open: stack unwinds past it.
        r.end(a, outer);
        let root = span_name("test.tick");
        r.instant(root, 0);
        let s = r.into_stream();
        assert_eq!(s.records.last().map(|r| r.parent), Some(NO_PARENT));
    }
}
