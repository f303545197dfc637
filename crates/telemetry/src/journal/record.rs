//! Compact journal records and the global span-name interner.
//!
//! A [`TraceRecord`] is 24 bytes: logical sequence numbers instead of
//! wall-clock timestamps (so traces of a deterministic run are
//! themselves deterministic, and no traced crate reads the clock
//! outside a span), and an interned [`NameId`] instead of a
//! string. Call sites resolve names once into [`SpanName`] handles —
//! [`crate::span!`] and [`crate::instant!`] keep them in a per-site
//! `static` — so the record path never touches the interner lock.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// An interned span name: index into the process-wide name table.
pub type NameId = u16;

/// A pre-resolved span name handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SpanName(NameId);

impl SpanName {
    /// The interned id.
    pub(crate) fn id(self) -> NameId {
        self.0
    }
}

/// What a record marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened; `parent` is the enclosing span's begin sequence.
    Begin,
    /// A span closed; `parent` is the matching begin sequence.
    End,
    /// A point event (drop, detection, phase marker).
    Instant,
}

/// Sentinel `parent` for records with no enclosing span.
pub const NO_PARENT: u32 = u32::MAX;

/// One journal entry. `seq` is a logical clock local to its stream;
/// the pair `(stream, seq)` orders the whole trace canonically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Stream-local logical sequence number (0-based, dense).
    pub seq: u32,
    /// Begin-seq of the causal parent, or [`NO_PARENT`].
    pub parent: u32,
    /// Interned span name.
    pub name: NameId,
    /// Begin / End / Instant.
    pub kind: EventKind,
    /// Free payload: batch size, drop reason, row count.
    pub arg: u64,
}

#[derive(Debug, Default)]
struct Interner {
    by_name: BTreeMap<String, NameId>,
    names: Vec<String>,
}

fn interner() -> &'static RwLock<Interner> {
    static NAMES: OnceLock<RwLock<Interner>> = OnceLock::new();
    NAMES.get_or_init(|| RwLock::new(Interner::default()))
}

/// Interns `name` and returns its handle. Called once per site; the
/// record path then never locks. The table is append-only and capped at
/// `u16::MAX` distinct names — far above the workspace's span
/// vocabulary; later names saturate onto the last slot rather than
/// panicking.
pub(crate) fn span_name(name: &str) -> SpanName {
    if let Some(&id) = interner().read().by_name.get(name) {
        return SpanName(id);
    }
    let mut w = interner().write();
    if let Some(&id) = w.by_name.get(name) {
        return SpanName(id);
    }
    let id = w.names.len().min(NameId::MAX as usize) as NameId;
    if (id as usize) == w.names.len() {
        w.names.push(name.to_owned());
    }
    w.by_name.insert(name.to_owned(), id);
    SpanName(id)
}

/// The string for an interned id (`"?"` for an id this process never
/// interned).
pub fn name_of(id: NameId) -> String {
    interner()
        .read()
        .names
        .get(id as usize)
        .cloned()
        .unwrap_or_else(|| "?".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = span_name("test.roundtrip");
        let b = span_name("test.roundtrip");
        assert_eq!(a, b);
        assert_eq!(name_of(a.id()), "test.roundtrip");
    }
}
