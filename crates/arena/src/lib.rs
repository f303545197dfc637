//! Per-shard bump arena for event bytes.
//!
//! The steady-state generate → market → analyze window loop must not
//! allocate per event (DESIGN.md §18). Everything textual that varies
//! only per *shard* — publisher hosts, asset paths, pre-rendered
//! user-agent strings, nURL template prefixes — is interned once into a
//! [`Bump`] at shard setup and referenced afterwards through Copy
//! [`Span`] handles. Between windows the arena is [`Bump::reset`] — the
//! length drops to zero, the capacity (and therefore the backing heap
//! block) is retained, so the next window's interning is a plain byte
//! copy into memory the shard already owns.
//!
//! This is safe Rust: spans are index pairs, not borrowed pointers, so
//! the arena can be grown and reset freely without lifetime plumbing;
//! resolving a span is one bounds-checked slice. A span outliving its
//! reset yields text from the *new* generation (or `""` when out of
//! bounds) — garbage-in-garbage-out rather than UB, and the generation
//! counter lets debug assertions catch it.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

/// A handle to an interned string: byte offset + length into the arena
/// that produced it. Copy and 8 bytes, so events carry spans by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// The empty span — resolves to `""` in any arena.
    pub const EMPTY: Span = Span { start: 0, len: 0 };

    /// Length of the interned text in bytes.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// True for the zero-length span.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// An append-only string arena: one backing `String`, bump-allocated,
/// reset (not freed) between windows.
#[derive(Debug, Default, Clone)]
pub struct Bump {
    text: String,
    generation: u64,
}

impl Bump {
    /// An empty arena.
    pub fn new() -> Bump {
        Bump::default()
    }

    /// An empty arena with `bytes` of pre-reserved capacity.
    pub fn with_capacity(bytes: usize) -> Bump {
        Bump {
            text: String::with_capacity(bytes),
            generation: 0,
        }
    }

    /// Interns `s`, returning its span. Allocation only happens when the
    /// backing buffer must grow past its high-water mark.
    pub fn push(&mut self, s: &str) -> Span {
        let start = self.text.len();
        self.text.push_str(s);
        Span {
            start: start as u32,
            len: s.len() as u32,
        }
    }

    /// Interns whatever `write` appends to the backing buffer — the
    /// `format!`-free way to intern composed strings:
    ///
    /// ```
    /// use std::fmt::Write;
    /// let mut arena = yav_arena::Bump::new();
    /// let span = arena.push_with(|out| {
    ///     let _ = write!(out, "http://www.{}/article/{}.html", "news.example", 7);
    /// });
    /// assert_eq!(arena.get(span), "http://www.news.example/article/7.html");
    /// ```
    pub fn push_with(&mut self, write: impl FnOnce(&mut String)) -> Span {
        let start = self.text.len();
        write(&mut self.text);
        Span {
            start: start as u32,
            len: (self.text.len() - start) as u32,
        }
    }

    /// Resolves a span to its text. Out-of-bounds or non-boundary spans
    /// (possible only by mixing spans across arenas or resets) resolve
    /// to `""` — fail-closed, never a panic.
    pub fn get(&self, span: Span) -> &str {
        self.text
            .get(span.start as usize..(span.start + span.len) as usize)
            .unwrap_or("")
    }

    /// Bytes currently interned.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// True when nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Capacity of the backing buffer (the retained high-water mark).
    pub fn capacity(&self) -> usize {
        self.text.capacity()
    }

    /// Resets the arena for the next window: length to zero, capacity
    /// retained, generation bumped. Spans issued before the reset are
    /// invalidated (they resolve against the new generation's bytes).
    pub fn reset(&mut self) {
        self.text.clear();
        self.generation += 1;
    }

    /// How many times this arena has been reset — lets owners assert a
    /// span belongs to the current window in debug builds.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write;

    #[test]
    fn push_get_round_trip() {
        let mut arena = Bump::new();
        let a = arena.push("hello");
        let b = arena.push("");
        let c = arena.push("world");
        assert_eq!(arena.get(a), "hello");
        assert_eq!(arena.get(b), "");
        assert_eq!(arena.get(c), "world");
        assert_eq!(arena.len(), 10);
        assert!(b.is_empty() && !c.is_empty());
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn push_with_composes_without_format() {
        let mut arena = Bump::new();
        let host = "pub.example";
        let span = arena.push_with(|out| {
            let _ = write!(out, "api.{host}/v2/feed?sess={}", 42u32);
        });
        assert_eq!(arena.get(span), "api.pub.example/v2/feed?sess=42");
    }

    #[test]
    fn reset_retains_capacity_and_bumps_generation() {
        let mut arena = Bump::with_capacity(64);
        let cap0 = arena.capacity();
        arena.push("some bytes that fit in the preallocation");
        assert_eq!(arena.generation(), 0);
        arena.reset();
        assert_eq!(arena.generation(), 1);
        assert!(arena.is_empty());
        assert_eq!(arena.capacity(), cap0, "reset must not free");
        let s = arena.push("fresh");
        assert_eq!(arena.get(s), "fresh");
    }

    #[test]
    fn stale_or_foreign_spans_fail_closed() {
        let mut arena = Bump::new();
        let span = arena.push("will dangle");
        arena.reset();
        assert_eq!(arena.get(span), "", "stale span past new length");
        let other = Bump::new();
        assert_eq!(other.get(Span { start: 900, len: 4 }), "");
        assert_eq!(other.get(Span::EMPTY), "");
    }
}
