//! Call-site state behind [`crate::span!`] and [`crate::instant!`], and
//! the [`Span`] guard.
//!
//! Each macro expansion declares one `static` site. A span site
//! resolves its registry histogram `<name>.us` and its journal name on
//! first use, so every later call skips the registry lock and the
//! interner; an instant site resolves only its journal name, and only
//! once the journal is on.

use crate::journal::{self, SpanName};
use crate::Histogram;
use std::sync::OnceLock;
use std::time::Instant;

/// What a span site resolves once.
#[derive(Debug)]
struct Resolved {
    histogram: Histogram,
    name: SpanName,
}

/// One `span!` call site (macro support).
#[doc(hidden)]
#[derive(Debug)]
pub struct SpanSite {
    name: &'static str,
    resolved: OnceLock<Resolved>,
}

impl SpanSite {
    /// A site for the span `name`; nothing is resolved yet.
    pub const fn new(name: &'static str) -> SpanSite {
        SpanSite {
            name,
            resolved: OnceLock::new(),
        }
    }

    /// Opens a span: a Begin record when the journal is on, then the
    /// clock starts.
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "spans are the workspace's one timer: they time work, never steer it"
    )]
    pub fn enter(&'static self, arg: u64) -> Span {
        let site = self.resolved.get_or_init(|| Resolved {
            histogram: crate::histogram(&format!("{}.us", self.name)),
            name: journal::span_name(self.name),
        });
        let begin = journal::enabled().then(|| journal::begin(site.name, arg));
        Span {
            site,
            begin,
            start: Instant::now(),
        }
    }
}

/// An open span from [`crate::span!`]. On drop it records the elapsed
/// microseconds into `<name>.us` and, if it wrote a Begin, the matching
/// End.
#[derive(Debug)]
#[must_use = "binding to _ drops the span immediately and times nothing"]
pub struct Span {
    site: &'static Resolved,
    begin: Option<u32>,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        let us = self.start.elapsed().as_secs_f64() * 1e6;
        self.site.histogram.observe(us);
        if let Some(seq) = self.begin {
            journal::end(seq, self.site.name);
        }
    }
}

/// One `instant!` call site (macro support).
#[doc(hidden)]
#[derive(Debug)]
pub struct InstantSite {
    name: &'static str,
    resolved: OnceLock<SpanName>,
}

impl InstantSite {
    /// A site for the point event `name`; nothing is resolved yet.
    pub const fn new(name: &'static str) -> InstantSite {
        InstantSite {
            name,
            resolved: OnceLock::new(),
        }
    }

    /// Writes an Instant record when the journal is on; one relaxed
    /// load and a branch when it is off.
    #[inline]
    pub fn record(&'static self, arg: u64) {
        if journal::enabled() {
            let name = *self.resolved.get_or_init(|| journal::span_name(self.name));
            journal::instant(name, arg);
        }
    }
}
