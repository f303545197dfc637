//! `metric-name-hygiene`: harvest every telemetry metric literal in the
//! workspace, enforce the `area.name[.unit]` convention, and reject
//! kind collisions and idiom duplicates.
//!
//! Harvest sites are the yav-telemetry registration idioms:
//! `counter("…")`, `gauge("…")`, `histogram("…")` and `span!("…")`. A
//! span named `x` records the histogram `x.us`, so spans are registered
//! under that derived name. `instant!("…")` records no metric, but its
//! journal name is checked against the same convention. Conditional
//! registrations (`counter(match … { … })`,
//! `gauge(if … { "a" } else { "b" })`) are handled by harvesting every
//! string literal inside the call's balanced parentheses.
//!
//! The harvest doubles as the source of the generated `docs/METRICS.md`
//! registry ([`crate::metrics_doc`]).

use crate::engine::{Diagnostic, Rule};
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// Valid first segments: one per workspace crate, plus the root facade,
/// `ingest` (the cross-crate request-ingestion surface: the monitor and
/// analyzer both report under it), `health` (the SLO engine's
/// cross-area reporting surface), `monitor` (the on-device YourAdValue
/// monitor and its multi-tenant store) and `world` (the world builders:
/// materialising and streaming).
pub(crate) const AREAS: &[&str] = &[
    "analyzer",
    "auction",
    "bench",
    "campaign",
    "core",
    "crypto",
    "exec",
    "health",
    "ingest",
    "ml",
    "monitor",
    "nurl",
    "pme",
    "root",
    "stats",
    "telemetry",
    "trace",
    "types",
    "weblog",
    "world",
];

/// The lint crate's sources talk *about* metrics, so it is no harvest
/// site. The telemetry crate is: its journal counts flushes in the
/// registry (`trace.*`), while its primitives take names as parameters,
/// never literals.
const EXEMPT_CRATES: &[&str] = &["lint"];

/// One harvested metric.
#[derive(Debug, Clone)]
pub struct MetricEntry {
    /// Full dotted name (spans appear under their derived `<name>.us`).
    pub name: String,
    /// `counter`, `gauge` or `histogram`.
    pub kind: &'static str,
    /// Registered through `span!` rather than directly.
    pub via_span: bool,
    /// Every `(workspace-relative path, line)` registering the name.
    pub sites: Vec<(String, u32)>,
}

/// The stateful harvesting rule.
pub struct MetricNameRule {
    entries: BTreeMap<String, MetricEntry>,
}

impl MetricNameRule {
    /// An empty harvest.
    pub fn new() -> MetricNameRule {
        MetricNameRule {
            entries: BTreeMap::new(),
        }
    }

    /// The harvest, sorted by name.
    pub fn into_entries(self) -> Vec<MetricEntry> {
        self.entries.into_values().collect()
    }

    fn register(
        &mut self,
        name: &str,
        kind: &'static str,
        via_span: bool,
        file: &SourceFile,
        site: (u32, u32),
        out: &mut Vec<Diagnostic>,
    ) {
        let (line, col) = site;
        let mut diag = |message: String| {
            out.push(Diagnostic {
                rule: "metric-name-hygiene",
                rel: file.rel.clone(),
                line,
                col,
                message,
            });
        };
        if let Some(why) = bad_name(name) {
            let what = if via_span { "span" } else { "metric" };
            diag(format!("{what} name `{name}` {why}"));
            return;
        }
        let full = if via_span {
            format!("{name}.us")
        } else {
            name.to_owned()
        };
        match self.entries.get_mut(&full) {
            None => {
                self.entries.insert(
                    full.clone(),
                    MetricEntry {
                        name: full,
                        kind,
                        via_span,
                        sites: vec![(file.rel.clone(), line)],
                    },
                );
            }
            Some(existing) => {
                if existing.kind != kind {
                    diag(format!(
                        "metric `{full}` collides: registered as {} at {}:{}, but as {kind} here",
                        existing.kind, existing.sites[0].0, existing.sites[0].1
                    ));
                } else if existing.via_span != via_span {
                    diag(format!(
                        "metric `{full}` is recorded both via span!() and a direct histogram \
                         (first site {}:{}) — pick one idiom",
                        existing.sites[0].0, existing.sites[0].1
                    ));
                } else {
                    existing.sites.push((file.rel.clone(), line));
                }
            }
        }
    }
}

impl Default for MetricNameRule {
    fn default() -> Self {
        MetricNameRule::new()
    }
}

/// Why a name violates `area.name[.unit]`, or `None` when it is fine.
fn bad_name(name: &str) -> Option<&'static str> {
    let segments: Vec<&str> = name.split('.').collect();
    if !(2..=4).contains(&segments.len()) {
        return Some("must have 2–4 dot-separated segments (`area.name[.unit]`)");
    }
    for s in &segments {
        let mut chars = s.chars();
        let ok_head = chars.next().is_some_and(|c| c.is_ascii_lowercase());
        if !ok_head || !chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_') {
            return Some("segments must match `[a-z][a-z0-9_]*`");
        }
    }
    if !AREAS.contains(&segments[0]) {
        return Some("first segment must be a workspace area (crate name or `root`)");
    }
    None
}

impl Rule for MetricNameRule {
    fn name(&self) -> &'static str {
        "metric-name-hygiene"
    }

    fn check(&mut self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if EXEMPT_CRATES.contains(&file.crate_name.as_str()) {
            return;
        }
        let toks = &file.tokens;
        let mut i = 0usize;
        while i < toks.len() {
            if file.in_test_code(toks[i].line) {
                i += 1;
                continue;
            }
            // Direct registrations: counter("…"), gauge("…"),
            // histogram("…") — harvest every literal inside the call.
            let direct: Option<&'static str> = ["counter", "gauge", "histogram"]
                .into_iter()
                .find(|k| toks[i].is_ident(k));
            if let Some(kind) = direct {
                if toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                    i = self.harvest_call(kind, false, i + 2, file, out);
                    continue;
                }
            }
            // The journal idioms: span!("…") and instant!("…"), whose
            // name is the first token, a literal by macro contract.
            let is_span = toks[i].is_ident("span");
            if (is_span || toks[i].is_ident("instant"))
                && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            {
                if is_span {
                    i = self.harvest_call("histogram", true, i + 3, file, out);
                    continue;
                }
                if let Some(t) = toks.get(i + 3).filter(|t| t.kind == TokenKind::Str) {
                    if let Some(why) = bad_name(&t.text) {
                        out.push(Diagnostic {
                            rule: "metric-name-hygiene",
                            rel: file.rel.clone(),
                            line: t.line,
                            col: t.col,
                            message: format!("instant name `{}` {why}", t.text),
                        });
                    }
                }
            }
            i += 1;
        }
    }
}

impl MetricNameRule {
    /// Harvests every string literal inside a call's balanced parens
    /// (depth starts at 1, i.e. `from` points just past the opening
    /// `(`). Returns the index after the closing paren. Literals with
    /// `{` or `\` are format strings the static pass cannot resolve and
    /// are skipped.
    fn harvest_call(
        &mut self,
        kind: &'static str,
        via_span: bool,
        from: usize,
        file: &SourceFile,
        out: &mut Vec<Diagnostic>,
    ) -> usize {
        let toks = &file.tokens;
        let mut depth = 1usize;
        let mut j = from;
        while j < toks.len() && depth > 0 {
            if toks[j].is_punct('(') {
                depth += 1;
            } else if toks[j].is_punct(')') {
                depth -= 1;
            } else if toks[j].kind == TokenKind::Str
                && !toks[j].text.contains('{')
                && !toks[j].text.contains('\\')
            {
                let (name, line, col) = (toks[j].text.clone(), toks[j].line, toks[j].col);
                self.register(&name, kind, via_span, file, (line, col), out);
            }
            j += 1;
        }
        j
    }
}
