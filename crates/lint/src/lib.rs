//! **yav-lint** — the workspace-native invariant linter and dataflow
//! analysis engine.
//!
//! The compiler cannot see the invariants this workspace runs on: PR 2's
//! thread-count-invariant output, PR 3's arena/compiled bit-identity, the
//! paper's §6 requirement that the client keeps counting on malformed
//! nURLs, the telemetry naming convention the dashboards key on — and,
//! above all, the privacy contract: raw URLs, per-user browsing streams
//! and per-user ad-cost ledgers never reach an exporter or collector.
//! This crate checks them statically, offline, with zero dependencies: a
//! hand-rolled lexer ([`lexer`]) feeds a token-stream rule engine
//! ([`engine`]), and a second pass over the lexer output builds the
//! workspace graph — per-file symbol tables ([`symbols`]), the crate
//! DAG and an approximate call graph ([`graph`]), and a taint lattice
//! with witness paths ([`taint`]) — for the cross-file rules.
//!
//! | rule | kind | invariant |
//! |---|---|---|
//! | `nondet-iteration` | token | no `HashMap`/`HashSet` in crates whose maps reports iterate |
//! | `wall-clock-in-sim` | token | `Instant::now`/`SystemTime::now` only in `telemetry`/`bench`/`lint` |
//! | `panic-policy` | token | no `unwrap`/`expect`/`panic!` in `nurl`, `pme::engine`, `core::monitor` |
//! | `forbid-unsafe-coverage` | token | every crate root carries `#![forbid(unsafe_code)]` |
//! | `metric-name-hygiene` | token | metric literals follow `area.name[.unit]`, no collisions |
//! | `money-cast` | token | no raw casts around `Cpm` fixed-point money outside `yav-types` |
//! | `alloc-in-reject-path` | token | zero allocations on the borrowed parser's reject path |
//! | `span-hygiene` | token | `span!`/`instant!` names follow `area.op`; guards are bound |
//! | `stream-materialize` | token | no population-sized state in the streaming modules |
//! | `privacy-taint` | graph | tainted types never reach exporter/collector sinks unsanitized |
//! | `boundary-escape` | graph | monitor pub API exposes no raw per-user state across the crate |
//! | `layering` | graph | the crate DAG matches `lint.toml [layering]`; no back-edges |
//! | `stale-allow` | audit | every suppression still silences a live finding |
//!
//! False positives are silenced inline with
//! `// yav-lint: allow(<rule>) — <reason>`; the reason is mandatory and
//! a reasonless or malformed suppression is itself reported
//! (`bad-suppression`), as is one that no longer suppresses anything
//! (`stale-allow`). Run it as `cargo run -p yav-lint --release`; add
//! `--format json|sarif` for machine-readable output.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod engine;
pub mod graph;
pub mod lexer;
pub mod lints_doc;
pub mod metrics_doc;
pub mod output;
pub mod rules;
pub mod source;
pub mod symbols;
pub mod taint;

pub use config::LintConfig;
pub use engine::{
    analyze, lint_files, lint_source, lint_workspace, load_workspace, Diagnostic, GraphStats,
    LintOutcome, SuppressionSite,
};
pub use source::{FileKind, SourceFile};

use std::path::Path;

/// Renders the metric registry for a lint outcome.
pub fn metrics_markdown(outcome: &LintOutcome) -> String {
    metrics_doc::render(&outcome.metrics)
}

/// Renders the lint catalog (rules + suppression inventory).
pub fn lints_markdown(outcome: &LintOutcome) -> String {
    lints_doc::render(outcome)
}

/// Compares the rendered registry against `docs/METRICS.md` on disk and
/// appends a staleness diagnostic when they differ (or the file is
/// missing).
pub fn check_metrics_doc(root: &Path, outcome: &mut LintOutcome) {
    let rendered = metrics_markdown(outcome);
    let on_disk = std::fs::read_to_string(root.join("docs/METRICS.md")).unwrap_or_default();
    if rendered != on_disk {
        outcome.diagnostics.push(Diagnostic {
            rule: "metric-name-hygiene",
            rel: "docs/METRICS.md".to_owned(),
            line: 1,
            col: 1,
            message: "stale metric registry: regenerate with \
                      `cargo run -p yav-lint -- --write-metrics-doc`"
                .to_owned(),
        });
    }
}

/// Compares the rendered lint catalog against `docs/LINTS.md` on disk
/// and appends a staleness diagnostic when they differ (or the file is
/// missing).
pub fn check_lints_doc(root: &Path, outcome: &mut LintOutcome) {
    let rendered = lints_markdown(outcome);
    let on_disk = std::fs::read_to_string(root.join("docs/LINTS.md")).unwrap_or_default();
    if rendered != on_disk {
        outcome.diagnostics.push(Diagnostic {
            rule: "stale-allow",
            rel: "docs/LINTS.md".to_owned(),
            line: 1,
            col: 1,
            message: "stale lint catalog: regenerate with \
                      `cargo run -p yav-lint -- --write-lints-doc`"
                .to_owned(),
        });
    }
}
