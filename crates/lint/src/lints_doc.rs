//! Renders the rule catalog as `docs/LINTS.md`.
//!
//! The file is generated — `cargo run -p yav-lint -- --write-lints-doc`
//! rewrites it, and the default lint run diffs the rendering against
//! the checked-in copy so CI catches staleness. The catalog lists every
//! rule with its invariant and a representative finding, plus the
//! complete suppression inventory: every live `allow(...)` by file,
//! with its written reason. Sites are named by file alone, so an edit
//! that only shifts lines leaves the catalog fresh. The stale-allow
//! audit guarantees each listed site still silences a real finding.

use crate::engine::LintOutcome;
use crate::rules::RULE_DOCS;
use std::fmt::Write as _;

/// Renders the catalog. Deterministic: rules are in registry order and
/// suppression sites arrive sorted by path then line.
pub fn render(outcome: &LintOutcome) -> String {
    let mut out = String::new();
    out.push_str("# Lint catalog\n\n");
    out.push_str(
        "Generated by `cargo run -p yav-lint -- --write-lints-doc` — do not edit by hand.\n\
         CI fails when this file is stale.\n\n\
         Token rules scan one file's token stream; graph rules run over the workspace\n\
         graph (crate DAG, symbol tables, approximate call graph) configured by\n\
         `lint.toml`; audit rules police the suppression mechanism itself. See\n\
         DESIGN.md §12 and §17.\n\n",
    );
    writeln!(
        out,
        "{} rules, {} live suppression site(s).\n",
        RULE_DOCS.len(),
        outcome.suppressions.len()
    )
    .ok();

    out.push_str("## Rules\n\n");
    out.push_str("| Rule | Kind | Suppressions | Invariant |\n|---|---|---|---|\n");
    for doc in RULE_DOCS {
        let count = outcome
            .suppressions
            .iter()
            .filter(|s| s.rules.iter().any(|r| r == doc.name))
            .count();
        writeln!(
            out,
            "| `{}` | {} | {} | {} |",
            doc.name, doc.kind, count, doc.invariant
        )
        .ok();
    }

    out.push_str("\n## Example findings\n\n");
    for doc in RULE_DOCS {
        writeln!(out, "* `{}` —\n  `{}`", doc.name, doc.example).ok();
    }

    out.push_str("\n## Suppression inventory\n\n");
    if outcome.suppressions.is_empty() {
        out.push_str("No live suppressions.\n");
    } else {
        out.push_str(
            "Every inline `// yav-lint: allow(rule) — reason` in the workspace. The\n\
             stale-allow audit fails CI when a listed site stops silencing a finding.\n\n",
        );
        out.push_str("| File | Rule(s) | Reason |\n|---|---|---|\n");
        for s in &outcome.suppressions {
            writeln!(
                out,
                "| `{}` | `{}` | {} |",
                s.rel,
                s.rules.join("`, `"),
                s.reason.replace('|', "\\|")
            )
            .ok();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{GraphStats, SuppressionSite};

    #[test]
    fn renders_rules_and_inventory() {
        let outcome = LintOutcome {
            diagnostics: Vec::new(),
            metrics: Vec::new(),
            files_scanned: 1,
            suppressions: vec![SuppressionSite {
                rel: "crates/core/src/monitor.rs".into(),
                line: 42,
                rules: vec!["boundary-escape".into()],
                reason: "client-local API".into(),
            }],
            graph: GraphStats::default(),
        };
        let md = render(&outcome);
        assert!(md.contains("| `privacy-taint` | graph | 0 |"));
        assert!(md.contains("| `boundary-escape` | graph | 1 |"));
        assert!(
            md.contains("| `crates/core/src/monitor.rs` | `boundary-escape` | client-local API |")
        );
    }
}
