//! Renders the harvested metric registry as `docs/METRICS.md`.
//!
//! The file is generated — `cargo run -p yav-lint -- --write-metrics-doc`
//! rewrites it, and the default lint run diffs the rendering against the
//! checked-in copy so CI catches staleness.

use crate::rules::metric_name::MetricEntry;
use std::fmt::Write as _;

/// Renders the registry. Deterministic: entries arrive sorted by name and
/// sites are workspace-relative files in walk order, each listed once. A
/// site names no line, so an edit that only shifts lines leaves the
/// registry fresh.
pub fn render(entries: &[MetricEntry]) -> String {
    let mut out = String::new();
    out.push_str("# Metric registry\n\n");
    out.push_str(
        "Generated by `cargo run -p yav-lint -- --write-metrics-doc` — do not edit by hand.\n\
         CI fails when this file is stale.\n\n\
         Names follow `area.name[.unit]` (see DESIGN.md §9 and §12). Spans appear under\n\
         their derived `<name>.us` histogram.\n\n",
    );
    writeln!(out, "{} metrics.\n", entries.len()).ok();
    out.push_str("| Metric | Kind | Registered at |\n|---|---|---|\n");
    for e in entries {
        let kind = if e.via_span {
            "histogram (span)".to_owned()
        } else {
            e.kind.to_owned()
        };
        let mut sites: Vec<String> = e.sites.iter().map(|(rel, _)| format!("`{rel}`")).collect();
        sites.dedup();
        writeln!(out, "| `{}` | {} | {} |", e.name, kind, sites.join(", ")).ok();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_sorted_table() {
        let entries = vec![
            MetricEntry {
                name: "auction.market.runs".into(),
                kind: "counter",
                via_span: false,
                sites: vec![("crates/auction/src/market.rs".into(), 10)],
            },
            MetricEntry {
                name: "weblog.generator.run.us".into(),
                kind: "histogram",
                via_span: true,
                sites: vec![("crates/auction/src/market.rs".into(), 9)],
            },
        ];
        let md = render(&entries);
        assert!(md.contains("| `auction.market.runs` | counter | `crates/auction/src/market.rs` |"));
        assert!(md.contains("histogram (span)"));
        assert!(md.contains("2 metrics."));
    }
}
