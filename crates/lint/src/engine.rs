//! The rule engine: diagnostics, the pluggable [`Rule`] trait, workspace
//! file discovery, the graph-pass driver, and the lint driver that
//! applies suppressions and audits them for staleness.

use crate::config::LintConfig;
use crate::graph::{load_manifests, Graph, Manifest};
use crate::rules::metric_name::{MetricEntry, MetricNameRule};
use crate::rules::{boundary_escape, layering, privacy_taint};
use crate::source::{FileKind, SourceFile};
use crate::taint;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One finding, addressed `file:line:col`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub rel: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.rel, self.line, self.col, self.rule, self.message
        )
    }
}

/// A token-stream rule. Rules hold state (`&mut self`) so cross-file
/// rules like metric harvesting can accumulate.
pub trait Rule {
    /// The rule's kebab-case name, as used in `allow(...)`.
    fn name(&self) -> &'static str;
    /// Inspects one file and appends findings.
    fn check(&mut self, file: &SourceFile, out: &mut Vec<Diagnostic>);
}

/// One live suppression site (for the `docs/LINTS.md` inventory).
#[derive(Debug, Clone)]
pub struct SuppressionSite {
    /// Workspace-relative path.
    pub rel: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// The suppressed rules.
    pub rules: Vec<String>,
    /// The written justification.
    pub reason: String,
}

/// Sizes of the workspace graph the passes ran over.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphStats {
    /// Crates with a dependency entry (manifest or config).
    pub crates: usize,
    /// Production fns indexed.
    pub fns: usize,
    /// Resolved call edges.
    pub call_edges: usize,
    /// Fns that can observe tainted data.
    pub tainted_fns: usize,
}

/// The result of a lint pass.
#[derive(Debug)]
pub struct LintOutcome {
    /// Findings that survived suppression, sorted by path then position.
    pub diagnostics: Vec<Diagnostic>,
    /// Every telemetry metric harvested from the workspace.
    pub metrics: Vec<MetricEntry>,
    /// How many files were scanned.
    pub files_scanned: usize,
    /// Every live suppression in the workspace, sorted by site.
    pub suppressions: Vec<SuppressionSite>,
    /// Graph-pass sizes.
    pub graph: GraphStats,
}

/// Runs the full engine — token rules, graph passes, the suppression
/// filter and the stale-allow audit — over prepared files, manifests
/// and config.
pub fn analyze(files: &[SourceFile], manifests: &[Manifest], config: &LintConfig) -> LintOutcome {
    let mut rules = crate::rules::all();
    let mut metric_rule = MetricNameRule::new();
    let mut raw: Vec<Diagnostic> = Vec::new();

    for file in files {
        for rule in &mut rules {
            rule.check(file, &mut raw);
        }
        metric_rule.check(file, &mut raw);
        for (line, why) in &file.malformed_suppressions {
            raw.push(Diagnostic {
                rule: "bad-suppression",
                rel: file.rel.clone(),
                line: *line,
                col: 1,
                message: why.clone(),
            });
        }
    }

    // Graph passes: symbol tables → crate/call graph → taint lattice.
    let graph = Graph::build(files, manifests, config);
    let taints = taint::analyze(&graph, config);
    privacy_taint::check(&graph, &taints, config, &mut raw);
    boundary_escape::check(&graph, config, &mut raw);
    layering::check(files, manifests, &graph, config, &mut raw);
    let stats = GraphStats {
        crates: graph.crate_deps.len(),
        fns: graph.fns.len(),
        call_edges: graph.call_edges,
        tainted_fns: taints.tainted_count(),
    };

    // Stale-allow audit: a suppression that silences nothing is itself
    // a finding, so the inventory in docs/LINTS.md stays honest.
    let mut suppression_sites = Vec::new();
    for file in files {
        for s in &file.suppressions {
            let live = raw.iter().any(|d| {
                d.rel == file.rel
                    && (d.line == s.line || d.line == s.line + 1)
                    && s.rules.iter().any(|r| r == d.rule)
            });
            if live {
                suppression_sites.push(SuppressionSite {
                    rel: file.rel.clone(),
                    line: s.line,
                    rules: s.rules.clone(),
                    reason: s.reason.clone(),
                });
            } else {
                raw.push(Diagnostic {
                    rule: "stale-allow",
                    rel: file.rel.clone(),
                    line: s.line,
                    col: 1,
                    message: format!(
                        "suppression `allow({})` no longer silences any finding: \
                         delete the comment (or fix the rule name) so the \
                         suppression inventory stays honest",
                        s.rules.join(", ")
                    ),
                });
            }
        }
    }
    suppression_sites.sort_by(|a, b| (a.rel.as_str(), a.line).cmp(&(b.rel.as_str(), b.line)));

    let by_rel: BTreeMap<&str, &SourceFile> = files.iter().map(|f| (f.rel.as_str(), f)).collect();
    let mut diagnostics: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|d| {
            // A suppression silences the rule it names; bad-suppression
            // and stale-allow findings themselves cannot be silenced.
            d.rule == "bad-suppression"
                || d.rule == "stale-allow"
                || !by_rel
                    .get(d.rel.as_str())
                    .is_some_and(|f| f.suppressed(d.rule, d.line))
        })
        .collect();
    diagnostics.sort_by(|a, b| {
        (a.rel.as_str(), a.line, a.col, a.rule).cmp(&(b.rel.as_str(), b.line, b.col, b.rule))
    });

    LintOutcome {
        diagnostics,
        metrics: metric_rule.into_entries(),
        files_scanned: files.len(),
        suppressions: suppression_sites,
        graph: stats,
    }
}

/// Lints a set of prepared files with the full rule set under the
/// compiled-in config and no manifests (fixture entry point).
pub fn lint_files(files: &[SourceFile]) -> LintOutcome {
    analyze(files, &[], &LintConfig::builtin())
}

/// Lints one in-memory source under an assumed identity — the fixture
/// tests' entry point.
pub fn lint_source(rel: &str, crate_name: &str, kind: FileKind, src: &str) -> Vec<Diagnostic> {
    let file = SourceFile::new(rel.to_owned(), crate_name.to_owned(), kind, src);
    lint_files(std::slice::from_ref(&file)).diagnostics
}

/// Discovers and lexes every workspace source file:
/// `crates/*/{src,tests,examples}` plus the root facade's `src/`. Shims
/// are excluded — they are vendored stand-ins for external crates, not
/// project code — as are `tests/fixtures/` directories (lint test data,
/// deliberately full of violations).
pub fn load_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        load_package(root, &dir, &name, &mut files)?;
    }
    load_package(root, root, "root", &mut files)?;
    Ok(files)
}

fn load_package(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    files: &mut Vec<SourceFile>,
) -> io::Result<()> {
    const TREES: [(&str, FileKind); 3] = [
        ("src", FileKind::Source),
        ("tests", FileKind::Test),
        ("examples", FileKind::Example),
    ];
    for (sub, kind) in TREES {
        let tree = dir.join(sub);
        if tree.is_dir() {
            collect_rs(root, &tree, crate_name, kind, files)?;
        }
    }
    Ok(())
}

fn collect_rs(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    kind: FileKind,
    files: &mut Vec<SourceFile>,
) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs(root, &path, crate_name, kind, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(SourceFile::new(rel, crate_name.to_owned(), kind, &src));
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`: loads `lint.toml` (or
/// the compiled-in policy), every source file and every manifest, then
/// runs token and graph passes.
pub fn lint_workspace(root: &Path) -> io::Result<LintOutcome> {
    let config = LintConfig::load(root).map_err(io::Error::other)?;
    let files = load_workspace(root)?;
    let manifests = load_manifests(root)?;
    Ok(analyze(&files, &manifests, &config))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(rel: &str, krate: &str, src: &str) -> LintOutcome {
        let file = SourceFile::new(rel.to_owned(), krate.to_owned(), FileKind::Source, src);
        lint_files(std::slice::from_ref(&file))
    }

    #[test]
    fn live_suppression_silences_and_joins_the_inventory() {
        let o = outcome(
            "crates/analyzer/src/x.rs",
            "analyzer",
            "// yav-lint: allow(nondet-iteration) — keyed lookups only, never iterated\n\
             fn f(m: &std::collections::HashMap<u32, u32>) -> u32 { 0 }\n",
        );
        assert!(
            !o.diagnostics.iter().any(|d| d.rule == "nondet-iteration"),
            "the finding must be silenced: {:?}",
            o.diagnostics
        );
        assert!(
            !o.diagnostics.iter().any(|d| d.rule == "stale-allow"),
            "a live suppression is not stale: {:?}",
            o.diagnostics
        );
        assert_eq!(o.suppressions.len(), 1, "the site is live and inventoried");
        assert_eq!(o.suppressions[0].line, 1);
        assert_eq!(
            o.suppressions[0].reason,
            "keyed lookups only, never iterated"
        );
    }

    #[test]
    fn stale_suppression_is_a_finding_and_leaves_the_inventory() {
        let o = outcome(
            "crates/analyzer/src/x.rs",
            "analyzer",
            "// yav-lint: allow(nondet-iteration) — nothing here uses a map\n\
             fn f() -> u32 { 0 }\n",
        );
        let stale: Vec<_> = o
            .diagnostics
            .iter()
            .filter(|d| d.rule == "stale-allow")
            .collect();
        assert_eq!(
            stale.len(),
            1,
            "exactly one stale site: {:?}",
            o.diagnostics
        );
        assert_eq!(stale[0].line, 1);
        assert!(stale[0].message.contains("allow(nondet-iteration)"));
        assert!(o.suppressions.is_empty(), "stale sites are not inventoried");
    }

    #[test]
    fn stale_allow_findings_cannot_be_suppressed() {
        // A suppression naming stale-allow itself silences nothing (the
        // audit is unsuppressable), so it is reported stale.
        let o = outcome(
            "crates/analyzer/src/x.rs",
            "analyzer",
            "// yav-lint: allow(stale-allow) — trying to silence the auditor\n\
             fn f() -> u32 { 0 }\n",
        );
        assert!(
            o.diagnostics.iter().any(|d| d.rule == "stale-allow"),
            "the audit must survive attempts to silence it: {:?}",
            o.diagnostics
        );
    }
}
