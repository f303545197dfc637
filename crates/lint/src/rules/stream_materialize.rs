//! `stream-materialize`: no full-population collections in streaming
//! modules.
//!
//! The constant-memory pipeline (DESIGN.md §15) exists so a million-user
//! run never holds the population in RAM: the streaming world builder
//! and the multi-tenant monitor store retain only commutative aggregates
//! and fixed-size buffers. The cheapest way to break that contract is
//! one innocent-looking `Vec<HttpRequest>` that grows with the panel.
//! This rule polices the streaming modules token by token:
//!
//! * collections parameterised over per-event/per-user record types
//!   (`Vec<HttpRequest>`, `VecDeque<GroundTruth>`, …);
//! * `collect(` with an argument — `WeblogGenerator::collect(market)`,
//!   the materialise-the-whole-weblog entry point (`Iterator::collect()`
//!   takes none and is not flagged);
//! * `Retention::Full` — unbounded detection retention.
//!
//! Bounded uses (a 32-user shard block) are legitimate; suppress with
//! `// yav-lint: allow(stream-materialize) — <why it is bounded>`.

use crate::engine::{Diagnostic, Rule};
use crate::source::SourceFile;

/// Record types whose count grows with the simulated population: one
/// per user, request or impression.
const POPULATION_TYPES: &[&str] = &[
    "HttpRequest",
    "GroundTruth",
    "DetectedImpression",
    "Weblog",
    "PanelUser",
];

/// Growable collections the rule polices.
const COLLECTIONS: &[&str] = &[
    "Vec", "VecDeque", "BTreeMap", "HashMap", "BTreeSet", "HashSet",
];

/// Streaming modules: code whose contract is bounded memory.
const SCOPE: &[&str] = &["crates/bench/src/stream.rs", "crates/core/src/tenant.rs"];

/// The rule object.
pub struct StreamMaterialize;

fn in_scope(file: &SourceFile) -> bool {
    SCOPE.iter().any(|s| file.rel.ends_with(s))
}

impl Rule for StreamMaterialize {
    fn name(&self) -> &'static str {
        "stream-materialize"
    }

    fn check(&mut self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !in_scope(file) {
            return;
        }
        let report = |tok: &crate::lexer::Token, what: String, out: &mut Vec<Diagnostic>| {
            out.push(Diagnostic {
                rule: "stream-materialize",
                rel: file.rel.clone(),
                line: tok.line,
                col: tok.col,
                message: format!(
                    "{what} materialises population-sized state in a streaming module: \
                     keep only commutative aggregates or fixed-size buffers here, or \
                     justify the bound with an allow comment (DESIGN.md §15)"
                ),
            });
        };
        let toks = &file.tokens;
        for (i, tok) in toks.iter().enumerate() {
            if file.in_test_code(tok.line) {
                continue;
            }
            // `Vec<HttpRequest>` and friends: a collection generic whose
            // parameter list names a population-sized record. The scan
            // walks the balanced `<…>` so qualified paths and nested
            // generics (`Vec<(SimTime, HttpRequest)>`) still match.
            if COLLECTIONS.contains(&tok.text.as_str())
                && toks.get(i + 1).is_some_and(|t| t.is_punct('<'))
            {
                let mut depth = 0i32;
                for t in &toks[i + 1..] {
                    if t.is_punct('<') {
                        depth += 1;
                    } else if t.is_punct('>') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if depth >= 1 && POPULATION_TYPES.contains(&t.text.as_str()) {
                        report(tok, format!("`{}<… {} …>`", tok.text, t.text), out);
                        break;
                    }
                }
            }
            // `collect(market)`: collects the full weblog into memory.
            // `Iterator::collect()` takes no argument, so it never matches.
            if tok.is_ident("collect")
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                && toks.get(i + 2).is_some_and(|t| !t.is_punct(')'))
            {
                report(tok, "`collect(…)`".to_owned(), out);
            }
            // `Retention::Full`: unbounded detection retention.
            if tok.is_ident("Retention")
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 3).is_some_and(|t| t.is_ident("Full"))
            {
                report(tok, "`Retention::Full`".to_owned(), out);
            }
        }
    }
}
