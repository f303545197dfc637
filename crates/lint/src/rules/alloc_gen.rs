//! `alloc-in-gen-path`: no heap allocation in the weblog generator's and
//! market's per-event code.
//!
//! The steady-state window loop (DESIGN.md §18) renders every request
//! by splicing interned corpus spans and integers into per-shard
//! scratch buffers; the auction resolves bids entirely in reused
//! vectors. A stray `format!` or `to_string` in either hot file turns a
//! zero-allocation event back into a malloc-bound one and silently
//! erodes the throughput perfbench's `stream` workload measures. This
//! rule keeps `generator.rs` and `market.rs` honest token by token — the
//! `no_alloc_gen` counting-allocator test proves the property end to
//! end; this lint points at the offending line when someone breaks it.
//! Per-shard setup (scratch construction, metric-handle resolution) may
//! allocate behind an explicit `yav-lint: allow(...)` with its reason.

use crate::engine::{Diagnostic, Rule};
use crate::source::SourceFile;

/// Method calls that allocate their result.
const ALLOC_METHODS: &[&str] = &[
    "to_owned",
    "to_string",
    "to_vec",
    "to_ascii_lowercase",
    "to_ascii_uppercase",
    "to_lowercase",
    "to_uppercase",
    "into_owned",
    "collect",
];

/// Macros that expand to heap allocation.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Owning collection types whose associated functions (`::new`,
/// `::with_capacity`, `::from`, …) allocate or exist to allocate.
const ALLOC_TYPES: &[&str] = &["String", "Vec", "VecDeque", "Box", "BTreeMap", "HashMap"];

/// The rule object.
pub struct AllocInGenPath;

fn in_scope(file: &SourceFile) -> bool {
    file.rel.ends_with("weblog/src/generator.rs") || file.rel.ends_with("auction/src/market.rs")
}

impl Rule for AllocInGenPath {
    fn name(&self) -> &'static str {
        "alloc-in-gen-path"
    }

    fn check(&mut self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !in_scope(file) {
            return;
        }
        let report = |tok: &crate::lexer::Token, what: String, out: &mut Vec<Diagnostic>| {
            out.push(Diagnostic {
                rule: "alloc-in-gen-path",
                rel: file.rel.clone(),
                line: tok.line,
                col: tok.col,
                message: format!(
                    "{what} allocates in the generate/market hot path: per-event work \
                     splices interned corpus spans into per-shard scratch, never the \
                     heap — reuse `ShardScratch`/auction scratch, or move the \
                     allocation into per-shard setup behind an allow (DESIGN.md §18)"
                ),
            });
        };
        for w in file.tokens.windows(3) {
            if file.in_test_code(w[0].line) {
                continue;
            }
            // `.to_owned(` and friends — method calls only.
            if w[0].is_punct('.')
                && ALLOC_METHODS.iter().any(|m| w[1].is_ident(m))
                && w[2].is_punct('(')
            {
                report(&w[1], format!(".{}()", w[1].text), out);
            }
            // `format!(` / `vec![`.
            if ALLOC_MACROS.iter().any(|m| w[0].is_ident(m)) && w[1].is_punct('!') {
                report(&w[0], format!("{}!", w[0].text), out);
            }
            // `String::from(`, `Vec::new(`, … — any associated call on an
            // owning collection. Type positions (`Vec<u8>`) don't match.
            if ALLOC_TYPES.iter().any(|t| w[0].is_ident(t))
                && w[1].is_punct(':')
                && w[2].is_punct(':')
            {
                report(&w[0], format!("{}::", w[0].text), out);
            }
        }
    }
}
