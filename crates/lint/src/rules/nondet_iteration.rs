//! `nondet-iteration`: no `HashMap`/`HashSet` in the crates whose maps
//! reports and figures iterate.
//!
//! Output order — and so every byte the identity suites compare — is
//! fixed only when none of those maps iterates in a randomised order.
//! The scoped crates must use `BTreeMap`/`BTreeSet` (ordered by
//! construction) or carry a reasoned suppression for keyed-lookup-only
//! maps that are provably never iterated.

use crate::engine::{Diagnostic, Rule};
use crate::source::SourceFile;

/// Crates whose maps reports and figures iterate, so hash iteration
/// would reorder their output.
const SCOPED_CRATES: &[&str] = &["analyzer", "campaign", "weblog", "pme", "core"];

const BANNED: &[(&str, &str)] = &[("HashMap", "BTreeMap"), ("HashSet", "BTreeSet")];

/// The rule object.
pub struct NondetIteration;

impl Rule for NondetIteration {
    fn name(&self) -> &'static str {
        "nondet-iteration"
    }

    fn check(&mut self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !SCOPED_CRATES.contains(&file.crate_name.as_str()) {
            return;
        }
        let mut in_use = false;
        for tok in &file.tokens {
            // `use` imports are not occurrences; declarations and
            // constructions are what order reaches output through.
            if tok.is_ident("use") {
                in_use = true;
            } else if in_use && tok.is_punct(';') {
                in_use = false;
            }
            if in_use || file.in_test_code(tok.line) {
                continue;
            }
            if let Some((banned, replacement)) = BANNED.iter().find(|(b, _)| tok.is_ident(b)) {
                out.push(Diagnostic {
                    rule: self.name(),
                    rel: file.rel.clone(),
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "{banned} iteration order is nondeterministic; reports and figures \
                         iterate crate `{}`'s maps — use {replacement}, or suppress with a \
                         reason if the map is never iterated",
                        file.crate_name
                    ),
                });
            }
        }
    }
}
