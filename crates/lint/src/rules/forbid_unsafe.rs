//! `forbid-unsafe-coverage`: every crate root must carry
//! `#![forbid(unsafe_code)]`.
//!
//! The workspace's crates are safe Rust; `forbid` (unlike `deny`)
//! cannot be overridden further down the tree, so the attribute on the
//! crate root is a structural guarantee and rustc enforces the rest.
//! Crate roots are the library root `src/lib.rs` and the binary roots
//! `src/main.rs` and `src/bin/*.rs`, of the root package and of every
//! crate under `crates/`. Shims are exempt by not being walked at all —
//! they stand in for external crates.

use crate::engine::{Diagnostic, Rule};
use crate::source::SourceFile;

/// The rule object.
pub struct ForbidUnsafeCoverage;

fn is_crate_root(file: &SourceFile) -> bool {
    let rel = file.rel.as_str();
    // Package-relative path: strip `crates/<name>/` for member crates.
    let in_package = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split_once('/'))
        .map_or(rel, |(_, r)| r);
    matches!(in_package, "src/lib.rs" | "src/main.rs")
        || in_package
            .strip_prefix("src/bin/")
            .is_some_and(|bin| !bin.contains('/') && bin.ends_with(".rs"))
}

fn has_forbid_attr(file: &SourceFile) -> bool {
    file.tokens.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    })
}

impl Rule for ForbidUnsafeCoverage {
    fn name(&self) -> &'static str {
        "forbid-unsafe-coverage"
    }

    fn check(&mut self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if is_crate_root(file) && !has_forbid_attr(file) {
            out.push(Diagnostic {
                rule: self.name(),
                rel: file.rel.clone(),
                line: 1,
                col: 1,
                message: format!(
                    "crate root of `{}` is missing `#![forbid(unsafe_code)]`",
                    file.crate_name
                ),
            });
        }
    }
}
