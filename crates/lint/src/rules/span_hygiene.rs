//! `span-hygiene`: `span!` and `instant!` names follow `area.op`, and
//! every `span!` guard is bound to a named variable.
//!
//! Span and instant names share the metric registry's dotted-name
//! convention ([`super::metric_name`]), so exporters group by the same
//! areas the telemetry surface uses. The guard check exists because
//! `span!` returns an RAII `yav_telemetry::Span`: written bare as a
//! statement, or bound to `_`, the guard drops on the same line and the
//! span closes at open — silently timing and journaling nothing.
//! Binding to a named variable (idiomatically `_span`) keeps the span
//! open to the end of the scope on **every** exit path, early returns
//! and `?` included, which is what makes the monitor/pme/exec spans
//! trustworthy.

use crate::engine::{Diagnostic, Rule};
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// The telemetry crate defines the macros (its tokens mention them
/// without invoking them); the lint crate's sources talk *about* spans.
const EXEMPT_CRATES: &[&str] = &["telemetry", "lint"];

/// The rule object.
pub struct SpanHygiene;

impl Rule for SpanHygiene {
    fn name(&self) -> &'static str {
        "span-hygiene"
    }

    fn check(&mut self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if EXEMPT_CRATES.contains(&file.crate_name.as_str()) {
            return;
        }
        let toks = &file.tokens;
        for i in 0..toks.len() {
            let is_span = toks[i].is_ident("span");
            let is_instant = toks[i].is_ident("instant");
            if !(is_span || is_instant) || file.in_test_code(toks[i].line) {
                continue;
            }
            if !(toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct('(')))
            {
                continue;
            }
            let mut diag = |line: u32, col: u32, message: String| {
                out.push(Diagnostic {
                    rule: "span-hygiene",
                    rel: file.rel.clone(),
                    line,
                    col,
                    message,
                });
            };

            // The span name: first token inside the parens, a literal by
            // macro contract, following the metric `area.op` convention.
            match toks.get(i + 3) {
                Some(t) if t.kind == TokenKind::Str => {
                    if let Some(why) = super::metric_name::bad_name(&t.text) {
                        diag(t.line, t.col, format!("span name `{}` {why}", t.text));
                    }
                }
                Some(t) => diag(
                    t.line,
                    t.col,
                    "span name must be a string literal (`span!(\"area.op\")`)".to_owned(),
                ),
                None => {}
            }

            // The guard binding, `span!` only (`instant!` returns no
            // guard). Walk back over an optional module path
            // (`yav_telemetry::`), then require `let <name> =` with a name
            // that is not the discarding `_`.
            if !is_span {
                continue;
            }
            let mut j = i;
            while j >= 3
                && toks[j - 1].is_punct(':')
                && toks[j - 2].is_punct(':')
                && toks[j - 3].kind == TokenKind::Ident
            {
                j -= 3;
            }
            let binder = (j >= 3 && toks[j - 1].is_punct('='))
                .then(|| &toks[j - 2])
                .filter(|t| t.kind == TokenKind::Ident)
                .filter(|_| {
                    toks[j - 3].is_ident("let")
                        || (j >= 4 && toks[j - 3].is_ident("mut") && toks[j - 4].is_ident("let"))
                });
            match binder {
                None => diag(
                    toks[i].line,
                    toks[i].col,
                    "span! guard is not bound: the span closes immediately — \
                     bind it (`let _span = span!(…);`) so it spans the scope"
                        .to_owned(),
                ),
                Some(b) if b.text == "_" => diag(
                    b.line,
                    b.col,
                    "span! guard bound to `_` drops at once — name it \
                     (`let _span = …`) so the span survives to end of scope"
                        .to_owned(),
                ),
                Some(_) => {}
            }
        }
    }
}
