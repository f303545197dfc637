//! A lexed source file with workspace context: which crate it belongs
//! to, whether it is production or test code, which lines sit inside
//! `#[cfg(test)]` blocks, and the inline `yav-lint` suppressions it
//! carries.

use crate::lexer::{lex, Comment, Token};

/// Which target tree a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/` of a crate — production code; all rules apply.
    Source,
    /// `tests/` — integration tests; rules that exempt test code skip it.
    Test,
    /// `examples/` — treated like test code.
    Example,
}

/// One parsed `// yav-lint: allow(<rule>[, <rule>]) — <reason>` comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule names inside `allow(...)`.
    pub rules: Vec<String>,
    /// 1-based line of the comment. The suppression covers this line and
    /// the next, so it works both as a trailing comment and on its own
    /// line above the offending code.
    pub line: u32,
    /// The written justification after the dash.
    pub reason: String,
}

/// A fully prepared file, ready for rules.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (diagnostic display).
    pub rel: String,
    /// Crate label: the directory name under `crates/`, or `root` for the
    /// top-level facade package.
    pub crate_name: String,
    /// Which target tree the file belongs to.
    pub kind: FileKind,
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
    /// Well-formed suppressions.
    pub suppressions: Vec<Suppression>,
    /// Lines of `yav-lint:` comments that failed to parse, with the
    /// problem description (reported as `bad-suppression`).
    pub malformed_suppressions: Vec<(u32, String)>,
    /// Line ranges (inclusive) covered by `#[cfg(test)]` items.
    test_ranges: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Lexes and annotates one file.
    pub fn new(rel: String, crate_name: String, kind: FileKind, src: &str) -> SourceFile {
        let lexed = lex(src);
        let test_ranges = find_test_ranges(&lexed.tokens);
        let mut suppressions = Vec::new();
        let mut malformed = Vec::new();
        for c in &lexed.comments {
            match parse_suppression(&c.text) {
                SuppressionParse::NotOne => {}
                SuppressionParse::Ok(rules, reason) => suppressions.push(Suppression {
                    rules,
                    line: c.line,
                    reason,
                }),
                SuppressionParse::Malformed(why) => malformed.push((c.line, why)),
            }
        }
        SourceFile {
            rel,
            crate_name,
            kind,
            tokens: lexed.tokens,
            comments: lexed.comments,
            suppressions,
            malformed_suppressions: malformed,
            test_ranges,
        }
    }

    /// True when `line` is test/bench/example code: rules that only
    /// police production behaviour skip such lines.
    pub fn in_test_code(&self, line: u32) -> bool {
        self.kind != FileKind::Source
            || self
                .test_ranges
                .iter()
                .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// True when a suppression for `rule` covers `line` (the comment's
    /// own line or the line directly below it).
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressions
            .iter()
            .any(|s| (s.line == line || s.line + 1 == line) && s.rules.iter().any(|r| r == rule))
    }
}

/// Scans for `#[cfg(test)]` attributes and returns the line span of each
/// annotated item's brace block.
fn find_test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 4 < tokens.len() {
        let hit = tokens[i].is_punct('#')
            && tokens[i + 1].is_punct('[')
            && tokens[i + 2].is_ident("cfg")
            && tokens[i + 3].is_punct('(')
            && tokens[i + 4].is_ident("test")
            && tokens.get(i + 5).is_some_and(|t| t.is_punct(')'));
        if !hit {
            i += 1;
            continue;
        }
        // Skip to the attribute's closing `]`, then past any further
        // attributes, to the annotated item.
        let mut j = i + 6;
        while j < tokens.len() && !tokens[j].is_punct(']') {
            j += 1;
        }
        j += 1;
        while j + 1 < tokens.len() && tokens[j].is_punct('#') && tokens[j + 1].is_punct('[') {
            while j < tokens.len() && !tokens[j].is_punct(']') {
                j += 1;
            }
            j += 1;
        }
        // Find the item's block: the first `{` before any `;` (a
        // `#[cfg(test)] use ...;` has no block).
        let mut k = j;
        let mut open = None;
        while k < tokens.len() {
            if tokens[k].is_punct(';') {
                break;
            }
            if tokens[k].is_punct('{') {
                open = Some(k);
                break;
            }
            k += 1;
        }
        if let Some(open) = open {
            let mut depth = 0usize;
            let mut close = open;
            for (idx, t) in tokens.iter().enumerate().skip(open) {
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        close = idx;
                        break;
                    }
                }
            }
            out.push((tokens[i].line, tokens[close].line));
            i = close + 1;
        } else {
            i = k + 1;
        }
    }
    out
}

enum SuppressionParse {
    /// Not a yav-lint comment at all.
    NotOne,
    Ok(Vec<String>, String),
    Malformed(String),
}

/// Parses one comment body. Accepted form (the comment must *start*
/// with the marker, so prose that merely mentions the syntax is left
/// alone): `yav-lint: allow(rule-a, rule-b) — reason`, where a plain
/// `-` or `:` also separates the reason. The reason is mandatory: an
/// unexplained suppression is itself a finding.
fn parse_suppression(comment: &str) -> SuppressionParse {
    let text = comment.trim_start_matches(['/', '!']).trim();
    let Some(rest) = text.strip_prefix("yav-lint:") else {
        return SuppressionParse::NotOne;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow") else {
        return SuppressionParse::Malformed(
            "expected `yav-lint: allow(<rule>) — <reason>`".to_owned(),
        );
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return SuppressionParse::Malformed("missing `(` after `allow`".to_owned());
    };
    let Some(close) = rest.find(')') else {
        return SuppressionParse::Malformed("missing `)` in allow list".to_owned());
    };
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_owned())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return SuppressionParse::Malformed("empty allow list".to_owned());
    }
    let known = crate::rules::RULE_NAMES;
    if let Some(bad) = rules.iter().find(|r| !known.contains(&r.as_str())) {
        return SuppressionParse::Malformed(format!(
            "unknown rule `{bad}` (known: {})",
            known.join(", ")
        ));
    }
    let reason = rest[close + 1..]
        .trim_start()
        .trim_start_matches(['—', '-', ':', '–'])
        .trim();
    if reason.is_empty() {
        return SuppressionParse::Malformed(
            "suppression carries no reason; write `— <why this is sound>`".to_owned(),
        );
    }
    SuppressionParse::Ok(rules, reason.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("x.rs".into(), "demo".into(), FileKind::Source, src)
    }

    #[test]
    fn cfg_test_blocks_are_marked() {
        let f = file("fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}");
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(3));
        assert!(f.in_test_code(4));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn cfg_test_use_has_no_block() {
        let f = file("#[cfg(test)]\nuse foo::Bar;\nfn c() {}");
        assert!(!f.in_test_code(3));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_block() {
        let f = file("#[cfg(not(test))]\nmod real { fn a() {} }");
        assert!(!f.in_test_code(2));
    }

    #[test]
    fn suppression_with_reason_parses_and_covers_next_line() {
        let f = file("// yav-lint: allow(nondet-iteration) — keyed lookups only\nlet x = 1;");
        assert_eq!(f.suppressions.len(), 1);
        assert!(f.suppressed("nondet-iteration", 1));
        assert!(f.suppressed("nondet-iteration", 2));
        assert!(!f.suppressed("nondet-iteration", 3));
        assert!(!f.suppressed("panic-policy", 2));
    }

    #[test]
    fn reasonless_or_unknown_suppressions_are_malformed() {
        let f = file("// yav-lint: allow(panic-policy)\nlet x = 1;");
        assert_eq!(f.malformed_suppressions.len(), 1);
        let f = file("// yav-lint: allow(no-such-rule) — because\nlet x = 1;");
        assert_eq!(f.malformed_suppressions.len(), 1);
    }

    #[test]
    fn tests_dir_files_are_all_test_code() {
        let f = SourceFile::new("t.rs".into(), "demo".into(), FileKind::Test, "fn a() {}");
        assert!(f.in_test_code(1));
    }
}
