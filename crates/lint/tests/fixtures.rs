//! Every rule is proven live against a positive fixture and quiet
//! against its negative twin. Fixtures are plain text to the linter
//! (the `fixtures/` directory is excluded from the workspace walk), so
//! they can demonstrate violations without compiling them into the
//! tree.

use std::path::Path;
use yav_lint::{lint_source, Diagnostic, FileKind};

struct Case {
    rule: &'static str,
    positive: &'static str,
    negative: &'static str,
    /// Crate label the fixture is linted under (rule scoping).
    crate_name: &'static str,
    /// Workspace-relative path the fixture impersonates.
    rel: &'static str,
    /// Minimum distinct findings the positive fixture must yield.
    min_findings: usize,
}

const CASES: &[Case] = &[
    Case {
        rule: "nondet-iteration",
        positive: "nondet_pos.rs",
        negative: "nondet_neg.rs",
        crate_name: "analyzer",
        rel: "crates/analyzer/src/fixture.rs",
        min_findings: 2,
    },
    Case {
        rule: "wall-clock-in-sim",
        positive: "wall_clock_pos.rs",
        negative: "wall_clock_neg.rs",
        crate_name: "auction",
        rel: "crates/auction/src/fixture.rs",
        min_findings: 2,
    },
    Case {
        rule: "panic-policy",
        positive: "panic_pos.rs",
        negative: "panic_neg.rs",
        crate_name: "nurl",
        rel: "crates/nurl/src/fixture.rs",
        min_findings: 4,
    },
    Case {
        rule: "forbid-unsafe-coverage",
        positive: "unsafe_pos.rs",
        negative: "unsafe_neg.rs",
        crate_name: "demo",
        rel: "crates/demo/src/lib.rs",
        min_findings: 1,
    },
    Case {
        rule: "forbid-unsafe-coverage",
        positive: "unsafe_pos.rs",
        negative: "unsafe_neg.rs",
        crate_name: "demo",
        rel: "crates/demo/src/bin/tool.rs",
        min_findings: 1,
    },
    Case {
        rule: "metric-name-hygiene",
        positive: "metric_pos.rs",
        negative: "metric_neg.rs",
        crate_name: "analyzer",
        rel: "crates/analyzer/src/fixture.rs",
        min_findings: 4,
    },
    Case {
        rule: "money-cast",
        positive: "money_pos.rs",
        negative: "money_neg.rs",
        crate_name: "analyzer",
        rel: "crates/analyzer/src/fixture.rs",
        min_findings: 3,
    },
    Case {
        rule: "alloc-in-reject-path",
        positive: "alloc_pos.rs",
        negative: "alloc_neg.rs",
        crate_name: "nurl",
        rel: "crates/nurl/src/urlref.rs",
        min_findings: 6,
    },
    Case {
        rule: "alloc-in-gen-path",
        positive: "alloc_gen_pos.rs",
        negative: "alloc_gen_neg.rs",
        crate_name: "weblog",
        rel: "crates/weblog/src/generator.rs",
        min_findings: 7,
    },
    Case {
        rule: "span-hygiene",
        positive: "span_pos.rs",
        negative: "span_neg.rs",
        crate_name: "core",
        rel: "crates/core/src/fixture.rs",
        min_findings: 5,
    },
    Case {
        rule: "stream-materialize",
        positive: "stream_pos.rs",
        negative: "stream_neg.rs",
        crate_name: "bench",
        rel: "crates/bench/src/stream.rs",
        min_findings: 5,
    },
];

fn lint_fixture(case: &Case, name: &str) -> Vec<Diagnostic> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    lint_source(case.rel, case.crate_name, FileKind::Source, &src)
}

#[test]
fn every_positive_fixture_fires_its_rule() {
    for case in CASES {
        let found = lint_fixture(case, case.positive);
        assert!(
            found.len() >= case.min_findings,
            "{}: expected >= {} findings, got {found:#?}",
            case.positive,
            case.min_findings
        );
        for d in &found {
            assert_eq!(
                d.rule, case.rule,
                "{}: unexpected rule in {d}",
                case.positive
            );
            assert!(d.line > 0 && d.col > 0, "diagnostics carry positions: {d}");
        }
    }
}

#[test]
fn every_negative_fixture_is_clean() {
    for case in CASES {
        let found = lint_fixture(case, case.negative);
        assert!(
            found.is_empty(),
            "{}: expected clean, got {found:#?}",
            case.negative
        );
    }
}

#[test]
fn diagnostics_render_as_path_line_col() {
    let found = lint_fixture(&CASES[0], CASES[0].positive);
    let rendered = found[0].to_string();
    assert!(
        rendered.starts_with("crates/analyzer/src/fixture.rs:"),
        "got {rendered}"
    );
    assert!(rendered.contains("[nondet-iteration]"), "got {rendered}");
}

#[test]
fn suppression_without_reason_is_itself_a_finding() {
    let src = "// yav-lint: allow(panic-policy)\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let found = lint_source("crates/nurl/src/fixture.rs", "nurl", FileKind::Source, src);
    assert!(
        found.iter().any(|d| d.rule == "bad-suppression"),
        "reasonless allow must be rejected: {found:#?}"
    );
}
