//! The `yav-lint` binary: lints the workspace (token + graph passes),
//! checks `docs/METRICS.md` and `docs/LINTS.md` freshness, exits
//! nonzero on findings.
//!
//! ```text
//! cargo run -p yav-lint --release                          # lint + doc checks
//! cargo run -p yav-lint --release -- --format sarif        # SARIF to stdout
//! cargo run -p yav-lint --release -- --sarif-out l.sarif   # human + SARIF file
//! cargo run -p yav-lint --release -- --budget-ms 10000     # gate analysis runtime
//! cargo run -p yav-lint --release -- --write-metrics-doc   # regenerate docs/METRICS.md
//! cargo run -p yav-lint --release -- --write-lints-doc     # regenerate docs/LINTS.md
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use yav_lint::{
    check_lints_doc, check_metrics_doc, lint_workspace, lints_markdown, metrics_markdown, output,
};

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Human,
    Json,
    Sarif,
}

struct Args {
    write_metrics_doc: bool,
    write_lints_doc: bool,
    format: Format,
    sarif_out: Option<PathBuf>,
    budget_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        write_metrics_doc: false,
        write_lints_doc: false,
        format: Format::Human,
        sarif_out: None,
        budget_ms: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--write-metrics-doc" => args.write_metrics_doc = true,
            "--write-lints-doc" => args.write_lints_doc = true,
            "--format" => {
                args.format = match value("--format")?.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}`")),
                }
            }
            "--sarif-out" => args.sarif_out = Some(PathBuf::from(value("--sarif-out")?)),
            "--budget-ms" => {
                args.budget_ms = Some(
                    value("--budget-ms")?
                        .parse()
                        .map_err(|e| format!("--budget-ms: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Walks upward from the current directory to the workspace root (the
/// directory holding both `Cargo.toml` and `crates/`).
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let root = find_root().ok_or("could not locate the workspace root")?;
    #[expect(
        clippy::disallowed_methods,
        reason = "the linter gates its own runtime; it runs no simulation"
    )]
    let started = Instant::now();
    let mut outcome =
        lint_workspace(&root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let elapsed_ms = started.elapsed().as_millis() as u64;

    if args.write_metrics_doc {
        let doc = metrics_markdown(&outcome);
        write_doc(&root, "docs/METRICS.md", &doc)?;
        println!(
            "yav-lint: wrote docs/METRICS.md ({} metrics)",
            outcome.metrics.len()
        );
    }
    if args.write_lints_doc {
        let doc = lints_markdown(&outcome);
        write_doc(&root, "docs/LINTS.md", &doc)?;
        println!(
            "yav-lint: wrote docs/LINTS.md ({} suppression sites)",
            outcome.suppressions.len()
        );
    }
    if !args.write_metrics_doc && !args.write_lints_doc {
        check_metrics_doc(&root, &mut outcome);
        check_lints_doc(&root, &mut outcome);
    }

    if let Some(path) = &args.sarif_out {
        std::fs::write(path, output::sarif(&outcome))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let over_budget = args.budget_ms.is_some_and(|b| elapsed_ms > b);
    match args.format {
        Format::Json => print!("{}", output::json(&outcome)),
        Format::Sarif => print!("{}", output::sarif(&outcome)),
        Format::Human => {
            for d in &outcome.diagnostics {
                println!("{d}");
            }
            let g = outcome.graph;
            if outcome.diagnostics.is_empty() {
                println!(
                    "yav-lint: clean — {} files scanned, {} metrics registered, graph: \
                     {} crates / {} fns / {} call edges / {} tainted fns ({} ms)",
                    outcome.files_scanned,
                    outcome.metrics.len(),
                    g.crates,
                    g.fns,
                    g.call_edges,
                    g.tainted_fns,
                    elapsed_ms
                );
            } else {
                println!(
                    "yav-lint: {} finding(s) across {} files ({} ms)",
                    outcome.diagnostics.len(),
                    outcome.files_scanned,
                    elapsed_ms
                );
            }
        }
    }
    if over_budget {
        eprintln!(
            "yav-lint: analysis took {elapsed_ms} ms, over the --budget-ms {} gate",
            args.budget_ms.unwrap_or(0)
        );
        return Ok(false);
    }
    Ok(outcome.diagnostics.is_empty())
}

fn write_doc(root: &Path, rel: &str, doc: &str) -> Result<(), String> {
    let path = root.join(rel);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("yav-lint: error: {e}");
            ExitCode::from(2)
        }
    }
}
