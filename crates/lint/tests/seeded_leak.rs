//! End-to-end seeded-violation test: builds a throwaway workspace in a
//! temp directory shaped like the real repo (core owns the ledger, exec
//! forwards, telemetry exports), seeds a two-hop privacy leak into the
//! exporter, and asserts the **exact** diagnostic — rule, sink
//! `file:line:col`, source `file:line:col` and the witness call chain.
//! Then it applies the remediation the diagnostic asks for (route
//! through a declared sanitizer) and asserts the tree lints clean.

use std::fs;
use std::path::Path;
use yav_lint::lint_workspace;

fn write(root: &Path, rel: &str, content: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, content).unwrap();
}

fn seed(root: &Path) {
    write(
        root,
        "lint.toml",
        "[taint]\n\
         types = [\"Ledger\"]\n\
         \n\
         [sinks]\n\
         modules = [\"crates/telemetry/src/export.rs\"]\n\
         \n\
         [sanitizers]\n\
         fns = [\"summary\"]\n\
         \n\
         [layering]\n\
         core = []\n\
         exec = [\"core\"]\n\
         telemetry = [\"exec\", \"core\"]\n\
         \n\
         [manifests]\n\
         exec = [\"core\"]\n\
         telemetry = [\"exec\", \"core\"]\n",
    );
    write(
        root,
        "crates/core/src/ledger.rs",
        "//! Per-user ledger (seeded fixture).\n\
         \n\
         /// The per-user price ledger.\n\
         pub struct Ledger {\n\
         \x20   /// Total micros.\n\
         \x20   pub total: u64,\n\
         }\n\
         \n\
         /// The user's raw ledger.\n\
         pub fn raw_ledger() -> Ledger {\n\
         \x20   Ledger { total: 0 }\n\
         }\n",
    );
    write(
        root,
        "crates/exec/src/relay.rs",
        "//! Mid-layer (seeded fixture).\n\
         \n\
         use yav_core::raw_ledger;\n\
         \n\
         /// Forwards the raw total without sanitising.\n\
         pub fn relay_total() -> u64 {\n\
         \x20   raw_ledger().total\n\
         }\n\
         \n\
         /// The declared sanitizer: reduces the ledger to a clean count.\n\
         pub fn summary() -> u64 {\n\
         \x20   raw_ledger().total\n\
         }\n",
    );
    // The seeded leak: the exporter reaches the raw ledger through
    // relay_total — two call hops from the source.
    write(
        root,
        "crates/telemetry/src/export.rs",
        "//! Exporter (seeded fixture).\n\
         \n\
         use yav_exec::relay_total;\n\
         \n\
         /// Publishes the per-user total — the seeded leak.\n\
         pub fn render_totals() -> u64 {\n\
         \x20   relay_total()\n\
         }\n",
    );
}

#[test]
fn seeded_two_hop_leak_yields_the_exact_diagnostic_and_the_fix_clears_it() {
    let root = std::env::temp_dir().join(format!("yav-lint-seeded-{}", std::process::id()));
    // A leftover tree from an interrupted run; usually there is none.
    fs::remove_dir_all(&root).ok();
    seed(&root);

    let outcome = lint_workspace(&root).expect("linting the seeded tree");
    let rendered: Vec<String> = outcome.diagnostics.iter().map(|d| d.to_string()).collect();
    assert_eq!(
        rendered,
        [
            "crates/telemetry/src/export.rs:6:5: [privacy-taint] fn `render_totals` is in a \
          sink module but reaches tainted type `Ledger` (source at \
          crates/core/src/ledger.rs:10:24) via render_totals → relay_total → raw_ledger: \
          sinks may only consume sanitized aggregates — route through a `lint.toml \
          [sanitizers]` fn or strip the sensitive data before it gets here"
                .to_owned()
        ],
        "the seeded leak must yield exactly this diagnostic"
    );

    // Apply the remediation the message asks for: consume the declared
    // sanitizer instead of the raw relay.
    write(
        &root,
        "crates/telemetry/src/export.rs",
        "//! Exporter (seeded fixture): fixed.\n\
         \n\
         use yav_exec::summary;\n\
         \n\
         /// Publishes only the sanitized aggregate.\n\
         pub fn render_totals() -> u64 {\n\
         \x20   summary()\n\
         }\n",
    );
    let fixed = lint_workspace(&root).expect("linting the fixed tree");
    assert!(
        fixed.diagnostics.is_empty(),
        "routing through the sanitizer must clear the finding:\n{}",
        fixed
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );

    fs::remove_dir_all(&root).unwrap();
}
