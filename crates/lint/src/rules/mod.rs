//! The rule registry. Token rules are [`crate::engine::Rule`]s over the
//! token stream; graph rules ([`privacy_taint`], [`boundary_escape`],
//! [`layering`]) run over the assembled workspace graph and are driven
//! by [`crate::engine::analyze`]. Adding a token rule means writing its
//! module, listing its name here, and adding it to [`all`]; a graph
//! rule additionally plugs into the engine's graph stage.

pub mod alloc_gen;
pub mod alloc_reject;
pub mod boundary_escape;
pub mod forbid_unsafe;
pub mod layering;
pub mod metric_name;
pub mod money_cast;
pub mod nondet_iteration;
pub mod panic_policy;
pub mod privacy_taint;
pub mod span_hygiene;
pub mod stream_materialize;
pub mod wall_clock;

/// Every valid rule name (for `allow(...)` validation). The pseudo-rules
/// `bad-suppression` (malformed suppressions) and `stale-allow`
/// (suppressions that silence nothing) cannot themselves be suppressed.
pub const RULE_NAMES: &[&str] = &[
    "nondet-iteration",
    "wall-clock-in-sim",
    "panic-policy",
    "forbid-unsafe-coverage",
    "metric-name-hygiene",
    "money-cast",
    "alloc-in-reject-path",
    "alloc-in-gen-path",
    "span-hygiene",
    "stream-materialize",
    "privacy-taint",
    "boundary-escape",
    "layering",
    "stale-allow",
    "bad-suppression",
];

/// One rule's documentation entry: drives `docs/LINTS.md` and the SARIF
/// rule descriptors.
#[derive(Debug, Clone, Copy)]
pub struct RuleDoc {
    /// Kebab-case rule name.
    pub name: &'static str,
    /// `token` (per-file token stream), `graph` (workspace graph pass)
    /// or `audit` (engine-level bookkeeping).
    pub kind: &'static str,
    /// The invariant the rule enforces, one sentence.
    pub invariant: &'static str,
    /// A representative finding message (illustrative, not harvested).
    pub example: &'static str,
}

/// Documentation for every rule, in `RULE_NAMES` order.
pub const RULE_DOCS: &[RuleDoc] = &[
    RuleDoc {
        name: "nondet-iteration",
        kind: "token",
        invariant: "No `HashMap`/`HashSet` in the crates whose maps reports and \
                    figures iterate (`analyzer`, `campaign`, `weblog`, `pme`, `core`): \
                    hash iteration order would reach output order.",
        example: "HashMap iteration order is nondeterministic; reports and figures \
                  iterate crate `analyzer`'s maps — use BTreeMap",
    },
    RuleDoc {
        name: "wall-clock-in-sim",
        kind: "token",
        invariant: "`Instant::now`/`SystemTime::now` only in `telemetry`, `bench` and \
                    the linter itself: simulation and training are pure functions of \
                    their inputs.",
        example: "Instant::now() in crate `auction`: sim/train code must not read the \
                  wall clock — use a yav-telemetry span",
    },
    RuleDoc {
        name: "panic-policy",
        kind: "token",
        invariant: "No `unwrap`/`expect`/`panic!`/indexing idioms on the hostile-input \
                    surfaces (`nurl`, `pme::engine`, `core::monitor`): the client keeps \
                    counting on malformed nURLs (paper §6).",
        example: "`unwrap()` in `nurl`: hostile-input surface must fail closed, not \
                  panic",
    },
    RuleDoc {
        name: "forbid-unsafe-coverage",
        kind: "token",
        invariant: "Every crate root — `src/lib.rs`, `src/main.rs` and `src/bin/*.rs`, \
                    at the root and under `crates/*/` — carries \
                    `#![forbid(unsafe_code)]`, so the workspace holds no `unsafe` code.",
        example: "crate root missing `#![forbid(unsafe_code)]`",
    },
    RuleDoc {
        name: "metric-name-hygiene",
        kind: "token",
        invariant: "Telemetry metric literals follow `area.name[.unit]` with a known \
                    area and no kind collisions; the harvest generates \
                    `docs/METRICS.md` and CI fails when it is stale.",
        example: "metric `pme_predict` does not match `area.name[.unit]`",
    },
    RuleDoc {
        name: "money-cast",
        kind: "token",
        invariant: "No raw numeric casts around the `Cpm` fixed-point money type \
                    outside `yav-types`: conversions go through the checked \
                    constructors.",
        example: "raw cast touching Cpm micros: use Cpm::from_f64/as_f64",
    },
    RuleDoc {
        name: "alloc-in-reject-path",
        kind: "token",
        invariant: "No allocating constructs in the borrowed URL parser's reject path \
                    (`nurl/src/urlref.rs`): the 95 %-non-nURL stream must sift with \
                    zero allocations (DESIGN.md §13).",
        example: "`to_owned()` on the reject path of the borrowed parser",
    },
    RuleDoc {
        name: "alloc-in-gen-path",
        kind: "token",
        invariant: "No allocating constructs in the per-event generate/market hot path \
                    (`weblog/src/generator.rs`, `auction/src/market.rs`): steady-state \
                    events splice interned corpus spans into per-shard scratch with \
                    zero heap traffic (DESIGN.md §18); per-shard setup allocates only \
                    behind an explicit allow.",
        example: "`format!` allocates in the generate/market hot path",
    },
    RuleDoc {
        name: "span-hygiene",
        kind: "token",
        invariant: "`span!` and `instant!` names follow the dotted `area.op` \
                    convention and span guards are `let`-bound, never dropped on \
                    the spot (DESIGN.md §14).",
        example: "span guard bound to `_` is dropped immediately: bind to a named \
                  guard",
    },
    RuleDoc {
        name: "stream-materialize",
        kind: "token",
        invariant: "No population-sized collections, whole-weblog `collect(…)` \
                    calls or `Retention::Full` in the streaming modules: the \
                    constant-memory contract of DESIGN.md §15.",
        example: "`Vec<… HttpRequest …>` materialises population-sized state in a \
                  streaming module",
    },
    RuleDoc {
        name: "privacy-taint",
        kind: "graph",
        invariant: "Tainted types and fields (`lint.toml [taint]`: raw URLs, request \
                    streams, per-user ledgers, decrypted prices) may not reach the \
                    exporter/collector sink modules, directly or through the call \
                    graph, except via declared sanitizer fns.",
        example: "fn `render` is in a sink module but reaches tainted type \
                  `HttpRequest` (source at crates/core/src/monitor.rs:309:5) via \
                  render → rows → observe",
    },
    RuleDoc {
        name: "boundary-escape",
        kind: "graph",
        invariant: "Pub items of the monitor boundary modules (`core::monitor`, \
                    `core::tenant`) may not return raw request/URL types or whole \
                    per-user stores across the crate boundary; sensitive state leaves \
                    only as sanitized aggregates.",
        example: "pub fn `ledger` returns `Ledger` across the monitor boundary",
    },
    RuleDoc {
        name: "layering",
        kind: "graph",
        invariant: "The crate DAG is pinned in `lint.toml [layering]`: a dependency \
                    (manifest or `yav_*` source reference) absent from the crate's \
                    allowlist is a back-edge; nothing depends on `bench` or `lint`.",
        example: "layering back-edge: `telemetry` must not depend on `core`",
    },
    RuleDoc {
        name: "stale-allow",
        kind: "audit",
        invariant: "Every `// yav-lint: allow(rule) — reason` must still silence a \
                    live finding; a suppression that suppresses nothing is reported \
                    so the inventory in docs/LINTS.md stays honest.",
        example: "suppression `allow(panic-policy)` no longer silences any finding: \
                  delete the comment",
    },
    RuleDoc {
        name: "bad-suppression",
        kind: "audit",
        invariant: "Suppressions are parsed strictly: a reasonless, malformed or \
                    unknown-rule `allow(...)` is itself a finding.",
        example: "suppression carries no reason; write `— <why this is sound>`",
    },
];

/// The stateless token rules, boxed. `metric-name-hygiene` accumulates
/// across files and is driven separately by the engine, as are the
/// graph rules.
pub fn all() -> Vec<Box<dyn crate::engine::Rule>> {
    vec![
        Box::new(nondet_iteration::NondetIteration),
        Box::new(wall_clock::WallClockInSim),
        Box::new(panic_policy::PanicPolicy),
        Box::new(forbid_unsafe::ForbidUnsafeCoverage),
        Box::new(money_cast::MoneyCast),
        Box::new(alloc_reject::AllocInRejectPath),
        Box::new(alloc_gen::AllocInGenPath),
        Box::new(span_hygiene::SpanHygiene),
        Box::new(stream_materialize::StreamMaterialize),
    ]
}
