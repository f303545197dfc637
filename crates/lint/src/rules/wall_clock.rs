//! `wall-clock-in-sim`: no `Instant::now`/`SystemTime::now` outside
//! `telemetry` and `bench`.
//!
//! Simulation and training code must be a pure function of its inputs —
//! wall-clock reads smuggle in nondeterminism and break replay. Timing
//! belongs to yav-telemetry (`span!`) and to the bench harness.

use crate::engine::{Diagnostic, Rule};
use crate::source::SourceFile;

/// Crates that legitimately read the clock: the telemetry spans, the
/// bench harness, and the linter itself (it wall-clock-gates its own
/// CI runtime budget — there is no simulation in this crate).
const EXEMPT_CRATES: &[&str] = &["telemetry", "bench", "lint"];

/// The rule object.
pub struct WallClockInSim;

impl Rule for WallClockInSim {
    fn name(&self) -> &'static str {
        "wall-clock-in-sim"
    }

    fn check(&mut self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if EXEMPT_CRATES.contains(&file.crate_name.as_str()) {
            return;
        }
        for w in file.tokens.windows(4) {
            let clock_type = w[0].is_ident("Instant") || w[0].is_ident("SystemTime");
            if clock_type
                && w[1].is_punct(':')
                && w[2].is_punct(':')
                && w[3].is_ident("now")
                && !file.in_test_code(w[0].line)
            {
                out.push(Diagnostic {
                    rule: self.name(),
                    rel: file.rel.clone(),
                    line: w[0].line,
                    col: w[0].col,
                    message: format!(
                        "{}::now() in crate `{}`: sim/train code must not read the wall clock — \
                         use a yav-telemetry span",
                        w[0].text, file.crate_name
                    ),
                });
            }
        }
    }
}
