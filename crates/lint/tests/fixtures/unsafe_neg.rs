//! Negative fixture: a crate root carrying the workspace-mandatory
//! forbid (linted as `crates/demo/src/lib.rs` and
//! `crates/demo/src/bin/tool.rs`).

#![forbid(unsafe_code)]

pub fn answer() -> u32 {
    42
}
