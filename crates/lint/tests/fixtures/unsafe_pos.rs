//! Positive fixture: a crate root missing `#![forbid(unsafe_code)]`
//! (linted as `crates/demo/src/lib.rs` and `crates/demo/src/bin/tool.rs`).

pub fn answer() -> u32 {
    42
}
