//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation from the simulated world.
//!
//! The entry point is [`World::build`], which assembles dataset D (via
//! the weblog generator and the analyzer), runs the two probing
//! ad-campaigns and trains the PME — at one of three [`Scale`]s. The
//! `figures` binary (`cargo run -p yav-bench --release --bin figures`)
//! then prints any experiment's rows; `EXPERIMENTS.md` records the
//! paper-vs-measured comparison for each.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod figs_dataset;
pub mod figs_model;
pub mod figs_user;
pub mod stream;
pub mod world;

#[cfg(test)]
mod smoke_tests;

pub use stream::{StreamWorld, TruthStats};
pub use world::{Scale, World};
