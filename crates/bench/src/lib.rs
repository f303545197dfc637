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

/// The machine-metadata row every `BENCH_*.json` file opens with, so a
/// recorded number can always be read against the hardware and SIMD
/// tier that produced it. Assembled by hand (like the bench writers
/// themselves) to keep the JSON shape obvious in the diff.
pub fn machine_json() -> String {
    let vcpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"bench\":\"machine\",\"arch\":\"{}\",\"os\":\"{}\",\"vcpus\":{vcpus},\
         \"simd_features\":\"{}\",\"simd_level\":\"{}\"}}",
        std::env::consts::ARCH,
        std::env::consts::OS,
        yav_simd::detected_features(),
        yav_simd::level().name(),
    )
}
