//! One-thread benchmark of the system's three users.
//!
//! * `stream` — the population replay through market → analyzer →
//!   monitor that the multi-tenant YourAdValue service sees;
//! * `client` — one device's requests through its own YourAdValue
//!   extension, one request at a time;
//! * `train` — the Price Modeling Engine's refresh from a probe campaign.
//!
//! Every workload runs on one thread (`ExecConfig::serial()`, forests
//! with `threads = 1`), makes its inputs from the workload seed, checks
//! its outputs against the simulator's ground truth, and prints its
//! end-to-end metrics from an untraced run or its per-layer metrics from
//! a traced one. `src/main.rs` is the command line.

#![forbid(unsafe_code)]

pub mod client;
pub mod harness;
pub mod machine;
pub mod metrics;
pub mod setup;
pub mod spans;
pub mod stream;
pub mod train;
