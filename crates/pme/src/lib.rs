//! The Price Modeling Engine (PME, §3.2 and §5 of the paper).
//!
//! The PME is the centralized back-end of the system: it bootstraps from
//! an offline weblog (dataset D), reduces the 288 available features to a
//! small core set `S` that still explains the cleartext price classes
//! ([`reduce`](mod@reduce)), trains a classifier on probing-campaign ground truth
//! ([`model`]), derives the 2015→2016 time-shift correction
//! ([`timeshift`]), and serves versioned client models to YourAdValue
//! installations while accepting anonymous contributions ([`engine`]).
//!
//! Everything the PME learns comes from *observable* data: analyzer
//! detections and buyer-side campaign reports. Simulator ground truth
//! never enters this crate.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod model;
pub mod reduce;
pub mod timeshift;

pub use engine::{ContributionBatch, Pme};
pub use model::{ClientModel, CoreContext, EstimateScratch, TrainConfig, TrainedModel};
pub use reduce::{correlation_filter, reduce, Reduction, ReductionConfig};
pub use timeshift::TimeShift;
