//! Statistics substrate for the `your-ad-value` workspace.
//!
//! Every evaluation artefact in the paper is a statistical summary of charge
//! prices: percentile boxes (Fig. 5–7, 10, 13), empirical CDFs (Fig. 11,
//! 16, 17), two-sample Kolmogorov–Smirnov tests (footnote 5), and the §5.2
//! sample-size maths. This crate provides those primitives, self-contained
//! and allocation-light, so the analyzer / PME / bench crates never
//! reimplement them.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod alias;
pub mod cdf;
pub mod corr;
pub mod ks;
pub mod sampling;
pub mod summary;

pub use alias::AliasTable;
pub use cdf::Ecdf;
pub use corr::pearson;
pub use ks::{ks_two_sample, KsResult};
pub use sampling::{margin_of_error, required_sample_size, z_score_two_sided};
pub use summary::{PercentileSummary, Summary};
