//! Machine-learning substrate for encrypted-price modeling.
//!
//! The paper's §5 pipeline needs: log-normalisation and entropy-guided
//! discretisation of prices into classes, Random-Forest classification
//! (chosen there for interpretability, training speed and resistance to
//! overfitting), 10-fold cross-validation averaged over repeated runs,
//! and the standard metric suite (TP/FP rates, precision, recall,
//! weighted one-vs-rest AUCROC). It also needs the *negative* result: a
//! regression baseline whose high error justified switching to classes.
//!
//! Repro band "awkward ML tooling" is solved by owning the whole stack:
//!
//! * [`dataset`] — row-major feature matrices with named columns;
//! * [`discretize`] — the §5.1 price-class construction (log transform +
//!   balanced entropy splits with a leave-one-out entropy estimate);
//! * [`tree`] — CART decision trees in one form: the flat table of
//!   16-byte nodes training writes, forests vote with and YourAdValue
//!   walks on the client, without allocating; training bins each feature
//!   once for many trees and counts classes per bin at each node;
//! * [`forest`] — bagged random forests with OOB error and impurity
//!   importances, trained in parallel with crossbeam scoped threads;
//!   cross-validation forests skip the OOB pass, as nothing reads it;
//! * [`metrics`] — confusion-matrix statistics and AUCROC;
//! * [`cv`] — stratified k-fold cross-validation over data binned once
//!   per call, voting with each fold's grown trees;
//! * [`linreg`] — the OLS baseline the paper discarded.
//!
//! Everything is deterministic given the caller's seed.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cv;
pub mod dataset;
pub mod discretize;
pub mod forest;
pub mod linreg;
pub mod metrics;
pub mod tree;

pub use cv::{cross_validate, CvReport};
pub use dataset::Dataset;
pub use discretize::Discretizer;
pub use forest::{RandomForest, RandomForestConfig};
pub use linreg::LinearRegression;
pub use metrics::{auc_roc_ovr, ConfusionMatrix};
pub use tree::{DecisionTree, TreeConfig};
