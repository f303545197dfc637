//! `your-ad-value` — a Rust reproduction of *"If you are not paying for
//! it, you are the product: How much do advertisers pay to reach you?"*
//! (Papadopoulos, Kourtellis, Rodriguez Rodriguez, Laoutaris — IMC 2017).
//!
//! The paper builds a real-time methodology for estimating how much the
//! RTB advertising ecosystem pays to reach an individual user, including
//! the charge prices that exchanges deliver **encrypted**. This workspace
//! rebuilds the whole stack in Rust — the RTB market it measures, the
//! measurement pipeline, the machine-learning estimator and the
//! client-side tool — as documented in `DESIGN.md`.
//!
//! # Crate map
//!
//! | layer | crate | role |
//! |---|---|---|
//! | vocabulary | [`types`] | prices, simulated time, geography, formats, entities |
//! | substrate | [`stats`] | quantiles, CDFs, KS tests, sample-size maths |
//! | substrate | [`exec`] | deterministic worker pools, shard seed derivation |
//! | substrate | [`crypto`] | SHA-256/HMAC and the 28-byte encrypted-price token |
//! | wire | [`nurl`] | notification-URL templates, detection, price extraction |
//! | market | [`auction`] | publishers, exchanges, DSPs, Vickrey auctions |
//! | world | [`weblog`] | the 1 594-user panel and its year of browsing |
//! | pipeline | [`analyzer`] | traffic classification, enrichment, 288 features |
//! | substrate | [`ml`] | discretisation, CART, random forests, CV, metrics |
//! | harness | [`campaign`] | the Table-5 probing ad-campaigns (A1 / A2) |
//! | engine | [`pme`] | feature reduction, model training, model serving |
//! | product | [`core`] | **YourAdValue**: the client that answers the question |
//!
//! # Quickstart
//!
//! ```
//! use your_ad_value::prelude::*;
//!
//! // A miniature world: market + user panel.
//! let market = MarketConfig::default();
//! let generator = WeblogGenerator::new(WeblogConfig::tiny());
//!
//! // Ground truth for encrypted prices comes from a probing campaign.
//! let universe = generator.universe().clone();
//! let a1 = Campaign::a1().scaled(6);
//! let report = campaign::execute_parallel(&market, &universe, &a1, &ExecConfig::serial());
//!
//! // The PME trains the estimator; the client downloads it.
//! let pme = Pme::new();
//! pme.train_from_campaign(&report.rows, &TrainConfig::quick());
//! let mut yav = YourAdValue::new(None);
//! assert!(yav.refresh_model(&pme));
//!
//! // Stream browsing traffic through the client.
//! generator.run(&market, |req| { yav.observe(&req); }, |_| {});
//! let summary = yav.ledger().summary();
//! assert!(summary.total().is_positive());
//! println!("advertisers paid ≈ {} CPM for this panel", summary.total());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use yav_analyzer as analyzer;
pub use yav_auction as auction;
pub use yav_campaign as campaign;
pub use yav_core as core;
pub use yav_crypto as crypto;
pub use yav_exec as exec;
pub use yav_ml as ml;
pub use yav_nurl as nurl;
pub use yav_pme as pme;
pub use yav_stats as stats;
pub use yav_telemetry as telemetry;
pub use yav_trace as trace;
pub use yav_types as types;
pub use yav_weblog as weblog;

/// The names almost every program needs.
pub mod prelude {
    pub use crate::campaign;
    pub use yav_analyzer::{AnalyzerReport, WeblogAnalyzer};
    pub use yav_auction::{Market, MarketConfig};
    pub use yav_campaign::Campaign;
    pub use yav_core::{per_user_costs, Ledger, UserCost, YourAdValue};
    pub use yav_exec::ExecConfig;
    pub use yav_pme::model::TrainConfig;
    pub use yav_pme::{Pme, TimeShift};
    pub use yav_telemetry as telemetry;
    pub use yav_trace as trace;
    pub use yav_types::{Adx, City, Cpm, PriceVisibility, SimTime, UserId};
    pub use yav_weblog::{WeblogConfig, WeblogGenerator};
}
