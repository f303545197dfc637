//! **YourAdValue** — the paper's primary contribution (§3).
//!
//! A user-side tool that watches the device's HTTP traffic, filters RTB
//! winning-price notifications, tallies the readable charge prices,
//! estimates the encrypted ones with a PME-supplied decision-tree model,
//! and reports the cumulative amount advertisers have paid to reach the
//! user:
//!
//! ```text
//! V_u(T) = C_u(T) + E_u(T)                      (Eq. 1)
//! C_u(T) = Σ c_i,        i ∈ SC_u(T)            (Eq. 2)
//! E_u(T) = Σ ESe(S_i),   i ∈ SE_u(T)            (Eq. 3)
//! ```
//!
//! * [`monitor`] — the extension runtime: per-request observation,
//!   price-event production, model refresh against a [`yav_pme::Pme`],
//!   anonymous contribution batching;
//! * [`ledger`] — the browser-local storage: per-impression records,
//!   running sums, toolbar notifications, period queries;
//! * [`methodology`] — the offline driver of §6: applies the model and
//!   the time-shift correction to a whole analyzer report, producing the
//!   per-user cost accounts behind Figures 17–19;
//! * [`validation`] — the §6.3 extrapolation from panel CPM to dollar
//!   ARPU, with each market-factor assumption explicit.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ledger;
pub mod methodology;
pub mod monitor;
pub mod tenant;
pub mod validation;

pub use ledger::{CostSummary, Ledger, PriceEvent};
pub use methodology::{per_user_costs, UserCost};
pub use monitor::{DropStats, YourAdValue};
pub use tenant::{TenantReport, TenantState, TenantStore};
pub use validation::{ArpuEstimate, MarketFactors};
