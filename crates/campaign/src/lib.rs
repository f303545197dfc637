//! Probing ad-campaigns (§5.2–5.3 of the paper).
//!
//! Ground truth for encrypted prices cannot be observed from the browser;
//! it can only be *bought*. The paper ran two real campaigns through a
//! cooperating DSP: **A1** (May 2016, the four price-encrypting
//! exchanges, 632 667 impressions) and **A2** (June 2016, MoPub only,
//! 318 964 impressions), each sweeping 144 experimental setups built from
//! the Table-5 filters. The DSP's performance reports contain the true
//! charge prices — even for impressions whose browser-side notifications
//! were encrypted.
//!
//! This crate reproduces the harness against the simulated market:
//!
//! * [`setups`] — the Table-5 filter vocabulary and the balanced
//!   144-setup design;
//! * [`plan`] — the §5.2 sample-size mathematics;
//! * [`executor`] — buys impressions setup by setup through
//!   [`yav_auction::Market::run_auction`] with the campaign's
//!   [`yav_auction::ProbeBid`], one shard market per setup
//!   ([`execute_parallel`]), respecting the bid cap and the campaign
//!   budget, and books each won sale's true charge into the performance
//!   report rows that later train the Price Modeling Engine.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod executor;
pub mod plan;
pub mod setups;

pub use executor::{execute_parallel, Campaign, CampaignReport, ProbeImpression};
pub use plan::CampaignPlan;
pub use setups::{DayType, Setup};
