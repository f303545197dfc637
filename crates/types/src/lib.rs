//! Shared vocabulary for the `your-ad-value` workspace.
//!
//! This crate defines the domain types every other crate speaks in:
//!
//! * [`Cpm`] — fixed-point charge prices in cost-per-mille, the unit every
//!   RTB notification carries;
//! * [`SimTime`] — the simulated clock (minutes since 2015-01-01 00:00 UTC)
//!   with a hand-rolled Gregorian calendar, so the whole workspace is free
//!   of wall-clock dependencies and fully deterministic;
//! * geography ([`City`]), devices ([`Os`], [`DeviceType`],
//!   [`InteractionType`]), ad formats ([`AdSlotSize`]), content taxonomy
//!   ([`IabCategory`]) and market entities ([`Adx`], [`DspId`]);
//! * opaque identifiers ([`UserId`], [`AuctionId`], [`ImpressionId`],
//!   [`CampaignId`]).
//!
//! Everything here is `Copy` or cheaply clonable, `serde`-serialisable and
//! ordered, so the simulation, analyzer and modeling crates can use these
//! types as map keys and feature values without conversion layers.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ad;
pub mod decimal;
pub mod device;
pub mod entity;
pub mod geo;
pub mod ids;
pub mod price;
pub mod time;

pub use ad::{AdSlotSize, IabCategory, PriceVisibility};
pub use decimal::push_decimal;
pub use device::{DeviceType, InteractionType, Os};
pub use entity::{Adx, DspId};
pub use geo::City;
pub use ids::{AuctionId, CampaignId, ImpressionId, PublisherId, UserId};
pub use price::{Cpm, MicroUsd};
pub use time::{DayOfWeek, Month, SimTime, TimeOfDay, MINUTES_PER_DAY};
