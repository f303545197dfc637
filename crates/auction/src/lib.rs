//! RTB market simulator.
//!
//! The paper measures the real 2015 mobile RTB market through one narrow
//! aperture — winning-price notification URLs passing the user's browser.
//! This crate rebuilds the market behind that aperture: publishers hand ad
//! slots to exchanges, DSP decision engines value each (user, context)
//! pair, a second-price (Vickrey) auction resolves, and the exchange emits
//! the notification URL with a cleartext or encrypted charge price.
//!
//! The economic behaviour lives in [`valuation`]: a latent log-normal
//! price process modulated by the effects the paper measures (city,
//! daypart, weekday, OS, app-vs-web, IAB category, slot format, per-user
//! value, encrypted-channel premium, year-over-year drift). Every figure
//! of the paper's §4 and §6 *emerges* from auctions over this process —
//! nothing downstream ever reads the latent parameters.
//!
//! Layering (see DESIGN.md): this crate knows nothing about browsing
//! behaviour (that is `yav-weblog`) or analysis (that is `yav-analyzer`).
//! Determinism: all randomness flows from the seed in [`MarketConfig`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod dsp;
pub mod exchange;
pub mod market;
pub mod profile;
pub mod request;
pub mod valuation;

pub use config::MarketConfig;
pub use dsp::{DspProfile, DspStrategy};
pub use market::{
    AuctionOutcome, AuctionResult, Market, MarketTemplate, ProbeBid, ProbeWin, SaleLite,
};
pub use profile::Dmp;
pub use request::AdRequest;
pub use valuation::ValuationModel;
