//! The Weblog Ads Analyzer (§4.1 of the paper).
//!
//! A streaming consumer of raw HTTP request records that rebuilds the
//! paper's measurement pipeline:
//!
//! 1. **Traffic classification** ([`classify`]) — an adblock-style domain
//!    blacklist buckets every request into Advertising / Analytics /
//!    Social / 3rd-party / Rest;
//! 2. **nURL filtering** — advertising requests are matched against the
//!    RTB macro list (`yav-nurl`), charge prices extracted, co-occurring
//!    bid prices discarded;
//! 3. **Enrichment** — reverse IP geo-coding ([`geoip`]), user-agent
//!    fingerprinting ([`ua`]), publisher content taxonomy ([`taxonomy`]),
//!    ADX↔DSP pair identification ([`pairs`]);
//! 4. **Feature extraction** ([`features`]) — the full 288-dimension
//!    vector of Table 4, computed online from per-user evolving state
//!    ([`userstate`]), snapshotted at every detected impression.
//!
//! The analyzer never touches simulator ground truth: its inputs are the
//! same byte strings a proxy log would contain.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyzer;
pub mod classify;
pub mod features;
pub mod geoip;
pub mod pairs;
pub mod summary;
pub mod taxonomy;
pub mod ua;
pub mod userstate;

pub use analyzer::{
    AnalyzerReport, DetectedImpression, ImpressionRecord, Retention, WeblogAnalyzer,
};
pub use classify::{classify_host, TrafficClass};
pub use features::{FeatureSchema, FEATURE_COUNT};
pub use geoip::GeoDb;
pub use summary::{DetectionSummary, PriceHist};
pub use ua::{parse_user_agent, UaFingerprint};
