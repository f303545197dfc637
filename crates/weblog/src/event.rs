//! The HTTP event stream's record types.

use serde::{Deserialize, Serialize};
use yav_types::{Adx, Cpm, ImpressionId, PriceVisibility, SimTime, UserId};

/// One logged HTTP request — the wire surface the paper's proxy captured.
///
/// Deliberately *untyped* beyond transport facts: the URL is a string, the
/// device is a user-agent string. Classifying, geolocating and feature-
/// extracting from these is the analyzer's job, as in the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HttpRequest {
    /// Request timestamp.
    pub time: SimTime,
    /// Panel user behind the request (the proxy knows its subscribers).
    pub user: UserId,
    /// Full request URL.
    pub url: String,
    /// Client IPv4 address (as `u32`, network order). Carriers assign
    /// city-scoped pools, so reverse geo-coding recovers the user's city.
    pub client_ip: u32,
    /// `User-Agent` header.
    pub user_agent: String,
    /// Response size in bytes.
    pub bytes: u32,
    /// Request duration in milliseconds.
    pub duration_ms: u32,
}

impl HttpRequest {
    /// A bare URL-only observation: a request seen without its headers or
    /// transfer metadata (e.g. YourAdValue's URL-only ingestion path).
    /// The user is the anonymous placeholder `UserId(0)` — the client
    /// runtime never identifies its own user — and the remaining fields
    /// are zeroed.
    pub fn bare(time: SimTime, url: impl Into<String>) -> HttpRequest {
        HttpRequest {
            time,
            user: UserId(0),
            url: url.into(),
            client_ip: 0,
            user_agent: String::new(),
            bytes: 0,
            duration_ms: 0,
        }
    }
}

/// Simulator-side ground truth for one sold RTB impression.
///
/// **Not observable.** Honest pipeline stages (analyzer, PME, YourAdValue)
/// must never consume these records; they exist so EXPERIMENTS.md can
/// report how close the estimated encrypted totals come to the truth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// The impression this truth belongs to.
    pub impression: ImpressionId,
    /// The user who saw it.
    pub user: UserId,
    /// When it rendered.
    pub time: SimTime,
    /// The exchange that sold it.
    pub adx: Adx,
    /// The true charge price.
    pub charge: Cpm,
    /// How the notification reported it.
    pub visibility: PriceVisibility,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_serialize() {
        let r = HttpRequest {
            time: SimTime::EPOCH,
            user: UserId(1),
            url: "http://example.com/".into(),
            client_ip: 0x0A0A_0102,
            user_agent: "UA".into(),
            bytes: 1000,
            duration_ms: 50,
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: HttpRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
