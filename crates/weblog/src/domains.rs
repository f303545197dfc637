//! The non-publisher domain universe: CDNs, analytics, social widgets and
//! third-party trackers.
//!
//! The paper's analyzer buckets traffic into five groups with an
//! adblock-style blacklist (§4.1): Advertising, Analytics, Social,
//! 3rd-party content, Rest. The generator draws auxiliary requests from
//! the fixed rosters below; `yav-analyzer` carries its own independent
//! blacklist whose coverage of these names is pinned by a cross-crate
//! test.

/// Analytics collectors (page-measurement beacons).
pub const ANALYTICS: [&str; 6] = [
    "stats.metricsrus.example",
    "collector.webmetrica.example",
    "px.audiencecount.example",
    "hits.pagepulse.example",
    "t.clickstream.example",
    "rum.speedindex.example",
];

/// Social-widget hosts.
pub const SOCIAL: [&str; 5] = [
    "widgets.facelink.example",
    "platform.chirper.example",
    "badge.fotogrid.example",
    "share.pinmark.example",
    "connect.vidtube.example",
];

/// Third-party content: CDNs, font/asset hosts, tag managers.
pub const THIRD_PARTY: [&str; 7] = [
    "cdn.fastassets.example",
    "static.cloudfiles.example",
    "fonts.typeserve.example",
    "img.pixhost.example",
    "tags.tagrouter.example",
    "js.libmirror.example",
    "media.streamedge.example",
];

/// Advertising-side trackers that are *not* exchanges: web-beacon and
/// cookie-sync hosts (counted as user features in Table 4).
pub const AD_TRACKERS: [&str; 6] = [
    "beacon.adsight.example",
    "pixel.trackwise.example",
    "sync.cookiebridge.example",
    "match.idgraph.example",
    "usersync.bidlink.example",
    "retarget.cartreminder.example",
];

/// The cookie-sync hosts within [`AD_TRACKERS`] (requests against these
/// carry `getuid`-style redirects).
pub const COOKIE_SYNC_HOSTS: [&str; 3] = [
    "sync.cookiebridge.example",
    "match.idgraph.example",
    "usersync.bidlink.example",
];

/// The 1×1-pixel beacon hosts within [`AD_TRACKERS`].
pub const BEACON_HOSTS: [&str; 2] = ["beacon.adsight.example", "pixel.trackwise.example"];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn rosters_are_disjoint_and_unique() {
        let mut seen = BTreeSet::new();
        for d in ANALYTICS
            .iter()
            .chain(&SOCIAL)
            .chain(&THIRD_PARTY)
            .chain(&AD_TRACKERS)
        {
            assert!(seen.insert(*d), "duplicate domain {d}");
        }
    }

    #[test]
    fn sync_and_beacon_hosts_are_trackers() {
        for d in COOKIE_SYNC_HOSTS.iter().chain(&BEACON_HOSTS) {
            assert!(AD_TRACKERS.contains(d), "{d} must be an ad tracker");
        }
    }
}
