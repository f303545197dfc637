//! Blacklist-based traffic classification.
//!
//! Mirrors the paper's use of the Disconnect adblocker list: a static
//! domain blacklist assigns each request to one of five groups. The list
//! here is the analyzer's *own* knowledge — maintained independently of
//! the generator's domain rosters (a cross-crate test pins coverage, the
//! way a real deployment would track list freshness).

use serde::{Deserialize, Serialize};

/// The five §4.1 traffic groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TrafficClass {
    /// Ad-exchange endpoints, DSP callbacks, beacons, cookie-sync hosts.
    Advertising,
    /// Page-measurement collectors.
    Analytics,
    /// Social-widget hosts.
    Social,
    /// CDNs, font/asset hosts, tag routers.
    ThirdPartyContent,
    /// Everything else (first-party content).
    Rest,
}

impl TrafficClass {
    /// All five groups.
    pub const ALL: [TrafficClass; 5] = [
        TrafficClass::Advertising,
        TrafficClass::Analytics,
        TrafficClass::Social,
        TrafficClass::ThirdPartyContent,
        TrafficClass::Rest,
    ];

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::Advertising => "Advertising",
            TrafficClass::Analytics => "Analytics",
            TrafficClass::Social => "Social",
            TrafficClass::ThirdPartyContent => "3rd party content",
            TrafficClass::Rest => "Rest",
        }
    }
}

/// Advertising blacklist: the RTB exchanges' notification/bid domains plus
/// standalone tracker hosts. A host matches an entry when it is the entry
/// or one of its subdomains. Entries on all four lists are `label.tld`,
/// which [`registrable`] relies on.
const ADVERTISING: [&str; 23] = [
    // Exchange endpoints (kept in sync with the RTB macro list).
    "mopub.com",
    "openx.net",
    "rubiconproject.com",
    "doubleclick.net",
    "contextweb.com",
    "adnxs.com",
    "mathtag.com",
    "smaato.net",
    "nexage.com",
    "inmobi.com",
    "flurry.com",
    "mydas.mobi",
    "turn.com",
    "criteo.com",
    "creativecdn.com",
    "smartadserver.com",
    "360yield.com",
    // Beacon / sync trackers.
    "adsight.example",
    "trackwise.example",
    "cookiebridge.example",
    "idgraph.example",
    "bidlink.example",
    "cartreminder.example",
];

const ANALYTICS: [&str; 6] = [
    "metricsrus.example",
    "webmetrica.example",
    "audiencecount.example",
    "pagepulse.example",
    "clickstream.example",
    "speedindex.example",
];

const SOCIAL: [&str; 5] = [
    "facelink.example",
    "chirper.example",
    "fotogrid.example",
    "pinmark.example",
    "vidtube.example",
];

const THIRD_PARTY: [&str; 7] = [
    "fastassets.example",
    "cloudfiles.example",
    "typeserve.example",
    "pixhost.example",
    "tagrouter.example",
    "libmirror.example",
    "streamedge.example",
];

/// The host's registrable domain: its last two labels, or the whole host
/// when it has fewer. A host is an entry or one of its subdomains exactly
/// when this equals the entry, since every entry is `label.tld`.
fn registrable(host: &str) -> &str {
    // One reverse scan: the second search resumes where the first stopped.
    let b = host.as_bytes();
    let dot = |end: usize| b[..end].iter().rposition(|&c| c == b'.');
    match dot(b.len()).and_then(dot) {
        Some(second_last) => &host[second_last + 1..],
        None => host,
    }
}

/// Classifies a host into its traffic group, ASCII case-insensitively.
/// Hosts keep their raw case (a [`yav_nurl::UrlRef`] borrows them), and
/// the lists are lowercase, so comparing in place needs no lowercased
/// copy of the host.
pub fn classify_host(host: &str) -> TrafficClass {
    let domain = registrable(host);
    // Each list is searched in place: one closure shared by the four
    // searches measured slower than the lowercased copy it replaced.
    if ADVERTISING.iter().any(|e| domain.eq_ignore_ascii_case(e)) {
        TrafficClass::Advertising
    } else if ANALYTICS.iter().any(|e| domain.eq_ignore_ascii_case(e)) {
        TrafficClass::Analytics
    } else if SOCIAL.iter().any(|e| domain.eq_ignore_ascii_case(e)) {
        TrafficClass::Social
    } else if THIRD_PARTY.iter().any(|e| domain.eq_ignore_ascii_case(e)) {
        TrafficClass::ThirdPartyContent
    } else {
        TrafficClass::Rest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The linear suffix scan the registrable-domain lookup replaced,
    /// kept as its oracle: the first list, in priority order, holding an
    /// entry that `host` equals or is a subdomain of.
    fn classify_by_suffix(host: &str) -> TrafficClass {
        let matches = |entry: &&str| {
            host == *entry
                || (host.len() > entry.len()
                    && host.ends_with(entry)
                    && host.as_bytes()[host.len() - entry.len() - 1] == b'.')
        };
        if ADVERTISING.iter().any(matches) {
            TrafficClass::Advertising
        } else if ANALYTICS.iter().any(matches) {
            TrafficClass::Analytics
        } else if SOCIAL.iter().any(matches) {
            TrafficClass::Social
        } else if THIRD_PARTY.iter().any(matches) {
            TrafficClass::ThirdPartyContent
        } else {
            TrafficClass::Rest
        }
    }

    #[test]
    fn registrable_lookup_matches_the_suffix_scan() {
        use yav_weblog::domains;
        let mut hosts: Vec<String> = domains::ANALYTICS
            .iter()
            .chain(&domains::SOCIAL)
            .chain(&domains::THIRD_PARTY)
            .chain(&domains::AD_TRACKERS)
            .map(|d| d.to_string())
            .collect();
        hosts.extend(yav_types::Adx::ALL.iter().map(|a| a.domain().to_owned()));
        for p in yav_weblog::PublisherUniverse::build(1, 400, 150).all() {
            hosts.extend([
                p.name.clone(),
                format!("www.{}", p.name),
                format!("api.{}", p.name),
            ]);
        }
        let mut variants = Vec::new();
        for h in &hosts {
            variants.extend([
                h.clone(),
                format!(".{h}"),
                format!("{h}."),
                format!("x{h}"),
                format!("a..{h}"),
            ]);
            if let Some((_, parent)) = h.split_once('.') {
                variants.push(parent.to_owned());
            }
        }
        variants
            .extend(["", ".", "com", "notmopub.com", "mopub.com.evil.example"].map(String::from));
        // The oracle reads lowercase hosts; `classify_host` reads the raw
        // host in any case: as generated, in upper case, and with every
        // other byte in upper case.
        for h in &variants {
            let want = classify_by_suffix(&h.to_ascii_lowercase());
            let mixed: String = h
                .chars()
                .enumerate()
                .map(|(i, c)| {
                    if i % 2 == 0 {
                        c.to_ascii_uppercase()
                    } else {
                        c
                    }
                })
                .collect();
            for cased in [h.clone(), h.to_ascii_uppercase(), mixed] {
                assert_eq!(classify_host(&cased), want, "{cased:?}");
            }
        }
    }

    #[test]
    fn blacklist_entries_are_distinct_registrable_domains() {
        // The registrable-domain lookup is exact only while every entry
        // is `label.tld`: a three-label entry would never match.
        let all: Vec<&str> = ADVERTISING
            .iter()
            .chain(&ANALYTICS)
            .chain(&SOCIAL)
            .chain(&THIRD_PARTY)
            .copied()
            .collect();
        for e in &all {
            let labels: Vec<&str> = e.split('.').collect();
            assert!(
                labels.len() == 2 && labels.iter().all(|l| !l.is_empty()),
                "{e:?} is not label.tld"
            );
        }
        let distinct: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(distinct.len(), all.len(), "an entry is listed twice");
    }

    #[test]
    fn exchanges_are_advertising() {
        for adx in yav_types::Adx::ALL {
            assert_eq!(
                classify_host(adx.domain()),
                TrafficClass::Advertising,
                "{}",
                adx.domain()
            );
        }
    }

    #[test]
    fn generator_rosters_covered() {
        // The analyzer's blacklist must cover the generator's tracker
        // universe — the Disconnect-freshness property.
        for d in yav_weblog::domains::ANALYTICS {
            assert_eq!(classify_host(d), TrafficClass::Analytics, "{d}");
        }
        for d in yav_weblog::domains::SOCIAL {
            assert_eq!(classify_host(d), TrafficClass::Social, "{d}");
        }
        for d in yav_weblog::domains::THIRD_PARTY {
            assert_eq!(classify_host(d), TrafficClass::ThirdPartyContent, "{d}");
        }
        for d in yav_weblog::domains::AD_TRACKERS {
            assert_eq!(classify_host(d), TrafficClass::Advertising, "{d}");
        }
    }

    #[test]
    fn suffix_matching_is_label_safe() {
        assert_eq!(
            classify_host("cpp.imp.mpx.mopub.com"),
            TrafficClass::Advertising
        );
        assert_eq!(
            classify_host("Cpp.Imp.Mpx.MoPub.COM"),
            TrafficClass::Advertising
        );
        // "notmopub.com" must NOT match "mopub.com".
        assert_eq!(classify_host("notmopub.com"), TrafficClass::Rest);
        assert_eq!(classify_host("mopub.com.evil.example"), TrafficClass::Rest);
    }

    #[test]
    fn publishers_are_rest() {
        assert_eq!(
            classify_host("www.dailynoticias7.example"),
            TrafficClass::Rest
        );
        assert_eq!(
            classify_host("api.com.superdeporte.app3"),
            TrafficClass::Rest
        );
    }
}
