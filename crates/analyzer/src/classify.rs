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
    /// All five groups, in declaration order, so `class as usize` is a
    /// class's index here.
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

/// The four lists in priority order, each with its group.
const LISTS: [(&[&str], TrafficClass); 4] = [
    (&ADVERTISING, TrafficClass::Advertising),
    (&ANALYTICS, TrafficClass::Analytics),
    (&SOCIAL, TrafficClass::Social),
    (&THIRD_PARTY, TrafficClass::ThirdPartyContent),
];

const ENTRIES: usize = ADVERTISING.len() + ANALYTICS.len() + SOCIAL.len() + THIRD_PARTY.len();

/// Every entry of the four lists with its group, in priority order,
/// computed at compile time so the lookup cannot drift from the lists.
/// Bit `i` of a [`FIRST`] or [`SECOND`] mask stands for `TABLE[i]`.
const TABLE: [(&str, TrafficClass); ENTRIES] = {
    let mut table = [("", TrafficClass::Rest); ENTRIES];
    let (mut at, mut l) = (0, 0);
    while l < LISTS.len() {
        let (list, class) = LISTS[l];
        let mut i = 0;
        while i < list.len() {
            table[at] = (list[i], class);
            at += 1;
            i += 1;
        }
        l += 1;
    }
    table
};

/// Bit `i` is set at both ASCII cases of byte `at` of `TABLE[i]`.
const fn byte_table(at: usize) -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < TABLE.len() {
        let b = TABLE[i].0.as_bytes()[at];
        table[b.to_ascii_lowercase() as usize] |= 1 << i;
        table[b.to_ascii_uppercase() as usize] |= 1 << i;
        i += 1;
    }
    table
}

/// Entries by the first and by the second byte of their domain. An
/// entry shorter than two bytes, or a table past 64 entries (`1 << i`
/// overflows), fails to compile.
const FIRST: [u64; 256] = byte_table(0);
const SECOND: [u64; 256] = byte_table(1);

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
///
/// The registrable domain's first two bytes pick the candidate entries,
/// as `yav_nurl::screen_adx` picks exchanges; most hosts meet none, and
/// the rest meet one or two. Entries are distinct, so at most one
/// candidate can equal the domain, and candidates are tried in table
/// (priority) order.
pub fn classify_host(host: &str) -> TrafficClass {
    let domain = registrable(host).as_bytes();
    let (Some(&b0), Some(&b1)) = (domain.first(), domain.get(1)) else {
        return TrafficClass::Rest;
    };
    let mut candidates = FIRST[b0 as usize] & SECOND[b1 as usize];
    while candidates != 0 {
        let i = candidates.trailing_zeros() as usize;
        candidates &= candidates - 1;
        let (entry, class) = TABLE[i];
        if domain.eq_ignore_ascii_case(entry.as_bytes()) {
            return class;
        }
    }
    TrafficClass::Rest
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
        // Hosts that share an entry's first two bytes or its length, or
        // end in one, but are not entries.
        variants.extend(
            [
                "",
                ".",
                "m",
                "mo",
                "com",
                "mo.com",
                "mopubx.com",
                "notmopub.com",
                "mopub.com.evil.example",
                "adsight.examples",
                "adsight.exampl",
                "ADSIGHT.EXAMPLE.",
                "fastassets.example.",
            ]
            .map(String::from),
        );
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
    fn table_meets_the_lookup_premises() {
        // `classify_host` is exact only while every entry is `label.tld`
        // (so "the host is the entry or one of its subdomains" is "its
        // registrable domain is the entry"), at least two lowercase host
        // bytes (so both masks index it, in either case) and distinct
        // across the four lists (so at most one candidate matches), and
        // while the table fits the masks' width.
        let host_byte = |b: u8| b.is_ascii_lowercase() || b.is_ascii_digit() || b"-_".contains(&b);
        for (entry, _) in TABLE {
            assert!(entry.len() >= 2, "{entry:?} is shorter than two bytes");
            let labels: Vec<&str> = entry.split('.').collect();
            assert!(
                labels.len() == 2 && labels.iter().all(|l| !l.is_empty()),
                "{entry:?} is not label.tld"
            );
            assert!(
                labels.iter().all(|l| l.bytes().all(host_byte)),
                "{entry:?} is not lowercase host bytes"
            );
        }
        // The table is the four lists, in priority order.
        let lists: Vec<(&str, TrafficClass)> = LISTS
            .iter()
            .flat_map(|&(list, class)| list.iter().map(move |&e| (e, class)))
            .collect();
        assert_eq!(TABLE.to_vec(), lists);
        let distinct: std::collections::BTreeSet<&str> = TABLE.iter().map(|&(e, _)| e).collect();
        assert_eq!(distinct.len(), TABLE.len(), "an entry is listed twice");
        assert!(
            TABLE.len() <= u64::BITS as usize,
            "the table outgrows its masks"
        );
    }

    #[test]
    fn all_is_in_declaration_order() {
        for (i, class) in TrafficClass::ALL.into_iter().enumerate() {
            assert_eq!(class as usize, i, "{class:?}");
        }
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
