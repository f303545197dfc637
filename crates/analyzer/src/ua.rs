//! User-agent fingerprinting (§4.3).
//!
//! The paper parses the `User-Agent` header to classify traffic by
//! operating system, hardware class, and whether a request came from a
//! native app or a mobile browser — the app case leaks process-VM /
//! kernel fingerprints (Dalvik, ART, Darwin/CFNetwork).

use serde::{Deserialize, Serialize};
use yav_types::{DeviceType, InteractionType, Os};

/// The facts a user-agent string leaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UaFingerprint {
    /// Operating system.
    pub os: Os,
    /// Hardware class.
    pub device: DeviceType,
    /// Native app vs web browser.
    pub interaction: InteractionType,
}

/// The keywords a fingerprint is read from, lowercase, matched ASCII
/// case-insensitively anywhere in the string. Bit `k` of a
/// [`keywords_in`] mask stands for `KEYWORDS[k]`, as do the masks below.
const KEYWORDS: [&str; 14] = [
    "dalvik",
    "cfnetwork",
    "darwin",
    "nativehost",
    "genericmobileapp",
    "android",
    "iphone",
    "ipad",
    "like mac os x",
    "windows phone",
    "windowsphone",
    "tablet",
    "windows nt",
    "macintosh",
];
const DALVIK: u16 = 1 << 0;
const CFNETWORK: u16 = 1 << 1;
const DARWIN: u16 = 1 << 2;
const NATIVEHOST: u16 = 1 << 3;
const GENERICMOBILEAPP: u16 = 1 << 4;
const ANDROID: u16 = 1 << 5;
const IPHONE: u16 = 1 << 6;
const IPAD: u16 = 1 << 7;
const LIKE_MAC_OS_X: u16 = 1 << 8;
const WINDOWS_PHONE: u16 = 1 << 9;
const WINDOWSPHONE: u16 = 1 << 10;
const TABLET: u16 = 1 << 11;
const WINDOWS_NT: u16 = 1 << 12;
const MACINTOSH: u16 = 1 << 13;

/// Bit `k` is set at both ASCII cases of byte `i` of keyword `k`.
const fn byte_table(i: usize) -> [u16; 256] {
    let mut table = [0u16; 256];
    let mut k = 0;
    while k < KEYWORDS.len() {
        let b = KEYWORDS[k].as_bytes()[i];
        table[b.to_ascii_lowercase() as usize] |= 1 << k;
        table[b.to_ascii_uppercase() as usize] |= 1 << k;
        k += 1;
    }
    table
}

/// Keywords by their first and by their second byte. Every keyword has
/// both (building `SECOND` fails to compile otherwise), so a keyword
/// can start only at a byte pair both tables admit.
const FIRST: [u16; 256] = byte_table(0);
const SECOND: [u16; 256] = byte_table(1);

/// The mask of [`KEYWORDS`] occurring in `ua`, in one pass over its
/// bytes: at each byte pair only the keywords both tables admit and
/// not yet found are compared. Scanning in place keeps
/// [`parse_user_agent`] off the heap: [`UaMemo`] calls it on every
/// change of UA string, and a lowercased copy of the header would
/// allocate on each.
fn keywords_in(ua: &str) -> u16 {
    let h = ua.as_bytes();
    let mut found = 0;
    for (i, pair) in h.windows(2).enumerate() {
        let mut candidates = FIRST[pair[0] as usize] & SECOND[pair[1] as usize] & !found;
        while candidates != 0 {
            let k = candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            let kw = KEYWORDS[k].as_bytes();
            if h[i..]
                .get(..kw.len())
                .is_some_and(|w| w.eq_ignore_ascii_case(kw))
            {
                found |= 1 << k;
            }
        }
    }
    found
}

/// Parses a user-agent string. Unknown strings fall back to
/// `Other`/`Smartphone`/`MobileWeb` — the analyzer must classify every
/// request, not just well-formed ones.
pub fn parse_user_agent(ua: &str) -> UaFingerprint {
    let found = keywords_in(ua);
    let any = |mask: u16| found & mask != 0;

    // App-side fingerprints first: process VMs and HTTP stacks.
    let in_app = any(DALVIK | CFNETWORK | DARWIN | NATIVEHOST | GENERICMOBILEAPP);

    let os = if any(ANDROID | DALVIK) {
        Os::Android
    } else if any(IPHONE | IPAD | CFNETWORK | DARWIN | LIKE_MAC_OS_X) {
        Os::Ios
    } else if any(WINDOWS_PHONE | WINDOWSPHONE) {
        Os::WindowsMobile
    } else {
        Os::Other
    };

    let device = if any(IPAD | TABLET) {
        DeviceType::Tablet
    } else if any(WINDOWS_NT | MACINTOSH) {
        DeviceType::Pc
    } else {
        DeviceType::Smartphone
    };

    UaFingerprint {
        os,
        device,
        interaction: if in_app {
            InteractionType::MobileApp
        } else {
            InteractionType::MobileWeb
        },
    }
}

/// A one-entry user-agent fingerprint memo. A device sends the same UA
/// string on essentially every request, and a stream replays its users
/// one after another, so repeat fingerprinting collapses to one string
/// compare. The analyzer and the monitor's sift each own one.
#[derive(Debug, Default)]
pub struct UaMemo {
    raw: String,
    fp: Option<UaFingerprint>,
}

impl UaMemo {
    /// The memoized [`parse_user_agent`]. Only a UA longer than every
    /// earlier one grows the memo's buffer.
    pub fn fingerprint(&mut self, ua: &str) -> UaFingerprint {
        match self.fp {
            Some(fp) if self.raw == ua => fp,
            _ => {
                let fp = parse_user_agent(ua);
                self.raw.clear();
                self.raw.push_str(ua);
                self.fp = Some(fp);
                fp
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ASCII case-insensitive substring probe; `needle` is lowercase.
    fn has(haystack: &str, needle: &str) -> bool {
        let h = haystack.as_bytes();
        let n = needle.as_bytes();
        h.len() >= n.len() && h.windows(n.len()).any(|w| w.eq_ignore_ascii_case(n))
    }

    /// The windowed parser the one-pass scan replaced, kept as its
    /// oracle: one `has` scan per keyword probe, in the same order.
    fn parse_by_scans(ua: &str) -> UaFingerprint {
        let in_app = has(ua, "dalvik")
            || has(ua, "cfnetwork")
            || has(ua, "darwin")
            || has(ua, "nativehost")
            || has(ua, "genericmobileapp");
        let os = if has(ua, "android") || has(ua, "dalvik") {
            Os::Android
        } else if has(ua, "iphone")
            || has(ua, "ipad")
            || has(ua, "cfnetwork")
            || has(ua, "darwin")
            || has(ua, "like mac os x")
        {
            Os::Ios
        } else if has(ua, "windows phone") || has(ua, "windowsphone") {
            Os::WindowsMobile
        } else {
            Os::Other
        };
        let device = if has(ua, "ipad") || has(ua, "tablet") {
            DeviceType::Tablet
        } else if has(ua, "windows nt") || has(ua, "macintosh") {
            DeviceType::Pc
        } else {
            DeviceType::Smartphone
        };
        UaFingerprint {
            os,
            device,
            interaction: if in_app {
                InteractionType::MobileApp
            } else {
                InteractionType::MobileWeb
            },
        }
    }

    /// Every other byte upper-cased: "dAlViK".
    fn mixed_case(s: &str) -> String {
        s.chars()
            .enumerate()
            .map(|(i, c)| {
                if i % 2 == 1 {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect()
    }

    #[test]
    fn one_pass_matches_the_windowed_parser() {
        let panel = yav_weblog::Panel::build(3, 3_000);
        let mut agents: Vec<String> = panel
            .users()
            .iter()
            .flat_map(|u| [u.web_user_agent(), u.app_user_agent()])
            .collect();
        for kw in KEYWORDS {
            let short = &kw[..kw.len() - 1];
            for s in [kw, short, &kw.to_ascii_uppercase(), &mixed_case(kw)].map(String::from) {
                agents.extend([
                    s.clone(),
                    format!("{s}/1.0 (Linux)"),
                    format!("Mozilla/5.0 {s}"),
                ]);
            }
            // Overlapping another keyword: a suffix of `kw` is a prefix
            // of `next` ("darwindows nt", "androidalvik", "tabletablet"),
            // plus the plain concatenation.
            for next in KEYWORDS {
                for overlap in 0..kw.len().min(next.len()) {
                    if kw.as_bytes()[kw.len() - overlap..] == next.as_bytes()[..overlap] {
                        let joined = format!("{kw}{}", &next[overlap..]);
                        agents.push(mixed_case(&joined));
                        agents.push(joined);
                    }
                }
            }
        }
        agents.extend(["", "d", "ÿ Dalvik 日本", "iPa\u{0}d", "WINDOWS\tNT"].map(String::from));
        for ua in &agents {
            let want = KEYWORDS
                .iter()
                .enumerate()
                .filter(|(_, kw)| has(ua, kw))
                .fold(0u16, |mask, (k, _)| mask | 1 << k);
            assert_eq!(keywords_in(ua), want, "{ua:?}");
            assert_eq!(parse_user_agent(ua), parse_by_scans(ua), "{ua:?}");
        }
    }

    #[test]
    fn android_web() {
        let fp = parse_user_agent(
            "Mozilla/5.0 (Linux; Android 5.1; SM-G900 Build/LMY47X) AppleWebKit/537.36 Chrome/43.0 Mobile Safari/537.36",
        );
        assert_eq!(fp.os, Os::Android);
        assert_eq!(fp.interaction, InteractionType::MobileWeb);
        assert_eq!(fp.device, DeviceType::Smartphone);
    }

    #[test]
    fn android_app_via_dalvik() {
        let fp = parse_user_agent("Dalvik/2.1.0 (Linux; U; Android 5.1; SM-G910)");
        assert_eq!(fp.os, Os::Android);
        assert_eq!(fp.interaction, InteractionType::MobileApp);
    }

    #[test]
    fn ios_app_via_darwin() {
        let fp = parse_user_agent("App/3 CFNetwork/711.3 Darwin/14.0.0");
        assert_eq!(fp.os, Os::Ios);
        assert_eq!(fp.interaction, InteractionType::MobileApp);
    }

    #[test]
    fn ipad_is_tablet() {
        let fp = parse_user_agent(
            "Mozilla/5.0 (iPad; CPU iPhone OS 8_2 like Mac OS X) AppleWebKit/600.1 Version/8.0 Mobile Safari/600.1",
        );
        assert_eq!(fp.os, Os::Ios);
        assert_eq!(fp.device, DeviceType::Tablet);
    }

    #[test]
    fn windows_phone() {
        let fp = parse_user_agent(
            "Mozilla/5.0 (Windows Phone 8.1; ARM; Trident/7.0; IEMobile/11.0) like Gecko",
        );
        assert_eq!(fp.os, Os::WindowsMobile);
    }

    #[test]
    fn junk_falls_back() {
        let fp = parse_user_agent("curl/7.4");
        assert_eq!(fp.os, Os::Other);
        assert_eq!(fp.device, DeviceType::Smartphone);
        assert_eq!(fp.interaction, InteractionType::MobileWeb);
    }

    #[test]
    fn panel_agents_round_trip() {
        // Every user-agent the panel can emit must be classified back to
        // the user's configured OS/device/channel.
        let panel = yav_weblog::Panel::build(3, 300);
        for u in panel.users() {
            let web = parse_user_agent(&u.web_user_agent());
            assert_eq!(web.os, u.os, "web UA of {:?}", u.id);
            assert_eq!(web.interaction, InteractionType::MobileWeb);
            let app = parse_user_agent(&u.app_user_agent());
            assert_eq!(app.os, u.os, "app UA of {:?}", u.id);
            assert_eq!(app.interaction, InteractionType::MobileApp);
            if u.os == Os::Ios {
                assert_eq!(web.device, u.device, "iOS web UA leaks device class");
            }
        }
    }

    #[test]
    fn memo_matches_the_parser_on_every_input() {
        // One memo across alternating agents, repeats, prefixes, case
        // changes and junk: it must never hand back a stale fingerprint.
        let panel = yav_weblog::Panel::build(3, 300);
        let mut seq = Vec::new();
        for u in panel.users() {
            let (web, app) = (u.web_user_agent(), u.app_user_agent());
            let prefix = app[..app.len() / 2].to_owned();
            let upper = app.to_ascii_uppercase();
            seq.extend([web, app.clone(), app.clone(), prefix, app, upper]);
        }
        // Then empty and non-ASCII agents, and neighbours of equal length
        // or sharing a prefix whose fingerprints differ.
        seq.extend(
            [
                "",
                "",
                "ÿ Dalvik 日本",
                "Android",
                "iPhone!",
                "Mozilla/5.0",
                "Mozilla/5.0 (iPad)",
            ]
            .map(String::from),
        );
        let mut memo = UaMemo::default();
        for ua in &seq {
            assert_eq!(memo.fingerprint(ua), parse_user_agent(ua), "{ua:?}");
        }
    }
}
