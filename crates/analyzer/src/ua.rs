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

/// ASCII case-insensitive substring probe. `needle` must already be
/// lowercase. Scanning in place keeps [`parse_user_agent`] off the heap:
/// [`UaMemo`] calls it on every change of UA string, and a lowercased
/// copy of the header would allocate on each.
fn has(haystack: &str, needle: &str) -> bool {
    let h = haystack.as_bytes();
    let n = needle.as_bytes();
    h.len() >= n.len() && h.windows(n.len()).any(|w| w.eq_ignore_ascii_case(n))
}

/// Parses a user-agent string. Unknown strings fall back to
/// `Other`/`Smartphone`/`MobileWeb` — the analyzer must classify every
/// request, not just well-formed ones.
pub fn parse_user_agent(ua: &str) -> UaFingerprint {
    // App-side fingerprints first: process VMs and HTTP stacks.
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
