//! The user panel: 1 594 volunteers and their behavioural parameters.
//!
//! Each panelist gets a home city (population-weighted across the ten
//! Figure-5 locations), a device (OS market shares per Figure 8: Android
//! roughly 2× iOS in auction volume), an activity level (log-normal —
//! some users browse constantly), an app-vs-web propensity, and a small
//! weighted interest profile over IAB categories that steers which
//! publishers they visit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use yav_types::{push_decimal, City, DeviceType, IabCategory, Os, UserId};

/// One panel user.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PanelUser {
    /// Identifier.
    pub id: UserId,
    /// Home city.
    pub home: City,
    /// Device operating system.
    pub os: Os,
    /// Device hardware class (smartphone or tablet — the panel is mobile).
    pub device: DeviceType,
    /// Multiplier on daily view volume (log-normal, median 1).
    pub activity: f64,
    /// Probability a view happens inside a native app rather than the
    /// mobile web.
    pub app_propensity: f64,
    /// Interest profile: up to four categories with weights summing ≤ 1.
    pub interests: Vec<(IabCategory, f64)>,
    /// Probability a session happens away from the home city.
    pub mobility: f64,
}

impl PanelUser {
    /// The user-agent string this user's device emits for *web* requests.
    pub fn web_user_agent(&self) -> String {
        let mut out = String::new();
        self.write_web_user_agent(&mut out);
        out
    }

    /// Appends the web user-agent to `buf` without allocating — the form
    /// the generator uses to pre-render one UA per user per shard.
    pub fn write_web_user_agent(&self, buf: &mut String) {
        match self.os {
            Os::Android => {
                buf.push_str("Mozilla/5.0 (Linux; Android 5.1; SM-G");
                push_decimal(buf, 900 + self.id.0 % 30);
                buf.push_str(
                    "00 Build/LMY47X) AppleWebKit/537.36 Chrome/43.0 Mobile Safari/537.36",
                );
            }
            Os::Ios => {
                buf.push_str(if self.device == DeviceType::Tablet {
                    "Mozilla/5.0 (iPad; CPU iPhone OS 8_"
                } else {
                    "Mozilla/5.0 (iPhone; CPU iPhone OS 8_"
                });
                push_decimal(buf, 1 + self.id.0 % 4);
                buf.push_str(" like Mac OS X) AppleWebKit/600.1 Version/8.0 Mobile Safari/600.1");
            }
            Os::WindowsMobile => buf.push_str(
                "Mozilla/5.0 (Windows Phone 8.1; ARM; Trident/7.0; IEMobile/11.0) like Gecko",
            ),
            Os::Other => buf.push_str("Mozilla/5.0 (Mobile; rv:34.0) Gecko/34.0 Firefox/34.0"),
        }
    }

    /// The user-agent string for *in-app* requests (process VMs leak
    /// through, §4.3: Dalvik on Android, Darwin/CFNetwork on iOS).
    pub fn app_user_agent(&self) -> String {
        let mut out = String::new();
        self.write_app_user_agent(&mut out);
        out
    }

    /// Appends the in-app user-agent to `buf` without allocating.
    pub fn write_app_user_agent(&self, buf: &mut String) {
        match self.os {
            Os::Android => {
                buf.push_str("Dalvik/2.1.0 (Linux; U; Android 5.1; SM-G");
                push_decimal(buf, 900 + self.id.0 % 30);
                buf.push_str("00)");
            }
            Os::Ios => {
                buf.push_str("App/");
                push_decimal(buf, 1 + self.id.0 % 9);
                buf.push_str(" CFNetwork/711.3 Darwin/14.0.0");
            }
            Os::WindowsMobile => buf.push_str("WindowsPhoneApp/8.1 NativeHost"),
            Os::Other => buf.push_str("GenericMobileApp/1.0"),
        }
    }

    /// Interest categories only (for publisher affinity sampling).
    pub fn interest_categories(&self) -> Vec<IabCategory> {
        self.interests.iter().map(|&(c, _)| c).collect()
    }

    /// Interest categories into a fixed buffer (profiles carry at most
    /// four): the allocation-free twin of
    /// [`PanelUser::interest_categories`]. Returns the filled prefix.
    pub fn interest_categories_into<'a>(&self, buf: &'a mut [IabCategory; 4]) -> &'a [IabCategory] {
        let n = self.interests.len().min(4);
        for (slot, &(c, _)) in buf.iter_mut().zip(self.interests.iter()) {
            *slot = c;
        }
        &buf[..n]
    }

    /// The weight of one category in this user's profile (0 if absent).
    pub fn interest_weight(&self, iab: IabCategory) -> f64 {
        self.interests
            .iter()
            .find(|&&(c, _)| c == iab)
            .map(|&(_, w)| w)
            .unwrap_or(0.0)
    }
}

/// The whole panel.
#[derive(Debug, Clone)]
pub struct Panel {
    users: Vec<PanelUser>,
}

impl Panel {
    /// Builds a deterministic panel of `n` users.
    pub fn build(seed: u64, n: u32) -> Panel {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9A9E_0000_0000_0005);
        let users = (0..n)
            .map(|i| Self::draw_user(&mut rng, UserId(i)))
            .collect();
        Panel { users }
    }

    /// Builds only the users `[lo, hi)` of a *lazy* panel. Unlike
    /// [`Panel::build`] — whose draws are sequential, so user `i` depends
    /// on every draw before it — each lazy user gets an independent RNG
    /// derived from `(seed, id)`. Any block can therefore be materialised
    /// on demand in O(block) memory: the million-user streaming pipeline
    /// builds each 32-user shard block, plays it, and drops it. The two
    /// derivations produce *different* (equally valid) panels; lazy mode
    /// is only used at scales where the eager panel would not fit.
    pub fn build_block(seed: u64, lo: u32, hi: u32) -> Vec<PanelUser> {
        (lo..hi)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(yav_exec::derive_seed(
                    seed ^ 0x9A9E_0000_0000_0015,
                    i as u64,
                ));
                Self::draw_user(&mut rng, UserId(i))
            })
            .collect()
    }

    fn draw_user(rng: &mut StdRng, id: UserId) -> PanelUser {
        // Home city: population-weighted, O(1) via a shared alias table
        // (one uniform per draw, same budget as the old CDF walk).
        static CITY_TABLE: std::sync::OnceLock<yav_stats::AliasTable> = std::sync::OnceLock::new();
        let table = CITY_TABLE.get_or_init(|| {
            let pops: Vec<f64> = City::ALL.iter().map(|c| c.population() as f64).collect();
            yav_stats::AliasTable::new(&pops)
        });
        let home = City::ALL[table.sample(rng)];

        // OS market shares (Fig. 8: Android ≈2× iOS in volume).
        let os = match rng.gen::<f64>() {
            x if x < 0.60 => Os::Android,
            x if x < 0.90 => Os::Ios,
            x if x < 0.96 => Os::WindowsMobile,
            _ => Os::Other,
        };
        let device = if rng.gen::<f64>() < 0.15 {
            DeviceType::Tablet
        } else {
            DeviceType::Smartphone
        };

        // Log-normal activity, median 1, a few heavy browsers.
        let activity = (0.6 * crate::generator::normal(rng)).exp();

        // iOS users skew slightly more app-bound (a 2015 market pattern);
        // everyone spends most ad-eligible time in apps.
        let app_propensity =
            (0.55 + 0.12 * rng.gen::<f64>() + if os == Os::Ios { 0.05 } else { 0.0 })
                .clamp(0.0, 0.9);

        // 2–4 interests, Dirichlet-ish weights.
        let k = rng.gen_range(2..=4usize);
        let mut cats = Vec::with_capacity(k);
        while cats.len() < k {
            let c = IabCategory::ALL[rng.gen_range(0..IabCategory::ALL.len())];
            if !cats.contains(&c) {
                cats.push(c);
            }
        }
        let mut raw: Vec<f64> = (0..k).map(|_| rng.gen::<f64>() + 0.2).collect();
        let sum: f64 = raw.iter().sum();
        raw.iter_mut().for_each(|w| *w /= sum);
        let interests = cats.into_iter().zip(raw).collect();

        PanelUser {
            id,
            home,
            os,
            device,
            activity,
            app_propensity,
            interests,
            mobility: 0.04 + 0.10 * rng.gen::<f64>(),
        }
    }

    /// All users.
    pub fn users(&self) -> &[PanelUser] {
        &self.users
    }

    /// Looks a user up.
    pub fn get(&self, id: UserId) -> Option<&PanelUser> {
        self.users.get(id.0 as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn panel_deterministic() {
        let a = Panel::build(7, 100);
        let b = Panel::build(7, 100);
        assert_eq!(a.users(), b.users());
        assert_eq!(a.users().len(), 100);
    }

    #[test]
    fn lazy_blocks_tile_consistently() {
        // A block materialised twice is identical, and adjacent blocks
        // tile into the same users a wider block produces — the property
        // the sharded streaming generator relies on.
        let a = Panel::build_block(7, 0, 64);
        let lo = Panel::build_block(7, 0, 32);
        let hi = Panel::build_block(7, 32, 64);
        assert_eq!(a[..32], lo[..]);
        assert_eq!(a[32..], hi[..]);
        assert_eq!(Panel::build_block(7, 32, 64), hi);
        for (i, u) in a.iter().enumerate() {
            assert_eq!(u.id, UserId(i as u32));
        }
        // Lazy users still look like panel users (shares spot-check).
        let p = Panel::build_block(1, 0, 5000);
        let android = p.iter().filter(|u| u.os == Os::Android).count() as f64 / 5000.0;
        assert!((android - 0.60).abs() < 0.03, "android share {android}");
    }

    #[test]
    fn os_shares_near_market() {
        let p = Panel::build(1, 5000);
        let share = |os: Os| p.users().iter().filter(|u| u.os == os).count() as f64 / 5000.0;
        assert!((share(Os::Android) - 0.60).abs() < 0.03);
        assert!((share(Os::Ios) - 0.30).abs() < 0.03);
        assert!(share(Os::Android) > 1.6 * share(Os::Ios));
    }

    #[test]
    fn cities_population_weighted() {
        let p = Panel::build(2, 5000);
        let madrid = p.users().iter().filter(|u| u.home == City::Madrid).count();
        let torello = p.users().iter().filter(|u| u.home == City::Torello).count();
        assert!(
            madrid > 30 * torello.max(1),
            "madrid {madrid} torello {torello}"
        );
    }

    #[test]
    fn user_agents_leak_the_right_fingerprints() {
        let p = Panel::build(3, 200);
        for u in p.users() {
            let web = u.web_user_agent();
            let app = u.app_user_agent();
            match u.os {
                Os::Android => {
                    assert!(web.contains("Android"));
                    assert!(app.contains("Dalvik"));
                }
                Os::Ios => {
                    assert!(web.contains("like Mac OS X"));
                    assert!(app.contains("Darwin"));
                }
                Os::WindowsMobile => assert!(web.contains("Windows Phone")),
                Os::Other => assert!(web.contains("Mobile")),
            }
            if u.device == DeviceType::Tablet && u.os == Os::Ios {
                assert!(web.contains("iPad"));
            }
        }
    }

    #[test]
    fn user_agents_fill_their_templates() {
        // The agents are spliced from literal pieces; each must read as
        // its one-line template filled in by `format!`.
        let p = Panel::build(3, 400);
        let (mut seen, mut seen_ios_devices) = (BTreeSet::new(), BTreeSet::new());
        for u in p.users() {
            let (web, app) = match u.os {
                Os::Android => {
                    let model = 900 + u.id.0 % 30;
                    (
                        format!("Mozilla/5.0 (Linux; Android 5.1; SM-G{model}00 Build/LMY47X) AppleWebKit/537.36 Chrome/43.0 Mobile Safari/537.36"),
                        format!("Dalvik/2.1.0 (Linux; U; Android 5.1; SM-G{model}00)"),
                    )
                }
                Os::Ios => {
                    let hardware = if u.device == DeviceType::Tablet {
                        "iPad;"
                    } else {
                        "iPhone;"
                    };
                    (
                        format!("Mozilla/5.0 ({hardware} CPU iPhone OS 8_{} like Mac OS X) AppleWebKit/600.1 Version/8.0 Mobile Safari/600.1", 1 + u.id.0 % 4),
                        format!("App/{} CFNetwork/711.3 Darwin/14.0.0", 1 + u.id.0 % 9),
                    )
                }
                Os::WindowsMobile => (
                    "Mozilla/5.0 (Windows Phone 8.1; ARM; Trident/7.0; IEMobile/11.0) like Gecko"
                        .to_owned(),
                    "WindowsPhoneApp/8.1 NativeHost".to_owned(),
                ),
                Os::Other => (
                    "Mozilla/5.0 (Mobile; rv:34.0) Gecko/34.0 Firefox/34.0".to_owned(),
                    "GenericMobileApp/1.0".to_owned(),
                ),
            };
            assert_eq!(u.web_user_agent(), web);
            assert_eq!(u.app_user_agent(), app);
            seen.insert(u.os);
            if u.os == Os::Ios {
                seen_ios_devices.insert(u.device);
            }
        }
        // Every template ran: all four systems, iPhones and iPads.
        assert_eq!(seen.len(), 4, "only {seen:?}");
        assert_eq!(seen_ios_devices.len(), 2, "only {seen_ios_devices:?}");
    }

    #[test]
    fn interests_are_weighted_profiles() {
        let p = Panel::build(4, 300);
        for u in p.users() {
            assert!((2..=4).contains(&u.interests.len()));
            let sum: f64 = u.interests.iter().map(|&(_, w)| w).sum();
            assert!((sum - 1.0).abs() < 1e-9);
            for &(c, w) in &u.interests {
                assert!(w > 0.0);
                assert_eq!(u.interest_weight(c), w);
            }
        }
    }

    #[test]
    fn activity_is_heterogeneous() {
        let p = Panel::build(5, 2000);
        let acts: Vec<f64> = p.users().iter().map(|u| u.activity).collect();
        let max = acts.iter().cloned().fold(f64::MIN, f64::max);
        let min = acts.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 5.0, "activity spread {min}..{max}");
    }
}
