//! The publisher universe: websites and mobile apps with RTB inventory.
//!
//! Dataset D sees ~5.6 k distinct RTB publishers per month across 18 IAB
//! categories (Table 3). The universe here is a Zipf-popularity roster of
//! synthetic sites and apps, each with an IAB category and a slot-format
//! mix that drifts through 2015 — the Figure-12 story where the 300×250
//! MPU overtakes the 320×50 banner from May onwards.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use yav_stats::AliasTable;
use yav_types::{AdSlotSize, IabCategory, PublisherId, SimTime};

/// One publisher (a website or a mobile app).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Publisher {
    /// Dense identifier.
    pub id: PublisherId,
    /// Domain (web) or bundle-style name (app).
    pub name: String,
    /// IAB tier-1 content category.
    pub iab: IabCategory,
    /// True for mobile applications.
    pub is_app: bool,
    /// Zipf popularity weight (not normalised).
    pub weight: f64,
}

/// The full roster plus sampling machinery.
#[derive(Debug, Clone)]
pub struct PublisherUniverse {
    publishers: Vec<Publisher>,
    /// Alias tables for O(1) popularity draws, web and app separately,
    /// plus the map from alias bucket back into `publishers`.
    web_alias: AliasTable,
    app_alias: AliasTable,
    web_idx: Vec<u32>,
    app_idx: Vec<u32>,
}

/// Category mix: News/Entertainment/Sports-heavy, Business/Science thin —
/// a plausible mobile-content skew that leaves every category populated.
const IAB_WEIGHTS: [(IabCategory, f64); 18] = [
    (IabCategory::News, 0.16),
    (IabCategory::ArtsEntertainment, 0.14),
    (IabCategory::Sports, 0.12),
    (IabCategory::Technology, 0.09),
    (IabCategory::Hobbies, 0.08),
    (IabCategory::Shopping, 0.07),
    (IabCategory::Travel, 0.06),
    (IabCategory::FoodDrink, 0.05),
    (IabCategory::StyleFashion, 0.05),
    (IabCategory::Health, 0.04),
    (IabCategory::Automotive, 0.035),
    (IabCategory::Society, 0.03),
    (IabCategory::HomeGarden, 0.025),
    (IabCategory::PersonalFinance, 0.02),
    (IabCategory::Education, 0.02),
    (IabCategory::Business, 0.02),
    (IabCategory::Careers, 0.015),
    (IabCategory::Science, 0.01),
];

impl PublisherUniverse {
    /// Builds a deterministic universe of `web + app` publishers.
    pub fn build(seed: u64, web: u32, app: u32) -> PublisherUniverse {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9B11_0000_0000_0004);
        let mut publishers = Vec::with_capacity((web + app) as usize);
        let mut id = 0u32;
        for (count, is_app) in [(web, false), (app, true)] {
            for rank in 0..count {
                let iab = sample_iab(&mut rng);
                let name = synth_name(&mut rng, iab, is_app, id);
                // Zipf(1.05) popularity by rank within each channel.
                let weight = 1.0 / ((rank + 1) as f64).powf(1.05);
                publishers.push(Publisher {
                    id: PublisherId(id),
                    name,
                    iab,
                    is_app,
                    weight,
                });
                id += 1;
            }
        }
        let channel = |app_flag: bool| {
            let mut idx = Vec::new();
            let mut weights = Vec::new();
            for (i, p) in publishers.iter().enumerate() {
                if p.is_app == app_flag {
                    idx.push(i as u32);
                    weights.push(p.weight);
                }
            }
            (AliasTable::new(&weights), idx)
        };
        let (web_alias, web_idx) = channel(false);
        let (app_alias, app_idx) = channel(true);
        PublisherUniverse {
            publishers,
            web_alias,
            app_alias,
            web_idx,
            app_idx,
        }
    }

    /// All publishers.
    pub fn all(&self) -> &[Publisher] {
        &self.publishers
    }

    /// Looks up by id.
    pub fn get(&self, id: PublisherId) -> Option<&Publisher> {
        self.publishers.get(id.0 as usize)
    }

    /// Samples a publisher for one view. `prefer` biases toward the
    /// user's interest categories: with probability `affinity` the draw is
    /// retried until the category matches one of the user's interests (up
    /// to a bounded number of attempts — the web is only so deep).
    pub fn sample<R: Rng>(
        &self,
        rng: &mut R,
        is_app: bool,
        prefer: &[IabCategory],
        affinity: f64,
    ) -> &Publisher {
        let want_match = !prefer.is_empty() && rng.gen::<f64>() < affinity;
        for _attempt in 0..8 {
            let p = self.sample_raw(rng, is_app);
            if !want_match || prefer.contains(&p.iab) {
                return p;
            }
        }
        self.sample_raw(rng, is_app)
    }

    fn sample_raw<R: Rng>(&self, rng: &mut R, is_app: bool) -> &Publisher {
        let (alias, idx) = if is_app {
            (&self.app_alias, &self.app_idx)
        } else {
            (&self.web_alias, &self.web_idx)
        };
        &self.publishers[idx[alias.sample(rng)] as usize]
    }
}

/// Samples an IAB category from the content mix (alias table built once;
/// one uniform per draw, same budget as the CDF scan it replaced).
fn sample_iab<R: Rng>(rng: &mut R) -> IabCategory {
    static TABLE: OnceLock<AliasTable> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let weights: Vec<f64> = IAB_WEIGHTS.iter().map(|&(_, w)| w).collect();
        AliasTable::new(&weights)
    });
    IAB_WEIGHTS[table.sample(rng)].0
}

/// Synthesises a deterministic publisher name from category + id.
fn synth_name<R: Rng>(rng: &mut R, iab: IabCategory, is_app: bool, id: u32) -> String {
    const STEMS: [&str; 12] = [
        "daily", "super", "mi", "el", "la", "pro", "top", "zona", "mundo", "vida", "red", "plan",
    ];
    let topic = match iab {
        IabCategory::News => "noticias",
        IabCategory::ArtsEntertainment => "ocio",
        IabCategory::Sports => "deporte",
        IabCategory::Technology => "tec",
        IabCategory::Hobbies => "aficion",
        IabCategory::Shopping => "compras",
        IabCategory::Travel => "viajes",
        IabCategory::FoodDrink => "cocina",
        IabCategory::StyleFashion => "moda",
        IabCategory::Health => "salud",
        IabCategory::Automotive => "motor",
        IabCategory::Society => "gente",
        IabCategory::HomeGarden => "hogar",
        IabCategory::PersonalFinance => "finanzas",
        IabCategory::Education => "aula",
        IabCategory::Business => "negocios",
        IabCategory::Careers => "empleo",
        IabCategory::Science => "ciencia",
    };
    let stem = STEMS[rng.gen_range(0..STEMS.len())];
    if is_app {
        format!("com.{stem}{topic}.app{id}")
    } else {
        format!("{stem}{topic}{id}.example")
    }
}

/// Figure-12 slot mix: interpolates between the early-2015 banner-heavy
/// mix and the late-2015 MPU-heavy mix. The crossover lands in May, as in
/// the paper.
pub fn slot_mix(time: SimTime) -> Vec<(AdSlotSize, f64)> {
    // Interpolation factor: 0 in January 2015 → 1 in December 2015; the
    // curve is steepest through Q2.
    let month = if time.year() <= 2015 {
        time.month().index() as f64
    } else {
        11.0
    };
    let t = (month / 11.0).powf(0.75);

    let early: [(AdSlotSize, f64); 17] = [
        (AdSlotSize::S320x50, 0.34),
        (AdSlotSize::S300x250, 0.17),
        (AdSlotSize::S728x90, 0.13),
        (AdSlotSize::S468x60, 0.07),
        (AdSlotSize::S300x50, 0.06),
        (AdSlotSize::S160x600, 0.045),
        (AdSlotSize::S336x280, 0.04),
        (AdSlotSize::S120x600, 0.035),
        (AdSlotSize::S200x200, 0.03),
        (AdSlotSize::S316x150, 0.025),
        (AdSlotSize::S280x250, 0.02),
        (AdSlotSize::S320x480, 0.02),
        (AdSlotSize::S480x320, 0.015),
        (AdSlotSize::S300x600, 0.015),
        (AdSlotSize::S800x130, 0.01),
        (AdSlotSize::S400x300, 0.01),
        (AdSlotSize::S350x600, 0.005),
    ];
    let late: [(AdSlotSize, f64); 17] = [
        (AdSlotSize::S300x250, 0.36),
        (AdSlotSize::S320x50, 0.15),
        (AdSlotSize::S728x90, 0.14),
        (AdSlotSize::S468x60, 0.06),
        (AdSlotSize::S336x280, 0.05),
        (AdSlotSize::S160x600, 0.05),
        (AdSlotSize::S300x600, 0.04),
        (AdSlotSize::S320x480, 0.035),
        (AdSlotSize::S480x320, 0.025),
        (AdSlotSize::S120x600, 0.025),
        (AdSlotSize::S300x50, 0.02),
        (AdSlotSize::S200x200, 0.015),
        (AdSlotSize::S316x150, 0.015),
        (AdSlotSize::S280x250, 0.015),
        (AdSlotSize::S800x130, 0.01),
        (AdSlotSize::S400x300, 0.01),
        (AdSlotSize::S350x600, 0.01),
    ];

    let mut mix: Vec<(AdSlotSize, f64)> = AdSlotSize::FIGURE12
        .iter()
        .map(|&s| {
            let e = early
                .iter()
                .find(|(x, _)| *x == s)
                .map(|(_, w)| *w)
                .unwrap_or(0.0);
            let l = late
                .iter()
                .find(|(x, _)| *x == s)
                .map(|(_, w)| *w)
                .unwrap_or(0.0);
            (s, e * (1.0 - t) + l * t)
        })
        .collect();
    let total: f64 = mix.iter().map(|(_, w)| w).sum();
    for (_, w) in &mut mix {
        *w /= total;
    }
    mix
}

/// Samples a slot format from the mix in force at `time`. The mix only
/// varies by month (and saturates after 2015), so twelve alias tables
/// cover every reachable distribution; each draw is O(1) and consumes
/// one uniform, like the CDF scan it replaced.
pub fn sample_slot<R: Rng>(rng: &mut R, time: SimTime) -> AdSlotSize {
    static TABLES: OnceLock<[AliasTable; 12]> = OnceLock::new();
    let tables = TABLES.get_or_init(|| {
        std::array::from_fn(|m| {
            let t = SimTime::from_ymd_hm(2015, m as u32 + 1, 15, 0, 0);
            let weights: Vec<f64> = slot_mix(t).iter().map(|&(_, w)| w).collect();
            AliasTable::new(&weights)
        })
    });
    let month = if time.year() <= 2015 {
        time.month().index()
    } else {
        11
    };
    AdSlotSize::FIGURE12[tables[month].sample(rng)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_is_deterministic_and_sized() {
        let a = PublisherUniverse::build(1, 100, 40);
        let b = PublisherUniverse::build(1, 100, 40);
        assert_eq!(a.all().len(), 140);
        assert_eq!(a.all(), b.all());
        assert_eq!(a.all().iter().filter(|p| p.is_app).count(), 40);
    }

    #[test]
    fn names_reflect_channel() {
        let u = PublisherUniverse::build(2, 50, 50);
        for p in u.all() {
            if p.is_app {
                assert!(p.name.starts_with("com."), "{}", p.name);
            } else {
                assert!(p.name.ends_with(".example"), "{}", p.name);
            }
        }
    }

    #[test]
    fn every_category_represented_at_scale() {
        let u = PublisherUniverse::build(3, 1800, 700);
        for iab in IabCategory::ALL {
            assert!(
                u.all().iter().any(|p| p.iab == iab),
                "category {iab} missing from universe"
            );
        }
    }

    #[test]
    fn sampling_is_popularity_skewed() {
        let u = PublisherUniverse::build(4, 200, 50);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = vec![0u32; u.all().len()];
        for _ in 0..20_000 {
            let p = u.sample(&mut rng, false, &[], 0.0);
            counts[p.id.0 as usize] += 1;
        }
        // The head of the web roster (id 0) must dominate the tail.
        let head = counts[0];
        let tail = counts[150];
        assert!(head > tail * 5, "zipf head {head} vs tail {tail}");
    }

    #[test]
    fn affinity_biases_toward_interests() {
        let u = PublisherUniverse::build(5, 500, 100);
        let mut rng = StdRng::seed_from_u64(10);
        let prefer = [IabCategory::Sports];
        let hits = (0..4000)
            .filter(|_| u.sample(&mut rng, false, &prefer, 0.9).iab == IabCategory::Sports)
            .count();
        // Base rate is ~12 %; with affinity 0.9 it should be far above.
        assert!(hits > 1600, "sports hits {hits}/4000");
    }

    #[test]
    fn slot_mix_crossover_in_may() {
        let jan = SimTime::from_ymd_hm(2015, 1, 15, 0, 0);
        let dec = SimTime::from_ymd_hm(2015, 12, 15, 0, 0);
        let weight = |t: SimTime, s: AdSlotSize| {
            slot_mix(t)
                .iter()
                .find(|(x, _)| *x == s)
                .map(|(_, w)| *w)
                .unwrap()
        };
        assert!(weight(jan, AdSlotSize::S320x50) > weight(jan, AdSlotSize::S300x250));
        assert!(weight(dec, AdSlotSize::S300x250) > weight(dec, AdSlotSize::S320x50));
        // Crossover roughly mid-year: by June the MPU leads.
        let jun = SimTime::from_ymd_hm(2015, 6, 15, 0, 0);
        assert!(weight(jun, AdSlotSize::S300x250) > weight(jun, AdSlotSize::S320x50));
    }

    #[test]
    fn slot_mix_sums_to_one() {
        for month in [1u32, 5, 9, 12] {
            let t = SimTime::from_ymd_hm(2015, month, 10, 0, 0);
            let total: f64 = slot_mix(t).iter().map(|(_, w)| w).sum();
            assert!((total - 1.0).abs() < 1e-9, "month {month}: {total}");
        }
    }

    #[test]
    fn sample_slot_draws_every_figure12_size_eventually() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = SimTime::from_ymd_hm(2015, 7, 1, 0, 0);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..50_000 {
            seen.insert(sample_slot(&mut rng, t));
        }
        assert!(seen.len() >= 15, "only {} sizes drawn", seen.len());
    }
}
