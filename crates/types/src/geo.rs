//! Geography.
//!
//! Dataset *D* comes from mobile users in Spain; Figure 5 reports charge
//! prices for ten Spanish locations sorted by city size, and the Table-5
//! campaign setups target the four largest. [`City`] enumerates exactly
//! those ten.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The ten Spanish locations of Figure 5, ordered by (approximate 2015)
/// population, largest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[expect(
    missing_docs,
    reason = "the variants are the paper's Figure 5 city names"
)]
pub enum City {
    Madrid,
    Barcelona,
    Valencia,
    Seville,
    Zaragoza,
    Malaga,
    DosHermanas,
    VillaviciosaDeOdon,
    PriegoDeCordoba,
    Torello,
}

impl City {
    /// All ten cities, largest first.
    pub const ALL: [City; 10] = [
        City::Madrid,
        City::Barcelona,
        City::Valencia,
        City::Seville,
        City::Zaragoza,
        City::Malaga,
        City::DosHermanas,
        City::VillaviciosaDeOdon,
        City::PriegoDeCordoba,
        City::Torello,
    ];

    /// The four large cities used as campaign filters in Table 5.
    pub const CAMPAIGN_TARGETS: [City; 4] =
        [City::Madrid, City::Barcelona, City::Valencia, City::Seville];

    /// Human-readable name as printed on the Figure-5 axis.
    pub fn name(self) -> &'static str {
        match self {
            City::Madrid => "Madrid",
            City::Barcelona => "Barcelona",
            City::Valencia => "Valencia",
            City::Seville => "Seville",
            City::Zaragoza => "Zaragoza",
            City::Malaga => "Malaga",
            City::DosHermanas => "Dos Hermanas",
            City::VillaviciosaDeOdon => "Villaviciosa de Odon",
            City::PriegoDeCordoba => "Priego de Cordoba",
            City::Torello => "Torello",
        }
    }

    /// Approximate 2015 population, used by the weblog generator to weight
    /// how many panel users live in each city and by the latent price
    /// process (bigger market ⇒ deeper bid pool ⇒ lower median, higher
    /// variance — the Figure-5 shape).
    pub fn population(self) -> u32 {
        match self {
            City::Madrid => 3_165_000,
            City::Barcelona => 1_608_000,
            City::Valencia => 786_000,
            City::Seville => 693_000,
            City::Zaragoza => 664_000,
            City::Malaga => 569_000,
            City::DosHermanas => 131_000,
            City::VillaviciosaDeOdon => 27_000,
            City::PriegoDeCordoba => 23_000,
            City::Torello => 14_000,
        }
    }

    /// 0-based index into [`City::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// City from a 0-based index.
    ///
    /// # Panics
    /// Panics if `idx >= 10`.
    pub fn from_index(idx: usize) -> City {
        City::ALL[idx]
    }

    /// True if this city is one of the Table-5 campaign targets.
    pub fn is_campaign_target(self) -> bool {
        City::CAMPAIGN_TARGETS.contains(&self)
    }
}

impl fmt::Display for City {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_by_population() {
        for w in City::ALL.windows(2) {
            assert!(
                w[0].population() > w[1].population(),
                "{} should outrank {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn campaign_targets_are_the_top_four() {
        assert_eq!(&City::ALL[..4], &City::CAMPAIGN_TARGETS);
        assert!(City::Madrid.is_campaign_target());
        assert!(!City::Torello.is_campaign_target());
    }

    #[test]
    fn index_round_trip() {
        for (i, c) in City::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(City::from_index(i), *c);
        }
    }
}
