//! The Table-5 experimental-setup design.
//!
//! Table 5 lists the campaign filters — cities, interaction types,
//! time-of-day shifts, day types, device types, OSes, per-device ad
//! formats and exchanges — and states that 144 setups were attempted.
//! The full cross product is in the thousands, so the paper necessarily
//! ran a *fraction* of it. We reconstruct a balanced fractional design:
//! the 48 combinations of (city × interaction × shift × day-type) each
//! appear three times, with device / OS / format / exchange assigned by
//! coprime strides so every filter value is exercised across the sweep.

use serde::{Deserialize, Serialize};
use yav_types::time::CampaignShift;
use yav_types::{AdSlotSize, Adx, City, DeviceType, InteractionType, Os};

/// Weekday-vs-weekend day-type filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DayType {
    /// Monday through Friday.
    Weekday,
    /// Saturday and Sunday.
    Weekend,
}

impl DayType {
    /// Both day types.
    pub const ALL: [DayType; 2] = [DayType::Weekday, DayType::Weekend];

    /// True if a weekend flag matches this type.
    pub fn matches(self, is_weekend: bool) -> bool {
        matches!(
            (self, is_weekend),
            (DayType::Weekend, true) | (DayType::Weekday, false)
        )
    }
}

/// One experimental setup: a full Table-5 filter tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Setup {
    /// Setup index within the design (0-based).
    pub id: u32,
    /// Target city.
    pub city: City,
    /// App vs mobile-web inventory.
    pub interaction: InteractionType,
    /// Time-of-day shift.
    pub shift: CampaignShift,
    /// Weekday vs weekend delivery.
    pub day_type: DayType,
    /// Device class.
    pub device: DeviceType,
    /// Operating system.
    pub os: Os,
    /// Creative format (constrained by device class).
    pub format: AdSlotSize,
    /// Exchange to buy from.
    pub adx: Adx,
}

/// Builds the 144-setup design over the given exchange list (A1 passes
/// the four encrypting exchanges, A2 passes MoPub alone).
///
/// # Panics
/// Panics if `adxs` is empty.
pub fn table5(adxs: &[Adx]) -> Vec<Setup> {
    assert!(!adxs.is_empty(), "need at least one exchange");
    let mut out = Vec::with_capacity(144);
    for id in 0..144u32 {
        let i = id as usize;
        // Mixed radix over the 48 base combinations, repeated 3×.
        let city = City::CAMPAIGN_TARGETS[i % 4];
        let interaction = InteractionType::ALL[(i / 4) % 2];
        let shift = CampaignShift::ALL[(i / 8) % 3];
        let day_type = DayType::ALL[(i / 24) % 2];
        // Secondary dimensions: strides mixed with the repeat index `r`
        // (0..3) so the three occurrences of each base combination differ
        // and every filter value is covered across the sweep.
        let r = i / 48;
        let device = DeviceType::CAMPAIGN_TARGETS[(i + r) % 2];
        let os = Os::CAMPAIGN_TARGETS[(i / 2 + r) % 2];
        let format = match device {
            DeviceType::Tablet => AdSlotSize::TABLET_FORMATS[(i / 3 + r) % 4],
            _ => AdSlotSize::SMARTPHONE_FORMATS[(i / 3 + r) % 4],
        };
        let adx = adxs[(i + r) % adxs.len()];
        out.push(Setup {
            id,
            city,
            interaction,
            shift,
            day_type,
            device,
            os,
            format,
            adx,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn exactly_144_unique_setups() {
        let setups = table5(&Adx::ENCRYPTED_TARGETS);
        assert_eq!(setups.len(), 144);
        let unique: BTreeSet<_> = setups
            .iter()
            .map(|s| {
                (
                    s.city,
                    s.interaction,
                    s.shift,
                    s.day_type,
                    s.device,
                    s.os,
                    s.format,
                    s.adx,
                )
            })
            .collect();
        assert_eq!(unique.len(), 144, "setups must be distinct");
    }

    #[test]
    fn every_filter_value_exercised() {
        let setups = table5(&Adx::ENCRYPTED_TARGETS);
        for city in City::CAMPAIGN_TARGETS {
            assert!(setups.iter().any(|s| s.city == city), "{city}");
        }
        for it in InteractionType::ALL {
            assert!(setups.iter().any(|s| s.interaction == it));
        }
        for shift in CampaignShift::ALL {
            assert!(setups.iter().any(|s| s.shift == shift));
        }
        for dt in DayType::ALL {
            assert!(setups.iter().any(|s| s.day_type == dt));
        }
        for os in Os::CAMPAIGN_TARGETS {
            assert!(setups.iter().any(|s| s.os == os));
        }
        for adx in Adx::ENCRYPTED_TARGETS {
            assert!(setups.iter().any(|s| s.adx == adx));
        }
        for fmt in AdSlotSize::SMARTPHONE_FORMATS {
            assert!(setups.iter().any(|s| s.format == fmt), "{fmt}");
        }
        for fmt in AdSlotSize::TABLET_FORMATS {
            assert!(setups.iter().any(|s| s.format == fmt), "{fmt}");
        }
    }

    #[test]
    fn formats_respect_device_class() {
        for s in table5(&[Adx::MoPub]) {
            match s.device {
                DeviceType::Tablet => assert!(AdSlotSize::TABLET_FORMATS.contains(&s.format)),
                _ => assert!(AdSlotSize::SMARTPHONE_FORMATS.contains(&s.format)),
            }
        }
    }

    #[test]
    fn base_combinations_balanced() {
        let setups = table5(&[Adx::MoPub]);
        let mut counts = std::collections::BTreeMap::new();
        for s in &setups {
            *counts
                .entry((s.city, s.interaction, s.shift, s.day_type))
                .or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 48);
        assert!(counts.values().all(|&c| c == 3), "each base combo 3×");
    }

    #[test]
    fn day_type_matching() {
        assert!(DayType::Weekend.matches(true));
        assert!(!DayType::Weekend.matches(false));
        assert!(DayType::Weekday.matches(false));
    }

    #[test]
    #[should_panic(expected = "at least one exchange")]
    fn empty_adx_list_rejected() {
        table5(&[]);
    }
}
