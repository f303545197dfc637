//! Ad requests: what a publisher's page (or app) sends toward an exchange
//! when an ad slot needs filling.

use serde::{Deserialize, Serialize};
use yav_types::{
    AdSlotSize, Adx, City, DeviceType, IabCategory, InteractionType, Os, PublisherId, SimTime,
    UserId,
};

/// One ad-slot auction request, carrying the user context the RTB bid
/// request would expose (step 3 of the paper's Figure 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdRequest {
    /// When the slot came up.
    pub time: SimTime,
    /// The (tracked) user behind the request.
    pub user: UserId,
    /// User's current city (from IP geolocation).
    pub city: City,
    /// Device operating system (from the user agent).
    pub os: Os,
    /// Device hardware class.
    pub device: DeviceType,
    /// Native app or mobile web.
    pub interaction: InteractionType,
    /// The publisher whose inventory is auctioned.
    pub publisher: PublisherId,
    /// The publisher's site/app domain (echoed as `pub_name` by verbose
    /// exchanges).
    pub publisher_name: String,
    /// The publisher's IAB content category.
    pub iab: IabCategory,
    /// The auctioned creative format.
    pub slot: AdSlotSize,
    /// The exchange handling the auction (the SSP's routing decision).
    pub adx: Adx,
    /// How strongly the user's interest profile matches this content
    /// (0..=1); the DMP computes it and retargeting-heavy DSPs pay up
    /// for good matches.
    pub interest_match: f64,
}

impl AdRequest {
    /// True if this request is eligible for a Table-5 campaign filter
    /// tuple `(city, interaction, shift, weekend, device, os, format,
    /// adx)` — used by the probing-campaign harness.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per Table 5 filter column"
    )]
    pub fn matches_filter(
        &self,
        city: City,
        interaction: InteractionType,
        shift: yav_types::time::CampaignShift,
        weekend: bool,
        device: DeviceType,
        os: Os,
        format: AdSlotSize,
        adx: Adx,
    ) -> bool {
        self.city == city
            && self.interaction == interaction
            && yav_types::time::CampaignShift::from_hour(self.time.hour()) == shift
            && self.time.is_weekend() == weekend
            && self.device == device
            && self.os == os
            && self.slot == format
            && self.adx == adx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yav_types::time::CampaignShift;

    fn req() -> AdRequest {
        AdRequest {
            time: SimTime::from_ymd_hm(2016, 5, 9, 10, 0), // Monday morning
            user: UserId(1),
            city: City::Madrid,
            os: Os::Ios,
            device: DeviceType::Smartphone,
            interaction: InteractionType::MobileApp,
            publisher: PublisherId(3),
            publisher_name: "newsapp.example".into(),
            iab: IabCategory::News,
            slot: AdSlotSize::S320x50,
            adx: Adx::MoPub,
            interest_match: 0.5,
        }
    }

    #[test]
    fn filter_matches_exact_tuple() {
        let r = req();
        assert!(r.matches_filter(
            City::Madrid,
            InteractionType::MobileApp,
            CampaignShift::Business,
            false,
            DeviceType::Smartphone,
            Os::Ios,
            AdSlotSize::S320x50,
            Adx::MoPub,
        ));
        // One mismatched dimension breaks it.
        assert!(!r.matches_filter(
            City::Barcelona,
            InteractionType::MobileApp,
            CampaignShift::Business,
            false,
            DeviceType::Smartphone,
            Os::Ios,
            AdSlotSize::S320x50,
            Adx::MoPub,
        ));
        assert!(!r.matches_filter(
            City::Madrid,
            InteractionType::MobileApp,
            CampaignShift::Overnight,
            false,
            DeviceType::Smartphone,
            Os::Ios,
            AdSlotSize::S320x50,
            Adx::MoPub,
        ));
    }
}
