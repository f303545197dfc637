//! Ad formats and content taxonomy.
//!
//! [`AdSlotSize`] enumerates the seventeen creative formats seen in the
//! dataset's nURLs (Figure 12); [`IabCategory`] is the IAB content taxonomy
//! used to label publishers and user interests; [`PriceVisibility`] is the
//! central dichotomy of the whole paper — whether an RTB winning-price
//! notification carries its charge price in cleartext or encrypted.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// The ad-slot (creative) sizes observed in dataset *D*, ordered by area
/// (the sort key of Figures 12–14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum AdSlotSize {
    S300x50,
    S320x50,
    S468x60,
    S200x200,
    S316x150,
    S728x90,
    S280x250,
    S120x600,
    S300x250,
    S336x280,
    S160x600,
    S800x130,
    S400x300,
    S320x480,
    S480x320,
    S300x600,
    S350x600,
    /// Full-screen tablet interstitial (portrait), a Table-5 tablet format.
    S768x1024,
    /// Full-screen tablet interstitial (landscape), a Table-5 tablet format.
    S1024x768,
}

impl AdSlotSize {
    /// Every representable size (declaration order).
    pub const EVERY: [AdSlotSize; 19] = [
        AdSlotSize::S300x50,
        AdSlotSize::S320x50,
        AdSlotSize::S468x60,
        AdSlotSize::S200x200,
        AdSlotSize::S316x150,
        AdSlotSize::S728x90,
        AdSlotSize::S280x250,
        AdSlotSize::S120x600,
        AdSlotSize::S300x250,
        AdSlotSize::S336x280,
        AdSlotSize::S160x600,
        AdSlotSize::S800x130,
        AdSlotSize::S400x300,
        AdSlotSize::S320x480,
        AdSlotSize::S480x320,
        AdSlotSize::S300x600,
        AdSlotSize::S350x600,
        AdSlotSize::S768x1024,
        AdSlotSize::S1024x768,
    ];

    /// The seventeen dataset formats of Figure 12 (area order).
    pub const FIGURE12: [AdSlotSize; 17] = [
        AdSlotSize::S300x50,
        AdSlotSize::S320x50,
        AdSlotSize::S468x60,
        AdSlotSize::S200x200,
        AdSlotSize::S316x150,
        AdSlotSize::S728x90,
        AdSlotSize::S280x250,
        AdSlotSize::S120x600,
        AdSlotSize::S300x250,
        AdSlotSize::S336x280,
        AdSlotSize::S160x600,
        AdSlotSize::S800x130,
        AdSlotSize::S400x300,
        AdSlotSize::S320x480,
        AdSlotSize::S480x320,
        AdSlotSize::S300x600,
        AdSlotSize::S350x600,
    ];

    /// The seven sizes whose price distributions appear in Figures 13–14
    /// (the Turn subset), area order.
    pub const FIGURE13: [AdSlotSize; 7] = [
        AdSlotSize::S320x50,
        AdSlotSize::S468x60,
        AdSlotSize::S728x90,
        AdSlotSize::S120x600,
        AdSlotSize::S300x250,
        AdSlotSize::S160x600,
        AdSlotSize::S300x600,
    ];

    /// Smartphone formats a Table-5 campaign can buy.
    pub const SMARTPHONE_FORMATS: [AdSlotSize; 4] = [
        AdSlotSize::S320x50,
        AdSlotSize::S300x250,
        AdSlotSize::S320x480,
        AdSlotSize::S480x320,
    ];

    /// Tablet formats a Table-5 campaign can buy.
    pub const TABLET_FORMATS: [AdSlotSize; 4] = [
        AdSlotSize::S728x90,
        AdSlotSize::S300x250,
        AdSlotSize::S768x1024,
        AdSlotSize::S1024x768,
    ];

    /// `(width, height)` in CSS pixels.
    pub fn dimensions(self) -> (u32, u32) {
        match self {
            AdSlotSize::S300x50 => (300, 50),
            AdSlotSize::S320x50 => (320, 50),
            AdSlotSize::S468x60 => (468, 60),
            AdSlotSize::S200x200 => (200, 200),
            AdSlotSize::S316x150 => (316, 150),
            AdSlotSize::S728x90 => (728, 90),
            AdSlotSize::S280x250 => (280, 250),
            AdSlotSize::S120x600 => (120, 600),
            AdSlotSize::S300x250 => (300, 250),
            AdSlotSize::S336x280 => (336, 280),
            AdSlotSize::S160x600 => (160, 600),
            AdSlotSize::S800x130 => (800, 130),
            AdSlotSize::S400x300 => (400, 300),
            AdSlotSize::S320x480 => (320, 480),
            AdSlotSize::S480x320 => (480, 320),
            AdSlotSize::S300x600 => (300, 600),
            AdSlotSize::S350x600 => (350, 600),
            AdSlotSize::S768x1024 => (768, 1024),
            AdSlotSize::S1024x768 => (1024, 768),
        }
    }

    /// Width in pixels.
    pub fn width(self) -> u32 {
        self.dimensions().0
    }

    /// Height in pixels.
    pub fn height(self) -> u32 {
        self.dimensions().1
    }

    /// Screen area in square pixels — the quantity §4.4 shows does *not*
    /// correlate with price.
    pub fn area(self) -> u32 {
        let (w, h) = self.dimensions();
        w * h
    }

    /// The industry nickname, where one exists.
    pub fn nickname(self) -> Option<&'static str> {
        match self {
            AdSlotSize::S320x50 => Some("large mobile banner"),
            AdSlotSize::S728x90 => Some("leaderboard"),
            AdSlotSize::S300x250 => Some("MPU"),
            AdSlotSize::S300x600 => Some("Monster MPU"),
            AdSlotSize::S160x600 => Some("wide skyscraper"),
            AdSlotSize::S120x600 => Some("skyscraper"),
            _ => None,
        }
    }

    /// The `WxH` wire form carried in nURL parameters.
    pub fn wire(self) -> String {
        let (w, h) = self.dimensions();
        format!("{w}x{h}")
    }

    /// Parses the `WxH` wire form. The heap-free form of the [`FromStr`]
    /// impl, run once per notification URL carrying a `size` parameter:
    /// the textual match against [`Self::wire`] is a numeric match that
    /// additionally rejects non-canonical digits (leading zeros), so no
    /// candidate strings need rendering.
    pub fn parse_wire(s: &str) -> Option<AdSlotSize> {
        fn dim(part: &str) -> Option<u32> {
            let canonical = !part.is_empty() && (part.len() == 1 || !part.starts_with('0'));
            if canonical && part.bytes().all(|b| b.is_ascii_digit()) {
                part.parse().ok()
            } else {
                None
            }
        }
        let (w, h) = s.split_once('x')?;
        let dims = (dim(w)?, dim(h)?);
        AdSlotSize::EVERY
            .iter()
            .find(|sz| sz.dimensions() == dims)
            .copied()
    }
}

impl fmt::Display for AdSlotSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (w, h) = self.dimensions();
        write!(f, "{w}x{h}")
    }
}

/// Error returned when a `WxH` string is not a known ad-slot size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAdSlotSizeError(String);

impl fmt::Display for ParseAdSlotSizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown ad-slot size: {:?}", self.0)
    }
}

impl std::error::Error for ParseAdSlotSizeError {}

impl FromStr for AdSlotSize {
    type Err = ParseAdSlotSizeError;

    /// See [`AdSlotSize::parse_wire`], which this delegates to.
    fn from_str(s: &str) -> Result<AdSlotSize, ParseAdSlotSizeError> {
        AdSlotSize::parse_wire(s).ok_or_else(|| ParseAdSlotSizeError(s.to_owned()))
    }
}

/// IAB Tech Lab tier-1 content categories, used both to label publishers
/// and to describe user interest profiles (Figures 11 and 15 report price
/// by IAB category).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum IabCategory {
    /// IAB1 — Arts & Entertainment.
    ArtsEntertainment,
    /// IAB2 — Automotive.
    Automotive,
    /// IAB3 — Business & Marketing.
    Business,
    /// IAB5 — Education.
    Education,
    /// IAB9 — Hobbies & Interests.
    Hobbies,
    /// IAB12 — News.
    News,
    /// IAB13 — Personal Finance.
    PersonalFinance,
    /// IAB15 — Science.
    Science,
    /// IAB17 — Sports.
    Sports,
    /// IAB19 — Technology & Computing.
    Technology,
    /// IAB20 — Travel.
    Travel,
    /// IAB22 — Shopping.
    Shopping,
    /// IAB4 — Careers.
    Careers,
    /// IAB7 — Health & Fitness.
    Health,
    /// IAB8 — Food & Drink.
    FoodDrink,
    /// IAB10 — Home & Garden.
    HomeGarden,
    /// IAB14 — Society.
    Society,
    /// IAB18 — Style & Fashion.
    StyleFashion,
}

impl IabCategory {
    /// The eighteen categories present in dataset *D* (Table 3 reports 18).
    pub const ALL: [IabCategory; 18] = [
        IabCategory::ArtsEntertainment,
        IabCategory::Automotive,
        IabCategory::Business,
        IabCategory::Education,
        IabCategory::Hobbies,
        IabCategory::News,
        IabCategory::PersonalFinance,
        IabCategory::Science,
        IabCategory::Sports,
        IabCategory::Technology,
        IabCategory::Travel,
        IabCategory::Shopping,
        IabCategory::Careers,
        IabCategory::Health,
        IabCategory::FoodDrink,
        IabCategory::HomeGarden,
        IabCategory::Society,
        IabCategory::StyleFashion,
    ];

    /// IAB tier-1 numeric code (e.g. Business & Marketing ⇒ 3).
    pub fn code(self) -> u32 {
        match self {
            IabCategory::ArtsEntertainment => 1,
            IabCategory::Automotive => 2,
            IabCategory::Business => 3,
            IabCategory::Careers => 4,
            IabCategory::Education => 5,
            IabCategory::Health => 7,
            IabCategory::FoodDrink => 8,
            IabCategory::Hobbies => 9,
            IabCategory::HomeGarden => 10,
            IabCategory::News => 12,
            IabCategory::PersonalFinance => 13,
            IabCategory::Society => 14,
            IabCategory::Science => 15,
            IabCategory::Sports => 17,
            IabCategory::StyleFashion => 18,
            IabCategory::Technology => 19,
            IabCategory::Travel => 20,
            IabCategory::Shopping => 22,
        }
    }

    /// Figure-axis label, e.g. `"IAB3"`.
    pub fn label(self) -> String {
        format!("IAB{}", self.code())
    }

    /// Descriptive name of the category.
    pub fn name(self) -> &'static str {
        match self {
            IabCategory::ArtsEntertainment => "Arts & Entertainment",
            IabCategory::Automotive => "Automotive",
            IabCategory::Business => "Business & Marketing",
            IabCategory::Careers => "Careers",
            IabCategory::Education => "Education",
            IabCategory::Health => "Health & Fitness",
            IabCategory::FoodDrink => "Food & Drink",
            IabCategory::Hobbies => "Hobbies & Interests",
            IabCategory::HomeGarden => "Home & Garden",
            IabCategory::News => "News",
            IabCategory::PersonalFinance => "Personal Finance",
            IabCategory::Society => "Society",
            IabCategory::Science => "Science",
            IabCategory::Sports => "Sports",
            IabCategory::StyleFashion => "Style & Fashion",
            IabCategory::Technology => "Technology & Computing",
            IabCategory::Travel => "Travel",
            IabCategory::Shopping => "Shopping",
        }
    }

    /// Category from its IAB numeric code.
    pub fn from_code(code: u32) -> Option<IabCategory> {
        IabCategory::ALL.iter().copied().find(|c| c.code() == code)
    }

    /// 0-based dense index into [`IabCategory::ALL`] (for feature vectors).
    pub fn index(self) -> usize {
        IabCategory::ALL
            .iter()
            .position(|&c| c == self)
            .expect("category in ALL")
    }
}

impl fmt::Display for IabCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IAB{}", self.code())
    }
}

/// Whether a winning-price notification exposes its charge price.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PriceVisibility {
    /// The charge price is readable in the nURL (e.g. `charge_price=0.95`).
    Cleartext,
    /// The charge price is an opaque ciphertext (e.g. a 28-byte
    /// DoubleClick-style token) that the observer cannot decrypt.
    Encrypted,
}

impl PriceVisibility {
    /// Both variants.
    pub const ALL: [PriceVisibility; 2] = [PriceVisibility::Cleartext, PriceVisibility::Encrypted];
}

impl fmt::Display for PriceVisibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PriceVisibility::Cleartext => "cleartext",
            PriceVisibility::Encrypted => "encrypted",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trip() {
        for sz in AdSlotSize::FIGURE12 {
            assert_eq!(sz.wire().parse::<AdSlotSize>().unwrap(), sz);
        }
        assert_eq!(
            "768x1024".parse::<AdSlotSize>().unwrap(),
            AdSlotSize::S768x1024
        );
        assert!("301x251".parse::<AdSlotSize>().is_err());
        assert!("banana".parse::<AdSlotSize>().is_err());
    }

    #[test]
    fn figure12_sorted_by_area() {
        for w in AdSlotSize::FIGURE12.windows(2) {
            assert!(
                w[0].area() <= w[1].area(),
                "{} should not outsize {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn nicknames() {
        assert_eq!(AdSlotSize::S300x250.nickname(), Some("MPU"));
        assert_eq!(AdSlotSize::S728x90.nickname(), Some("leaderboard"));
        assert_eq!(AdSlotSize::S200x200.nickname(), None);
    }

    #[test]
    fn iab_codes_round_trip() {
        for c in IabCategory::ALL {
            assert_eq!(IabCategory::from_code(c.code()), Some(c));
        }
        assert_eq!(IabCategory::from_code(99), None);
        assert_eq!(IabCategory::Business.label(), "IAB3");
        assert_eq!(IabCategory::Science.label(), "IAB15");
    }

    #[test]
    fn iab_indices_are_dense() {
        for (i, c) in IabCategory::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn campaign_formats_are_four_each() {
        assert_eq!(AdSlotSize::SMARTPHONE_FORMATS.len(), 4);
        assert_eq!(AdSlotSize::TABLET_FORMATS.len(), 4);
    }
}
