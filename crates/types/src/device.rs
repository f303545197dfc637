//! Devices and interaction channels.
//!
//! The analyzer classifies traffic by parsing `User-Agent` headers into an
//! operating system ([`Os`]), a hardware class ([`DeviceType`]) and whether
//! the request came from a native app or a mobile browser
//! ([`InteractionType`]) — §4.3 of the paper. The same three dimensions are
//! campaign filters in Table 5.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Mobile operating systems as bucketed in Figures 8–10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[expect(
    missing_docs,
    reason = "the variants are the operating systems' own names"
)]
pub enum Os {
    Android,
    Ios,
    WindowsMobile,
    Other,
}

impl Os {
    /// All four buckets in figure order.
    pub const ALL: [Os; 4] = [Os::Android, Os::Ios, Os::WindowsMobile, Os::Other];

    /// The two OSes campaigns can target (Table 5).
    pub const CAMPAIGN_TARGETS: [Os; 2] = [Os::Ios, Os::Android];

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            Os::Android => "Android",
            Os::Ios => "iOS",
            Os::WindowsMobile => "Windows Mob",
            Os::Other => "Other",
        }
    }
}

impl fmt::Display for Os {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Hardware class of the device behind a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[expect(missing_docs, reason = "the device classes are self-describing")]
pub enum DeviceType {
    Smartphone,
    Tablet,
    Pc,
}

impl DeviceType {
    /// The two mobile classes campaigns can target (Table 5).
    pub const CAMPAIGN_TARGETS: [DeviceType; 2] = [DeviceType::Smartphone, DeviceType::Tablet];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            DeviceType::Smartphone => "Smartphone",
            DeviceType::Tablet => "Tablet",
            DeviceType::Pc => "PC",
        }
    }

    /// True for smartphones and tablets.
    pub fn is_mobile(self) -> bool {
        !matches!(self, DeviceType::Pc)
    }
}

impl fmt::Display for DeviceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Whether an ad was delivered inside a native mobile application or a
/// (mobile) web page. §4.4 finds app inventory draws ≈2.6× higher prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum InteractionType {
    /// Ad rendered inside a native mobile application.
    MobileApp,
    /// Ad rendered in a mobile web browser.
    MobileWeb,
}

impl InteractionType {
    /// Both channels (the Table-5 "type of interaction" filter).
    pub const ALL: [InteractionType; 2] = [InteractionType::MobileApp, InteractionType::MobileWeb];

    /// Table-5 label.
    pub fn label(self) -> &'static str {
        match self {
            InteractionType::MobileApp => "Mobile in-app",
            InteractionType::MobileWeb => "Mobile web",
        }
    }
}

impl fmt::Display for InteractionType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mobile_classification() {
        assert!(DeviceType::Smartphone.is_mobile());
        assert!(DeviceType::Tablet.is_mobile());
        assert!(!DeviceType::Pc.is_mobile());
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(Os::Ios.label(), "iOS");
        assert_eq!(Os::WindowsMobile.label(), "Windows Mob");
        assert_eq!(InteractionType::MobileApp.label(), "Mobile in-app");
    }
}
