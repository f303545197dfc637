//! Market entities: ad-exchanges and demand-side platforms.
//!
//! The paper observes a concrete population of ADXs and DSPs through the
//! nURLs they emit. [`Adx`] enumerates the exchanges that matter to the
//! study (Table 5's campaign targets plus the other top entities of
//! Figure 3); [`DspId`] names the bidders.

use crate::ad::PriceVisibility;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Ad-exchanges observed in the study.
///
/// The first five are the Table-5 campaign targets; the remainder round out
/// the Figure-3 top entities. Each exchange has a *house style* for its
/// winning-price notification (cleartext vs encrypted), modelled after the
/// real 2015-era behaviour the paper reports: MoPub/Adnxs cleartext,
/// DoubleClick/OpenX/Rubicon/PulsePoint encrypted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[expect(missing_docs, reason = "the variants are the exchanges' own names")]
pub enum Adx {
    MoPub,
    OpenX,
    Rubicon,
    DoubleClick,
    PulsePoint,
    Adnxs,
    MathTag,
    Smaato,
    Nexage,
    InMobi,
    Flurry,
    Millennial,
    Turn,
    Criteo,
    Rtbhouse,
    Smartadserver,
    Improve,
}

impl Adx {
    /// All exchanges.
    pub const ALL: [Adx; 17] = [
        Adx::MoPub,
        Adx::OpenX,
        Adx::Rubicon,
        Adx::DoubleClick,
        Adx::PulsePoint,
        Adx::Adnxs,
        Adx::MathTag,
        Adx::Smaato,
        Adx::Nexage,
        Adx::InMobi,
        Adx::Flurry,
        Adx::Millennial,
        Adx::Turn,
        Adx::Criteo,
        Adx::Rtbhouse,
        Adx::Smartadserver,
        Adx::Improve,
    ];

    /// The five exchanges a Table-5 campaign can target.
    pub const CAMPAIGN_TARGETS: [Adx; 5] = [
        Adx::MoPub,
        Adx::OpenX,
        Adx::Rubicon,
        Adx::DoubleClick,
        Adx::PulsePoint,
    ];

    /// The four exchanges that encrypt prices, targeted by campaign A1.
    pub const ENCRYPTED_TARGETS: [Adx; 4] =
        [Adx::DoubleClick, Adx::OpenX, Adx::Rubicon, Adx::PulsePoint];

    /// The exchange's dominant notification style in the 2015 mobile market.
    ///
    /// Real exchanges are not perfectly consistent — individual DSP
    /// integrations may differ — so this is the *house default* the
    /// simulator perturbs, not an invariant the analyzer may assume.
    pub fn house_style(self) -> PriceVisibility {
        match self {
            Adx::MoPub
            | Adx::Adnxs
            | Adx::Smaato
            | Adx::Nexage
            | Adx::InMobi
            | Adx::Flurry
            | Adx::Millennial
            | Adx::Turn
            | Adx::Smartadserver => PriceVisibility::Cleartext,
            Adx::OpenX
            | Adx::Rubicon
            | Adx::DoubleClick
            | Adx::PulsePoint
            | Adx::MathTag
            | Adx::Criteo
            | Adx::Rtbhouse
            | Adx::Improve => PriceVisibility::Encrypted,
        }
    }

    /// The exchange's notification domain as it appears in nURLs.
    /// `const` so host screens can precompute dispatch tables over the
    /// roster at compile time.
    pub const fn domain(self) -> &'static str {
        match self {
            Adx::MoPub => "cpp.imp.mpx.mopub.com",
            Adx::OpenX => "rtb.openx.net",
            Adx::Rubicon => "beacon-eu2.rubiconproject.com",
            Adx::DoubleClick => "googleads.g.doubleclick.net",
            Adx::PulsePoint => "bid.contextweb.com",
            Adx::Adnxs => "ib.adnxs.com",
            Adx::MathTag => "tags.mathtag.com",
            Adx::Smaato => "ads.smaato.net",
            Adx::Nexage => "bid.nexage.com",
            Adx::InMobi => "ads.inmobi.com",
            Adx::Flurry => "ads.flurry.com",
            Adx::Millennial => "ads.mp.mydas.mobi",
            Adx::Turn => "ad.turn.com",
            Adx::Criteo => "bidder.criteo.com",
            Adx::Rtbhouse => "creativecdn.com",
            Adx::Smartadserver => "itempana.smartadserver.com",
            Adx::Improve => "ad.360yield.com",
        }
    }

    /// Marketing name as printed in figures.
    pub fn name(self) -> &'static str {
        match self {
            Adx::MoPub => "MoPub",
            Adx::OpenX => "OpenX",
            Adx::Rubicon => "RubiconProject",
            Adx::DoubleClick => "DoubleClick",
            Adx::PulsePoint => "PulsePoint",
            Adx::Adnxs => "Adnxs",
            Adx::MathTag => "MathTag",
            Adx::Smaato => "Smaato",
            Adx::Nexage => "Nexage",
            Adx::InMobi => "InMobi",
            Adx::Flurry => "Flurry",
            Adx::Millennial => "MillennialMedia",
            Adx::Turn => "Turn",
            Adx::Criteo => "Criteo",
            Adx::Rtbhouse => "RTBHouse",
            Adx::Smartadserver => "SmartAdServer",
            Adx::Improve => "ImproveDigital",
        }
    }

    /// 0-based dense index into [`Adx::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Exchange from a 0-based index.
    ///
    /// # Panics
    /// Panics if `idx >= 17`.
    pub fn from_index(idx: usize) -> Adx {
        Adx::ALL[idx]
    }
}

impl fmt::Display for Adx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A demand-side platform (bidder) identifier.
///
/// DSPs are an open population — the simulator instantiates a configurable
/// number of them — so unlike [`Adx`] this is a newtype over a dense index,
/// with a deterministic synthetic domain name for nURL purposes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct DspId(pub u32);

impl DspId {
    /// A stable, realistic-looking roster for the first few ids, then
    /// synthetic names. Keeping real-world names here makes analyzer
    /// output and figures legible.
    const ROSTER: [&'static str; 12] = [
        "mediamath.com",
        "bidder.criteo.com",
        "doubleclickbygoogle.com",
        "appnexus.com",
        "invitemedia.com",
        "adserver-ir-p.mythings.com",
        "tags.mathtag.com",
        "rtb.adform.net",
        "dsp.turn.com",
        "bid.rocketfuel.com",
        "x.dataxu.com",
        "engine.adzerk.net",
    ];

    /// The DSP's callback domain as embedded in nURLs.
    pub fn domain(self) -> String {
        let mut out = String::new();
        self.write_domain(&mut out);
        out
    }

    /// Appends the callback domain to `buf` without allocating — the
    /// hot-path form used by the allocation-free nURL renderer.
    pub fn write_domain(self, buf: &mut String) {
        use std::fmt::Write;
        match Self::ROSTER.get(self.0 as usize) {
            Some(d) => buf.push_str(d),
            // String's fmt::Write never fails; the fallback keeps the
            // path panic-free.
            None => {
                let _ = write!(buf, "dsp{}.bid.example.com", self.0);
            }
        }
    }

    /// Maps a callback domain back to its id — the allocation-free
    /// inverse of [`DspId::domain`], used by the nURL parser on the
    /// per-URL hot path.
    pub fn from_domain(domain: &str) -> Option<DspId> {
        if let Some(i) = Self::ROSTER.iter().position(|d| *d == domain) {
            return Some(DspId(i as u32));
        }
        domain
            .strip_prefix("dsp")?
            .strip_suffix(".bid.example.com")?
            .parse()
            .ok()
            .map(DspId)
    }
}

impl fmt::Display for DspId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DSP#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_targets_subset_of_all() {
        for t in Adx::CAMPAIGN_TARGETS {
            assert!(Adx::ALL.contains(&t));
        }
        for t in Adx::ENCRYPTED_TARGETS {
            assert_eq!(t.house_style(), PriceVisibility::Encrypted);
        }
        assert_eq!(Adx::MoPub.house_style(), PriceVisibility::Cleartext);
    }

    #[test]
    fn domains_unique() {
        // Resolving a domain back to its exchange is `yav_nurl::exchange_host`,
        // checked against a roster scan in `crates/nurl/tests/parity.rs`.
        use std::collections::BTreeSet;
        let mut seen = BTreeSet::new();
        for a in Adx::ALL {
            assert!(seen.insert(a.domain()), "duplicate domain {}", a.domain());
        }
    }

    #[test]
    fn index_round_trip() {
        for (i, a) in Adx::ALL.iter().enumerate() {
            assert_eq!(a.index(), i);
            assert_eq!(Adx::from_index(i), *a);
        }
    }

    #[test]
    fn dsp_domains_stable() {
        assert_eq!(DspId(0).domain(), "mediamath.com");
        assert_eq!(DspId(100).domain(), "dsp100.bid.example.com");
    }

    #[test]
    fn dsp_domain_round_trips() {
        for id in [0u32, 5, 11, 12, 100, 4_000_000] {
            let id = DspId(id);
            assert_eq!(DspId::from_domain(&id.domain()), Some(id));
        }
        assert_eq!(DspId::from_domain("not-a-dsp.example"), None);
        assert_eq!(DspId::from_domain("dspX.bid.example.com"), None);
    }
}
