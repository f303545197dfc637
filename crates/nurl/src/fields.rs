//! The typed payload of a winning-price notification.

use yav_crypto::EncryptedPrice;
use yav_types::{AdSlotSize, Adx, AuctionId, CampaignId, Cpm, DspId, ImpressionId};

/// A charge price as it appears on the wire: either readable or opaque.
#[derive(Debug, Clone, PartialEq)]
pub enum PricePayload {
    /// Readable decimal CPM (the `charge_price=0.95` form).
    Cleartext(Cpm),
    /// A 28-byte encrypted token the observer cannot decrypt.
    Encrypted(EncryptedPrice),
}

impl PricePayload {
    /// The cleartext price, if readable.
    pub fn cleartext(&self) -> Option<Cpm> {
        match self {
            PricePayload::Cleartext(p) => Some(*p),
            PricePayload::Encrypted(_) => None,
        }
    }

    /// The encrypted token, if opaque.
    pub fn encrypted(&self) -> Option<&EncryptedPrice> {
        match self {
            PricePayload::Cleartext(_) => None,
            PricePayload::Encrypted(t) => Some(t),
        }
    }

    /// The paper's dichotomy for this payload.
    pub fn visibility(&self) -> yav_types::PriceVisibility {
        match self {
            PricePayload::Cleartext(_) => yav_types::PriceVisibility::Cleartext,
            PricePayload::Encrypted(_) => yav_types::PriceVisibility::Encrypted,
        }
    }
}

/// Everything a notification URL can carry, in typed form.
///
/// Exchanges differ in which optional fields they include — that
/// heterogeneity is real (Turn carries slot sizes, MoPub carries publisher
/// names and latency, others carry almost nothing) and is preserved by the
/// per-exchange templates.
#[derive(Debug, Clone, PartialEq)]
pub struct NurlFields {
    /// The exchange that ran the auction (identified by the URL host).
    pub adx: Adx,
    /// The winning bidder being notified.
    pub dsp: DspId,
    /// The charge price (second-highest bid), cleartext or encrypted.
    pub price: PricePayload,
    /// The winner's own *bid* price, which some exchanges echo in
    /// cleartext next to the charge price. The analyzer must not confuse
    /// the two (§4.1 "filtering out any bidding prices").
    pub bid_price: Option<Cpm>,
    /// Impression identifier.
    pub impression: ImpressionId,
    /// Auction identifier.
    pub auction: AuctionId,
    /// The winning campaign, when echoed.
    pub campaign: Option<CampaignId>,
    /// Auctioned slot size, when echoed.
    pub slot: Option<AdSlotSize>,
    /// Publisher name, when echoed.
    pub publisher: Option<String>,
    /// ISO country code, when echoed.
    pub country: Option<String>,
    /// Auction latency in milliseconds, when echoed.
    pub latency_ms: Option<u32>,
    /// Advertised landing domain, when echoed.
    pub ad_domain: Option<String>,
}

impl NurlFields {
    /// A minimal payload with only the mandatory fields; optional metadata
    /// defaults to absent.
    pub fn minimal(
        adx: Adx,
        dsp: DspId,
        price: PricePayload,
        impression: ImpressionId,
        auction: AuctionId,
    ) -> NurlFields {
        NurlFields {
            adx,
            dsp,
            price,
            bid_price: None,
            impression,
            auction,
            campaign: None,
            slot: None,
            publisher: None,
            country: None,
            latency_ms: None,
            ad_domain: None,
        }
    }
}

/// The borrowed twin of [`NurlFields`]: identical payload, but the free-form
/// string metadata (publisher name, country, ad domain) is borrowed from the
/// caller instead of owned. The auction hot path assembles one of these from
/// per-shard state and renders it straight into a reused buffer via
/// [`crate::template::render_into`] — no per-notification heap traffic.
#[derive(Debug, Clone)]
pub struct NurlFieldsRef<'a> {
    /// The exchange that ran the auction.
    pub adx: Adx,
    /// The winning bidder being notified.
    pub dsp: DspId,
    /// The charge price, cleartext or encrypted.
    pub price: PricePayload,
    /// The winner's echoed bid price, when present.
    pub bid_price: Option<Cpm>,
    /// Impression identifier.
    pub impression: ImpressionId,
    /// Auction identifier.
    pub auction: AuctionId,
    /// The winning campaign, when echoed.
    pub campaign: Option<CampaignId>,
    /// Auctioned slot size, when echoed.
    pub slot: Option<AdSlotSize>,
    /// Publisher name, when echoed.
    pub publisher: Option<&'a str>,
    /// ISO country code, when echoed.
    pub country: Option<&'a str>,
    /// Auction latency in milliseconds, when echoed.
    pub latency_ms: Option<u32>,
    /// Advertised landing domain, when echoed.
    pub ad_domain: Option<&'a str>,
}

impl NurlFieldsRef<'_> {
    /// Materialises an owned [`NurlFields`] with identical payload.
    pub fn to_owned_fields(&self) -> NurlFields {
        NurlFields {
            adx: self.adx,
            dsp: self.dsp,
            price: self.price.clone(),
            bid_price: self.bid_price,
            impression: self.impression,
            auction: self.auction,
            campaign: self.campaign,
            slot: self.slot,
            publisher: self.publisher.map(str::to_owned),
            country: self.country.map(str::to_owned),
            latency_ms: self.latency_ms,
            ad_domain: self.ad_domain.map(str::to_owned),
        }
    }
}

impl NurlFields {
    /// Borrows this payload as a [`NurlFieldsRef`].
    pub fn as_ref_fields(&self) -> NurlFieldsRef<'_> {
        NurlFieldsRef {
            adx: self.adx,
            dsp: self.dsp,
            price: self.price.clone(),
            bid_price: self.bid_price,
            impression: self.impression,
            auction: self.auction,
            campaign: self.campaign,
            slot: self.slot,
            publisher: self.publisher.as_deref(),
            country: self.country.as_deref(),
            latency_ms: self.latency_ms,
            ad_domain: self.ad_domain.as_deref(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yav_types::PriceVisibility;

    #[test]
    fn payload_accessors() {
        let clear = PricePayload::Cleartext(Cpm::from_f64(0.95));
        assert_eq!(clear.cleartext(), Some(Cpm::from_f64(0.95)));
        assert!(clear.encrypted().is_none());
        assert_eq!(clear.visibility(), PriceVisibility::Cleartext);

        let keys = yav_crypto::PriceKeys::derive("t");
        let token = yav_crypto::PriceCrypter::new(keys).encrypt(950_000, [0u8; 16]);
        let enc = PricePayload::Encrypted(token);
        assert!(enc.cleartext().is_none());
        assert_eq!(enc.encrypted(), Some(&token));
        assert_eq!(enc.visibility(), PriceVisibility::Encrypted);
    }

    #[test]
    fn minimal_has_no_metadata() {
        let f = NurlFields::minimal(
            Adx::MoPub,
            DspId(1),
            PricePayload::Cleartext(Cpm::ONE),
            ImpressionId(5),
            AuctionId(6),
        );
        assert!(f.slot.is_none() && f.publisher.is_none() && f.bid_price.is_none());
        assert_eq!(f.adx, Adx::MoPub);
    }
}
