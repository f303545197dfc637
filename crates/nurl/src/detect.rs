//! Observer-side nURL detection.
//!
//! The weblog analyzer and the YourAdValue client both sift raw request
//! URLs for winning-price notifications. [`NurlDetector`] holds the macro
//! list (exchange domain, notification path, price-parameter name) and
//! classifies each URL in one pass, without assuming the emitting side was
//! well-behaved: the price parameter's *value shape* decides whether the
//! observation is cleartext or encrypted, and echoed bid prices are
//! ignored per §4.1.

use crate::template;
use crate::url::Url;
use yav_crypto::EncryptedPrice;
use yav_types::{Adx, Cpm};

/// A charge price spotted in traffic, as the observer sees it.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectedPrice {
    /// Readable decimal CPM.
    Cleartext(Cpm),
    /// Opaque token — only its wire form is known.
    Encrypted(EncryptedPrice),
    /// The notification's price field existed but was unintelligible.
    Garbled,
}

impl DetectedPrice {
    /// The cleartext value, if readable.
    pub fn cleartext(&self) -> Option<Cpm> {
        match self {
            DetectedPrice::Cleartext(p) => Some(*p),
            _ => None,
        }
    }

    /// True for the encrypted variant.
    pub fn is_encrypted(&self) -> bool {
        matches!(self, DetectedPrice::Encrypted(_))
    }
}

/// A detected winning-price notification.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// The exchange whose endpoint fired.
    pub adx: Adx,
    /// The price observation.
    pub price: DetectedPrice,
    /// The bidder's callback domain, when echoed.
    pub bidder_domain: Option<String>,
}

/// Outcome of [`screen_adx`]'s cheap rejection of a raw URL string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastReject {
    /// No `http://`/`https://` prefix — [`Url::parse`] could never
    /// accept it.
    Scheme,
    /// Has a scheme, but the host is not an exchange notification
    /// domain — ordinary traffic.
    Host,
}

/// Allocation-free pre-screen over a raw URL string: `Ok(adx)` only when
/// the URL could still be a winning-price notification (supported scheme
/// and a known exchange notification host), carrying the matched
/// exchange. Most monitored traffic is *not* an nURL, so callers on the
/// hot path screen first, parse only survivors, and hand the `Adx` to
/// [`template::parse_borrowed_screened`] — true nURLs scan the host
/// roster once, not twice.
///
/// Mirrors [`Url::parse`]'s authority handling (authority ends at the
/// first `/`, host at the first `:`), so a candidate's subsequent full
/// parse sees the same host.
pub fn screen_adx(raw: &str) -> Result<Adx, FastReject> {
    let rest = if let Some(r) = raw.strip_prefix("https://") {
        r
    } else if let Some(r) = raw.strip_prefix("http://") {
        r
    } else {
        return Err(FastReject::Scheme);
    };
    let authority = rest.split('/').next().unwrap_or(rest);
    let host = authority.split(':').next().unwrap_or("");
    exchange_host(host).ok_or(FastReject::Host)
}

/// One entry of the precomputed host-dispatch table: the domain length
/// and lowercase first byte let [`exchange_host`] skip an exchange
/// without touching the domain string itself.
#[derive(Clone, Copy)]
struct HostEntry {
    len: u8,
    first: u8,
    domain: &'static str,
    adx: Adx,
}

const fn host_entry(adx: Adx) -> HostEntry {
    let domain = adx.domain();
    HostEntry {
        len: domain.len() as u8,
        first: domain.as_bytes()[0],
        domain,
        adx,
    }
}

/// The exchange roster as a flat dispatch table, computed at compile
/// time from `Adx::ALL` so it cannot drift from the enum.
const HOST_TABLE: [HostEntry; Adx::ALL.len()] = {
    let mut table = [host_entry(Adx::ALL[0]); Adx::ALL.len()];
    let mut i = 1;
    while i < Adx::ALL.len() {
        table[i] = host_entry(Adx::ALL[i]);
        i += 1;
    }
    table
};

/// Bitmask of the domain lengths occurring in [`HOST_TABLE`] (all are
/// well under 64 bytes). A host whose length bit is clear cannot match
/// any exchange, which rejects most ordinary traffic with one bit test.
const HOST_LEN_MASK: u64 = {
    let mut mask = 0u64;
    let mut i = 0;
    while i < HOST_TABLE.len() {
        mask |= 1 << HOST_TABLE[i].len;
        i += 1;
    }
    mask
};

/// The exchange whose notification domain equals `host`, matched
/// case-insensitively (raw hosts from [`crate::UrlRef`] keep their original
/// case; the owned parser lowercases). Exact-match only — subdomains of
/// an exchange domain are *not* notification hosts.
///
/// This sits on the reject path of every monitored request, so the
/// roster scan hides behind two prefilters: the length bitmask, then a
/// per-entry length + first-byte check before any string comparison.
pub fn exchange_host(host: &str) -> Option<Adx> {
    if host.len() >= 64 || HOST_LEN_MASK & (1u64 << host.len()) == 0 {
        return None;
    }
    let first = host.as_bytes().first()?.to_ascii_lowercase();
    HOST_TABLE
        .iter()
        .find(|e| {
            e.len as usize == host.len() && e.first == first && host.eq_ignore_ascii_case(e.domain)
        })
        .map(|e| e.adx)
}

/// Stateless detector around the built-in macro list.
///
/// Construction is cheap; hold one per analysis pass.
#[derive(Debug, Clone, Default)]
pub struct NurlDetector {
    _private: (),
}

impl NurlDetector {
    /// Creates a detector with the built-in macro list.
    pub fn new() -> NurlDetector {
        NurlDetector { _private: () }
    }

    /// Classifies one URL. Returns `None` for ordinary traffic.
    pub fn detect(&self, url: &Url) -> Option<Detection> {
        let adx = Adx::from_domain(url.host())?;
        if url.path() != template::notification_path(adx) {
            return None;
        }
        let raw = url.query(template::price_param(adx))?;
        let price = Self::classify_price(raw);
        Some(Detection {
            adx,
            price,
            bidder_domain: url.query("bidder").map(str::to_owned),
        })
    }

    /// Shape-classifies a raw price value: decimal ⇒ cleartext; 28-byte
    /// token (hex or base64url) ⇒ encrypted; anything else ⇒ garbled.
    pub fn classify_price(raw: &str) -> DetectedPrice {
        if raw.len() == 56 {
            if let Ok(tok) = EncryptedPrice::from_hex_wire(raw) {
                return DetectedPrice::Encrypted(tok);
            }
            // 56 hex digits always decode to exactly one token, so the
            // only failure is a non-hex byte — classify by the other
            // shapes, as before.
        }
        if let Ok(p) = raw.parse::<Cpm>() {
            return DetectedPrice::Cleartext(p);
        }
        match EncryptedPrice::from_wire(raw) {
            Ok(tok) => DetectedPrice::Encrypted(tok),
            Err(_) => DetectedPrice::Garbled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{NurlFields, PricePayload};
    use crate::template::emit;
    use yav_crypto::{PriceCrypter, PriceKeys};
    use yav_types::{AuctionId, DspId, ImpressionId};

    fn token() -> EncryptedPrice {
        PriceCrypter::new(PriceKeys::derive("det")).encrypt(2_000_000, [5u8; 16])
    }

    #[test]
    fn detects_cleartext_emission() {
        let fields = NurlFields::minimal(
            Adx::MoPub,
            DspId(1),
            PricePayload::Cleartext(Cpm::from_f64(0.95)),
            ImpressionId(1),
            AuctionId(1),
        );
        let det = NurlDetector::new().detect(&emit(&fields)).unwrap();
        assert_eq!(det.adx, Adx::MoPub);
        assert_eq!(det.price.cleartext(), Some(Cpm::from_f64(0.95)));
        assert_eq!(det.bidder_domain.as_deref(), Some("bidder.criteo.com"));
    }

    #[test]
    fn detects_encrypted_emission_any_codec() {
        for adx in [Adx::DoubleClick, Adx::MathTag, Adx::OpenX] {
            let fields = NurlFields::minimal(
                adx,
                DspId(0),
                PricePayload::Encrypted(token()),
                ImpressionId(2),
                AuctionId(2),
            );
            let det = NurlDetector::new().detect(&emit(&fields)).unwrap();
            assert!(det.price.is_encrypted(), "{adx}");
        }
    }

    #[test]
    fn screen_admits_every_exchange_and_rejects_the_rest() {
        for adx in Adx::ALL {
            let url = format!("http://{}/x", adx.domain());
            assert_eq!(screen_adx(&url), Ok(adx), "{url}");
            // Case-insensitive, port-tolerant, path-less — all shapes the
            // full parser would accept with the same host.
            let shouty = format!("https://{}:8080", adx.domain().to_ascii_uppercase());
            assert_eq!(screen_adx(&shouty), Ok(adx), "{shouty}");
        }
        assert_eq!(screen_adx("definitely not a url"), Err(FastReject::Scheme));
        assert_eq!(screen_adx("ftp://rtb.openx.net/x"), Err(FastReject::Scheme));
        assert_eq!(
            screen_adx("http://www.elmundo.es/index.html"),
            Err(FastReject::Host)
        );
        // A subdomain of an exchange domain is NOT the notification host;
        // the full detector matches hosts exactly, and so must the screen.
        assert_eq!(
            screen_adx("http://evil.rtb.openx.net/x"),
            Err(FastReject::Host)
        );
    }

    #[test]
    fn screen_agrees_with_the_full_detector() {
        // The screen may only reject URLs the detector would also reject:
        // every detectable emission must survive it, naming the same
        // exchange.
        let d = NurlDetector::new();
        for adx in [Adx::MoPub, Adx::DoubleClick, Adx::Rubicon] {
            let fields = NurlFields::minimal(
                adx,
                DspId(2),
                PricePayload::Cleartext(Cpm::from_f64(0.31)),
                ImpressionId(9),
                AuctionId(9),
            );
            let raw = emit(&fields).to_string();
            assert_eq!(screen_adx(&raw), Ok(adx), "{raw}");
            let det = d.detect(&Url::parse(&raw).unwrap()).expect("detects");
            assert_eq!(det.adx, adx);
        }
    }

    #[test]
    fn ignores_ordinary_traffic() {
        let d = NurlDetector::new();
        for s in [
            "http://www.elmundo.es/index.html",
            "https://cdn.example.com/lib.js?v=3",
            "http://cpp.imp.mpx.mopub.com/robots.txt",
        ] {
            assert_eq!(d.detect(&Url::parse(s).unwrap()), None, "{s}");
        }
    }

    #[test]
    fn off_style_exchange_still_classified_by_shape() {
        // A cleartext-house exchange delivering an encrypted token (or the
        // reverse) must still be classified correctly: §2.4's Figure 2 is
        // exactly the drift of ADX-DSP pairs from one style to the other.
        let enc_on_clear_house = NurlFields::minimal(
            Adx::MoPub,
            DspId(0),
            PricePayload::Encrypted(token()),
            ImpressionId(3),
            AuctionId(3),
        );
        let det = NurlDetector::new()
            .detect(&emit(&enc_on_clear_house))
            .unwrap();
        assert!(det.price.is_encrypted());

        let clear_on_enc_house = NurlFields::minimal(
            Adx::DoubleClick,
            DspId(0),
            PricePayload::Cleartext(Cpm::ONE),
            ImpressionId(4),
            AuctionId(4),
        );
        let det = NurlDetector::new()
            .detect(&emit(&clear_on_enc_house))
            .unwrap();
        assert_eq!(det.price.cleartext(), Some(Cpm::ONE));
    }

    #[test]
    fn garbled_prices_flagged() {
        assert_eq!(NurlDetector::classify_price("%%%"), DetectedPrice::Garbled);
        assert_eq!(NurlDetector::classify_price("abc"), DetectedPrice::Garbled);
        // 56 hex chars that aren't a valid token length after decode can't
        // happen (56 hex == 28 bytes), but odd-length hex-ish strings fall
        // through to garbled.
        assert_eq!(
            NurlDetector::classify_price(&"a".repeat(55)),
            DetectedPrice::Garbled
        );
    }

    #[test]
    fn classify_prefers_decimal() {
        // "12" is both valid hex and a valid decimal; decimal must win
        // (real cleartext prices are short decimals).
        assert_eq!(
            NurlDetector::classify_price("12"),
            DetectedPrice::Cleartext(Cpm::from_whole(12))
        );
    }
}
