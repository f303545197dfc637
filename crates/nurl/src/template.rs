//! Per-exchange notification-URL templates.
//!
//! Every exchange has a *house format*: its notification domain and path,
//! its parameter vocabulary, and how it encodes the charge price. The
//! formats below are modelled after the Table-1 examples and the public
//! RTB macro documentation the paper's analyzer was built from — MoPub's
//! verbose cleartext `imp` beacon, MathTag's hex-token `notify/js`,
//! DoubleClick's base64 `price=` and so on. [`render_into`] and
//! [`parse_borrowed_screened`] are exact inverses on the typed payload,
//! which the round-trip property tests pin down.
//!
//! One documented deviation from the real wire: every encrypted exchange
//! here carries the full 28-byte token of [`yav_crypto::price`] (hex or
//! base64url, per house style), whereas e.g. 2015 MathTag beacons carried
//! shorter opaque blobs. The *observable property* — an opaque,
//! undecryptable price field — is identical.

use crate::fields::{NurlFieldsRef, PricePayload};
use crate::scratch::{DecodedPairs, UrlScratch};
use crate::urlref::{UrlParseError, UrlRef};
use std::fmt;
use std::fmt::Write as _;
use yav_crypto::EncryptedPrice;
use yav_types::{AdSlotSize, Adx, AuctionId, CampaignId, Cpm, DspId, ImpressionId};

/// Payload errors of [`parse_borrowed_screened`] (its
/// [`NurlRefError::Payload`]): the URL *looked like* a notification from a
/// known exchange but its payload was malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NurlParseError {
    /// The price parameter was missing entirely.
    MissingPrice,
    /// A cleartext price failed to parse as a decimal CPM.
    BadCleartextPrice,
    /// An encrypted token failed shape validation.
    BadToken,
    /// A mandatory identifier was missing or malformed.
    BadId(&'static str),
}

impl fmt::Display for NurlParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NurlParseError::MissingPrice => write!(f, "notification carries no price parameter"),
            NurlParseError::BadCleartextPrice => write!(f, "cleartext price is not a decimal CPM"),
            NurlParseError::BadToken => write!(f, "encrypted price token is malformed"),
            NurlParseError::BadId(which) => write!(f, "missing or malformed id field: {which}"),
        }
    }
}

impl std::error::Error for NurlParseError {}

/// Errors from [`parse_borrowed_screened`]: either the deferred
/// percent-decoding failed or the notification payload was malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NurlRefError {
    /// A query component failed percent-decoding.
    Url(UrlParseError),
    /// Decoded fine, but the notification payload was malformed.
    Payload(NurlParseError),
}

impl fmt::Display for NurlRefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NurlRefError::Url(e) => write!(f, "query decode failed: {e}"),
            NurlRefError::Payload(e) => write!(f, "malformed payload: {e}"),
        }
    }
}

impl std::error::Error for NurlRefError {}

/// How a template encodes its opaque price token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokenCodec {
    /// Unpadded URL-safe base64 (DoubleClick style).
    Base64,
    /// Uppercase hex (MathTag style).
    Hex,
}

/// Static description of one exchange's house format.
struct Template {
    adx: Adx,
    path: &'static str,
    /// Parameter carrying the charge price.
    price_param: &'static str,
    /// Parameter carrying the echoed bid price, if the exchange echoes one.
    bid_param: Option<&'static str>,
    /// Token codec for encrypted exchanges; `None` means cleartext house
    /// style.
    token: Option<TokenCodec>,
    /// Whether the exchange echoes slot sizes / publisher names / latency.
    rich_metadata: bool,
}

/// The format table. Paths and parameter names follow each exchange's
/// public macro documentation where available.
const TEMPLATES: [Template; 17] = [
    Template {
        adx: Adx::MoPub,
        path: "/imp",
        price_param: "charge_price",
        bid_param: Some("bid_price"),
        token: None,
        rich_metadata: true,
    },
    Template {
        adx: Adx::OpenX,
        path: "/w/1.0/win",
        price_param: "p",
        bid_param: None,
        token: Some(TokenCodec::Base64),
        rich_metadata: false,
    },
    Template {
        adx: Adx::Rubicon,
        path: "/beacon/t",
        price_param: "price",
        bid_param: None,
        token: Some(TokenCodec::Base64),
        rich_metadata: false,
    },
    Template {
        adx: Adx::DoubleClick,
        path: "/pagead/adview",
        price_param: "price",
        bid_param: None,
        token: Some(TokenCodec::Base64),
        rich_metadata: false,
    },
    Template {
        adx: Adx::PulsePoint,
        path: "/win",
        price_param: "wp",
        bid_param: None,
        token: Some(TokenCodec::Base64),
        rich_metadata: false,
    },
    Template {
        adx: Adx::Adnxs,
        path: "/it",
        price_param: "auction_price",
        bid_param: None,
        token: None,
        rich_metadata: false,
    },
    Template {
        adx: Adx::MathTag,
        path: "/notify/js",
        price_param: "price",
        bid_param: None,
        token: Some(TokenCodec::Hex),
        rich_metadata: false,
    },
    Template {
        adx: Adx::Smaato,
        path: "/oapi/win",
        price_param: "wp",
        bid_param: None,
        token: None,
        rich_metadata: false,
    },
    Template {
        adx: Adx::Nexage,
        path: "/win",
        price_param: "wp",
        bid_param: None,
        token: None,
        rich_metadata: false,
    },
    Template {
        adx: Adx::InMobi,
        path: "/win/notify",
        price_param: "cp",
        bid_param: Some("bp"),
        token: None,
        rich_metadata: false,
    },
    Template {
        adx: Adx::Flurry,
        path: "/v19/winNotice",
        price_param: "price",
        bid_param: None,
        token: None,
        rich_metadata: false,
    },
    Template {
        adx: Adx::Millennial,
        path: "/getAd/win",
        price_param: "settlementPrice",
        bid_param: None,
        token: None,
        rich_metadata: false,
    },
    Template {
        adx: Adx::Turn,
        path: "/r/notify",
        price_param: "mcpm",
        bid_param: None,
        token: None,
        rich_metadata: true,
    },
    Template {
        adx: Adx::Criteo,
        path: "/delivery/rtb/win",
        price_param: "rtbwinprice",
        bid_param: None,
        token: Some(TokenCodec::Base64),
        rich_metadata: false,
    },
    Template {
        adx: Adx::Rtbhouse,
        path: "/win-event",
        price_param: "wp",
        bid_param: None,
        token: Some(TokenCodec::Base64),
        rich_metadata: false,
    },
    Template {
        adx: Adx::Smartadserver,
        path: "/imp/win",
        price_param: "winprice",
        bid_param: None,
        token: None,
        rich_metadata: true,
    },
    Template {
        adx: Adx::Improve,
        path: "/rtb/win",
        price_param: "price",
        bid_param: None,
        token: Some(TokenCodec::Base64),
        rich_metadata: false,
    },
];

/// `TEMPLATES` is laid out in `Adx::ALL` order (asserted by test), so an
/// exchange's template is a plain index — total, no search, no panic
/// path on the per-URL hot path.
fn template_for(adx: Adx) -> &'static Template {
    let t = &TEMPLATES[adx.index()];
    debug_assert_eq!(t.adx, adx, "TEMPLATES must stay in Adx::ALL order");
    t
}

/// The price query parameter an exchange's notifications carry.
pub fn price_param(adx: Adx) -> &'static str {
    template_for(adx).price_param
}

/// Renders the notification URL for a payload in the exchange's house
/// format into a caller-owned buffer, with zero heap allocations beyond
/// growth of `out` itself. The payload, not the template, decides
/// whether the price rides cleartext or encrypted: real integrations
/// deviate from their house style, and the parser must cope. Every id,
/// token and price has a `fmt::Write`-style writer, so the whole URL is
/// assembled by appending into `out`; the test oracle
/// (`render_into_matches_emit`) builds it from a pair list instead.
///
/// Fixed-format values (hex wire ids, dsp/adx domains, decimal CPMs,
/// base64url/hex price tokens, `WxH` slot sizes, `latency` seconds and
/// `USD`) consist solely of RFC-3986 unreserved bytes, so they are
/// written raw; the free-form metadata strings are percent-encoded.
pub fn render_into(fields: &NurlFieldsRef<'_>, out: &mut String) {
    let t = template_for(fields.adx);
    out.clear();
    out.push_str("http://");
    out.push_str(fields.adx.domain());
    out.push_str(t.path);

    // Identifier block first, like real beacons.
    out.push_str("?imp=");
    fields.impression.wire_into(out);
    out.push_str("&auc=");
    fields.auction.wire_into(out);
    out.push_str("&bidder=");
    fields.dsp.write_domain(out);

    if let Some(c) = fields.campaign {
        out.push_str("&cmpid=");
        c.wire_into(out);
    }

    // Price, in house encoding.
    out.push('&');
    out.push_str(t.price_param);
    out.push('=');
    match &fields.price {
        PricePayload::Cleartext(p) => {
            let _ = write!(out, "{p}");
        }
        PricePayload::Encrypted(token) => match t.token.unwrap_or(TokenCodec::Base64) {
            TokenCodec::Base64 => token.write_wire(out),
            TokenCodec::Hex => token.write_hex_wire_upper(out),
        },
    }

    if let (Some(bid_param), Some(bid)) = (t.bid_param, fields.bid_price) {
        out.push('&');
        out.push_str(bid_param);
        out.push('=');
        let _ = write!(out, "{bid}");
    }

    if t.rich_metadata {
        if let Some(slot) = fields.slot {
            // `AdSlotSize`'s `Display` is its `WxH` wire form.
            let _ = write!(out, "&size={slot}");
        }
        if let Some(p) = fields.publisher {
            out.push_str("&pub_name=");
            percent_encode_into(p, out);
        }
        if let Some(c) = fields.country {
            out.push_str("&country=");
            percent_encode_into(c, out);
        }
        if let Some(d) = fields.ad_domain {
            out.push_str("&ad_domain=");
            percent_encode_into(d, out);
        }
        if let Some(lat) = fields.latency_ms {
            // `lat/1000.0` rendered to three decimals is exactly the
            // integer-split form: u32 millis are exact in f64 and the
            // division error is far below half a thousandth.
            let _ = write!(out, "&latency={}.{:03}", lat / 1000, lat % 1000);
        }
        out.push_str("&currency=USD");
    }
}

/// Appends a query component to `out`, percent-encoded: RFC 3986
/// unreserved bytes pass through, every other byte becomes `%XX`.
fn percent_encode_into(s: &str, out: &mut String) {
    // Indexing with a nibble (0–15) cannot go out of bounds.
    const HEX_UPPER: &[u8; 16] = b"0123456789ABCDEF";
    for &b in s.as_bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b as char);
        } else {
            out.push('%');
            out.push(HEX_UPPER[(b >> 4) as usize] as char);
            out.push(HEX_UPPER[(b & 0xf) as usize] as char);
        }
    }
}

/// Parses a borrowed URL whose host already matched `adx` — via
/// [`crate::detect::screen_adx`] on the raw string or
/// [`crate::detect::exchange_host`] on the parsed host — as a
/// winning-price notification. This is the one notification parse: the
/// analyzer, the monitor and the tenant store all run it. The host is
/// not re-checked here.
///
/// * `Ok(None)` — not a notification URL (wrong path): ordinary traffic.
/// * `Ok(Some(fields))` — a well-formed notification.
/// * `Err(_)` — on a known exchange's notification host but undecodable
///   or with a malformed payload; the analyzer counts these separately.
///
/// Each call counts `nurl.template.urls_seen` plus one outcome counter.
/// The query is decoded into `scratch` before the path check, so a
/// notification-host URL with an undecodable query reports its escape
/// error whatever its path. The returned [`NurlFieldsRef`] borrows its
/// free-form metadata from the scratch, so callers extract what they
/// fold before the next decode, or keep `to_owned_fields()`.
pub fn parse_borrowed_screened<'s, 'a: 's>(
    adx: Adx,
    url: &UrlRef<'a>,
    scratch: &'s mut UrlScratch,
) -> Result<Option<NurlFieldsRef<'s>>, NurlRefError> {
    let _trace = yav_trace::trace_span!("nurl.parse_borrowed");
    let result = match scratch.decode(url) {
        Err(e) => Err(NurlRefError::Url(e)),
        Ok(_) if url.path() != template_for(adx).path => Ok(None),
        Ok(pairs) => fields_ref_from_query(adx, &pairs)
            .map(Some)
            .map_err(NurlRefError::Payload),
    };
    count(&result);
    result
}

/// Pre-resolved `nurl.template.*` counter handles. Template parsing is
/// the per-URL hot path; resolving handles once spares it a registry
/// lock + name lookup per counter per URL. The registry keeps cached
/// handles valid across [`yav_telemetry::Registry::clear`].
struct TemplateCounters {
    urls_seen: yav_telemetry::Counter,
    matched: yav_telemetry::Counter,
    not_notification: yav_telemetry::Counter,
    malformed_dropped: yav_telemetry::Counter,
}

/// Counts one parse: `urls_seen` plus the counter for its outcome.
fn count<T, E>(result: &Result<Option<T>, E>) {
    static COUNTERS: std::sync::OnceLock<TemplateCounters> = std::sync::OnceLock::new();
    let c = COUNTERS.get_or_init(|| TemplateCounters {
        urls_seen: yav_telemetry::counter("nurl.template.urls_seen"),
        matched: yav_telemetry::counter("nurl.template.matched"),
        not_notification: yav_telemetry::counter("nurl.template.not_notification"),
        malformed_dropped: yav_telemetry::counter("nurl.template.malformed_dropped"),
    });
    c.urls_seen.inc();
    match result {
        Ok(Some(_)) => c.matched.inc(),
        Ok(None) => c.not_notification.inc(),
        Err(_) => c.malformed_dropped.inc(),
    }
}

/// Extracts the typed payload as a [`NurlFieldsRef`] borrowing the query
/// pairs' decoded text. A single walk over the pairs routes each key to
/// its field slot, first value winning — observably identical to per-key
/// lookups (which also took the first match) at a fifth of the pair-list
/// traffic.
fn fields_ref_from_query<'q>(
    adx: Adx,
    q: &DecodedPairs<'q>,
) -> Result<NurlFieldsRef<'q>, NurlParseError> {
    let t = template_for(adx);
    let mut raw_price = None;
    let mut imp = None;
    let mut auc = None;
    let mut bidder = None;
    let mut raw_bid = None;
    let mut cmpid = None;
    let mut size = None;
    let mut pub_name = None;
    let mut country = None;
    let mut latency = None;
    let mut ad_domain = None;
    for (k, v) in q.iter() {
        // Fixed vocabulary first; no template prices or bid params
        // collide with it (pinned by `vocabulary_is_collision_free`).
        let slot = match k {
            "imp" => &mut imp,
            "auc" => &mut auc,
            "bidder" => &mut bidder,
            "cmpid" => &mut cmpid,
            "size" => &mut size,
            "pub_name" => &mut pub_name,
            "country" => &mut country,
            "latency" => &mut latency,
            "ad_domain" => &mut ad_domain,
            _ if k == t.price_param => &mut raw_price,
            _ if Some(k) == t.bid_param => &mut raw_bid,
            _ => continue,
        };
        if slot.is_none() {
            *slot = Some(v);
        }
    }

    let raw_price = raw_price.ok_or(NurlParseError::MissingPrice)?;
    let price = decode_price(t, raw_price)?;
    let impression = ImpressionId(wire_id(imp).ok_or(NurlParseError::BadId("imp"))?);
    let auction = AuctionId(wire_id(auc).ok_or(NurlParseError::BadId("auc"))?);
    let dsp = bidder
        .and_then(DspId::from_domain)
        .ok_or(NurlParseError::BadId("bidder"))?;

    Ok(NurlFieldsRef {
        adx,
        dsp,
        price,
        bid_price: raw_bid.and_then(Cpm::parse_str),
        impression,
        auction,
        campaign: wire_id(cmpid).map(|v| CampaignId(v as u32)),
        slot: size.and_then(AdSlotSize::parse_wire),
        publisher: pub_name,
        country,
        latency_ms: latency
            .and_then(|s| s.parse::<f64>().ok())
            .map(|secs| (secs * 1000.0).round() as u32),
        ad_domain,
    })
}

/// Decodes the price parameter: decimal CPM, hex token or base64 token.
/// The decision is made from the *value shape*, not the house style —
/// the observer cannot trust exchanges to be consistent.
fn decode_price(t: &Template, raw: &str) -> Result<PricePayload, NurlParseError> {
    // A 56-hex-digit value is a hex-coded 28-byte token. Non-hex
    // 56-char values fall through to the shapes below unchanged.
    if raw.len() == 56 {
        if let Ok(token) = EncryptedPrice::from_hex_wire(raw) {
            return Ok(PricePayload::Encrypted(token));
        }
    }
    // A decimal parses as cleartext CPM.
    if let Some(p) = Cpm::parse_str(raw) {
        return Ok(PricePayload::Cleartext(p));
    }
    // Otherwise try the base64url token shape.
    match EncryptedPrice::from_wire(raw) {
        Ok(token) => Ok(PricePayload::Encrypted(token)),
        Err(_) => {
            // House-encrypted exchanges with an unparseable blob are
            // malformed tokens; cleartext houses get the price error.
            if t.token.is_some() {
                Err(NurlParseError::BadToken)
            } else {
                Err(NurlParseError::BadCleartextPrice)
            }
        }
    }
}

/// Reverses [`yav_types::ids`]' splitmix64 wire mixing. Wire ids are
/// exactly 16 hex digits; the fixed width lets the SWAR hex kernel
/// validate and parse the whole id in two words.
fn wire_id(s: Option<&str>) -> Option<u64> {
    let digits: &[u8; 16] = s?.as_bytes().try_into().ok()?;
    let z = yav_simd::hex::parse_hex16(digits)?;
    Some(splitmix64_inverse(z))
}

/// Inverse of the splitmix64 finaliser used by `yav_types::ids::*::wire`.
fn splitmix64_inverse(mut z: u64) -> u64 {
    // Invert z ^= z >> 31  (shift >= 32 would be self-inverse; 31 needs two steps)
    z = z ^ (z >> 31) ^ (z >> 62);
    z = z.wrapping_mul(0x319642b2d24d8ec3); // modular inverse of 0x94d049bb133111eb
    z = z ^ (z >> 27) ^ (z >> 54);
    z = z.wrapping_mul(0x96de1b173f119089); // modular inverse of 0xbf58476d1ce4e5b9
    z = z ^ (z >> 30) ^ (z >> 60);
    z.wrapping_sub(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::NurlFields;
    use crate::{screen_adx, FastReject};
    use proptest::prelude::*;
    use yav_crypto::{hex_encode, PriceCrypter, PriceKeys};

    fn sample_token(seed: u8) -> EncryptedPrice {
        PriceCrypter::new(PriceKeys::derive("test")).encrypt(1_234_000, [seed; 16])
    }

    /// `render_into`'s oracle: it lists the query pairs, then
    /// percent-encodes every key and value with its own encoder, so it
    /// shares no code with `render_into`.
    fn emit(fields: &NurlFields) -> String {
        let t = template_for(fields.adx);
        let mut pairs = vec![
            ("imp", fields.impression.wire()),
            ("auc", fields.auction.wire()),
            ("bidder", fields.dsp.domain()),
        ];
        if let Some(c) = fields.campaign {
            pairs.push(("cmpid", c.wire()));
        }
        let price = match &fields.price {
            PricePayload::Cleartext(p) => p.to_string(),
            PricePayload::Encrypted(token) => match t.token.unwrap_or(TokenCodec::Base64) {
                TokenCodec::Base64 => token.to_wire(),
                TokenCodec::Hex => hex_encode(token.as_bytes()).to_ascii_uppercase(),
            },
        };
        pairs.push((t.price_param, price));
        if let (Some(bid_param), Some(bid)) = (t.bid_param, fields.bid_price) {
            pairs.push((bid_param, bid.to_string()));
        }
        if t.rich_metadata {
            if let Some(slot) = fields.slot {
                pairs.push(("size", slot.wire()));
            }
            for (key, value) in [
                ("pub_name", &fields.publisher),
                ("country", &fields.country),
                ("ad_domain", &fields.ad_domain),
            ] {
                if let Some(v) = value {
                    pairs.push((key, v.clone()));
                }
            }
            if let Some(lat) = fields.latency_ms {
                pairs.push(("latency", format!("{:.3}", lat as f64 / 1000.0)));
            }
            pairs.push(("currency", "USD".to_owned()));
        }
        let encode = |s: &str| -> String {
            s.bytes()
                .map(|b| match b {
                    b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                        char::from(b).to_string()
                    }
                    _ => format!("%{b:02X}"),
                })
                .collect()
        };
        let query: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("{}={}", encode(k), encode(v)))
            .collect();
        format!(
            "http://{}{}?{}",
            fields.adx.domain(),
            t.path,
            query.join("&")
        )
    }

    fn render(fields: &NurlFields) -> String {
        let mut out = String::new();
        render_into(&fields.as_ref_fields(), &mut out);
        out
    }

    /// Reads a URL back the way the monitor does — screen, structural
    /// parse, notification parse — and keeps the owned payload.
    fn reparse(raw: &str) -> Result<Option<NurlFields>, NurlRefError> {
        let adx = screen_adx(raw).expect("an exchange notification host");
        let url = UrlRef::parse(raw).expect("a well-formed URL");
        parse_borrowed_screened(adx, &url, &mut UrlScratch::new())
            .map(|f| f.map(|f| f.to_owned_fields()))
    }

    /// A notification from `adx` whose price parameter carries `value`.
    fn with_price(adx: Adx, value: &str) -> String {
        let t = template_for(adx);
        let mut raw = format!(
            "http://{}{}?imp={}&auc={}&bidder=mediamath.com&{}=",
            adx.domain(),
            t.path,
            ImpressionId(1).wire(),
            AuctionId(2).wire(),
            t.price_param
        );
        percent_encode_into(value, &mut raw);
        raw
    }

    #[test]
    fn render_into_matches_emit() {
        // The allocation-free renderer must be byte-identical to the
        // pair-list oracle for every exchange, both price visibilities
        // and both metadata shapes — it is what the hot path emits and
        // what the analyzer re-parses.
        let mut buf = String::new();
        for adx in Adx::ALL {
            for price in [
                PricePayload::Cleartext(Cpm::from_f64(0.95)),
                PricePayload::Cleartext(Cpm::from_micros(1)),
                PricePayload::Cleartext(Cpm::from_f64(3.0)),
                PricePayload::Encrypted(sample_token(7)),
            ] {
                for fields in [
                    rich_fields(adx, price.clone()),
                    NurlFields::minimal(
                        adx,
                        DspId(1),
                        price.clone(),
                        ImpressionId(5),
                        AuctionId(6),
                    ),
                ] {
                    render_into(&fields.as_ref_fields(), &mut buf);
                    assert_eq!(buf, emit(&fields), "{adx} {price:?}");
                    // The borrowed payload round-trips to the owned one.
                    assert_eq!(fields.as_ref_fields().to_owned_fields(), fields);
                }
            }
        }
        // Reserved bytes in free-form metadata still percent-encode.
        let mut odd = rich_fields(Adx::MoPub, PricePayload::Cleartext(Cpm::ONE));
        odd.publisher = Some("el país/ñ".to_owned());
        render_into(&odd.as_ref_fields(), &mut buf);
        assert_eq!(buf, emit(&odd));
        assert!(buf.contains("pub_name=el%20pa%C3%ADs%2F%C3%B1"));
        // High-roster dsp ids use the synthetic domain form.
        let far = NurlFields::minimal(
            Adx::OpenX,
            DspId(173),
            PricePayload::Encrypted(sample_token(4)),
            ImpressionId(1),
            AuctionId(2),
        );
        render_into(&far.as_ref_fields(), &mut buf);
        assert_eq!(buf, emit(&far));
    }

    #[test]
    fn vocabulary_is_collision_free() {
        // `fields_ref_from_query` routes fixed keys before the per-template
        // price/bid params, which is only sound while no template names
        // its price or bid param after a fixed-vocabulary key.
        const FIXED: [&str; 9] = [
            "imp",
            "auc",
            "bidder",
            "cmpid",
            "size",
            "pub_name",
            "country",
            "latency",
            "ad_domain",
        ];
        for t in &TEMPLATES {
            assert!(
                !FIXED.contains(&t.price_param),
                "{:?} price param {} shadows a fixed key",
                t.adx,
                t.price_param
            );
            if let Some(b) = t.bid_param {
                assert!(
                    !FIXED.contains(&b),
                    "{:?} bid param {b} shadows a fixed key",
                    t.adx
                );
                assert_ne!(b, t.price_param, "{:?} bid param equals price param", t.adx);
            }
        }
    }

    #[test]
    fn templates_align_with_adx_all() {
        assert_eq!(TEMPLATES.len(), Adx::ALL.len());
        for (i, t) in TEMPLATES.iter().enumerate() {
            assert_eq!(t.adx, Adx::ALL[i], "TEMPLATES[{i}] out of Adx::ALL order");
            assert_eq!(price_param(t.adx), t.price_param);
        }
    }

    fn rich_fields(adx: Adx, price: PricePayload) -> NurlFields {
        NurlFields {
            adx,
            dsp: DspId(3),
            price,
            bid_price: Some(Cpm::from_f64(0.99)),
            impression: ImpressionId(42),
            auction: AuctionId(777),
            campaign: Some(CampaignId(9)),
            slot: Some(AdSlotSize::S300x250),
            publisher: Some("elpais.es".to_owned()),
            country: Some("ES".to_owned()),
            latency_ms: Some(116),
            ad_domain: Some("amazon.es".to_owned()),
        }
    }

    #[test]
    fn mopub_cleartext_round_trip() {
        let fields = rich_fields(Adx::MoPub, PricePayload::Cleartext(Cpm::from_f64(0.95)));
        let raw = render(&fields);
        let url = UrlRef::parse(&raw).unwrap();
        assert_eq!(url.host_raw(), "cpp.imp.mpx.mopub.com");
        assert_eq!(url.query_raw("charge_price"), Some("0.95"));
        assert_eq!(url.query_raw("bid_price"), Some("0.99"));
        assert_eq!(url.query_raw("size"), Some("300x250"));
        assert_eq!(reparse(&raw), Ok(Some(fields)));
    }

    #[test]
    fn doubleclick_encrypted_round_trip() {
        let token = sample_token(1);
        let mut fields = rich_fields(Adx::DoubleClick, PricePayload::Encrypted(token));
        // DoubleClick's template is metadata-poor: rendering drops the
        // rich fields, so the parse result won't echo them back.
        fields.bid_price = None;
        fields.slot = None;
        fields.publisher = None;
        fields.country = None;
        fields.latency_ms = None;
        fields.ad_domain = None;
        let raw = render(&fields);
        let price = UrlRef::parse(&raw).unwrap().query_raw("price").unwrap();
        assert_eq!(price.len(), 38, "base64url of 28 bytes");
        let parsed = reparse(&raw).unwrap().unwrap();
        assert_eq!(parsed, fields);
        assert_eq!(parsed.price.encrypted(), Some(&token));
    }

    #[test]
    fn mathtag_hex_token_round_trip() {
        let token = sample_token(2);
        let fields = NurlFields::minimal(
            Adx::MathTag,
            DspId(6),
            PricePayload::Encrypted(token),
            ImpressionId(1),
            AuctionId(2),
        );
        let raw = render(&fields);
        let price = UrlRef::parse(&raw).unwrap().query_raw("price").unwrap();
        assert_eq!(price.len(), 56, "hex of 28 bytes");
        assert!(price
            .bytes()
            .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit()));
        let parsed = reparse(&raw).unwrap().unwrap();
        assert_eq!(parsed.price.encrypted(), Some(&token));
    }

    #[test]
    fn every_adx_round_trips_both_visibilities() {
        for adx in Adx::ALL {
            for price in [
                PricePayload::Cleartext(Cpm::from_f64(1.25)),
                PricePayload::Encrypted(sample_token(3)),
            ] {
                let fields = NurlFields::minimal(
                    adx,
                    DspId(0),
                    price.clone(),
                    ImpressionId(10),
                    AuctionId(20),
                );
                let parsed = reparse(&render(&fields)).unwrap().unwrap();
                assert_eq!(parsed, fields, "round trip for {adx}");
            }
        }
    }

    #[test]
    fn non_nurl_traffic_is_none() {
        // An unknown host never reaches the parse: the screen stops it.
        assert_eq!(
            screen_adx("http://www.elpais.es/articles/page.html?id=5"),
            Err(FastReject::Host)
        );
        // Right host, wrong path: also not a notification.
        assert_eq!(
            reparse("http://cpp.imp.mpx.mopub.com/other/path?charge_price=1"),
            Ok(None)
        );
    }

    #[test]
    fn malformed_notifications_are_errors() {
        let base = "http://cpp.imp.mpx.mopub.com/imp";
        let missing_price = format!("{base}?imp={}", ImpressionId(1).wire());
        assert_eq!(
            reparse(&missing_price),
            Err(NurlRefError::Payload(NurlParseError::MissingPrice))
        );

        let bad_price = format!(
            "{base}?charge_price=notanumber&imp={}&auc={}&bidder=mediamath.com",
            ImpressionId(1).wire(),
            AuctionId(1).wire()
        );
        assert_eq!(
            reparse(&bad_price),
            Err(NurlRefError::Payload(NurlParseError::BadCleartextPrice))
        );

        let bad_imp = format!(
            "{base}?charge_price=1&imp=zzz&auc={}&bidder=mediamath.com",
            AuctionId(1).wire()
        );
        assert_eq!(
            reparse(&bad_imp),
            Err(NurlRefError::Payload(NurlParseError::BadId("imp")))
        );
    }

    #[test]
    fn bid_price_is_not_the_charge_price() {
        // §4.1: bidding prices co-existing in the nURL must be filtered out.
        let fields = rich_fields(Adx::MoPub, PricePayload::Cleartext(Cpm::from_f64(0.80)));
        let parsed = reparse(&render(&fields)).unwrap().unwrap();
        assert_eq!(parsed.price.cleartext(), Some(Cpm::from_f64(0.80)));
        assert_eq!(parsed.bid_price, Some(Cpm::from_f64(0.99)));
        assert_ne!(parsed.price.cleartext(), parsed.bid_price);
    }

    #[test]
    fn price_shape_decides_visibility() {
        // A cleartext house delivering an encrypted token (or the reverse)
        // must still be classified correctly: §2.4's Figure 2 is exactly
        // the drift of ADX-DSP pairs from one style to the other.
        let token = sample_token(5);
        let parsed = reparse(&with_price(Adx::MoPub, &token.to_wire()));
        assert_eq!(
            parsed.unwrap().unwrap().price,
            PricePayload::Encrypted(token)
        );
        let parsed = reparse(&with_price(Adx::DoubleClick, "1"));
        assert_eq!(
            parsed.unwrap().unwrap().price,
            PricePayload::Cleartext(Cpm::ONE)
        );
        // "12" is both valid hex and a valid decimal; decimal wins (real
        // cleartext prices are short decimals), on either house.
        for adx in [Adx::MoPub, Adx::MathTag] {
            let parsed = reparse(&with_price(adx, "12")).unwrap().unwrap();
            assert_eq!(parsed.price, PricePayload::Cleartext(Cpm::from_whole(12)));
        }
    }

    #[test]
    fn garbled_prices_are_payload_errors() {
        // Neither a decimal nor a token: a malformed token on a token
        // house, a malformed price on a cleartext one. 55 hex digits are
        // one short of a hex-coded token.
        for value in ["%%%", "abc", &"a".repeat(55)] {
            assert_eq!(
                reparse(&with_price(Adx::DoubleClick, value)),
                Err(NurlRefError::Payload(NurlParseError::BadToken)),
                "{value}"
            );
            assert_eq!(
                reparse(&with_price(Adx::MoPub, value)),
                Err(NurlRefError::Payload(NurlParseError::BadCleartextPrice)),
                "{value}"
            );
        }
    }

    #[test]
    fn splitmix_inverse_is_exact() {
        for id in [0u64, 1, 42, u64::MAX, 0xdead_beef_cafe_f00d] {
            let wire = AuctionId(id).wire();
            assert_eq!(wire_id(Some(&wire)), Some(id));
        }
        assert_eq!(wire_id(Some("nothex")), None);
        assert_eq!(wire_id(None), None);
    }

    proptest! {
        #[test]
        fn prop_round_trip_any_ids(
            adx_idx in 0usize..17,
            dsp in 0u32..200,
            imp: u64,
            auc: u64,
            micros in 1i64..100_000_000,
        ) {
            let fields = NurlFields::minimal(
                Adx::from_index(adx_idx),
                DspId(dsp),
                PricePayload::Cleartext(Cpm::from_micros(micros)),
                ImpressionId(imp),
                AuctionId(auc),
            );
            let reparsed = reparse(&render(&fields)).unwrap().unwrap();
            prop_assert_eq!(reparsed, fields);
        }
    }
}
