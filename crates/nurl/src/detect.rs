//! Observer-side nURL screening.
//!
//! The weblog analyzer and the YourAdValue client both sift raw request
//! URLs for winning-price notifications, and a notification is first of
//! all a request to an exchange's notification host. [`screen_adx`]
//! names that exchange on the raw string, before any parse;
//! [`exchange_host`] does the same for a host already parsed out of a
//! [`crate::UrlRef`]. Either hands the matched exchange to
//! [`crate::template::parse_borrowed_screened`], which checks the path
//! and reads the price.

use crate::urlref::{self, UrlParseError};
use yav_types::Adx;

/// Outcome of [`screen_adx`]'s cheap rejection of a raw URL string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastReject {
    /// No `http://`/`https://` prefix — [`crate::UrlRef::parse`] could
    /// never accept it.
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
/// [`crate::template::parse_borrowed_screened`] — true nURLs scan the
/// host roster once, not twice.
///
/// Runs [`crate::UrlRef::parse`]'s own scheme and host rule, so a
/// candidate's subsequent parse sees the same host and cannot fail on it.
pub fn screen_adx(raw: &str) -> Result<Adx, FastReject> {
    match urlref::split_host(raw) {
        Ok((_, host, _)) => exchange_host(host).ok_or(FastReject::Host),
        Err(UrlParseError::Scheme) => Err(FastReject::Scheme),
        // An invalid host is no exchange's: every exchange domain is a
        // valid one.
        Err(_) => Err(FastReject::Host),
    }
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
/// case). Exact-match only — subdomains of an exchange domain are *not*
/// notification hosts.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{NurlFields, PricePayload};
    use crate::template::{parse_borrowed_screened, render_into};
    use crate::{UrlRef, UrlScratch};
    use yav_types::{AuctionId, Cpm, DspId, ImpressionId};

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
        // the host lookup matches exactly, and so must the screen.
        assert_eq!(
            screen_adx("http://evil.rtb.openx.net/x"),
            Err(FastReject::Host)
        );
    }

    #[test]
    fn screen_agrees_with_the_notification_parse() {
        // The screen may only reject URLs the parse would also reject:
        // every rendered notification must survive it, naming the same
        // exchange.
        let mut raw = String::new();
        let mut scratch = UrlScratch::new();
        for adx in [Adx::MoPub, Adx::DoubleClick, Adx::Rubicon] {
            let fields = NurlFields::minimal(
                adx,
                DspId(2),
                PricePayload::Cleartext(Cpm::from_f64(0.31)),
                ImpressionId(9),
                AuctionId(9),
            );
            render_into(&fields.as_ref_fields(), &mut raw);
            assert_eq!(screen_adx(&raw), Ok(adx), "{raw}");
            let url = UrlRef::parse(&raw).unwrap();
            assert_eq!(exchange_host(url.host_raw()), Some(adx), "{raw}");
            let parsed = parse_borrowed_screened(adx, &url, &mut scratch).unwrap();
            assert_eq!(parsed.map(|f| f.adx), Some(adx), "{raw}");
        }
    }

    #[test]
    fn ignores_ordinary_traffic() {
        for s in [
            "http://www.elmundo.es/index.html",
            "https://cdn.example.com/lib.js?v=3",
        ] {
            assert_eq!(screen_adx(s), Err(FastReject::Host), "{s}");
        }
        // An exchange host on an ordinary path screens in; the parse then
        // calls it ordinary traffic.
        let s = "http://cpp.imp.mpx.mopub.com/robots.txt";
        let url = UrlRef::parse(s).unwrap();
        let mut scratch = UrlScratch::new();
        let parsed = parse_borrowed_screened(screen_adx(s).unwrap(), &url, &mut scratch);
        assert_eq!(parsed.map(|f| f.is_none()), Ok(true));
    }
}
