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
/// The screen does not look for the end of the host. After the scheme
/// it reads two bytes and compares only the exchange domains that start
/// with them: a URL is admitted when it continues with a domain, ASCII
/// case-insensitively, and then ends its authority (the input ends, or
/// `/`, `:`, `?` or `#` follows). Every domain is at least two host
/// bytes and those four are not host bytes, so that holds exactly when
/// [`crate::UrlRef::parse`]'s host is that domain: a candidate's parse
/// sees the same host and cannot fail on it.
pub fn screen_adx(raw: &str) -> Result<Adx, FastReject> {
    let rest = if let Some(r) = raw.strip_prefix("https://") {
        r
    } else if let Some(r) = raw.strip_prefix("http://") {
        r
    } else {
        return Err(FastReject::Scheme);
    };
    let b = rest.as_bytes();
    dispatch(b, |len| {
        matches!(b.get(len), None | Some(b'/' | b':' | b'?' | b'#'))
    })
    .ok_or(FastReject::Host)
}

/// The exchange whose notification domain equals `host`, matched
/// case-insensitively (raw hosts from [`crate::UrlRef`] keep their original
/// case). Exact-match only — subdomains of an exchange domain are *not*
/// notification hosts.
///
/// The analyzer asks this of every advertising host; the same two-byte
/// dispatch as [`screen_adx`]'s, with an exact-length check, keeps it to
/// two table loads for most of them.
pub fn exchange_host(host: &str) -> Option<Adx> {
    dispatch(host.as_bytes(), |len| host.len() == len)
}

/// The exchange whose domain `bytes` starts with, ASCII
/// case-insensitively, when `ends` accepts the domain's length. Only the
/// domains whose first two bytes match `bytes`' first two are compared.
/// The domains are distinct runs of host bytes, and both callers' `ends`
/// rejects a host byte after a domain, so at most one domain can match.
fn dispatch(bytes: &[u8], ends: impl Fn(usize) -> bool) -> Option<Adx> {
    let (&b0, &b1) = (bytes.first()?, bytes.get(1)?);
    let mut candidates = FIRST[b0 as usize] & SECOND[b1 as usize];
    while candidates != 0 {
        let i = candidates.trailing_zeros() as usize;
        candidates &= candidates - 1;
        let domain = HOST_TABLE[i].as_bytes();
        if ends(domain.len())
            && bytes
                .get(..domain.len())
                .is_some_and(|head| head.eq_ignore_ascii_case(domain))
        {
            return Some(Adx::ALL[i]);
        }
    }
    None
}

/// The exchange notification domains in `Adx::ALL` order, computed at
/// compile time so the table cannot drift from the enum. Bit `i` of a
/// [`FIRST`] or [`SECOND`] mask stands for `HOST_TABLE[i]`.
const HOST_TABLE: [&str; Adx::ALL.len()] = {
    let mut table = [""; Adx::ALL.len()];
    let mut i = 0;
    while i < table.len() {
        table[i] = Adx::ALL[i].domain();
        i += 1;
    }
    table
};

/// Bit `i` is set at both ASCII cases of byte `at` of `HOST_TABLE[i]`.
const fn byte_table(at: usize) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < HOST_TABLE.len() {
        let b = HOST_TABLE[i].as_bytes()[at];
        table[b.to_ascii_lowercase() as usize] |= 1 << i;
        table[b.to_ascii_uppercase() as usize] |= 1 << i;
        i += 1;
    }
    table
}

/// Exchanges by the first and by the second byte of their domain. A
/// domain shorter than two bytes, or a roster past 32 exchanges (`1 <<
/// i` overflows), fails to compile.
const FIRST: [u32; 256] = byte_table(0);
const SECOND: [u32; 256] = byte_table(1);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{NurlFields, PricePayload};
    use crate::template::{parse_borrowed_screened, render_into};
    use crate::{UrlRef, UrlScratch};
    use yav_types::{AuctionId, Cpm, DspId, ImpressionId};

    #[test]
    fn roster_meets_the_screens_premises() {
        // `screen_adx` is exact only while every domain is at least two
        // lowercase host bytes (so "the input continues with the domain,
        // then ends its authority" is "the host is the domain") and no
        // two exchanges share a domain (so at most one candidate
        // matches).
        let host_byte = |b: u8| b.is_ascii_lowercase() || b.is_ascii_digit() || b".-_".contains(&b);
        for domain in HOST_TABLE {
            assert!(domain.len() >= 2, "{domain:?} is shorter than two bytes");
            assert!(
                domain.bytes().all(host_byte),
                "{domain:?} is not lowercase host bytes"
            );
        }
        let distinct: std::collections::BTreeSet<&str> = HOST_TABLE.into_iter().collect();
        assert_eq!(distinct.len(), HOST_TABLE.len(), "a domain is listed twice");
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
