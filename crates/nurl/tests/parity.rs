//! The borrowed URL layer and the exchange screen against independent
//! oracles. Every production answer is a byte scan written for speed;
//! each is checked against a slower form that shares no code with it:
//!
//! * structure — `UrlRef::parse` and `screen_adx` against the split-based
//!   forms they replaced (`split_parse`, `split_screen`);
//! * decoding — `validate_query`, `UrlScratch::decode` (pairs and first
//!   error), `decoded_len` of every raw component and `query_raw` of
//!   every decoded key against `percent_decode`, an eager decoder run
//!   over pairs split with `str::split`;
//! * the host lookup — `exchange_host` and `screen_adx` against a linear
//!   case-insensitive scan of `Adx::ALL` (`roster_scan`).
//!
//! The inputs are the hostile corpus of `core/tests/malformed_nurls.rs`
//! (prefix truncations, single-byte corruptions, garbage strings),
//! authority and fragment edge cases, the edges of the screen's
//! two-byte dispatch (short hosts, every domain in flipped case and
//! followed by each byte that does or does not end an authority, hosts
//! sharing a domain's first two bytes), and property-based random
//! inputs. The notification parse runs on every input the screen admits
//! and must report the decode oracle's error, if any.

use proptest::prelude::*;
use yav_crypto::{PriceCrypter, PriceKeys};
use yav_nurl::fields::PricePayload;
use yav_nurl::urlref::decoded_len;
use yav_nurl::{
    exchange_host, screen_adx, template, FastReject, NurlFields, NurlRefError, UrlParseError,
    UrlRef, UrlScratch,
};
use yav_types::{AdSlotSize, Adx, AuctionId, CampaignId, Cpm, DspId, ImpressionId};

/// Two valid renderings per exchange and price visibility: the minimal
/// payload `core/tests/malformed_nurls.rs` mutates, and a rich one
/// carrying every optional field — bid price, campaign, slot size,
/// latency and free-form publisher/country/ad-domain text, the
/// publisher with bytes that must percent-encode. Only rich-metadata
/// templates render the optional block, so the rich seeds reach the
/// metadata fields on those exchanges and the id/price core on the rest.
fn valid_emissions() -> Vec<String> {
    let crypter = PriceCrypter::new(PriceKeys::derive("malformed-nurls"));
    let mut out = Vec::new();
    for (i, &adx) in Adx::ALL.iter().enumerate() {
        let clear = PricePayload::Cleartext(Cpm::from_f64(0.25 + i as f64 / 100.0));
        let token = crypter.encrypt(1_000_000 + i as u64, [i as u8; 16]);
        let enc = PricePayload::Encrypted(token);
        for price in [clear, enc] {
            let minimal = NurlFields::minimal(
                adx,
                DspId(i as u32),
                price,
                ImpressionId(i as u64),
                AuctionId(i as u64 + 1000),
            );
            let rich = NurlFields {
                bid_price: Some(Cpm::from_f64(0.99)),
                campaign: Some(CampaignId(9 + i as u32)),
                slot: Some(AdSlotSize::S300x250),
                publisher: Some("el país/ñ & co".to_owned()),
                country: Some("ES".to_owned()),
                latency_ms: Some(116 + i as u32),
                ad_domain: Some("amazon.es".to_owned()),
                ..minimal.clone()
            };
            for fields in [minimal, rich] {
                let mut url = String::new();
                template::render_into(&fields.as_ref_fields(), &mut url);
                out.push(url);
            }
        }
    }
    out
}

/// The structural grammar written with splits: the authority runs to the
/// first `/`, `?` or `#` (RFC 3986), the host to the first `:` and must
/// be non-empty host bytes; the fragment is cut at the first `#`, then
/// the query split off at the first `?`, and an empty path is `/`.
/// Returns `(https, host, path, query)`.
fn split_parse(input: &str) -> Result<(bool, &str, &str, &str), UrlParseError> {
    let (https, rest) = if let Some(r) = input.strip_prefix("https://") {
        (true, r)
    } else if let Some(r) = input.strip_prefix("http://") {
        (false, r)
    } else {
        return Err(UrlParseError::Scheme);
    };
    let (authority, path_query) = match rest.find(['/', '?', '#']) {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, ""),
    };
    let host = authority.split(':').next().unwrap_or("");
    let host_byte = |b: u8| b.is_ascii_alphanumeric() || b == b'.' || b == b'-' || b == b'_';
    if host.is_empty() || !host.bytes().all(host_byte) {
        return Err(UrlParseError::Host);
    }
    let path_query = match path_query.find('#') {
        Some(i) => &path_query[..i],
        None => path_query,
    };
    let (path, query) = match path_query.find('?') {
        Some(i) => (&path_query[..i], &path_query[i + 1..]),
        None => (path_query, ""),
    };
    let path = if path.is_empty() { "/" } else { path };
    Ok((https, host, path, query))
}

/// `screen_adx` written with `Split` iterators: the authority runs to the
/// first `/`, `?` or `#`, the host to the first `:`.
fn split_screen(raw: &str) -> Result<Adx, FastReject> {
    let rest = if let Some(r) = raw.strip_prefix("https://") {
        r
    } else if let Some(r) = raw.strip_prefix("http://") {
        r
    } else {
        return Err(FastReject::Scheme);
    };
    let authority = rest.split(['/', '?', '#']).next().unwrap_or(rest);
    let host = authority.split(':').next().unwrap_or("");
    exchange_host(host).ok_or(FastReject::Host)
}

/// Percent-decodes a query component eagerly into a new string: `%XX`
/// hex pairs, `+` to space (the `application/x-www-form-urlencoded`
/// convention real trackers use), everything else verbatim. A bad escape
/// reports its raw position; invalid UTF-8 reports `valid_up_to` of the
/// decoded bytes.
fn percent_decode(s: &str) -> Result<String, UrlParseError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                if i + 2 > bytes.len() {
                    return Err(UrlParseError::Escape(i));
                }
                let hi = bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16));
                let lo = bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16));
                match (hi, lo) {
                    (Some(h), Some(l)) => {
                        out.push(((h << 4) | l) as u8);
                        i += 3;
                    }
                    _ => return Err(UrlParseError::Escape(i)),
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|e| UrlParseError::Escape(e.utf8_error().valid_up_to()))
}

/// The query's raw pairs, split with `str::split`: on `&`, empty
/// components skipped, each pair at its first `=`.
fn split_pairs(query: &str) -> Vec<(&str, &str)> {
    query
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| pair.split_once('=').unwrap_or((pair, "")))
        .collect()
}

/// The exchange whose notification domain is `host`, by a linear scan of
/// the roster over the lowercased host.
fn roster_scan(host: &str) -> Option<Adx> {
    let host = host.to_ascii_lowercase();
    Adx::ALL.into_iter().find(|adx| adx.domain() == host)
}

/// Every production answer for one input against its oracle.
fn check(input: &str) {
    // Structure.
    let structure = split_parse(input);
    let parsed = UrlRef::parse(input);
    assert_eq!(
        parsed
            .as_ref()
            .map(|u| (u.is_https(), u.host_raw(), u.path(), u.query_str()))
            .map_err(Clone::clone),
        structure,
        "structural parse: {input:?}"
    );
    assert_eq!(screen_adx(input), split_screen(input), "screen: {input:?}");

    // Host lookup.
    let owner = structure.ok().and_then(|(_, host, _, _)| roster_scan(host));
    assert_eq!(screen_adx(input).ok(), owner, "screen vs roster: {input:?}");
    let Ok(url) = parsed else {
        return;
    };
    assert_eq!(exchange_host(url.host_raw()), owner, "host: {input:?}");

    // Decoding: pairs in order, key before value, the first error wins.
    let raw_pairs = split_pairs(url.query_str());
    let want: Result<Vec<(String, String)>, UrlParseError> = raw_pairs
        .iter()
        .map(|(k, v)| Ok((percent_decode(k)?, percent_decode(v)?)))
        .collect();
    let want_verdict = want.as_ref().map(|_| ()).map_err(Clone::clone);
    assert_eq!(url.validate_query(), want_verdict, "validate: {input:?}");
    let mut scratch = UrlScratch::new();
    match (scratch.decode(&url), &want) {
        (Ok(pairs), Ok(want)) => {
            let got: Vec<(String, String)> = pairs
                .iter()
                .map(|(k, v)| (k.to_owned(), v.to_owned()))
                .collect();
            assert_eq!(&got, want, "decoded pairs: {input:?}");
            for (k, _) in want {
                let first = want.iter().find(|(wk, _)| wk == k).map(|(_, v)| v.as_str());
                assert_eq!(pairs.get(k), first, "key {k:?} in {input:?}");
            }
        }
        (got, _) => assert_eq!(got.map(|_| ()), want_verdict, "decode: {input:?}"),
    }

    // Component lengths and keyed raw lookup.
    let keys: Vec<Result<String, UrlParseError>> =
        raw_pairs.iter().map(|(k, _)| percent_decode(k)).collect();
    for (i, &(k, v)) in raw_pairs.iter().enumerate() {
        for raw in [k, v] {
            match percent_decode(raw) {
                Ok(decoded) => assert_eq!(decoded_len(raw), decoded.len(), "{raw:?} in {input:?}"),
                // Undecodable components only need a total answer.
                Err(_) => assert!(decoded_len(raw) <= raw.len(), "{raw:?} in {input:?}"),
            }
        }
        if let Ok(key) = &keys[i] {
            let first = keys.iter().position(|other| other.as_ref() == Ok(key));
            let want_raw = first.map(|j| raw_pairs[j].1);
            assert_eq!(url.query_raw(key), want_raw, "key {key:?} in {input:?}");
        }
    }

    // The notification parse, wherever the screen admits the input.
    if let Some(adx) = owner {
        let verdict = template::parse_borrowed_screened(adx, &url, &mut scratch).map(|_| ());
        match want_verdict {
            Err(err) => assert_eq!(verdict, Err(NurlRefError::Url(err)), "{input:?}"),
            Ok(()) => assert!(
                !matches!(verdict, Err(NurlRefError::Url(_))),
                "parse failed to decode a decodable query: {input:?}"
            ),
        }
    }
}

#[test]
fn every_exchange_domain_resolves() {
    // Each roster domain in both cases, and the near misses around it:
    // one byte more at either end, one byte short, a subdomain.
    for adx in Adx::ALL {
        let domain = adx.domain();
        assert_eq!(exchange_host(domain), Some(adx), "{domain}");
        for host in [
            domain.to_owned(),
            domain.to_ascii_uppercase(),
            format!("x{domain}"),
            format!("{domain}x"),
            domain[..domain.len() - 1].to_owned(),
            format!("a.{domain}"),
        ] {
            check(&format!("http://{host}/p"));
            check(&format!("https://{host}:8080"));
        }
    }
    assert_eq!(exchange_host("example.com"), None);
}

/// Flips the ASCII case of byte `at` of `s` (a no-op on digits and
/// punctuation).
fn flip_case(s: &str, at: usize) -> String {
    let mut bytes = s.as_bytes().to_vec();
    let b = bytes[at];
    bytes[at] = if b.is_ascii_lowercase() {
        b.to_ascii_uppercase()
    } else {
        b.to_ascii_lowercase()
    };
    String::from_utf8(bytes).expect("ASCII case flips stay UTF-8")
}

#[test]
fn two_byte_dispatch_edges_agree() {
    // The screen reads two bytes after the scheme, compares only the
    // domains starting with them, then checks the byte after the domain.
    // Each host below sits at one edge of that dispatch, and runs behind
    // both schemes with each tail (`http://c`, `http://cp/`,
    // `https://CP:1`, …).
    let mut hosts: Vec<String> = ["", "c", "C", "cp", "CP", "b", "be", "ta", "ad", "AD"]
        .map(String::from)
        .to_vec();
    for adx in Adx::ALL {
        let domain = adx.domain();
        // The first or the second byte in the other case, and both.
        hosts.extend([
            flip_case(domain, 0),
            flip_case(domain, 1),
            flip_case(&flip_case(domain, 0), 1),
        ]);
        // Hosts sharing the domain's first two bytes: the pair alone, a
        // tracker-like host, the domain cut one byte short, and the pair
        // in front of every other domain's tail.
        let pair = &domain[..2];
        hosts.extend([
            pair.to_owned(),
            format!("{pair}acon.tracker.example"),
            domain[..domain.len() - 1].to_owned(),
        ]);
        for other in Adx::ALL {
            hosts.push(format!("{pair}{}", &other.domain()[2..]));
        }
    }
    hosts.extend(
        [
            "beacon.adsight.example",
            "tagrouter.example",
            "tags.mathtag.co",
            "beacon-eu2.rubiconproject.co",
            "ads.smaato.net.example",
            "api.example",
        ]
        .map(String::from),
    );
    for host in &hosts {
        assert_eq!(exchange_host(host), roster_scan(host), "host {host:?}");
        for scheme in ["http://", "https://"] {
            for tail in ["", "/", "/x", ":1", "?a=1", "#f"] {
                check(&format!("{scheme}{host}{tail}"));
            }
        }
    }

    // Every domain followed by each byte that ends its authority, and by
    // bytes that do not: a host byte, `@`, NUL and a non-ASCII byte.
    for adx in Adx::ALL {
        let domain = adx.domain();
        for next in ["", "/", ":", "?", "#", "@", ".", "-", "\0", "é", "x"] {
            let host = format!("{domain}{next}");
            assert_eq!(exchange_host(&host), roster_scan(&host), "host {host:?}");
            for case in [domain.to_owned(), domain.to_ascii_uppercase()] {
                check(&format!("http://{case}{next}"));
                check(&format!("https://{case}{next}imp?charge_price=0.5"));
            }
        }
    }
}

#[test]
fn emissions_and_prefix_truncations_agree() {
    for url in valid_emissions() {
        for len in 0..=url.len() {
            check(&url[..len]);
        }
    }
}

#[test]
fn single_byte_corruptions_agree() {
    for url in valid_emissions() {
        let bytes = url.as_bytes();
        for pos in 0..bytes.len() {
            for garbage in [b'%', b'?', b'=', b'&', b' ', b'\0', b'~'] {
                if bytes[pos] == garbage {
                    continue;
                }
                let mut mutated = bytes.to_vec();
                mutated[pos] = garbage;
                check(&String::from_utf8(mutated).expect("ASCII stays UTF-8"));
            }
        }
    }
}

#[test]
fn garbage_corpus_agrees() {
    let long = format!(
        "http://cpp.imp.mpx.mopub.com/imp?charge_price=0.5&pad={}",
        "x".repeat(1 << 16)
    );
    for input in [
        "",
        " ",
        "http://",
        "https://",
        "http:///",
        "http://:80/",
        "http://cpp.imp.mpx.mopub.com",
        "http://cpp.imp.mpx.mopub.com/imp?",
        "http://cpp.imp.mpx.mopub.com/imp?%",
        "http://cpp.imp.mpx.mopub.com/imp?%zz=1",
        "http://cpp.imp.mpx.mopub.com/imp?charge_price=",
        "http://cpp.imp.mpx.mopub.com/imp?charge_price=%GG",
        "http://cpp.imp.mpx.mopub.com/imp?charge_price=NaN",
        "http://cpp.imp.mpx.mopub.com/imp?charge_price=-1e309",
        "http://cpp.imp.mpx.mopub.com/imp?currency=USD",
        "http://cpp.imp.mpx.mopub.com/robots.txt",
        "http://CPP.IMP.MPX.MOPUB.COM:8080/imp?charge_price=0.5",
        "ftp://cpp.imp.mpx.mopub.com/imp?charge_price=0.5",
        "not a url at all",
        "héllo wörld 🦀",
        "%%%%%%%%",
        "\0\0\0",
        // Decode-layer hostiles: escape truncation, non-hex, raw
        // non-UTF-8 decodes, multi-byte boundary cases, plus-as-space.
        "http://x.com/?a=%80",
        "http://x.com/?a=%f0%9f%a6%80",
        "http://x.com/?a=%f0%9f%a6",
        "http://x.com/?a=ok%ffx",
        "http://x.com/?%2b=+&%3d==",
        "http://x.com/?q+r=1&q r=2",
        "http://x.com/?a=1&&b=2&",
        "http://x.com/?=bare&flag",
        "http://X.COM:8080/Mixed/Case?K=V#frag?ghost=1",
        &long,
    ] {
        check(input);
    }
}

#[test]
fn authority_and_fragment_edges_agree() {
    // Each shape on an exchange notification host (so the screen admits
    // it and the template parse runs) and on an ordinary one.
    for host in ["cpp.imp.mpx.mopub.com", "www.elmundo.es"] {
        let mut inputs = Vec::new();
        for tail in [
            // Ports: numeric, bare, empty before the path, junk, a second
            // colon, and a port that ends the input.
            ":8080/imp?charge_price=0.5",
            ":/imp?charge_price=0.5",
            ":",
            ":8080",
            ":x@y/imp",
            "::1/imp?charge_price=0.5",
            ":80#frag",
            ":80?charge_price=0.5",
            // A `/` after the authority's end is query or fragment text,
            // not the path.
            ":80?charge_price=0.5&a=/imp",
            ":80#/imp?charge_price=0.5",
            // `#` before `?`: the query is fragment text.
            "/imp#frag?charge_price=0.5",
            "#?charge_price=0.5",
            "/imp#",
            // `?` inside a fragment after a real query.
            "/imp?charge_price=0.5#x?charge_price=9",
            "/imp?charge_price=0.5#",
            "?charge_price=0.5",
            "?",
            "#",
            "",
            "/",
            // Bytes that end the host but are not `/`, `:` or the end.
            "@evil.example/imp?charge_price=0.5",
            " /imp",
            "\t/imp",
            "\0/imp",
            "é/imp",
            "\u{7f}/imp",
            "%2e/imp",
            "\\imp",
        ] {
            inputs.push(format!("http://{host}{tail}"));
            inputs.push(format!("https://{}{tail}", host.to_ascii_uppercase()));
        }
        // The same bytes inside the host, and at its start.
        for bad in ["@", " ", "\t", "\0", "é", "#", "?"] {
            inputs.push(format!("http://{bad}{host}/imp?charge_price=0.5"));
            inputs.push(format!("http://cpp{bad}{host}/imp?charge_price=0.5"));
        }
        for input in &inputs {
            check(input);
        }
    }
    // Empty hosts, with and without a port or path.
    for input in [
        "http://",
        "http://:8080/",
        "http://:",
        "http:///",
        "http://?a=1",
        "http://#",
    ] {
        check(input);
    }
}

proptest! {
    /// Random printable inputs, biased toward URL-shaped strings.
    #[test]
    fn prop_random_strings_agree(s in "\\PC{0,60}") {
        check(&s);
    }

    /// URL-shaped inputs with adversarial ports, query bytes and
    /// fragments, the fragment sometimes before the query.
    #[test]
    fn prop_urlish_inputs_agree(
        https in any::<bool>(),
        host in "[A-Za-z0-9._-]{0,12}",
        port in "[:]?[0-9:]{0,5}",
        path in "[/A-Za-z0-9._%+-]{0,16}",
        query in "[A-Za-z0-9=&%+ ._-]{0,40}",
        fragment in "[#]?[A-Za-z0-9?#=&/]{0,10}",
        fragment_first in any::<bool>(),
    ) {
        let scheme = if https { "https" } else { "http" };
        check(&if fragment_first {
            format!("{scheme}://{host}{port}/{path}{fragment}?{query}")
        } else {
            format!("{scheme}://{host}{port}/{path}?{query}{fragment}")
        });
    }
}
