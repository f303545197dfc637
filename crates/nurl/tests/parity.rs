//! Borrowed ⇄ owned parser parity: `UrlRef` must agree with `Url` on
//! every input — same accepts, same rejects, same error values, same
//! components after decoding. The owned parser is a wrapper over the
//! borrowed one, but the decode split (eager in `Url::parse`, deferred
//! into `UrlScratch` / `validate_query`) re-implements the escape and
//! UTF-8 handling, so this suite fuzzes the seam: the hostile corpus of
//! `core/tests/malformed_nurls.rs` (prefix truncations, single-byte
//! corruptions, garbage strings) plus property-based random inputs.
//!
//! Because `Url::parse` wraps `UrlRef::parse`, parity cannot see a
//! change to the structural grammar itself. That grammar and the
//! raw-string screen are byte scans written for speed, so each is also
//! checked against an independent oracle on every input: the split-based
//! forms they replaced (`split_parse`, `split_screen`).

use proptest::prelude::*;
use yav_crypto::{PriceCrypter, PriceKeys};
use yav_nurl::fields::PricePayload;
use yav_nurl::{
    exchange_host, screen_adx, template, FastReject, NurlFields, NurlRefError, Url, UrlParseError,
    UrlRef, UrlScratch,
};
use yav_types::{AdSlotSize, Adx, AuctionId, CampaignId, Cpm, DspId, ImpressionId};

/// Two valid emissions per exchange and price visibility: the minimal
/// payload `core/tests/malformed_nurls.rs` mutates, and a rich one
/// carrying every optional field — bid price, campaign, slot size,
/// latency and free-form publisher/country/ad-domain text, the
/// publisher with bytes that must percent-encode. Only rich-metadata
/// templates emit the optional block, so the rich seeds reach the
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
            out.push(yav_nurl::emit(&minimal).to_string());
            out.push(yav_nurl::emit(&rich).to_string());
        }
    }
    out
}

/// The full parity check for one input string.
fn check_parity(input: &str) {
    let owned = Url::parse(input);
    let borrowed = UrlRef::parse(input);
    let mut scratch = UrlScratch::new();
    match borrowed {
        Err(err) => {
            // Structural reject: the owned parser must reject with the
            // identical error.
            assert_eq!(owned, Err(err), "structural reject mismatch: {input:?}");
        }
        Ok(url) => {
            // Deferred-decode outcomes must agree with the eager ones:
            // validate, scratch-decode and owned parse all see the same
            // first error (or all succeed).
            let validated = url.validate_query();
            let decoded = scratch.decode(&url);
            match owned {
                Err(err) => {
                    assert!(
                        matches!(err, UrlParseError::Escape(_)),
                        "owned structural error {err:?} after borrowed accept: {input:?}"
                    );
                    assert_eq!(validated, Err(err.clone()), "validate mismatch: {input:?}");
                    assert_eq!(
                        decoded.map(|_| ()),
                        Err(err),
                        "scratch decode mismatch: {input:?}"
                    );
                }
                Ok(owned) => {
                    assert_eq!(
                        validated,
                        Ok(()),
                        "validate rejected a decodable: {input:?}"
                    );
                    let pairs = match decoded {
                        Ok(pairs) => pairs,
                        Err(err) => panic!("scratch rejected a decodable: {input:?}: {err}"),
                    };
                    assert_eq!(owned.is_https(), url.is_https(), "{input:?}");
                    assert_eq!(
                        owned.host(),
                        url.host_raw().to_ascii_lowercase(),
                        "{input:?}"
                    );
                    assert_eq!(owned.path(), url.path(), "{input:?}");
                    let borrowed_pairs: Vec<(String, String)> = pairs
                        .iter()
                        .map(|(k, v)| (k.to_owned(), v.to_owned()))
                        .collect();
                    let owned_pairs: Vec<(String, String)> = owned.query_pairs().to_vec();
                    assert_eq!(owned_pairs, borrowed_pairs, "{input:?}");
                    // Keyed lookup agrees for every present key.
                    for (k, _) in owned.query_pairs() {
                        assert_eq!(owned.query(k), pairs.get(k), "key {k:?} in {input:?}");
                    }
                }
            }
        }
    }
}

/// The hot paths' notification parse: exchange lookup on the borrowed
/// host, then the screened borrowed parse, materialised for comparison.
fn borrowed_parse(
    url: &UrlRef<'_>,
    scratch: &mut UrlScratch,
) -> Result<Option<NurlFields>, NurlRefError> {
    let Some(adx) = exchange_host(url.host_raw()) else {
        return Ok(None);
    };
    template::parse_borrowed_screened(adx, url, scratch).map(|f| f.map(|f| f.to_owned_fields()))
}

/// Template parity: wherever both URL parsers accept, the owned
/// `template::parse(&Url)` must equal `exchange_host` followed by
/// `parse_borrowed_screened(..).to_owned_fields()` — same fields, same
/// ordinary-traffic verdict, same payload error — and the raw-string
/// screen must name the same exchange the parsed host does.
fn check_template_parity(input: &str) {
    let mut scratch = UrlScratch::new();
    let borrowed = UrlRef::parse(input)
        .ok()
        .filter(|u| u.validate_query().is_ok());
    let owned = Url::parse(input).ok();
    // Accept sets agree (check_parity pins the error details).
    assert_eq!(owned.is_some(), borrowed.is_some(), "{input:?}");
    let (Some(owned), Some(url)) = (owned, borrowed) else {
        return;
    };
    assert_eq!(
        screen_adx(input).ok(),
        exchange_host(url.host_raw()),
        "screen verdict mismatch: {input:?}"
    );
    // The query validated, so the borrowed decode cannot fail: its only
    // errors are payload errors, which must be the owned parser's.
    let want = template::parse(&owned).map_err(NurlRefError::Payload);
    assert_eq!(
        borrowed_parse(&url, &mut scratch),
        want,
        "template verdict mismatch: {input:?}"
    );
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

/// The byte scans against their oracles: same accepts, same error
/// values, same subslices; same screen verdict.
fn check_oracles(input: &str) {
    let parsed =
        UrlRef::parse(input).map(|u| (u.is_https(), u.host_raw(), u.path(), u.query_str()));
    assert_eq!(parsed, split_parse(input), "structural parse: {input:?}");
    assert_eq!(screen_adx(input), split_screen(input), "screen: {input:?}");
}

fn check_both(input: &str) {
    check_oracles(input);
    check_parity(input);
    check_template_parity(input);
}

#[test]
fn emissions_and_prefix_truncations_agree() {
    for url in valid_emissions() {
        for len in 0..=url.len() {
            check_both(&url[..len]);
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
                check_both(&String::from_utf8(mutated).expect("ASCII stays UTF-8"));
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
        "http://x.com/?a=1&&b=2&",
        "http://x.com/?=bare&flag",
        "http://X.COM:8080/Mixed/Case?K=V#frag?ghost=1",
        &long,
    ] {
        check_both(input);
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
            check_both(input);
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
        check_both(input);
    }
}

proptest! {
    /// Random printable inputs, biased toward URL-shaped strings.
    #[test]
    fn prop_random_strings_agree(s in "\\PC{0,60}") {
        check_both(&s);
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
        check_both(&if fragment_first {
            format!("{scheme}://{host}{port}/{path}{fragment}?{query}")
        } else {
            format!("{scheme}://{host}{port}/{path}?{query}{fragment}")
        });
    }
}
