//! Failure injection: the measurement pipeline faces traffic it did not
//! generate — corrupted notifications, truncated tokens, hostile query
//! strings, absurd user agents. Nothing may panic; malformed
//! notifications must be counted, not silently swallowed as ordinary
//! traffic.

use your_ad_value::analyzer::WeblogAnalyzer;
use your_ad_value::nurl::{screen_adx, template, NurlParseError, NurlRefError, UrlRef, UrlScratch};
use your_ad_value::prelude::*;
use your_ad_value::types::{AuctionId, DspId, ImpressionId};
use your_ad_value::weblog::HttpRequest;

fn req(url: &str) -> HttpRequest {
    HttpRequest {
        time: SimTime::from_ymd_hm(2015, 6, 1, 12, 0),
        user: UserId(1),
        url: url.to_owned(),
        client_ip: 0x0A28_0001, // 10.40.0.1 => Madrid pool
        user_agent: "Mozilla/5.0 (Linux; Android 5.1) Chrome/43.0 Mobile".into(),
        bytes: 100,
        duration_ms: 10,
    }
}

/// A well-formed notification to corrupt.
fn good_nurl() -> String {
    let fields = your_ad_value::nurl::NurlFields::minimal(
        Adx::MoPub,
        DspId(1),
        your_ad_value::nurl::PricePayload::Cleartext(Cpm::from_f64(0.5)),
        ImpressionId(9),
        AuctionId(9),
    );
    let mut url = String::new();
    template::render_into(&fields.as_ref_fields(), &mut url);
    url
}

#[test]
fn corrupted_notifications_are_counted_not_crashed() {
    let good = good_nurl();
    let corruptions = [
        good.replace("0.5", "NaN"),
        good.replace("0.5", ""),
        good.replace("0.5", "1e99999"),
        // Mangle the impression id.
        {
            let imp = UrlRef::parse(&good).unwrap().query_raw("imp").unwrap();
            good.replace(imp, "zz")
        },
    ];
    let mut analyzer = WeblogAnalyzer::new();
    for c in &corruptions {
        assert!(
            analyzer.ingest(&req(c)).is_none(),
            "corrupted nURL must not detect: {c}"
        );
    }
    let report = analyzer.finish();
    assert!(
        report.malformed_nurls >= 3,
        "malformed notifications must be accounted: {}",
        report.malformed_nurls
    );
    assert!(report.detections.is_empty());
}

#[test]
fn hostile_urls_never_panic() {
    let mut analyzer = WeblogAnalyzer::new();
    let mut yav = YourAdValue::new(None);
    let hostiles = [
        "",
        "http://",
        "http:///",
        "not a url",
        "javascript:alert(1)",
        "http://cpp.imp.mpx.mopub.com/imp?%%%%%",
        "http://cpp.imp.mpx.mopub.com/imp?charge_price=%ff%fe",
        &format!("http://cpp.imp.mpx.mopub.com/imp?{}", "a=1&".repeat(5000)),
        &format!("http://x.example/{}", "z".repeat(100_000)),
        "http://tags.mathtag.com/notify/js?price=QUJDREVGR0g", // short token
        "http://tags.mathtag.com/notify/js?price=AAAA====",    // bad padding form
    ];
    for h in &hostiles {
        analyzer.ingest(&req(h)); // must not panic
        yav.observe(&req(h)); // must not panic
    }
    assert!(yav.ledger().is_empty());
}

#[test]
fn truncated_tokens_classify_as_garbled() {
    // A cut token is neither a price nor a token: a malformed token on a
    // token house, a malformed price on a cleartext one.
    use your_ad_value::crypto::{PriceCrypter, PriceKeys};
    let token = PriceCrypter::new(PriceKeys::derive("x")).encrypt(1_000_000, [3u8; 16]);
    let wire = token.to_wire();
    let mut scratch = UrlScratch::new();
    for cut in [1, 10, 37] {
        for (base, want) in [
            (
                "http://googleads.g.doubleclick.net/pagead/adview",
                NurlParseError::BadToken,
            ),
            (
                "http://cpp.imp.mpx.mopub.com/imp",
                NurlParseError::BadCleartextPrice,
            ),
        ] {
            let adx = screen_adx(base).unwrap();
            let param = template::price_param(adx);
            let raw = format!(
                "{base}?imp={}&auc={}&bidder={}&{param}={}",
                ImpressionId(1).wire(),
                AuctionId(2).wire(),
                DspId(0).domain(),
                &wire[..cut]
            );
            let url = UrlRef::parse(&raw).unwrap();
            let parsed = template::parse_borrowed_screened(adx, &url, &mut scratch);
            assert_eq!(
                parsed.map(|f| f.is_some()),
                Err(NurlRefError::Payload(want)),
                "token cut at {cut}: {raw}"
            );
        }
    }
}

#[test]
fn absurd_user_agents_fall_back() {
    use your_ad_value::analyzer::parse_user_agent;
    for ua in ["", "🦀🦀🦀", &"x".repeat(10_000), "\0\0\0", "Mozilla"] {
        let fp = parse_user_agent(ua);
        // Any answer is fine; it must be total and mobile-web-ish.
        assert_eq!(
            fp.interaction,
            your_ad_value::types::InteractionType::MobileWeb
        );
    }
}

#[test]
fn analyzer_is_total_over_mutated_real_traffic() {
    // Take genuine traffic and byte-flip the URLs; the pipeline must
    // survive every mutation.
    let generator = WeblogGenerator::new(your_ad_value::weblog::WeblogConfig::tiny());
    let log = generator.collect(&MarketConfig::default());
    let mut analyzer = WeblogAnalyzer::new();
    for (i, r) in log.requests.iter().take(2000).enumerate() {
        let mut mutated = r.clone();
        let mut bytes = mutated.url.clone().into_bytes();
        if !bytes.is_empty() {
            let pos = (i * 31) % bytes.len();
            bytes[pos] = bytes[pos].wrapping_add(13);
        }
        mutated.url = String::from_utf8_lossy(&bytes).into_owned();
        analyzer.ingest(&mutated); // must not panic
    }
    let report = analyzer.finish();
    assert!(report.total_requests >= 2000);
}
