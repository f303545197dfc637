//! Hostile-input regression suite for the nURL sift's consumers.
//!
//! The paper's client (§6) runs against whatever the network hands it:
//! truncated responses, middlebox-mangled URLs, plain garbage. The
//! monitor must never panic on such input, and every fed URL must land
//! in exactly one accounting bucket — a stored event, an unvalued
//! encrypted sighting, or a counted drop. The multi-tenant store and
//! the analyzer's two ingest entry points see the same corpus and must
//! agree with the monitor and with each other.

use yav_analyzer::WeblogAnalyzer;
use yav_core::{TenantStore, YourAdValue};
use yav_crypto::{PriceCrypter, PriceKeys};
use yav_nurl::fields::PricePayload;
use yav_nurl::NurlFields;
use yav_types::{Adx, AuctionId, Cpm, DspId, ImpressionId, SimTime};
use yav_weblog::HttpRequest;

fn t() -> SimTime {
    SimTime::from_ymd_hm(2015, 6, 15, 12, 0)
}

/// One valid emission per exchange and price visibility.
fn valid_emissions() -> Vec<String> {
    let crypter = PriceCrypter::new(PriceKeys::derive("malformed-nurls"));
    let mut out = Vec::new();
    for (i, &adx) in Adx::ALL.iter().enumerate() {
        let clear = PricePayload::Cleartext(Cpm::from_f64(0.25 + i as f64 / 100.0));
        let token = crypter.encrypt(1_000_000 + i as u64, [i as u8; 16]);
        let enc = PricePayload::Encrypted(token);
        for price in [clear, enc] {
            let fields = NurlFields::minimal(
                adx,
                DspId(i as u32),
                price,
                ImpressionId(i as u64),
                AuctionId(i as u64 + 1000),
            );
            let mut url = String::new();
            yav_nurl::render_into(&fields.as_ref_fields(), &mut url);
            out.push(url);
        }
    }
    out
}

/// Feeds `urls` through a fresh monitor and asserts the accounting
/// identity: nothing vanishes, nothing double-counts, nothing panics.
/// Then feeds them through the tenant store's push path, which must drop
/// exactly what the monitor dropped, and through both analyzer entry
/// points, whose reports must agree.
fn feed_and_check(urls: &[String]) {
    let requests: Vec<HttpRequest> = urls.iter().map(|u| HttpRequest::bare(t(), u)).collect();
    let mut yav = YourAdValue::new(None);
    let mut events = 0u64;
    for req in &requests {
        if yav.observe(req).is_some() {
            events += 1;
        }
    }
    let drops = yav.drop_stats();
    assert_eq!(
        events + yav.skipped_no_model() + drops.parse_error + drops.not_notification,
        urls.len() as u64,
        "every fed URL must land in exactly one bucket"
    );

    let mut store = TenantStore::new();
    for req in &requests {
        store.feed(None, req);
    }
    let fleet = store.finish(None);
    assert_eq!(fleet.drops, drops, "tenant store drops vs serial monitor");
    assert_eq!(fleet.events, events);
    assert_eq!(fleet.skipped_no_model, yav.skipped_no_model());

    let mut full = WeblogAnalyzer::new();
    let mut quiet = WeblogAnalyzer::new();
    for req in &requests {
        full.ingest(req);
        quiet.ingest_quiet(req);
    }
    let (full, quiet) = (full.finish(), quiet.finish());
    assert_eq!(full.total_requests, urls.len() as u64);
    assert_eq!(full.total_requests, quiet.total_requests);
    assert_eq!(full.malformed_nurls, quiet.malformed_nurls);
    assert_eq!(full.class_counts, quiet.class_counts);
    assert_eq!(full.summary, quiet.summary);
    assert_eq!(full.users_seen, quiet.users_seen);
    assert_eq!(full.monthly_os_requests, quiet.monthly_os_requests);
    assert_eq!(full.pairs.figure2(), quiet.pairs.figure2());
    assert_eq!(full.pairs.figure3(), quiet.pairs.figure3());
}

#[test]
fn every_prefix_truncation_is_survivable() {
    let mut fed = Vec::new();
    for url in valid_emissions() {
        assert!(url.is_ascii(), "emitter output is ASCII; slicing is safe");
        for len in 0..=url.len() {
            fed.push(url[..len].to_owned());
        }
    }
    feed_and_check(&fed);
}

#[test]
fn every_single_byte_corruption_is_survivable() {
    let mut fed = Vec::new();
    for url in valid_emissions() {
        let bytes = url.as_bytes();
        for pos in 0..bytes.len() {
            for garbage in [b'%', b'?', b'=', b'&', b' ', b'\0', b'~'] {
                if bytes[pos] == garbage {
                    continue;
                }
                let mut mutated = bytes.to_vec();
                mutated[pos] = garbage;
                fed.push(String::from_utf8(mutated).expect("ASCII stays UTF-8"));
            }
        }
    }
    feed_and_check(&fed);
}

#[test]
fn garbage_strings_are_survivable() {
    let fed: Vec<String> = [
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
        "ftp://cpp.imp.mpx.mopub.com/imp?charge_price=0.5",
        "not a url at all",
        "héllo wörld 🦀",
        "%%%%%%%%",
        "\0\0\0",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain(std::iter::once(format!(
        "http://cpp.imp.mpx.mopub.com/imp?charge_price=0.5&pad={}",
        "x".repeat(1 << 16)
    )))
    .collect();
    feed_and_check(&fed);
}

#[test]
fn valid_emissions_are_all_detected() {
    let urls = valid_emissions();
    let mut yav = YourAdValue::new(None);
    let mut events = 0u64;
    for url in &urls {
        if yav.observe_url(t(), url).is_some() {
            events += 1;
        }
    }
    // No model installed: cleartext halves become events, encrypted
    // halves are counted-but-unvalued sightings. Nothing is dropped.
    assert_eq!(events, Adx::ALL.len() as u64);
    assert_eq!(yav.skipped_no_model(), Adx::ALL.len() as u64);
    assert_eq!(yav.drop_stats(), yav_core::DropStats::default());
}
