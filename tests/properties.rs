//! Cross-crate property-based tests: invariants that must hold for
//! arbitrary inputs, checked with proptest through the public facade.

use proptest::prelude::*;
use your_ad_value::crypto::{EncryptedPrice, PriceCrypter, PriceKeys};
use your_ad_value::nurl::fields::{NurlFields, PricePayload};
use your_ad_value::nurl::{screen_adx, template, UrlRef, UrlScratch};
use your_ad_value::types::{Adx, AuctionId, Cpm, DspId, ImpressionId};

/// Renders a notification the way the market does.
fn render(fields: &NurlFields) -> String {
    let mut url = String::new();
    template::render_into(&fields.as_ref_fields(), &mut url);
    url
}

proptest! {
    /// Any price rendered by any exchange template is read back by the
    /// monitor's parse with the same exchange, the same visibility and
    /// (when cleartext) the same value.
    #[test]
    fn emit_detect_agrees(
        adx_idx in 0usize..17,
        dsp in 0u32..100,
        micros in 1i64..50_000_000,
        encrypted in proptest::bool::ANY,
        iv: [u8; 16],
    ) {
        let adx = Adx::from_index(adx_idx);
        let price = if encrypted {
            let c = PriceCrypter::new(PriceKeys::derive("prop"));
            PricePayload::Encrypted(c.encrypt(micros as u64, iv))
        } else {
            PricePayload::Cleartext(Cpm::from_micros(micros))
        };
        let fields = NurlFields::minimal(adx, DspId(dsp), price, ImpressionId(1), AuctionId(2));
        let raw = render(&fields);
        prop_assert_eq!(screen_adx(&raw), Ok(adx));
        let url = UrlRef::parse(&raw).unwrap();
        let mut scratch = UrlScratch::new();
        let parsed = template::parse_borrowed_screened(adx, &url, &mut scratch)
            .unwrap()
            .expect("own rendering must parse as a notification");
        prop_assert_eq!(parsed.price.encrypted().is_some(), encrypted);
        if !encrypted {
            prop_assert_eq!(parsed.price.cleartext(), Some(Cpm::from_micros(micros)));
        }
    }

    /// Render ∘ parse is the identity: free-form metadata written by the
    /// renderer's percent-encoder comes back unchanged from the scratch
    /// decode, and the whole notification reads back as the fields it
    /// was rendered from.
    #[test]
    fn url_display_parse_identity(
        publisher in "\\PC{0,30}",
        country in "\\PC{0,30}",
        ad_domain in "\\PC{0,30}",
        micros in 1i64..50_000_000,
    ) {
        // MoPub's template echoes every free-form field.
        let mut fields = NurlFields::minimal(
            Adx::MoPub,
            DspId(1),
            PricePayload::Cleartext(Cpm::from_micros(micros)),
            ImpressionId(1),
            AuctionId(2),
        );
        fields.publisher = Some(publisher.clone());
        fields.country = Some(country.clone());
        fields.ad_domain = Some(ad_domain.clone());
        let raw = render(&fields);
        let url = UrlRef::parse(&raw).unwrap();
        let mut scratch = UrlScratch::new();
        let pairs = scratch.decode(&url).unwrap();
        prop_assert_eq!(pairs.get("pub_name"), Some(publisher.as_str()));
        prop_assert_eq!(pairs.get("country"), Some(country.as_str()));
        prop_assert_eq!(pairs.get("ad_domain"), Some(ad_domain.as_str()));
        let parsed = template::parse_borrowed_screened(Adx::MoPub, &url, &mut scratch)
            .unwrap()
            .expect("own rendering must parse as a notification")
            .to_owned_fields();
        prop_assert_eq!(parsed, fields);
    }

    /// Price tokens survive their raw embedding in a notification
    /// (base64url is URL-safe by construction) and come back unchanged
    /// from the scratch decode.
    #[test]
    fn token_survives_query_embedding(micros in 0u64..u64::MAX / 2, iv: [u8; 16]) {
        let c = PriceCrypter::new(PriceKeys::derive("transport"));
        let token = c.encrypt(micros, iv);
        let fields = NurlFields::minimal(
            Adx::MoPub,
            DspId(1),
            PricePayload::Encrypted(token),
            ImpressionId(1),
            AuctionId(2),
        );
        let raw = render(&fields);
        let url = UrlRef::parse(&raw).unwrap();
        let mut scratch = UrlScratch::new();
        let pairs = scratch.decode(&url).unwrap();
        let wire = pairs.get(template::price_param(Adx::MoPub)).unwrap();
        prop_assert_eq!(wire, token.to_wire().as_str());
        let recovered = EncryptedPrice::from_wire(wire).unwrap();
        prop_assert_eq!(c.decrypt(&recovered).unwrap(), micros);
    }

    /// CPM string form round-trips for any micro value.
    #[test]
    fn cpm_wire_round_trip(micros in -1_000_000_000_000i64..1_000_000_000_000) {
        let p = Cpm::from_micros(micros);
        let parsed: Cpm = p.to_string().parse().unwrap();
        prop_assert_eq!(parsed, p);
    }

    /// The discretiser's class assignment is monotone in price and its
    /// representative prices invert it.
    #[test]
    fn discretizer_monotone(seed in 1u64..5000) {
        // A deterministic two-cluster sample parameterised by the seed.
        let prices: Vec<f64> = (0..200)
            .map(|i| {
                let base = if i % 2 == 0 { 0.1 } else { 2.0 };
                base * (1.0 + ((i as u64 * seed) % 97) as f64 / 97.0)
            })
            .collect();
        let d = your_ad_value::ml::Discretizer::fit(&prices, 4);
        let mut last = 0usize;
        for i in 0..100 {
            let x = 0.01 * 1.12f64.powi(i);
            let c = d.assign(x);
            prop_assert!(c >= last);
            last = c;
        }
        for c in 0..4 {
            prop_assert_eq!(d.assign(d.class_price(c)), c);
        }
    }
}

// Ecdf invariants under arbitrary samples.
proptest! {
    #[test]
    fn ecdf_is_a_cdf(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let e = your_ad_value::stats::Ecdf::new(&values);
        // Monotone and bounded.
        let mut last = 0.0;
        for i in -10..=10 {
            let x = i as f64 * 1e5;
            let f = e.eval(x);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= last);
            last = f;
        }
        // Everything ≤ max is everything.
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert_eq!(e.eval(max), 1.0);
    }
}
