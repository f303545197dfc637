//! `nurl.template.*` accounting of the notification parse.
//!
//! The counters are process-global, so this binary holds a single test:
//! no test running alongside it in the same process can parse a URL
//! between its before and after readings.

use yav_nurl::{screen_adx, template, UrlRef, UrlScratch};

/// `[urls_seen, matched, not_notification, malformed_dropped]`.
fn counts() -> [u64; 4] {
    [
        "urls_seen",
        "matched",
        "not_notification",
        "malformed_dropped",
    ]
    .map(|name| yav_telemetry::counter(&format!("nurl.template.{name}")).get())
}

fn delta(before: [u64; 4], after: [u64; 4]) -> [u64; 4] {
    [0, 1, 2, 3].map(|i| after[i] - before[i])
}

#[test]
fn each_outcome_bumps_its_counter_once() {
    let cases = [
        // A well-formed notification.
        (
            "http://cpp.imp.mpx.mopub.com/imp?charge_price=0.50&imp=0000000000000007\
             &auc=0000000000000008&bidder=dsp1.bid.example.com",
            [1, 1, 0, 0],
        ),
        // An exchange host on an ordinary path.
        ("http://cpp.imp.mpx.mopub.com/robots.txt", [1, 0, 1, 0]),
        // The notification endpoint with no price: a malformed payload.
        (
            "http://cpp.imp.mpx.mopub.com/imp?currency=USD",
            [1, 0, 0, 1],
        ),
    ];
    let mut scratch = UrlScratch::new();
    for (raw, want) in cases {
        let adx = screen_adx(raw).expect("exchange host screens in");
        let url = UrlRef::parse(raw).expect("parses structurally");

        let before = counts();
        let _ = template::parse_borrowed_screened(adx, &url, &mut scratch);
        assert_eq!(delta(before, counts()), want, "parse of {raw}");
    }
    // Every parse lands in exactly one outcome.
    let [seen, matched, not_notification, malformed] = counts();
    assert_eq!(seen, 3);
    assert_eq!(seen, matched + not_notification + malformed);
}
