//! `observe_batch` ⇄ serial `observe` bit-identity.
//!
//! The batch path restructures the work — shared URL scratch, a staged
//! feature matrix, one level-synchronous forest traversal — but it is a
//! pure throughput optimisation: every observable side effect must be
//! byte-for-byte what the serial loop produces. This suite pins that
//! over real generated traffic and the hostile corpus, with and without
//! an installed model, across batch-boundary placements.

use yav_core::YourAdValue;
use yav_pme::engine::Pme;
use yav_pme::model::TrainConfig;
use yav_types::{City, SimTime};
use yav_weblog::{HttpRequest, PublisherUniverse, WeblogConfig, WeblogGenerator};

fn trained_pme() -> Pme {
    let universe = PublisherUniverse::build(0xD474, 300, 120);
    // The default pool: campaign rows never depend on the thread count.
    let rows = yav_campaign::execute_parallel(
        &yav_auction::MarketConfig::default(),
        &universe,
        &yav_campaign::Campaign::a1().scaled(10),
        &Default::default(),
    )
    .rows;
    let pme = Pme::new();
    pme.train_from_campaign(&rows, &TrainConfig::quick());
    pme
}

fn traffic() -> Vec<HttpRequest> {
    WeblogGenerator::new(WeblogConfig::tiny())
        .collect(&yav_auction::MarketConfig::default())
        .requests
}

/// Runs the same requests serially through one monitor and batched
/// through another, and asserts every externally visible piece of state
/// is identical.
fn assert_identical(requests: &[HttpRequest], model: Option<&Pme>, chunk: usize) {
    let mut serial = YourAdValue::new(Some(City::Madrid));
    let mut batched = YourAdValue::new(Some(City::Madrid));
    if let Some(pme) = model {
        assert!(serial.refresh_model(pme));
        assert!(batched.refresh_model(pme));
    }

    let mut serial_events = Vec::new();
    for req in requests {
        if let Some(e) = serial.observe(req) {
            serial_events.push(e);
        }
    }
    let mut batch_events = Vec::new();
    for chunk in requests.chunks(chunk) {
        batch_events.extend(batched.observe_batch(chunk));
    }

    assert_eq!(serial_events, batch_events, "returned event streams");
    assert_eq!(serial.ledger(), batched.ledger(), "ledger contents");
    assert_eq!(serial.drop_stats(), batched.drop_stats(), "drop accounting");
    assert_eq!(
        serial.skipped_no_model(),
        batched.skipped_no_model(),
        "unvalued encrypted sightings"
    );
    assert_eq!(
        serial.take_contributions(),
        batched.take_contributions(),
        "pending contribution batches"
    );
}

#[test]
fn batch_matches_serial_without_model() {
    let requests = traffic();
    assert_identical(&requests, None, 1024);
}

#[test]
fn batch_matches_serial_with_model() {
    let pme = trained_pme();
    let requests = traffic();
    // Batch boundaries must not matter: one request per batch degenerates
    // to the serial path; odd sizes split prediction blocks unevenly; one
    // giant batch exercises the block loop.
    for chunk in [1, 7, 333, usize::MAX] {
        assert_identical(&requests[..40_000.min(requests.len())], Some(&pme), chunk);
    }
    assert_identical(&requests, Some(&pme), 4096);
}

#[test]
fn batch_matches_serial_on_hostile_corpus() {
    let t = SimTime::from_ymd_hm(2015, 6, 15, 12, 0);
    let requests: Vec<HttpRequest> = [
        "",
        "http://",
        "http:///path",
        "http://ex ample.com/",
        "http://cpp.imp.mpx.mopub.com/imp?%zz=1",
        "http://cpp.imp.mpx.mopub.com/imp?currency=USD",
        "http://cpp.imp.mpx.mopub.com/imp?charge_price=0.95&currency=USD",
        "http://www.example.com/page.html",
        "not a url at all",
        "héllo wörld 🦀",
    ]
    .iter()
    .map(|u| HttpRequest::bare(t, *u))
    .collect();
    let pme = trained_pme();
    assert_identical(&requests, None, 3);
    assert_identical(&requests, Some(&pme), 3);
}

#[test]
fn world_output_is_simd_tier_independent() {
    // The whole ingest path — scans, HMAC, forest partition — dispatches
    // through yav-simd. Forcing each tier in turn must leave every
    // externally visible piece of monitor state bit-identical; this is
    // the end-to-end form of the per-kernel cross_impl guarantees (and
    // what makes `YAV_SIMD=off` a pure performance switch).
    let pme = trained_pme();
    let requests = traffic();
    let requests = &requests[..20_000.min(requests.len())];
    let levels: Vec<yav_simd::Level> = yav_simd::Level::all()
        .iter()
        .copied()
        .filter(|l| l.available())
        .collect();
    let mut monitors = Vec::new();
    for &lvl in &levels {
        yav_simd::force_level(Some(lvl));
        let mut yav = YourAdValue::new(Some(City::Madrid));
        assert!(yav.refresh_model(&pme));
        let mut events = Vec::new();
        for chunk in requests.chunks(2048) {
            events.extend(yav.observe_batch(chunk));
        }
        monitors.push((lvl, yav, events));
    }
    yav_simd::force_level(None);
    let mut tail = monitors.split_off(1);
    let (_, base, base_events) = &mut monitors[0];
    let base_contributions = base.take_contributions();
    for (lvl, yav, events) in &mut tail {
        assert_eq!(events, base_events, "{lvl:?} event stream");
        assert_eq!(yav.ledger(), base.ledger(), "{lvl:?} ledger");
        assert_eq!(yav.drop_stats(), base.drop_stats(), "{lvl:?} drops");
        assert_eq!(
            yav.take_contributions(),
            base_contributions,
            "{lvl:?} contributions"
        );
    }
}

#[test]
fn empty_batch_is_a_no_op() {
    let mut yav = YourAdValue::new(None);
    assert!(yav.observe_batch(&[]).is_empty());
    assert!(yav.ledger().is_empty());
    assert_eq!(yav.drop_stats(), yav_core::DropStats::default());
}
