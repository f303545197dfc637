//! Zero-allocation steady-state window loop, proven with a counting
//! allocator.
//!
//! The streaming world builder's inner loop is generate → auction →
//! analyze → monitor, repeated per event for the whole simulated year.
//! This test pins the PR-10 contract that the loop is heap-quiet once
//! warm: per-*shard* setup (a `ShardScratch`, telemetry handle
//! resolution, staging-slot high-water growth, first-sight aggregate
//! keys) may allocate, but per-*event* work must not.
//!
//! Three measurements, one per pipeline stage, then one of shard setup:
//!
//! 1. **Generator + market** — the same warmed market is run over a
//!    16-user slice and over the full 48-user panel. Users draw from
//!    independent per-user RNG streams, so tripling the event volume
//!    only repeats per-event work; the allocation counts must be
//!    *equal* (they are the per-run setup constant), which proves the
//!    per-event delta is exactly zero.
//! 2. **Analyzer** — a captured request stream is replayed through
//!    [`WeblogAnalyzer::ingest_quiet`]. After two warm passes (the
//!    first sights every user and pair key, the second grows the
//!    reusable probe/scratch buffers to high water) a further replay is
//!    pure fold work: exactly zero allocations. A fresh analyzer's first
//!    pass — what every stream shard runs — allocates at most
//!    `RENAMED_COPY_SLACK` more times over the stream plus a copy of it
//!    under new user ids than over the stream alone: the quiet path
//!    builds no per-(user, publisher) history.
//! 3. **Tenant monitor** — the same replay through
//!    [`TenantStore::feed`] with no model, which sifts every request as
//!    it arrives. Once the warm pass has created every tenant and grown
//!    the sift scratch to high water: exactly zero allocations. Replayed
//!    again with a trained model, which values every encrypted
//!    notification: exactly zero allocations on every request. (The
//!    replay gains an encrypted rich-metadata notification that echoes
//!    `pub_name`; the model does not read the publisher, so the
//!    estimator context never copies it.)
//! 4. **Market stamp** — [`MarketTemplate::shard`] shares the template's
//!    roster, integration matrix and metric handles, so stamping a shard
//!    requests under 1 KiB (its bid scratch) at 60 and at 240 DSPs.
//!
//! This file deliberately holds a single `#[test]` with a thread-local
//! counter, for the reasons documented in `no_alloc.rs` (the harness's
//! main thread shares the global allocator). Integration tests are
//! separate crates, so the `unsafe` allocator impl lives outside the
//! workspace's `forbid(unsafe_code)` library crates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use yav_analyzer::{Retention, WeblogAnalyzer};
use yav_auction::{Market, MarketConfig, MarketTemplate};
use yav_campaign::Campaign;
use yav_core::TenantStore;
use yav_crypto::{PriceCrypter, PriceKeys};
use yav_nurl::{NurlFields, PricePayload, UrlRef, UrlScratch};
use yav_pme::{ClientModel, Pme, TrainConfig};
use yav_types::{Adx, AuctionId, DspId, ImpressionId, UserId};
use yav_weblog::{HttpRequest, Panel, PublisherUniverse, WeblogConfig, WeblogGenerator};

/// Counts every allocation and reallocation made by the current
/// thread, and the bytes each requested, then delegates to the system
/// allocator.
struct CountingAlloc;

thread_local! {
    // Const-initialized so the first access inside `alloc` itself never
    // allocates; `try_with` so TLS teardown can't recurse into a panic.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(|c| c.get());
    f();
    ALLOCS.with(|c| c.get()) - before
}

fn bytes_requested(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(|c| c.get());
    f();
    BYTES.with(|c| c.get()) - before
}

const USERS: u32 = 48;

/// What a fresh analyzer's first pass may allocate beyond its first
/// sights when the same traffic comes again under `USERS` new user ids:
/// the user map doubles its table, and the pair tracker's reused probe
/// key can grow to fit a DSP domain longer than the one it last held.
const RENAMED_COPY_SLACK: u64 = 4;

/// The engine's quick model, trained on a small A1 campaign.
fn trained_model() -> ClientModel {
    let universe = PublisherUniverse::build(0xD474, 300, 120);
    let rows = yav_campaign::execute_parallel(
        &MarketConfig::default(),
        &universe,
        &Campaign::a1().scaled(10),
        &Default::default(),
    )
    .rows;
    let pme = Pme::new();
    pme.train_from_campaign(&rows, &TrainConfig::quick());
    pme.current_model().expect("trained")
}

/// The price a request notifies, if it is a well-formed notification.
fn notified_price(req: &HttpRequest) -> Option<PricePayload> {
    let adx = yav_nurl::screen_adx(&req.url).ok()?;
    let url = UrlRef::parse(&req.url).ok()?;
    let mut scratch = UrlScratch::new();
    yav_nurl::parse_borrowed_screened(adx, &url, &mut scratch)
        .ok()
        .flatten()
        .map(|f| f.price)
}

#[test]
fn steady_state_window_loop_never_allocates_per_event() {
    let config = WeblogConfig {
        users: USERS,
        days: 30,
        ..WeblogConfig::small()
    };
    let generator = WeblogGenerator::new(config.clone());
    let users = Panel::build_block(config.seed, 0, USERS);
    let mut market = Market::new_shard(MarketConfig::default(), 0);

    // Warm pass: resolves telemetry handles, grows the market's
    // participant/bid scratch to high water, and captures the stream so
    // the analyzer/monitor replays below see a fixed event sequence.
    let mut captured: Vec<HttpRequest> = Vec::new();
    generator.run_shard_with_users(
        &users,
        &mut market,
        |req| captured.push(req.clone()),
        |_| {},
    );
    assert!(
        captured.len() > 1_000,
        "warm pass produced too few events ({}) to be a meaningful measurement",
        captured.len()
    );

    // --- Stage 1: generator + market -------------------------------
    // Each user draws from an independent RNG stream seeded by its id,
    // so a run over a user slice replays that slice's exact behaviour;
    // only the market's RNG evolves between runs. With the market warm,
    // any allocation left is either the per-run setup constant (scratch
    // + telemetry lookups) or a per-event leak — running 16 users and
    // then 48 users separates the two: equal counts mean the ~3× extra
    // event volume allocated nothing.
    let mut sink_events = 0u64;
    let small = allocations(|| {
        generator.run_shard_with_users(&users[..16], &mut market, |_| sink_events += 1, |_| {});
    });
    let small_events = sink_events;
    sink_events = 0;
    let full = allocations(|| {
        generator.run_shard_with_users(&users, &mut market, |_| sink_events += 1, |_| {});
    });
    assert!(
        sink_events > small_events,
        "full run ({} events) must exceed the 16-user run ({} events)",
        sink_events,
        small_events
    );
    assert_eq!(
        full, small,
        "generate+market path allocated per event: {} allocs for {} events vs {} allocs for {} events",
        full, sink_events, small, small_events
    );

    // --- Stage 2: analyzer ------------------------------------------
    // Warm twice: the first pass creates every user entry and (adx, dsp,
    // visibility, month) pair key this stream can produce, and grows the
    // UA memo to the longest user agent; the second pushes the reusable
    // probe-key and scratch buffers to their length high-water marks (a
    // first-sight miss consumes the pooled probe key, so a capacity can
    // still grow once on the pass after first sight).
    let mut analyzer = WeblogAnalyzer::with_retention(Retention::Bounded);
    for _ in 0..2 {
        for req in &captured {
            analyzer.ingest_quiet(req);
        }
    }
    let analyzed = allocations(|| {
        for req in &captured {
            analyzer.ingest_quiet(req);
        }
    });
    assert_eq!(analyzed, 0, "ingest_quiet() steady state allocated");

    // A fresh analyzer's first pass is what every stream shard runs. The
    // quiet path folds no feature history, so what it allocates there is
    // the user map, the pair keys and the reusable buffers — nothing per
    // (user, publisher) pair. Replaying the stream a second time under
    // fresh user ids doubles those pairs and adds no pair key: a first
    // pass over both copies may allocate only `RENAMED_COPY_SLACK` more.
    let renamed: Vec<HttpRequest> = captured
        .iter()
        .map(|req| HttpRequest {
            user: UserId(req.user.0 + USERS),
            ..req.clone()
        })
        .collect();
    let first_pass = |copies: &[&[HttpRequest]]| {
        let mut analyzer = WeblogAnalyzer::with_retention(Retention::Bounded);
        allocations(|| {
            for req in copies.iter().copied().flatten() {
                analyzer.ingest_quiet(req);
            }
        })
    };
    let once = first_pass(&[&captured]);
    let twice = first_pass(&[&captured, &renamed]);
    assert!(
        twice <= once + RENAMED_COPY_SLACK,
        "ingest_quiet() first pass allocated per (user, publisher) pair: {once} allocations \
         over {USERS} users, {twice} over the same traffic under {} users",
        2 * USERS
    );

    // --- Stage 3: tenant monitor ------------------------------------
    // No encrypted notification in the generated replay echoes a
    // publisher name, so one that does joins it.
    let echoed = echoed_publisher(&captured[0]);
    captured.push(echoed.clone());

    // The warm pass creates tenant states and grows the URL decode
    // scratch to its high-water length; every later request is sifted
    // in place, so the model-free feed path is allocation-free forever
    // after.
    let mut store = TenantStore::new();
    for req in &captured {
        store.feed(None, req);
    }
    let monitored = allocations(|| {
        for req in &captured {
            store.feed(None, req);
        }
    });
    assert_eq!(monitored, 0, "TenantStore::feed() steady state allocated");

    // With a model, the warm pass also grows the estimate scratch; after
    // it the store values every encrypted notification and still
    // allocates nothing. The model ignores the publisher, so valuing the
    // echoed notification must not copy its name.
    let model = trained_model();
    assert!(!model.with_publisher);
    let mut store = TenantStore::new();
    for req in &captured {
        store.feed(Some(&model), req);
    }
    let priced = allocations(|| {
        for req in &captured {
            store.feed(Some(&model), req);
        }
    });
    let prices: Vec<PricePayload> = captured.iter().filter_map(notified_price).collect();
    let encrypted = prices.iter().filter(|p| p.encrypted().is_some()).count();
    let cleartext = prices.len() - encrypted;
    assert!(
        encrypted > 0 && cleartext > 0,
        "the replay must hold both price kinds ({encrypted} encrypted, {cleartext} cleartext)"
    );
    assert_eq!(
        priced, 0,
        "TenantStore::feed(Some(model)) steady state allocated ({encrypted} encrypted and \
         {cleartext} cleartext notifications)"
    );
    // The echoed notification is one the store values, not a drop.
    let valued = |store: &TenantStore| store.tenant(echoed.user).map(|t| t.encrypted_count);
    let before = valued(&store);
    store.feed(Some(&model), &echoed);
    assert_eq!(valued(&store), before.map(|n| n + 1));

    // --- Stage 4: market stamp --------------------------------------
    // A stamp owns only its DMP, RNG, id namespaces and bid scratch;
    // the roster and the 17 × n_dsps integrations stay in the template.
    for n_dsps in [60, 240] {
        let template = MarketTemplate::new(MarketConfig {
            n_dsps,
            ..MarketConfig::default()
        });
        let stamped = bytes_requested(|| {
            std::hint::black_box(template.shard(5));
        });
        assert!(
            stamped < 1024,
            "MarketTemplate::shard requested {stamped} bytes at {n_dsps} DSPs"
        );
    }
}

/// `like`, carrying an encrypted notification from MoPub, whose house
/// format echoes slot, `pub_name` and other metadata.
fn echoed_publisher(like: &HttpRequest) -> HttpRequest {
    let token = PriceCrypter::new(PriceKeys::derive("no-alloc-gen")).encrypt(1_250_000, [7; 16]);
    let mut fields = NurlFields::minimal(
        Adx::MoPub,
        DspId(3),
        PricePayload::Encrypted(token),
        ImpressionId(1),
        AuctionId(2),
    );
    fields.publisher = Some("elpais.com".to_owned());
    let mut url = String::new();
    yav_nurl::render_into(&fields.as_ref_fields(), &mut url);
    assert!(url.contains("pub_name="), "{url}");
    HttpRequest {
        url,
        ..like.clone()
    }
}
