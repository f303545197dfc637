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
//! Three measurements, one per pipeline stage:
//!
//! 1. **Generator + market** — the same warmed market is run over a
//!    16-user slice and over the full 48-user panel. Users draw from
//!    independent per-user RNG streams, so tripling the event volume
//!    only repeats per-event work; the allocation counts must be
//!    *equal* (they are the per-run setup constant), which proves the
//!    per-event delta is exactly zero.
//! 2. **Analyzer** — a captured request stream is replayed through
//!    [`WeblogAnalyzer::ingest_quiet`]. After two warm passes (the
//!    first sights every aggregate key, the second grows the reusable
//!    probe/scratch buffers to high water) a further replay is pure
//!    fold work: exactly zero allocations.
//! 3. **Tenant monitor** — the same replay through
//!    [`TenantStore::feed`] with no model, which sifts every request as
//!    it arrives. Once the warm pass has created every tenant and grown
//!    the sift scratch to high water: exactly zero allocations.
//!
//! This file deliberately holds a single `#[test]` with a thread-local
//! counter, for the reasons documented in `no_alloc.rs` (the harness's
//! main thread shares the global allocator). Integration tests are
//! separate crates, so the `unsafe` allocator impl lives outside the
//! workspace's `forbid(unsafe_code)` library crates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use yav_analyzer::{Retention, WeblogAnalyzer};
use yav_auction::{Market, MarketConfig};
use yav_core::TenantStore;
use yav_weblog::{HttpRequest, Panel, WeblogConfig, WeblogGenerator};

/// Counts every allocation and reallocation made by the current
/// thread, then delegates to the system allocator.
struct CountingAlloc;

thread_local! {
    // Const-initialized so the first access inside `alloc` itself never
    // allocates; `try_with` so TLS teardown can't recurse into a panic.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
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

const USERS: u32 = 48;

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
    // Warm twice: the first pass creates every per-user state, publisher
    // set entry, DSP aggregate, campaign counter and (adx, dsp, month)
    // pair this stream can produce; the second pushes the reusable
    // probe-key and scratch buffers to their length high-water marks
    // (a first-sight miss consumes the pooled probe key, so a capacity
    // can still grow once on the pass after first sight).
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

    // --- Stage 3: tenant monitor ------------------------------------
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
}
