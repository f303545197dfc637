//! Zero-allocation reject path, proven with a counting allocator.
//!
//! The monitor observes *every* HTTP request the device makes, and in
//! real traffic ~95%+ of those are ordinary requests the nURL screen
//! rejects. The zero-copy pipeline's contract is that this overwhelming
//! path never touches the heap: `UrlRef::parse` borrows subslices of
//! the raw string and the exchange-host screen compares in place. This
//! test swaps in a counting global allocator and asserts the count is
//! exactly zero across the reject path — both at the parser layer and
//! through `YourAdValue::observe` / `observe_batch`.
//!
//! This file deliberately holds a single `#[test]`, and the counter is
//! thread-local: the libtest harness's main thread shares this
//! process's allocator and may allocate (output bookkeeping) while the
//! test thread is inside a measured region, so a process-global count
//! is flaky under load. The contract being proven is about the calling
//! thread's code path, which the thread-local count measures exactly.
//! (Integration tests are separate crates, so the `unsafe` allocator
//! impl lives outside the workspace's `forbid(unsafe_code)` library
//! crates.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use yav_core::YourAdValue;
use yav_nurl::UrlRef;
use yav_types::SimTime;
use yav_weblog::HttpRequest;

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

#[test]
fn reject_path_never_allocates() {
    // Everything the measured region needs is built up front: request
    // strings, the monitor, and its lazily resolved telemetry handles
    // (warmed by a throwaway observe of each request).
    let t = SimTime::from_ymd_hm(2015, 10, 1, 12, 0);
    let rejects: Vec<HttpRequest> = [
        // Ordinary traffic: non-exchange hosts, path/query shapes alike.
        "http://www.example.com/page.html",
        "https://cdn.fastassets.example/lib/app.js?v=123",
        "http://api.dailynoticias7.example/feed?page=2&utm_source=x",
        "https://metricsrus.example/collect?sid=abc%20def&ev=pv",
        // Garbage that cannot parse at all.
        "not a url at all",
        "",
        "ftp://cpp.imp.mpx.mopub.com/imp?charge_price=0.5",
        // Structurally invalid hosts.
        "http://ex ample.com/",
        "http:///path",
    ]
    .iter()
    .map(|u| HttpRequest::bare(t, *u))
    .collect();

    // Parser layer: borrowed parse + host inspection is allocation-free
    // on every input, accepted or rejected.
    let parsed = allocations(|| {
        for req in &rejects {
            if let Ok(url) = UrlRef::parse(&req.url) {
                assert!(yav_nurl::exchange_host(url.host_raw()).is_none());
            }
        }
    });
    assert_eq!(parsed, 0, "UrlRef reject path allocated");

    // Monitor layer: after one warmup pass (counter handles resolve at
    // construction, the `ingest.observe` span's histogram on its first
    // batch; DropStats are plain integers), observing any number of
    // reject-path requests performs zero allocations.
    let mut yav = YourAdValue::new(None);
    for req in &rejects {
        assert!(yav.observe(req).is_none());
    }
    assert!(yav.observe_batch(&rejects).is_empty());
    let observed = allocations(|| {
        for _ in 0..64 {
            for req in &rejects {
                yav.observe(req);
            }
        }
    });
    assert_eq!(observed, 0, "observe() reject path allocated");

    // The batch loop allocates only its returned event vector — which is
    // empty and therefore allocation-free for an all-reject batch.
    let batched = allocations(|| {
        for _ in 0..64 {
            assert!(yav.observe_batch(&rejects).is_empty());
        }
    });
    assert_eq!(batched, 0, "observe_batch() reject path allocated");
}
