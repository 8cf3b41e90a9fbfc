//! Heap allocations per telemetry update. A registered counter bump and
//! a histogram sample into a bucket the histogram already holds must not
//! allocate: the sweep and verification legs record several per probe.

use doe_telemetry::{Labels, Registry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations per thread so that the
/// test harness's other threads never add to a tally.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: both methods forward their arguments unchanged to `System`,
// so `System` upholds the allocator contract. The tally is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (through `alloc`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn warm_observe_and_inc_never_allocate() {
    let mut reg = Registry::enabled();
    let probes = reg.counter("net.probe.sent", Labels::empty());
    let rtt = reg.histogram("net.tcp.connect_us", Labels::empty());
    // Exact buckets, sweep-like round trips and a 30 s timeout.
    let samples = [0u64, 1, 31, 32, 4_711, 187_000, 30_000_000];
    // Warm-up: a sample above every earlier one may grow the histogram;
    // below its highest bucket, nothing does.
    for &v in &samples {
        reg.observe(rtt, v);
    }
    let allocs = allocs_during(|| {
        for round in 0..1_000u64 {
            for &v in &samples {
                reg.observe(rtt, v.saturating_sub(round % 3));
            }
            reg.inc(probes);
            reg.add(probes, 2);
        }
    });
    assert_eq!(allocs, 0, "warm registry updates allocated");
    assert_eq!(reg.counter_value("net.probe.sent", &Labels::empty()), 3_000);
}
