//! Heap allocations and live bytes of the event scheduler. A warm
//! scheduler must run a stub-fleet-shaped cycle without allocating, and
//! spreading a large bucket must not hold the bucket and its spread copy
//! at once: the scheduler's memory stays at about one entry per pending
//! event plus a fixed slack of blocks per bucket.

use netsim::{SchedEvent, Scheduler, SimInstant};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations and live bytes per thread
/// so that the test harness's other threads never add to a tally.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: both methods forward their arguments unchanged to `System`,
// so `System` upholds the allocator contract. The tallies are
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + layout.size());
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(layout.size())));
        // SAFETY: `ptr` was allocated by `System` (through `alloc`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The most bytes `f` held live at once on this thread, beyond what was
/// live when it started.
fn peak_bytes_during(f: impl FnOnce()) -> usize {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    f();
    PEAK.with(Cell::get) - base
}

/// A small deterministic generator (splitmix64) that never allocates.
struct Mix(u64);

impl Mix {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    }
}

fn at(us: u64) -> SimInstant {
    SimInstant::from_micros(us)
}

/// One cycle's span: 2^27 µs (about 134 s) outlasts every client event.
const CYCLE_US: u64 = 1 << 27;

/// One stub-fleet-shaped cycle starting at `base`, the last popped
/// instant (a multiple of [`CYCLE_US`]): `machines` clients start over
/// one second, each sends two queries answered after whole milliseconds
/// with a 6–75 s think timer between them, and a sentinel at
/// `base + CYCLE_US` fires last. Returns the sentinel's instant.
///
/// Starting from an aligned `base` makes every cycle's instants differ
/// from `base` exactly as the first cycle's differ from 0, so the
/// scheduler's buckets evolve identically in every cycle.
fn stub_cycle(s: &mut Scheduler, base: u64, machines: u64) -> u64 {
    let mut rng = Mix(2019);
    for m in 0..machines {
        let start = base + rng.below(1_000_000);
        s.schedule(at(start), m, SchedEvent::Timer { token: 0 });
    }
    let end = base + CYCLE_US;
    s.schedule(at(end), machines, SchedEvent::Timer { token: u32::MAX });
    while let Some(f) = s.pop() {
        let now = f.at.as_micros();
        match f.event {
            SchedEvent::Timer { token: u32::MAX } => {
                assert_eq!(now, end);
                assert!(s.is_empty(), "the sentinel fires last");
                return end;
            }
            SchedEvent::Timer { token } => {
                let rtt = 1_000 * (1 + rng.below(300));
                s.schedule(at(now + rtt), f.machine, SchedEvent::Deliver { token });
            }
            SchedEvent::Deliver { token: 0 } => {
                let think = 6_000_000 + rng.below(69_000_000);
                s.schedule(at(now + think), f.machine, SchedEvent::Timer { token: 1 });
            }
            _ => {}
        }
    }
    panic!("the sentinel never fired");
}

#[test]
fn a_warm_stub_cycle_allocates_nothing() {
    const MACHINES: u64 = 50_000;
    let mut s = Scheduler::new();
    let (warmup_allocs, end) = allocs_during(|| stub_cycle(&mut s, 0, MACHINES));
    assert!(warmup_allocs > 0, "the first cycle builds the blocks");
    let (allocs, _) = allocs_during(|| stub_cycle(&mut s, end, MACHINES));
    assert_eq!(allocs, 0, "a warm cycle reuses every block");
    let fired: u64 = s.load_stats().fired.iter().sum();
    assert_eq!(fired, 2 * (4 * MACHINES + 1));
}

#[test]
fn spreading_a_large_bucket_stays_within_one_entry_per_pending_event() {
    /// Events scheduled before the first pop: at least 200K.
    const PENDING: u64 = 1 << 18;
    /// A pending event: instant, machine and event, 8 bytes each.
    const ENTRY_BYTES: usize = 24;
    /// Fixed slack: two 1,024-entry blocks for each of the 65 buckets.
    const SLACK_BYTES: usize = 65 * 2 * 1024 * ENTRY_BYTES;
    let mut rng = Mix(7);
    let peak = peak_bytes_during(|| {
        let mut s = Scheduler::new();
        // Every instant lies in [2^30, 2^31) µs, so one bucket holds them
        // all until the first pop spreads it over the buckets below.
        for i in 0..PENDING {
            let t = (1 << 30) + rng.below(1 << 30);
            s.schedule(at(t), i % 64, SchedEvent::Timer { token: 0 });
        }
        assert_eq!(s.len() as u64, PENDING);
        let mut last = 0;
        while let Some(f) = s.pop() {
            assert!(f.at.as_micros() >= last);
            last = f.at.as_micros();
        }
    });
    let budget = PENDING as usize * ENTRY_BYTES + SLACK_BYTES;
    assert!(
        peak <= budget,
        "peak {peak} B over budget {budget} B at {PENDING} pending"
    );
}
