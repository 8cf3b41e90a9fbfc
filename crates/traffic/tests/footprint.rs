//! Peak live heap per stub client, by transport profile. The million-
//! client fleet's resident set is this figure times a million, so each
//! profile's is pinned: a 20,000-client fleet of one profile runs its
//! queries on a shard worker, as `stub_population_sharded` does, and the
//! peak of live heap bytes over the run, less what was live before the
//! first machine was built, is divided by the client count. It counts the
//! machines, their pending events, their pooled sessions and the
//! server-side state those sessions hold open.

use doe_protocols::{StubConfig, StubMachine, StubPacing, StubProfile};
use doe_traffic::stubsim::{build_stub_world, STUB_AUTH_NAME, STUB_RESOLVER};
use netsim::sched::run_machines;
use netsim::{mix_seed, SimDuration};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The system allocator, tracking live heap bytes and their peak per
/// thread so that the test harness's other threads never add to a tally.
struct TrackingAlloc;

thread_local! {
    /// Bytes allocated and not yet freed by this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The largest `LIVE` since the last reset.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Note a change of `delta` bytes in live heap.
fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System` upholds the allocator contract. The tallies are
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        // SAFETY: `ptr` was allocated by `System` (through `alloc`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        // SAFETY: the caller meets `GlobalAlloc::realloc`'s contract: `ptr`
        // came from this allocator (so from `System`) with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

const CLIENTS: u32 = 20_000;

/// Peak live heap bytes per client of a `CLIENTS`-strong fleet of one
/// profile, each client asking the fleet's two queries.
fn peak_heap_per_client(profile: StubProfile) -> f64 {
    let mut world = build_stub_world(2019, true);
    let pacing = Arc::new(StubPacing {
        queries_per_client: 2,
        ..StubPacing::new(world.apex.clone())
    });
    let (store, now) = (&world.store, world.now);
    let peaks = world.net.run_shards(1, |worker, _| {
        let base = LIVE.with(Cell::get);
        PEAK.with(|peak| peak.set(base));

        let first = u32::from(Ipv4Addr::new(100, 64, 0, 1));
        let mut machines = Vec::with_capacity(CLIENTS as usize);
        for client in 0..CLIENTS {
            machines.push(StubMachine::new(
                client,
                Ipv4Addr::from(first + client),
                StubConfig {
                    resolver: STUB_RESOLVER,
                    profile: profile.clone(),
                    trust_store: store.clone(),
                    now,
                    timeout: SimDuration::from_secs(5),
                },
                Arc::clone(&pacing),
                mix_seed(28, client.into()),
            ));
        }
        for (index, m) in (0..).zip(&machines) {
            let delay = SimDuration::from_micros((m.client_index() % 1_009) * 977);
            m.start(worker, index, delay);
        }
        run_machines(worker, &mut machines);
        for m in &machines {
            let stats = m.stats();
            assert_eq!((stats.queries, stats.answered), (2, 2), "{profile:?}");
        }
        PEAK.with(Cell::get) - base
    });
    peaks[0] as f64 / f64::from(CLIENTS)
}

/// Measured peaks, each rounded up by less than 5%: UDP 174.7 B, TCP
/// 386.7 B, Opportunistic DoT 1,166.0 B and Strict DoT 1,208.0 B.
#[test]
fn peak_heap_per_client_stays_within_each_profiles_budget() {
    let profiles = [
        (StubProfile::ClearText, 180.0),
        (StubProfile::ClearTextTcp, 400.0),
        (
            StubProfile::OpportunisticDot {
                fallback_clear: false,
            },
            1_200.0,
        ),
        (
            StubProfile::StrictDot {
                auth_name: STUB_AUTH_NAME.into(),
            },
            1_250.0,
        ),
    ];
    for (profile, budget) in profiles {
        let per_client = peak_heap_per_client(profile.clone());
        println!("{profile:?}: {per_client:.1} B per client");
        assert!(
            per_client <= budget,
            "{profile:?}: {per_client:.1} B of peak heap per client, budget {budget} B"
        );
    }
}
