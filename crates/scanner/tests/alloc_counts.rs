//! Heap allocations and live bytes of the §3 scan. A sweep holds memory
//! for the hosts it finds, not for the addresses it probes, and a
//! one-shard verification's observation table is handed over as the
//! epoch's table instead of being copied.

use doe_scanner::{
    syn_sweep_sharded, AddressSpace, DotObservation, ObservationTable, SweepResult, VerifyOutcome,
};
use netsim::service::FnStreamService;
use netsim::{HostMeta, Netblock, Network, NetworkConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::Arc;
use tlssim::CertStatus;

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
// const-initialised thread-local `Cell`s, which never allocate. A
// `realloc` is the default `alloc`, copy and `dealloc`, so both blocks
// count as live while it copies.
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

/// Allocations and reallocations during `f`.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The most bytes `f` held live at once on this thread, beyond what was
/// live when it started.
fn peak_bytes_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (PEAK.with(Cell::get) - base, out)
}

/// Sweep a /16 on one shard (the calling thread, where the tally runs)
/// with port 853 open at the `open` indices, returning the sweep's peak
/// live bytes and its result.
fn sweep_slash16(open: &[u64]) -> (usize, SweepResult) {
    let space = AddressSpace::new(vec![Netblock::new(Ipv4Addr::new(10, 7, 0, 0), 16)]);
    let mut net = Network::new(NetworkConfig::default(), 5);
    let src = Ipv4Addr::new(198, 51, 100, 1);
    net.add_host(HostMeta::new(src));
    for &i in open {
        let addr = space.addr(i);
        net.add_host(HostMeta::new(addr));
        net.bind_tcp(
            addr,
            853,
            Arc::new(FnStreamService::new(|_c, _p, d: &[u8]| d.to_vec(), "echo")),
        );
    }
    peak_bytes_during(|| syn_sweep_sharded(&mut net, &[src], &space, 853, 7, 1))
}

/// A sweep's live bytes scale with the hosts it finds, not with the
/// 65,536 addresses it probes: a tag per probe would hold megabytes.
#[test]
fn a_slash16_sweep_holds_bytes_for_its_open_hosts_not_its_probes() {
    let (idle, none) = sweep_slash16(&[]);
    assert_eq!(none.stats.probed, 65_536);
    assert!(none.open_addrs.is_empty());
    let open: Vec<u64> = (0..256).map(|i| i * 251 + 3).collect();
    let (busy, found) = sweep_slash16(&open);
    assert_eq!(found.stats.probed, 65_536);
    assert_eq!(found.open_addrs.len(), open.len());
    // Less than a byte per probe: whatever the sweep keeps, it keeps
    // nothing per address.
    assert!(idle < 65_536, "an empty /16 sweep peaked at {idle} B");
    // Each open host costs its 8-byte hit, its 4-byte address and the
    // hit vector's doubling slack: well under 32 B.
    assert!(
        busy <= idle + 32 * open.len(),
        "{} open hosts raised the peak from {idle} to {busy} B",
        open.len()
    );
}

fn observation(i: u8, provider: &str) -> DotObservation {
    DotObservation {
        addr: Ipv4Addr::new(10, 1, 0, i),
        outcome: VerifyOutcome::OpenResolver,
        cert_status: Some(CertStatus::Valid),
        provider: Some(provider.to_string()),
        answer_correct: Some(true),
    }
}

/// One shard's table already holds every candidate in order, so the
/// merge returns it as it is: no re-interned copy of its rows.
#[test]
fn merging_one_shard_table_hands_it_over_without_allocating() {
    let mut table = ObservationTable::new();
    for i in 0..40 {
        let provider = if i % 2 == 0 { "even.net" } else { "odd.net" };
        table.push(&observation(i, provider));
    }
    let expected = table.clone();
    let shards = vec![table];
    let (allocs, merged) = allocs_during(|| ObservationTable::merge_striped(shards));
    assert_eq!(allocs, 0);
    assert_eq!(merged, expected);
}
