//! Heap allocations of one stub exchange, the unit of the million-client
//! fleet. A fleet query name is one allocation: its labels are written on
//! the stack, not formatted as text and parsed back. A clear-text UDP
//! query keeps the reply datagram as its validated frame instead of
//! decoding an owned message, so the exchange's count is pinned exactly.

use dnswire::zone::Zone;
use dnswire::Rcode;
use dnswire::{Name, RData, RecordType};
use doe_protocols::machine::query_name;
use doe_protocols::responder::{AuthoritativeServer, DnsResponder};
use doe_protocols::{Do53UdpService, StubConfig, StubProfile, StubResolver};
use netsim::{HostMeta, Network, NetworkConfig, SimDuration};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::Arc;
use tlssim::{DateStamp, TrustStore};

/// The system allocator, counting allocations per thread so that the
/// test harness's other threads never add to a tally.
struct CountingAlloc;

thread_local! {
    /// Calls that may hand out a new block: every `alloc` and `realloc`.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
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
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller meets `GlobalAlloc::realloc`'s contract: `ptr`
        // came from this allocator (so from `System`) with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
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

#[test]
fn a_fleet_query_name_is_one_allocation() {
    let apex = Name::parse("pop.example").unwrap();
    for (completed, attempt, client) in [(0, 1, 0), (3, 3, 999_999), (u32::MAX, u32::MAX, u64::MAX)]
    {
        let (allocs, name) = allocs_during(|| query_name(completed, attempt, client, &apex));
        assert!(name.is_ok());
        assert_eq!(allocs, 1, "query_name({completed}, {attempt}, {client})");
    }
}

const RESOLVER: Ipv4Addr = Ipv4Addr::new(9, 9, 9, 9);
const CLIENT: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 1);

/// The fleet's resolver: `*.pop.example` served over clear-text UDP.
fn fleet_network() -> Network {
    let mut net = Network::new(NetworkConfig::default(), 5);
    net.add_host(HostMeta::new(RESOLVER).country("US").asn(19281).anycast());
    let apex = Name::parse("pop.example").unwrap();
    let mut zone = Zone::new(apex.clone());
    zone.add_record(
        &apex.prepend("*").unwrap(),
        60,
        RData::A(Ipv4Addr::new(203, 0, 113, 80)),
    );
    let responder: Arc<dyn DnsResponder> = Arc::new(AuthoritativeServer::new(vec![zone]));
    net.bind_udp(RESOLVER, 53, Arc::new(Do53UdpService::new(responder)));
    net
}

/// One clear-text attempt of a fleet client, from the name to the reply:
/// the name (1), the query's question section (1), the query encode (2:
/// its buffer and its compression table), the server's owned decode of
/// the query (2: the question section and the name), its NXDOMAIN
/// response echoing the question (2) and that response's encode (2). The
/// reply datagram becomes the client's frame without a copy.
const UDP_ATTEMPT_ALLOCS: u64 = 10;

#[test]
fn a_clear_text_fleet_query_allocates_a_pinned_count() {
    let mut net = fleet_network();
    let apex = Name::parse("pop.example").unwrap();
    let mut stub = StubResolver::new(StubConfig {
        resolver: RESOLVER,
        profile: StubProfile::ClearText,
        trust_store: TrustStore::new(),
        now: DateStamp::from_ymd(2019, 2, 1),
        timeout: SimDuration::from_secs(5),
    });
    // Attempt 1 also takes the telemetry histogram's first sample, which
    // sizes its buckets; every later attempt is the fleet's steady state.
    for attempt in 1..=4 {
        let (allocs, reply) = allocs_during(|| {
            let name = query_name(0, attempt, 7, &apex)?;
            stub.resolve(&mut net, CLIENT, name, RecordType::A)
        });
        // Two labels below the wildcard: the fleet's NXDOMAIN shape.
        assert_eq!(reply.unwrap().view().rcode(), Rcode::NxDomain);
        if attempt > 1 {
            assert_eq!(allocs, UDP_ATTEMPT_ALLOCS, "attempt {attempt}");
        }
    }
}
