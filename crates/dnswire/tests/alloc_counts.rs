//! Heap allocations per packet on the sweep's reply shapes. The
//! zero-copy view must not allocate at all, and the owned encoder's count
//! is bounded so that a regression in name compression shows. A name is
//! one allocation however it is made, an owned decode allocates only what
//! it keeps, and the stub fleet's zone lookup allocates nothing to miss.
//! Parsing a name never asks for more than one name's worth of heap. A
//! stream decoder holding exactly one frame hands that buffer over.

use dnswire::view::MessageView;
use dnswire::zone::{Zone, ZoneLookup};
use dnswire::{
    builder, frame_message, FrameDecoder, Message, Name, RData, RecordType, ResourceRecord,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

/// The system allocator, counting allocations per thread so that the
/// test harness's other threads never add to a tally.
struct CountingAlloc;

thread_local! {
    /// Calls that may hand out a new block: every `alloc` and `realloc`,
    /// as the trait's default `realloc` (a fresh `alloc`) would count them.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// The `realloc` calls among them.
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
    /// The largest block any of them asked for, in octets.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// Blocks given back: every `dealloc`.
    static FREES: Cell<u64> = const { Cell::new(0) };
}

/// Note a request for a block of `size` octets.
fn tally(size: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System` upholds the allocator contract. The tallies are
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = FREES.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` was allocated by `System` (through `alloc`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        let _ = REALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller meets `GlobalAlloc::realloc`'s contract: `ptr`
        // came from this allocator (so from `System`) with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The largest block, in octets, that `f` asked the allocator for.
fn largest_block_during(f: impl FnOnce()) -> usize {
    let outer = LARGEST.with(|n| n.replace(0));
    f();
    LARGEST.with(|n| n.replace(outer.max(n.get())))
}

/// `(allocations, reallocations)` during `f`. A reallocation counts in
/// both, so the first figure bounds every block `f` may have taken, and a
/// buffer sized exactly up front reads `(1, 0)`.
fn heap_calls_during(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get));
    f();
    (
        ALLOCS.with(Cell::get) - before.0,
        REALLOCS.with(Cell::get) - before.1,
    )
}

/// Blocks freed during `f`.
fn frees_during(f: impl FnOnce()) -> u64 {
    let before = FREES.with(Cell::get);
    f();
    FREES.with(Cell::get) - before
}

/// The packet `verify_one` classifies: a padded-to-128 A answer to the
/// sweep's stamped probe query.
fn sweep_reply() -> Message {
    let qname = "se0x01234567.probe.dnsmeasure.example";
    let query = builder::query(0x3d4e, qname, RecordType::A).unwrap();
    let answer = ResourceRecord::new(
        Name::parse(qname).unwrap(),
        300,
        RData::A(Ipv4Addr::new(198, 51, 100, 53)),
    );
    let mut reply = builder::answer(&query, vec![answer]);
    reply.pad_to_block(128).unwrap();
    reply
}

/// A compression-heavy response: eight A records sharing the query name,
/// the shape of a large public-resolver answer.
fn fat_reply() -> Message {
    let query = builder::query(0x1111, "big.cdn.example", RecordType::A).unwrap();
    let answers = (0..8u8)
        .map(|i| {
            ResourceRecord::new(
                Name::parse("big.cdn.example").unwrap(),
                60,
                RData::A(Ipv4Addr::new(203, 0, 113, i)),
            )
        })
        .collect();
    builder::answer(&query, answers)
}

#[test]
fn view_parse_never_allocates_and_owned_encode_stays_bounded() {
    let packets = [
        (sweep_reply(), 128, Ipv4Addr::new(198, 51, 100, 53), 3),
        (fat_reply(), 161, Ipv4Addr::new(203, 0, 113, 0), 4),
    ];
    for (msg, wire_len, first_a, max_encode_allocs) in packets {
        let wire = msg.encode().unwrap();
        assert_eq!(wire.len(), wire_len);
        let view_allocs = heap_calls_during(|| {
            let view = MessageView::parse(&wire).unwrap();
            assert_eq!(view.first_a_answer(), Some(first_a));
        });
        assert_eq!(view_allocs, (0, 0), "view parse of the {wire_len} B packet");
        let (encode_allocs, _) = heap_calls_during(|| drop(msg.encode().unwrap()));
        assert!(
            encode_allocs <= max_encode_allocs,
            "owned encode of the {wire_len} B packet: {encode_allocs} allocations"
        );
    }
}

/// The stub fleet's query name: two labels below `*.pop.example`.
const FLEET_QNAME: &str = "q0a1.c12345.pop.example";

#[test]
fn a_name_is_one_allocation() {
    let name = Name::parse(FLEET_QNAME).unwrap();
    let parse = heap_calls_during(|| drop(Name::parse("Q0A1.c12345.Pop.Example.").unwrap()));
    assert_eq!(parse, (1, 0), "Name::parse");
    assert_eq!(
        heap_calls_during(|| drop(name.clone())),
        (1, 0),
        "Name::clone"
    );
    let wire = builder::query(7, FLEET_QNAME, RecordType::A)
        .unwrap()
        .encode()
        .unwrap();
    let view = MessageView::parse(&wire).unwrap();
    let qname = view.questions().next().unwrap().qname;
    let copy = heap_calls_during(|| assert_eq!(qname.to_name(), name));
    assert_eq!(copy, (1, 0), "NameRef::to_name");
    assert_eq!(heap_calls_during(|| drop(Name::root().clone())), (0, 0));
}

#[test]
fn a_mebibyte_name_is_refused_within_one_names_worth_of_heap() {
    // 2^19 one-octet labels: the whole copy would be 1 MiB + 1 octets.
    let text = "a.".repeat(1 << 19);
    let largest = largest_block_during(|| {
        assert_eq!(
            Name::parse(&text),
            Err(dnswire::WireError::NameTooLong((1 << 20) + 1))
        );
    });
    assert!(
        largest <= 255,
        "Name::parse asked for a {largest}-octet block"
    );
}

#[test]
fn owned_decode_and_fleet_zone_lookup_allocate_only_what_they_return() {
    // Three section vectors, two names and the OPT record's padding bytes.
    let wire = sweep_reply().encode().unwrap();
    let decode = heap_calls_during(|| drop(Message::decode(&wire).unwrap()));
    assert_eq!(decode, (6, 0), "owned decode of the sweep reply");

    let apex = Name::parse("pop.example").unwrap();
    let mut zone = Zone::new(apex.clone());
    zone.add_record(
        &apex.prepend("*").unwrap(),
        60,
        RData::A(Ipv4Addr::new(203, 0, 113, 80)),
    );
    // The fleet's names sit two labels below the wildcard: the exact
    // probe, the stack-built wildcard probe and the empty-non-terminal
    // scan all borrow bytes.
    let fleet = Name::parse(FLEET_QNAME).unwrap();
    let miss =
        heap_calls_during(|| assert_eq!(zone.lookup(&fleet, RecordType::A), ZoneLookup::NxDomain));
    assert_eq!(miss, (0, 0), "fleet NXDOMAIN lookup");
    // One label below it, the answer is the record vector and one clone
    // of the query name.
    let child = fleet.parent().unwrap();
    let hit = heap_calls_during(|| {
        let ZoneLookup::Found(records) = zone.lookup(&child, RecordType::A) else {
            panic!("wildcard answer expected");
        };
        assert_eq!(records[0].name, child);
    });
    assert_eq!(hit, (2, 0), "wildcard synthesis");
}

/// A request/response stream buffers one reply frame at a time: the
/// decoder hands that buffer over with its length prefix stripped, so
/// the reply is never copied and an idle pooled session's decoder keeps
/// no capacity. Coalesced frames still copy out one at a time, up to the
/// last, which is then the whole buffer.
#[test]
fn a_one_frame_buffer_is_handed_over_and_nothing_is_kept() {
    let wire = sweep_reply().encode().unwrap();
    let framed = frame_message(&wire).unwrap();
    let mut dec = FrameDecoder::new();
    dec.push(&framed);
    let mut msg = None;
    let calls = heap_calls_during(|| msg = dec.next_message());
    assert_eq!(calls, (0, 0), "handing over the one buffered frame");
    assert_eq!(msg.as_deref(), Some(&wire[..]));
    assert_eq!(dec.pending_len(), 0);
    let freed = frees_during(|| drop(dec));
    assert_eq!(freed, 0, "a drained decoder keeps no capacity");

    let mut dec = FrameDecoder::new();
    dec.push(&framed);
    dec.push(&framed);
    let calls = heap_calls_during(|| msg = dec.next_message());
    assert_eq!(calls, (1, 0), "the first of two frames is copied out");
    assert_eq!(msg.as_deref(), Some(&wire[..]));
    let calls = heap_calls_during(|| msg = dec.next_message());
    assert_eq!(calls, (0, 0), "the last frame is the whole buffer");
    assert_eq!(msg.as_deref(), Some(&wire[..]));
    let freed = frees_during(|| drop(dec));
    assert_eq!(freed, 0, "a drained decoder keeps no capacity");
}
