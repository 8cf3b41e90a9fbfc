//! Heap allocations per packet on the sweep's reply shapes. The
//! zero-copy view must not allocate at all, and the owned encoder's count
//! is bounded so that a regression in name compression shows.

use dnswire::view::MessageView;
use dnswire::{builder, Message, Name, RData, RecordType, ResourceRecord};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

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
        let view_allocs = allocs_during(|| {
            let view = MessageView::parse(&wire).unwrap();
            assert_eq!(view.first_a_answer(), Some(first_a));
        });
        assert_eq!(view_allocs, 0, "view parse of the {wire_len} B packet");
        let encode_allocs = allocs_during(|| drop(msg.encode().unwrap()));
        assert!(
            encode_allocs <= max_encode_allocs,
            "owned encode of the {wire_len} B packet: {encode_allocs} allocations"
        );
    }
}
