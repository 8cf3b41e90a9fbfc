//! Owned decode vs zero-copy view on the sweep's reply packets, plus the
//! owned encode that writes them.
//!
//! The 2–3M-host verification stage parses one DoT reply per open host
//! per epoch. `MessageView::parse` validates in place and lends borrows;
//! the owned `Message::decode` is that parse plus a copy, which allocates
//! a `Name` per record plus the section vectors. This bench measures both
//! on the same packets — a padded resolver answer (what `verify_one`
//! sees) and a compression-heavy multi-answer response — and counts heap
//! allocations per packet with a tallying global allocator. The view
//! path must hold a ≥2× throughput edge and zero allocations.
//!
//! `owned_encode_*` times `Message::encode` on the same two messages:
//! the write every stub UDP query pays twice, once on the client and
//! once on the server. Its allocations are the output buffer plus the
//! name-compression table.

use criterion::{criterion_group, criterion_main, Criterion};
use dnswire::view::MessageView;
use dnswire::{builder, Message, Name, RData, RecordType, ResourceRecord};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator with an allocation counter, so the bench can prove
/// "alloc-free" rather than assert it.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// The packet `verify_one` classifies: a padded-to-128 A answer to the
/// sweep's stamped probe query.
fn sweep_reply() -> Message {
    let query = builder::query(
        0x3d4e,
        "se0x01234567.probe.dnsmeasure.example",
        RecordType::A,
    )
    .expect("query encodes");
    let mut reply = builder::answer(
        &query,
        vec![ResourceRecord::new(
            Name::parse("se0x01234567.probe.dnsmeasure.example").expect("name parses"),
            300,
            RData::A(Ipv4Addr::new(198, 51, 100, 53)),
        )],
    );
    reply.pad_to_block(128).expect("padding fits");
    reply
}

/// A compression-heavy response: eight A records sharing the query
/// name, the shape of a large public-resolver answer.
fn fat_reply() -> Message {
    let query = builder::query(0x1111, "big.cdn.example", RecordType::A).expect("query encodes");
    let answers = (0..8u8)
        .map(|i| {
            ResourceRecord::new(
                Name::parse("big.cdn.example").expect("name parses"),
                60,
                RData::A(Ipv4Addr::new(203, 0, 113, i)),
            )
        })
        .collect();
    builder::answer(&query, answers)
}

fn bench_decoders(c: &mut Criterion) {
    let packets = [
        ("sweep_reply_padded", sweep_reply()),
        ("fat_answer", fat_reply()),
    ];
    let expected = Ipv4Addr::new(198, 51, 100, 53);

    let mut group = c.benchmark_group("dnswire_codec");
    for (label, msg) in &packets {
        let wire = &msg.encode().expect("packet encodes");
        // Report allocations per packet once, outside the timing loop.
        let (_, encode_allocs) = allocs_during(|| {
            let bytes = msg.encode().expect("owned encode");
            drop(bytes);
        });
        let (_, owned_allocs) = allocs_during(|| {
            let msg = Message::decode(wire).expect("owned decode");
            drop(msg);
        });
        let (_, view_allocs) = allocs_during(|| {
            let view = MessageView::parse(wire).expect("view parse");
            let _ = view.first_a_answer();
        });
        eprintln!(
            "dnswire_codec/{label}: {encode_allocs} allocs/packet owned encode, \
             {owned_allocs} allocs/packet owned decode, \
             {view_allocs} allocs/packet view ({} bytes)",
            wire.len()
        );
        assert_eq!(view_allocs, 0, "view decode must be alloc-free");

        group.bench_function(&format!("owned_encode_{label}"), |b| {
            b.iter(|| std::hint::black_box(msg).encode().expect("owned encode"))
        });

        group.bench_function(&format!("owned_decode_{label}"), |b| {
            b.iter(|| {
                let msg = Message::decode(std::hint::black_box(wire)).expect("owned decode");
                let hit = msg.header.rcode == dnswire::Rcode::NoError
                    && msg.answers.iter().any(|rr| match rr.rdata {
                        RData::A(a) => a == expected,
                        _ => false,
                    });
                std::hint::black_box(hit)
            })
        });
        group.bench_function(&format!("view_decode_{label}"), |b| {
            b.iter(|| {
                let view = MessageView::parse(std::hint::black_box(wire)).expect("view parse");
                let hit = view.rcode() == dnswire::Rcode::NoError
                    && view.first_a_answer() == Some(expected);
                std::hint::black_box(hit)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decoders);
criterion_main!(benches);
