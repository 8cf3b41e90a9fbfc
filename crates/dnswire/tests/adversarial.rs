//! Adversarial wire-format corpus: every fixture under `tests/fixtures/` is
//! a hand-built hostile message (truncations, compression-pointer abuse,
//! length overflows, misplaced OPT). [`MessageView::parse`], the one
//! validation walk, must reject each with its pinned typed [`WireError`],
//! and never panic; the owned [`Message::decode`], which is that parse plus
//! a copy, must return the same error.
//!
//! The `*_on_a_worker_stack` tests bound the work of the crate's wire
//! entry points — [`MessageView::parse`], [`Message::decode`],
//! [`Message::encode`], [`ResourceRecord::encode`] and [`Name::parse`] —
//! on the deepest and longest input the formats allow, run on a 2 MiB
//! thread, the size of a shard worker's stack.

use dnswire::name::CompressionTable;
use dnswire::view::MessageView;
use dnswire::{Message, Name, RData, RecordClass, RecordType, ResourceRecord, WireError};

/// Parse a `.hex` fixture: whitespace-separated hex octets, `#` comments.
fn parse_hex(text: &str) -> Vec<u8> {
    text.lines()
        .map(|line| line.split('#').next().unwrap_or(""))
        .flat_map(str::split_whitespace)
        .map(|tok| u8::from_str_radix(tok, 16).expect("fixture hex octet"))
        .collect()
}

struct Fixture {
    name: &'static str,
    hex: &'static str,
    expect: fn(&WireError) -> bool,
}

macro_rules! fixture {
    ($name:literal, $pat:pat) => {
        Fixture {
            name: $name,
            hex: include_str!(concat!("fixtures/", $name, ".hex")),
            expect: |e| matches!(e, $pat),
        }
    };
}

const FIXTURES: &[Fixture] = &[
    fixture!(
        "truncated_header",
        WireError::Truncated {
            expecting: "header"
        }
    ),
    fixture!(
        "truncated_question",
        WireError::Truncated {
            expecting: "name label length"
        }
    ),
    fixture!(
        "truncated_label",
        WireError::Truncated {
            expecting: "name label"
        }
    ),
    fixture!("forward_pointer", WireError::BadPointer(32)),
    fixture!("self_pointer", WireError::BadPointer(12)),
    fixture!("pointer_chain_loop", WireError::PointerLoop),
    fixture!("name_overflow", WireError::NameTooLong(257)),
    fixture!("bad_label_type", WireError::BadLabelType(0x40)),
    fixture!(
        "bad_rdata_a",
        WireError::BadRdataLength { rtype: 1, found: 3 }
    ),
    fixture!(
        "truncated_rdata",
        WireError::Truncated { expecting: "rdata" }
    ),
    fixture!(
        "truncated_rr_fixed",
        WireError::Truncated {
            expecting: "rr fixed fields"
        }
    ),
    fixture!("trailing_bytes", WireError::TrailingBytes(1)),
    fixture!("opt_in_answer", WireError::MisplacedOpt),
    fixture!("duplicate_opt", WireError::MisplacedOpt),
    fixture!(
        "txt_truncated_segment",
        WireError::Truncated {
            expecting: "txt segment"
        }
    ),
    fixture!(
        "mx_short_rdata",
        WireError::BadRdataLength {
            rtype: 15,
            found: 2
        }
    ),
    fixture!(
        "cname_overrun_rdata",
        WireError::BadRdataLength { rtype: 5, found: 2 }
    ),
];

#[test]
fn every_fixture_is_rejected_with_its_pinned_error() {
    for fx in FIXTURES {
        let bytes = parse_hex(fx.hex);
        let err = MessageView::parse(&bytes).expect_err(fx.name);
        assert!((fx.expect)(&err), "{}: unexpected {err:?}", fx.name);
        assert_eq!(
            Message::decode(&bytes).expect_err(fx.name),
            err,
            "{}: owned decode returned a different error",
            fx.name
        );
    }
}

#[test]
fn every_fixture_prefix_is_handled_without_panicking() {
    // Each fixture, truncated at every possible length: a typed error, or
    // for a prefix that happens to form a valid message, its copy. The
    // owned decode runs both the parse and the copy.
    for fx in FIXTURES {
        let bytes = parse_hex(fx.hex);
        for keep in 0..bytes.len() {
            let _ = Message::decode(&bytes[..keep]);
        }
    }
}

/// Run `f` on a 2 MiB thread, the size of a shard worker's stack, and
/// re-raise its panic, if any, on the test thread.
fn on_a_worker_stack(f: impl FnOnce() + Send + 'static) {
    let worker = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn a 2 MiB worker");
    if let Err(panic) = worker.join() {
        std::panic::resume_unwind(panic);
    }
}

/// The highest offset a 14-bit compression pointer can name.
const MAX_POINTER_TARGET: usize = 0x3fff;

/// A response header (id 7, QR set) with `ancount` answers and no other
/// section.
fn header(ancount: u16) -> Vec<u8> {
    let mut h = vec![0, 7, 0x81, 0x80, 0, 0];
    h.extend_from_slice(&ancount.to_be_bytes());
    h.extend_from_slice(&[0, 0, 0, 0]);
    h
}

/// A compression pointer to `target`.
fn pointer(target: usize) -> [u8; 2] {
    assert!(target <= MAX_POINTER_TARGET, "pointer target {target:#x}");
    (0xc000 | target as u16).to_be_bytes()
}

/// The fixed fields after an owner name: type, class IN, TTL 60, RDLENGTH.
fn fixed_fields(rtype: u16, rdlen: usize) -> [u8; 10] {
    let [t0, t1] = rtype.to_be_bytes();
    let [l0, l1] = u16::try_from(rdlen).expect("rdlength fits").to_be_bytes();
    [t0, t1, 0, 1, 0, 0, 0, 60, l0, l1]
}

/// The deepest pointer chain the format allows: one opaque RDATA holding
/// a backward pointer in every 2-octet slot up to offset 0x3fff, each aimed
/// at the one before it (the first at the root owner), then an answer whose
/// owner points at the last. Without the 64-jump limit the walk would
/// follow all 8,181 pointers down to the root and accept the message.
#[test]
fn deepest_pointer_chain_is_a_pointer_loop_on_a_worker_stack() {
    on_a_worker_stack(|| {
        let mut msg = header(2);
        let root_owner = msg.len();
        msg.push(0);
        let rdata_start = msg.len() + 10;
        let slots = (MAX_POINTER_TARGET - rdata_start) / 2 + 1;
        msg.extend_from_slice(&fixed_fields(0xff00, 2 * slots));
        let mut target = root_owner;
        for _ in 0..slots {
            let here = msg.len();
            msg.extend_from_slice(&pointer(target));
            target = here;
        }
        // The last pointer fills the last slot a pointer can name.
        assert_eq!(slots, 8_181);
        assert!(target <= MAX_POINTER_TARGET && target + 2 > MAX_POINTER_TARGET);
        msg.extend_from_slice(&pointer(target));
        msg.extend_from_slice(&fixed_fields(1, 4));
        msg.extend_from_slice(&[192, 0, 2, 1]);

        assert_eq!(MessageView::parse(&msg).err(), Some(WireError::PointerLoop));
        assert_eq!(Message::decode(&msg).err(), Some(WireError::PointerLoop));
    });
}

/// 4,095 `A` answers fill a 16-bit message, each owner a pointer to the
/// previous owner (past offset 0x3fff, to the last one a pointer can
/// name): the walk stops at the 66th answer, 65 jumps from the root owner
/// of the first.
#[test]
fn pointer_chain_across_answers_is_a_pointer_loop_on_a_worker_stack() {
    on_a_worker_stack(|| {
        let answers = 4_095u16;
        let mut msg = header(answers);
        let mut previous = msg.len();
        msg.push(0);
        msg.extend_from_slice(&fixed_fields(1, 4));
        msg.extend_from_slice(&[192, 0, 2, 1]);
        for _ in 1..answers {
            let here = msg.len();
            msg.extend_from_slice(&pointer(previous));
            msg.extend_from_slice(&fixed_fields(1, 4));
            msg.extend_from_slice(&[192, 0, 2, 1]);
            if here <= MAX_POINTER_TARGET {
                previous = here;
            }
        }
        assert!(msg.len() <= usize::from(u16::MAX));

        assert_eq!(MessageView::parse(&msg).err(), Some(WireError::PointerLoop));
        assert_eq!(Message::decode(&msg).err(), Some(WireError::PointerLoop));
    });
}

/// As many answers as fit a 16-bit message, each owner one label plus a
/// pointer to an earlier owner, nested up to 60 deep (at most 59 jumps
/// and 121 octets: inside both limits). The decode must accept them, and
/// the compressed re-encode must decode back to the same message.
#[test]
fn deep_accepted_names_decode_and_re_encode_on_a_worker_stack() {
    const DEPTH: usize = 60;
    on_a_worker_stack(|| {
        let answer_len = 4 + 10 + 4;
        let answers = (usize::from(u16::MAX) - 12 - 1) / answer_len;
        let mut msg = header(u16::try_from(answers).expect("count fits"));
        let mut owners = Vec::with_capacity(answers);
        for i in 0..answers {
            owners.push(msg.len());
            msg.extend_from_slice(&[1, b'a' + (i % 26) as u8]);
            match i {
                0 => msg.push(0),
                // The first DEPTH owners chain one below the other; every
                // later owner hangs one label below one of the first
                // DEPTH - 1, so no name is deeper than DEPTH labels.
                i if i < DEPTH => msg.extend_from_slice(&pointer(owners[i - 1])),
                i => msg.extend_from_slice(&pointer(owners[i % (DEPTH - 1)])),
            }
            msg.extend_from_slice(&fixed_fields(1, 4));
            msg.extend_from_slice(&(i as u32).to_be_bytes());
        }
        assert!(msg.len() <= usize::from(u16::MAX));

        let view = MessageView::parse(&msg).expect("deep names within both limits parse");
        let decoded = Message::decode(&msg).expect("deep names within both limits decode");
        assert_eq!(view.to_message(), decoded);
        assert_eq!(decoded.answers.len(), answers);
        let deepest = decoded.answers.iter().map(|rr| rr.name.label_count()).max();
        assert_eq!(deepest, Some(DEPTH));

        let wire = decoded.encode().expect("re-encode fits 16 bits");
        assert_eq!(Message::decode(&wire), Ok(decoded));
    });
}

/// `ResourceRecord::encode` refuses RDATA longer than its 16-bit length
/// field instead of wrapping it.
#[test]
fn oversized_rdata_is_refused_on_a_worker_stack() {
    on_a_worker_stack(|| {
        let rr = ResourceRecord {
            name: Name::root(),
            rtype: RecordType::Other(0xff00),
            class: RecordClass::In,
            ttl: 60,
            rdata: RData::Opaque(vec![0; 1 << 16]),
        };
        let mut buf = Vec::new();
        assert_eq!(
            rr.encode(&mut buf, &mut CompressionTable::new()),
            Err(WireError::MessageTooLong(1 << 16))
        );
    });
}

/// 1 MiB presentation names: each is refused with its typed error after
/// one linear pass.
#[test]
fn mebibyte_presentation_names_are_refused_on_a_worker_stack() {
    on_a_worker_stack(|| {
        const MIB: usize = 1 << 20;
        assert!(matches!(
            Name::parse(&"a.".repeat(MIB / 2)),
            Err(WireError::NameTooLong(_))
        ));
        assert!(matches!(
            Name::parse(&".".repeat(MIB)),
            Err(WireError::BadPresentation(_))
        ));
        assert_eq!(
            Name::parse(&"\\".repeat(MIB)),
            Err(WireError::LabelTooLong(MIB))
        );
        assert_eq!(
            Name::parse(&"a".repeat(MIB)),
            Err(WireError::LabelTooLong(MIB))
        );
    });
}
