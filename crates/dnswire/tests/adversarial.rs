//! Adversarial wire-format corpus: every fixture under `tests/fixtures/` is
//! a hand-built hostile message (truncations, compression-pointer abuse,
//! length overflows, misplaced OPT). [`MessageView::parse`], the one
//! validation walk, must reject each with its pinned typed [`WireError`],
//! and never panic; the owned [`Message::decode`], which is that parse plus
//! a copy, must return the same error.

use dnswire::view::MessageView;
use dnswire::{Message, WireError};

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
