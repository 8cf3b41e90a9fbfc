//! Hostile flights against the record decoder. Every reply a junk
//! port-853 host sends during verification goes through
//! [`decode_records`], so on any input it must return a typed error or
//! records that re-encode to exactly that input, in work linear in the
//! input. Fixtures under `tests/fixtures/record_*.hex` pin the error for
//! each malformed shape.
//!
//! The `*_on_a_worker_stack` tests bound [`decode_records`] and
//! [`encode_records`] on the longest flights and payloads the record
//! format allows, on a 2 MiB thread, the size of a shard worker's stack.
//! The handshake codec's bounds, `HandshakeMsg::{encode, decode}`, are
//! `full_records_of_one_byte_are_rejected_on_a_worker_stack` in
//! `hostile_handshake.rs` and `every_proper_prefix_is_a_protocol_violation`
//! in `golden_handshake.rs`.

use proptest::prelude::*;
use tlssim::record::{decode_records, encode_records, ContentType, Record};
use tlssim::TlsError;

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
    /// The pinned `ProtocolViolation` message.
    error: &'static str,
    /// Length of the longest well-formed prefix and its record count.
    valid_prefix: (usize, usize),
}

macro_rules! fixture {
    ($name:literal, $error:literal, $valid_prefix:expr) => {
        Fixture {
            name: $name,
            hex: include_str!(concat!("fixtures/record_", $name, ".hex")),
            error: $error,
            valid_prefix: $valid_prefix,
        }
    };
}

const FIXTURES: &[Fixture] = &[
    fixture!("truncated_header", "truncated record header", (0, 0)),
    fixture!("truncated_body", "truncated record body", (0, 0)),
    fixture!("unknown_content_type", "content type 83", (0, 0)),
    fixture!("length_past_end", "truncated record body", (0, 0)),
    fixture!("zero_length_records", "content type 0", (12, 4)),
    fixture!("many_tiny_records", "truncated record body", (512, 128)),
];

/// The decoder's contract on one input: a typed error, or records that
/// re-encode to the input byte for byte.
fn assert_typed_or_exact(input: &[u8]) -> Result<(), TestCaseError> {
    match decode_records(input) {
        Ok(records) => prop_assert_eq!(encode_records(&records), input.to_vec()),
        Err(e) => prop_assert!(
            matches!(e, TlsError::ProtocolViolation(_)),
            "untyped error {:?}",
            e
        ),
    }
    Ok(())
}

#[test]
fn every_fixture_is_rejected_with_its_pinned_error() {
    for fx in FIXTURES {
        let bytes = parse_hex(fx.hex);
        assert_eq!(
            decode_records(&bytes),
            Err(TlsError::ProtocolViolation(fx.error.into())),
            "{}",
            fx.name
        );
        let (len, count) = fx.valid_prefix;
        let records = decode_records(&bytes[..len]).expect(fx.name);
        assert_eq!(records.len(), count, "{}", fx.name);
    }
}

#[test]
fn every_fixture_prefix_is_typed_or_exact() {
    for fx in FIXTURES {
        let bytes = parse_hex(fx.hex);
        for keep in 0..=bytes.len() {
            if let Err(e) = assert_typed_or_exact(&bytes[..keep]) {
                panic!("{} cut at {keep}: {e}", fx.name);
            }
        }
    }
}

fn arb_record() -> impl Strategy<Value = Record> {
    let ctype = prop_oneof![
        Just(ContentType::Handshake),
        Just(ContentType::ApplicationData),
        Just(ContentType::Alert),
    ];
    (ctype, proptest::collection::vec(any::<u8>(), 0..40))
        .prop_map(|(ctype, payload)| Record { ctype, payload })
}

proptest! {
    #[test]
    fn hostile_flights_are_typed_or_exact(
        records in proptest::collection::vec(arb_record(), 0..6),
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
        keep in any::<u16>(),
        random in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let bytes = encode_records(&records);
        prop_assert_eq!(decode_records(&bytes).unwrap(), records);
        let mut flipped = bytes.clone();
        if !flipped.is_empty() {
            for (at, val) in flips {
                let at = usize::from(at) % flipped.len();
                flipped[at] = val;
            }
        }
        let truncated = &bytes[..usize::from(keep) % (bytes.len() + 1)];
        for input in [&flipped[..], truncated, &random] {
            assert_typed_or_exact(input)?;
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

/// 4,194,304 zero-length records (12 MiB): one pass each way, and the
/// flight re-encodes byte for byte.
#[test]
fn millions_of_empty_records_round_trip_on_a_worker_stack() {
    on_a_worker_stack(|| {
        let flight = [23u8, 0, 0].repeat(1 << 22);
        let records = decode_records(&flight).expect("empty records are well formed");
        assert_eq!(records.len(), 1 << 22);
        assert!(encode_records(&records) == flight);
    });
}

/// The longest payload the 16-bit length carries round-trips.
#[test]
fn a_full_length_payload_round_trips_on_a_worker_stack() {
    on_a_worker_stack(|| {
        let record = Record {
            ctype: ContentType::ApplicationData,
            payload: vec![0xab; usize::from(u16::MAX)],
        };
        let flight = encode_records(std::slice::from_ref(&record));
        assert_eq!(flight.len(), 3 + usize::from(u16::MAX));
        assert_eq!(decode_records(&flight), Ok(vec![record]));
    });
}

/// One byte more would wrap the length field into a different flight, so
/// encoding it is a broken caller invariant, not a record.
#[test]
#[should_panic(expected = "overflows the u16 length field")]
fn a_payload_past_the_length_field_panics_on_a_worker_stack() {
    on_a_worker_stack(|| {
        encode_records(&[Record {
            ctype: ContentType::ApplicationData,
            payload: vec![0xab; usize::from(u16::MAX) + 1],
        }]);
    });
}
