//! Golden sealed-record bytes. Both ends of a simulated session seal and
//! open with the same code, so a changed keystream or tag would still
//! round-trip and show in no artifact. This test pins the bytes of one
//! sealed record, a padded DoT query under a fixed session key, and checks
//! that it opens back to the query and that a flipped tag bit is refused.
//! The fixtures under `tests/fixtures/sealed_query_*.hex` use the record
//! corpus's format: whitespace-separated hex octets, `#` comments.

use tlssim::record::{decode_records, open, seal_record, ContentType, SessionKey};
use tlssim::TlsError;

/// Parse a `.hex` fixture: whitespace-separated hex octets, `#` comments.
fn parse_hex(text: &str) -> Vec<u8> {
    text.lines()
        .map(|line| line.split('#').next().unwrap_or(""))
        .flat_map(str::split_whitespace)
        .map(|tok| u8::from_str_radix(tok, 16).expect("fixture hex octet"))
        .collect()
}

const KEY: SessionKey = SessionKey(0x0123_4567_89ab_cdef);

#[test]
fn sealed_dot_query_matches_golden_bytes() {
    let plaintext = parse_hex(include_str!("fixtures/sealed_query_plaintext.hex"));
    let expected = parse_hex(include_str!("fixtures/sealed_query_record.hex"));
    assert_eq!(plaintext.len(), 2 + 128, "a framed 128-octet padded query");
    let record = seal_record(KEY, &plaintext).expect("fits one record");
    let got = record.encode();
    assert_eq!(got.len(), expected.len(), "sealed record length");
    if let Some(at) = got.iter().zip(&expected).position(|(a, b)| a != b) {
        panic!(
            "first differing byte at offset {at}: got {:#04x}, fixture {:#04x}",
            got[at], expected[at]
        );
    }

    let records = decode_records(&expected).expect("fixture decodes");
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].ctype, ContentType::ApplicationData);
    assert_eq!(open(KEY, &records[0].payload), Ok(plaintext));

    let mut forged = records[0].payload.clone();
    let last = forged.len() - 1;
    forged[last] ^= 1;
    assert_eq!(open(KEY, &forged), Err(TlsError::BadRecordMac));
    assert_eq!(
        open(SessionKey(KEY.0 ^ 1), &records[0].payload),
        Err(TlsError::BadRecordMac)
    );
}
