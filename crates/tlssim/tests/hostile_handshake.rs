//! Hostile flights against the handshake decoder. It accepts exactly the
//! bytes [`HandshakeMsg::encode`] writes, so on any input it either
//! returns a typed error or a message that re-encodes to that input. Its
//! work is linear and it does not recurse, so a full record of nesting
//! or digits is an error even on a 2 MB worker stack.

use proptest::prelude::*;
use tlssim::cert::{Certificate, KeyId, Signature};
use tlssim::handshake::{ClientHello, HandshakeMsg, ServerHello};
use tlssim::{DateStamp, TlsError};

/// Characters that stress the string escapes: plain ASCII, the five
/// short escapes, other control bytes, DEL, JSON's optional `/` escape
/// and multi-byte UTF-8.
const CHARS: &[char] = &[
    'a', 'Z', '0', '.', '-', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}',
    '\u{c}', '\u{1f}', '\u{7f}', 'é', '中', '🦀', '\u{2028}',
];

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..CHARS.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
}

fn arb_opt_string() -> impl Strategy<Value = Option<String>> {
    prop_oneof![Just(None), arb_string().prop_map(Some)]
}

fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![any::<u64>(), 0u64..10, Just(u64::MAX)]
}

fn arb_opt_u64() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), arb_u64().prop_map(Some)]
}

fn arb_days() -> impl Strategy<Value = DateStamp> {
    prop_oneof![
        any::<i64>(),
        -1_000i64..1_000,
        Just(i64::MIN),
        Just(i64::MAX)
    ]
    .prop_map(|days| DateStamp::default() + days)
}

fn arb_cert() -> impl Strategy<Value = Certificate> {
    (
        arb_string(),
        proptest::collection::vec(arb_string(), 0..3),
        arb_string(),
        arb_u64(),
        arb_days(),
        arb_days(),
        arb_u64(),
        (arb_u64(), arb_u64()),
    )
        .prop_map(
            |(subject_cn, san, issuer_cn, serial, not_before, not_after, key, (signer, digest))| {
                Certificate {
                    subject_cn,
                    san,
                    issuer_cn,
                    serial,
                    not_before,
                    not_after,
                    key: KeyId(key),
                    signature: Signature {
                        signer: KeyId(signer),
                        digest,
                    },
                }
            },
        )
}

fn arb_msg() -> impl Strategy<Value = HandshakeMsg> {
    prop_oneof![
        (
            arb_opt_string(),
            proptest::collection::vec(arb_string(), 0..3),
            arb_u64(),
            arb_opt_u64()
        )
            .prop_map(|(sni, alpn, client_random, ticket)| {
                HandshakeMsg::ClientHello(ClientHello {
                    sni,
                    alpn,
                    client_random,
                    ticket,
                })
            }),
        (
            arb_u64(),
            arb_opt_string(),
            proptest::collection::vec(arb_cert(), 0..3),
            arb_opt_u64(),
            any::<bool>()
        )
            .prop_map(|(server_random, alpn, chain, ticket, resumed)| {
                HandshakeMsg::ServerHello(ServerHello {
                    server_random,
                    alpn,
                    chain,
                    ticket,
                    resumed,
                })
            }),
        arb_string().prop_map(HandshakeMsg::Alert),
        Just(HandshakeMsg::Finished),
    ]
}

/// Bytes a lenient JSON parser would take in places the canonical form
/// does not allow them, plus bytes that break UTF-8.
const INSERTS: &[u8] = b" \t\n0-+.,:[]{}\"\\/eu9\x80\xff";

fn error_or_canonical(input: &[u8]) -> Result<(), TestCaseError> {
    match HandshakeMsg::decode(input) {
        Ok(msg) => prop_assert_eq!(
            msg.encode(),
            input.to_vec(),
            "{:?} decoded from non-canonical bytes",
            msg
        ),
        Err(e) => prop_assert!(
            matches!(e, TlsError::ProtocolViolation(_)),
            "untyped error {:?}",
            e
        ),
    }
    Ok(())
}

proptest! {
    #[test]
    fn generated_messages_round_trip(msg in arb_msg()) {
        let bytes = msg.encode();
        prop_assert_eq!(HandshakeMsg::decode(&bytes), Ok(msg));
    }

    #[test]
    fn hostile_inputs_error_or_round_trip(
        msg in arb_msg(),
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
        inserts in proptest::collection::vec((any::<u16>(), 0..INSERTS.len()), 1..4),
        keep in any::<u16>(),
        random in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let bytes = msg.encode();
        let mut flipped = bytes.clone();
        for (at, val) in flips {
            let at = usize::from(at) % flipped.len();
            flipped[at] = val;
        }
        let mut inserted = bytes.clone();
        for (at, pick) in inserts {
            let at = usize::from(at) % (inserted.len() + 1);
            inserted.insert(at, INSERTS[pick]);
        }
        let truncated = &bytes[..usize::from(keep) % (bytes.len() + 1)];
        for input in [&flipped[..], &inserted, truncated, &random] {
            error_or_canonical(input)?;
        }
    }
}

/// Run `decode` on every input on a 2 MB stack (a shard worker's) and
/// require a protocol violation for each.
fn rejected_on_a_worker_stack(inputs: Vec<Vec<u8>>) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            for input in inputs {
                let head = String::from_utf8_lossy(&input[..input.len().min(40)]).into_owned();
                assert!(
                    matches!(
                        HandshakeMsg::decode(&input),
                        Err(TlsError::ProtocolViolation(_))
                    ),
                    "{}-byte input starting {head:?} was not rejected",
                    input.len()
                );
            }
        })
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn full_records_of_one_byte_are_rejected_on_a_worker_stack() {
    rejected_on_a_worker_stack(
        b"[{\"\\9"
            .iter()
            .map(|&b| vec![b; usize::from(u16::MAX)])
            .collect(),
    );
}

#[test]
fn deep_nesting_inside_a_server_hello_is_rejected_on_a_worker_stack() {
    let mut flight = br#"{"ServerHello":{"server_random":1,"alpn":null,"chain":["#.to_vec();
    flight.resize(flight.len() + 65_000, b'{');
    let mut strings = br#"{"Alert":""#.to_vec();
    strings.resize(strings.len() + 65_000, b'\\');
    rejected_on_a_worker_stack(vec![flight, strings]);
}

/// Near misses of the canonical form. Whitespace, another key order, the
/// `\/`, `\b`, `\f` and needless `\u` escapes and the old path's
/// leniencies are JSON that [`HandshakeMsg::encode`] never writes: each
/// would decode to a message that re-encodes differently, so each is
/// refused, as are the malformed neighbours.
#[test]
fn non_canonical_forms_are_rejected() {
    let hello = |sni: &str, rest: &str| -> Vec<u8> {
        format!(r#"{{"ClientHello":{{"sni":{sni},"alpn":[],"client_random":{rest}}}}}"#)
            .into_bytes()
    };
    let days = |not_before: &str| -> Vec<u8> {
        format!(
            concat!(
                r#"{{"ServerHello":{{"server_random":1,"alpn":null,"chain":[{{"subject_cn":"a","#,
                r#""san":[],"issuer_cn":"a","serial":0,"not_before":{},"not_after":0,"key":0,"#,
                r#""signature":{{"signer":0,"digest":0}}}}],"ticket":null,"resumed":false}}}}"#,
            ),
            not_before
        )
        .into_bytes()
    };
    // The templates themselves are canonical.
    assert!(HandshakeMsg::decode(&hello("null", r#"0,"ticket":null"#)).is_ok());
    assert!(HandshakeMsg::decode(&days("-9223372036854775808")).is_ok());

    let mut invalid_utf8 = hello(r#""dns""#, r#"0,"ticket":null"#);
    invalid_utf8[24] = 0xff;
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("leading whitespace", b" \"Finished\"".to_vec()),
        ("trailing whitespace", b"\"Finished\"\n".to_vec()),
        ("whitespace after a colon", br#"{"Alert": "x"}"#.to_vec()),
        (
            "reordered keys",
            br#"{"ClientHello":{"alpn":[],"sni":null,"client_random":0,"ticket":null}}"#.to_vec(),
        ),
        ("missing key", hello("null", "0}")),
        ("unknown key", hello("null", r#"0,"ticket":null,"x":1"#)),
        ("unknown message", br#"{"Goodbye":"x"}"#.to_vec()),
        ("escaped slash", br#"{"Alert":"a\/b"}"#.to_vec()),
        (
            "\\u escape of a printable",
            br#"{"Alert":"\u0041"}"#.to_vec(),
        ),
        ("\\u escape of a newline", br#"{"Alert":"\u000a"}"#.to_vec()),
        ("upper-case \\u escape", br#"{"Alert":"\u001F"}"#.to_vec()),
        ("\\b escape", br#"{"Alert":"\b"}"#.to_vec()),
        ("\\f escape", br#"{"Alert":"\f"}"#.to_vec()),
        ("raw control byte", b"{\"Alert\":\"a\x01b\"}".to_vec()),
        ("raw newline", b"{\"Alert\":\"a\nb\"}".to_vec()),
        ("invalid UTF-8", invalid_utf8),
        ("leading zero", hello("null", r#"01,"ticket":null"#)),
        ("plus sign", hello("null", r#"+1,"ticket":null"#)),
        ("negative u64", hello("null", r#"-1,"ticket":null"#)),
        ("fraction", hello("null", r#"1.0,"ticket":null"#)),
        ("exponent", hello("null", r#"1e3,"ticket":null"#)),
        (
            "u64 overflow",
            hello("null", r#"18446744073709551616,"ticket":null"#),
        ),
        ("negative zero", days("-0")),
        ("i64 overflow", days("9223372036854775808")),
        ("i64 underflow", days("-9223372036854775809")),
        ("leading zero in days", days("-01")),
        ("trailing bytes", b"\"Finished\"\"Finished\"".to_vec()),
        ("empty", Vec::new()),
    ];
    for (what, input) in cases {
        assert!(
            matches!(
                HandshakeMsg::decode(&input),
                Err(TlsError::ProtocolViolation(_))
            ),
            "{what}: {:?} was not rejected",
            String::from_utf8_lossy(&input)
        );
    }
}
