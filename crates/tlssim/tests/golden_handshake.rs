//! Golden handshake bytes. netsim charges transmission time per byte, so
//! the exact text [`HandshakeMsg::encode`] writes is part of every
//! latency the study reports. These fixtures were captured from the
//! serde-derived JSON encoder the codec replaced. They pin the field
//! order, `null` and `[]`, `u64::MAX` and negative day counts, and every
//! string escape. Each fixture also decodes back to the message it was
//! built from, and every proper prefix of one is a typed error.
//!
//! The literals are raw strings, so each one is exactly the payload's
//! UTF-8 bytes.

use tlssim::cert::{Certificate, KeyId, Signature};
use tlssim::handshake::{ClientHello, HandshakeMsg, ServerHello};
use tlssim::{DateStamp, TlsError};

const CLIENT_HELLO_BARE: &str =
    r#"{"ClientHello":{"sni":null,"alpn":[],"client_random":0,"ticket":null}}"#;

const CLIENT_HELLO_RESUME: &str = concat!(
    r#"{"ClientHello":{"sni":"dns.example.com","alpn":["dot","h2"],"#,
    r#""client_random":81985529216486895,"ticket":18446744073709551615}}"#,
);

const SERVER_HELLO_CHAIN: &str = concat!(
    r#"{"ServerHello":{"server_random":9223372036854775808,"alpn":"dot","chain":["#,
    r#"{"subject_cn":"dns.example.com","san":["*.example.com","one.one.one.one"],"#,
    r#""issuer_cn":"Example Root CA","serial":18446744073709551615,"#,
    r#""not_before":-31,"not_after":18293,"key":2,"#,
    r#""signature":{"signer":1,"digest":16045690981293355021}},"#,
    r#"{"subject_cn":"Example Root CA","san":[],"issuer_cn":"Example Root CA","serial":1,"#,
    r#""not_before":-25567,"not_after":47482,"key":1,"signature":{"signer":1,"digest":0}}"#,
    r#"],"ticket":7,"resumed":false}}"#,
);

const SERVER_HELLO_NO_ALPN: &str = concat!(
    r#"{"ServerHello":{"server_random":1,"alpn":null,"chain":["#,
    r#"{"subject_cn":"FGT60D","san":[],"issuer_cn":"FGT60D","serial":0,"#,
    r#""not_before":17897,"not_after":21547,"key":5,"signature":{"signer":5,"digest":42}}"#,
    r#"],"ticket":null,"resumed":false}}"#,
);

const SERVER_HELLO_RESUMED: &str = concat!(
    r#"{"ServerHello":{"server_random":99,"alpn":"h2","chain":[],"#,
    r#""ticket":18446744073709551615,"resumed":true}}"#,
);

const ALERT_ESCAPES: &str =
    r#"{"Alert":"say \"hi\" to C:\\dns\nnext\u0001line\ttab\rcr\u001funit café 中 🦀"}"#;

const FINISHED: &str = r#""Finished""#;

fn cert(
    subject_cn: &str,
    san: &[&str],
    issuer_cn: &str,
    serial: u64,
    validity_days: (i64, i64),
    key: u64,
    signature: (u64, u64),
) -> Certificate {
    Certificate {
        subject_cn: subject_cn.into(),
        san: san.iter().map(|s| s.to_string()).collect(),
        issuer_cn: issuer_cn.into(),
        serial,
        not_before: DateStamp::default() + validity_days.0,
        not_after: DateStamp::default() + validity_days.1,
        key: KeyId(key),
        signature: Signature {
            signer: KeyId(signature.0),
            digest: signature.1,
        },
    }
}

/// Every fixture with the message it encodes.
fn pinned() -> Vec<(&'static str, HandshakeMsg)> {
    let leaf = cert(
        "dns.example.com",
        &["*.example.com", "one.one.one.one"],
        "Example Root CA",
        u64::MAX,
        (-31, 18_293),
        2,
        (1, 0xdead_beef_0bad_f00d),
    );
    let root = cert(
        "Example Root CA",
        &[],
        "Example Root CA",
        1,
        (-25_567, 47_482),
        1,
        (1, 0),
    );
    let appliance = cert("FGT60D", &[], "FGT60D", 0, (17_897, 21_547), 5, (5, 42));
    vec![
        (
            CLIENT_HELLO_BARE,
            HandshakeMsg::ClientHello(ClientHello {
                sni: None,
                alpn: vec![],
                client_random: 0,
                ticket: None,
            }),
        ),
        (
            CLIENT_HELLO_RESUME,
            HandshakeMsg::ClientHello(ClientHello {
                sni: Some("dns.example.com".into()),
                alpn: vec!["dot".into(), "h2".into()],
                client_random: 0x0123_4567_89ab_cdef,
                ticket: Some(u64::MAX),
            }),
        ),
        (
            SERVER_HELLO_CHAIN,
            HandshakeMsg::ServerHello(ServerHello {
                server_random: 1 << 63,
                alpn: Some("dot".into()),
                chain: vec![leaf, root],
                ticket: Some(7),
                resumed: false,
            }),
        ),
        (
            SERVER_HELLO_NO_ALPN,
            HandshakeMsg::ServerHello(ServerHello {
                server_random: 1,
                alpn: None,
                chain: vec![appliance],
                ticket: None,
                resumed: false,
            }),
        ),
        (
            SERVER_HELLO_RESUMED,
            HandshakeMsg::ServerHello(ServerHello {
                server_random: 99,
                alpn: Some("h2".into()),
                chain: vec![],
                ticket: Some(u64::MAX),
                resumed: true,
            }),
        ),
        (
            ALERT_ESCAPES,
            HandshakeMsg::Alert(
                "say \"hi\" to C:\\dns\nnext\u{1}line\ttab\rcr\u{1f}unit café 中 🦀".into(),
            ),
        ),
        (FINISHED, HandshakeMsg::Finished),
    ]
}

#[test]
fn encoder_writes_the_pinned_bytes() {
    for (golden, msg) in pinned() {
        assert_eq!(
            String::from_utf8_lossy(&msg.encode()),
            golden,
            "{msg:?} encodes differently"
        );
    }
}

#[test]
fn pinned_bytes_decode_to_their_messages() {
    for (golden, msg) in pinned() {
        assert_eq!(HandshakeMsg::decode(golden.as_bytes()), Ok(msg));
    }
}

/// A flight cut short anywhere is a protocol violation, never a panic or
/// a shorter message; run on a 2 MB stack, the size of a shard worker's.
#[test]
fn every_proper_prefix_is_a_protocol_violation() {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            for (golden, _) in pinned() {
                for end in 0..golden.len() {
                    let prefix = &golden.as_bytes()[..end];
                    assert!(
                        matches!(
                            HandshakeMsg::decode(prefix),
                            Err(TlsError::ProtocolViolation(_))
                        ),
                        "prefix {:?} was not rejected",
                        String::from_utf8_lossy(prefix)
                    );
                }
            }
        })
        .unwrap()
        .join()
        .unwrap();
}
