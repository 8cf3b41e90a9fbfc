//! The stub's wire bytes: the query names the fleet builds from labels,
//! and the replies every transport accepts.
//!
//! A fleet name is written label by label, digits included, instead of
//! being formatted as text and parsed back; it must be byte for byte the
//! name the text would parse to. A reply is validated once, on receipt,
//! and kept as those bytes: junk must still fail the query with the
//! typed error the owned decoder gives for the same bytes.

use dnswire::{builder, frame_message, Message, Name, RecordType, WireError};
use doe_protocols::machine::query_name;
use doe_protocols::{do53_udp_query, Do53TcpConn, QueryError};
use netsim::service::{FnDatagramService, FnStreamService};
use netsim::{HostMeta, Network, NetworkConfig, SimDuration};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The name the fleet used to format and parse back for the same counters.
fn parsed(completed: u32, attempt: u32, client: u64) -> Result<Name, WireError> {
    Name::parse(&format!("q{completed}a{attempt}.c{client}.pop.example"))
}

fn pop_example() -> Name {
    Name::parse("pop.example").unwrap()
}

#[test]
fn counter_extremes_build_the_parsed_name() {
    let apex = pop_example();
    for completed in [0, 1, 9, 10, u32::MAX] {
        for attempt in [0, 1, u32::MAX] {
            for client in [0, 10, u64::from(u32::MAX), u64::MAX] {
                let built = query_name(completed, attempt, client, &apex);
                assert_eq!(built, parsed(completed, attempt, client));
                assert_eq!(
                    built.unwrap().to_string(),
                    format!("q{completed}a{attempt}.c{client}.pop.example.")
                );
            }
        }
    }
}

/// A counter value: small, at an edge, or anywhere in range.
fn counter32() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0), Just(u32::MAX), 0u32..1_000, any::<u32>()]
}

fn counter64() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0), Just(u64::MAX), 0u64..1_000_000, any::<u64>()]
}

proptest! {
    #[test]
    fn label_built_names_equal_parsed_names(
        completed in counter32(),
        attempt in counter32(),
        client in counter64(),
    ) {
        let built = query_name(completed, attempt, client, &pop_example());
        prop_assert_eq!(built, parsed(completed, attempt, client));
    }
}

/// Parse a dnswire adversarial fixture: hex octets, `#` comments.
fn parse_hex(text: &str) -> Vec<u8> {
    text.lines()
        .map(|line| line.split('#').next().unwrap_or(""))
        .flat_map(str::split_whitespace)
        .map(|tok| u8::from_str_radix(tok, 16).unwrap())
        .collect()
}

/// Replies that are not DNS: trailing bytes after a message, a header cut
/// short, and a name whose pointers chain past the jump limit.
fn junk_replies() -> [(&'static str, Vec<u8>); 3] {
    [
        (
            "trailing bytes",
            include_str!("../../dnswire/tests/fixtures/trailing_bytes.hex"),
        ),
        (
            "cut header",
            include_str!("../../dnswire/tests/fixtures/truncated_header.hex"),
        ),
        (
            "pointer loop",
            include_str!("../../dnswire/tests/fixtures/pointer_chain_loop.hex"),
        ),
    ]
    .map(|(shape, hex)| (shape, parse_hex(hex)))
}

const SERVER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 53);
const CLIENT: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 9);

fn network() -> Network {
    let mut net = Network::new(NetworkConfig::default(), 13);
    net.add_host(HostMeta::new(SERVER));
    net.add_host(HostMeta::new(CLIENT));
    net
}

#[test]
fn junk_udp_replies_are_the_owned_decoders_wire_errors() {
    let query = builder::query(1, "q0a1.c7.pop.example", RecordType::A).unwrap();
    for (shape, junk) in junk_replies() {
        let expected = Message::decode(&junk).unwrap_err();
        let mut net = network();
        let reply = junk.clone();
        net.bind_udp(
            SERVER,
            53,
            Arc::new(FnDatagramService::new(move |_, _, _: &[u8]| {
                Some(reply.clone())
            })),
        );
        let result = do53_udp_query(
            &mut net,
            CLIENT,
            SERVER,
            &query,
            SimDuration::from_secs(5),
            1,
        );
        assert_eq!(result, Err(QueryError::Wire(expected)), "{shape}");
    }
}

#[test]
fn junk_tcp_replies_are_the_owned_decoders_wire_errors() {
    let query = builder::query(2, "q0a1.c7.pop.example", RecordType::A).unwrap();
    for (shape, junk) in junk_replies() {
        let expected = Message::decode(&junk).unwrap_err();
        let mut net = network();
        let framed = frame_message(&junk).unwrap();
        net.bind_tcp(
            SERVER,
            53,
            Arc::new(FnStreamService::new(
                move |_, _, _: &[u8]| framed.clone(),
                "junk-dns",
            )),
        );
        let mut conn =
            Do53TcpConn::connect(&mut net, CLIENT, SERVER, SimDuration::from_secs(5)).unwrap();
        let result = conn.query(&mut net, &query);
        assert_eq!(result, Err(QueryError::Wire(expected)), "{shape}");
        conn.close(&mut net);
    }
}
