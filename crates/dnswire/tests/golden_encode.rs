//! Golden owned-encode bytes. Round-trip properties accept any valid
//! compression, so these pin the exact bytes [`Message::encode`] writes
//! for three messages: the codec bench's eight-answer response, owner
//! names sharing suffixes at several depths, and a message long enough
//! that later names fall past the 0x3fff pointer-offset limit. Each
//! fixture also decodes back to the message it was built from, which
//! checks the owned copy where compression is hardest. The fixtures under
//! `tests/fixtures/` (`golden_*.hex`) use the adversarial corpus's format:
//! whitespace-separated hex octets, `#` comments.

use dnswire::edns::{EdnsOption, OptRecord};
use dnswire::{builder, Message, Name, RData, RecordType, ResourceRecord};
use std::net::Ipv4Addr;

/// Parse a `.hex` fixture: whitespace-separated hex octets, `#` comments.
fn parse_hex(text: &str) -> Vec<u8> {
    text.lines()
        .map(|line| line.split('#').next().unwrap_or(""))
        .flat_map(str::split_whitespace)
        .map(|tok| u8::from_str_radix(tok, 16).expect("fixture hex octet"))
        .collect()
}

fn name(s: &str) -> Name {
    Name::parse(s).expect("static name")
}

/// The `dnswire_codec` bench's compression-heavy response: eight A
/// records owned by the query name.
fn eight_answer_response() -> Message {
    let query = builder::query(0x1111, "big.cdn.example", RecordType::A).expect("query");
    let answers = (0..8u8)
        .map(|i| {
            ResourceRecord::new(
                name("big.cdn.example"),
                60,
                RData::A(Ipv4Addr::new(203, 0, 113, i)),
            )
        })
        .collect();
    builder::answer(&query, answers)
}

/// Owner names that share suffixes one, two and three labels deep, in
/// every section, plus an OPT record (root owner).
fn shared_suffix_response() -> Message {
    let query = builder::query(0x2a2a, "www.a.example.com", RecordType::A).expect("query");
    let mut resp = builder::answer(
        &query,
        vec![
            ResourceRecord::new(
                name("www.a.example.com"),
                300,
                RData::Cname(name("web.a.example.com")),
            ),
            ResourceRecord::new(
                name("web.a.example.com"),
                300,
                RData::A(Ipv4Addr::new(192, 0, 2, 10)),
            ),
            ResourceRecord::new(
                name("mail.b.example.com"),
                300,
                RData::A(Ipv4Addr::new(192, 0, 2, 11)),
            ),
            ResourceRecord::new(
                name("b.example.com"),
                300,
                RData::A(Ipv4Addr::new(192, 0, 2, 12)),
            ),
        ],
    );
    resp.authority.push(ResourceRecord::new(
        name("example.com"),
        3600,
        RData::Ns(name("ns1.example.net")),
    ));
    resp.authority.push(ResourceRecord::new(
        name("com"),
        3600,
        RData::Ns(name("a.gtld-servers.net")),
    ));
    resp.additional.push(ResourceRecord::new(
        name("ns1.example.net"),
        3600,
        RData::A(Ipv4Addr::new(198, 51, 100, 1)),
    ));
    resp.additional.push(ResourceRecord::new(
        name("a.gtld-servers.net"),
        3600,
        RData::A(Ipv4Addr::new(198, 51, 100, 2)),
    ));
    resp.set_opt(OptRecord {
        udp_payload: 1232,
        options: vec![EdnsOption::padding(5)],
        ..OptRecord::default()
    });
    resp
}

/// About 27 KB of TXT answers. `z0`/`z1` owners start below offset
/// 0x3fff, `z2` owners only past it, so their suffixes are never
/// pointer targets; the last two records repeat an early and a late
/// owner.
fn past_pointer_limit_response() -> Message {
    let query = builder::query(0x3fff, "txt.big.example", RecordType::Txt).expect("query");
    let mut answers: Vec<ResourceRecord> = (0..90u32)
        .map(|i| {
            let fill = b'a' + (i % 26) as u8;
            ResourceRecord::new(
                name(&format!("r{}.z{}.big.example", i % 40, i / 30)),
                120,
                RData::Txt(vec![vec![fill; 200], vec![fill; 80]]),
            )
        })
        .collect();
    answers.push(ResourceRecord::new(
        name("r5.z0.big.example"),
        120,
        RData::A(Ipv4Addr::new(203, 0, 113, 5)),
    ));
    answers.push(ResourceRecord::new(
        name("r25.z2.big.example"),
        120,
        RData::A(Ipv4Addr::new(203, 0, 113, 25)),
    ));
    builder::answer(&query, answers)
}

fn assert_golden(label: &str, msg: &Message, fixture: &str) {
    let expected = parse_hex(fixture);
    let got = msg.encode().expect("golden message encodes");
    assert_eq!(
        got.len(),
        expected.len(),
        "{label}: encoded length differs from the fixture"
    );
    if let Some(at) = got.iter().zip(&expected).position(|(a, b)| a != b) {
        panic!(
            "{label}: first differing byte at offset {at}: got {:#04x}, fixture {:#04x}",
            got[at], expected[at]
        );
    }
    let mut built = msg.clone();
    built.header.qdcount = msg.questions.len() as u16;
    built.header.ancount = msg.answers.len() as u16;
    built.header.nscount = msg.authority.len() as u16;
    built.header.arcount = msg.additional.len() as u16;
    assert_eq!(
        Message::decode(&expected).expect("golden fixture decodes"),
        built,
        "{label}: the fixture does not decode back to the built message"
    );
}

#[test]
fn eight_answer_response_matches_golden_bytes() {
    assert_golden(
        "eight_answer",
        &eight_answer_response(),
        include_str!("fixtures/golden_eight_answer.hex"),
    );
}

#[test]
fn shared_suffix_response_matches_golden_bytes() {
    assert_golden(
        "shared_suffix",
        &shared_suffix_response(),
        include_str!("fixtures/golden_shared_suffix.hex"),
    );
}

#[test]
fn past_pointer_limit_response_matches_golden_bytes() {
    let msg = past_pointer_limit_response();
    let wire = msg.encode().expect("encodes");
    let first_z2 = wire
        .windows(3)
        .position(|w| w == b"\x02z2")
        .expect("z2 owner present");
    assert!(first_z2 > 0x3fff, "z2 owners must start past 0x3fff");
    assert_golden(
        "past_pointer_limit",
        &msg,
        include_str!("fixtures/golden_past_pointer_limit.hex"),
    );
}
