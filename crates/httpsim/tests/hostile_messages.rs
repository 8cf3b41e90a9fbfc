//! Hostile HTTP messages against the request and response decoders. A DoH
//! client decodes every reply a simulated server sends, and a DoH server
//! every request, so on any input each decoder must return a typed
//! [`HttpError`] or a message whose encoding decodes back to the same
//! fields and re-encodes to the same bytes. Fixtures under
//! `tests/fixtures/*.hex` pin the error for each malformed shape, in the
//! DNS corpus's format: whitespace-separated hex octets, `#` comments.
//!
//! DoH discovery parses every crawled corpus URL, so mutated URLs and
//! templates must give `None` or a value whose text parses back to the
//! same value, and mutated base64url must decode only where it is the
//! canonical encoding.
//!
//! The `*_on_a_worker_stack` tests bound [`Request::encode`],
//! [`Request::decode`], [`Response::encode`], [`Response::decode`],
//! [`Url::parse`] and [`UriTemplate::parse`] on long heads, many headers
//! and mebibyte URLs, on a 2 MiB thread, the size of a shard worker's
//! stack.

use httpsim::{base64url_decode, base64url_encode, HttpError, Request, Response, UriTemplate, Url};
use proptest::prelude::*;

/// Parse a `.hex` fixture: whitespace-separated hex octets, `#` comments.
fn parse_hex(text: &str) -> Vec<u8> {
    text.lines()
        .map(|line| line.split('#').next().unwrap_or(""))
        .flat_map(str::split_whitespace)
        .map(|tok| u8::from_str_radix(tok, 16).expect("fixture hex octet"))
        .collect()
}

/// Which decoder a fixture is fed to.
#[derive(Clone, Copy, Debug)]
enum Side {
    Request,
    Response,
}

struct Fixture {
    name: &'static str,
    hex: &'static str,
    side: Side,
    error: fn() -> HttpError,
}

macro_rules! fixture {
    ($side:ident, $name:literal, $error:expr) => {
        Fixture {
            name: $name,
            hex: include_str!(concat!("fixtures/", $name, ".hex")),
            side: Side::$side,
            error: || $error,
        }
    };
}

fn bad_start(line: &str) -> HttpError {
    HttpError::BadStartLine(line.into())
}

fn bad_header(line: &str) -> HttpError {
    HttpError::BadHeader(line.into())
}

const FIXTURES: &[Fixture] = &[
    fixture!(
        Request,
        "request_no_head_terminator",
        HttpError::MissingHeaderTerminator
    ),
    fixture!(Request, "request_empty_head", bad_start("")),
    fixture!(
        Request,
        "request_short_start_line",
        bad_start("GET /dns-query")
    ),
    fixture!(
        Request,
        "request_not_http_version",
        bad_start("GET /dns-query FTP/1.0")
    ),
    fixture!(
        Request,
        "request_header_without_colon",
        bad_header("Host dns.example")
    ),
    fixture!(Request, "request_head_not_utf8", HttpError::BadEncoding),
    fixture!(
        Request,
        "request_length_past_body",
        HttpError::TruncatedBody {
            expected: 33,
            found: 12
        }
    ),
    fixture!(
        Request,
        "request_length_not_numeric",
        bad_header("Content-Length: 12abc")
    ),
    fixture!(
        Request,
        "request_length_twice",
        HttpError::ConflictingLength {
            first: 40,
            second: 4
        }
    ),
    fixture!(
        Response,
        "response_no_head_terminator",
        HttpError::MissingHeaderTerminator
    ),
    fixture!(Response, "response_short_start_line", bad_start("HTTP/1.1")),
    fixture!(
        Response,
        "response_not_http_version",
        bad_start("ICY 200 OK")
    ),
    fixture!(
        Response,
        "response_status_not_numeric",
        bad_start("HTTP/1.1 2OO OK")
    ),
    fixture!(
        Response,
        "response_status_overflow",
        bad_start("HTTP/1.1 65536 OK")
    ),
    fixture!(
        Response,
        "response_header_without_colon",
        bad_header("Cache-Control max-age=60")
    ),
    fixture!(Response, "response_head_not_utf8", HttpError::BadEncoding),
    fixture!(
        Response,
        "response_length_past_body",
        HttpError::TruncatedBody {
            expected: 468,
            found: 5
        }
    ),
    fixture!(
        Response,
        "response_length_overflow",
        bad_header("Content-Length: 18446744073709551616")
    ),
    fixture!(
        Response,
        "response_length_twice",
        HttpError::ConflictingLength {
            first: 9,
            second: 5
        }
    ),
];

/// Decode `input` on `side`: the typed error, or `None` for a message whose
/// encoding decodes to the same fields and re-encodes to the same bytes.
fn typed_or_round_trips(side: Side, input: &[u8]) -> Result<Option<HttpError>, TestCaseError> {
    match side {
        Side::Request => {
            let req = match Request::decode(input) {
                Ok(req) => req,
                Err(e) => return Ok(Some(e)),
            };
            let wire = req.encode();
            let back = Request::decode(&wire);
            prop_assert!(back.is_ok(), "re-decode of {:?}: {:?}", req, back);
            let back = back.expect("checked above");
            prop_assert_eq!(&back.method, &req.method);
            prop_assert_eq!(&back.target, &req.target);
            prop_assert_eq!(&back.body, &req.body);
            prop_assert_eq!(back.encode(), wire);
        }
        Side::Response => {
            let resp = match Response::decode(input) {
                Ok(resp) => resp,
                Err(e) => return Ok(Some(e)),
            };
            let wire = resp.encode();
            let back = Response::decode(&wire);
            prop_assert!(back.is_ok(), "re-decode of {:?}: {:?}", resp, back);
            let back = back.expect("checked above");
            prop_assert_eq!(back.status, resp.status);
            prop_assert_eq!(&back.reason, &resp.reason);
            prop_assert_eq!(&back.body, &resp.body);
            prop_assert_eq!(back.encode(), wire);
        }
    }
    Ok(None)
}

#[test]
fn every_fixture_is_rejected_with_its_pinned_error() {
    for fx in FIXTURES {
        let bytes = parse_hex(fx.hex);
        let err = match fx.side {
            Side::Request => Request::decode(&bytes).map(drop),
            Side::Response => Response::decode(&bytes).map(drop),
        };
        assert_eq!(err, Err((fx.error)()), "{}", fx.name);
    }
}

#[test]
fn every_fixture_prefix_is_typed_or_round_trips() {
    for fx in FIXTURES {
        let bytes = parse_hex(fx.hex);
        for keep in 0..=bytes.len() {
            if let Err(e) = typed_or_round_trips(fx.side, &bytes[..keep]) {
                panic!("{} cut at {keep}: {e}", fx.name);
            }
        }
    }
}

fn arb_token() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z][A-Za-z0-9-]{0,12}").expect("regex")
}

fn arb_header_value() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~&&[^:\r\n]]{0,30}").expect("regex")
}

fn arb_headers() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec((arb_token(), arb_header_value()), 0..5)
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        proptest::string::string_regex("/[a-z0-9/?=&._-]{0,30}").expect("regex"),
        arb_headers(),
        proptest::collection::vec(any::<u8>(), 0..120),
        any::<bool>(),
    )
        .prop_map(|(target, headers, body, post)| {
            let mut req = if post {
                Request::post(&target, "application/dns-message", body)
            } else {
                Request::get(&target)
            };
            for (name, value) in &headers {
                req = req.with_header(name, value.trim());
            }
            req
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        100u16..600,
        proptest::string::string_regex("[A-Za-z ]{0,12}").expect("regex"),
        arb_headers(),
        proptest::collection::vec(any::<u8>(), 0..120),
    )
        .prop_map(|(status, reason, headers, body)| {
            let mut resp = Response::status(status, &reason);
            resp.body = body;
            for (name, value) in &headers {
                resp = resp.with_header(name, value.trim());
            }
            resp
        })
}

/// `bytes` with up to three octets overwritten, cut at `keep`, and
/// `random` alone: the three hostile inputs one case feeds each decoder.
fn mutations(bytes: &[u8], flips: &[(u16, u8)], keep: u16, random: &[u8]) -> [Vec<u8>; 3] {
    let mut flipped = bytes.to_vec();
    for &(at, val) in flips {
        let at = usize::from(at) % flipped.len();
        flipped[at] = val;
    }
    let truncated = bytes[..usize::from(keep) % (bytes.len() + 1)].to_vec();
    [flipped, truncated, random.to_vec()]
}

proptest! {
    #[test]
    fn hostile_requests_are_typed_or_round_trip(
        req in arb_request(),
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
        keep in any::<u16>(),
        random in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let bytes = req.encode();
        prop_assert_eq!(typed_or_round_trips(Side::Request, &bytes)?, None);
        for input in mutations(&bytes, &flips, keep, &random) {
            typed_or_round_trips(Side::Request, &input)?;
        }
    }

    #[test]
    fn hostile_responses_are_typed_or_round_trip(
        resp in arb_response(),
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
        keep in any::<u16>(),
        random in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let bytes = resp.encode();
        prop_assert_eq!(typed_or_round_trips(Side::Response, &bytes)?, None);
        for input in mutations(&bytes, &flips, keep, &random) {
            typed_or_round_trips(Side::Response, &input)?;
        }
    }
}

/// Characters that carry meaning in a URL or a template, plus a few that
/// do not: the alphabet mutations draw from.
const URL_CHARS: &[char] = &[
    '/', '?', '#', '@', ':', '[', ']', '{', '}', '.', '=', '&', '%', '-', '_', 'a', 'Z', '0', '9',
    ' ', 'é',
];

fn url_char(c: u8) -> char {
    URL_CHARS[usize::from(c) % URL_CHARS.len()]
}

fn arb_url_text() -> impl Strategy<Value = String> {
    (
        any::<bool>(),
        "[A-Za-z0-9.-]{1,20}",
        prop_oneof![Just(None), any::<u16>().prop_map(Some)],
        "(/[a-z0-9._-]{0,10}){0,3}",
        prop_oneof![Just(None), "[a-z0-9=&]{0,12}".prop_map(Some)],
        any::<bool>(),
    )
        .prop_map(|(https, host, port, path, query, var)| {
            let scheme = if https { "https" } else { "http" };
            let mut text = format!("{scheme}://{host}");
            if let Some(port) = port {
                text.push_str(&format!(":{port}"));
            }
            text.push_str(&path);
            match query {
                Some(query) => text.push_str(&format!("?{query}")),
                None if var => text.push_str("{?dns}"),
                None => {}
            }
            text
        })
}

/// `text` with up to three characters overwritten from `URL_CHARS`, with
/// one inserted, and cut at `keep`.
fn mutated_texts(text: &str, flips: &[(u16, u8)], keep: u16) -> [String; 3] {
    let chars: Vec<char> = text.chars().collect();
    let mut flipped = chars.clone();
    for &(at, c) in flips {
        let at = usize::from(at) % flipped.len();
        flipped[at] = url_char(c);
    }
    let mut inserted = chars.clone();
    let (at, c) = flips[0];
    inserted.insert(usize::from(at) % (chars.len() + 1), url_char(c));
    let truncated = &chars[..usize::from(keep) % (chars.len() + 1)];
    [
        flipped.into_iter().collect(),
        inserted.into_iter().collect(),
        truncated.iter().collect(),
    ]
}

/// The parsers' contract on one input: `None`, or a value whose text
/// parses back to the same value.
fn none_or_display_round_trips(input: &str) -> Result<(), TestCaseError> {
    if let Some(url) = Url::parse(input) {
        prop_assert_eq!(Url::parse(&url.to_string()), Some(url), "from {:?}", input);
    }
    if let Some(template) = UriTemplate::parse(input) {
        prop_assert_eq!(
            UriTemplate::parse(&template.to_string()),
            Some(template),
            "from {:?}",
            input
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn hostile_urls_are_none_or_display_round_trip(
        text in arb_url_text(),
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
        keep in any::<u16>(),
        random in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        none_or_display_round_trips(&text)?;
        prop_assert!(UriTemplate::parse(&text).is_some(), "generated {:?}", text);
        for input in mutated_texts(&text, &flips, keep) {
            none_or_display_round_trips(&input)?;
        }
        let random: String = random.into_iter().map(url_char).collect();
        none_or_display_round_trips(&format!("https://{random}"))?;
    }

    #[test]
    fn hostile_base64url_decodes_only_canonical_text(
        data in proptest::collection::vec(any::<u8>(), 1..64),
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
        keep in any::<u16>(),
    ) {
        let text = base64url_encode(&data);
        let mut flipped = text.clone().into_bytes();
        for (at, c) in flips {
            let at = usize::from(at) % flipped.len();
            flipped[at] = b"AZaz09-_Qgw+/= "[usize::from(c) % 15];
        }
        let flipped = String::from_utf8(flipped).expect("ASCII");
        let truncated = &text[..usize::from(keep) % (text.len() + 1)];
        for input in [flipped.as_str(), truncated] {
            if let Some(bytes) = base64url_decode(input) {
                prop_assert_eq!(base64url_encode(&bytes), input);
            }
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

const MIB: usize = 1 << 20;

/// 262,144 header lines (1.5 MiB) in one head decode, on both sides.
#[test]
fn a_quarter_million_header_lines_decode_on_a_worker_stack() {
    on_a_worker_stack(|| {
        let lines = "a: b\r\n".repeat(1 << 18);
        let request = format!("GET /dns-query HTTP/1.1\r\n{lines}\r\n");
        assert_eq!(
            Request::decode(request.as_bytes()).map(|r| r.headers.len()),
            Ok(1 << 18)
        );
        let response = format!("HTTP/1.1 200 OK\r\n{lines}\r\n");
        assert_eq!(
            Response::decode(response.as_bytes()).map(|r| r.headers.len()),
            Ok(1 << 18)
        );
    });
}

/// 131,072 equal `Content-Length` headers agree, so the body decodes.
#[test]
fn many_equal_content_lengths_decode_on_a_worker_stack() {
    on_a_worker_stack(|| {
        let lengths = "Content-Length: 4\r\n".repeat(1 << 17);
        let request = format!("POST /dns-query HTTP/1.1\r\n{lengths}\r\nabcdef");
        assert_eq!(
            Request::decode(request.as_bytes()).map(|r| r.body),
            Ok(b"abcd".to_vec())
        );
        let response = format!("HTTP/1.1 200 OK\r\n{lengths}\r\nabcdef");
        assert_eq!(
            Response::decode(response.as_bytes()).map(|r| r.body),
            Ok(b"abcd".to_vec())
        );
    });
}

/// A 4 MiB head that never ends is a typed error, not a hang.
#[test]
fn an_unterminated_mebibyte_head_is_refused_on_a_worker_stack() {
    on_a_worker_stack(|| {
        let mut head = b"GET /dns-query HTTP/1.1\r\n".to_vec();
        head.resize(4 * MIB, b'a');
        assert_eq!(
            Request::decode(&head),
            Err(HttpError::MissingHeaderTerminator)
        );
        assert_eq!(
            Response::decode(&head),
            Err(HttpError::MissingHeaderTerminator)
        );
    });
}

/// 100,000 headers encode, and decode back to the same message.
#[test]
fn a_hundred_thousand_headers_round_trip_on_a_worker_stack() {
    on_a_worker_stack(|| {
        let headers: Vec<(String, String)> = (0..100_000)
            .map(|i| (format!("X-{i}"), format!("v{i}")))
            .collect();
        let mut request = Request::post("/dns-query", "application/dns-message", vec![7; 33]);
        request.headers.extend(headers.iter().cloned());
        let mut expect = request.clone();
        expect
            .headers
            .push(("Content-Length".to_string(), "33".to_string()));
        assert_eq!(Request::decode(&request.encode()), Ok(expect));

        let mut response = Response::ok("application/dns-message", vec![9; 45]);
        response.headers.extend(headers);
        let mut expect = response.clone();
        expect
            .headers
            .push(("Content-Length".to_string(), "45".to_string()));
        assert_eq!(Response::decode(&response.encode()), Ok(expect));
    });
}

/// Mebibyte URLs and templates: a long host parses, and colons or
/// repeated template variables are refused in one pass.
#[test]
fn mebibyte_urls_and_templates_on_a_worker_stack() {
    on_a_worker_stack(|| {
        let host = "a".repeat(MIB);
        let url = Url::parse(&format!("https://{host}/dns-query")).expect("long host");
        assert_eq!((url.host.len(), url.path.as_str()), (MIB, "/dns-query"));
        let template =
            UriTemplate::parse(&format!("https://{host}/dns-query{{?dns}}")).expect("long host");
        assert_eq!(template.host().len(), MIB);

        let colons = ":".repeat(MIB);
        let vars = "{?dns}".repeat(1 << 17);
        for input in [
            colons.clone(),
            format!("https://{colons}"),
            vars.clone(),
            format!("https://dns.example/dns-query{vars}"),
        ] {
            assert_eq!(Url::parse(&input), None);
            assert_eq!(UriTemplate::parse(&input), None);
        }
    });
}
