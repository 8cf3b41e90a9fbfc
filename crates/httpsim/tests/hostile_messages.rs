//! Hostile HTTP messages against the request and response decoders. A DoH
//! client decodes every reply a simulated server sends, and a DoH server
//! every request, so on any input each decoder must return a typed
//! [`HttpError`] or a message whose encoding decodes back to the same
//! fields and re-encodes to the same bytes. Fixtures under
//! `tests/fixtures/*.hex` pin the error for each malformed shape, in the
//! DNS corpus's format: whitespace-separated hex octets, `#` comments.

use httpsim::{HttpError, Request, Response};
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
