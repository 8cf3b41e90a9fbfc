//! HTTP/1.1 request and response framing.

use std::fmt;

/// HTTP request methods used by the study.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Method {
    /// DoH GET (`?dns=` parameter, Figure 2 top).
    Get,
    /// DoH POST (wire-format body, Figure 2 bottom).
    Post,
    /// Anything else, preserved verbatim.
    Other(String),
}

impl Method {
    fn as_str(&self) -> &str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Other(s) => s,
        }
    }

    fn parse(s: &str) -> Method {
        match s {
            "GET" => Method::Get,
            "POST" => Method::Post,
            other => Method::Other(other.to_string()),
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// HTTP framing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Missing or malformed request/status line.
    BadStartLine(String),
    /// A header line without a colon.
    BadHeader(String),
    /// Body shorter than Content-Length.
    TruncatedBody {
        /// Declared length.
        expected: usize,
        /// Bytes present.
        found: usize,
    },
    /// Two `Content-Length` headers with different values, which leave
    /// the body's end undecidable (RFC 9112 §6.3).
    ConflictingLength {
        /// The first value given.
        first: usize,
        /// The first later value that differs from it.
        second: usize,
    },
    /// Message is not valid UTF-8 in its head section.
    BadEncoding,
    /// No blank line terminating the header block.
    MissingHeaderTerminator,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadStartLine(l) => write!(f, "bad start line {l:?}"),
            HttpError::BadHeader(l) => write!(f, "bad header {l:?}"),
            HttpError::TruncatedBody { expected, found } => {
                write!(f, "body truncated: {found}/{expected} bytes")
            }
            HttpError::ConflictingLength { first, second } => {
                write!(f, "conflicting Content-Length: {first} and {second}")
            }
            HttpError::BadEncoding => write!(f, "head is not UTF-8"),
            HttpError::MissingHeaderTerminator => write!(f, "missing CRLFCRLF"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Split raw bytes into (head, body) at the first CRLFCRLF.
fn split_head(data: &[u8]) -> Result<(&str, &[u8]), HttpError> {
    let pos = data
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or(HttpError::MissingHeaderTerminator)?;
    let head = std::str::from_utf8(&data[..pos]).map_err(|_| HttpError::BadEncoding)?;
    Ok((head, &data[pos + 4..]))
}

fn parse_headers(lines: std::str::Lines<'_>) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadHeader(line.to_string()))?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
    Ok(headers)
}

fn header_get<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// The body a message's `Content-Length` declares, or all of `body` when
/// it gives none. Every `Content-Length` must parse, and a repeat must
/// give the same value: differing ones are a framing error (RFC 9112 §6.3).
fn body_with_length(headers: &[(String, String)], body: &[u8]) -> Result<Vec<u8>, HttpError> {
    let mut declared = None;
    for (_, len_str) in headers
        .iter()
        .filter(|(n, _)| n.eq_ignore_ascii_case("content-length"))
    {
        let len: usize = len_str
            .parse()
            .map_err(|_| HttpError::BadHeader(format!("Content-Length: {len_str}")))?;
        match declared {
            Some(first) if first != len => {
                return Err(HttpError::ConflictingLength { first, second: len })
            }
            _ => declared = Some(len),
        }
    }
    let Some(expected) = declared else {
        return Ok(body.to_vec());
    };
    if body.len() < expected {
        return Err(HttpError::TruncatedBody {
            expected,
            found: body.len(),
        });
    }
    Ok(body[..expected].to_vec())
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Origin-form target: path plus optional query string.
    pub target: String,
    /// Headers in order.
    pub headers: Vec<(String, String)>,
    /// Message body.
    pub body: Vec<u8>,
}

impl Request {
    /// A GET request for `target`.
    pub fn get(target: &str) -> Self {
        Request {
            method: Method::Get,
            target: target.to_string(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A POST request with a body.
    pub fn post(target: &str, content_type: &str, body: Vec<u8>) -> Self {
        Request {
            method: Method::Post,
            target: target.to_string(),
            headers: vec![("Content-Type".into(), content_type.into())],
            body,
        }
    }

    /// Append a header (builder style).
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_get(&self.headers, name)
    }

    /// The path component of the target (before any `?`).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// Look up a query-string parameter (no percent-decoding; DoH's
    /// base64url values never need it).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        let query = self.target.split_once('?')?.1;
        query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }

    /// Serialise with a correct `Content-Length`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = format!("{} {} HTTP/1.1\r\n", self.method, self.target).into_bytes();
        let mut has_length = false;
        for (name, value) in &self.headers {
            if name.eq_ignore_ascii_case("content-length") {
                has_length = true;
            }
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        if !has_length && !self.body.is_empty() {
            out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    /// Parse a complete request.
    pub fn decode(data: &[u8]) -> Result<Self, HttpError> {
        let (head, body) = split_head(data)?;
        let mut lines = head.lines();
        let start = lines
            .next()
            .ok_or_else(|| HttpError::BadStartLine(String::new()))?;
        let mut parts = start.split_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| HttpError::BadStartLine(start.into()))?;
        let target = parts
            .next()
            .ok_or_else(|| HttpError::BadStartLine(start.into()))?;
        let version = parts
            .next()
            .ok_or_else(|| HttpError::BadStartLine(start.into()))?;
        if !version.starts_with("HTTP/") {
            return Err(HttpError::BadStartLine(start.into()));
        }
        let headers = parse_headers(lines)?;
        let body = body_with_length(&headers, body)?;
        Ok(Request {
            method: Method::parse(method),
            target: target.to_string(),
            headers,
            body,
        })
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Headers in order.
    pub headers: Vec<(String, String)>,
    /// Message body.
    pub body: Vec<u8>,
}

impl Response {
    /// 200 with a typed body.
    pub fn ok(content_type: &str, body: Vec<u8>) -> Self {
        Response {
            status: 200,
            reason: "OK".into(),
            headers: vec![("Content-Type".into(), content_type.into())],
            body,
        }
    }

    /// An empty response with `status`.
    pub fn status(status: u16, reason: &str) -> Self {
        Response {
            status,
            reason: reason.into(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// 404 with a plain-text body.
    pub fn not_found() -> Self {
        let mut r = Response::status(404, "Not Found");
        r.headers.push(("Content-Type".into(), "text/plain".into()));
        r.body = b"not found".to_vec();
        r
    }

    /// 400 with a reason.
    pub fn bad_request(msg: &str) -> Self {
        let mut r = Response::status(400, "Bad Request");
        r.headers.push(("Content-Type".into(), "text/plain".into()));
        r.body = msg.as_bytes().to_vec();
        r
    }

    /// Append a header (builder style).
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_get(&self.headers, name)
    }

    /// Serialise with a correct `Content-Length`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason).into_bytes();
        let mut has_length = false;
        for (name, value) in &self.headers {
            if name.eq_ignore_ascii_case("content-length") {
                has_length = true;
            }
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        if !has_length {
            out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    /// Parse a complete response.
    pub fn decode(data: &[u8]) -> Result<Self, HttpError> {
        let (head, body) = split_head(data)?;
        let mut lines = head.lines();
        let start = lines
            .next()
            .ok_or_else(|| HttpError::BadStartLine(String::new()))?;
        let mut parts = start.splitn(3, ' ');
        let version = parts
            .next()
            .ok_or_else(|| HttpError::BadStartLine(start.into()))?;
        if !version.starts_with("HTTP/") {
            return Err(HttpError::BadStartLine(start.into()));
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| HttpError::BadStartLine(start.into()))?;
        let reason = parts.next().unwrap_or("").to_string();
        let headers = parse_headers(lines)?;
        let body = body_with_length(&headers, body)?;
        Ok(Response {
            status,
            reason,
            headers,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_round_trip() {
        let req = Request::get("/dns-query?dns=AAAB")
            .with_header("Host", "dns.example.com")
            .with_header("Accept", "application/dns-message");
        let back = Request::decode(&req.encode()).unwrap();
        assert_eq!(back.method, Method::Get);
        assert_eq!(back.path(), "/dns-query");
        assert_eq!(back.query_param("dns"), Some("AAAB"));
        assert_eq!(back.header("host"), Some("dns.example.com"));
        assert_eq!(back.header("HOST"), Some("dns.example.com"));
        assert!(back.body.is_empty());
    }

    #[test]
    fn post_round_trip_with_binary_body() {
        let body = vec![0u8, 1, 2, 255, 254];
        let req = Request::post("/dns-query", "application/dns-message", body.clone());
        let back = Request::decode(&req.encode()).unwrap();
        assert_eq!(back.method, Method::Post);
        assert_eq!(back.body, body);
        assert_eq!(back.header("content-type"), Some("application/dns-message"));
        assert_eq!(back.header("content-length"), Some("5"));
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::ok("application/dns-message", vec![9, 8, 7])
            .with_header("Cache-Control", "max-age=60");
        let back = Response::decode(&resp.encode()).unwrap();
        assert_eq!(back.status, 200);
        assert_eq!(back.body, vec![9, 8, 7]);
        assert_eq!(back.header("cache-control"), Some("max-age=60"));
    }

    #[test]
    fn error_helpers() {
        assert_eq!(Response::not_found().status, 404);
        assert_eq!(Response::bad_request("nope").status, 400);
        let r = Response::status(502, "Bad Gateway");
        let back = Response::decode(&r.encode()).unwrap();
        assert_eq!(back.status, 502);
        assert_eq!(back.reason, "Bad Gateway");
    }

    #[test]
    fn truncated_body_detected() {
        let mut bytes = Request::post("/x", "text/plain", b"full body".to_vec()).encode();
        bytes.truncate(bytes.len() - 4);
        assert!(matches!(
            Request::decode(&bytes),
            Err(HttpError::TruncatedBody { .. })
        ));
    }

    #[test]
    fn garbage_rejected() {
        assert!(Request::decode(b"not http at all").is_err());
        assert!(Request::decode(b"GET\r\n\r\n").is_err());
        assert!(Response::decode(b"HTTP/1.1 abc\r\n\r\n").is_err());
        assert!(Request::decode(b"GET / HTTP/1.1\r\nbadheader\r\n\r\n").is_err());
    }

    #[test]
    fn a_repeated_content_length_must_agree() {
        let head = |first: &str, second: &str| {
            format!(
                "POST /x HTTP/1.1\r\nContent-Length: {first}\r\n\
                 Content-Length: {second}\r\n\r\nabcdef"
            )
        };
        let same = Request::decode(head("4", "04").as_bytes()).unwrap();
        assert_eq!(same.body, b"abcd");
        for (first, second) in [(4, 6), (6, 4)] {
            assert_eq!(
                Request::decode(head(&first.to_string(), &second.to_string()).as_bytes()),
                Err(HttpError::ConflictingLength { first, second })
            );
        }
        assert_eq!(
            Request::decode(head("4", "four").as_bytes()),
            Err(HttpError::BadHeader("Content-Length: four".into()))
        );
    }

    #[test]
    fn extra_bytes_beyond_content_length_ignored() {
        let mut bytes = Response::ok("text/plain", b"12345".to_vec()).encode();
        bytes.extend_from_slice(b"trailing junk");
        let back = Response::decode(&bytes).unwrap();
        assert_eq!(back.body, b"12345");
    }

    #[test]
    fn query_param_edge_cases() {
        let req = Request::get("/resolve?name=example.com&type=A");
        assert_eq!(req.query_param("name"), Some("example.com"));
        assert_eq!(req.query_param("type"), Some("A"));
        assert_eq!(req.query_param("dns"), None);
        let no_query = Request::get("/dns-query");
        assert_eq!(no_query.query_param("dns"), None);
        assert_eq!(no_query.path(), "/dns-query");
    }
}
