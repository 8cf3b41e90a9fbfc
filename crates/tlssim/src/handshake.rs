//! Handshake messages, their wire codec, and timing constants.
//!
//! A handshake-record payload is compact JSON text of a [`HandshakeMsg`],
//! externally tagged with fields in declaration order:
//!
//! ```text
//! {"ClientHello":{"sni":S|null,"alpn":[S,…],"client_random":N,"ticket":N|null}}
//! {"ServerHello":{"server_random":N,"alpn":S|null,"chain":[C,…],"ticket":N|null,"resumed":B}}
//! {"Alert":S}
//! "Finished"
//! ```
//!
//! A certificate `C` is `{"subject_cn":S,"san":[S,…],"issuer_cn":S,
//! "serial":N,"not_before":D,"not_after":D,"key":N,
//! "signature":{"signer":N,"digest":N}}`, where `D` is signed days since
//! 1970-01-01. Integers are plain decimal. Strings escape `"`, `\`, `\n`,
//! `\r` and `\t` with a backslash, every other byte below 0x20 as
//! lowercase `\u00xx`, and carry everything else as raw UTF-8.
//!
//! The text is kept byte for byte because netsim charges transmission
//! time per byte, so a flight's size is part of every latency the study
//! reports. [`HandshakeMsg::decode`] accepts exactly the bytes
//! [`HandshakeMsg::encode`] writes: no whitespace, no other key order,
//! no other escapes and no non-canonical integers. It reads them in one
//! forward pass with no recursion, so work is linear in the payload.

use crate::cert::{Certificate, KeyId, Signature};
use crate::date::DateStamp;
use crate::error::TlsError;
use netsim::SimDuration;

/// Client → server opening flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    /// Server name indication (hostname), if the client knows one.
    pub sni: Option<String>,
    /// Offered ALPN protocols in preference order (`"dot"`, `"h2"`, ...).
    pub alpn: Vec<String>,
    /// Client nonce.
    pub client_random: u64,
    /// Resumption ticket from a previous session, if any.
    pub ticket: Option<u64>,
}

/// Server → client reply flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerHello {
    /// Server nonce.
    pub server_random: u64,
    /// Chosen ALPN protocol.
    pub alpn: Option<String>,
    /// Presented certificate chain (empty on resumption).
    pub chain: Vec<Certificate>,
    /// Fresh resumption ticket.
    pub ticket: Option<u64>,
    /// True if the server accepted the client's resumption ticket.
    pub resumed: bool,
}

/// Any handshake-record payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeMsg {
    /// Opening flight.
    ClientHello(ClientHello),
    /// Reply flight.
    ServerHello(ServerHello),
    /// Fatal failure, with a reason string (stands in for TLS alerts).
    Alert(String),
    /// Handshake completion exchange — the extra round trip a TLS 1.2
    /// handshake costs over TLS 1.3 (the deployed reality of 2019, which
    /// Table 7's no-reuse overheads reflect).
    Finished,
}

impl HandshakeMsg {
    /// Serialise to a handshake-record payload (the canonical text in the
    /// module docs).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            // Capacities fit the flights the study sends: a ClientHello
            // is about 90 bytes and a certificate about 250.
            HandshakeMsg::ClientHello(ch) => {
                let mut out = Vec::with_capacity(128);
                out.extend_from_slice(br#"{"ClientHello":{"sni":"#);
                put_opt_str(&mut out, ch.sni.as_deref());
                out.extend_from_slice(br#","alpn":"#);
                put_list(&mut out, &ch.alpn, |out, s| put_str(out, s));
                out.extend_from_slice(br#","client_random":"#);
                put_u64(&mut out, ch.client_random);
                out.extend_from_slice(br#","ticket":"#);
                put_opt_u64(&mut out, ch.ticket);
                out.extend_from_slice(b"}}");
                out
            }
            HandshakeMsg::ServerHello(sh) => encode_server_hello(
                sh.server_random,
                sh.alpn.as_deref(),
                &sh.chain,
                sh.ticket,
                sh.resumed,
            ),
            HandshakeMsg::Alert(reason) => {
                let mut out = Vec::with_capacity(12 + reason.len());
                out.extend_from_slice(br#"{"Alert":"#);
                put_str(&mut out, reason);
                out.push(b'}');
                out
            }
            HandshakeMsg::Finished => br#""Finished""#.to_vec(),
        }
    }

    /// Parse from a handshake-record payload. Anything but the exact
    /// bytes [`HandshakeMsg::encode`] writes for some message is a
    /// [`TlsError::ProtocolViolation`].
    pub fn decode(data: &[u8]) -> Result<Self, TlsError> {
        let mut r = Reader { data, pos: 0 };
        let msg = if r.eat(br#"{"ClientHello":{"sni":"#) {
            let sni = r.opt_str()?;
            r.literal(br#","alpn":"#)?;
            let alpn = r.list(|r| r.str())?;
            r.literal(br#","client_random":"#)?;
            let client_random = r.u64()?;
            r.literal(br#","ticket":"#)?;
            let ticket = r.opt_u64()?;
            r.literal(b"}}")?;
            HandshakeMsg::ClientHello(ClientHello {
                sni,
                alpn,
                client_random,
                ticket,
            })
        } else if r.eat(br#"{"ServerHello":{"server_random":"#) {
            let server_random = r.u64()?;
            r.literal(br#","alpn":"#)?;
            let alpn = r.opt_str()?;
            r.literal(br#","chain":"#)?;
            let chain = r.list(|r| r.cert())?;
            r.literal(br#","ticket":"#)?;
            let ticket = r.opt_u64()?;
            r.literal(br#","resumed":"#)?;
            let resumed = if r.eat(b"true") {
                true
            } else {
                r.literal(b"false")?;
                false
            };
            r.literal(b"}}")?;
            HandshakeMsg::ServerHello(ServerHello {
                server_random,
                alpn,
                chain,
                ticket,
                resumed,
            })
        } else if r.eat(br#"{"Alert":"#) {
            let reason = r.str()?;
            r.literal(b"}")?;
            HandshakeMsg::Alert(reason)
        } else if r.eat(br#""Finished""#) {
            HandshakeMsg::Finished
        } else {
            return Err(r.fail("unknown message"));
        };
        if r.pos != data.len() {
            return Err(r.fail("trailing bytes"));
        }
        Ok(msg)
    }
}

/// Write a [`ServerHello`] payload from borrowed parts, so a server
/// sends its configured chain without copying it. The one ServerHello
/// encoder: [`HandshakeMsg::encode`] delegates to it.
pub(crate) fn encode_server_hello(
    server_random: u64,
    alpn: Option<&str>,
    chain: &[Certificate],
    ticket: Option<u64>,
    resumed: bool,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + 320 * chain.len());
    out.extend_from_slice(br#"{"ServerHello":{"server_random":"#);
    put_u64(&mut out, server_random);
    out.extend_from_slice(br#","alpn":"#);
    put_opt_str(&mut out, alpn);
    out.extend_from_slice(br#","chain":"#);
    put_list(&mut out, chain, put_cert);
    out.extend_from_slice(br#","ticket":"#);
    put_opt_u64(&mut out, ticket);
    out.extend_from_slice(br#","resumed":"#);
    out.extend_from_slice(if resumed { b"true" } else { b"false" });
    out.extend_from_slice(b"}}");
    out
}

fn put_cert(out: &mut Vec<u8>, cert: &Certificate) {
    out.extend_from_slice(br#"{"subject_cn":"#);
    put_str(out, &cert.subject_cn);
    out.extend_from_slice(br#","san":"#);
    put_list(out, &cert.san, |out, s| put_str(out, s));
    out.extend_from_slice(br#","issuer_cn":"#);
    put_str(out, &cert.issuer_cn);
    out.extend_from_slice(br#","serial":"#);
    put_u64(out, cert.serial);
    out.extend_from_slice(br#","not_before":"#);
    put_i64(out, cert.not_before.days());
    out.extend_from_slice(br#","not_after":"#);
    put_i64(out, cert.not_after.days());
    out.extend_from_slice(br#","key":"#);
    put_u64(out, cert.key.0);
    out.extend_from_slice(br#","signature":{"signer":"#);
    put_u64(out, cert.signature.signer.0);
    out.extend_from_slice(br#","digest":"#);
    put_u64(out, cert.signature.digest);
    out.extend_from_slice(b"}}");
}

fn put_list<T>(out: &mut Vec<u8>, items: &[T], put: impl Fn(&mut Vec<u8>, &T)) {
    out.push(b'[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        put(out, item);
    }
    out.push(b']');
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// The five bytes written as a backslash and a letter, with that letter.
/// Every other byte below 0x20 is written as `\u00xx`.
const SHORT_ESCAPES: [(u8, u8); 5] = [
    (b'"', b'"'),
    (b'\\', b'\\'),
    (b'\n', b'n'),
    (b'\r', b'r'),
    (b'\t', b't'),
];

fn short_escape(byte: u8) -> Option<u8> {
    SHORT_ESCAPES
        .iter()
        .find(|&&(raw, _)| raw == byte)
        .map(|&(_, letter)| letter)
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    out.push(b'"');
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.extend_from_slice(&bytes[run..i]);
        run = i + 1;
        match short_escape(b) {
            Some(letter) => out.extend_from_slice(&[b'\\', letter]),
            None => out.extend_from_slice(&[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 0xf)],
            ]),
        }
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        Some(s) => put_str(out, s),
        None => out.extend_from_slice(b"null"),
    }
}

fn put_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

fn put_i64(out: &mut Vec<u8>, n: i64) {
    if n < 0 {
        out.push(b'-');
    }
    put_u64(out, n.unsigned_abs());
}

fn put_opt_u64(out: &mut Vec<u8>, n: Option<u64>) {
    match n {
        Some(n) => put_u64(out, n),
        None => out.extend_from_slice(b"null"),
    }
}

/// A forward-only cursor over a handshake payload. Every method either
/// consumes what it reads or fails; none looks back or recurses.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn fail(&self, what: &str) -> TlsError {
        TlsError::ProtocolViolation(format!(
            "bad handshake message: {what} at offset {}",
            self.pos
        ))
    }

    fn rest(&self) -> &'a [u8] {
        self.data.get(self.pos..).unwrap_or_default()
    }

    /// Consume `lit` if the input continues with it.
    fn eat(&mut self, lit: &[u8]) -> bool {
        let found = self.rest().starts_with(lit);
        if found {
            self.pos += lit.len();
        }
        found
    }

    fn literal(&mut self, lit: &[u8]) -> Result<(), TlsError> {
        if self.eat(lit) {
            Ok(())
        } else {
            Err(self.fail(&format!("expected `{}`", String::from_utf8_lossy(lit))))
        }
    }

    fn str(&mut self) -> Result<String, TlsError> {
        self.literal(b"\"")?;
        let mut out = Vec::new();
        loop {
            let rest = self.rest();
            let Some(run) = rest
                .iter()
                .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
            else {
                self.pos = self.data.len();
                return Err(self.fail("unterminated string"));
            };
            out.extend_from_slice(&rest[..run]);
            self.pos += run;
            match rest[run] {
                b'"' => {
                    self.pos += 1;
                    break;
                }
                b'\\' => {
                    let byte = self.escape()?;
                    out.push(byte);
                }
                _ => return Err(self.fail("raw control byte in string")),
            }
        }
        String::from_utf8(out).map_err(|_| self.fail("invalid UTF-8 in string"))
    }

    /// One escape sequence, as `put_str` writes it.
    fn escape(&mut self) -> Result<u8, TlsError> {
        match *self.rest() {
            [b'\\', b'u', b'0', b'0', hi @ (b'0' | b'1'), lo, ..] => {
                let lo = HEX
                    .iter()
                    .position(|&h| h == lo)
                    .ok_or_else(|| self.fail("non-canonical escape"))?;
                let byte = ((hi - b'0') << 4) | lo as u8;
                if short_escape(byte).is_some() {
                    return Err(self.fail("non-canonical escape"));
                }
                self.pos += 6;
                Ok(byte)
            }
            [b'\\', letter, ..] => {
                let (byte, _) = SHORT_ESCAPES
                    .into_iter()
                    .find(|&(_, l)| l == letter)
                    .ok_or_else(|| self.fail("non-canonical escape"))?;
                self.pos += 2;
                Ok(byte)
            }
            _ => Err(self.fail("truncated escape")),
        }
    }

    fn opt_str(&mut self) -> Result<Option<String>, TlsError> {
        if self.eat(b"null") {
            Ok(None)
        } else {
            self.str().map(Some)
        }
    }

    /// A plain decimal integer: no sign, no leading zero, no overflow.
    fn u64(&mut self) -> Result<u64, TlsError> {
        let mut n: u64 = 0;
        let mut digits = 0;
        while let Some(&b) = self.rest().first().filter(|b| b.is_ascii_digit()) {
            if digits == 1 && n == 0 {
                return Err(self.fail("leading zero"));
            }
            n = n
                .checked_mul(10)
                .and_then(|n| n.checked_add(u64::from(b - b'0')))
                .ok_or_else(|| self.fail("integer overflow"))?;
            digits += 1;
            self.pos += 1;
        }
        if digits == 0 {
            return Err(self.fail("expected an integer"));
        }
        Ok(n)
    }

    /// A [`Reader::u64`] with an optional `-`; `-0` is not canonical.
    fn i64(&mut self) -> Result<i64, TlsError> {
        if self.eat(b"-") {
            match self.u64()? {
                0 => Err(self.fail("negative zero")),
                n => 0i64
                    .checked_sub_unsigned(n)
                    .ok_or_else(|| self.fail("integer overflow")),
            }
        } else {
            i64::try_from(self.u64()?).map_err(|_| self.fail("integer overflow"))
        }
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, TlsError> {
        if self.eat(b"null") {
            Ok(None)
        } else {
            self.u64().map(Some)
        }
    }

    /// `[]` or `[item,…,item]`.
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, TlsError>,
    ) -> Result<Vec<T>, TlsError> {
        self.literal(b"[")?;
        let mut items = Vec::new();
        if self.eat(b"]") {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(b"]") {
                return Ok(items);
            }
            self.literal(b",")?;
        }
    }

    fn cert(&mut self) -> Result<Certificate, TlsError> {
        self.literal(br#"{"subject_cn":"#)?;
        let subject_cn = self.str()?;
        self.literal(br#","san":"#)?;
        let san = self.list(|r| r.str())?;
        self.literal(br#","issuer_cn":"#)?;
        let issuer_cn = self.str()?;
        self.literal(br#","serial":"#)?;
        let serial = self.u64()?;
        self.literal(br#","not_before":"#)?;
        let not_before = DateStamp::from_days(self.i64()?);
        self.literal(br#","not_after":"#)?;
        let not_after = DateStamp::from_days(self.i64()?);
        self.literal(br#","key":"#)?;
        let key = KeyId(self.u64()?);
        self.literal(br#","signature":{"signer":"#)?;
        let signer = KeyId(self.u64()?);
        self.literal(br#","digest":"#)?;
        let digest = self.u64()?;
        self.literal(b"}}")?;
        Ok(Certificate {
            subject_cn,
            san,
            issuer_cn,
            serial,
            not_before,
            not_after,
            key,
            signature: Signature { signer, digest },
        })
    }
}

/// CPU-time costs charged for cryptographic operations.
///
/// These are what make encrypted DNS a few milliseconds slower than
/// clear-text DNS *with connection reuse* (Finding 3.1: average overheads
/// of 5–9 ms for DoT, 6–8 ms for DoH) — the paths are identical, so the
/// residual overhead is handshake amortisation plus per-record work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TlsCosts {
    /// One-off asymmetric work at full handshake (key exchange + cert
    /// verification), charged to the connecting client.
    pub handshake: SimDuration,
    /// Work at resumption (ticket decryption only).
    pub resumption: SimDuration,
    /// Symmetric work per application-data exchange.
    pub per_exchange: SimDuration,
}

impl Default for TlsCosts {
    fn default() -> Self {
        TlsCosts {
            handshake: SimDuration::from_millis(9),
            resumption: SimDuration::from_millis(2),
            per_exchange: SimDuration::from_millis(4),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CaHandle;

    #[test]
    fn client_hello_round_trip() {
        let ch = HandshakeMsg::ClientHello(ClientHello {
            sni: Some("cloudflare-dns.com".into()),
            alpn: vec!["dot".into()],
            client_random: 0xdead_beef,
            ticket: None,
        });
        let bytes = ch.encode();
        assert_eq!(HandshakeMsg::decode(&bytes).unwrap(), ch);
    }

    #[test]
    fn server_hello_with_chain_round_trips() {
        let ca = CaHandle::new("CA", KeyId(1), DateStamp::from_ymd(2019, 1, 1), 3650);
        let leaf = ca.issue(
            "dns.quad9.net",
            vec![],
            KeyId(2),
            1,
            DateStamp::from_ymd(2019, 1, 1),
            DateStamp::from_ymd(2020, 1, 1),
        );
        let sh = HandshakeMsg::ServerHello(ServerHello {
            server_random: 77,
            alpn: Some("dot".into()),
            chain: vec![leaf],
            ticket: Some(123),
            resumed: false,
        });
        let bytes = sh.encode();
        assert_eq!(HandshakeMsg::decode(&bytes).unwrap(), sh);
    }

    #[test]
    fn garbage_rejected() {
        assert!(HandshakeMsg::decode(b"not json").is_err());
    }

    #[test]
    fn default_costs_are_modest() {
        let c = TlsCosts::default();
        assert!(c.handshake > c.resumption);
        assert!(c.per_exchange < SimDuration::from_millis(10));
    }
}
