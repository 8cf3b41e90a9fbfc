//! Handshake messages and timing constants.

use crate::cert::Certificate;
use crate::error::TlsError;
use netsim::SimDuration;
use serde::{Deserialize, Serialize};

/// Client → server opening flight.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
    /// Serialise to a handshake-record payload.
    pub fn encode(&self) -> Vec<u8> {
        // Serialising an owned enum of plain data cannot fail; an empty
        // flight (which the peer rejects as a decode error) beats an abort
        // on a protocol path.
        serde_json::to_vec(self).unwrap_or_default()
    }

    /// Parse from a handshake-record payload.
    pub fn decode(data: &[u8]) -> Result<Self, TlsError> {
        serde_json::from_slice(data)
            .map_err(|e| TlsError::ProtocolViolation(format!("bad handshake message: {e}")))
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
    use crate::cert::{CaHandle, KeyId};
    use crate::date::DateStamp;

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
    fn deep_nesting_is_a_typed_error_on_a_worker_stack() {
        // A full-size record of `[`: without the JSON depth limit the
        // parser recurses once per byte and overflows a 2 MB stack.
        let record = vec![b'['; usize::from(u16::MAX)];
        let decoded = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || HandshakeMsg::decode(&record))
            .unwrap()
            .join()
            .unwrap();
        assert!(matches!(decoded, Err(TlsError::ProtocolViolation(_))));
    }

    #[test]
    fn default_costs_are_modest() {
        let c = TlsCosts::default();
        assert!(c.handshake > c.resumption);
        assert!(c.per_exchange < SimDuration::from_millis(10));
    }
}
