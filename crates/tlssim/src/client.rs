//! Client-side TLS: connector, usage profiles and the encrypted stream.

use crate::cert::{Certificate, TrustStore};
use crate::date::DateStamp;
use crate::error::{CertError, TlsError};
use crate::handshake::{ClientHello, HandshakeMsg, ServerHello, TlsCosts};
use crate::record::{
    decode_records, encode_records, handshake_record, open, seal_record, ContentType, Record,
    SessionKey,
};
use crate::verify::verify_chain;
use netsim::{Conn, Network, SimDuration};
use rand::Rng;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// RFC 8310-style usage profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyMode {
    /// Authenticate or fail — DoH's only mode, and DoT's Strict profile.
    Strict,
    /// Attempt authentication but proceed on failure — DoT's
    /// Opportunistic profile. The verification outcome is retained on the
    /// stream for inspection (how the study detects interception).
    Opportunistic,
    /// Skip the decision entirely (the scanner's certificate collector).
    NoVerify,
}

/// Client TLS parameters.
#[derive(Debug, Clone)]
pub struct TlsClientConfig {
    /// Trust anchors.
    pub trust_store: TrustStore,
    /// ALPN offers, in preference order.
    pub alpn: Vec<String>,
    /// Usage profile.
    pub verify: VerifyMode,
    /// Verification date.
    pub now: DateStamp,
    /// CPU cost model.
    pub costs: TlsCosts,
    /// Whether to attempt session resumption when a ticket is cached.
    pub enable_resumption: bool,
}

impl TlsClientConfig {
    /// Strict-profile config with the given anchors and date.
    pub fn strict(trust_store: TrustStore, now: DateStamp) -> Self {
        TlsClientConfig {
            trust_store,
            alpn: Vec::new(),
            verify: VerifyMode::Strict,
            now,
            costs: TlsCosts::default(),
            enable_resumption: true,
        }
    }

    /// Opportunistic-profile config.
    pub fn opportunistic(trust_store: TrustStore, now: DateStamp) -> Self {
        TlsClientConfig {
            verify: VerifyMode::Opportunistic,
            ..TlsClientConfig::strict(trust_store, now)
        }
    }

    /// No-verification config (scanning).
    pub fn no_verify(now: DateStamp) -> Self {
        TlsClientConfig {
            verify: VerifyMode::NoVerify,
            ..TlsClientConfig::strict(TrustStore::new(), now)
        }
    }

    /// Set ALPN offers.
    pub fn with_alpn(mut self, alpn: &[&str]) -> Self {
        self.alpn = alpn.iter().map(|s| s.to_string()).collect();
        self
    }
}

/// A cached session: the server it resumes with, its ticket and key, and
/// what the full handshake established.
#[derive(Debug)]
struct TicketEntry {
    addr: Ipv4Addr,
    port: u16,
    sni: Option<String>,
    ticket: u64,
    key: SessionKey,
    /// Shared with every stream the session opens.
    chain: Arc<[Certificate]>,
    verify_result: Result<(), CertError>,
    /// The negotiated ALPN protocol, as its position in the client's
    /// offers.
    alpn: Option<usize>,
}

impl TicketEntry {
    fn is_for(&self, addr: Ipv4Addr, port: u16, sni: Option<&str>) -> bool {
        self.addr == addr && self.port == port && self.sni.as_deref() == sni
    }
}

/// Opens TLS sessions; caches resumption tickets per
/// `(addr, port, sni)`.
///
/// A connector talks to one server or a few, so the cache is a short
/// list searched in order: a one-entry `HashMap` would cost hundreds of
/// bytes per connector in a million-client fleet.
pub struct TlsConnector {
    config: TlsClientConfig,
    tickets: Vec<TicketEntry>,
}

impl TlsConnector {
    /// A connector with an empty session cache.
    pub fn new(config: TlsClientConfig) -> Self {
        TlsConnector {
            config,
            tickets: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TlsClientConfig {
        &self.config
    }

    /// Number of cached sessions.
    pub fn cached_sessions(&self) -> usize {
        self.tickets.len()
    }

    /// Drop all cached sessions (forces full handshakes).
    pub fn clear_sessions(&mut self) {
        self.tickets.clear();
    }

    /// Open a TLS session to `dst:port` from `src`.
    ///
    /// Full handshakes are TLS 1.2-style, the deployed norm in 2019: the
    /// TCP round trip, the hello round trip, [`TlsCosts::handshake`], then
    /// the Finished round trip. With a cached ticket the hello piggybacks on
    /// the first application flight (0 extra round trips).
    pub fn connect(
        &mut self,
        net: &mut Network,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        port: u16,
        sni: Option<&str>,
    ) -> Result<TlsStream, TlsError> {
        let mut conn = net.connect(src, dst, port)?;

        if self.config.enable_resumption {
            if let Some(entry) = self.tickets.iter().find(|e| e.is_for(dst, port, sni)) {
                let client_random: u64 = net.rng().gen();
                let key = SessionKey::derive_resumed(entry.key, client_random);
                let hello = handshake_record(
                    HandshakeMsg::ClientHello(ClientHello {
                        sni: sni.map(str::to_string),
                        alpn: self.config.alpn.clone(),
                        client_random,
                        ticket: Some(entry.ticket),
                    })
                    .encode(),
                )?;
                conn.charge(self.config.costs.resumption);
                return Ok(TlsStream {
                    conn,
                    key,
                    server_chain: Arc::clone(&entry.chain),
                    verify_result: entry.verify_result.clone(),
                    alpn: entry.alpn.and_then(|i| self.config.alpn.get(i)).cloned(),
                    costs: self.config.costs,
                    pending_hello: Some(hello),
                    resumed: true,
                });
            }
        }

        // Full handshake.
        let client_random: u64 = net.rng().gen();
        let hello = handshake_record(
            HandshakeMsg::ClientHello(ClientHello {
                sni: sni.map(str::to_string),
                alpn: self.config.alpn.clone(),
                client_random,
                ticket: None,
            })
            .encode(),
        )?;
        let resp = conn.request(net, &encode_records(&[hello]))?;
        let records = decode_records(&resp)?;
        let sh = parse_server_hello(&records)?;
        if sh.resumed {
            return Err(TlsError::ProtocolViolation(
                "server resumed without a ticket".into(),
            ));
        }
        // RFC 7301 §3.2: the server selects one of the client's offers.
        let alpn = match &sh.alpn {
            None => None,
            Some(selected) => match self.config.alpn.iter().position(|p| p == selected) {
                Some(i) => Some(i),
                None => {
                    conn.close(net);
                    return Err(TlsError::ProtocolViolation(format!(
                        "server selected ALPN {selected:?}, which was not offered"
                    )));
                }
            },
        };
        let verify_result = verify_chain(&sh.chain, &self.config.trust_store, self.config.now, sni);
        if self.config.verify == VerifyMode::Strict {
            if let Err(cert_err) = &verify_result {
                // Strict profile: abort before any DNS data flows.
                conn.close(net);
                return Err(TlsError::Cert(cert_err.clone()));
            }
        }
        let leaf_key = sh.chain.first().map(|c| c.key.0).unwrap_or_default();
        let key = SessionKey::derive(client_random, sh.server_random, leaf_key);
        let chain: Arc<[Certificate]> = sh.chain.into();
        if let Some(ticket) = sh.ticket {
            let entry = TicketEntry {
                addr: dst,
                port,
                sni: sni.map(str::to_string),
                ticket,
                key,
                chain: Arc::clone(&chain),
                verify_result: verify_result.clone(),
                alpn,
            };
            match self.tickets.iter_mut().find(|e| e.is_for(dst, port, sni)) {
                Some(slot) => *slot = entry,
                None => {
                    // Grow by one: a first push would reserve four.
                    self.tickets.reserve_exact(1);
                    self.tickets.push(entry);
                }
            }
        }
        conn.charge(self.config.costs.handshake);
        let fin = encode_records(&[Record {
            ctype: ContentType::Handshake,
            payload: HandshakeMsg::Finished.encode(),
        }]);
        let ack = conn.request(net, &fin)?;
        let records = decode_records(&ack)?;
        if !records.iter().any(|r| r.ctype == ContentType::Handshake) {
            conn.close(net);
            return Err(TlsError::HandshakeFailed("no finished ack".into()));
        }
        Ok(TlsStream {
            conn,
            key,
            server_chain: chain,
            verify_result,
            alpn: sh.alpn,
            costs: self.config.costs,
            pending_hello: None,
            resumed: false,
        })
    }
}

fn parse_server_hello(records: &[Record]) -> Result<ServerHello, TlsError> {
    for record in records {
        match record.ctype {
            ContentType::Handshake => match HandshakeMsg::decode(&record.payload)? {
                HandshakeMsg::ServerHello(sh) => return Ok(sh),
                HandshakeMsg::Alert(reason) => return Err(TlsError::HandshakeFailed(reason)),
                HandshakeMsg::ClientHello(_) | HandshakeMsg::Finished => {
                    return Err(TlsError::ProtocolViolation(
                        "unexpected handshake message".into(),
                    ))
                }
            },
            ContentType::Alert => {
                let reason = HandshakeMsg::decode(&record.payload)
                    .map(|m| match m {
                        HandshakeMsg::Alert(r) => r,
                        _ => "alert".into(),
                    })
                    .unwrap_or_else(|_| "alert".into());
                return Err(TlsError::HandshakeFailed(reason));
            }
            ContentType::ApplicationData => continue,
        }
    }
    Err(TlsError::ProtocolViolation("no server hello".into()))
}

/// An established TLS session wrapping a TCP [`Conn`].
#[derive(Debug)]
pub struct TlsStream {
    conn: Conn,
    key: SessionKey,
    /// Shared with the ticket the session was cached under, if any.
    server_chain: Arc<[Certificate]>,
    verify_result: Result<(), CertError>,
    alpn: Option<String>,
    costs: TlsCosts,
    pending_hello: Option<Record>,
    resumed: bool,
}

impl TlsStream {
    /// One encrypted request/response exchange.
    pub fn request(&mut self, net: &mut Network, plaintext: &[u8]) -> Result<Vec<u8>, TlsError> {
        let data = seal_record(self.key, plaintext)?;
        let mut flight = Vec::new();
        if let Some(hello) = self.pending_hello.take() {
            flight.push(hello);
        }
        flight.push(data);
        self.conn.charge(self.costs.per_exchange);
        let resp = self.conn.request(net, &encode_records(&flight))?;
        let records = decode_records(&resp)?;
        let mut out = Vec::new();
        for record in records {
            match record.ctype {
                ContentType::ApplicationData => {
                    out.extend_from_slice(&open(self.key, &record.payload)?);
                }
                ContentType::Handshake => {
                    // ServerHello confirming resumption: nothing to do.
                    if let HandshakeMsg::Alert(reason) = HandshakeMsg::decode(&record.payload)? {
                        return Err(TlsError::HandshakeFailed(reason));
                    }
                }
                ContentType::Alert => {
                    let reason = match HandshakeMsg::decode(&record.payload) {
                        Ok(HandshakeMsg::Alert(r)) => r,
                        _ => "alert".into(),
                    };
                    return Err(TlsError::HandshakeFailed(reason));
                }
            }
        }
        Ok(out)
    }

    /// The certificate chain the server presented (empty on resumption is
    /// replaced by the cached chain).
    pub fn server_chain(&self) -> &[Certificate] {
        &self.server_chain
    }

    /// What certificate verification concluded (kept even under the
    /// Opportunistic profile — this is how intercepted-but-working DoT is
    /// detected).
    pub fn verify_result(&self) -> &Result<(), CertError> {
        &self.verify_result
    }

    /// Negotiated ALPN protocol.
    pub fn alpn(&self) -> Option<&str> {
        self.alpn.as_deref()
    }

    /// Whether this session was resumed from a ticket.
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// Total virtual time charged to the underlying connection.
    pub fn elapsed(&self) -> SimDuration {
        self.conn.elapsed()
    }

    /// Read-and-reset the underlying connection's clock.
    pub fn take_elapsed(&mut self) -> SimDuration {
        self.conn.take_elapsed()
    }

    /// The underlying connection (for diversion forensics in tests).
    pub fn conn(&self) -> &Conn {
        &self.conn
    }

    /// Close the session.
    pub fn close(self, net: &mut Network) {
        self.conn.close(net);
    }
}
