//! Server-side TLS: wrap any [`netsim::Service`] so its bytes travel
//! inside TLS records. This is how DoT resolvers (inner service = DNS
//! framing) and DoH resolvers (inner service = HTTP) are deployed.

use crate::cert::{fnv1a, Certificate, KeyId};
use crate::handshake::{ClientHello, HandshakeMsg, ServerHello};
use crate::record::{
    decode_records, encode_records, handshake_record, open, seal_record, ContentType, Record,
    SessionKey,
};
use netsim::{PeerInfo, Service, ServiceCtx, StreamHandler};
use std::sync::Arc;

/// Server-side TLS parameters.
#[derive(Debug, Clone)]
pub struct TlsServerConfig {
    /// Presented certificate chain, leaf first.
    pub chain: Vec<Certificate>,
    /// The private key matching the leaf (its [`KeyId`]).
    pub key: KeyId,
    /// ALPN protocols the server accepts, in preference order. Empty
    /// means "accept whatever the client offers".
    pub alpn: Vec<String>,
    /// Secret for stateless session tickets.
    pub ticket_secret: u64,
}

impl TlsServerConfig {
    /// Config with a chain and key; ticket secret derived from the key.
    pub fn new(chain: Vec<Certificate>, key: KeyId) -> Self {
        TlsServerConfig {
            chain,
            key,
            alpn: Vec::new(),
            ticket_secret: fnv1a(&key.0.to_be_bytes()),
        }
    }

    /// Restrict ALPN.
    pub fn with_alpn(mut self, alpn: &[&str]) -> Self {
        self.alpn = alpn.iter().map(|s| s.to_string()).collect();
        self
    }
}

/// Select the ALPN protocol: first client offer the server accepts.
pub(crate) fn select_alpn(server: &[String], client: &[String]) -> Result<Option<String>, ()> {
    if client.is_empty() {
        return Ok(None);
    }
    if server.is_empty() {
        return Ok(Some(client[0].clone()));
    }
    for offer in client {
        if server.contains(offer) {
            return Ok(Some(offer.clone()));
        }
    }
    Err(())
}

/// Process a ClientHello server-side: derive the session key and build the
/// reply flight. Shared by the genuine server and the MITM proxy. A
/// ServerHello too long for one record is answered with a
/// `record_overflow` alert.
pub(crate) fn answer_client_hello(
    config: &TlsServerConfig,
    ch: &ClientHello,
) -> Result<(SessionKey, bool, Record), Record> {
    let alpn = match select_alpn(&config.alpn, &ch.alpn) {
        Ok(a) => a,
        Err(()) => {
            return Err(Record {
                ctype: ContentType::Alert,
                payload: HandshakeMsg::Alert("no_application_protocol".into()).encode(),
            })
        }
    };
    // Deterministic server nonce: a function of the hello and our secret.
    let mut nonce_input = Vec::with_capacity(16);
    nonce_input.extend_from_slice(&ch.client_random.to_be_bytes());
    nonce_input.extend_from_slice(&config.ticket_secret.to_be_bytes());
    let server_random = fnv1a(&nonce_input);

    let (key, resumed) = match ch.ticket {
        Some(ticket) => {
            let old = SessionKey(ticket ^ config.ticket_secret);
            (SessionKey::derive_resumed(old, ch.client_random), true)
        }
        None => (
            SessionKey::derive(ch.client_random, server_random, config.key.0),
            false,
        ),
    };
    let hello = ServerHello {
        server_random,
        alpn,
        chain: if resumed {
            Vec::new()
        } else {
            config.chain.clone()
        },
        ticket: Some(key.0 ^ config.ticket_secret),
        resumed,
    };
    match handshake_record(HandshakeMsg::ServerHello(hello).encode()) {
        Ok(reply) => Ok((key, resumed, reply)),
        Err(_) => Err(Record {
            ctype: ContentType::Alert,
            payload: HandshakeMsg::Alert("record_overflow".into()).encode(),
        }),
    }
}

/// A [`Service`] that terminates TLS and hands plaintext to `inner`.
/// Every accepted stream shares the one config.
pub struct TlsServerService {
    config: Arc<TlsServerConfig>,
    inner: Arc<dyn Service>,
}

impl TlsServerService {
    /// Wrap `inner` behind TLS with `config`.
    pub fn new(config: TlsServerConfig, inner: Arc<dyn Service>) -> Self {
        TlsServerService {
            config: Arc::new(config),
            inner,
        }
    }

    /// The configured chain (tests & forensics).
    pub fn chain(&self) -> &[Certificate] {
        &self.config.chain
    }
}

enum HandlerState {
    AwaitingHello,
    Established(SessionKey),
    Dead,
}

struct TlsServerHandler {
    config: Arc<TlsServerConfig>,
    inner_service: Arc<dyn Service>,
    inner: Option<Box<dyn StreamHandler>>,
    peer: PeerInfo,
    state: HandlerState,
}

impl TlsServerHandler {
    fn inner_handler(&mut self) -> &mut Box<dyn StreamHandler> {
        self.inner
            .get_or_insert_with(|| self.inner_service.open_stream(self.peer))
    }
}

impl StreamHandler for TlsServerHandler {
    fn on_bytes(&mut self, ctx: &mut ServiceCtx<'_>, data: &[u8]) -> Vec<u8> {
        let records = match decode_records(data) {
            Ok(r) => r,
            Err(_) => {
                self.state = HandlerState::Dead;
                return encode_records(&[Record {
                    ctype: ContentType::Alert,
                    payload: HandshakeMsg::Alert("decode_error".into()).encode(),
                }]);
            }
        };
        let mut out: Vec<Record> = Vec::new();
        for record in records {
            match (&self.state, record.ctype) {
                (HandlerState::AwaitingHello, ContentType::Handshake) => {
                    match HandshakeMsg::decode(&record.payload) {
                        Ok(HandshakeMsg::ClientHello(ch)) => {
                            match answer_client_hello(&self.config, &ch) {
                                Ok((key, _resumed, reply)) => {
                                    self.state = HandlerState::Established(key);
                                    out.push(reply);
                                }
                                Err(alert) => {
                                    self.state = HandlerState::Dead;
                                    out.push(alert);
                                }
                            }
                        }
                        _ => {
                            self.state = HandlerState::Dead;
                            out.push(Record {
                                ctype: ContentType::Alert,
                                payload: HandshakeMsg::Alert("unexpected_message".into()).encode(),
                            });
                        }
                    }
                }
                (HandlerState::Established(_), ContentType::Handshake) => {
                    match HandshakeMsg::decode(&record.payload) {
                        Ok(HandshakeMsg::Finished) => {
                            out.push(Record {
                                ctype: ContentType::Handshake,
                                payload: HandshakeMsg::Finished.encode(),
                            });
                        }
                        _ => {
                            self.state = HandlerState::Dead;
                            out.push(Record {
                                ctype: ContentType::Alert,
                                payload: HandshakeMsg::Alert("unexpected_message".into()).encode(),
                            });
                        }
                    }
                }
                (HandlerState::Established(key), ContentType::ApplicationData) => {
                    let key = *key;
                    match open(key, &record.payload) {
                        Ok(plaintext) => {
                            let response = self.inner_handler().on_bytes(ctx, &plaintext);
                            if !response.is_empty() {
                                match seal_record(key, &response) {
                                    Ok(sealed) => out.push(sealed),
                                    Err(_) => {
                                        self.state = HandlerState::Dead;
                                        out.push(Record {
                                            ctype: ContentType::Alert,
                                            payload: HandshakeMsg::Alert("record_overflow".into())
                                                .encode(),
                                        });
                                    }
                                }
                            }
                        }
                        Err(_) => {
                            self.state = HandlerState::Dead;
                            out.push(Record {
                                ctype: ContentType::Alert,
                                payload: HandshakeMsg::Alert("bad_record_mac".into()).encode(),
                            });
                        }
                    }
                }
                (_, ContentType::Alert) => {
                    self.state = HandlerState::Dead;
                }
                _ => {
                    self.state = HandlerState::Dead;
                    out.push(Record {
                        ctype: ContentType::Alert,
                        payload: HandshakeMsg::Alert("unexpected_record".into()).encode(),
                    });
                }
            }
        }
        encode_records(&out)
    }

    fn on_close(&mut self, ctx: &mut ServiceCtx<'_>) {
        if let Some(inner) = self.inner.as_mut() {
            inner.on_close(ctx);
        }
    }
}

impl Service for TlsServerService {
    fn open_stream(&self, peer: PeerInfo) -> Box<dyn StreamHandler> {
        Box::new(TlsServerHandler {
            config: Arc::clone(&self.config),
            inner_service: Arc::clone(&self.inner),
            inner: None,
            peer,
            state: HandlerState::AwaitingHello,
        })
    }

    fn protocol(&self) -> &'static str {
        "tls"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpn_selection() {
        let dot = vec!["dot".to_string()];
        let h2 = vec!["h2".to_string()];
        // Server restricted, client matches.
        assert_eq!(select_alpn(&dot, &dot), Ok(Some("dot".into())));
        // Server restricted, client mismatched.
        assert_eq!(select_alpn(&dot, &h2), Err(()));
        // Server unrestricted mirrors client.
        assert_eq!(select_alpn(&[], &h2), Ok(Some("h2".into())));
        // Client offers nothing: no ALPN.
        assert_eq!(select_alpn(&dot, &[]), Ok(None));
    }

    #[test]
    fn client_hello_answer_full_vs_resumed() {
        let config = TlsServerConfig::new(Vec::new(), KeyId(7));
        let full = ClientHello {
            sni: None,
            alpn: vec![],
            client_random: 1,
            ticket: None,
        };
        let (key, _, reply) = answer_client_hello(&config, &full).unwrap();
        let HandshakeMsg::ServerHello(sh) = HandshakeMsg::decode(&reply.payload).unwrap() else {
            panic!("expected ServerHello");
        };
        assert!(!sh.resumed);
        // The issued ticket recovers the session key.
        let ticket = sh.ticket.unwrap();
        assert_eq!(SessionKey(ticket ^ config.ticket_secret), key);

        let resumed = ClientHello {
            ticket: Some(ticket),
            client_random: 2,
            ..full
        };
        let (key2, _, reply2) = answer_client_hello(&config, &resumed).unwrap();
        let HandshakeMsg::ServerHello(sh2) = HandshakeMsg::decode(&reply2.payload).unwrap() else {
            panic!("expected ServerHello");
        };
        assert!(sh2.resumed);
        assert!(sh2.chain.is_empty(), "no chain re-sent on resumption");
        assert_eq!(key2, SessionKey::derive_resumed(key, 2));
    }
}
