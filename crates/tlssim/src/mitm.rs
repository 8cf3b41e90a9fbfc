//! TLS interception middleboxes.
//!
//! Two real-world device families from the study are modelled by one
//! service:
//!
//! * **Inline interceptors** (Finding 2.3, Table 6): path policies divert a
//!   client's connection to the device, which terminates TLS with a
//!   *re-signed copy of the genuine resolver's certificate* (untrusted CA,
//!   other fields unchanged) and proxies the plaintext to the original
//!   destination. Opportunistic DoT clients proceed and leak their
//!   queries; Strict DoH clients abort.
//! * **DoT proxies with appliance default certificates** (Finding 1.2's 47
//!   FortiGate resolvers): devices listening on their own port 853 with a
//!   self-signed default certificate, forwarding to a configured upstream
//!   resolver.

use crate::cert::{CaHandle, Certificate, KeyId};
use crate::client::{TlsClientConfig, TlsConnector, TlsStream};
use crate::date::DateStamp;
use crate::handshake::{HandshakeMsg, TlsCosts};
use crate::record::{
    decode_records, encode_records, open, seal_record, ContentType, Record, SessionKey,
};
use crate::server::{answer_client_hello, TlsServerConfig};
use netsim::{PeerInfo, Service, ServiceCtx, StreamHandler};
use std::net::Ipv4Addr;

/// One plaintext exchange the device observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterceptedExchange {
    /// The spied-on client.
    pub client: Ipv4Addr,
    /// Where the client believed it was connecting.
    pub original_dst: Ipv4Addr,
    /// Dialled port.
    pub port: u16,
    /// The client's decrypted request bytes.
    pub plaintext: Vec<u8>,
}

/// Everything interception devices decrypted — ground truth for "queries
/// from clients are visible to the interceptors".
///
/// The log lives in a network's shard-local state. A test installs it with
/// `net.shard_local(|_: &mut InterceptLog| ())` on the network it queries,
/// and from then on every [`TlsInterceptService`] on that network appends
/// to it. Without one, devices retain nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InterceptLog(pub Vec<InterceptedExchange>);

/// How the device obtains the certificate it presents.
#[derive(Debug, Clone)]
pub enum PresentStrategy {
    /// Fetch the genuine upstream chain and re-sign the leaf with our CA
    /// (inline DPI interceptors).
    ResignUpstream,
    /// Always present this fixed chain (appliance default certificates).
    Fixed(Vec<Certificate>),
}

/// A TLS-intercepting [`Service`].
pub struct TlsInterceptService {
    ca: CaHandle,
    device_key: KeyId,
    strategy: PresentStrategy,
    /// Where to forward; `None` forwards to the client's original
    /// destination (inline mode).
    upstream_override: Option<(Ipv4Addr, u16)>,
    now: DateStamp,
    costs: TlsCosts,
}

impl TlsInterceptService {
    /// An inline interceptor re-signing with `ca`.
    pub fn inline_interceptor(ca: CaHandle, device_key: KeyId, now: DateStamp) -> Self {
        TlsInterceptService {
            ca,
            device_key,
            strategy: PresentStrategy::ResignUpstream,
            upstream_override: None,
            now,
            costs: TlsCosts::default(),
        }
    }

    /// A DoT proxy presenting a fixed (typically self-signed) chain and
    /// forwarding to `upstream`.
    pub fn fixed_cert_proxy(
        ca: CaHandle,
        device_key: KeyId,
        chain: Vec<Certificate>,
        upstream: (Ipv4Addr, u16),
        now: DateStamp,
    ) -> Self {
        TlsInterceptService {
            ca,
            device_key,
            strategy: PresentStrategy::Fixed(chain),
            upstream_override: Some(upstream),
            now,
            costs: TlsCosts::default(),
        }
    }

    /// The device's CA common name (what shows up in Table 6).
    pub fn ca_cn(&self) -> &str {
        self.ca.cn()
    }
}

enum ProxyState {
    AwaitingHello,
    Established {
        client_key: SessionKey,
        upstream: Box<TlsStream>,
    },
    Dead,
}

struct InterceptHandler {
    ca: CaHandle,
    device_key: KeyId,
    strategy: PresentStrategy,
    upstream_override: Option<(Ipv4Addr, u16)>,
    peer: PeerInfo,
    now: DateStamp,
    costs: TlsCosts,
    state: ProxyState,
}

impl InterceptHandler {
    fn alert(&mut self, reason: &str) -> Vec<u8> {
        self.state = ProxyState::Dead;
        encode_records(&[Record {
            ctype: ContentType::Alert,
            payload: HandshakeMsg::Alert(reason.to_string()).encode(),
        }])
    }

    fn upstream_target(&self) -> (Ipv4Addr, u16) {
        self.upstream_override
            .unwrap_or((self.peer.original_dst, self.peer.original_port))
    }

    /// Dial the genuine server as a TLS client (no verification — the
    /// device doesn't care) and return the session plus its chain.
    fn dial_upstream(
        &self,
        ctx: &mut ServiceCtx<'_>,
        sni: Option<&str>,
        alpn: &[String],
    ) -> Result<TlsStream, ()> {
        let (ip, port) = self.upstream_target();
        let local = ctx.local_addr();
        let mut config = TlsClientConfig::no_verify(self.now);
        config.alpn = alpn.to_vec();
        config.enable_resumption = false;
        config.costs = self.costs;
        let mut connector = TlsConnector::new(config);
        match connector.connect(ctx.network(), local, ip, port, sni) {
            Ok(mut stream) => {
                // The upstream handshake time is on the client's critical
                // path: the device stalls the client while it dials.
                ctx.charge(stream.take_elapsed());
                Ok(stream)
            }
            Err(crate::error::TlsError::Transport(e)) => {
                ctx.charge(e.elapsed);
                Err(())
            }
            Err(_) => Err(()),
        }
    }
}

impl StreamHandler for InterceptHandler {
    fn on_bytes(&mut self, ctx: &mut ServiceCtx<'_>, data: &[u8]) -> Vec<u8> {
        let records = match decode_records(data) {
            Ok(r) => r,
            Err(_) => return self.alert("decode_error"),
        };
        let mut out: Vec<Record> = Vec::new();
        for record in records {
            match (&mut self.state, record.ctype) {
                (ProxyState::AwaitingHello, ContentType::Handshake) => {
                    let ch = match HandshakeMsg::decode(&record.payload) {
                        Ok(HandshakeMsg::ClientHello(ch)) => ch,
                        _ => return self.alert("unexpected_message"),
                    };
                    let upstream = match self.dial_upstream(ctx, ch.sni.as_deref(), &ch.alpn) {
                        Ok(s) => s,
                        Err(()) => return self.alert("upstream_unreachable"),
                    };
                    let presented = match &self.strategy {
                        PresentStrategy::ResignUpstream => {
                            let mut chain: Vec<Certificate> = Vec::new();
                            if let Some(leaf) = upstream.server_chain().first() {
                                let mut forged = self.ca.resign(leaf);
                                // The forged leaf must carry a key the
                                // device controls.
                                forged.key = self.device_key;
                                forged.signature.digest = forged.tbs_digest();
                                chain.push(forged);
                            }
                            chain.push(self.ca.root_cert().clone());
                            chain
                        }
                        PresentStrategy::Fixed(chain) => chain.clone(),
                    };
                    let config = TlsServerConfig {
                        chain: presented,
                        key: self.device_key,
                        alpn: Vec::new(),
                        ticket_secret: crate::cert::fnv1a(&self.device_key.0.to_be_bytes()),
                    };
                    match answer_client_hello(&config, &ch) {
                        Ok((key, _resumed, reply)) => {
                            self.state = ProxyState::Established {
                                client_key: key,
                                upstream: Box::new(upstream),
                            };
                            out.push(reply);
                        }
                        Err(alert) => {
                            self.state = ProxyState::Dead;
                            out.push(alert);
                        }
                    }
                }
                (ProxyState::Established { .. }, ContentType::Handshake) => {
                    match HandshakeMsg::decode(&record.payload) {
                        Ok(HandshakeMsg::Finished) => out.push(Record {
                            ctype: ContentType::Handshake,
                            payload: HandshakeMsg::Finished.encode(),
                        }),
                        _ => return self.alert("unexpected_message"),
                    }
                }
                (
                    ProxyState::Established {
                        client_key,
                        upstream,
                    },
                    ContentType::ApplicationData,
                ) => {
                    let key = *client_key;
                    let plaintext = match open(key, &record.payload) {
                        Ok(p) => p,
                        Err(_) => return self.alert("bad_record_mac"),
                    };
                    ctx.network()
                        .shard_local_if_present(|log: &mut InterceptLog| {
                            log.0.push(InterceptedExchange {
                                client: self.peer.src,
                                original_dst: self.peer.original_dst,
                                port: self.peer.original_port,
                                plaintext: plaintext.clone(),
                            })
                        });
                    let response = match upstream.request(ctx.network(), &plaintext) {
                        Ok(r) => r,
                        Err(_) => return self.alert("upstream_failed"),
                    };
                    ctx.charge(upstream.take_elapsed());
                    match seal_record(key, &response) {
                        Ok(sealed) => out.push(sealed),
                        Err(_) => return self.alert("record_overflow"),
                    }
                }
                (_, ContentType::Alert) => {
                    self.state = ProxyState::Dead;
                }
                _ => return self.alert("unexpected_record"),
            }
        }
        encode_records(&out)
    }
}

impl Service for TlsInterceptService {
    fn open_stream(&self, peer: PeerInfo) -> Box<dyn StreamHandler> {
        Box::new(InterceptHandler {
            ca: self.ca.clone(),
            device_key: self.device_key,
            strategy: self.strategy.clone(),
            upstream_override: self.upstream_override,
            peer,
            now: self.now,
            costs: self.costs,
            state: ProxyState::AwaitingHello,
        })
    }

    fn protocol(&self) -> &'static str {
        "tls-mitm"
    }
}
