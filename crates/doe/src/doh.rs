//! DNS over HTTPS (RFC 8484): URI templates, GET/POST forms, bootstrap
//! resolution, Strict-profile-only TLS.

use crate::error::{DnsTransport, QueryError, QueryReply, TransportInfo};
use crate::responder::DnsResponder;
use crate::tap::{FlowTap, TapDirection};
use dnswire::{builder, Message, MessageBuf, PaddingPolicy, Rcode, RecordType};
use httpsim::{base64url_decode, base64url_encode, Request, Response, UriTemplate};
use netsim::{Network, PeerInfo, Service, ServiceCtx, SimDuration, StreamHandler};
use rand::Rng;
use std::net::Ipv4Addr;
use std::sync::Arc;
use tlssim::{
    TlsClientConfig, TlsConnector, TlsServerConfig, TlsServerService, TlsStream, VerifyMode,
};

/// The RFC 8484 media type.
pub const DNS_MESSAGE_TYPE: &str = "application/dns-message";

/// Which HTTP form the client uses (Figure 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DohMethod {
    /// `GET /dns-query?dns=<base64url>`.
    Get,
    /// `POST /dns-query` with the wire message as body.
    Post,
}

/// How a DoH client learns the resolver's address — the bootstrap step
/// whose passive-DNS footprint Section 5.3 measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bootstrap {
    /// Address configured out of band.
    Static(Ipv4Addr),
    /// Resolve the template hostname via clear-text DNS at this resolver.
    Do53 {
        /// The clear-text resolver to bootstrap through.
        resolver: Ipv4Addr,
    },
}

/// A DoH client bound to one URI template.
pub struct DohClient {
    connector: TlsConnector,
    template: UriTemplate,
    method: DohMethod,
    bootstrap: Bootstrap,
    bootstrap_cache: Option<Ipv4Addr>,
    /// Query padding policy. Defaults to [`PaddingPolicy::None`]: the
    /// in-the-wild DoH clients the paper measured did not pad, so the
    /// discovery and performance legs keep that behavior; the privacy
    /// experiment opts in per client.
    pub policy: PaddingPolicy,
}

impl DohClient {
    /// Build a client. DoH requires the Strict profile (RFC 8484); any
    /// other verify mode in `config` is overridden.
    pub fn new(
        mut config: TlsClientConfig,
        template: UriTemplate,
        method: DohMethod,
        bootstrap: Bootstrap,
    ) -> Self {
        config.verify = VerifyMode::Strict;
        if config.alpn.is_empty() {
            config.alpn = vec!["h2".to_string(), "http/1.1".to_string()];
        }
        DohClient {
            connector: TlsConnector::new(config),
            template,
            method,
            bootstrap,
            bootstrap_cache: None,
            policy: PaddingPolicy::None,
        }
    }

    /// The template in use.
    pub fn template(&self) -> &UriTemplate {
        &self.template
    }

    /// Resolve (and cache) the service address. The bootstrap latency is
    /// returned so sessions can charge it.
    fn bootstrap_addr(
        &mut self,
        net: &mut Network,
        src: Ipv4Addr,
    ) -> Result<(Ipv4Addr, SimDuration), QueryError> {
        if let Some(addr) = self.bootstrap_cache {
            return Ok((addr, SimDuration::ZERO));
        }
        match self.bootstrap {
            Bootstrap::Static(addr) => {
                self.bootstrap_cache = Some(addr);
                Ok((addr, SimDuration::ZERO))
            }
            Bootstrap::Do53 { resolver } => {
                let id = net.rng().gen();
                let q = builder::query(id, self.template.host(), RecordType::A)
                    .map_err(QueryError::Wire)?;
                let reply = crate::do53::do53_udp_query(
                    net,
                    src,
                    resolver,
                    &q,
                    SimDuration::from_secs(5),
                    1,
                )?;
                let addr = reply.view().first_a_answer().ok_or_else(|| {
                    QueryError::Protocol(format!(
                        "bootstrap for {} returned no address",
                        self.template.host()
                    ))
                })?;
                self.bootstrap_cache = Some(addr);
                Ok((addr, reply.latency))
            }
        }
    }

    /// Open a session (bootstraps if needed, then TLS with SNI).
    pub fn session(&mut self, net: &mut Network, src: Ipv4Addr) -> Result<DohSession, QueryError> {
        let (addr, bootstrap_time) = self.bootstrap_addr(net, src)?;
        let host = self.template.host().to_string();
        let stream = self
            .connector
            .connect(net, src, addr, self.template.port(), Some(&host))?;
        Ok(DohSession {
            stream,
            template: self.template.clone(),
            method: self.method,
            host,
            pending_extra: bootstrap_time,
            policy: self.policy,
            tap: None,
            queries_sent: 0,
        })
    }

    /// One-shot query on a fresh session.
    pub fn query_once(
        &mut self,
        net: &mut Network,
        src: Ipv4Addr,
        query: &Message,
    ) -> Result<QueryReply, QueryError> {
        let mut session = self.session(net, src)?;
        let mut reply = session.query(net, query)?;
        reply.latency = session.take_elapsed();
        session.close(net);
        Ok(reply)
    }

    /// Drop the cached bootstrap address (e.g. to re-resolve).
    pub fn clear_bootstrap(&mut self) {
        self.bootstrap_cache = None;
    }
}

/// An established DoH session.
#[derive(Debug)]
pub struct DohSession {
    stream: TlsStream,
    template: UriTemplate,
    method: DohMethod,
    host: String,
    /// Bootstrap time not yet folded into a query latency.
    pending_extra: SimDuration,
    policy: PaddingPolicy,
    tap: Option<FlowTap>,
    queries_sent: u32,
}

impl DohSession {
    /// Start recording (offset, direction, padded size) for every DNS
    /// payload the session moves — the observer model of the privacy
    /// experiment (HTTP framing overhead is constant per method and
    /// excluded).
    pub fn enable_tap(&mut self) {
        self.tap = Some(FlowTap::new());
    }

    /// Detach the recorded tap, if one was enabled.
    pub fn take_tap(&mut self) -> Option<FlowTap> {
        self.tap.take()
    }

    /// Send one query; the response body is validated on receipt.
    pub fn query(&mut self, net: &mut Network, query: &Message) -> Result<QueryReply, QueryError> {
        let key = u64::from(query.header.id) | (u64::from(self.queries_sent) << 16);
        let wire = match self.policy.query_block(key) {
            Some(block) => {
                let mut padded = query.clone();
                padded.pad_to_block(block)?;
                padded.encode()?
            }
            None => query.encode()?,
        };
        let up_len = wire.len();
        let request = match self.method {
            DohMethod::Get => Request::get(&self.template.expand_get(&base64url_encode(&wire)))
                .with_header("Host", &self.host)
                .with_header("Accept", DNS_MESSAGE_TYPE),
            DohMethod::Post => Request::post(&self.template.post_target(), DNS_MESSAGE_TYPE, wire)
                .with_header("Host", &self.host)
                .with_header("Accept", DNS_MESSAGE_TYPE),
        };
        let before = self.stream.elapsed();
        if let Some(tap) = self.tap.as_mut() {
            tap.record(before, TapDirection::Up, up_len);
        }
        let raw = self.stream.request(net, &request.encode())?;
        let response = Response::decode(&raw)
            .map_err(|e| QueryError::Protocol(format!("bad http response: {e}")))?;
        let latency = self.stream.elapsed() - before + std::mem::take(&mut self.pending_extra);
        if response.status != 200 {
            return Err(QueryError::Http {
                status: response.status,
                elapsed: latency,
            });
        }
        self.queries_sent += 1;
        if let Some(tap) = self.tap.as_mut() {
            tap.record(
                self.stream.elapsed(),
                TapDirection::Down,
                response.body.len(),
            );
        }
        Ok(QueryReply {
            frame: MessageBuf::parse(response.body)?,
            latency,
            transport: TransportInfo {
                protocol: DnsTransport::Doh,
                verify: Some(self.stream.verify_result().clone()),
                resumed: self.stream.resumed(),
                connection_reused: self.queries_sent > 1,
            },
        })
    }

    /// Total time charged (TLS + TCP + pending bootstrap).
    pub fn elapsed(&self) -> SimDuration {
        self.stream.elapsed() + self.pending_extra
    }

    /// Read-and-reset the session clock (incl. pending bootstrap time).
    pub fn take_elapsed(&mut self) -> SimDuration {
        self.stream.take_elapsed() + std::mem::take(&mut self.pending_extra)
    }

    /// The certificate chain presented.
    pub fn server_chain(&self) -> &[tlssim::Certificate] {
        self.stream.server_chain()
    }

    /// Close the session.
    pub fn close(self, net: &mut Network) {
        self.stream.close(net);
    }
}

/// What answers DoH queries behind the front-end.
pub enum DohBackend {
    /// Answer in-process.
    Local(Arc<dyn DnsResponder>),
    /// Forward to a clear-text DNS back-end over UDP with a hard timeout —
    /// Quad9's architecture, whose 2-second timeout is the Finding 2.4
    /// misconfiguration.
    ForwardUdp {
        /// Back-end address.
        backend: Ipv4Addr,
        /// Back-end port.
        port: u16,
        /// Give-up threshold; on expiry the front-end answers SERVFAIL.
        timeout: SimDuration,
    },
}

/// Server-side DoH: TLS termination around an HTTP handler that speaks
/// RFC 8484.
pub struct DohServerService {
    inner: TlsServerService,
}

struct DohHttpService {
    paths: Vec<String>,
    backend: DohBackend,
}

impl DohHttpService {
    fn answer(&self, ctx: &mut ServiceCtx<'_>, peer: PeerInfo, req: &Request) -> Response {
        if !self.paths.iter().any(|p| p == req.path()) {
            return Response::not_found();
        }
        let wire: Vec<u8> = match req.method {
            httpsim::Method::Get => match req.query_param("dns").and_then(base64url_decode) {
                Some(w) => w,
                None => return Response::bad_request("missing or bad dns parameter"),
            },
            httpsim::Method::Post => req.body.clone(),
            _ => return Response::status(405, "Method Not Allowed"),
        };
        let Ok(query) = Message::decode(&wire) else {
            return Response::bad_request("bad dns message");
        };
        let response_msg = match &self.backend {
            DohBackend::Local(responder) => responder.respond(ctx, peer, &query),
            DohBackend::ForwardUdp {
                backend,
                port,
                timeout,
            } => {
                let local = ctx.local_addr();
                match ctx
                    .network()
                    .udp_query(local, *backend, *port, &wire, Some(*timeout))
                {
                    Ok(reply) if reply.elapsed <= *timeout => {
                        ctx.charge(reply.elapsed);
                        match Message::decode(&reply.bytes) {
                            Ok(m) => m,
                            Err(_) => builder::error_response(&query, Rcode::ServFail),
                        }
                    }
                    Ok(_slow) => {
                        // Back-end answered after the deadline: the
                        // front-end already gave up at `timeout`.
                        ctx.charge(*timeout);
                        builder::error_response(&query, Rcode::ServFail)
                    }
                    Err(_) => {
                        ctx.charge(*timeout);
                        builder::error_response(&query, Rcode::ServFail)
                    }
                }
            }
        };
        match response_msg.encode() {
            Ok(bytes) => {
                Response::ok(DNS_MESSAGE_TYPE, bytes).with_header("Cache-Control", "max-age=60")
            }
            Err(_) => Response::status(500, "Internal Server Error"),
        }
    }
}

impl Service for DohHttpService {
    fn open_stream(&self, peer: PeerInfo) -> Box<dyn StreamHandler> {
        struct H {
            svc: Arc<DohHttpService>,
            peer: PeerInfo,
        }
        impl StreamHandler for H {
            fn on_bytes(&mut self, ctx: &mut ServiceCtx<'_>, data: &[u8]) -> Vec<u8> {
                match Request::decode(data) {
                    Ok(req) => self.svc.answer(ctx, self.peer, &req).encode(),
                    Err(e) => Response::bad_request(&e.to_string()).encode(),
                }
            }
        }
        // `open_stream` takes &self; reconstruct a shared handle.
        Box::new(H {
            svc: Arc::new(DohHttpService {
                paths: self.paths.clone(),
                backend: match &self.backend {
                    DohBackend::Local(r) => DohBackend::Local(Arc::clone(r)),
                    DohBackend::ForwardUdp {
                        backend,
                        port,
                        timeout,
                    } => DohBackend::ForwardUdp {
                        backend: *backend,
                        port: *port,
                        timeout: *timeout,
                    },
                },
            }),
            peer,
        })
    }

    fn protocol(&self) -> &'static str {
        "doh-http"
    }
}

impl DohServerService {
    /// Serve RFC 8484 at the given paths behind TLS.
    pub fn new(mut tls: TlsServerConfig, paths: Vec<String>, backend: DohBackend) -> Self {
        if tls.alpn.is_empty() {
            tls.alpn = vec!["h2".to_string(), "http/1.1".to_string()];
        }
        let http = Arc::new(DohHttpService { paths, backend });
        DohServerService {
            inner: TlsServerService::new(tls, http),
        }
    }
}

impl Service for DohServerService {
    fn open_stream(&self, peer: PeerInfo) -> Box<dyn StreamHandler> {
        self.inner.open_stream(peer)
    }

    fn protocol(&self) -> &'static str {
        "doh"
    }
}

impl std::fmt::Debug for DohBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DohBackend::Local(_) => write!(f, "DohBackend::Local"),
            DohBackend::ForwardUdp {
                backend,
                port,
                timeout,
            } => f
                .debug_struct("DohBackend::ForwardUdp")
                .field("backend", backend)
                .field("port", port)
                .field("timeout", timeout)
                .finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::do53::Do53UdpService;
    use crate::responder::AuthoritativeServer;
    use dnswire::zone::Zone;
    use dnswire::{Name, RData};
    use netsim::{HostMeta, NetworkConfig};
    use tlssim::{CaHandle, DateStamp, KeyId, TrustStore};

    fn now() -> DateStamp {
        DateStamp::from_ymd(2019, 2, 1)
    }

    struct DohWorld {
        net: Network,
        client: Ipv4Addr,
        store: TrustStore,
        template: UriTemplate,
        bootstrap_resolver: Ipv4Addr,
    }

    fn world(backend_kind: &str) -> DohWorld {
        let mut net = Network::new(NetworkConfig::default(), 41);
        let client: Ipv4Addr = "198.51.100.4".parse().unwrap();
        let doh_front: Ipv4Addr = "104.16.248.249".parse().unwrap();
        let bootstrap_resolver: Ipv4Addr = "192.0.2.53".parse().unwrap();
        net.add_host(HostMeta::new(client).country("NL").asn(1136));
        net.add_host(HostMeta::new(doh_front).country("US").asn(13335).anycast());
        net.add_host(
            HostMeta::new(bootstrap_resolver)
                .country("US")
                .asn(64500)
                .anycast(),
        );

        // Probe zone served by the DoH resolver locally.
        let apex = Name::parse("probe.example").unwrap();
        let mut zone = Zone::new(apex.clone());
        zone.add_record(
            &apex.prepend("*").unwrap(),
            60,
            RData::A("203.0.113.7".parse().unwrap()),
        );
        let responder: Arc<dyn DnsResponder> = Arc::new(AuthoritativeServer::new(vec![zone]));

        // Bootstrap zone: cloudflare-dns.com → the front-end address.
        let boot_apex = Name::parse("cloudflare-dns.com").unwrap();
        let mut boot_zone = Zone::new(boot_apex.clone());
        boot_zone.add_record(&boot_apex, 300, RData::A(doh_front));
        let boot: Arc<dyn DnsResponder> = Arc::new(AuthoritativeServer::new(vec![boot_zone]));
        net.bind_udp(bootstrap_resolver, 53, Arc::new(Do53UdpService::new(boot)));

        let ca = CaHandle::new("DigiCert", KeyId(1), now() + -700, 3650);
        let leaf = ca.issue(
            "cloudflare-dns.com",
            vec!["*.cloudflare-dns.com".into()],
            KeyId(2),
            1,
            now() + -30,
            now() + 365,
        );
        let mut store = TrustStore::new();
        store.add(ca.authority());

        let backend = match backend_kind {
            "local" => DohBackend::Local(responder),
            "forward" => {
                // Back-end Do53 on the same host, fed by a congested
                // recursive resolver.
                let recursive = Arc::new(crate::recursive::RecursiveResolver::new(
                    crate::recursive::UpstreamMap::new(),
                    crate::recursive::RecursiveConfig {
                        servfail_rate: 0.0,
                        miss_delay: crate::recursive::MissDelay::congested(),
                        ..Default::default()
                    },
                ));
                net.bind_udp(doh_front, 53, Arc::new(Do53UdpService::new(recursive)));
                DohBackend::ForwardUdp {
                    backend: doh_front,
                    port: 53,
                    timeout: SimDuration::from_secs(2),
                }
            }
            other => panic!("unknown backend {other}"),
        };
        net.bind_tcp(
            doh_front,
            443,
            Arc::new(DohServerService::new(
                TlsServerConfig::new(vec![leaf], KeyId(2)),
                vec!["/dns-query".to_string()],
                backend,
            )),
        );
        DohWorld {
            net,
            client,
            store,
            template: UriTemplate::parse("https://cloudflare-dns.com/dns-query{?dns}").unwrap(),
            bootstrap_resolver,
        }
    }

    #[test]
    fn get_and_post_both_work() {
        for method in [DohMethod::Get, DohMethod::Post] {
            let mut w = world("local");
            let mut doh = DohClient::new(
                TlsClientConfig::strict(w.store.clone(), now()),
                w.template.clone(),
                method,
                Bootstrap::Do53 {
                    resolver: w.bootstrap_resolver,
                },
            );
            let q = builder::query(0, "m1.probe.example", RecordType::A).unwrap();
            let reply = doh.query_once(&mut w.net, w.client, &q).unwrap();
            assert_eq!(reply.view().rcode(), Rcode::NoError, "{method:?}");
            assert_eq!(reply.view().answers().count(), 1);
            assert_eq!(reply.transport.protocol, DnsTransport::Doh);
        }
    }

    #[test]
    fn session_reuse_works() {
        let mut w = world("local");
        let mut doh = DohClient::new(
            TlsClientConfig::strict(w.store.clone(), now()),
            w.template.clone(),
            DohMethod::Post,
            Bootstrap::Static("104.16.248.249".parse().unwrap()),
        );
        let mut session = doh.session(&mut w.net, w.client).unwrap();
        let setup = session.take_elapsed();
        for id in 0..5u16 {
            let q = builder::query(id, &format!("s{id}.probe.example"), RecordType::A).unwrap();
            let reply = session.query(&mut w.net, &q).unwrap();
            assert_eq!(reply.view().answers().count(), 1);
            assert!(reply.latency < setup);
        }
        session.close(&mut w.net);
    }

    #[test]
    fn unknown_path_is_404() {
        let mut w = world("local");
        let template = UriTemplate::parse("https://cloudflare-dns.com/wrong-path{?dns}").unwrap();
        let mut doh = DohClient::new(
            TlsClientConfig::strict(w.store.clone(), now()),
            template,
            DohMethod::Get,
            Bootstrap::Static("104.16.248.249".parse().unwrap()),
        );
        let q = builder::query(1, "x.probe.example", RecordType::A).unwrap();
        let err = doh.query_once(&mut w.net, w.client, &q).unwrap_err();
        assert!(matches!(err, QueryError::Http { status: 404, .. }));
    }

    #[test]
    fn quad9_style_forwarding_servfails_on_slow_backend() {
        let mut w = world("forward");
        let mut doh = DohClient::new(
            TlsClientConfig::strict(w.store.clone(), now()),
            w.template.clone(),
            DohMethod::Post,
            Bootstrap::Static("104.16.248.249".parse().unwrap()),
        );
        let mut servfail = 0usize;
        let mut ok = 0usize;
        let n = 150;
        let mut session = doh.session(&mut w.net, w.client).unwrap();
        for id in 0..n {
            let q = builder::query(
                id as u16,
                &format!("t{id}.unique-miss.example"),
                RecordType::A,
            )
            .unwrap();
            match session.query(&mut w.net, &q) {
                Ok(reply) if reply.view().rcode() == Rcode::ServFail => servfail += 1,
                Ok(_) => ok += 1,
                Err(e) => panic!("unexpected transport error: {e}"),
            }
        }
        let frac = servfail as f64 / n as f64;
        assert!(ok > 0);
        assert!(
            (0.05..=0.25).contains(&frac),
            "SERVFAIL fraction {frac}, want ~0.13"
        );
        session.close(&mut w.net);
    }

    #[test]
    fn bootstrap_failure_surfaces() {
        let mut w = world("local");
        // Point bootstrap at a dead resolver.
        let mut doh = DohClient::new(
            TlsClientConfig::strict(w.store.clone(), now()),
            w.template.clone(),
            DohMethod::Get,
            Bootstrap::Do53 {
                resolver: "203.0.113.250".parse().unwrap(),
            },
        );
        let q = builder::query(1, "x.probe.example", RecordType::A).unwrap();
        assert!(doh.query_once(&mut w.net, w.client, &q).is_err());
    }

    #[test]
    fn figure2_shapes_on_the_wire() {
        // The two request forms of Figure 2, as actual bytes.
        let q = builder::query(0, "example.com", RecordType::A).unwrap();
        let wire = q.encode().unwrap();
        let template = UriTemplate::parse("https://dns.example.com/dns-query{?dns}").unwrap();
        let get = Request::get(&template.expand_get(&base64url_encode(&wire)))
            .with_header("Host", "dns.example.com")
            .with_header("Accept", DNS_MESSAGE_TYPE);
        let text = String::from_utf8(get.encode()).unwrap();
        assert!(text.starts_with("GET /dns-query?dns="));
        assert!(text.contains("Accept: application/dns-message"));
        let post = Request::post(&template.post_target(), DNS_MESSAGE_TYPE, wire.clone());
        let bytes = post.encode();
        assert!(
            bytes.windows(wire.len()).any(|w| w == &wire[..]),
            "body carries wire query"
        );
    }
}
