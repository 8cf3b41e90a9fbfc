//! DNS over TLS (RFC 7858): port 853, RFC 1035 framing inside TLS.

use crate::error::{DnsTransport, QueryError, QueryReply, TransportInfo};
use crate::responder::DnsResponder;
use crate::tap::{FlowTap, TapDirection};
use dnswire::{frame_message, FrameDecoder, Message, MessageBuf, PaddingPolicy};
use netsim::{Network, SimDuration};
use std::net::Ipv4Addr;
use std::sync::Arc;
use tlssim::{TlsClientConfig, TlsConnector, TlsServerConfig, TlsServerService, TlsStream};

/// ALPN token for DoT (RFC 7858 §3.1 suggests "dot").
pub const DOT_ALPN: &str = "dot";

/// A DoT client: wraps a [`TlsConnector`] whose profile (Strict /
/// Opportunistic) decides what happens on authentication failure.
pub struct DotClient {
    connector: TlsConnector,
    /// Query padding policy; the default is the RFC 8467 recommendation
    /// (128-octet query blocks). [`PaddingPolicy::None`] disables padding.
    pub policy: PaddingPolicy,
}

impl DotClient {
    /// Build from a TLS client config (ALPN forced to `dot`).
    pub fn new(mut config: TlsClientConfig) -> Self {
        config.alpn = vec![DOT_ALPN.to_string()];
        DotClient {
            connector: TlsConnector::new(config),
            policy: PaddingPolicy::rfc8467(),
        }
    }

    /// Open a session for multiple queries (connection reuse).
    pub fn session(
        &mut self,
        net: &mut Network,
        src: Ipv4Addr,
        resolver: Ipv4Addr,
        auth_name: Option<&str>,
    ) -> Result<DotSession, QueryError> {
        let stream = self
            .connector
            .connect(net, src, resolver, crate::DOT_PORT, auth_name)?;
        Ok(DotSession {
            stream,
            decoder: FrameDecoder::new(),
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
        resolver: Ipv4Addr,
        auth_name: Option<&str>,
        query: &Message,
    ) -> Result<QueryReply, QueryError> {
        let mut session = self.session(net, src, resolver, auth_name)?;
        let mut reply = session.query(net, query)?;
        // Fold the setup cost into the one-shot latency.
        reply.latency = session.stream.take_elapsed();
        session.close(net);
        Ok(reply)
    }

    /// Sessions cached for resumption.
    pub fn cached_sessions(&self) -> usize {
        self.connector.cached_sessions()
    }
}

/// An established DoT session carrying framed DNS messages.
#[derive(Debug)]
pub struct DotSession {
    stream: TlsStream,
    decoder: FrameDecoder,
    policy: PaddingPolicy,
    tap: Option<FlowTap>,
    queries_sent: u32,
}

impl DotSession {
    /// Start recording (offset, direction, padded size) for every message
    /// the session moves — the observer model of the privacy experiment.
    pub fn enable_tap(&mut self) {
        self.tap = Some(FlowTap::new());
    }

    /// Detach the recorded tap, if one was enabled.
    pub fn take_tap(&mut self) -> Option<FlowTap> {
        self.tap.take()
    }

    /// Send one query over the session: pad, encode and frame it, then
    /// exchange it through [`Self::query_wire`].
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
        self.query_wire(net, &frame_message(&wire)?)
    }

    /// Send pre-framed wire bytes over the session and validate the
    /// response frame.
    ///
    /// This is the scanner's bulk-probe path: the caller stamps a
    /// pre-encoded, pre-padded query template, so no per-query message
    /// build, padding or encode happens here. Padding must already be
    /// baked into `framed`; [`Self::query`] builds it from a message.
    pub fn query_wire(
        &mut self,
        net: &mut Network,
        framed: &[u8],
    ) -> Result<QueryReply, QueryError> {
        let before = self.stream.elapsed();
        if let Some(tap) = self.tap.as_mut() {
            tap.record(before, TapDirection::Up, framed.len());
        }
        let resp = self.stream.request(net, framed)?;
        self.decoder.push(&resp);
        let Some(frame) = self.decoder.next_message() else {
            return Err(QueryError::Protocol(
                "no complete DoT response frame".into(),
            ));
        };
        self.queries_sent += 1;
        if let Some(tap) = self.tap.as_mut() {
            // The observer sees the response with its 2-byte length prefix.
            tap.record(self.stream.elapsed(), TapDirection::Down, frame.len() + 2);
        }
        Ok(QueryReply {
            frame: MessageBuf::parse(frame)?,
            latency: self.stream.elapsed() - before,
            transport: TransportInfo {
                protocol: DnsTransport::Dot,
                verify: Some(self.stream.verify_result().clone()),
                resumed: self.stream.resumed(),
                connection_reused: self.queries_sent > 1,
            },
        })
    }

    /// Verification outcome for the session's certificate.
    pub fn verify_result(&self) -> &Result<(), tlssim::CertError> {
        self.stream.verify_result()
    }

    /// The certificate chain presented by the server.
    pub fn server_chain(&self) -> &[tlssim::Certificate] {
        self.stream.server_chain()
    }

    /// Total time charged.
    pub fn elapsed(&self) -> SimDuration {
        self.stream.elapsed()
    }

    /// Read-and-reset the session clock.
    pub fn take_elapsed(&mut self) -> SimDuration {
        self.stream.take_elapsed()
    }

    /// Close the session.
    pub fn close(self, net: &mut Network) {
        self.stream.close(net);
    }
}

/// Build the TLS-wrapped DoT service for a resolver.
pub fn dot_service(tls: TlsServerConfig, responder: Arc<dyn DnsResponder>) -> DotServerService {
    DotServerService::new(tls, responder)
}

/// Server-side DoT: TLS termination around DNS stream framing.
pub struct DotServerService {
    inner: TlsServerService,
}

impl DotServerService {
    /// Wrap `responder` behind TLS with `tls` parameters.
    pub fn new(mut tls: TlsServerConfig, responder: Arc<dyn DnsResponder>) -> Self {
        if tls.alpn.is_empty() {
            tls.alpn = vec![DOT_ALPN.to_string()];
        }
        let dns = Arc::new(crate::do53::Do53TcpService::new(responder));
        DotServerService {
            inner: TlsServerService::new(tls, dns),
        }
    }
}

impl netsim::Service for DotServerService {
    fn open_stream(&self, peer: netsim::PeerInfo) -> Box<dyn netsim::StreamHandler> {
        self.inner.open_stream(peer)
    }

    fn protocol(&self) -> &'static str {
        "dot"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::responder::AuthoritativeServer;
    use dnswire::zone::Zone;
    use dnswire::{builder, Name, RData, Rcode, RecordType};
    use netsim::{HostMeta, NetworkConfig};
    use tlssim::{CaHandle, DateStamp, KeyId, TrustStore};

    fn now() -> DateStamp {
        DateStamp::from_ymd(2019, 2, 1)
    }

    fn world() -> (Network, Ipv4Addr, Ipv4Addr, TrustStore) {
        let mut net = Network::new(NetworkConfig::default(), 31);
        let resolver: Ipv4Addr = "1.1.1.1".parse().unwrap();
        let client: Ipv4Addr = "198.51.100.3".parse().unwrap();
        net.add_host(HostMeta::new(resolver).country("US").asn(13335).anycast());
        net.add_host(HostMeta::new(client).country("BR").asn(27699));

        let apex = Name::parse("probe.example").unwrap();
        let mut zone = Zone::new(apex.clone());
        zone.add_record(
            &apex.prepend("*").unwrap(),
            60,
            RData::A("203.0.113.5".parse().unwrap()),
        );
        let responder: Arc<dyn DnsResponder> = Arc::new(AuthoritativeServer::new(vec![zone]));

        let ca = CaHandle::new("DigiCert Global Root", KeyId(1), now() + -700, 3650);
        let leaf = ca.issue(
            "cloudflare-dns.com",
            vec!["*.cloudflare-dns.com".into(), "one.one.one.one".into()],
            KeyId(2),
            1,
            now() + -30,
            now() + 365,
        );
        let mut store = TrustStore::new();
        store.add(ca.authority());
        net.bind_tcp(
            resolver,
            853,
            Arc::new(DotServerService::new(
                TlsServerConfig::new(vec![leaf], KeyId(2)),
                responder,
            )),
        );
        (net, client, resolver, store)
    }

    #[test]
    fn strict_dot_query_succeeds() {
        let (mut net, client, resolver, store) = world();
        let mut dot = DotClient::new(TlsClientConfig::strict(store, now()));
        let q = builder::query(1, "a1.probe.example", RecordType::A).unwrap();
        let reply = dot
            .query_once(&mut net, client, resolver, Some("cloudflare-dns.com"), &q)
            .unwrap();
        assert_eq!(reply.view().rcode(), Rcode::NoError);
        assert_eq!(reply.view().answers().count(), 1);
        assert_eq!(reply.transport.protocol, DnsTransport::Dot);
        assert_eq!(reply.transport.verify, Some(Ok(())));
    }

    #[test]
    fn session_reuse_charges_one_rtt_per_query() {
        let (mut net, client, resolver, store) = world();
        let mut dot = DotClient::new(TlsClientConfig::strict(store, now()));
        let mut session = dot
            .session(&mut net, client, resolver, Some("cloudflare-dns.com"))
            .unwrap();
        let setup = session.take_elapsed();
        let mut latencies = Vec::new();
        for id in 0..20u16 {
            let q = builder::query(id, &format!("q{id}.probe.example"), RecordType::A).unwrap();
            let reply = session.query(&mut net, &q).unwrap();
            assert_eq!(reply.view().answers().count(), 1);
            latencies.push(reply.latency);
        }
        // Reused queries are cheaper than session setup (which has 2 RTTs).
        let max_query = latencies.iter().max().unwrap();
        assert!(setup > *max_query, "setup {setup} vs max query {max_query}");
        assert!(latencies[5] < setup);
        session.close(&mut net);
    }

    #[test]
    fn queries_are_padded() {
        let (mut net, client, resolver, store) = world();
        let mut dot = DotClient::new(TlsClientConfig::strict(store, now()));
        let q = builder::query(7, "pad.probe.example", RecordType::A).unwrap();
        // The length of the query record an on-path observer sees.
        let mut sent_len = |dot: &mut DotClient| {
            let mut session = dot
                .session(&mut net, client, resolver, Some("cloudflare-dns.com"))
                .unwrap();
            session.enable_tap();
            let reply = session.query(&mut net, &q).unwrap();
            assert_eq!(reply.view().rcode(), Rcode::NoError);
            let tap = session.take_tap().unwrap();
            session.close(&mut net);
            assert_eq!(tap.messages[0].dir, TapDirection::Up);
            tap.messages[0].wire_len
        };
        // One 128-octet block plus the 2-byte length prefix.
        let padded = sent_len(&mut dot);
        assert_eq!(padded % 128, 2);
        dot.policy = PaddingPolicy::None;
        assert!(sent_len(&mut dot) < padded);
    }

    #[test]
    fn resumption_on_second_session() {
        let (mut net, client, resolver, store) = world();
        let mut dot = DotClient::new(TlsClientConfig::strict(store, now()));
        let s1 = dot
            .session(&mut net, client, resolver, Some("cloudflare-dns.com"))
            .unwrap();
        s1.close(&mut net);
        assert_eq!(dot.cached_sessions(), 1);
        let mut s2 = dot
            .session(&mut net, client, resolver, Some("cloudflare-dns.com"))
            .unwrap();
        let q = builder::query(9, "r.probe.example", RecordType::A).unwrap();
        let reply = s2.query(&mut net, &q).unwrap();
        assert!(reply.transport.resumed);
        assert_eq!(reply.view().answers().count(), 1);
        s2.close(&mut net);
    }

    #[test]
    fn dead_port_fails_with_transport_error() {
        let (mut net, client, resolver, store) = world();
        net.unbind_tcp(resolver, 853);
        let mut dot = DotClient::new(TlsClientConfig::strict(store, now()));
        let q = builder::query(2, "x.probe.example", RecordType::A).unwrap();
        let err = dot
            .query_once(&mut net, client, resolver, None, &q)
            .unwrap_err();
        assert!(matches!(
            err,
            QueryError::Tls(tlssim::TlsError::Transport(_))
        ));
    }
}
