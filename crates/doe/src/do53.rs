//! Clear-text DNS: Do53 over UDP (with truncation fallback) and over TCP
//! (RFC 1035 §4.2.2 framing, reusable connections).
//!
//! Do53/TCP is the study's clear-text baseline: the proxy platforms only
//! relay TCP, and §4.1 argues (citing Zhu et al.) that with connection
//! reuse TCP latency is equivalent to UDP.

use crate::error::{DnsTransport, QueryError, QueryReply, TransportInfo};
use crate::responder::DnsResponder;
use dnswire::{frame_message, FrameDecoder, Message, MessageBuf};
use netsim::{Conn, Network, PeerInfo, Service, ServiceCtx, SimDuration, StreamHandler};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Maximum response size a Do53/UDP server sends without truncation when
/// the client advertises no EDNS buffer.
const PLAIN_UDP_LIMIT: usize = 512;

/// One-shot clear-text UDP query with `retries` retransmissions.
///
/// A truncated (`TC`) response is retried over TCP automatically, per
/// standard stub behaviour.
pub fn do53_udp_query(
    net: &mut Network,
    src: Ipv4Addr,
    resolver: Ipv4Addr,
    query: &Message,
    timeout: SimDuration,
    retries: u32,
) -> Result<QueryReply, QueryError> {
    let bytes = query.encode()?;
    let mut total = SimDuration::ZERO;
    let mut last_err: Option<QueryError> = None;
    for _attempt in 0..=retries {
        match net.udp_query(src, resolver, crate::DO53_PORT, &bytes, Some(timeout)) {
            Ok(reply) => {
                total += reply.elapsed;
                let frame = MessageBuf::parse(reply.bytes)?;
                if frame.view().header().truncated {
                    // Fall back to TCP for the full answer.
                    let mut tcp = do53_tcp_query(net, src, resolver, query, timeout)?;
                    tcp.latency += total;
                    return Ok(tcp);
                }
                return Ok(QueryReply {
                    frame,
                    latency: total,
                    transport: TransportInfo::clear(DnsTransport::Do53Udp),
                });
            }
            Err(e) => {
                total += e.elapsed();
                last_err = Some(e.into());
            }
        }
    }
    match last_err {
        Some(QueryError::Udp(netsim::UdpError::Timeout { rule, .. })) => {
            Err(QueryError::Udp(netsim::UdpError::Timeout {
                elapsed: total,
                rule,
            }))
        }
        Some(e) => Err(e),
        None => Err(QueryError::Timeout { elapsed: total }),
    }
}

/// One-shot clear-text TCP query (fresh connection).
pub fn do53_tcp_query(
    net: &mut Network,
    src: Ipv4Addr,
    resolver: Ipv4Addr,
    query: &Message,
    timeout: SimDuration,
) -> Result<QueryReply, QueryError> {
    let mut conn = Do53TcpConn::connect(net, src, resolver, timeout)?;
    let mut reply = conn.query(net, query)?;
    reply.latency = conn.take_elapsed();
    conn.close(net);
    Ok(reply)
}

/// A reusable clear-text DNS/TCP connection — the baseline the performance
/// test reuses for its 20 queries per vantage (§4.1).
#[derive(Debug)]
pub struct Do53TcpConn {
    conn: Conn,
    decoder: FrameDecoder,
}

impl Do53TcpConn {
    /// Open a connection to `resolver:53`.
    pub fn connect(
        net: &mut Network,
        src: Ipv4Addr,
        resolver: Ipv4Addr,
        timeout: SimDuration,
    ) -> Result<Self, QueryError> {
        let conn = net.connect_with_timeout(src, resolver, crate::DO53_PORT, timeout)?;
        Ok(Do53TcpConn {
            conn,
            decoder: FrameDecoder::new(),
        })
    }

    /// Send one query, reusing the connection.
    pub fn query(&mut self, net: &mut Network, query: &Message) -> Result<QueryReply, QueryError> {
        let framed = frame_message(&query.encode()?)?;
        let before = self.conn.elapsed();
        let resp = self.conn.request(net, &framed)?;
        self.decoder.push(&resp);
        let Some(frame) = self.decoder.next_message() else {
            return Err(QueryError::Protocol("no complete response frame".into()));
        };
        Ok(QueryReply {
            frame: MessageBuf::parse(frame)?,
            latency: self.conn.elapsed() - before,
            transport: TransportInfo {
                connection_reused: self.conn.round_trips() > 2,
                ..TransportInfo::clear(DnsTransport::Do53Tcp)
            },
        })
    }

    /// Total time charged to the connection so far.
    pub fn elapsed(&self) -> SimDuration {
        self.conn.elapsed()
    }

    /// Read-and-reset the connection clock.
    pub fn take_elapsed(&mut self) -> SimDuration {
        self.conn.take_elapsed()
    }

    /// Close the connection.
    pub fn close(self, net: &mut Network) {
        self.conn.close(net);
    }
}

/// UDP-side Do53 service wrapping a responder.
pub struct Do53UdpService {
    responder: Arc<dyn DnsResponder>,
}

impl Do53UdpService {
    /// Serve `responder` over UDP.
    pub fn new(responder: Arc<dyn DnsResponder>) -> Self {
        Do53UdpService { responder }
    }
}

impl netsim::DatagramService for Do53UdpService {
    fn on_datagram(
        &self,
        ctx: &mut ServiceCtx<'_>,
        peer: PeerInfo,
        data: &[u8],
    ) -> Option<Vec<u8>> {
        let query = Message::decode(data).ok()?;
        let limit = query
            .opt()
            .map(|o| o.udp_payload as usize)
            .unwrap_or(PLAIN_UDP_LIMIT)
            .max(PLAIN_UDP_LIMIT);
        let response = self.responder.respond(ctx, peer, &query);
        let bytes = response.encode().ok()?;
        if bytes.len() > limit {
            // Truncate: empty the answer sections, set TC.
            let mut truncated = response;
            truncated.header.truncated = true;
            truncated.answers.clear();
            truncated.authority.clear();
            truncated.additional.clear();
            return truncated.encode().ok();
        }
        Some(bytes)
    }

    fn protocol(&self) -> &'static str {
        "do53-udp"
    }
}

/// TCP-side Do53 service wrapping a responder (2-byte length framing,
/// multiple queries per connection).
pub struct Do53TcpService {
    responder: Arc<dyn DnsResponder>,
}

impl Do53TcpService {
    /// Serve `responder` over TCP.
    pub fn new(responder: Arc<dyn DnsResponder>) -> Self {
        Do53TcpService { responder }
    }
}

struct Do53TcpHandler {
    responder: Arc<dyn DnsResponder>,
    peer: PeerInfo,
    decoder: FrameDecoder,
}

impl StreamHandler for Do53TcpHandler {
    fn on_bytes(&mut self, ctx: &mut ServiceCtx<'_>, data: &[u8]) -> Vec<u8> {
        self.decoder.push(data);
        let mut out = Vec::new();
        while let Some(frame) = self.decoder.next_message() {
            let Ok(query) = Message::decode(&frame) else {
                continue; // garbage frame: drop silently, like most servers
            };
            let response = self.responder.respond(ctx, self.peer, &query);
            if let Ok(bytes) = response.encode() {
                if let Ok(framed) = frame_message(&bytes) {
                    out.extend_from_slice(&framed);
                }
            }
        }
        out
    }
}

impl Service for Do53TcpService {
    fn open_stream(&self, peer: PeerInfo) -> Box<dyn StreamHandler> {
        Box::new(Do53TcpHandler {
            responder: Arc::clone(&self.responder),
            peer,
            decoder: FrameDecoder::new(),
        })
    }

    fn protocol(&self) -> &'static str {
        "do53-tcp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::responder::AuthoritativeServer;
    use dnswire::zone::Zone;
    use dnswire::{builder, Name, RData, Rcode, RecordType};
    use netsim::{HostMeta, NetworkConfig};

    fn world() -> (Network, Ipv4Addr, Ipv4Addr) {
        let mut net = Network::new(NetworkConfig::default(), 11);
        let server: Ipv4Addr = "192.0.2.53".parse().unwrap();
        let client: Ipv4Addr = "198.51.100.9".parse().unwrap();
        net.add_host(HostMeta::new(server).country("US").asn(64500));
        net.add_host(HostMeta::new(client).country("FR").asn(64501));
        let apex = Name::parse("zone.example").unwrap();
        let mut zone = Zone::new(apex.clone());
        zone.add_record(
            &apex.prepend("www").unwrap(),
            60,
            RData::A("203.0.113.1".parse().unwrap()),
        );
        // A fat TXT record that cannot fit in 512 bytes.
        zone.add_record(
            &apex.prepend("big").unwrap(),
            60,
            RData::Txt(vec![vec![b'x'; 255], vec![b'y'; 255], vec![b'z'; 255]]),
        );
        let auth: Arc<dyn DnsResponder> = Arc::new(AuthoritativeServer::new(vec![zone]));
        net.bind_udp(server, 53, Arc::new(Do53UdpService::new(Arc::clone(&auth))));
        net.bind_tcp(server, 53, Arc::new(Do53TcpService::new(auth)));
        (net, client, server)
    }

    #[test]
    fn udp_query_round_trip() {
        let (mut net, client, server) = world();
        let q = builder::query(1, "www.zone.example", RecordType::A).unwrap();
        let reply =
            do53_udp_query(&mut net, client, server, &q, SimDuration::from_secs(5), 0).unwrap();
        assert_eq!(reply.view().rcode(), Rcode::NoError);
        assert_eq!(reply.view().answers().count(), 1);
        assert_eq!(reply.transport.protocol, DnsTransport::Do53Udp);
        assert!(reply.latency > SimDuration::ZERO);
    }

    #[test]
    fn oversize_answer_truncates_then_tcp_retries() {
        let (mut net, client, server) = world();
        let q = builder::query(2, "big.zone.example", RecordType::Txt).unwrap();
        let reply =
            do53_udp_query(&mut net, client, server, &q, SimDuration::from_secs(5), 0).unwrap();
        // Fallback delivered the full answer over TCP.
        assert_eq!(reply.transport.protocol, DnsTransport::Do53Tcp);
        assert_eq!(reply.view().answers().count(), 1);
        assert!(!reply.view().header().truncated);
    }

    #[test]
    fn edns_payload_avoids_truncation() {
        let (mut net, client, server) = world();
        let q = builder::edns_query(3, "big.zone.example", RecordType::Txt).unwrap();
        let reply =
            do53_udp_query(&mut net, client, server, &q, SimDuration::from_secs(5), 0).unwrap();
        assert_eq!(reply.transport.protocol, DnsTransport::Do53Udp);
        assert_eq!(reply.view().answers().count(), 1);
    }

    #[test]
    fn tcp_connection_reuse_single_rtt_per_query() {
        let (mut net, client, server) = world();
        let mut conn =
            Do53TcpConn::connect(&mut net, client, server, SimDuration::from_secs(5)).unwrap();
        conn.take_elapsed(); // discard handshake
        for id in 0..5u16 {
            let q = builder::query(id, "www.zone.example", RecordType::A).unwrap();
            let reply = conn.query(&mut net, &q).unwrap();
            assert_eq!(reply.view().id(), id);
            assert_eq!(reply.view().answers().count(), 1);
        }
        // connect (1) + 5 queries = 6 round trips total.
        assert_eq!(conn.conn.round_trips(), 6);
        conn.close(&mut net);
    }

    #[test]
    fn udp_to_dead_resolver_times_out_after_retries() {
        let (mut net, client, _server) = world();
        let dead: Ipv4Addr = "203.0.113.254".parse().unwrap();
        let q = builder::query(4, "www.zone.example", RecordType::A).unwrap();
        let err =
            do53_udp_query(&mut net, client, dead, &q, SimDuration::from_secs(2), 2).unwrap_err();
        // 3 attempts x 2s.
        assert_eq!(err.elapsed(), SimDuration::from_secs(6));
    }

    #[test]
    fn tcp_query_against_closed_port_fails() {
        let (mut net, client, server) = world();
        net.unbind_tcp(server, 53);
        let q = builder::query(5, "www.zone.example", RecordType::A).unwrap();
        let err =
            do53_tcp_query(&mut net, client, server, &q, SimDuration::from_secs(2)).unwrap_err();
        assert!(matches!(err, QueryError::Connect(_)));
    }
}
