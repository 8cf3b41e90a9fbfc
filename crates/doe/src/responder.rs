//! Server-side DNS logic, transport-independent.
//!
//! A [`DnsResponder`] turns one query [`Message`] into one response. The
//! same responder instance can sit behind Do53/UDP, Do53/TCP, DoT and DoH
//! services simultaneously — which is exactly how the study's "self-built
//! resolver" (§4.1) is deployed.

use dnswire::zone::{Zone, ZoneLookup};
use dnswire::{builder, Message, Name, Rcode, RecordType};
use netsim::{PeerInfo, ServiceCtx};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Transform a DNS query into a response.
/// `Send + Sync` because responders are shared across shard workers through
/// the network's data plane.
pub trait DnsResponder: Send + Sync {
    /// Answer one query. The context allows upstream lookups.
    fn respond(&self, ctx: &mut ServiceCtx<'_>, peer: PeerInfo, query: &Message) -> Message;
}

/// One query as witnessed by an authoritative server.
///
/// The *observed source address* is the forensic signal of §4.2: when a
/// middlebox proxies TLS sessions, the authoritative server sees the
/// middlebox's (or the resolver's) address, never the client's — and the
/// study confirmed interception by exactly this comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryLogEntry {
    /// Source address of the query as seen by the server.
    pub observed_src: Ipv4Addr,
    /// Queried name.
    pub qname: Name,
    /// Queried type.
    pub qtype: RecordType,
}

/// Queries reaching authoritative servers: opt-in ground truth that tests
/// read after a run.
///
/// The log lives in a network's shard-local state. A test installs it with
/// `net.shard_local(|_: &mut QueryLog| ())` on the network it queries, and
/// from then on every [`AuthoritativeServer`] answering on that network
/// appends to it. Without one, answering retains nothing per query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryLog(pub Vec<QueryLogEntry>);

/// An authoritative-only server over a set of zones.
pub struct AuthoritativeServer {
    zones: Vec<Zone>,
}

impl AuthoritativeServer {
    /// Serve the given zones.
    pub fn new(zones: Vec<Zone>) -> Self {
        AuthoritativeServer { zones }
    }

    /// The zone containing `name`, if any.
    fn zone_for(&self, name: &Name) -> Option<&Zone> {
        self.zones
            .iter()
            .filter(|z| name.is_within(z.apex()))
            .max_by_key(|z| z.apex().label_count())
    }
}

impl DnsResponder for AuthoritativeServer {
    fn respond(&self, ctx: &mut ServiceCtx<'_>, peer: PeerInfo, query: &Message) -> Message {
        let Some(question) = query.question() else {
            return builder::error_response(query, Rcode::FormErr);
        };
        ctx.network().shard_local_if_present(|log: &mut QueryLog| {
            log.0.push(QueryLogEntry {
                observed_src: peer.src,
                qname: question.qname.clone(),
                qtype: question.qtype,
            })
        });
        let Some(zone) = self.zone_for(&question.qname) else {
            return builder::error_response(query, Rcode::Refused);
        };
        match zone.lookup(&question.qname, question.qtype) {
            ZoneLookup::Found(records) => {
                let mut resp = builder::answer(query, records);
                resp.header.authoritative = true;
                resp
            }
            ZoneLookup::NoData => {
                let mut resp = builder::empty_answer(query);
                resp.header.authoritative = true;
                resp
            }
            ZoneLookup::NxDomain => {
                let mut resp = builder::error_response(query, Rcode::NxDomain);
                resp.header.authoritative = true;
                resp
            }
            ZoneLookup::OutOfZone => builder::error_response(query, Rcode::Refused),
        }
    }
}

/// A responder wrapper that pads the inner responder's answers under a
/// [`PaddingPolicy`] — server-side RFC 8467 padding, the other half of
/// the privacy experiment's countermeasure.
///
/// Per RFC 7830 §4, a server only pads when the client's query carried a
/// padding option itself; unpadded clients get byte-identical responses,
/// so wrapping a shared responder never disturbs the clear-text legs.
pub struct PaddedResponder {
    inner: Arc<dyn DnsResponder>,
    policy: dnswire::PaddingPolicy,
}

impl PaddedResponder {
    /// Pad `inner`'s responses under `policy`.
    pub fn new(inner: Arc<dyn DnsResponder>, policy: dnswire::PaddingPolicy) -> Self {
        PaddedResponder { inner, policy }
    }
}

impl DnsResponder for PaddedResponder {
    fn respond(&self, ctx: &mut ServiceCtx<'_>, peer: PeerInfo, query: &Message) -> Message {
        let mut resp = self.inner.respond(ctx, peer, query);
        let client_padded = query.opt().and_then(|o| o.padding_len()).is_some();
        if client_padded {
            let labels = query.question().map(|q| q.qname.label_count()).unwrap_or(0);
            let key = u64::from(query.header.id) | ((labels as u64) << 16);
            if let Some(block) = self.policy.response_block(key) {
                // A response that fails to re-encode is surfaced unpadded;
                // the transport layer will report the encode error itself.
                if resp.pad_to_block(block).is_err() {
                    return resp;
                }
            }
        }
        resp
    }
}

/// A responder that answers every A query with one fixed address —
/// the behaviour of `dnsfilter.com` resolvers toward non-subscribers
/// ("constantly resolve arbitrary domain queries to a fixed IP address",
/// §3.2). The scanner's answer-validation step flags these.
pub struct FixedAnswerResponder {
    answer: Ipv4Addr,
    ttl: u32,
}

impl FixedAnswerResponder {
    /// Always answer with `answer`.
    pub fn new(answer: Ipv4Addr) -> Self {
        FixedAnswerResponder { answer, ttl: 300 }
    }
}

impl DnsResponder for FixedAnswerResponder {
    fn respond(&self, _ctx: &mut ServiceCtx<'_>, _peer: PeerInfo, query: &Message) -> Message {
        let Some(question) = query.question() else {
            return builder::error_response(query, Rcode::FormErr);
        };
        if question.qtype != RecordType::A {
            return builder::empty_answer(query);
        }
        builder::answer(
            query,
            vec![dnswire::ResourceRecord::new(
                question.qname.clone(),
                self.ttl,
                dnswire::RData::A(self.answer),
            )],
        )
    }
}

/// A responder that always refuses — closed resolvers that leave port 853
/// open but serve only their subscribers.
pub struct RefusingResponder;

impl DnsResponder for RefusingResponder {
    fn respond(&self, _ctx: &mut ServiceCtx<'_>, _peer: PeerInfo, query: &Message) -> Message {
        builder::error_response(query, Rcode::Refused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::RData;
    use netsim::{HostMeta, Network, NetworkConfig};

    fn ctx_net() -> Network {
        Network::new(NetworkConfig::default(), 3)
    }

    fn probe_zone() -> Zone {
        let apex = Name::parse("probe.dnsmeasure.example").unwrap();
        let mut zone = Zone::new(apex.clone());
        zone.add_record(
            &apex.prepend("*").unwrap(),
            60,
            RData::A("203.0.113.53".parse().unwrap()),
        );
        zone
    }

    // The unit tests below drive responders through a real UDP service so
    // no private constructors are needed.
    fn query_via_udp(responder: Arc<dyn DnsResponder>, query: &Message) -> Message {
        query_on(&mut ctx_net(), responder, query)
    }

    fn query_on(net: &mut Network, responder: Arc<dyn DnsResponder>, query: &Message) -> Message {
        let server: Ipv4Addr = "192.0.2.53".parse().unwrap();
        let client: Ipv4Addr = "198.51.100.7".parse().unwrap();
        net.add_host(HostMeta::new(server));
        net.add_host(HostMeta::new(client));
        net.bind_udp(
            server,
            53,
            Arc::new(crate::do53::Do53UdpService::new(responder)),
        );
        let reply = net
            .udp_query(client, server, 53, &query.encode().unwrap(), None)
            .unwrap();
        Message::decode(&reply.bytes).unwrap()
    }

    #[test]
    fn authoritative_answers_wildcard_probe() {
        let auth = Arc::new(AuthoritativeServer::new(vec![probe_zone()]));
        let q = builder::query(7, "u93.probe.dnsmeasure.example", RecordType::A).unwrap();
        let mut net = ctx_net();
        net.shard_local(|_: &mut QueryLog| ());
        let resp = query_on(&mut net, auth, &q);
        assert_eq!(resp.rcode(), Rcode::NoError);
        assert_eq!(resp.answers.len(), 1);
        assert!(resp.header.authoritative);
        // Ground-truth log captured the observed source.
        let QueryLog(entries) = net.shard_local(|log: &mut QueryLog| log.clone());
        assert_eq!(entries.len(), 1);
        assert_eq!(
            entries[0].observed_src,
            "198.51.100.7".parse::<Ipv4Addr>().unwrap()
        );
        assert_eq!(
            entries[0].qname.to_string(),
            "u93.probe.dnsmeasure.example."
        );
    }

    #[test]
    fn authoritative_without_log_answers_and_retains_nothing() {
        let auth: Arc<dyn DnsResponder> = Arc::new(AuthoritativeServer::new(vec![probe_zone()]));
        let names = [
            "a.probe.dnsmeasure.example",
            "www.google.com",
            "b.probe.dnsmeasure.example",
        ];
        let mut plain = ctx_net();
        let mut logging = ctx_net();
        logging.shard_local(|_: &mut QueryLog| ());
        for (id, name) in (20..).zip(names) {
            let q = builder::query(id, name, RecordType::A).unwrap();
            let resp = query_on(&mut plain, Arc::clone(&auth), &q);
            // The log is invisible on the wire: both networks answer alike.
            let logged = query_on(&mut logging, Arc::clone(&auth), &q);
            assert_eq!(resp, logged, "{name}");
        }
        assert_eq!(
            logging.shard_local(|log: &mut QueryLog| log.0.len()),
            names.len()
        );
        assert_eq!(
            plain.shard_local_if_present(|_: &mut QueryLog| ()),
            None,
            "a network without a log keeps none"
        );
    }

    #[test]
    fn authoritative_refuses_out_of_zone() {
        let auth = Arc::new(AuthoritativeServer::new(vec![probe_zone()]));
        let q = builder::query(8, "www.google.com", RecordType::A).unwrap();
        let resp = query_via_udp(auth, &q);
        assert_eq!(resp.rcode(), Rcode::Refused);
    }

    #[test]
    fn authoritative_nxdomain_below_zone() {
        let apex = Name::parse("static.example").unwrap();
        let mut zone = Zone::new(apex.clone());
        zone.add_record(
            &apex.prepend("www").unwrap(),
            60,
            RData::A("192.0.2.1".parse().unwrap()),
        );
        let auth = Arc::new(AuthoritativeServer::new(vec![zone]));
        let q = builder::query(9, "missing.static.example", RecordType::A).unwrap();
        let resp = query_via_udp(auth, &q);
        assert_eq!(resp.rcode(), Rcode::NxDomain);
    }

    #[test]
    fn fixed_answer_ignores_question() {
        let fixed = Arc::new(FixedAnswerResponder::new("103.247.37.1".parse().unwrap()));
        for name in ["a.example", "b.example.net", "anything.at.all"] {
            let q = builder::query(1, name, RecordType::A).unwrap();
            let resp = query_via_udp(Arc::clone(&fixed) as Arc<dyn DnsResponder>, &q);
            match &resp.answers[0].rdata {
                RData::A(addr) => assert_eq!(addr.to_string(), "103.247.37.1"),
                other => panic!("expected A, got {other:?}"),
            }
        }
    }

    #[test]
    fn refusing_responder_refuses() {
        let q = builder::query(2, "x.example", RecordType::A).unwrap();
        let resp = query_via_udp(Arc::new(RefusingResponder), &q);
        assert_eq!(resp.rcode(), Rcode::Refused);
        assert!(resp.answers.is_empty());
    }
}
