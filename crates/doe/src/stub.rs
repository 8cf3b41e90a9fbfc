//! The user-facing stub resolver: profile-driven transport selection,
//! fallback, and connection reuse.
//!
//! This is the API a downstream application embeds (what Stubby or the
//! Android 9 "Private DNS" setting are to real users). It composes the
//! transport clients according to RFC 8310 usage profiles:
//!
//! * **Strict DoT** — authenticate or fail; *no* fallback.
//! * **Opportunistic DoT** — try DoT without requiring authentication;
//!   fall back to clear text if the encrypted channel cannot be built at
//!   all (the profile's documented privacy trade-off).
//! * **DoH** — Strict by construction; no fallback (RFC 8484).
//! * **Clear text** — Do53/UDP with TCP retry on truncation.
//!
//! Sessions are pooled: consecutive queries reuse the established
//! connection, which is the configuration the paper's performance study
//! considers the common case (§4.1).

use crate::do53::{do53_udp_query, Do53TcpConn};
use crate::doh::{Bootstrap, DohClient, DohMethod, DohSession};
use crate::dot::{DotClient, DotSession};
use crate::error::{DnsTransport, QueryError, QueryReply, TransportInfo};
use dnswire::{builder, Message, Name, RecordType};
use httpsim::UriTemplate;
use netsim::{Network, SimDuration};
use rand::Rng;
use std::net::Ipv4Addr;
use tlssim::{DateStamp, TlsClientConfig, TrustStore};

/// Which profile the stub runs.
#[derive(Debug, Clone)]
pub enum StubProfile {
    /// RFC 8310 Strict Privacy over DoT.
    StrictDot {
        /// Authentication domain name (obtained out of band).
        auth_name: String,
    },
    /// RFC 8310 Opportunistic Privacy over DoT.
    OpportunisticDot {
        /// Whether total DoT failure may fall back to clear text.
        fallback_clear: bool,
    },
    /// RFC 8484 DoH (Strict-only by design).
    Doh {
        /// Service template.
        template: UriTemplate,
        /// GET or POST.
        method: DohMethod,
        /// Address discovery.
        bootstrap: Bootstrap,
    },
    /// Traditional clear-text DNS over UDP.
    ClearText,
    /// Clear-text DNS over TCP with a pooled connection — the baseline
    /// transport of the paper's client-side tests (§4.1).
    ClearTextTcp,
}

/// Stub configuration.
#[derive(Debug, Clone)]
pub struct StubConfig {
    /// The recursive resolver to use.
    pub resolver: Ipv4Addr,
    /// Profile / transport selection.
    pub profile: StubProfile,
    /// Trust anchors for TLS-based transports.
    pub trust_store: TrustStore,
    /// Certificate-verification date.
    pub now: DateStamp,
    /// Query timeout.
    pub timeout: SimDuration,
}

/// The profile's transport client and pooled session, one variant per
/// transport. The encrypted ones are boxed, so a clear-text stub (90% of
/// the million-client fleet) carries neither a TLS client nor a session.
enum Transport {
    /// Clear-text UDP: no client, nothing to pool.
    Udp,
    /// Clear-text TCP and its pooled connection.
    Tcp(Option<Box<Do53TcpConn>>),
    /// Strict or Opportunistic DoT.
    Dot(Box<DotTransport>),
    /// DoH.
    Doh(Box<DohTransport>),
}

struct DotTransport {
    client: DotClient,
    session: Option<DotSession>,
    /// The Strict profile's authentication name; `None` is Opportunistic.
    auth_name: Option<String>,
    /// Whether a failed DoT query may fall back to clear text.
    fallback_clear: bool,
}

struct DohTransport {
    client: DohClient,
    session: Option<DohSession>,
}

/// A stub resolver with a pooled connection.
pub struct StubResolver {
    resolver: Ipv4Addr,
    timeout: SimDuration,
    transport: Transport,
    /// Count of queries that used a pooled (reused) session.
    reused_queries: u64,
}

impl StubResolver {
    /// Build a stub from config.
    pub fn new(config: StubConfig) -> Self {
        let StubConfig {
            resolver,
            profile,
            trust_store,
            now,
            timeout,
        } = config;
        let dot = |tls, auth_name, fallback_clear| {
            Transport::Dot(Box::new(DotTransport {
                client: DotClient::new(tls),
                session: None,
                auth_name,
                fallback_clear,
            }))
        };
        let transport = match profile {
            StubProfile::StrictDot { auth_name } => dot(
                TlsClientConfig::strict(trust_store, now),
                Some(auth_name),
                false,
            ),
            StubProfile::OpportunisticDot { fallback_clear } => dot(
                TlsClientConfig::opportunistic(trust_store, now),
                None,
                fallback_clear,
            ),
            StubProfile::Doh {
                template,
                method,
                bootstrap,
            } => Transport::Doh(Box::new(DohTransport {
                client: DohClient::new(
                    TlsClientConfig::strict(trust_store, now),
                    template,
                    method,
                    bootstrap,
                ),
                session: None,
            })),
            StubProfile::ClearText => Transport::Udp,
            StubProfile::ClearTextTcp => Transport::Tcp(None),
        };
        StubResolver {
            resolver,
            timeout,
            transport,
            reused_queries: 0,
        }
    }

    /// How many queries were answered over a reused connection.
    pub fn reused_queries(&self) -> u64 {
        self.reused_queries
    }

    /// Whether the profile pools a connection at all (clear-text UDP
    /// does not).
    pub fn pools_connection(&self) -> bool {
        !matches!(self.transport, Transport::Udp)
    }

    fn has_session(&self) -> bool {
        match &self.transport {
            Transport::Udp => false,
            Transport::Tcp(conn) => conn.is_some(),
            Transport::Dot(dot) => dot.session.is_some(),
            Transport::Doh(doh) => doh.session.is_some(),
        }
    }

    /// Drop the pooled session (simulating idle expiry).
    pub fn expire_session(&mut self, net: &mut Network) {
        match &mut self.transport {
            Transport::Udp => {}
            Transport::Tcp(conn) => {
                if let Some(conn) = conn.take() {
                    conn.close(net);
                }
            }
            Transport::Dot(dot) => {
                if let Some(session) = dot.session.take() {
                    session.close(net);
                }
            }
            Transport::Doh(doh) => {
                if let Some(session) = doh.session.take() {
                    session.close(net);
                }
            }
        }
    }

    /// Forget a pooled session that turned out to be dead, without
    /// closing it.
    fn forget_session(&mut self) {
        match &mut self.transport {
            Transport::Udp => {}
            Transport::Tcp(conn) => *conn = None,
            Transport::Dot(dot) => dot.session = None,
            Transport::Doh(doh) => doh.session = None,
        }
    }

    /// Resolve `name`/`rtype` from `src`, reusing the pooled session when
    /// possible and applying the profile's fallback rules.
    pub fn resolve(
        &mut self,
        net: &mut Network,
        src: Ipv4Addr,
        name: Name,
        rtype: RecordType,
    ) -> Result<QueryReply, QueryError> {
        let id = net.rng().gen();
        let query = builder::query_for(id, name, rtype);
        // One transparent retry on a fresh session if a pooled session
        // turns out to be dead.
        let had_pooled = self.has_session();
        match self.query_via_session(net, src, &query) {
            Ok(reply) => {
                if had_pooled {
                    self.reused_queries += 1;
                }
                Ok(reply)
            }
            Err(first_err) if had_pooled => {
                self.forget_session();
                match self.query_via_session(net, src, &query) {
                    Ok(reply) => Ok(reply),
                    Err(_) => self.try_fallback(net, src, &query, first_err),
                }
            }
            Err(e) => self.try_fallback(net, src, &query, e),
        }
    }

    /// Query over the pooled session, establishing one first if none is
    /// pooled.
    fn query_via_session(
        &mut self,
        net: &mut Network,
        src: Ipv4Addr,
        query: &Message,
    ) -> Result<QueryReply, QueryError> {
        let (resolver, timeout) = (self.resolver, self.timeout);
        match &mut self.transport {
            // Clear-text UDP needs no session.
            Transport::Udp => do53_udp_query(net, src, resolver, query, timeout, 1),
            Transport::Tcp(pooled) => {
                let conn = match pooled {
                    Some(conn) => conn,
                    None => {
                        pooled.insert(Box::new(Do53TcpConn::connect(net, src, resolver, timeout)?))
                    }
                };
                conn.query(net, query)
            }
            Transport::Dot(dot) => {
                let session = match &mut dot.session {
                    Some(session) => session,
                    None => {
                        let auth_name = dot.auth_name.as_deref();
                        let fresh = dot.client.session(net, src, resolver, auth_name)?;
                        dot.session.insert(fresh)
                    }
                };
                session.query(net, query)
            }
            Transport::Doh(doh) => {
                let session = match &mut doh.session {
                    Some(session) => session,
                    None => {
                        let fresh = doh.client.session(net, src)?;
                        doh.session.insert(fresh)
                    }
                };
                session.query(net, query)
            }
        }
    }

    fn try_fallback(
        &self,
        net: &mut Network,
        src: Ipv4Addr,
        query: &Message,
        original: QueryError,
    ) -> Result<QueryReply, QueryError> {
        // Only Opportunistic DoT may fall back; Strict profiles and DoH
        // never do.
        if !matches!(&self.transport, Transport::Dot(dot) if dot.fallback_clear) {
            return Err(original);
        }
        let mut reply = do53_udp_query(net, src, self.resolver, query, self.timeout, 1)?;
        reply.transport = TransportInfo::clear(DnsTransport::Do53Udp);
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::do53::{Do53TcpService, Do53UdpService};
    use crate::dot::DotServerService;
    use crate::responder::{AuthoritativeServer, DnsResponder};
    use dnswire::zone::Zone;
    use dnswire::{RData, Rcode};
    use netsim::{HostMeta, NetworkConfig};
    use std::sync::Arc;
    use tlssim::{CaHandle, KeyId, TlsServerConfig};

    fn now() -> DateStamp {
        DateStamp::from_ymd(2019, 2, 1)
    }

    struct World {
        net: Network,
        client: Ipv4Addr,
        resolver: Ipv4Addr,
        store: TrustStore,
    }

    fn world(valid_cert: bool, with_dot: bool) -> World {
        let mut net = Network::new(NetworkConfig::default(), 71);
        let resolver: Ipv4Addr = "9.9.9.9".parse().unwrap();
        let client: Ipv4Addr = "198.51.100.8".parse().unwrap();
        net.add_host(HostMeta::new(resolver).country("US").asn(19281).anycast());
        net.add_host(HostMeta::new(client).country("IT").asn(3269));
        let apex = Name::parse("probe.example").unwrap();
        let mut zone = Zone::new(apex.clone());
        zone.add_record(
            &apex.prepend("*").unwrap(),
            60,
            RData::A("203.0.113.13".parse().unwrap()),
        );
        let responder: Arc<dyn DnsResponder> = Arc::new(AuthoritativeServer::new(vec![zone]));
        net.bind_udp(
            resolver,
            53,
            Arc::new(Do53UdpService::new(Arc::clone(&responder))),
        );
        net.bind_tcp(
            resolver,
            53,
            Arc::new(Do53TcpService::new(Arc::clone(&responder))),
        );

        let ca = CaHandle::new("Quad9 CA", KeyId(1), now() + -100, 3650);
        let mut store = TrustStore::new();
        store.add(ca.authority());
        if with_dot {
            let leaf = if valid_cert {
                ca.issue(
                    "dns.quad9.net",
                    vec![],
                    KeyId(2),
                    1,
                    now() + -10,
                    now() + 365,
                )
            } else {
                CaHandle::self_signed("bad", vec![], KeyId(2), 1, now() + -10, now() + 365)
            };
            net.bind_tcp(
                resolver,
                853,
                Arc::new(DotServerService::new(
                    TlsServerConfig::new(vec![leaf], KeyId(2)),
                    responder,
                )),
            );
        }
        World {
            net,
            client,
            resolver,
            store,
        }
    }

    fn name(text: &str) -> Name {
        Name::parse(text).unwrap()
    }

    fn stub(w: &World, profile: StubProfile) -> StubResolver {
        StubResolver::new(StubConfig {
            resolver: w.resolver,
            profile,
            trust_store: w.store.clone(),
            now: now(),
            timeout: SimDuration::from_secs(5),
        })
    }

    #[test]
    fn strict_dot_resolves_and_reuses() {
        let mut w = world(true, true);
        let mut stub = stub(
            &w,
            StubProfile::StrictDot {
                auth_name: "dns.quad9.net".into(),
            },
        );
        for i in 0..4 {
            let reply = stub
                .resolve(
                    &mut w.net,
                    w.client,
                    name(&format!("q{i}.probe.example")),
                    RecordType::A,
                )
                .unwrap();
            assert_eq!(reply.view().rcode(), Rcode::NoError);
            assert_eq!(reply.transport.protocol, DnsTransport::Dot);
        }
        assert_eq!(stub.reused_queries(), 3);
    }

    #[test]
    fn strict_dot_fails_closed_on_bad_cert() {
        let mut w = world(false, true);
        let mut stub = stub(
            &w,
            StubProfile::StrictDot {
                auth_name: "dns.quad9.net".into(),
            },
        );
        let err = stub
            .resolve(&mut w.net, w.client, name("x.probe.example"), RecordType::A)
            .unwrap_err();
        assert!(err.is_cert_failure());
    }

    #[test]
    fn opportunistic_dot_proceeds_on_bad_cert() {
        let mut w = world(false, true);
        let mut stub = stub(
            &w,
            StubProfile::OpportunisticDot {
                fallback_clear: true,
            },
        );
        let reply = stub
            .resolve(&mut w.net, w.client, name("x.probe.example"), RecordType::A)
            .unwrap();
        // Still DoT — bad cert alone doesn't force clear-text fallback.
        assert_eq!(reply.transport.protocol, DnsTransport::Dot);
        assert!(matches!(reply.transport.verify, Some(Err(_))));
    }

    #[test]
    fn opportunistic_falls_back_to_clear_when_dot_unreachable() {
        let mut w = world(true, false); // no DoT service bound at all
        let mut stub = stub(
            &w,
            StubProfile::OpportunisticDot {
                fallback_clear: true,
            },
        );
        let reply = stub
            .resolve(&mut w.net, w.client, name("y.probe.example"), RecordType::A)
            .unwrap();
        assert_eq!(reply.transport.protocol, DnsTransport::Do53Udp);
        assert_eq!(reply.view().answers().count(), 1);
    }

    #[test]
    fn opportunistic_without_fallback_fails() {
        let mut w = world(true, false);
        let mut stub = stub(
            &w,
            StubProfile::OpportunisticDot {
                fallback_clear: false,
            },
        );
        assert!(stub
            .resolve(&mut w.net, w.client, name("z.probe.example"), RecordType::A)
            .is_err());
    }

    #[test]
    fn clear_text_profile_works() {
        let mut w = world(true, false);
        let mut stub = stub(&w, StubProfile::ClearText);
        let reply = stub
            .resolve(&mut w.net, w.client, name("c.probe.example"), RecordType::A)
            .unwrap();
        assert_eq!(reply.transport.protocol, DnsTransport::Do53Udp);
    }

    #[test]
    fn clear_text_tcp_profile_pools_connection() {
        let mut w = world(true, false);
        let mut stub = stub(&w, StubProfile::ClearTextTcp);
        for i in 0..3 {
            let reply = stub
                .resolve(
                    &mut w.net,
                    w.client,
                    name(&format!("t{i}.probe.example")),
                    RecordType::A,
                )
                .unwrap();
            assert_eq!(reply.transport.protocol, DnsTransport::Do53Tcp);
        }
        assert_eq!(stub.reused_queries(), 2);
    }

    #[test]
    fn expired_session_recovers_transparently() {
        let mut w = world(true, true);
        let mut stub = stub(
            &w,
            StubProfile::StrictDot {
                auth_name: "dns.quad9.net".into(),
            },
        );
        stub.resolve(&mut w.net, w.client, name("a.probe.example"), RecordType::A)
            .unwrap();
        stub.expire_session(&mut w.net);
        let reply = stub
            .resolve(&mut w.net, w.client, name("b.probe.example"), RecordType::A)
            .unwrap();
        assert_eq!(reply.view().rcode(), Rcode::NoError);
        // Second session resumed from the cached ticket.
        assert!(reply.transport.resumed);
    }
}
