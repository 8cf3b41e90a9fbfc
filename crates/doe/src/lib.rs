//! # doe-protocols — DNS transports, encrypted and not
//!
//! Everything that moves DNS messages in the study:
//!
//! * [`do53`] — classic clear-text DNS over UDP (with TC→TCP retry) and
//!   over TCP (RFC 1035 framing, reusable connections: the paper's
//!   clear-text baseline, §4.1),
//! * [`dot`] — DNS over TLS (RFC 7858, port 853) with the Strict and
//!   Opportunistic usage profiles of RFC 8310 and connection reuse,
//! * [`doh`] — DNS over HTTPS (RFC 8484, GET and POST forms, URI
//!   templates, bootstrap resolution; Strict-profile-only by design),
//! * [`responder`] / [`recursive`] — server-side: authoritative servers
//!   (with opt-in ground-truth query logs for tests), recursive resolvers
//!   with caches, fixed-answer filters, and flaky back-ends,
//! * [`stub`] — a user-facing stub resolver that composes the above with
//!   profile-driven fallback, the public API a downstream client would
//!   embed.
//!
//! All transports run over [`netsim`] and charge honest round trips, so
//! latency comparisons between them are meaningful (§4.3 of the paper).
//!
//! ```
//! use dnswire::{builder, Rcode, RecordType};
//! use doe_protocols::responder::AuthoritativeServer;
//! use doe_protocols::{do53_udp_query, Do53UdpService};
//! use dnswire::zone::Zone;
//! use dnswire::{Name, RData};
//! use netsim::{HostMeta, Network, NetworkConfig, SimDuration};
//! use std::sync::Arc;
//!
//! // A resolver serving one zone, queried over clear-text UDP.
//! let mut net = Network::new(NetworkConfig::default(), 1);
//! let server = "192.0.2.53".parse().unwrap();
//! let client = "198.51.100.1".parse().unwrap();
//! net.add_host(HostMeta::new(server));
//! net.add_host(HostMeta::new(client));
//! let apex = Name::parse("example.org").unwrap();
//! let mut zone = Zone::new(apex.clone());
//! zone.add_record(&apex.prepend("www").unwrap(), 60, RData::A("203.0.113.1".parse().unwrap()));
//! net.bind_udp(server, 53, Arc::new(Do53UdpService::new(
//!     Arc::new(AuthoritativeServer::new(vec![zone])),
//! )));
//!
//! let q = builder::query(1, "www.example.org", RecordType::A).unwrap();
//! let reply = do53_udp_query(&mut net, client, server, &q, SimDuration::from_secs(5), 1).unwrap();
//! assert_eq!(reply.view().rcode(), Rcode::NoError);
//! assert_eq!(reply.view().first_a_answer(), Some("203.0.113.1".parse().unwrap()));
//! ```

pub mod do53;
pub mod doh;
pub mod dot;
pub mod error;
pub mod machine;
pub mod recursive;
pub mod responder;
pub mod stub;
pub mod tap;

pub use do53::{do53_tcp_query, do53_udp_query, Do53TcpConn, Do53TcpService, Do53UdpService};
pub use doh::{Bootstrap, DohBackend, DohClient, DohMethod, DohServerService, DohSession};
pub use dot::{DotClient, DotServerService, DotSession};
pub use error::{DnsTransport, QueryError, QueryReply, TransportInfo};
pub use machine::{StubMachine, StubMachineStats, StubPacing};
pub use recursive::{RecursiveConfig, RecursiveResolver, UpstreamMap};
pub use responder::{
    AuthoritativeServer, DnsResponder, FixedAnswerResponder, PaddedResponder, QueryLog,
    QueryLogEntry,
};
pub use stub::{StubConfig, StubProfile, StubResolver};
pub use tap::{FlowTap, TapDirection, TapMessage};

/// IANA port for DNS over TLS (RFC 7858).
pub const DOT_PORT: u16 = 853;

/// Port shared by DoH and HTTPS.
pub const DOH_PORT: u16 = 443;

/// Clear-text DNS port.
pub const DO53_PORT: u16 = 53;
