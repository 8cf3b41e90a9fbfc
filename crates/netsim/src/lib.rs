//! # netsim — a deterministic Internet simulator
//!
//! The IMC'19 DNS-over-Encryption study measured the real Internet: ZMap
//! sweeps of the IPv4 space, residential proxy vantage points in 166
//! countries, and backbone NetFlow. None of those substrates are available
//! offline, so this crate provides the closest synthetic equivalent: a
//! seeded simulation of an internet that the *same measurement code* can
//! run against — single-threaded by default, and shardable across worker
//! threads via [`Network::run_shards`] for zmap-style parallel sweeps.
//!
//! Design points (see DESIGN.md §4):
//!
//! * **Real bytes, simulated wires.** Services exchange genuine protocol
//!   bytes (DNS wire format, TLS records, HTTP) through [`Network`]; the
//!   simulator charges virtual time per round trip and per byte instead of
//!   actually sleeping.
//! * **Deterministic.** All randomness flows from one seed;
//!   identical seeds produce identical worlds, latencies and outcomes.
//! * **Middleboxes are first-class.** [`policy`] implements the paper's
//!   four failure families — port filtering, blackholing/censorship,
//!   IP-conflict diversion, and TLS interception — as path rules evaluated
//!   on every connection.
//! * **Geo-aware latency.** Hosts carry country/AS metadata; the
//!   [`latency`] model combines an inter-region RTT matrix, per-country
//!   access quality, anycast short-circuiting and lognormal jitter.
//!
//! ```
//! use netsim::{Network, NetworkConfig, HostMeta, service::FnDatagramService};
//! use std::net::Ipv4Addr;
//! use std::sync::Arc;
//!
//! let mut net = Network::new(NetworkConfig::default(), 42);
//! let server = Ipv4Addr::new(192, 0, 2, 1);
//! net.add_host(HostMeta::new(server).country("US").asn(64500));
//! net.bind_udp(server, 7, Arc::new(FnDatagramService::new(|_, _, data| {
//!     Some(data.to_vec()) // echo
//! })));
//!
//! let client = Ipv4Addr::new(198, 51, 100, 1);
//! net.add_host(HostMeta::new(client).country("DE").asn(64501));
//! let reply = net.udp_query(client, server, 7, b"ping", None).unwrap();
//! assert_eq!(reply.bytes, b"ping");
//! assert!(reply.elapsed.as_micros() > 0);
//! ```

/// Re-export of the deterministic metrics subsystem: stage runners pull
/// `telemetry::{Labels, Span, ...}` from here instead of depending on the
/// crate directly.
pub use doe_telemetry as telemetry;

pub mod geo;
pub mod host;
pub mod latency;
pub mod net;
pub mod policy;
pub mod sched;
pub mod service;
pub mod time;
pub mod trace;

pub use geo::{Asn, CountryCode, Netblock, Region};
pub use host::{HostMeta, PeerInfo};
pub use latency::{LatencyModel, LatencyProfile};
pub use net::{
    mix_seed, Conn, ConnectError, ConnectErrorKind, DataPlane, HostBand, Network, NetworkConfig,
    ProbeOutcome, ShardStats, UdpError, UdpReply,
};
pub use policy::{DstMatch, PathDecision, PolicyRule, PolicySet, PortMatch, SrcMatch};
pub use sched::{run_machines, EventMachine, Fired, SchedEvent, SchedStats, Scheduler};
pub use service::{DatagramService, FnDatagramService, Service, ServiceCtx, StreamHandler};
pub use time::{SimDuration, SimInstant, SimTime};
pub use trace::{EventKind, EventLog, NetEvent};
