//! # doe-vantage — the client-side usability study (Section 4)
//!
//! Reproduces the paper's vantage-point methodology:
//!
//! * [`socks`] — a genuine SOCKS5 implementation: the relay architecture
//!   of the residential proxy networks (Figure 5), with greeting/CONNECT
//!   codecs and a super-proxy relay service that forwards through rotating
//!   exit nodes,
//! * [`pool`] — vantage-point session management: limited lifetimes,
//!   uptime checks before reuse, and the tunnel latency composition
//!   (Figure 8: the measurement client observes `T_R = T'_R + tunnel`;
//!   because the tunnel term is protocol-independent, comparing medians of
//!   `T_R` across protocols recovers the protocol difference — the paper's
//!   key methodological trick),
//! * [`reachability`] — the Figure 7 workflow: clear-text DNS (over TCP,
//!   the platforms' constraint), Opportunistic DoT and Strict DoH against
//!   Cloudflare / Google / Quad9 / the self-built resolver, with
//!   Correct / Incorrect / Failed classification (Table 4), port-probe and
//!   webpage forensics for failing clients (Table 5), and interception
//!   detection (Table 6),
//! * [`performance`] — §4.3: per-client reused-connection latency medians
//!   (Figures 9 and 10) and the fresh-connection comparison from four
//!   controlled vantages (Table 7).

pub mod performance;
pub mod pool;
pub mod reachability;
pub mod socks;

pub use performance::{
    fresh_connection_test, performance_test_sharded, CountryPerformance, FreshConnectionRow,
    PerfObservation, PerformanceReport,
};
pub use pool::{Tunnel, VantagePool};
pub use reachability::{
    reachability_test_sharded, ForensicFinding, InterceptionFinding, Outcome, ReachabilityReport,
    ResolverTargets, TransportKind,
};
pub use socks::{Socks5Client, Socks5RelayService};
