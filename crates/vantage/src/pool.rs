//! Vantage-point pool management and tunnel-latency composition.
//!
//! The platforms set limited lifetimes on exit nodes, so the measurement
//! client (a) checks remaining uptime before committing a node to a
//! multi-query test and (b) discards nodes that rotate away mid-test
//! (§4.1, "Because the ProxyRack exit nodes rotate ...").
//!
//! Latency composition: Figure 8 shows the measurement client can only
//! observe `T_R = tunnel + T'_R`, never `T'_R` itself. [`Tunnel`] samples
//! the tunnel term per exchange — from the same distribution regardless of
//! the DNS protocol under test — so protocol *differences* of `T_R`
//! medians equal differences of `T'_R` medians, which is exactly the
//! paper's argument for why the comparison is sound.

use netsim::{Network, SimDuration};
use rand::Rng;
use std::net::Ipv4Addr;
use worldgen::ClientInfo;

/// The measurement tunnel: measurement client → super proxy → exit.
#[derive(Debug, Clone, Copy)]
pub struct Tunnel {
    /// Measurement client address.
    pub measurement_client: Ipv4Addr,
    /// Super proxy address.
    pub super_proxy: Ipv4Addr,
}

impl Tunnel {
    /// Sample the tunnel's contribution to one observed exchange:
    /// one round trip MC→proxy plus one proxy→exit.
    pub fn sample_overhead(&self, net: &mut Network, exit: Ipv4Addr) -> SimDuration {
        let mc = endpoint(net, self.measurement_client);
        let sp = endpoint(net, self.super_proxy);
        let ex = endpoint(net, exit);
        let lat = &net.config().latency;
        let (to_proxy, to_exit) = (lat.path(mc, sp, None), lat.path(sp, ex, None));
        // The client-to-proxy leg draws first: the RNG order reaches every
        // reported latency.
        to_proxy.sample_rtt(net.rng()) + to_exit.sample_rtt(net.rng())
    }
}

fn endpoint(net: &Network, ip: Ipv4Addr) -> netsim::latency::Endpoint {
    let (country, _asn, region) = net.attribution(ip);
    netsim::latency::Endpoint {
        region,
        country,
        anycast: false,
    }
}

/// A pool of vantage points with rotation semantics.
pub struct VantagePool {
    clients: Vec<ClientInfo>,
    /// Mean remaining lifetime when a node is handed out, in "queries
    /// worth" of budget; nodes may rotate away mid-test.
    mean_lifetime_queries: f64,
}

impl VantagePool {
    /// Wrap a client list.
    pub fn new(clients: Vec<ClientInfo>) -> Self {
        VantagePool {
            clients,
            mean_lifetime_queries: 400.0,
        }
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// The clients.
    pub fn clients(&self) -> &[ClientInfo] {
        &self.clients
    }

    /// Check a node's remaining uptime before a test needing `budget`
    /// queries; the paper discards nodes about to expire. Returns whether
    /// the node survives the whole test.
    pub fn check_uptime(&self, net: &mut Network, budget: u32) -> bool {
        // Exponential lifetime; survival prob for `budget` more queries.
        let u: f64 = net.rng().gen_range(0.0f64..1.0);
        let remaining = -self.mean_lifetime_queries * (1.0 - u).ln();
        remaining >= budget as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{HostMeta, NetworkConfig};

    #[test]
    fn tunnel_overhead_is_positive_and_varies() {
        let mut net = Network::new(NetworkConfig::default(), 3);
        let mc: Ipv4Addr = "198.51.100.50".parse().unwrap();
        let sp: Ipv4Addr = "192.0.2.100".parse().unwrap();
        let exit: Ipv4Addr = "64.0.0.9".parse().unwrap();
        net.add_host(HostMeta::new(mc).country("US"));
        net.add_host(HostMeta::new(sp).country("US"));
        let tunnel = Tunnel {
            measurement_client: mc,
            super_proxy: sp,
        };
        let samples: Vec<SimDuration> = (0..32)
            .map(|_| tunnel.sample_overhead(&mut net, exit))
            .collect();
        assert!(samples.iter().all(|&d| d > SimDuration::ZERO));
        assert!(samples.windows(2).any(|w| w[0] != w[1]), "jitter expected");
    }

    #[test]
    fn uptime_check_mostly_passes_small_budgets() {
        let mut net = Network::new(NetworkConfig::default(), 3);
        let pool = VantagePool::new(Vec::new());
        let passes = (0..200).filter(|_| pool.check_uptime(&mut net, 60)).count();
        // Budget of 60 queries against mean lifetime 400: ~86% survive.
        assert!(passes > 140, "{passes}");
        let passes_big = (0..200)
            .filter(|_| pool.check_uptime(&mut net, 2_000))
            .count();
        assert!(passes_big < 30, "{passes_big}");
    }
}
