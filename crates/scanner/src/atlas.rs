//! RIPE-Atlas-style probing of ISP local resolvers for DoT support
//! (§3.1, footnote 1: 24 of 6,655 probes succeed — 0.3% — after excluding
//! probes whose "local" resolver is really a public one).

use dnswire::{builder, Rcode, RecordType};
use doe_protocols::dot::DotClient;
use netsim::Network;
use tlssim::{DateStamp, TlsClientConfig, TrustStore};
use worldgen::AtlasProbe;

/// Outcome of the local-resolver study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtlasReport {
    /// Probes available.
    pub total_probes: usize,
    /// Probes excluded for using well-known public resolvers.
    pub excluded_public: usize,
    /// Probes whose local resolver completed a DoT lookup.
    pub dot_capable: usize,
}

impl AtlasReport {
    /// The headline rate (paper: 0.3%).
    pub fn success_rate(&self) -> f64 {
        let tested = self.total_probes - self.excluded_public;
        if tested == 0 {
            0.0
        } else {
            self.dot_capable as f64 / tested as f64
        }
    }
}

/// Ask every probe's local resolver for our domain over DoT.
pub fn local_resolver_probe(
    net: &mut Network,
    probes: &[AtlasProbe],
    probe_apex: &str,
    store: &TrustStore,
    now: DateStamp,
) -> AtlasReport {
    let mut excluded = 0usize;
    let mut capable = 0usize;
    for (i, probe) in probes.iter().enumerate() {
        if probe.uses_public_resolver {
            excluded += 1;
            continue;
        }
        let mut dot = DotClient::new(TlsClientConfig::opportunistic(store.clone(), now));
        let qname = format!("atlas{i}.{probe_apex}");
        let Ok(query) = builder::query(crate::txid(i), &qname, RecordType::A) else {
            continue;
        };
        if let Ok(reply) = dot.query_once(net, probe.ip, probe.local_resolver, None, &query) {
            if reply.view().rcode() == Rcode::NoError {
                capable += 1;
            }
        }
    }
    AtlasReport {
        total_probes: probes.len(),
        excluded_public: excluded,
        dot_capable: capable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use worldgen::{World, WorldConfig};

    #[test]
    fn isp_dot_support_is_scarce() {
        let mut world = World::build(WorldConfig {
            scale: 0.15, // enough probes for the rate to be meaningful
            ..WorldConfig::test_scale(11)
        });
        let probes = world.atlas.clone();
        let apex = world.probe.apex.to_string();
        let apex = apex.trim_end_matches('.');
        let store = world.trust_store.clone();
        let now = world.epoch();
        let report = local_resolver_probe(&mut world.net, &probes, apex, &store, now);
        assert!(report.total_probes > 500);
        assert!(report.excluded_public > 0);
        // Ground truth check: measured capability equals deployment truth.
        let truth = probes
            .iter()
            .filter(|p| !p.uses_public_resolver && p.resolver_has_dot)
            .count();
        assert_eq!(report.dot_capable, truth);
        assert!(
            report.success_rate() < 0.05,
            "rate {} should be scarce",
            report.success_rate()
        );
    }
}
