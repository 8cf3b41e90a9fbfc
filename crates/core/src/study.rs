//! The [`Study`]: owns the world and caches the expensive measurement
//! stages so individual experiments can share them.

use doe_privacy::{privacy_study_sharded, PrivacyConfig, PrivacyReport};
use doe_scanner::campaign::{self, CampaignReport};
use doe_traffic::{build_stub_world, StubPopulationConfig, StubPopulationReport};
use doe_traffic::{
    generate_dot_traffic, stub_population_sharded, DotTrafficConfig, TrafficDataset,
};
use doe_traffic::{generate_passive_dns, PassiveDnsDb, PdnsConfig};
use doe_vantage::performance::{performance_test_sharded, standard_tunnel, PerformanceReport};
use doe_vantage::reachability::{reachability_test_sharded, ReachabilityReport};
use worldgen::{World, WorldConfig};

/// Knobs for a study run.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyConfig {
    /// World seed.
    pub seed: u64,
    /// Client-population scale (1.0 = paper scale).
    pub scale: f64,
    /// Scan epochs to run (the paper's campaign had 10).
    pub epochs: usize,
    /// Test every Nth vantage client in the reachability study (1 = all).
    pub reach_stride: usize,
    /// Cap on performance-test clients.
    pub perf_clients: usize,
    /// Queries per protocol per client in the reused-connection test.
    pub perf_queries: u32,
    /// Iterations per vantage in the fresh-connection test (paper: 200).
    pub fresh_iterations: u32,
    /// Sweep the full advertised space (honest, slower) instead of the
    /// populated-/24 whitelist.
    pub full_sweep: bool,
    /// Worker threads for the sharded measurement stages (sweep,
    /// verification, vantage tests). Results are shard-count invariant;
    /// 0 means "use available parallelism".
    pub shards: usize,
    /// Network event-trace capacity (0 = tracing off).
    pub trace_capacity: usize,
    /// Whether the network collects telemetry (`repro --metrics`).
    pub metrics: bool,
    /// Concurrent event-driven stub clients in the population-scale leg
    /// (`repro --clients N`; paper config: 1,000,000).
    pub sim_clients: usize,
}

impl StudyConfig {
    /// Fast configuration for tests and smoke runs.
    pub fn quick(seed: u64) -> Self {
        StudyConfig {
            seed,
            scale: 0.02,
            epochs: 3,
            reach_stride: 1,
            perf_clients: 60,
            perf_queries: 20,
            fresh_iterations: 60,
            full_sweep: false,
            shards: 0,
            trace_capacity: 0,
            metrics: true,
            sim_clients: 20_000,
        }
    }

    /// The full reproduction (run in release mode).
    pub fn paper(seed: u64) -> Self {
        StudyConfig {
            seed,
            scale: 1.0,
            epochs: 10,
            reach_stride: 1,
            perf_clients: 10_000,
            perf_queries: 20,
            fresh_iterations: 200,
            full_sweep: true,
            shards: 0,
            trace_capacity: 0,
            metrics: true,
            sim_clients: 1_000_000,
        }
    }

    fn world_config(&self) -> WorldConfig {
        WorldConfig {
            seed: self.seed,
            scale: self.scale,
            trace_capacity: self.trace_capacity,
            metrics: self.metrics,
            ..WorldConfig::default()
        }
    }

    /// The effective worker count: `shards`, or the machine's available
    /// parallelism when left at 0.
    pub fn effective_shards(&self) -> usize {
        if self.shards == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.shards
        }
    }
}

/// The study driver. Heavy stages run once and are cached.
pub struct Study {
    /// The simulated world under measurement.
    pub world: World,
    /// Active knobs.
    pub config: StudyConfig,
    campaign: Option<CampaignReport>,
    reach_global: Option<ReachabilityReport>,
    reach_cn: Option<ReachabilityReport>,
    performance: Option<PerformanceReport>,
    traffic: Option<TrafficDataset>,
    pdns_360: Option<PassiveDnsDb>,
    pdns_dnsdb: Option<PassiveDnsDb>,
    stub_population: Option<StubPopulationReport>,
    privacy: Option<PrivacyReport>,
}

impl Study {
    /// Build the world and wrap it.
    pub fn new(config: StudyConfig) -> Study {
        let world = World::build(config.world_config());
        Study {
            world,
            config,
            campaign: None,
            reach_global: None,
            reach_cn: None,
            performance: None,
            traffic: None,
            pdns_360: None,
            pdns_dnsdb: None,
            stub_population: None,
            privacy: None,
        }
    }

    /// The scanning campaign (runs once; advances the world clock through
    /// the scan window).
    pub fn campaign(&mut self) -> &CampaignReport {
        if self.campaign.is_none() {
            let space = if self.config.full_sweep {
                campaign::full_space(&self.world)
            } else {
                campaign::compact_space(&self.world)
            };
            // Run the first and last epochs plus evenly-spaced middles.
            let shards = self.config.effective_shards();
            let report = if self.config.epochs >= 10 {
                campaign::run_campaign_sharded(
                    &mut self.world,
                    &space,
                    10,
                    self.config.seed,
                    shards,
                )
            } else {
                // Reduced-epoch mode still measures first and last dates.
                let mut summaries = Vec::new();
                let picks: Vec<usize> = match self.config.epochs {
                    0 | 1 => vec![9],
                    2 => vec![0, 9],
                    n => {
                        let mut v: Vec<usize> = (0..n - 1).map(|i| i * 9 / (n - 1)).collect();
                        v.push(9);
                        v.dedup();
                        v
                    }
                };
                for epoch in picks {
                    let date = self.world.config.scan_date(epoch);
                    self.world.set_epoch(date);
                    summaries.push(campaign::scan_epoch_sharded(
                        &mut self.world,
                        &space,
                        epoch,
                        self.config.seed,
                        shards,
                    ));
                }
                CampaignReport { epochs: summaries }
            };
            self.campaign = Some(report);
        }
        self.campaign.as_ref().expect("just computed")
    }

    /// Global-pool reachability (Table 4's ProxyRack rows).
    pub fn reach_global(&mut self) -> &ReachabilityReport {
        if self.reach_global.is_none() {
            let clients: Vec<_> = self
                .world
                .proxyrack
                .clients
                .iter()
                .step_by(self.config.reach_stride.max(1))
                .cloned()
                .collect();
            let shards = self.config.effective_shards();
            self.reach_global = Some(reachability_test_sharded(
                &mut self.world,
                &clients,
                "Cloudflare",
                shards,
            ));
        }
        self.reach_global.as_ref().expect("just computed")
    }

    /// Censored-pool reachability (Table 4's Zhima rows).
    pub fn reach_cn(&mut self) -> &ReachabilityReport {
        if self.reach_cn.is_none() {
            let clients: Vec<_> = self
                .world
                .zhima
                .clients
                .iter()
                .step_by(self.config.reach_stride.max(1))
                .cloned()
                .collect();
            let shards = self.config.effective_shards();
            self.reach_cn = Some(reachability_test_sharded(
                &mut self.world,
                &clients,
                "Cloudflare",
                shards,
            ));
        }
        self.reach_cn.as_ref().expect("just computed")
    }

    /// The reused-connection performance study (Figures 9/10).
    pub fn performance(&mut self) -> &PerformanceReport {
        if self.performance.is_none() {
            let tunnel = standard_tunnel(&mut self.world.net);
            let clients: Vec<_> = self
                .world
                .proxyrack
                .clients
                .iter()
                .filter(|c| c.in_perf_subset)
                .take(self.config.perf_clients)
                .cloned()
                .collect();
            let shards = self.config.effective_shards();
            self.performance = Some(performance_test_sharded(
                &mut self.world,
                &clients,
                tunnel,
                self.config.perf_queries,
                shards,
            ));
        }
        self.performance.as_ref().expect("just computed")
    }

    /// The 18-month NetFlow dataset (§5.1/§5.2).
    pub fn traffic(&mut self) -> &TrafficDataset {
        if self.traffic.is_none() {
            self.traffic = Some(generate_dot_traffic(&DotTrafficConfig {
                seed: self.config.seed ^ 0x5e7f,
                ..DotTrafficConfig::default()
            }));
        }
        self.traffic.as_ref().expect("just computed")
    }

    /// The population-scale stress leg: `sim_clients` event-driven stub
    /// clients interleaved on the discrete-event scheduler. Runs in its
    /// own lightweight world; its telemetry is folded into the study
    /// world's registry so `repro --metrics` carries the scheduler-load
    /// breakdown.
    pub fn stub_population(&mut self) -> &StubPopulationReport {
        if self.stub_population.is_none() {
            let mut stub_world = build_stub_world(self.config.seed ^ 0x57ab, self.config.metrics);
            let report = stub_population_sharded(
                &mut stub_world,
                &StubPopulationConfig {
                    clients: self.config.sim_clients,
                    ..StubPopulationConfig::default()
                },
                self.config.effective_shards(),
            );
            if self.config.metrics {
                self.world.net.metrics_mut().merge(stub_world.net.metrics());
            }
            self.stub_population = Some(report);
        }
        self.stub_population.as_ref().expect("just computed")
    }

    /// The padding-leakage privacy experiment: the closed-world
    /// fingerprinting workload replayed under every padding policy.
    /// Runs in its own lean world (policy resolvers, wildcard zones) so
    /// the main world's clock and connection state stay untouched.
    pub fn privacy(&mut self) -> &PrivacyReport {
        if self.privacy.is_none() {
            let cfg = if self.config.scale >= 1.0 {
                PrivacyConfig::paper()
            } else {
                PrivacyConfig::quick()
            };
            let mut net = netsim::Network::new(
                netsim::NetworkConfig {
                    metrics: self.config.metrics,
                    ..netsim::NetworkConfig::default()
                },
                self.config.seed ^ 0x7061_6464,
            );
            let world = doe_privacy::workload::install(&mut net, cfg.domains);
            let report =
                privacy_study_sharded(&mut net, &world, &cfg, self.config.effective_shards());
            if self.config.metrics {
                self.world.net.metrics_mut().merge(net.metrics());
            }
            self.privacy = Some(report);
        }
        self.privacy.as_ref().expect("just computed")
    }

    /// The 360-PassiveDNS-like feed (§5.3).
    pub fn pdns_360(&mut self) -> &PassiveDnsDb {
        if self.pdns_360.is_none() {
            self.pdns_360 = Some(generate_passive_dns(&PdnsConfig::three_sixty()));
        }
        self.pdns_360.as_ref().expect("just computed")
    }

    /// The DNSDB-like feed (§5.3's lifetime cut).
    pub fn pdns_dnsdb(&mut self) -> &PassiveDnsDb {
        if self.pdns_dnsdb.is_none() {
            self.pdns_dnsdb = Some(generate_passive_dns(&PdnsConfig::dnsdb()));
        }
        self.pdns_dnsdb.as_ref().expect("just computed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_are_lazy_and_stable() {
        let mut study = Study::new(StudyConfig {
            epochs: 2,
            ..StudyConfig::quick(3)
        });
        let first = study.campaign().epochs.len();
        assert_eq!(first, 2);
        // Second call hits the cache (same allocation).
        let again = study.campaign() as *const CampaignReport;
        let again2 = study.campaign() as *const CampaignReport;
        assert_eq!(again, again2);
    }
}
