//! The population-scale stress leg: a million event-driven stub clients
//! on the shard event heap.
//!
//! The per-client-loop architecture bounded a shard to one in-flight
//! client at a time; the discrete-event scheduler removes that bound.
//! This module builds a lean world — one anycast resolver whose
//! authoritative answers keep no query log, clients attributed through
//! the geo database instead of a million host entries — and drives a
//! [`StubMachine`] per client, mixing clear-text UDP (the bulk),
//! clear-text TCP, and Opportunistic/Strict DoT so connection reuse,
//! idle closes, timeouts and retransmits all run as scheduled events. One /16 of the client band is blackholed by policy,
//! so a fixed, shard-layout-independent slice of the fleet exercises the
//! retransmit path.
//!
//! Determinism: every machine seeds its RNG stream from
//! `mix_seed(salt, client_index)` and all merge operations (counter sums,
//! per-profile sums, peak maxima) are associative and commutative, so the
//! report and the telemetry snapshot are bit-identical for any `--shards`
//! value — the same contract `tests/shard_invariance.rs` checks for the
//! scan and vantage legs.

use dnswire::zone::Zone;
use dnswire::{Name, RData};
use doe_protocols::do53::{Do53TcpService, Do53UdpService};
use doe_protocols::dot::DotServerService;
use doe_protocols::responder::{AuthoritativeServer, DnsResponder};
use doe_protocols::{StubConfig, StubMachine, StubMachineStats, StubPacing, StubProfile};
use netsim::geo::BlockInfo;
use netsim::sched::{run_machines, SchedEvent, SchedStats};
use netsim::telemetry::Labels;
use netsim::{
    mix_seed, Asn, CountryCode, HostMeta, Netblock, Network, NetworkConfig, PathDecision,
    PolicyRule, Region, SimDuration, SrcMatch,
};
use std::net::Ipv4Addr;
use std::sync::Arc;
use tlssim::{CaHandle, DateStamp, KeyId, TlsServerConfig, TrustStore};

/// The resolver every stub queries (benchmark address space).
pub const STUB_RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 18, 0, 53);

/// DoT certificate name the Strict profile authenticates.
pub const STUB_AUTH_NAME: &str = "stub.resolver.example";

/// First address of the live client band (RFC 6598 shared space).
const CLIENT_BASE: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 0);

/// The /16 whose clients are blackholed: every 64th client maps here, so
/// a fixed 1/64 of any population size times out and retransmits.
const DEAD_BLOCK: Ipv4Addr = Ipv4Addr::new(100, 127, 0, 0);

/// Knobs for a stub-population run.
#[derive(Debug, Clone)]
pub struct StubPopulationConfig {
    /// Concurrent stub clients (capped by the /10 band: ≤ 4,000,000).
    pub clients: usize,
    /// Logical queries per client.
    pub queries_per_client: u32,
}

impl Default for StubPopulationConfig {
    fn default() -> Self {
        StubPopulationConfig {
            clients: 20_000,
            queries_per_client: 2,
        }
    }
}

/// The lean world a stub population runs against.
pub struct StubWorld {
    /// The simulated network (metrics-enabled when asked).
    pub net: Network,
    /// Trust anchors for the DoT profiles.
    pub store: TrustStore,
    /// Simulated calendar date (certificate validity).
    pub now: DateStamp,
    /// Apex of the zone the resolver serves, under which every stub
    /// names its queries.
    pub apex: Name,
}

/// Per-event-kind scheduler load, merged across shards. Sums and maxima
/// only, so the merge is associative and shard-count invariant (the raw
/// per-shard heap peak is deliberately excluded — it depends on how many
/// machines share a heap).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedLoad {
    /// Events scheduled, by kind index (see [`SchedEvent::KIND_NAMES`]).
    pub scheduled: [u64; SchedEvent::KIND_COUNT],
    /// Events fired, by kind index.
    pub fired: [u64; SchedEvent::KIND_COUNT],
    /// Peak simultaneously-pending events of any single machine.
    pub peak_outstanding: u32,
}

impl SchedLoad {
    /// Fold one shard's scheduler statistics into the fleet view.
    pub fn absorb(&mut self, stats: &SchedStats) {
        for k in 0..SchedEvent::KIND_COUNT {
            self.scheduled[k] += stats.scheduled[k];
            self.fired[k] += stats.fired[k];
        }
        self.peak_outstanding = self.peak_outstanding.max(stats.machine_peak);
    }
}

/// One transport profile's slice of the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileSlice {
    /// Profile label (`udp`, `tcp`, `dot-opportunistic`, `dot-strict`).
    pub profile: &'static str,
    /// Clients assigned to the profile.
    pub clients: u64,
    /// Their merged outcome counters.
    pub stats: StubMachineStats,
}

/// The fleet-level result of a stub-population run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StubPopulationReport {
    /// Clients simulated.
    pub clients: u64,
    /// Fleet-wide outcome counters.
    pub totals: StubMachineStats,
    /// Per-profile breakdown, in fixed profile order.
    pub profiles: Vec<ProfileSlice>,
    /// Scheduler load, by event kind.
    pub sched: SchedLoad,
}

/// Profile labels, indexed by [`profile_index`].
const PROFILE_LABELS: [&str; 4] = ["udp", "tcp", "dot-opportunistic", "dot-strict"];

/// Deterministic transport mix: UDP-heavy (keeps a million machines
/// lean), with enough TCP and DoT to exercise pooled connections.
fn profile_index(ci: u64) -> usize {
    match ci % 100 {
        0..=89 => 0,
        90..=95 => 1,
        96..=98 => 2,
        _ => 3,
    }
}

/// Client address: every 64th client lands in the blackholed /16; the
/// rest walk the live band from [`CLIENT_BASE`].
fn client_addr(ci: u64) -> Ipv4Addr {
    if ci % 64 == 63 {
        Ipv4Addr::from(u32::from(DEAD_BLOCK) + (ci / 64) as u32 + 1)
    } else {
        Ipv4Addr::from(u32::from(CLIENT_BASE) + ci as u32 + 1)
    }
}

/// Whether a client index maps into the blackholed /16.
pub fn is_dead_client(ci: u64) -> bool {
    ci % 64 == 63
}

/// Build the lean stub world: the resolver host, geo attribution for the
/// whole client band (no per-client host entries), and the blackhole rule.
pub fn build_stub_world(seed: u64, metrics: bool) -> StubWorld {
    let mut net = Network::new(
        NetworkConfig {
            metrics,
            ..NetworkConfig::default()
        },
        seed,
    );
    let now = DateStamp::from_ymd(2019, 2, 1);

    net.add_host(
        HostMeta::new(STUB_RESOLVER)
            .country("US")
            .asn(64496)
            .anycast(),
    );
    let apex = Name::parse("pop.example").expect("static apex");
    let mut zone = Zone::new(apex.clone());
    zone.add_record(
        &apex.prepend("*").expect("static label"),
        60,
        RData::A(Ipv4Addr::new(203, 0, 113, 80)),
    );
    let responder: Arc<dyn DnsResponder> = Arc::new(AuthoritativeServer::new(vec![zone]));
    net.bind_udp(
        STUB_RESOLVER,
        53,
        Arc::new(Do53UdpService::new(Arc::clone(&responder))),
    );
    net.bind_tcp(
        STUB_RESOLVER,
        53,
        Arc::new(Do53TcpService::new(Arc::clone(&responder))),
    );
    let ca = CaHandle::new("Stub Population CA", KeyId(41), now + -100, 3650);
    let mut store = TrustStore::new();
    store.add(ca.authority());
    let leaf = ca.issue(STUB_AUTH_NAME, vec![], KeyId(42), 1, now + -10, now + 365);
    net.bind_tcp(
        STUB_RESOLVER,
        853,
        Arc::new(DotServerService::new(
            TlsServerConfig::new(vec![leaf], KeyId(42)),
            responder,
        )),
    );

    // Country attribution by /14 slice of the live band — latency model
    // diversity without a million host entries.
    let countries: [(&str, u32, Region); 8] = [
        ("US", 64500, Region::NorthAmerica),
        ("CN", 64501, Region::Asia),
        ("IN", 64502, Region::Asia),
        ("DE", 64503, Region::Europe),
        ("BR", 64504, Region::SouthAmerica),
        ("NG", 64505, Region::Africa),
        ("JP", 64506, Region::Asia),
        ("AU", 64507, Region::Oceania),
    ];
    for (i, (cc, asn, region)) in countries.iter().enumerate() {
        let block = Netblock::new(
            Ipv4Addr::from(u32::from(CLIENT_BASE) + ((i as u32) << 18)),
            14,
        );
        net.geodb_mut().insert(
            block,
            BlockInfo {
                asn: Asn(*asn),
                country: CountryCode::new(cc),
                region: *region,
            },
        );
    }
    // The dead band is attributed too — its flows are simply dropped.
    net.geodb_mut().insert(
        Netblock::new(DEAD_BLOCK, 16),
        BlockInfo {
            asn: Asn(64508),
            country: CountryCode::new("US"),
            region: Region::NorthAmerica,
        },
    );
    net.policies_mut().push(
        PolicyRule::new("stubsim dead band", PathDecision::Blackhole)
            .from_src(SrcMatch::Block(Netblock::new(DEAD_BLOCK, 16))),
    );

    StubWorld {
        net,
        store,
        now,
        apex,
    }
}

/// One shard's partial aggregate: pure sums and maxima, so the parent
/// merge is order-free.
struct ShardAgg {
    per_profile: [StubMachineStats; 4],
    clients_per_profile: [u64; 4],
    sched: SchedStats,
}

/// Run `cfg.clients` event-driven stub clients distributed over `shards`
/// workers (client `i` → shard `i mod shards`). Every machine performs
/// one bounded step per fired event, so a single shard holds the whole
/// population concurrently instead of one client at a time.
pub fn stub_population_sharded(
    world: &mut StubWorld,
    cfg: &StubPopulationConfig,
    shards: usize,
) -> StubPopulationReport {
    assert!(
        cfg.clients <= 4_000_000,
        "client band is a /10: at most 4M stubs"
    );
    let shards = shards.max(1);
    let clients = cfg.clients;
    let salt = mix_seed(world.net.base_seed(), 0x7374_7562_706f_7075); // "stubpopu"
    let pacing = Arc::new(StubPacing {
        queries_per_client: cfg.queries_per_client,
        ..StubPacing::new(world.apex.clone())
    });
    let store = &world.store;
    let now = world.now;

    let run_shard = |worker: &mut Network, shard: usize| -> ShardAgg {
        let mut machines: Vec<StubMachine> = Vec::with_capacity(clients / shards + 1);
        let mut clients_per_profile = [0u64; 4];
        for ci in (shard..clients).step_by(shards) {
            let ci = ci as u64;
            let p = profile_index(ci);
            clients_per_profile[p] += 1;
            let profile = match p {
                0 => StubProfile::ClearText,
                1 => StubProfile::ClearTextTcp,
                2 => StubProfile::OpportunisticDot {
                    fallback_clear: false,
                },
                _ => StubProfile::StrictDot {
                    auth_name: STUB_AUTH_NAME.into(),
                },
            };
            // The anchors are shared, so every client's copy is a pointer;
            // only the TLS profiles keep theirs.
            machines.push(StubMachine::new(
                ci as u32,
                client_addr(ci),
                StubConfig {
                    resolver: STUB_RESOLVER,
                    profile,
                    trust_store: store.clone(),
                    now,
                    timeout: SimDuration::from_secs(5),
                },
                Arc::clone(&pacing),
                mix_seed(salt, ci),
            ));
        }
        // Stagger starts over ~1s of virtual time, keyed on the global
        // index so the fleet's schedule is shard-layout independent.
        for (mi, m) in (0..).zip(&machines) {
            let ci = m.client_index();
            m.start(worker, mi, SimDuration::from_micros((ci % 1_009) * 977));
        }
        run_machines(worker, &mut machines);

        let mut per_profile = [StubMachineStats::default(); 4];
        for m in &machines {
            per_profile[profile_index(m.client_index())].absorb(&m.stats());
        }
        ShardAgg {
            per_profile,
            clients_per_profile,
            sched: worker.sched_stats(),
        }
    };

    let mut per_profile = [StubMachineStats::default(); 4];
    let mut clients_per_profile = [0u64; 4];
    let mut sched = SchedLoad::default();
    for agg in world.net.run_shards(shards, run_shard) {
        for p in 0..4 {
            per_profile[p].absorb(&agg.per_profile[p]);
            clients_per_profile[p] += agg.clients_per_profile[p];
        }
        sched.absorb(&agg.sched);
    }

    let mut totals = StubMachineStats::default();
    for s in &per_profile {
        totals.absorb(s);
    }

    // Fleet counters into the merged registry, so `repro --metrics`
    // carries the population outcome next to the scheduler-kind series.
    let m = world.net.metrics_mut();
    m.count("stage.stub.clients", Labels::empty(), clients as u64);
    m.count("stage.stub.queries", Labels::empty(), totals.queries);
    m.count("stage.stub.answered", Labels::empty(), totals.answered);
    m.count("stage.stub.failed", Labels::empty(), totals.failed);
    m.count("stage.stub.timeouts", Labels::empty(), totals.timeouts);
    m.count(
        "stage.stub.retransmits",
        Labels::empty(),
        totals.retransmits,
    );
    m.count(
        "stage.stub.idle_closes",
        Labels::empty(),
        totals.idle_closes,
    );
    m.count("stage.stub.reused", Labels::empty(), totals.reused);

    StubPopulationReport {
        clients: clients as u64,
        totals,
        profiles: PROFILE_LABELS
            .iter()
            .enumerate()
            .map(|(p, label)| ProfileSlice {
                profile: label,
                clients: clients_per_profile[p],
                stats: per_profile[p],
            })
            .collect(),
        sched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> StubPopulationConfig {
        StubPopulationConfig {
            clients: 800,
            queries_per_client: 2,
        }
    }

    #[test]
    fn population_report_is_shard_invariant() {
        let run = |shards: usize| {
            let mut world = build_stub_world(97, true);
            let report = stub_population_sharded(&mut world, &small_cfg(), shards);
            (report, world.net.metrics_mut().snapshot())
        };
        let (r1, m1) = run(1);
        let (r2, m2) = run(2);
        let (r8, m8) = run(8);
        assert_eq!(r1.totals, r2.totals);
        assert_eq!(r1.totals, r8.totals);
        assert_eq!(r1.sched, r2.sched);
        assert_eq!(r1.sched, r8.sched);
        for p in 0..4 {
            assert_eq!(r1.profiles[p].stats, r8.profiles[p].stats);
            assert_eq!(r1.profiles[p].clients, r8.profiles[p].clients);
        }
        assert_eq!(m1, m2);
        assert_eq!(m1, m8);
    }

    #[test]
    fn dead_band_times_out_and_rest_answers() {
        let mut world = build_stub_world(98, true);
        let cfg = small_cfg();
        let report = stub_population_sharded(&mut world, &cfg, 4);

        let dead = (0..cfg.clients as u64)
            .filter(|&ci| is_dead_client(ci))
            .count() as u64;
        let qpc = u64::from(cfg.queries_per_client);
        assert_eq!(report.clients, cfg.clients as u64);
        assert_eq!(report.totals.queries, cfg.clients as u64 * qpc);
        assert_eq!(report.totals.failed, dead * qpc, "every dead query fails");
        assert_eq!(
            report.totals.answered,
            (cfg.clients as u64 - dead) * qpc,
            "every live query is answered"
        );
        assert!(report.totals.retransmits > 0, "dead clients retransmit");
        assert!(report.totals.reused > 0, "pooled transports reuse");
        // All four event kinds flowed through the heap.
        for k in 0..SchedEvent::KIND_COUNT {
            assert!(report.sched.fired[k] > 0, "kind {k} fired");
        }
        // Bounded per-machine footprint: a stub never holds more than a
        // handful of pending events.
        assert!(report.sched.peak_outstanding <= 4);
    }

    #[test]
    fn profiles_split_as_configured() {
        let mut world = build_stub_world(99, false);
        let report = stub_population_sharded(&mut world, &small_cfg(), 2);
        let total: u64 = report.profiles.iter().map(|p| p.clients).sum();
        assert_eq!(total, 800);
        assert!(report.profiles[0].clients > report.profiles[1].clients);
        assert!(report.profiles[3].clients > 0, "strict DoT slice present");
        // Strict DoT against a valid certificate answers everything live.
        let strict = &report.profiles[3];
        assert!(strict.stats.answered > 0);
    }
}
