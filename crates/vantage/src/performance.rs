//! The performance study (§4.3): relative latency of encrypted vs
//! clear-text DNS, with and without connection reuse.

use crate::pool::Tunnel;
use dnswire::{builder, RecordType};
use doe_protocols::do53::Do53TcpConn;
use doe_protocols::dot::{DotClient, DotSession};
use doe_protocols::{Bootstrap, DohClient, DohMethod, DohSession};
use httpsim::UriTemplate;
use netsim::sched::{run_machines, EventMachine, Fired, SchedEvent};
use netsim::telemetry::{HistogramId, Labels, Registry};
use netsim::time::{mean, median, overhead_ms};
use netsim::{mix_seed, HostMeta, Network, SimDuration};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;
use tlssim::{DateStamp, TlsClientConfig, TrustStore};
use worldgen::{ClientInfo, World};

/// One client's medians of observed `T_R` per protocol (ms).
#[derive(Debug, Clone)]
pub struct PerfObservation {
    /// The vantage point.
    pub client: Ipv4Addr,
    /// Client country.
    pub country: String,
    /// Median observed clear-text DNS/TCP time.
    pub dns_ms: f64,
    /// Median observed DoT time.
    pub dot_ms: f64,
    /// Median observed DoH time.
    pub doh_ms: f64,
}

impl PerfObservation {
    /// DoT overhead over clear text (signed, ms).
    pub fn dot_overhead(&self) -> f64 {
        self.dot_ms - self.dns_ms
    }

    /// DoH overhead over clear text (signed, ms).
    pub fn doh_overhead(&self) -> f64 {
        self.doh_ms - self.dns_ms
    }
}

/// Per-country aggregation (Figure 9's bars).
#[derive(Debug, Clone)]
pub struct CountryPerformance {
    /// Country code.
    pub country: String,
    /// Clients contributing.
    pub clients: usize,
    /// Mean DoT overhead, ms.
    pub dot_mean_ms: f64,
    /// Median DoT overhead, ms.
    pub dot_median_ms: f64,
    /// Mean DoH overhead, ms.
    pub doh_mean_ms: f64,
    /// Median DoH overhead, ms.
    pub doh_median_ms: f64,
}

/// The reused-connection study's output.
#[derive(Debug, Clone)]
pub struct PerformanceReport {
    /// Per-client observations (Figure 10's points).
    pub observations: Vec<PerfObservation>,
    /// Per-country aggregates, sorted by client count (Figure 9).
    pub per_country: Vec<CountryPerformance>,
    /// Global mean/median DoT overhead, ms.
    pub global_dot: (f64, f64),
    /// Global mean/median DoH overhead, ms.
    pub global_doh: (f64, f64),
    /// Clients attempted but skipped (node rotated away / path broken).
    pub skipped: usize,
}

fn median_ms(samples: &mut [SimDuration]) -> f64 {
    median(samples).as_millis_f64()
}

/// Per-shard handles for the `stage.perf.query_us{proto=...}` latency
/// histograms — one series per protocol, registered once per worker and
/// copied into every machine on that shard.
#[derive(Clone, Copy)]
struct PerfMetricIds {
    dns: HistogramId,
    dot: HistogramId,
    doh: HistogramId,
}

impl PerfMetricIds {
    fn register(reg: &mut Registry) -> PerfMetricIds {
        PerfMetricIds {
            dns: reg.histogram("stage.perf.query_us", Labels::one("proto", "dns")),
            dot: reg.histogram("stage.perf.query_us", Labels::one("proto", "dot")),
            doh: reg.histogram("stage.perf.query_us", Labels::one("proto", "doh")),
        }
    }
}

/// Immutable per-run parameters shared by every client measurement.
struct PerfSetup {
    resolver: Ipv4Addr,
    doh_template: UriTemplate,
    store: TrustStore,
    now: DateStamp,
    apex: String,
    bootstrap: Ipv4Addr,
    tunnel: Tunnel,
    queries: u32,
}

/// Where a performance machine is in its per-protocol measurement
/// sequence. Each variant is one bounded step per fired event; the
/// op order (connect, N queries, close, next protocol) is exactly the
/// old per-client loop's, so a client's draw stream — and therefore the
/// report — is bit-identical to the sequential implementation.
enum PerfPhase {
    ConnectDns,
    QueryDns,
    ConnectDot,
    QueryDot,
    ConnectDoh,
    QueryDoh,
    Done,
}

enum PerfSession {
    None,
    Tcp(Do53TcpConn),
    Dot(DotSession),
    Doh(DohSession),
}

/// One client's measurement as an event-driven state machine. Owns its
/// RNG stream (`mix_seed(salt, ci)`, the same stream the per-client loop
/// used) and installs it in the network for every step. The stream sits
/// beside the state the step mutates, so [`Network::with_rng`] can lend
/// the one while the step borrows the other.
struct PerfMachine {
    rng: SmallRng,
    state: PerfState,
}

/// Everything a [`PerfMachine`] step reads and writes besides its RNG.
struct PerfState {
    /// Dense per-shard heap address.
    index: u64,
    /// Global client index (merge key).
    ci: usize,
    client: ClientInfo,
    setup: Arc<PerfSetup>,
    ids: PerfMetricIds,
    serial: u64,
    qdone: u32,
    phase: PerfPhase,
    session: PerfSession,
    /// Kept alive through the DoT query phase, mirroring the loop's
    /// client scope (session-ticket cache lifetime).
    dot_client: Option<DotClient>,
    doh_client: Option<DohClient>,
    dns_samples: Vec<SimDuration>,
    dot_samples: Vec<SimDuration>,
    doh_samples: Vec<SimDuration>,
    /// `Some(None)` = path broke, client skipped.
    result: Option<Option<PerfObservation>>,
}

impl PerfMachine {
    fn new(
        index: u64,
        ci: usize,
        client: ClientInfo,
        setup: Arc<PerfSetup>,
        ids: PerfMetricIds,
        rng_seed: u64,
    ) -> PerfMachine {
        let queries = setup.queries as usize;
        PerfMachine {
            rng: SmallRng::seed_from_u64(rng_seed),
            state: PerfState {
                index,
                ci,
                client,
                setup,
                ids,
                serial: 0,
                qdone: 0,
                phase: PerfPhase::ConnectDns,
                session: PerfSession::None,
                dot_client: None,
                doh_client: None,
                dns_samples: Vec::with_capacity(queries),
                dot_samples: Vec::with_capacity(queries),
                doh_samples: Vec::with_capacity(queries),
                result: None,
            },
        }
    }

    /// Schedule the machine's first step.
    fn start(&mut self, net: &mut Network) {
        let state = &mut self.state;
        state.serial = state.ci as u64 * 3 * state.setup.queries as u64;
        net.schedule_after(
            SimDuration::ZERO,
            state.index,
            SchedEvent::Timer { token: 0 },
        );
    }
}

impl PerfState {
    fn next_query(&mut self) -> dnswire::Message {
        self.serial += 1;
        let serial = self.serial;
        builder::query(
            (serial % 65_536) as u16,
            &format!("p{serial}.{}", self.setup.apex),
            RecordType::A,
        )
        .expect("static name shape")
    }

    /// The path broke mid-sequence: the loop's `.ok()?` skip.
    fn skip(&mut self) {
        self.phase = PerfPhase::Done;
        self.result = Some(None);
    }

    /// Execute one step. Returns `false` once the machine is done.
    fn step(&mut self, net: &mut Network) -> bool {
        let setup = Arc::clone(&self.setup);
        match self.phase {
            PerfPhase::ConnectDns => {
                match Do53TcpConn::connect(
                    net,
                    self.client.ip,
                    setup.resolver,
                    SimDuration::from_secs(30),
                ) {
                    Ok(mut tcp) => {
                        tcp.take_elapsed(); // setup excluded: reuse is the steady state
                        self.session = PerfSession::Tcp(tcp);
                        self.phase = PerfPhase::QueryDns;
                    }
                    Err(_) => self.skip(),
                }
            }
            PerfPhase::QueryDns => {
                let q = self.next_query();
                let PerfSession::Tcp(tcp) = &mut self.session else {
                    unreachable!("QueryDns holds a TCP session");
                };
                match tcp.query(net, &q) {
                    Ok(reply) => {
                        let sample =
                            reply.latency + setup.tunnel.sample_overhead(net, self.client.ip);
                        net.metrics_mut().observe(self.ids.dns, sample.as_micros());
                        self.dns_samples.push(sample);
                        self.qdone += 1;
                        if self.qdone == setup.queries {
                            self.qdone = 0;
                            self.phase = PerfPhase::ConnectDot;
                        }
                    }
                    Err(_) => self.skip(),
                }
            }
            PerfPhase::ConnectDot => {
                if let PerfSession::Tcp(tcp) =
                    std::mem::replace(&mut self.session, PerfSession::None)
                {
                    tcp.close(net);
                }
                let mut dot = DotClient::new(TlsClientConfig::opportunistic(
                    setup.store.clone(),
                    setup.now,
                ));
                match dot.session(net, self.client.ip, setup.resolver, None) {
                    Ok(mut session) => {
                        session.take_elapsed();
                        self.session = PerfSession::Dot(session);
                        self.dot_client = Some(dot);
                        self.phase = PerfPhase::QueryDot;
                    }
                    Err(_) => self.skip(),
                }
            }
            PerfPhase::QueryDot => {
                let q = self.next_query();
                let PerfSession::Dot(session) = &mut self.session else {
                    unreachable!("QueryDot holds a DoT session");
                };
                match session.query(net, &q) {
                    Ok(reply) => {
                        let sample =
                            reply.latency + setup.tunnel.sample_overhead(net, self.client.ip);
                        net.metrics_mut().observe(self.ids.dot, sample.as_micros());
                        self.dot_samples.push(sample);
                        self.qdone += 1;
                        if self.qdone == setup.queries {
                            self.qdone = 0;
                            self.phase = PerfPhase::ConnectDoh;
                        }
                    }
                    Err(_) => self.skip(),
                }
            }
            PerfPhase::ConnectDoh => {
                if let PerfSession::Dot(session) =
                    std::mem::replace(&mut self.session, PerfSession::None)
                {
                    session.close(net);
                }
                self.dot_client = None;
                let mut doh = DohClient::new(
                    TlsClientConfig::strict(setup.store.clone(), setup.now),
                    setup.doh_template.clone(),
                    DohMethod::Post,
                    Bootstrap::Do53 {
                        resolver: setup.bootstrap,
                    },
                );
                match doh.session(net, self.client.ip) {
                    Ok(mut session) => {
                        session.take_elapsed();
                        self.session = PerfSession::Doh(session);
                        self.doh_client = Some(doh);
                        self.phase = PerfPhase::QueryDoh;
                    }
                    Err(_) => self.skip(),
                }
            }
            PerfPhase::QueryDoh => {
                let q = self.next_query();
                let PerfSession::Doh(session) = &mut self.session else {
                    unreachable!("QueryDoh holds a DoH session");
                };
                match session.query(net, &q) {
                    Ok(reply) => {
                        let sample =
                            reply.latency + setup.tunnel.sample_overhead(net, self.client.ip);
                        net.metrics_mut().observe(self.ids.doh, sample.as_micros());
                        self.doh_samples.push(sample);
                        self.qdone += 1;
                        if self.qdone == setup.queries {
                            if let PerfSession::Doh(session) =
                                std::mem::replace(&mut self.session, PerfSession::None)
                            {
                                session.close(net);
                            }
                            self.doh_client = None;
                            self.phase = PerfPhase::Done;
                            self.result = Some(Some(PerfObservation {
                                client: self.client.ip,
                                country: self.client.country.as_str().to_string(),
                                dns_ms: median_ms(&mut self.dns_samples),
                                dot_ms: median_ms(&mut self.dot_samples),
                                doh_ms: median_ms(&mut self.doh_samples),
                            }));
                        }
                    }
                    Err(_) => self.skip(),
                }
            }
            PerfPhase::Done => {}
        }
        !matches!(self.phase, PerfPhase::Done)
    }
}

impl EventMachine for PerfMachine {
    fn on_event(&mut self, net: &mut Network, _fired: Fired) {
        let state = &mut self.state;
        if matches!(state.phase, PerfPhase::Done) {
            return;
        }
        // The machine's own stream stands in for the shard RNG for the
        // whole step, so the client's draw sequence is continuous across
        // steps — identical to the reseed-once sequential loop.
        let before = net.charged();
        let live = net.with_rng(&mut self.rng, |net| state.step(net));
        let consumed = net.charged() - before;
        if live {
            // Query steps model response deliveries; connects are timers.
            let event = match state.phase {
                PerfPhase::QueryDns | PerfPhase::QueryDot | PerfPhase::QueryDoh => {
                    SchedEvent::Deliver { token: state.qdone }
                }
                _ => SchedEvent::Timer { token: 0 },
            };
            net.schedule_after(consumed, state.index, event);
        }
    }
}

/// One shard's output: per-client observations tagged with the global
/// client index the parent merges on (`None` = client skipped).
type PerfShardOut = Vec<(usize, Option<PerfObservation>)>;

/// Run the reused-connection performance test against Cloudflare (the
/// paper's Figure 9/10 subject): `queries` exchanges per protocol per
/// client, medians of observed `T_R` (tunnel + on-path time).
///
/// The clients are distributed over `shards` workers (client `i` → shard
/// `i mod shards`). Per-client randomness and serials are keyed on the
/// client index, so the report is identical for every shard count.
pub fn performance_test_sharded(
    world: &mut World,
    clients: &[ClientInfo],
    tunnel: Tunnel,
    queries: u32,
    shards: usize,
) -> PerformanceReport {
    let setup = Arc::new(PerfSetup {
        resolver: worldgen::providers::anchors::CLOUDFLARE_PRIMARY,
        doh_template: world
            .deployment
            .doh_services
            .iter()
            .find(|s| s.hostname == "cloudflare-dns.com")
            .expect("cloudflare DoH deployed")
            .template
            .clone(),
        store: world.trust_store.clone(),
        now: world.epoch(),
        apex: world
            .probe
            .apex
            .to_string()
            .trim_end_matches('.')
            .to_string(),
        bootstrap: world.bootstrap_resolver,
        tunnel,
        queries,
    });
    let shards = shards.max(1);
    let salt = mix_seed(world.net.base_seed(), 0x7065_7266_7465_7374); // "perftest"

    let run_shard = |worker: &mut Network, shard: usize| -> PerfShardOut {
        let ids = PerfMetricIds::register(worker.metrics_mut());
        // Dense machine index = position in this shard's client slice;
        // the global index rides inside each machine for the merge key.
        let mut machines: Vec<PerfMachine> = (shard..clients.len())
            .step_by(shards)
            .enumerate()
            .map(|(mi, ci)| {
                PerfMachine::new(
                    mi as u64,
                    ci,
                    clients[ci].clone(),
                    Arc::clone(&setup),
                    ids,
                    mix_seed(salt, ci as u64),
                )
            })
            .collect();
        for m in machines.iter_mut() {
            m.start(worker);
        }
        run_machines(worker, &mut machines);
        machines
            .into_iter()
            .map(|m| (m.state.ci, m.state.result.unwrap_or(None)))
            .collect()
    };

    let mut tagged: Vec<(usize, Option<PerfObservation>)> = Vec::with_capacity(clients.len());
    for found in world.net.run_shards(shards, run_shard) {
        tagged.extend(found);
    }
    tagged.sort_by_key(|&(ci, _)| ci);
    let mut observations = Vec::new();
    let mut skipped = 0usize;
    for (_, obs) in tagged {
        match obs {
            Some(o) => observations.push(o),
            None => skipped += 1,
        }
    }
    if skipped > 0 {
        world
            .net
            .metrics_mut()
            .count("stage.perf.skipped", Labels::empty(), skipped as u64);
    }

    // --- Aggregation ------------------------------------------------------
    let mut by_country: BTreeMap<String, Vec<&PerfObservation>> = BTreeMap::new();
    for obs in &observations {
        by_country.entry(obs.country.clone()).or_default().push(obs);
    }
    let mut per_country: Vec<CountryPerformance> = by_country
        .into_iter()
        .map(|(country, group)| {
            let mut dot: Vec<f64> = group.iter().map(|o| o.dot_overhead()).collect();
            let mut doh: Vec<f64> = group.iter().map(|o| o.doh_overhead()).collect();
            dot.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            doh.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            let med = |v: &[f64]| v[v.len() / 2];
            let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            CountryPerformance {
                country,
                clients: group.len(),
                dot_mean_ms: avg(&dot),
                dot_median_ms: med(&dot),
                doh_mean_ms: avg(&doh),
                doh_median_ms: med(&doh),
            }
        })
        .collect();
    per_country.sort_by_key(|c| std::cmp::Reverse(c.clients));

    let mut dot_all: Vec<SimDuration> = Vec::new();
    let mut dns_all: Vec<SimDuration> = Vec::new();
    let mut doh_all: Vec<SimDuration> = Vec::new();
    for o in &observations {
        dns_all.push(SimDuration::from_millis_f64(o.dns_ms));
        dot_all.push(SimDuration::from_millis_f64(o.dot_ms));
        doh_all.push(SimDuration::from_millis_f64(o.doh_ms));
    }
    let global_dot = (
        mean(&dot_all).as_millis_f64() - mean(&dns_all).as_millis_f64(),
        overhead_ms(median(&mut dot_all.clone()), median(&mut dns_all.clone())),
    );
    let global_doh = (
        mean(&doh_all).as_millis_f64() - mean(&dns_all).as_millis_f64(),
        overhead_ms(median(&mut doh_all.clone()), median(&mut dns_all.clone())),
    );

    PerformanceReport {
        observations,
        per_country,
        global_dot,
        global_doh,
        skipped,
    }
}

/// One row of Table 7: fresh-connection medians from a controlled vantage.
#[derive(Debug, Clone)]
pub struct FreshConnectionRow {
    /// Vantage label (country code).
    pub vantage: String,
    /// Median clear-text DNS/TCP time, seconds.
    pub dns_s: f64,
    /// Median DoT time, seconds.
    pub dot_s: f64,
    /// Median DoH time, seconds.
    pub doh_s: f64,
}

impl FreshConnectionRow {
    /// DoT overhead, ms.
    pub fn dot_overhead_ms(&self) -> f64 {
        (self.dot_s - self.dns_s) * 1000.0
    }

    /// DoH overhead, ms.
    pub fn doh_overhead_ms(&self) -> f64 {
        (self.doh_s - self.dns_s) * 1000.0
    }
}

/// Table 7: from four controlled vantages (US / NL / AU / HK), measure
/// `iterations` queries per protocol against the self-built resolver with
/// **no** connection or session reuse.
pub fn fresh_connection_test(world: &mut World, iterations: u32) -> Vec<FreshConnectionRow> {
    let vantages: [(&str, Ipv4Addr); 4] = [
        ("US", Ipv4Addr::new(198, 51, 100, 20)),
        ("NL", Ipv4Addr::new(198, 51, 100, 21)),
        ("AU", Ipv4Addr::new(198, 51, 100, 22)),
        ("HK", Ipv4Addr::new(198, 51, 100, 23)),
    ];
    for (cc, ip) in &vantages {
        world.net.add_host(
            HostMeta::new(*ip)
                .country(cc)
                .asn(65_000)
                .label("controlled vantage"),
        );
    }
    let resolver = world.self_built.addr;
    let auth_name = world.self_built.auth_name.clone();
    let doh_template = world.self_built.doh_template.clone();
    let store = world.trust_store.clone();
    let now = world.epoch();
    let apex = world.probe.apex.to_string();
    let apex = apex.trim_end_matches('.').to_string();
    let mut serial = 0u64;

    let mut rows = Vec::new();
    for (cc, src) in vantages {
        let mut dns = Vec::new();
        let mut dot_t = Vec::new();
        let mut doh_t = Vec::new();
        for _ in 0..iterations {
            serial += 1;
            let q = builder::query(
                (serial % 65_536) as u16,
                &format!("f{serial}.{apex}"),
                RecordType::A,
            )
            .expect("static name shape");
            // Fresh TCP.
            if let Ok(reply) = doe_protocols::do53::do53_tcp_query(
                &mut world.net,
                src,
                resolver,
                &q,
                SimDuration::from_secs(30),
            ) {
                dns.push(reply.latency);
            }
            // Fresh DoT (new client each time: no ticket, no pool).
            let mut dot = DotClient::new(TlsClientConfig::strict(store.clone(), now));
            if let Ok(reply) = dot.query_once(&mut world.net, src, resolver, Some(&auth_name), &q) {
                dot_t.push(reply.latency);
            }
            // Fresh DoH.
            let mut doh = DohClient::new(
                TlsClientConfig::strict(store.clone(), now),
                doh_template.clone(),
                DohMethod::Post,
                Bootstrap::Static(resolver),
            );
            if let Ok(reply) = doh.query_once(&mut world.net, src, &q) {
                doh_t.push(reply.latency);
            }
        }
        rows.push(FreshConnectionRow {
            vantage: cc.to_string(),
            dns_s: median(&mut dns).as_secs_f64(),
            dot_s: median(&mut dot_t).as_secs_f64(),
            doh_s: median(&mut doh_t).as_secs_f64(),
        });
    }
    rows
}

/// Convenience: tunnel endpoints used by the study (measurement client and
/// super proxy in a US datacenter).
pub fn standard_tunnel(net: &mut Network) -> Tunnel {
    let mc = Ipv4Addr::new(198, 51, 100, 40);
    let sp = Ipv4Addr::new(198, 51, 100, 41);
    if !net.has_host(mc) {
        net.add_host(
            HostMeta::new(mc)
                .country("US")
                .asn(65_001)
                .label("measurement client"),
        );
    }
    if !net.has_host(sp) {
        net.add_host(
            HostMeta::new(sp)
                .country("US")
                .asn(65_001)
                .label("super proxy"),
        );
    }
    Tunnel {
        measurement_client: mc,
        super_proxy: sp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use worldgen::{Affliction, WorldConfig};

    #[test]
    fn reused_connection_overheads_are_small() {
        let mut world = worldgen::World::build(WorldConfig::test_scale(31));
        let tunnel = standard_tunnel(&mut world.net);
        // Clean US/DE clients only, for a crisp expectation.
        let clients: Vec<_> = world
            .proxyrack
            .clients
            .iter()
            .filter(|c| {
                c.affliction == Affliction::None
                    && ["US", "DE", "GB", "FR"].contains(&c.country.as_str())
            })
            .take(30)
            .cloned()
            .collect();
        assert!(clients.len() >= 10);
        let report = performance_test_sharded(&mut world, &clients, tunnel, 20, 1);
        assert!(report.observations.len() >= 10);
        // Finding 3.1: single-digit-to-low-tens ms overheads.
        let (dot_mean, dot_median) = report.global_dot;
        let (doh_mean, doh_median) = report.global_doh;
        for (label, v) in [
            ("dot mean", dot_mean),
            ("dot median", dot_median),
            ("doh mean", doh_mean),
            ("doh median", doh_median),
        ] {
            assert!((-10.0..35.0).contains(&v), "{label} = {v}ms");
        }
    }

    #[test]
    fn india_doh_is_faster_than_clear_text() {
        let mut world = worldgen::World::build(WorldConfig::test_scale(37));
        let tunnel = standard_tunnel(&mut world.net);
        let clients: Vec<_> = world
            .proxyrack
            .clients
            .iter()
            .filter(|c| c.country.as_str() == "IN" && c.affliction == Affliction::None)
            .take(12)
            .cloned()
            .collect();
        assert!(clients.len() >= 5, "need IN clients");
        let report = performance_test_sharded(&mut world, &clients, tunnel, 20, 1);
        let india = report
            .per_country
            .iter()
            .find(|c| c.country == "IN")
            .expect("india row");
        // Finding 3.2: ~99ms average improvement for DoH in India.
        assert!(
            india.doh_mean_ms < -50.0,
            "IN DoH overhead {}ms, expected strongly negative",
            india.doh_mean_ms
        );
        // DoT roughly par (port 853 shaped nearly as hard as 53).
        assert!(
            india.dot_mean_ms.abs() < 40.0,
            "IN DoT {}",
            india.dot_mean_ms
        );
    }

    #[test]
    fn fresh_connections_cost_grows_with_distance() {
        let mut world = worldgen::World::build(WorldConfig::test_scale(41));
        let rows = fresh_connection_test(&mut world, 60);
        assert_eq!(rows.len(), 4);
        let by: BTreeMap<&str, &FreshConnectionRow> =
            rows.iter().map(|r| (r.vantage.as_str(), r)).collect();
        // Table 7 shape: overhead ordering US < NL ≲ AU < HK-ish; at
        // minimum the farthest vantage pays much more than the nearest.
        let us = by["US"].dot_overhead_ms();
        let hk = by["HK"].dot_overhead_ms();
        assert!(us > 10.0, "US overhead {us}ms");
        assert!(hk > 2.0 * us, "US {us}ms vs HK {hk}ms");
        // DoH ≈ DoT within jitter (DoH adds HTTP bytes, medians wobble).
        for r in &rows {
            assert!(
                r.doh_overhead_ms() > r.dot_overhead_ms() - 30.0,
                "{}: doh {} dot {}",
                r.vantage,
                r.doh_overhead_ms(),
                r.dot_overhead_ms()
            );
        }
    }
}
