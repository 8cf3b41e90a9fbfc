//! The reachability test (Figure 7): per vantage point, query each large
//! resolver over clear-text DNS (TCP), Opportunistic DoT and Strict DoH;
//! classify outcomes; investigate failures.

use dnswire::{builder, Rcode, RecordType};
use doe_protocols::dot::DotClient;
use doe_protocols::{Bootstrap, DohClient, DohMethod, QueryError, QueryReply};
use httpsim::{Request, Response, UriTemplate};
use netsim::sched::{run_machines, EventMachine, Fired, SchedEvent};
use netsim::telemetry::{HistogramId, Labels};
use netsim::{mix_seed, Network, ProbeOutcome, SimDuration};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;
use tlssim::{CertError, DateStamp, TlsClientConfig, TlsError, TrustStore};
use worldgen::providers::anchors;
use worldgen::{ClientInfo, World};

/// Which transport a result belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TransportKind {
    /// Clear-text DNS (over TCP through the proxy platforms).
    Dns,
    /// DNS over TLS, Opportunistic profile.
    Dot,
    /// DNS over HTTPS, Strict profile.
    Doh,
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportKind::Dns => write!(f, "DNS"),
            TransportKind::Dot => write!(f, "DoT"),
            TransportKind::Doh => write!(f, "DoH"),
        }
    }
}

/// Table 4's outcome classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A NOERROR response whose answer matches authoritative truth.
    Correct,
    /// SERVFAIL, NXDOMAIN, zero answers, or a wrong answer.
    Incorrect,
    /// No DNS response at all.
    Failed,
}

/// Tallies per (resolver, transport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Correct responses.
    pub correct: usize,
    /// Incorrect responses.
    pub incorrect: usize,
    /// Failures.
    pub failed: usize,
}

impl Counts {
    fn add(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Correct => self.correct += 1,
            Outcome::Incorrect => self.incorrect += 1,
            Outcome::Failed => self.failed += 1,
        }
    }

    /// Total classified.
    pub fn total(&self) -> usize {
        self.correct + self.incorrect + self.failed
    }

    /// Fraction helpers for reporting.
    pub fn rates(&self) -> (f64, f64, f64) {
        let t = self.total().max(1) as f64;
        (
            self.correct as f64 / t,
            self.incorrect as f64 / t,
            self.failed as f64 / t,
        )
    }
}

/// One resolver's test targets.
#[derive(Debug, Clone)]
pub struct ResolverTargets {
    /// Display name.
    pub name: String,
    /// Clear-text address.
    pub dns: Option<Ipv4Addr>,
    /// DoT address (None = service not announced, Google's case).
    pub dot: Option<Ipv4Addr>,
    /// DoH locator.
    pub doh: Option<UriTemplate>,
}

/// The standard four targets of Figure 7.
pub fn standard_targets(world: &World) -> Vec<ResolverTargets> {
    let template_of = |host: &str| {
        world
            .deployment
            .doh_services
            .iter()
            .find(|s| s.hostname == host)
            .map(|s| s.template.clone())
    };
    vec![
        ResolverTargets {
            name: "Cloudflare".into(),
            dns: Some(anchors::CLOUDFLARE_PRIMARY),
            dot: Some(anchors::CLOUDFLARE_PRIMARY),
            doh: template_of("cloudflare-dns.com"),
        },
        ResolverTargets {
            name: "Google".into(),
            dns: Some(anchors::GOOGLE_PRIMARY),
            dot: None, // not announced at experiment time
            doh: template_of("dns.google.com"),
        },
        ResolverTargets {
            name: "Quad9".into(),
            dns: Some(anchors::QUAD9_PRIMARY),
            dot: Some(anchors::QUAD9_PRIMARY),
            doh: template_of("dns.quad9.net"),
        },
        ResolverTargets {
            name: "Self-built".into(),
            dns: Some(world.self_built.addr),
            dot: Some(world.self_built.addr),
            doh: Some(world.self_built.doh_template.clone()),
        },
    ]
}

/// An intercepted client (Table 6 rows).
#[derive(Debug, Clone)]
pub struct InterceptionFinding {
    /// Client address (reported as /24 in the paper's ethics style).
    pub client: Ipv4Addr,
    /// Client country.
    pub country: String,
    /// Client AS.
    pub asn: u32,
    /// CA common name on the re-signed certificate.
    pub ca_cn: String,
    /// DoT (853) intercepted.
    pub port_853: bool,
    /// DoH (443) intercepted.
    pub port_443: bool,
}

/// Forensics on a client that failed Cloudflare DoT (Table 5).
#[derive(Debug, Clone)]
pub struct ForensicFinding {
    /// The failing client.
    pub client: Ipv4Addr,
    /// Client AS.
    pub asn: u32,
    /// Ports answering on 1.1.1.1 as seen from this client.
    pub open_ports: Vec<u16>,
    /// `<title>` of the webpage served at 1.1.1.1:80, if any.
    pub page_title: Option<String>,
    /// Whether the page carries coin-mining script (the hijacked
    /// MikroTik routers of §4.2).
    pub coinminer: bool,
}

/// The full reachability report.
#[derive(Debug, Clone)]
pub struct ReachabilityReport {
    /// Counts per resolver name per transport.
    pub matrix: BTreeMap<String, BTreeMap<TransportKind, Counts>>,
    /// Clients tested.
    pub clients_tested: usize,
    /// Intercepted clients discovered.
    pub interceptions: Vec<InterceptionFinding>,
    /// Forensic findings on Cloudflare-DoT failures.
    pub forensics: Vec<ForensicFinding>,
}

impl ReachabilityReport {
    /// Table 5's histogram: how many failing clients had each port open.
    pub fn port_histogram(&self) -> (BTreeMap<u16, usize>, usize) {
        let mut hist: BTreeMap<u16, usize> = BTreeMap::new();
        let mut none = 0usize;
        for f in &self.forensics {
            if f.open_ports.is_empty() {
                none += 1;
            }
            for &p in &f.open_ports {
                *hist.entry(p).or_default() += 1;
            }
        }
        (hist, none)
    }

    /// Counts for one cell.
    pub fn cell(&self, resolver: &str, transport: TransportKind) -> Counts {
        self.matrix
            .get(resolver)
            .and_then(|m| m.get(&transport))
            .copied()
            .unwrap_or_default()
    }
}

/// The forensic probe set of Figure 7.
pub const FORENSIC_PORTS: [u16; 10] = [22, 23, 53, 67, 80, 123, 139, 161, 179, 443];

fn classify(result: &Result<QueryReply, QueryError>, expected: Ipv4Addr) -> Outcome {
    let Ok(reply) = result else {
        return Outcome::Failed;
    };
    let view = reply.view();
    if view.rcode() == Rcode::NoError && view.first_a_answer() == Some(expected) {
        Outcome::Correct
    } else {
        Outcome::Incorrect
    }
}

fn fetch_title(net: &mut Network, src: Ipv4Addr, dst: Ipv4Addr) -> (Option<String>, bool) {
    let Ok(mut conn) = net.connect_with_timeout(src, dst, 80, SimDuration::from_secs(5)) else {
        return (None, false);
    };
    let raw = match conn.request(net, &Request::get("/").encode()) {
        Ok(r) => r,
        Err(_) => return (None, false),
    };
    conn.close(net);
    let Ok(resp) = Response::decode(&raw) else {
        return (None, false);
    };
    let body = String::from_utf8_lossy(&resp.body);
    let title = body
        .split("<title>")
        .nth(1)
        .and_then(|rest| rest.split("</title>").next())
        .map(str::to_string);
    let miner = body.contains("coinhive") || body.contains("CoinHive");
    (title, miner)
}

/// Everything one client's test run produced, keyed for the merge.
struct ClientFindings {
    /// `(target name, transport, outcome)` cells in test order.
    cells: Vec<(String, TransportKind, Outcome)>,
    interception: Option<InterceptionFinding>,
    forensic: Option<ForensicFinding>,
}

/// Immutable per-run parameters shared by every client test.
struct ReachSetup {
    targets: Vec<ResolverTargets>,
    expected: Ipv4Addr,
    apex: String,
    store: TrustStore,
    now: DateStamp,
    bootstrap: Ipv4Addr,
    /// Resolver whose DoT failures trigger the forensic investigation.
    forensics_on: String,
}

/// One transport slot of a target's test sequence.
#[derive(Clone, Copy)]
enum ReachSlot {
    Dns(Ipv4Addr),
    Dot(Ipv4Addr),
    Doh,
}

impl ReachSetup {
    /// Queries one client issues — fixes each client's serial-number base
    /// so query names don't depend on which shard runs it.
    fn serials_per_client(&self) -> u64 {
        self.steps().len() as u64
    }

    /// The flat `(target, slot)` sequence every client walks, one step
    /// per scheduler event, in the same order the sequential loop used.
    fn steps(&self) -> Vec<(usize, ReachSlot)> {
        let mut steps = Vec::new();
        for (ti, target) in self.targets.iter().enumerate() {
            if let Some(addr) = target.dns {
                steps.push((ti, ReachSlot::Dns(addr)));
            }
            if let Some(addr) = target.dot {
                steps.push((ti, ReachSlot::Dot(addr)));
            }
            if target.doh.is_some() {
                steps.push((ti, ReachSlot::Doh));
            }
        }
        steps
    }
}

fn note_interception<'a>(
    interception: &'a mut Option<InterceptionFinding>,
    client: &ClientInfo,
    ca_cn: &str,
) -> &'a mut InterceptionFinding {
    interception.get_or_insert_with(|| InterceptionFinding {
        client: client.ip,
        country: client.country.as_str().to_string(),
        asn: client.asn.0,
        ca_cn: ca_cn.to_string(),
        port_853: false,
        port_443: false,
    })
}

/// One client's reachability test as an event-driven state machine: one
/// `(target, transport)` probe per fired event, then an optional forensic
/// step. The step order, serials and per-client RNG stream match the old
/// sequential loop exactly, so findings are bit-identical. The stream
/// sits beside the state the steps mutate, so [`Network::with_rng`] can
/// lend the one while a step borrows the other.
struct ReachMachine {
    rng: SmallRng,
    state: ReachState,
}

/// Everything a [`ReachMachine`] step reads and writes besides its RNG.
struct ReachState {
    /// Dense per-shard heap address.
    index: u64,
    /// Global client index (merge key).
    ci: usize,
    client: ClientInfo,
    setup: Arc<ReachSetup>,
    steps: Arc<Vec<(usize, ReachSlot)>>,
    /// Next step to run.
    pos: usize,
    serial: u64,
    /// Virtual time this client's own operations consumed, accumulated
    /// across steps — equals the old whole-client `Span` measurement.
    spent_us: u64,
    client_us: HistogramId,
    cells: Vec<(String, TransportKind, Outcome)>,
    interception: Option<InterceptionFinding>,
    forensics_due: bool,
    forensic: Option<ForensicFinding>,
    done: bool,
}

impl ReachMachine {
    #[allow(clippy::too_many_arguments)]
    fn new(
        index: u64,
        ci: usize,
        client: ClientInfo,
        setup: Arc<ReachSetup>,
        steps: Arc<Vec<(usize, ReachSlot)>>,
        client_us: HistogramId,
        rng_seed: u64,
        serial_base: u64,
    ) -> ReachMachine {
        ReachMachine {
            rng: SmallRng::seed_from_u64(rng_seed),
            state: ReachState {
                index,
                ci,
                client,
                setup,
                steps,
                pos: 0,
                serial: serial_base,
                spent_us: 0,
                client_us,
                cells: Vec::new(),
                interception: None,
                forensics_due: false,
                forensic: None,
                done: false,
            },
        }
    }

    fn start(&mut self, net: &mut Network) {
        net.schedule_after(
            SimDuration::ZERO,
            self.state.index,
            SchedEvent::Timer { token: 0 },
        );
    }
}

impl ReachState {
    /// Run one `(target, slot)` probe — one arm of the old per-target loop.
    fn probe_step(&mut self, net: &mut Network, ti: usize, slot: ReachSlot) {
        let setup = Arc::clone(&self.setup);
        let target = &setup.targets[ti];
        let apex = &setup.apex;
        self.serial += 1;
        let serial = self.serial;
        match slot {
            ReachSlot::Dns(dns_addr) => {
                let qname = format!("d{serial}.{apex}");
                let result = builder::query((serial % 65_536) as u16, &qname, RecordType::A)
                    .map_err(QueryError::Wire)
                    .and_then(|q| {
                        doe_protocols::do53::do53_tcp_query(
                            net,
                            self.client.ip,
                            dns_addr,
                            &q,
                            SimDuration::from_secs(30),
                        )
                    });
                self.cells.push((
                    target.name.clone(),
                    TransportKind::Dns,
                    classify(&result, setup.expected),
                ));
            }
            ReachSlot::Dot(dot_addr) => {
                let qname = format!("t{serial}.{apex}");
                let mut dot = DotClient::new(TlsClientConfig::opportunistic(
                    setup.store.clone(),
                    setup.now,
                ));
                let result = builder::query((serial % 65_536) as u16, &qname, RecordType::A)
                    .map_err(QueryError::Wire)
                    .and_then(|q| dot.query_once(net, self.client.ip, dot_addr, None, &q));
                // Interception: lookup succeeded, authentication failed.
                if let Ok(reply) = &result {
                    if let Some(Err(CertError::UntrustedCa { ca_cn })) = &reply.transport.verify {
                        note_interception(&mut self.interception, &self.client, ca_cn).port_853 =
                            true;
                    }
                }
                let outcome = classify(&result, setup.expected);
                if target.name == setup.forensics_on && outcome == Outcome::Failed {
                    self.forensics_due = true;
                }
                self.cells
                    .push((target.name.clone(), TransportKind::Dot, outcome));
            }
            ReachSlot::Doh => {
                let template = target
                    .doh
                    .as_ref()
                    .expect("slot exists only with a template");
                let qname = format!("h{serial}.{apex}");
                let mut doh = DohClient::new(
                    TlsClientConfig::strict(setup.store.clone(), setup.now),
                    template.clone(),
                    DohMethod::Get,
                    Bootstrap::Do53 {
                        resolver: setup.bootstrap,
                    },
                );
                let result = builder::query((serial % 65_536) as u16, &qname, RecordType::A)
                    .map_err(QueryError::Wire)
                    .and_then(|q| doh.query_once(net, self.client.ip, &q));
                if let Err(QueryError::Tls(TlsError::Cert(CertError::UntrustedCa { ca_cn }))) =
                    &result
                {
                    note_interception(&mut self.interception, &self.client, ca_cn).port_443 = true;
                }
                self.cells.push((
                    target.name.clone(),
                    TransportKind::Doh,
                    classify(&result, setup.expected),
                ));
            }
        }
    }

    /// Failure forensics (Table 5), run as the machine's final step.
    fn forensic_step(&mut self, net: &mut Network) {
        let mut open_ports = Vec::new();
        for &port in &FORENSIC_PORTS {
            let (outcome, _) = net.syn_probe(self.client.ip, anchors::CLOUDFLARE_PRIMARY, port);
            if outcome == ProbeOutcome::Open {
                open_ports.push(port);
            }
        }
        let (page_title, coinminer) = fetch_title(net, self.client.ip, anchors::CLOUDFLARE_PRIMARY);
        self.forensic = Some(ForensicFinding {
            client: self.client.ip,
            asn: self.client.asn.0,
            open_ports,
            page_title,
            coinminer,
        });
    }

    fn into_findings(self) -> (usize, ClientFindings) {
        (
            self.ci,
            ClientFindings {
                cells: self.cells,
                interception: self.interception,
                forensic: self.forensic,
            },
        )
    }
}

impl EventMachine for ReachMachine {
    fn on_event(&mut self, net: &mut Network, _fired: Fired) {
        let state = &mut self.state;
        if state.done {
            return;
        }
        let before = net.charged();
        if let Some(&(ti, slot)) = state.steps.clone().get(state.pos) {
            state.pos += 1;
            net.with_rng(&mut self.rng, |net| state.probe_step(net, ti, slot));
            let consumed = net.charged() - before;
            state.spent_us += consumed.as_micros();
            let more_probes = state.pos < state.steps.len();
            if more_probes || state.forensics_due {
                let event = if more_probes {
                    SchedEvent::Deliver {
                        token: state.pos as u32,
                    }
                } else {
                    SchedEvent::Timer { token: 1 }
                };
                net.schedule_after(consumed, state.index, event);
                return;
            }
        } else {
            net.with_rng(&mut self.rng, |net| state.forensic_step(net));
            let consumed = net.charged() - before;
            state.spent_us += consumed.as_micros();
        }
        state.done = true;
        net.metrics_mut().observe(state.client_us, state.spent_us);
    }
}

/// Run the reachability test for `clients` against the standard targets,
/// with the clients distributed over `shards` workers (client `i` → shard
/// `i mod shards`).
///
/// `forensics_on` names the resolver whose DoT failures trigger the
/// port-probe/webpage investigation (the paper used Cloudflare because of
/// its known 1.1.1.1 conflicts and platform rate limits).
///
/// Each client's randomness and query serials are keyed on its index, so
/// the report is identical for every shard count.
pub fn reachability_test_sharded(
    world: &mut World,
    clients: &[ClientInfo],
    forensics_on: &str,
    shards: usize,
) -> ReachabilityReport {
    let setup = Arc::new(ReachSetup {
        targets: standard_targets(world),
        expected: world.probe.expected_a,
        apex: world
            .probe
            .apex
            .to_string()
            .trim_end_matches('.')
            .to_string(),
        store: world.trust_store.clone(),
        now: world.epoch(),
        bootstrap: world.bootstrap_resolver,
        forensics_on: forensics_on.to_string(),
    });
    let shards = shards.max(1);
    let steps = Arc::new(setup.steps());
    let spc = setup.serials_per_client();
    // Disjoint serial block per invocation: the global and censored pools
    // restart `ci` at 0, and the block offset keeps their query names
    // unique, as the paper's probes are (see `World::take_probe_serials`).
    let serial_base = world.take_probe_serials(clients.len() as u64 * spc);
    let salt = mix_seed(world.net.base_seed(), 0x7265_6163_6861_6269); // "reachabi"

    let run_shard = |worker: &mut Network, shard: usize| -> Vec<(usize, ClientFindings)> {
        let client_us = worker
            .metrics_mut()
            .histogram("stage.reach.client_us", Labels::empty());
        let mut machines: Vec<ReachMachine> = (shard..clients.len())
            .step_by(shards)
            .enumerate()
            .map(|(mi, ci)| {
                ReachMachine::new(
                    mi as u64,
                    ci,
                    clients[ci].clone(),
                    Arc::clone(&setup),
                    Arc::clone(&steps),
                    client_us,
                    mix_seed(salt, ci as u64),
                    serial_base + ci as u64 * spc,
                )
            })
            .collect();
        for m in machines.iter_mut() {
            m.start(worker);
        }
        run_machines(worker, &mut machines);
        machines
            .into_iter()
            .map(|m| m.state.into_findings())
            .collect()
    };

    let mut tagged: Vec<(usize, ClientFindings)> = Vec::with_capacity(clients.len());
    for found in world.net.run_shards(shards, run_shard) {
        tagged.extend(found);
    }
    tagged.sort_by_key(|&(ci, _)| ci);

    let mut matrix: BTreeMap<String, BTreeMap<TransportKind, Counts>> = BTreeMap::new();
    let mut interceptions: BTreeMap<Ipv4Addr, InterceptionFinding> = BTreeMap::new();
    let mut forensics = Vec::new();
    for (_, findings) in tagged {
        for (name, transport, outcome) in findings.cells {
            let outcome_label = match outcome {
                Outcome::Correct => "correct",
                Outcome::Incorrect => "incorrect",
                Outcome::Failed => "failed",
            };
            world.net.metrics_mut().count(
                "stage.reach.result",
                Labels::one("resolver", &name)
                    .with("transport", &transport.to_string())
                    .with("outcome", outcome_label),
                1,
            );
            matrix
                .entry(name)
                .or_default()
                .entry(transport)
                .or_default()
                .add(outcome);
        }
        if let Some(finding) = findings.interception {
            world
                .net
                .metrics_mut()
                .count("stage.reach.interceptions", Labels::empty(), 1);
            interceptions.entry(finding.client).or_insert(finding);
        }
        if let Some(finding) = findings.forensic {
            world
                .net
                .metrics_mut()
                .count("stage.reach.forensics", Labels::empty(), 1);
            forensics.push(finding);
        }
    }

    ReachabilityReport {
        matrix,
        clients_tested: clients.len(),
        interceptions: interceptions.into_values().collect(),
        forensics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use worldgen::{Affliction, WorldConfig};

    #[test]
    fn reachability_recovers_paper_shape_at_test_scale() {
        let mut world = worldgen::World::build(WorldConfig::test_scale(23));
        let clients = world.proxyrack.clients.clone();
        let report = reachability_test_sharded(&mut world, &clients, "Cloudflare", 1);
        let n = report.clients_tested as f64;

        // Finding 2.1 shapes: Cloudflare clear-text fails for ~16% of
        // clients, DoT for ~1%, DoH for well under 1%.
        let cf_dns = report.cell("Cloudflare", TransportKind::Dns);
        let cf_dot = report.cell("Cloudflare", TransportKind::Dot);
        let cf_doh = report.cell("Cloudflare", TransportKind::Doh);
        let dns_fail = cf_dns.failed as f64 / n;
        let dot_fail = cf_dot.failed as f64 / n;
        let doh_fail = cf_doh.failed as f64 / n;
        assert!((0.08..0.25).contains(&dns_fail), "CF DNS fail {dns_fail}");
        assert!(
            dot_fail < dns_fail / 4.0,
            "CF DoT fail {dot_fail} vs DNS {dns_fail}"
        );
        assert!(doh_fail < 0.02, "CF DoH fail {doh_fail}");
        assert!(dot_fail > doh_fail, "conflicts break DoT more than DoH");

        // Quad9 DoH: double-digit Incorrect rate (Finding 2.4).
        let q9_doh = report.cell("Quad9", TransportKind::Doh);
        let q9_incorrect = q9_doh.incorrect as f64 / n;
        assert!(
            (0.05..0.25).contains(&q9_incorrect),
            "Quad9 DoH incorrect {q9_incorrect}"
        );
        // Quad9 clear-text is nearly perfect (no prominent-address filters).
        let q9_dns = report.cell("Quad9", TransportKind::Dns);
        assert!(q9_dns.failed as f64 / n < 0.02);

        // Self-built resolver: >99% everywhere.
        for t in [TransportKind::Dns, TransportKind::Dot, TransportKind::Doh] {
            let c = report.cell("Self-built", t);
            assert!(c.correct as f64 / n > 0.97, "self-built {t}: {c:?}");
        }

        // Google DoT not tested (not announced).
        assert!(report
            .matrix
            .get("Google")
            .unwrap()
            .get(&TransportKind::Dot)
            .is_none());

        // Interceptions: every planted interceptor with 853 coverage is
        // discovered via opportunistic DoT, with its CA name.
        let planted_853 = clients
            .iter()
            .filter(|c| {
                matches!(
                    &c.affliction,
                    Affliction::Intercepted {
                        intercepts_853: true,
                        ..
                    }
                )
            })
            .count();
        let found_853 = report.interceptions.iter().filter(|i| i.port_853).count();
        assert_eq!(found_853, planted_853);
        assert!(report
            .interceptions
            .iter()
            .any(|i| i.ca_cn == "SonicWall Firewall DPI-SSL"));
        // 443-only devices appear with port_443 but not port_853.
        assert!(report
            .interceptions
            .iter()
            .any(|i| i.port_443 && !i.port_853));

        // Forensics: port histogram shows the device surface; some pages
        // identify routers; coin-mining detected on hijacked MikroTiks.
        let (hist, none) = report.port_histogram();
        assert!(none > 0, "some conflicted paths are pure blackholes");
        assert!(hist.get(&80).copied().unwrap_or(0) > 0, "{hist:?}");
        assert!(report.forensics.iter().any(|f| f
            .page_title
            .as_deref()
            .is_some_and(|t| t.contains("RouterOS"))));
        assert!(report.forensics.iter().any(|f| f.coinminer));
    }

    #[test]
    fn zhima_pool_shows_censorship() {
        let mut world = worldgen::World::build(WorldConfig::test_scale(29));
        let clients = world.zhima.clients.clone();
        // Subsample for speed: every 4th client.
        let sample: Vec<_> = clients.iter().step_by(4).cloned().collect();
        let report = reachability_test_sharded(&mut world, &sample, "Cloudflare", 1);
        let n = report.clients_tested as f64;

        // Google DoH is ~fully blocked from CN (Finding 2.2).
        let g_doh = report.cell("Google", TransportKind::Doh);
        assert!(
            g_doh.failed as f64 / n > 0.99,
            "Google DoH fail rate {}",
            g_doh.failed as f64 / n
        );
        // Cloudflare DNS *and* DoT fail at ~15% (both ports filtered).
        let cf_dns_fail = report.cell("Cloudflare", TransportKind::Dns).failed as f64 / n;
        let cf_dot_fail = report.cell("Cloudflare", TransportKind::Dot).failed as f64 / n;
        assert!(
            (0.08..0.25).contains(&cf_dns_fail),
            "CN CF DNS {cf_dns_fail}"
        );
        assert!(
            (cf_dns_fail - cf_dot_fail).abs() < 0.04,
            "CN: DNS {cf_dns_fail} ≈ DoT {cf_dot_fail}"
        );
        // Cloudflare DoH still works from CN.
        let cf_doh_fail = report.cell("Cloudflare", TransportKind::Doh).failed as f64 / n;
        assert!(cf_doh_fail < 0.05, "CN CF DoH {cf_doh_fail}");
    }

    #[test]
    fn sequential_invocations_never_reuse_probe_names() {
        // The study runs the reachability test twice on one world (the
        // global pool, then the censored pool). Both restart the client
        // index at 0, so each invocation must draw its query serials from
        // its own block of `World::take_probe_serials`, sized by its pool.
        let mut world = worldgen::World::build(WorldConfig::test_scale(31));
        let pool_a: Vec<_> = world.proxyrack.clients.iter().take(6).cloned().collect();
        let pool_b: Vec<_> = world.zhima.clients.iter().take(3).cloned().collect();

        let start = world.take_probe_serials(0);
        reachability_test_sharded(&mut world, &pool_a, "Cloudflare", 1);
        let after_a = world.take_probe_serials(0);
        reachability_test_sharded(&mut world, &pool_b, "Cloudflare", 1);
        let after_b = world.take_probe_serials(0);

        let block_a = after_a - start;
        assert!(block_a > 0 && block_a.is_multiple_of(6), "block {block_a}");
        let per_client = block_a / 6;
        assert_eq!(
            after_b - after_a,
            3 * per_client,
            "the second invocation took its own block"
        );
    }
}
