//! Recursive resolvers: cache, upstream forwarding, synthetic resolution
//! delays and failure injection.
//!
//! Public resolvers in the simulation are [`RecursiveResolver`]s exposed
//! through whichever transports the provider supports. Resolution cost on a
//! cache miss is modelled two ways at once:
//!
//! * **Registered zones** (the study's probe domain) are fetched from
//!   their authoritative servers over the simulated network, so the
//!   resolver→nameserver leg costs real round trips, and the authoritative
//!   server's ground-truth log sees the resolver's address — not the
//!   client's (the §4.2 interception forensics rely on this).
//! * **Everything else** is answered synthetically (a deterministic
//!   address derived from the name) after a lognormal *resolution delay* —
//!   the "busy networks or faraway nameservers" of Finding 2.4. Quad9's
//!   back-end gets a heavy-tailed delay profile, which is what its DoH
//!   front-end's 2-second forwarding timeout turns into SERVFAILs.

use crate::responder::DnsResponder;
use dnswire::{builder, Message, Name, RData, Rcode, RecordType, ResourceRecord};
use netsim::{PeerInfo, ServiceCtx, SimDuration, SimTime};
use parking_lot::Mutex;
use rand::Rng;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Longest-suffix map from zone apex to its authoritative server address.
#[derive(Debug, Clone, Default)]
pub struct UpstreamMap {
    entries: Vec<(Name, Ipv4Addr)>,
}

impl UpstreamMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `apex` as served by the authoritative at `addr`.
    pub fn add(&mut self, apex: Name, addr: Ipv4Addr) {
        self.entries.push((apex, addr));
    }

    /// The authoritative server for `name`, if a registered apex contains
    /// it (longest apex wins).
    pub fn lookup(&self, name: &Name) -> Option<Ipv4Addr> {
        self.entries
            .iter()
            .filter(|(apex, _)| name.is_within(apex))
            .max_by_key(|(apex, _)| apex.label_count())
            .map(|(_, addr)| *addr)
    }

    /// Number of registered apexes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Shape of the synthetic resolution delay on cache misses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissDelay {
    /// Median delay, milliseconds.
    pub median_ms: f64,
    /// Lognormal sigma; larger means heavier tail.
    pub sigma: f64,
}

impl MissDelay {
    /// A healthy resolver: ~25 ms median, thin tail.
    pub fn healthy() -> Self {
        MissDelay {
            median_ms: 25.0,
            sigma: 0.7,
        }
    }

    /// A congested back-end: ~370 ms median, heavy tail — calibrated so
    /// roughly 13% of misses exceed 2 seconds (Finding 2.4).
    pub fn congested() -> Self {
        MissDelay {
            median_ms: 370.0,
            sigma: 1.5,
        }
    }

    /// Sample one delay.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        SimDuration::from_millis_f64(self.median_ms * (self.sigma * z).exp())
    }
}

/// Behaviour knobs for a recursive resolver.
#[derive(Debug, Clone)]
pub struct RecursiveConfig {
    /// Cache entries kept (FIFO eviction).
    pub cache_capacity: usize,
    /// Probability of answering SERVFAIL spuriously — the background
    /// "Incorrect" rates of Table 4 (fractions of a percent).
    pub servfail_rate: f64,
    /// Timeout for upstream authoritative queries.
    pub upstream_timeout: SimDuration,
    /// Resolution delay profile for synthetic (unregistered) names.
    pub miss_delay: MissDelay,
    /// Whether to answer unregistered names at all (a pure-authoritative
    /// forwarder refuses them).
    pub synthetic_fallback: bool,
    /// Extra delay applied to *every* cache miss, registered zones
    /// included — congested resolver infrastructure. Quad9's back-end gets
    /// [`MissDelay::congested`] here, which its DoH front-end's 2-second
    /// forwarding timeout converts into SERVFAILs (Finding 2.4).
    pub extra_delay: Option<MissDelay>,
    /// QNAME minimisation (RFC 7816): walk down the delegation label by
    /// label, sending only the next label to the upstream, instead of
    /// leaking the full query name at once. Table 8's `QM` column — a
    /// privacy win that costs extra upstream round trips on cold names.
    pub qname_minimisation: bool,
}

impl Default for RecursiveConfig {
    fn default() -> Self {
        RecursiveConfig {
            cache_capacity: 4096,
            servfail_rate: 0.0005,
            upstream_timeout: SimDuration::from_secs(5),
            miss_delay: MissDelay::healthy(),
            synthetic_fallback: true,
            extra_delay: None,
            qname_minimisation: false,
        }
    }
}

#[derive(Debug, Clone)]
struct CacheEntry {
    answers: Vec<ResourceRecord>,
    rcode: Rcode,
    expires: SimTime,
}

/// Counters exposed for reporting and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Queries handled.
    pub queries: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Upstream fetches attempted.
    pub upstream_queries: u64,
    /// Upstream fetches that failed.
    pub upstream_failures: u64,
}

/// A caching recursive resolver.
pub struct RecursiveResolver {
    upstreams: UpstreamMap,
    config: RecursiveConfig,
    cache: Mutex<CacheState>,
    stats: Mutex<ResolverStats>,
}

#[derive(Default)]
struct CacheState {
    map: HashMap<(Name, RecordType), CacheEntry>,
    order: std::collections::VecDeque<(Name, RecordType)>,
}

impl RecursiveResolver {
    /// Build a resolver.
    pub fn new(upstreams: UpstreamMap, config: RecursiveConfig) -> Self {
        RecursiveResolver {
            upstreams,
            config,
            cache: Mutex::new(CacheState::default()),
            stats: Mutex::new(ResolverStats::default()),
        }
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> ResolverStats {
        *self.stats.lock()
    }

    /// Entries currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().map.len()
    }

    /// Pin an answer in the cache that never expires.
    ///
    /// World construction uses this for names real deployments keep
    /// permanently hot — the DoH front-end hostnames every client
    /// bootstraps through. Without the pin, whether a bootstrap lookup
    /// hits or misses would depend on which worker happened to resolve
    /// the name first, making handler latency (and the telemetry
    /// snapshot) a function of the shard layout.
    pub fn prewarm(&self, name: &Name, rtype: RecordType, answers: Vec<ResourceRecord>) {
        self.cache_put(
            (name.clone(), rtype),
            CacheEntry {
                answers,
                rcode: Rcode::NoError,
                expires: SimTime::from_micros(u64::MAX),
            },
        );
    }

    fn cache_get(&self, key: &(Name, RecordType), now: SimTime) -> Option<CacheEntry> {
        // doe-lint: allow(D006) — hit/miss is shard-layout-invariant: every repeated
        // name is a permanent pin (`prewarm`), all other keys are per-target unique
        let cache = self.cache.lock();
        cache
            .map
            .get(key)
            .filter(|entry| entry.expires > now)
            .cloned()
    }

    fn cache_put(&self, key: (Name, RecordType), entry: CacheEntry) {
        // doe-lint: allow(D006) — fills use per-target-unique keys; the only repeated
        // names are permanent pins installed before any worker runs (`prewarm`)
        let mut cache = self.cache.lock();
        if cache.map.len() >= self.config.cache_capacity {
            if let Some(victim) = cache.order.pop_front() {
                cache.map.remove(&victim);
            }
        }
        if cache.map.insert(key.clone(), entry).is_none() {
            cache.order.push_back(key);
        }
    }

    /// The intermediate ancestor names a minimising resolver probes before
    /// sending the full query: every proper ancestor below the registered
    /// apex, shallowest first.
    fn minimisation_steps(&self, qname: &Name) -> Vec<Name> {
        // Find the deepest registered apex containing the name.
        let mut steps = Vec::new();
        let mut current = qname.parent();
        while let Some(name) = current {
            if self.upstreams.lookup(&name).is_none() {
                break;
            }
            if name.label_count() == 0 {
                break;
            }
            // Stop at the apex itself (nothing to hide there).
            if self.upstreams.lookup(&name).is_some() && name != *qname {
                steps.push(name.clone());
            }
            current = name.parent();
        }
        steps.reverse();
        steps
    }

    /// Deterministic synthetic address for a name — stable across the
    /// simulation so repeated queries validate.
    pub fn synthetic_address(name: &Name) -> Ipv4Addr {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for label in name.labels() {
            for &b in label {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_01b3);
            }
            h ^= 0xff;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        // Keep out of reserved space: 96.x.x.x - 111.x.x.x.
        let b = h.to_be_bytes();
        Ipv4Addr::new(96 + (b[0] & 0x0f), b[1], b[2], b[3].max(1))
    }
}

impl DnsResponder for RecursiveResolver {
    fn respond(&self, ctx: &mut ServiceCtx<'_>, _peer: PeerInfo, query: &Message) -> Message {
        let Some(question) = query.question() else {
            return builder::error_response(query, Rcode::FormErr);
        };
        let question = question.clone();
        self.stats.lock().queries += 1;

        // Spurious failure injection.
        let flake = ctx.network().rng().gen_bool(self.config.servfail_rate);
        if flake {
            return builder::error_response(query, Rcode::ServFail);
        }

        let key = (question.qname.clone(), question.qtype);
        let now = ctx.network().now();
        if let Some(entry) = self.cache_get(&key, now) {
            self.stats.lock().cache_hits += 1;
            return match entry.rcode {
                Rcode::NoError => builder::answer(query, entry.answers),
                rcode => builder::error_response(query, rcode),
            };
        }

        // Congested-infrastructure delay applies to every miss.
        if let Some(extra) = self.config.extra_delay {
            let d = {
                let rng = ctx.network().rng();
                extra.sample(rng)
            };
            ctx.charge(d);
        }

        // Registered zone: fetch from its authoritative server.
        if let Some(auth_addr) = self.upstreams.lookup(&question.qname) {
            self.stats.lock().upstream_queries += 1;
            let local = ctx.local_addr();
            // QNAME minimisation: probe each intermediate ancestor with an
            // NS query before revealing the full name (RFC 7816 §2).
            if self.config.qname_minimisation {
                if let Some(apex) = self
                    .upstreams
                    .lookup(&question.qname)
                    .map(|_| self.minimisation_steps(&question.qname))
                {
                    for step in apex {
                        let id = ctx.network().rng().gen();
                        let mut probe = Message::new(dnswire::Header::new_query(id));
                        probe
                            .questions
                            .push(dnswire::Question::new(step, RecordType::Ns));
                        if let Ok(bytes) = probe.encode() {
                            if let Ok(reply) = ctx.network().udp_query(
                                local,
                                auth_addr,
                                crate::DO53_PORT,
                                &bytes,
                                Some(self.config.upstream_timeout),
                            ) {
                                ctx.charge(reply.elapsed);
                            }
                        }
                    }
                }
            }
            let upstream_query = {
                let id = ctx.network().rng().gen();
                let mut q = Message::new(dnswire::Header::new_query(id));
                q.questions.push(question.clone());
                q
            };
            let bytes = match upstream_query.encode() {
                Ok(b) => b,
                Err(_) => return builder::error_response(query, Rcode::ServFail),
            };
            let timeout = self.config.upstream_timeout;
            match ctx
                .network()
                .udp_query(local, auth_addr, crate::DO53_PORT, &bytes, Some(timeout))
            {
                Ok(reply) => {
                    ctx.charge(reply.elapsed);
                    match Message::decode(&reply.bytes) {
                        Ok(upstream_resp) => {
                            let ttl = upstream_resp
                                .answers
                                .iter()
                                .map(|rr| rr.ttl)
                                .min()
                                .unwrap_or(60);
                            self.cache_put(
                                key,
                                CacheEntry {
                                    answers: upstream_resp.answers.clone(),
                                    rcode: upstream_resp.rcode(),
                                    expires: now + SimDuration::from_secs(ttl as u64),
                                },
                            );
                            let mut resp = match upstream_resp.rcode() {
                                Rcode::NoError => builder::answer(query, upstream_resp.answers),
                                rcode => builder::error_response(query, rcode),
                            };
                            resp.header.recursion_available = true;
                            resp
                        }
                        Err(_) => builder::error_response(query, Rcode::ServFail),
                    }
                }
                Err(e) => {
                    self.stats.lock().upstream_failures += 1;
                    ctx.charge(e.elapsed());
                    builder::error_response(query, Rcode::ServFail)
                }
            }
        } else if self.config.synthetic_fallback {
            // Unregistered name: synthesise after a resolution delay.
            let delay = {
                let rng = ctx.network().rng();
                self.config.miss_delay.sample(rng)
            };
            ctx.charge(delay);
            let answers = match question.qtype {
                RecordType::A => vec![ResourceRecord::new(
                    question.qname.clone(),
                    300,
                    RData::A(Self::synthetic_address(&question.qname)),
                )],
                _ => Vec::new(),
            };
            self.cache_put(
                key,
                CacheEntry {
                    answers: answers.clone(),
                    rcode: Rcode::NoError,
                    expires: now + SimDuration::from_secs(300),
                },
            );
            builder::answer(query, answers)
        } else {
            builder::error_response(query, Rcode::Refused)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::do53::{do53_udp_query, Do53UdpService};
    use crate::responder::AuthoritativeServer;
    use dnswire::zone::Zone;
    use netsim::{HostMeta, Network, NetworkConfig};
    use std::sync::Arc;

    fn build() -> (Network, Ipv4Addr, Ipv4Addr, crate::responder::QueryLog) {
        let mut net = Network::new(NetworkConfig::default(), 21);
        let client: Ipv4Addr = "198.51.100.2".parse().unwrap();
        let resolver: Ipv4Addr = "9.9.9.9".parse().unwrap();
        let auth: Ipv4Addr = "203.0.113.53".parse().unwrap();
        net.add_host(HostMeta::new(client).country("JP").asn(2516));
        net.add_host(HostMeta::new(resolver).country("US").asn(19281).anycast());
        net.add_host(HostMeta::new(auth).country("US").asn(64510));

        let apex = Name::parse("probe.dnsmeasure.example").unwrap();
        let mut zone = Zone::new(apex.clone());
        zone.add_record(
            &apex.prepend("*").unwrap(),
            60,
            RData::A("203.0.113.99".parse().unwrap()),
        );
        let (auth_server, log) = AuthoritativeServer::with_log(vec![zone]);
        net.bind_udp(
            auth,
            53,
            Arc::new(Do53UdpService::new(Arc::new(auth_server))),
        );

        let mut upstreams = UpstreamMap::new();
        upstreams.add(apex, auth);
        let recursive = Arc::new(RecursiveResolver::new(
            upstreams,
            RecursiveConfig {
                servfail_rate: 0.0,
                ..RecursiveConfig::default()
            },
        ));
        net.bind_udp(resolver, 53, Arc::new(Do53UdpService::new(recursive)));
        (net, client, resolver, log)
    }

    #[test]
    fn registered_zone_fetched_from_authoritative() {
        let (mut net, client, resolver, log) = build();
        let q = dnswire::builder::query(1, "u7.probe.dnsmeasure.example", RecordType::A).unwrap();
        let reply =
            do53_udp_query(&mut net, client, resolver, &q, SimDuration::from_secs(5), 0).unwrap();
        assert_eq!(reply.message.rcode(), Rcode::NoError);
        assert_eq!(reply.message.answers.len(), 1);
        // The authoritative server observed the *resolver*, not the client.
        let entries = log.lock();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].observed_src, resolver);
    }

    #[test]
    fn cache_hit_skips_authoritative_and_is_faster() {
        let (mut net, client, resolver, log) = build();
        let q = dnswire::builder::query(2, "same.probe.dnsmeasure.example", RecordType::A).unwrap();
        let first =
            do53_udp_query(&mut net, client, resolver, &q, SimDuration::from_secs(5), 0).unwrap();
        let second =
            do53_udp_query(&mut net, client, resolver, &q, SimDuration::from_secs(5), 0).unwrap();
        assert_eq!(log.lock().len(), 1, "second query served from cache");
        assert!(second.latency < first.latency);
        assert_eq!(first.message.answers, second.message.answers);
    }

    #[test]
    fn unique_prefixes_defeat_cache() {
        let (mut net, client, resolver, log) = build();
        for i in 0..5 {
            let q = dnswire::builder::query(
                i,
                &format!("u{i}.probe.dnsmeasure.example"),
                RecordType::A,
            )
            .unwrap();
            do53_udp_query(&mut net, client, resolver, &q, SimDuration::from_secs(5), 0).unwrap();
        }
        assert_eq!(log.lock().len(), 5);
    }

    #[test]
    fn prewarmed_entry_hits_without_upstream_traffic() {
        let mut net = Network::new(NetworkConfig::default(), 22);
        let client: Ipv4Addr = "198.51.100.7".parse().unwrap();
        let resolver: Ipv4Addr = "9.9.9.10".parse().unwrap();
        net.add_host(HostMeta::new(client));
        net.add_host(HostMeta::new(resolver));

        let name = Name::parse("doh.example.net").unwrap();
        let front: Ipv4Addr = "203.0.113.80".parse().unwrap();
        // Registered upstream that is never bound: a cache miss would fail,
        // so a correct answer proves the pinned entry served the query.
        let mut upstreams = UpstreamMap::new();
        upstreams.add(name.clone(), "203.0.113.54".parse().unwrap());
        let recursive = Arc::new(RecursiveResolver::new(
            upstreams,
            RecursiveConfig {
                servfail_rate: 0.0,
                ..RecursiveConfig::default()
            },
        ));
        recursive.prewarm(
            &name,
            RecordType::A,
            vec![ResourceRecord::new(name.clone(), 300, RData::A(front))],
        );
        net.bind_udp(
            resolver,
            53,
            Arc::new(Do53UdpService::new(
                Arc::clone(&recursive) as Arc<dyn DnsResponder>
            )),
        );

        let q = dnswire::builder::query(9, "doh.example.net", RecordType::A).unwrap();
        let reply =
            do53_udp_query(&mut net, client, resolver, &q, SimDuration::from_secs(5), 0).unwrap();
        assert_eq!(reply.message.rcode(), Rcode::NoError);
        assert_eq!(reply.message.answers[0].rdata, RData::A(front));
        let stats = recursive.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.upstream_queries, 0);
    }

    #[test]
    fn synthetic_fallback_is_deterministic() {
        let (mut net, client, resolver, _log) = build();
        let q = dnswire::builder::query(3, "www.some-random-site.com", RecordType::A).unwrap();
        let a =
            do53_udp_query(&mut net, client, resolver, &q, SimDuration::from_secs(5), 0).unwrap();
        let b =
            do53_udp_query(&mut net, client, resolver, &q, SimDuration::from_secs(5), 0).unwrap();
        assert_eq!(a.message.answers, b.message.answers);
        match &a.message.answers[0].rdata {
            RData::A(addr) => {
                assert_eq!(
                    *addr,
                    RecursiveResolver::synthetic_address(
                        &Name::parse("www.some-random-site.com").unwrap()
                    )
                );
            }
            other => panic!("expected A, got {other:?}"),
        }
    }

    #[test]
    fn dead_authoritative_yields_servfail() {
        let (mut net, client, resolver, _log) = build();
        // Kill the authoritative server.
        let auth: Ipv4Addr = "203.0.113.53".parse().unwrap();
        net.remove_host(auth);
        let q = dnswire::builder::query(4, "x.probe.dnsmeasure.example", RecordType::A).unwrap();
        let reply = do53_udp_query(
            &mut net,
            client,
            resolver,
            &q,
            SimDuration::from_secs(30),
            0,
        )
        .unwrap();
        assert_eq!(reply.message.rcode(), Rcode::ServFail);
        // The resolver burned its upstream timeout waiting.
        assert!(reply.latency >= SimDuration::from_secs(5));
    }

    #[test]
    fn congested_miss_delay_exceeds_2s_around_13_percent() {
        let profile = MissDelay::congested();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        let n = 20_000;
        let over: usize = (0..n)
            .filter(|_| profile.sample(&mut rng) > SimDuration::from_secs(2))
            .count();
        let frac = over as f64 / n as f64;
        assert!(
            (0.09..=0.17).contains(&frac),
            "P(delay > 2s) = {frac}, want ~0.13"
        );
    }

    #[test]
    fn cache_capacity_evicts() {
        let resolver = RecursiveResolver::new(
            UpstreamMap::new(),
            RecursiveConfig {
                cache_capacity: 2,
                servfail_rate: 0.0,
                ..RecursiveConfig::default()
            },
        );
        let mut net = Network::new(NetworkConfig::default(), 5);
        let server: Ipv4Addr = "192.0.2.1".parse().unwrap();
        let client: Ipv4Addr = "198.51.100.1".parse().unwrap();
        net.add_host(HostMeta::new(server));
        net.add_host(HostMeta::new(client));
        let resolver = Arc::new(resolver);
        net.bind_udp(
            server,
            53,
            Arc::new(Do53UdpService::new(
                Arc::clone(&resolver) as Arc<dyn DnsResponder>
            )),
        );
        for i in 0..4 {
            let q =
                dnswire::builder::query(i, &format!("h{i}.example.com"), RecordType::A).unwrap();
            do53_udp_query(&mut net, client, server, &q, SimDuration::from_secs(5), 0).unwrap();
        }
        assert!(resolver.cache_len() <= 2);
        assert_eq!(resolver.stats().queries, 4);
    }

    use rand::SeedableRng;

    #[test]
    fn qname_minimisation_probes_ancestors_and_costs_more() {
        // Two resolvers over the same authoritative: one minimising, one
        // not. The minimiser sends extra NS probes (visible in the
        // authoritative log) and pays extra latency on cold names.
        let build_with = |qmin: bool, seed: u64| {
            let mut net = Network::new(NetworkConfig::default(), seed);
            let client: Ipv4Addr = "198.51.100.2".parse().unwrap();
            let resolver: Ipv4Addr = "9.9.9.9".parse().unwrap();
            let auth: Ipv4Addr = "203.0.113.53".parse().unwrap();
            net.add_host(HostMeta::new(client).country("JP").asn(2516));
            net.add_host(HostMeta::new(resolver).country("US").asn(19281).anycast());
            net.add_host(HostMeta::new(auth).country("US").asn(64510));
            let apex = Name::parse("probe.dnsmeasure.example").unwrap();
            let mut zone = Zone::new(apex.clone());
            zone.add_record(
                &apex.prepend("*").unwrap(),
                60,
                RData::A("203.0.113.99".parse().unwrap()),
            );
            let (auth_server, log) = AuthoritativeServer::with_log(vec![zone]);
            net.bind_udp(
                auth,
                53,
                Arc::new(Do53UdpService::new(Arc::new(auth_server))),
            );
            let mut upstreams = UpstreamMap::new();
            upstreams.add(apex, auth);
            let recursive = Arc::new(RecursiveResolver::new(
                upstreams,
                RecursiveConfig {
                    servfail_rate: 0.0,
                    qname_minimisation: qmin,
                    ..RecursiveConfig::default()
                },
            ));
            net.bind_udp(resolver, 53, Arc::new(Do53UdpService::new(recursive)));
            (net, client, resolver, log)
        };

        let (mut net, client, resolver, log) = build_with(true, 7);
        let q =
            dnswire::builder::query(1, "deep.sub.probe.dnsmeasure.example", RecordType::A).unwrap();
        let with =
            do53_udp_query(&mut net, client, resolver, &q, SimDuration::from_secs(5), 0).unwrap();
        let probes_with = log.lock().len();

        let (mut net, client, resolver, log) = build_with(false, 7);
        let q =
            dnswire::builder::query(1, "deep.sub.probe.dnsmeasure.example", RecordType::A).unwrap();
        let without =
            do53_udp_query(&mut net, client, resolver, &q, SimDuration::from_secs(5), 0).unwrap();
        let probes_without = log.lock().len();

        assert!(
            probes_with > probes_without,
            "{probes_with} vs {probes_without}"
        );
        assert!(with.latency > without.latency);
        assert_eq!(with.message.answers, without.message.answers);
        // The NS probes never contained the full name.
        // (the final A query does; ancestors must all be proper prefixes)
        assert!(probes_with >= 2);
    }

    #[test]
    fn upstream_map_longest_suffix() {
        let mut m = UpstreamMap::new();
        let a1: Ipv4Addr = "10.0.0.1".parse().unwrap();
        let a2: Ipv4Addr = "10.0.0.2".parse().unwrap();
        m.add(Name::parse("example.com").unwrap(), a1);
        m.add(Name::parse("deep.example.com").unwrap(), a2);
        assert_eq!(
            m.lookup(&Name::parse("x.deep.example.com").unwrap()),
            Some(a2)
        );
        assert_eq!(m.lookup(&Name::parse("y.example.com").unwrap()), Some(a1));
        assert_eq!(m.lookup(&Name::parse("other.net").unwrap()), None);
    }
}
