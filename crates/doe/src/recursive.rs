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
//!
//! The cache has two parts. Pins ([`RecursiveResolver::prewarm`]) belong
//! to the resolver and never change once it is shared. Dynamic entries
//! live in the serving network's shard-local state
//! ([`netsim::Network::shard_local`]), one FIFO per answering address, so
//! a fill made by one shard worker is never seen by another.

use crate::responder::DnsResponder;
use dnswire::{builder, Message, Name, RData, Rcode, RecordType, ResourceRecord};
use netsim::{PeerInfo, ServiceCtx, SimDuration, SimTime};
use rand::Rng;
use std::collections::{BTreeMap, HashMap, VecDeque};
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
    /// Dynamic cache entries kept per answering address and shard (FIFO
    /// eviction). Pins do not count against it.
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

type CacheKey = (Name, RecordType);

#[derive(Debug, Clone)]
struct CacheEntry {
    answers: Vec<ResourceRecord>,
    rcode: Rcode,
    expires: SimTime,
}

/// One FIFO of dynamic cache entries.
#[derive(Default)]
struct CacheState {
    map: HashMap<CacheKey, CacheEntry>,
    order: VecDeque<CacheKey>,
}

impl CacheState {
    fn get(&self, key: &CacheKey, now: SimTime) -> Option<CacheEntry> {
        self.map
            .get(key)
            .filter(|entry| entry.expires > now)
            .cloned()
    }

    /// Insert or refresh `key`. Only a new key can evict: a refill (say of
    /// an expired entry) replaces its entry in place, so the map does not
    /// grow and no unrelated live entry is lost.
    fn put(&mut self, capacity: usize, key: CacheKey, entry: CacheEntry) {
        if let Some(slot) = self.map.get_mut(&key) {
            *slot = entry;
            return;
        }
        if self.map.len() >= capacity {
            if let Some(victim) = self.order.pop_front() {
                self.map.remove(&victim);
            }
        }
        self.order.push_back(key.clone());
        self.map.insert(key, entry);
    }
}

/// Every recursive resolver's dynamic cache on one shard, keyed by the
/// address that answered.
#[derive(Default)]
struct ShardCaches(BTreeMap<Ipv4Addr, CacheState>);

/// A caching recursive resolver.
pub struct RecursiveResolver {
    upstreams: UpstreamMap,
    config: RecursiveConfig,
    pins: HashMap<CacheKey, Vec<ResourceRecord>>,
}

impl RecursiveResolver {
    /// Build a resolver.
    pub fn new(upstreams: UpstreamMap, config: RecursiveConfig) -> Self {
        RecursiveResolver {
            upstreams,
            config,
            pins: HashMap::new(),
        }
    }

    /// Pin an answer that never expires and is never evicted.
    ///
    /// World construction uses this for names real deployments keep
    /// permanently hot — the DoH front-end hostnames every client
    /// bootstraps through — before the resolver is shared. Pins answer
    /// before the dynamic cache is consulted, on every shard alike, so a
    /// bootstrap lookup is a hit no matter which worker asks.
    pub fn prewarm(&mut self, name: &Name, rtype: RecordType, answers: Vec<ResourceRecord>) {
        self.pins.insert((name.clone(), rtype), answers);
    }

    fn cache_get(ctx: &mut ServiceCtx<'_>, key: &CacheKey, now: SimTime) -> Option<CacheEntry> {
        let local = ctx.local_addr();
        ctx.network()
            .shard_local_if_present(|caches: &mut ShardCaches| {
                caches.0.get(&local).and_then(|cache| cache.get(key, now))
            })
            .flatten()
    }

    fn cache_put(&self, ctx: &mut ServiceCtx<'_>, key: CacheKey, entry: CacheEntry) {
        let local = ctx.local_addr();
        let capacity = self.config.cache_capacity;
        ctx.network().shard_local(|caches: &mut ShardCaches| {
            caches.0.entry(local).or_default().put(capacity, key, entry)
        });
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

        // Spurious failure injection.
        let flake = ctx.network().rng().gen_bool(self.config.servfail_rate);
        if flake {
            return builder::error_response(query, Rcode::ServFail);
        }

        let key = (question.qname.clone(), question.qtype);
        if let Some(answers) = self.pins.get(&key) {
            return builder::answer(query, answers.clone());
        }
        let now = ctx.network().now();
        if let Some(entry) = Self::cache_get(ctx, &key, now) {
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
                                ctx,
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
                ctx,
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
    use crate::error::QueryReply;
    use crate::responder::{AuthoritativeServer, QueryLog, QueryLogEntry};
    use dnswire::zone::Zone;
    use netsim::{HostMeta, Network, NetworkConfig};
    use rand::SeedableRng;
    use std::sync::Arc;

    /// A synthetic-name miss costs exactly 10 s, so any answer faster than
    /// that came from the cache.
    const SLOW_MISS: MissDelay = MissDelay {
        median_ms: 10_000.0,
        sigma: 0.0,
    };

    fn build() -> (Network, Ipv4Addr, Ipv4Addr) {
        build_with(RecursiveConfig {
            servfail_rate: 0.0,
            ..RecursiveConfig::default()
        })
    }

    /// Client, resolver and the probe zone's authoritative server (TTL
    /// 60 s wildcard), on a network that carries a [`QueryLog`].
    fn build_with(config: RecursiveConfig) -> (Network, Ipv4Addr, Ipv4Addr) {
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
        net.bind_udp(
            auth,
            53,
            Arc::new(Do53UdpService::new(Arc::new(AuthoritativeServer::new(
                vec![zone],
            )))),
        );
        net.shard_local(|_: &mut QueryLog| ());

        let mut upstreams = UpstreamMap::new();
        upstreams.add(apex, auth);
        let recursive = Arc::new(RecursiveResolver::new(upstreams, config));
        net.bind_udp(resolver, 53, Arc::new(Do53UdpService::new(recursive)));
        (net, client, resolver)
    }

    /// What the authoritative server has seen on `net` so far.
    fn logged(net: &mut Network) -> Vec<QueryLogEntry> {
        net.shard_local(|log: &mut QueryLog| log.0.clone())
    }

    /// Query `name` for an A record with a 30 s client timeout.
    fn ask(net: &mut Network, client: Ipv4Addr, resolver: Ipv4Addr, name: &str) -> QueryReply {
        let q = dnswire::builder::query(1, name, RecordType::A).unwrap();
        do53_udp_query(net, client, resolver, &q, SimDuration::from_secs(30), 0).unwrap()
    }

    fn hit(reply: &QueryReply) -> bool {
        reply.latency < SimDuration::from_secs(10)
    }

    #[test]
    fn registered_zone_fetched_from_authoritative() {
        let (mut net, client, resolver) = build();
        let q = dnswire::builder::query(1, "u7.probe.dnsmeasure.example", RecordType::A).unwrap();
        let reply =
            do53_udp_query(&mut net, client, resolver, &q, SimDuration::from_secs(5), 0).unwrap();
        assert_eq!(reply.view().rcode(), Rcode::NoError);
        assert_eq!(reply.view().answers().count(), 1);
        // The authoritative server observed the *resolver*, not the client.
        let entries = logged(&mut net);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].observed_src, resolver);
    }

    #[test]
    fn cache_hit_skips_authoritative_and_is_faster() {
        let (mut net, client, resolver) = build();
        let q = dnswire::builder::query(2, "same.probe.dnsmeasure.example", RecordType::A).unwrap();
        let first =
            do53_udp_query(&mut net, client, resolver, &q, SimDuration::from_secs(5), 0).unwrap();
        let second =
            do53_udp_query(&mut net, client, resolver, &q, SimDuration::from_secs(5), 0).unwrap();
        assert_eq!(logged(&mut net).len(), 1, "second query served from cache");
        assert!(second.latency < first.latency);
        assert_eq!(
            first.view().to_message().answers,
            second.view().to_message().answers
        );
    }

    #[test]
    fn unique_prefixes_defeat_cache() {
        let (mut net, client, resolver) = build();
        for i in 0..5 {
            let q = dnswire::builder::query(
                i,
                &format!("u{i}.probe.dnsmeasure.example"),
                RecordType::A,
            )
            .unwrap();
            do53_udp_query(&mut net, client, resolver, &q, SimDuration::from_secs(5), 0).unwrap();
        }
        assert_eq!(logged(&mut net).len(), 5);
    }

    /// A resolver pinning `doh.example.net` whose registered upstream is
    /// never bound: a miss on the pinned name would SERVFAIL, so a correct
    /// answer proves the pin served it. Synthetic misses cost
    /// [`SLOW_MISS`].
    fn pinned(capacity: usize) -> (Network, Ipv4Addr, Ipv4Addr, Ipv4Addr) {
        let mut net = Network::new(NetworkConfig::default(), 22);
        let client: Ipv4Addr = "198.51.100.7".parse().unwrap();
        let resolver: Ipv4Addr = "9.9.9.10".parse().unwrap();
        net.add_host(HostMeta::new(client));
        net.add_host(HostMeta::new(resolver));

        let name = Name::parse("doh.example.net").unwrap();
        let front: Ipv4Addr = "203.0.113.80".parse().unwrap();
        let mut upstreams = UpstreamMap::new();
        upstreams.add(name.clone(), "203.0.113.54".parse().unwrap());
        let mut recursive = RecursiveResolver::new(
            upstreams,
            RecursiveConfig {
                cache_capacity: capacity,
                servfail_rate: 0.0,
                miss_delay: SLOW_MISS,
                ..RecursiveConfig::default()
            },
        );
        recursive.prewarm(
            &name,
            RecordType::A,
            vec![ResourceRecord::new(name.clone(), 300, RData::A(front))],
        );
        net.bind_udp(
            resolver,
            53,
            Arc::new(Do53UdpService::new(Arc::new(recursive))),
        );
        (net, client, resolver, front)
    }

    fn assert_pin_answers(
        net: &mut Network,
        client: Ipv4Addr,
        resolver: Ipv4Addr,
        front: Ipv4Addr,
    ) {
        let reply = ask(net, client, resolver, "doh.example.net");
        assert_eq!(reply.view().rcode(), Rcode::NoError);
        assert_eq!(
            reply.view().answers().next().map(|rr| rr.rdata()),
            Some(RData::A(front))
        );
    }

    #[test]
    fn prewarmed_entry_hits_without_upstream_traffic() {
        let (mut net, client, resolver, front) = pinned(4096);
        assert_pin_answers(&mut net, client, resolver, front);
    }

    #[test]
    fn pin_survives_capacity_dynamic_fills() {
        let (mut net, client, resolver, front) = pinned(2);
        for name in ["a.example.com", "b.example.com"] {
            assert!(!hit(&ask(&mut net, client, resolver, name)));
        }
        assert_pin_answers(&mut net, client, resolver, front);
    }

    #[test]
    fn fills_stay_on_their_fork_while_pins_hit_on_every_fork() {
        let (mut net, client, resolver, front) = pinned(4096);
        // Two concurrent forks: each misses first, whatever the other did.
        net.run_shards(2, |fork, _| {
            assert!(!hit(&ask(fork, client, resolver, "www.example.com")));
            assert!(hit(&ask(fork, client, resolver, "www.example.com")));
            assert_pin_answers(fork, client, resolver, front);
        });
        net.run_shards(1, |fork, _| {
            assert!(
                !hit(&ask(fork, client, resolver, "www.example.com")),
                "the earlier forks' fills left with them"
            );
            assert_pin_answers(fork, client, resolver, front);
        });
    }

    #[test]
    fn synthetic_fallback_is_deterministic() {
        let (mut net, client, resolver) = build();
        let q = dnswire::builder::query(3, "www.some-random-site.com", RecordType::A).unwrap();
        let a =
            do53_udp_query(&mut net, client, resolver, &q, SimDuration::from_secs(5), 0).unwrap();
        let b =
            do53_udp_query(&mut net, client, resolver, &q, SimDuration::from_secs(5), 0).unwrap();
        assert_eq!(a.view().to_message().answers, b.view().to_message().answers);
        match &a.view().to_message().answers[0].rdata {
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
        let (mut net, client, resolver) = build();
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
        assert_eq!(reply.view().rcode(), Rcode::ServFail);
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
        let (mut net, client, resolver) = build_with(RecursiveConfig {
            cache_capacity: 2,
            servfail_rate: 0.0,
            miss_delay: SLOW_MISS,
            ..RecursiveConfig::default()
        });
        for i in 0..4 {
            assert!(!hit(&ask(
                &mut net,
                client,
                resolver,
                &format!("h{i}.example.com")
            )));
        }
        // FIFO: the two newest fills stay, the oldest went first.
        assert!(hit(&ask(&mut net, client, resolver, "h3.example.com")));
        assert!(!hit(&ask(&mut net, client, resolver, "h0.example.com")));
    }

    #[test]
    fn refill_at_capacity_keeps_live_entries() {
        let (mut net, client, resolver) = build_with(RecursiveConfig {
            cache_capacity: 2,
            servfail_rate: 0.0,
            miss_delay: SLOW_MISS,
            ..RecursiveConfig::default()
        });
        // A synthetic name (TTL 300 s), then a probe name (TTL 60 s): full.
        assert!(!hit(&ask(&mut net, client, resolver, "www.example.com")));
        ask(&mut net, client, resolver, "p.probe.dnsmeasure.example");
        net.advance(SimDuration::from_secs(61));
        // The expired probe entry is refilled in place...
        ask(&mut net, client, resolver, "p.probe.dnsmeasure.example");
        assert_eq!(logged(&mut net).len(), 2, "the expired entry was refetched");
        // ...without evicting the live synthetic entry.
        assert!(hit(&ask(&mut net, client, resolver, "www.example.com")));
    }

    #[test]
    fn qname_minimisation_probes_ancestors_and_costs_more() {
        // Two resolvers over the same authoritative: one minimising, one
        // not. The minimiser sends extra NS probes (visible in the
        // authoritative log) and pays extra latency on cold names.
        let build_qmin = |qmin: bool| {
            build_with(RecursiveConfig {
                servfail_rate: 0.0,
                qname_minimisation: qmin,
                ..RecursiveConfig::default()
            })
        };

        let (mut net, client, resolver) = build_qmin(true);
        let q =
            dnswire::builder::query(1, "deep.sub.probe.dnsmeasure.example", RecordType::A).unwrap();
        let with =
            do53_udp_query(&mut net, client, resolver, &q, SimDuration::from_secs(5), 0).unwrap();
        let probes_with = logged(&mut net).len();

        let (mut net, client, resolver) = build_qmin(false);
        let q =
            dnswire::builder::query(1, "deep.sub.probe.dnsmeasure.example", RecordType::A).unwrap();
        let without =
            do53_udp_query(&mut net, client, resolver, &q, SimDuration::from_secs(5), 0).unwrap();
        let probes_without = logged(&mut net).len();

        assert!(
            probes_with > probes_without,
            "{probes_with} vs {probes_without}"
        );
        assert!(with.latency > without.latency);
        assert_eq!(
            with.view().to_message().answers,
            without.view().to_message().answers
        );
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
