//! The [`Network`]: host registry, path evaluation, TCP/UDP exchange with
//! virtual-time accounting.
//!
//! Internally a network is split in two, zmap-style:
//!
//! * [`DataPlane`] — the read-mostly half: host registry, service bindings,
//!   geo/AS attribution and the policy set. Shared across shard workers
//!   behind an `Arc`; mutation goes through copy-on-write
//!   ([`Arc::make_mut`]), so topology edits stay cheap for the common
//!   single-owner case and safe when forks exist.
//! * `ShardCtx` — the per-worker half: seeded RNG stream, virtual clock,
//!   event log, handler-depth guard, probe counters and the typed state
//!   services keep between queries ([`Network::shard_local`]). Forked
//!   fresh per shard and folded back by [`Network::run_shards`].
//!
//! Every public method still takes `&mut Network`, so single-shard callers
//! see exactly the old API; parallel stages hand [`Network::run_shards`]
//! one closure that it runs on a forked `Network` value per shard.

use crate::geo::{region_of, Asn, CountryCode, GeoDb, Region};
use crate::host::{HostMeta, PeerInfo};
use crate::latency::{Endpoint, LatencyModel, Path};
use crate::policy::{PathDecision, PolicySet};
use crate::sched::{Fired, SchedEvent, SchedStats, Scheduler};
use crate::service::{DatagramService, Service, ServiceCtx, StreamHandler, MAX_HANDLER_DEPTH};
use crate::time::{SimDuration, SimInstant, SimTime};
use crate::trace::{EventKind, EventLog, NetEvent};
use doe_telemetry::{CounterId, HistogramId, Labels, Registry};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::{panic, thread};

/// Derive an independent RNG seed from a base seed and a salt (shard id,
/// permutation index, ...). SplitMix64 finalizer over the mixed words, so
/// adjacent salts yield statistically unrelated streams.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Tunables for a simulated internet.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// How long clients wait before declaring a blackholed path dead.
    /// The paper's reachability test used 30 seconds.
    pub default_timeout: SimDuration,
    /// How long a ZMap-style SYN probe waits before marking "filtered".
    pub probe_timeout: SimDuration,
    /// The latency model.
    pub latency: LatencyModel,
    /// Event-log capacity; 0 disables tracing.
    pub trace_capacity: usize,
    /// Whether shards collect telemetry (`net.*` counters/histograms).
    /// Disabling makes every metric operation a no-op and derived
    /// [`ShardStats`] read zero; only benchmarks should turn this off.
    pub metrics: bool,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            default_timeout: SimDuration::from_secs(30),
            probe_timeout: SimDuration::from_secs(1),
            latency: LatencyModel::default(),
            trace_capacity: 0,
            metrics: true,
        }
    }
}

/// Why a TCP connect failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectErrorKind {
    /// No SYN-ACK ever came back (blackhole, censorship drop, dead IP).
    Timeout,
    /// Active RST: filtering appliance or GFW-style reset.
    Reset,
    /// The host exists but nothing listens on the port.
    Refused,
    /// Handler recursion exceeded the internal depth limit (forwarding loop).
    DepthExceeded,
}

/// A failed TCP connect, with the virtual time it wasted and the policy
/// rule responsible (if one matched).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectError {
    /// Failure class.
    pub kind: ConnectErrorKind,
    /// Time the attempt consumed.
    pub elapsed: SimDuration,
    /// Responsible policy rule, when attribution is known.
    pub rule: Option<String>,
}

impl fmt::Display for ConnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "connect failed: {:?} after {}", self.kind, self.elapsed)?;
        if let Some(rule) = &self.rule {
            write!(f, " (rule: {rule})")?;
        }
        Ok(())
    }
}

impl std::error::Error for ConnectError {}

/// A successful UDP exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpReply {
    /// Response payload.
    pub bytes: Vec<u8>,
    /// Time from send to receipt.
    pub elapsed: SimDuration,
}

/// A failed UDP exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UdpError {
    /// No reply within the timeout (drop, loss, blackhole, or the service
    /// chose not to answer).
    Timeout {
        /// Time wasted waiting.
        elapsed: SimDuration,
        /// Responsible policy rule, when attribution is known.
        rule: Option<String>,
    },
    /// ICMP port-unreachable came back after one round trip.
    Unreachable {
        /// Time until the ICMP arrived.
        elapsed: SimDuration,
    },
    /// Handler recursion exceeded the limit.
    DepthExceeded,
}

impl UdpError {
    /// Virtual time the failed exchange consumed.
    pub fn elapsed(&self) -> SimDuration {
        match self {
            UdpError::Timeout { elapsed, .. } | UdpError::Unreachable { elapsed } => *elapsed,
            UdpError::DepthExceeded => SimDuration::ZERO,
        }
    }
}

impl fmt::Display for UdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UdpError::Timeout { elapsed, rule } => {
                write!(f, "udp timeout after {elapsed}")?;
                if let Some(rule) = rule {
                    write!(f, " (rule: {rule})")?;
                }
                Ok(())
            }
            UdpError::Unreachable { elapsed } => write!(f, "udp unreachable after {elapsed}"),
            UdpError::DepthExceeded => write!(f, "handler depth exceeded"),
        }
    }
}

impl std::error::Error for UdpError {}

/// Result of a SYN probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbeOutcome {
    /// SYN-ACK received.
    Open,
    /// RST received.
    Closed,
    /// Nothing came back.
    Filtered,
}

/// Per-shard probe accounting, folded across workers after a sharded sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStats {
    /// SYN probes sent.
    pub probes: u64,
    /// Probes answered with SYN-ACK.
    pub open: u64,
    /// Probes answered with RST.
    pub closed: u64,
    /// Probes that got nothing back.
    pub filtered: u64,
}

impl ShardStats {
    /// Fold another shard's counters into this one.
    pub fn absorb(&mut self, other: &ShardStats) {
        self.probes += other.probes;
        self.open += other.open;
        self.closed += other.closed;
        self.filtered += other.filtered;
    }
}

#[derive(Clone)]
struct HostEntry {
    meta: HostMeta,
    tcp: HashMap<u16, Arc<dyn Service>>,
    udp: HashMap<u16, Arc<dyn DatagramService>>,
}

/// A contiguous band of synthetic hosts sharing one TCP service binding
/// and one attribution.
///
/// Worldgen's junk port-853 population at paper scale is 2–3 million
/// hosts (§3.1); registering a [`HostEntry`] per host would cost a
/// `HashMap` node, a `HostMeta` and a service table each. A band stores
/// the whole range in a few words: membership is a binary search over
/// band intervals, taken only after the per-host map misses — an
/// individually registered host always shadows a band covering the same
/// address.
#[derive(Clone)]
pub struct HostBand {
    /// First address of the band.
    pub start: Ipv4Addr,
    /// Number of consecutive addresses covered.
    pub count: u32,
    /// Country attributed to every member.
    pub country: CountryCode,
    /// AS attributed to every member.
    pub asn: Asn,
    /// The single TCP port every member listens on; SYNs to any other
    /// port are answered with RST (closed), like a real host would.
    pub port: u16,
    /// Service answering on that port, shared across the band.
    pub service: Arc<dyn Service>,
}

impl HostBand {
    /// Last address covered, as an integer.
    fn end_u32(&self) -> u32 {
        u32::from(self.start) + (self.count - 1)
    }
}

/// The read-mostly half of the simulator: hosts, service bindings, geo/AS
/// attribution and path policies. `Send + Sync`; shard workers share one
/// instance behind an `Arc`.
#[derive(Clone)]
pub struct DataPlane {
    cfg: NetworkConfig,
    hosts: HashMap<Ipv4Addr, HostEntry>,
    /// Host bands sorted by start address; disjoint by construction.
    bands: Vec<HostBand>,
    /// Each band's region, `region_of(band.country)`, parallel to `bands`:
    /// computed once per band instead of once per probe.
    band_regions: Vec<Region>,
    geodb: GeoDb,
    policies: PolicySet,
}

impl DataPlane {
    /// The band covering `ip`, if any (hosts shadow bands — callers check
    /// `hosts` first).
    fn band_of(&self, ip: Ipv4Addr) -> Option<(&HostBand, Region)> {
        if self.bands.is_empty() {
            return None;
        }
        let v = u32::from(ip);
        let k = self.bands.partition_point(|b| u32::from(b.start) <= v);
        let k = k.checked_sub(1)?;
        let band = &self.bands[k];
        (v - u32::from(band.start) < band.count).then_some((band, self.band_regions[k]))
    }

    /// What answers at `ip`: a registered host, else a covering band.
    fn answerer(&self, ip: Ipv4Addr) -> Answerer<'_> {
        if let Some(h) = self.hosts.get(&ip) {
            return Answerer::Host(h);
        }
        self.band_of(ip).map_or(Answerer::Nobody, |(band, region)| {
            Answerer::Band(band, region)
        })
    }

    /// Attribute `ip`, given what answers there: a host's metadata, a
    /// band's attribution, else the geo database, else a neutral default.
    fn site_of(&self, ip: Ipv4Addr, at: Answerer<'_>) -> Site {
        match at {
            Answerer::Host(h) => Site {
                endpoint: h.meta.endpoint(),
                asn: h.meta.asn,
            },
            Answerer::Band(b, region) => Site::unicast(b.country, b.asn, region),
            Answerer::Nobody => match self.geodb.lookup(ip) {
                Some(info) => Site::unicast(info.country, info.asn, info.region),
                None => {
                    let cc = CountryCode::new("US");
                    Site::unicast(cc, Asn(0), region_of(cc))
                }
            },
        }
    }

    /// Resolve `ip` once: host, then band, then geo DB, then the default.
    fn resolve(&self, ip: Ipv4Addr) -> Site {
        self.site_of(ip, self.answerer(ip))
    }

    /// Country/AS/region attribution for any address: a registered host's
    /// metadata wins, then a covering host band, then the geo database,
    /// then a neutral default.
    pub fn attribution(&self, ip: Ipv4Addr) -> (CountryCode, Asn, Region) {
        let site = self.resolve(ip);
        (site.endpoint.country, site.asn, site.endpoint.region)
    }

    /// The latency path between two resolved sites, for `port`.
    fn path(&self, src: &Site, dst: &Site, port: u16) -> Path {
        self.cfg
            .latency
            .path(src.endpoint, dst.endpoint, Some(port))
    }

    /// Evaluate path policies for a flow from `src`, resolved as `site`,
    /// with the simulator invariant that a diversion device's own traffic
    /// is never diverted back to itself (the device *is* the middlebox;
    /// it sits behind the diversion point).
    fn decide_path(
        &self,
        src: Ipv4Addr,
        site: &Site,
        dst: Ipv4Addr,
        port: u16,
        is_tcp: bool,
    ) -> (PathDecision, Option<&str>) {
        let (country, asn) = (site.endpoint.country, site.asn);
        match self.policies.evaluate(src, country, asn, dst, port, is_tcp) {
            (PathDecision::DivertTo(actual), _) if actual == src => (PathDecision::Allow, None),
            other => other,
        }
    }

    /// The outcome and cost of one SYN probe, drawing jitter from `rng`.
    fn probe(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        port: u16,
        rng: &mut SmallRng,
    ) -> (ProbeOutcome, SimDuration) {
        let from = self.resolve(src);
        let effective = match self.decide_path(src, &from, dst, port, true).0 {
            PathDecision::Allow => dst,
            PathDecision::Blackhole => return (ProbeOutcome::Filtered, self.cfg.probe_timeout),
            PathDecision::Reset => {
                let rtt = self.path(&from, &self.resolve(dst), port).sample_rtt(rng);
                return (ProbeOutcome::Closed, rtt);
            }
            PathDecision::DivertTo(actual) => actual,
        };
        let at = self.answerer(effective);
        let open = match at {
            Answerer::Host(entry) => entry.tcp.contains_key(&port),
            Answerer::Band(band, _) => band.port == port,
            Answerer::Nobody => return (ProbeOutcome::Filtered, self.cfg.probe_timeout),
        };
        let rtt = self
            .path(&from, &self.site_of(effective, at), port)
            .sample_rtt(rng);
        if open {
            (ProbeOutcome::Open, rtt)
        } else {
            (ProbeOutcome::Closed, rtt)
        }
    }
}

/// What answers at an address.
#[derive(Clone, Copy)]
enum Answerer<'a> {
    /// A registered host; it shadows any band covering its address.
    Host(&'a HostEntry),
    /// A host band member, with the band's region.
    Band(&'a HostBand, Region),
    /// Nothing: SYNs and datagrams go unanswered.
    Nobody,
}

/// An address resolved once per operation: where the latency model
/// places it, and the AS that path policies match on.
#[derive(Debug, Clone, Copy)]
struct Site {
    endpoint: Endpoint,
    asn: Asn,
}

impl Site {
    fn unicast(country: CountryCode, asn: Asn, region: Region) -> Site {
        Site {
            endpoint: Endpoint {
                region,
                country,
                anycast: false,
            },
            asn,
        }
    }
}

/// Pre-registered handles for the hot-path `net.*` metrics: one vector
/// index per series, resolved once per shard so updates are plain
/// integer bumps (no lookup, no allocation, no atomics).
struct NetMetricIds {
    probe_sent: CounterId,
    probe_open: CounterId,
    probe_closed: CounterId,
    probe_filtered: CounterId,
    path_refused: CounterId,
    path_udp_unreachable: CounterId,
    path_retransmit: CounterId,
    path_depth_exceeded: CounterId,
    bytes_tx: CounterId,
    bytes_rx: CounterId,
    tcp_connect_us: HistogramId,
    tcp_exchange_us: HistogramId,
    udp_exchange_us: HistogramId,
    /// Fired-event counters by kind, indexed by
    /// [`SchedEvent::kind_index`]. Every machine fires the same events
    /// regardless of which shard hosts it, so the sums are shard-count
    /// invariant.
    sched_fired: [CounterId; SchedEvent::KIND_COUNT],
}

impl NetMetricIds {
    fn register(reg: &mut Registry) -> NetMetricIds {
        NetMetricIds {
            probe_sent: reg.counter("net.probe.sent", Labels::empty()),
            probe_open: reg.counter("net.probe.open", Labels::empty()),
            probe_closed: reg.counter("net.probe.closed", Labels::empty()),
            probe_filtered: reg.counter("net.probe.filtered", Labels::empty()),
            path_refused: reg.counter("net.path.refused", Labels::empty()),
            path_udp_unreachable: reg.counter("net.path.udp_unreachable", Labels::empty()),
            path_retransmit: reg.counter("net.path.retransmit", Labels::empty()),
            path_depth_exceeded: reg.counter("net.path.depth_exceeded", Labels::empty()),
            bytes_tx: reg.counter("net.bytes.tx", Labels::empty()),
            bytes_rx: reg.counter("net.bytes.rx", Labels::empty()),
            tcp_connect_us: reg.histogram("net.tcp.connect_us", Labels::empty()),
            tcp_exchange_us: reg.histogram("net.tcp.exchange_us", Labels::empty()),
            udp_exchange_us: reg.histogram("net.udp.exchange_us", Labels::empty()),
            sched_fired: SchedEvent::KIND_NAMES
                .map(|kind| reg.counter("sched.event.fired", Labels::one("kind", kind))),
        }
    }
}

fn rule_labels(rule: Option<&str>) -> Labels {
    Labels::one("rule", rule.unwrap_or("none"))
}

/// Per-worker session state: RNG stream, virtual clock, trace log,
/// handler-depth guard, the telemetry registry and service state.
struct ShardCtx {
    id: u64,
    rng: SmallRng,
    now: SimTime,
    log: EventLog,
    handler_depth: u8,
    /// Virtual time charged to top-level operations on this shard (plus
    /// absorbed workers). Unlike `now`, this advances with every
    /// completed exchange, so stage runners can time spans without
    /// perturbing the clock measurement code observes.
    charged: SimDuration,
    metrics: Registry,
    /// Permanently-disabled registry handed out by [`ShardCtx::meter`]
    /// for nested (handler-internal) operations.
    void: Registry,
    /// This worker's discrete-event heap (see [`crate::sched`]).
    sched: Scheduler,
    ids: NetMetricIds,
    /// Per-shard counters folded in by [`Network::absorb_shard`], in
    /// absorption order — the data behind `repro --trace`'s breakdown.
    breakdown: Vec<(u64, ShardStats)>,
    /// Typed service state, at most one value per type (see
    /// [`Network::shard_local`]).
    locals: Vec<Box<dyn Any + Send>>,
}

impl ShardCtx {
    fn fresh(id: u64, rng_seed: u64, now: SimTime, log: EventLog, metrics_on: bool) -> ShardCtx {
        let mut metrics = if metrics_on {
            Registry::enabled()
        } else {
            Registry::disabled()
        };
        let ids = NetMetricIds::register(&mut metrics);
        ShardCtx {
            id,
            rng: SmallRng::seed_from_u64(rng_seed),
            now,
            log,
            handler_depth: 0,
            charged: SimDuration::ZERO,
            metrics,
            void: Registry::disabled(),
            sched: Scheduler::new(),
            ids,
            breakdown: Vec::new(),
            locals: Vec::new(),
        }
    }

    /// Accumulate virtual time into the charged-time counter, but only
    /// for top-level operations: time spent inside a service handler
    /// already flows into the outer exchange via `ServiceCtx::extra`, so
    /// charging nested calls would double-count it.
    fn charge(&mut self, d: SimDuration) {
        if self.handler_depth == 0 {
            self.charged += d;
        }
    }

    /// The registry the current operation records into: the real one at
    /// top level, a disabled one inside service handlers. Handler-internal
    /// traffic (resolver cache fills, upstream fetches) depends on shard
    /// layout through per-shard caches and per-worker clocks, so recording
    /// it would break the snapshot's shard-count invariance — like
    /// [`Network::charge`], nested work is attributed to the outer
    /// exchange.
    fn meter(&mut self) -> &mut Registry {
        if self.handler_depth == 0 {
            &mut self.metrics
        } else {
            &mut self.void
        }
    }
}

/// The simulated internet. See the crate docs for the model.
pub struct Network {
    plane: Arc<DataPlane>,
    seed: u64,
    shard: ShardCtx,
}

// The whole point of the split: a Network value can move to a worker thread.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Network>();
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DataPlane>();
};

impl Network {
    /// Build a network from config and a seed. Identical seeds give
    /// identical behaviour.
    pub fn new(cfg: NetworkConfig, seed: u64) -> Self {
        let log = if cfg.trace_capacity > 0 {
            EventLog::with_capacity(cfg.trace_capacity)
        } else {
            EventLog::disabled()
        };
        let metrics_on = cfg.metrics;
        Network {
            plane: Arc::new(DataPlane {
                cfg,
                hosts: HashMap::new(),
                bands: Vec::new(),
                band_regions: Vec::new(),
                geodb: GeoDb::new(),
                policies: PolicySet::new(),
            }),
            seed,
            shard: ShardCtx::fresh(0, seed, SimTime::EPOCH, log, metrics_on),
        }
    }

    /// Run `f` once per shard on `shards` workers forked from this network
    /// (zmap's `--shards` model; 0 counts as 1) and fold them back.
    ///
    /// Shard 0 runs on the calling thread and shards `1..` on scoped
    /// threads, so one shard starts no thread. Each worker shares the data
    /// plane, draws from its own RNG stream ([`mix_seed`] of the base seed
    /// and its shard id) and starts at this network's clock with no
    /// [`Network::shard_local`] state. After the join, the workers'
    /// telemetry, charged time, trace logs and clock high-water marks are
    /// absorbed in shard order and their shard-local state is dropped; the
    /// outputs come back in the same order, one per shard. A shard's panic
    /// is resumed here with its own payload once every shard has stopped;
    /// if several panic, the lowest shard's wins.
    pub fn run_shards<T: Send>(
        &mut self,
        shards: usize,
        f: impl Fn(&mut Network, usize) -> T + Sync,
    ) -> Vec<T> {
        let mut workers: Vec<Network> = (0..shards.max(1) as u64)
            .map(|s| self.fork_shard(s))
            .collect();
        let outputs = thread::scope(|scope| {
            let f = &f;
            let (first, rest) = workers.split_at_mut(1);
            let spawned: Vec<_> = (1..)
                .zip(rest)
                .map(|(s, worker)| scope.spawn(move || f(worker, s)))
                .collect();
            let mut outputs = vec![f(&mut first[0], 0)];
            outputs.extend(spawned.into_iter().map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| panic::resume_unwind(payload))
            }));
            outputs
        });
        for worker in workers {
            self.absorb_shard(worker);
        }
        outputs
    }

    /// Fork a worker view for shard `id`: the data plane is shared, the
    /// session state is fresh with an RNG stream derived from the base seed
    /// and the shard id ([`mix_seed`]). The fork starts at the parent's
    /// virtual time with an empty trace log of the same capacity and no
    /// [`Network::shard_local`] state.
    pub(crate) fn fork_shard(&self, id: u64) -> Network {
        let log = if self.plane.cfg.trace_capacity > 0 {
            EventLog::with_capacity(self.plane.cfg.trace_capacity)
        } else {
            EventLog::disabled()
        };
        Network {
            plane: Arc::clone(&self.plane),
            seed: self.seed,
            shard: ShardCtx::fresh(
                id,
                mix_seed(self.seed, id),
                self.shard.now,
                log,
                self.plane.cfg.metrics,
            ),
        }
    }

    /// Fold a joined worker back into this network: its telemetry
    /// registry (counter/bucket addition, gauge max — associative and
    /// commutative, so the merged registry is shard-count invariant),
    /// charged time, trace events (in the worker's order) and clock
    /// high-water mark. The worker's [`Network::shard_local`] state is
    /// dropped.
    pub(crate) fn absorb_shard(&mut self, worker: Network) {
        let worker_stats = worker.shard_stats();
        if worker.shard.now > self.shard.now {
            self.shard.now = worker.shard.now;
        }
        self.shard.charged += worker.shard.charged;
        self.shard.metrics.merge(&worker.shard.metrics);
        self.shard.breakdown.extend(worker.shard.breakdown);
        self.shard.breakdown.push((worker.shard.id, worker_stats));
        self.shard.log.absorb(worker.shard.log);
    }

    /// Run `f` on this shard's value of type `T`, creating `T::default()`
    /// on first use.
    ///
    /// Services keep state between queries here — a resolver's dynamic
    /// cache, a test's ground-truth log — so a worker mutates only what
    /// its own `Network` owns. [`Network::run_shards`] starts each worker
    /// with no values and drops the workers' when it folds them back, so
    /// nothing one worker stores is visible to another.
    pub fn shard_local<T: Default + Send + 'static, R>(
        &mut self,
        f: impl FnOnce(&mut T) -> R,
    ) -> R {
        if let Some(value) = self.local_mut::<T>() {
            return f(value);
        }
        let mut value = T::default();
        let out = f(&mut value);
        self.shard.locals.push(Box::new(value));
        out
    }

    /// Run `f` on this shard's `T` only if [`Network::shard_local`]
    /// already created it; `None` otherwise. Creates nothing.
    pub fn shard_local_if_present<T: Send + 'static, R>(
        &mut self,
        f: impl FnOnce(&mut T) -> R,
    ) -> Option<R> {
        self.local_mut::<T>().map(f)
    }

    fn local_mut<T: Send + 'static>(&mut self) -> Option<&mut T> {
        self.shard
            .locals
            .iter_mut()
            .find_map(|value| value.downcast_mut::<T>())
    }

    /// Per-shard counters recorded as [`Network::run_shards`] folds each
    /// worker back, in absorption order: `(shard id, that worker's
    /// counters)`.
    pub fn shard_breakdown(&self) -> &[(u64, ShardStats)] {
        &self.shard.breakdown
    }

    /// The shared data plane (topology, attribution, policies).
    pub fn plane(&self) -> &DataPlane {
        &self.plane
    }

    /// Copy-on-write handle for topology mutation: cheap while this network
    /// is the sole owner, clones the plane if shard forks are alive.
    fn plane_mut(&mut self) -> &mut DataPlane {
        Arc::make_mut(&mut self.plane)
    }

    /// The seed this network (and all its forks) derive randomness from.
    pub fn base_seed(&self) -> u64 {
        self.seed
    }

    /// Probe counters accumulated by this shard (plus any absorbed ones),
    /// derived from the telemetry registry's `net.probe.*` counters — the
    /// registry is the single source of truth. Reads zero when
    /// [`NetworkConfig::metrics`] is off.
    pub fn shard_stats(&self) -> ShardStats {
        let empty = Labels::empty();
        ShardStats {
            probes: self.shard.metrics.counter_value("net.probe.sent", &empty),
            open: self.shard.metrics.counter_value("net.probe.open", &empty),
            closed: self.shard.metrics.counter_value("net.probe.closed", &empty),
            filtered: self
                .shard
                .metrics
                .counter_value("net.probe.filtered", &empty),
        }
    }

    /// This shard's telemetry registry (merged with absorbed workers).
    pub fn metrics(&self) -> &Registry {
        &self.shard.metrics
    }

    /// Mutable telemetry registry — stage runners register their
    /// `stage.*` series here.
    pub fn metrics_mut(&mut self) -> &mut Registry {
        &mut self.shard.metrics
    }

    /// Total virtual time charged to completed top-level operations on
    /// this shard (plus absorbed workers). Monotone within a shard, and
    /// the sum across shards is shard-count invariant — the reading
    /// [`doe_telemetry::Span`] timers are fed with.
    pub fn charged(&self) -> SimDuration {
        self.shard.charged
    }

    /// The event trace (enable via [`NetworkConfig::trace_capacity`]).
    pub fn log(&self) -> &EventLog {
        &self.shard.log
    }

    /// Mutable event trace (tests clear it between phases).
    pub fn log_mut(&mut self) -> &mut EventLog {
        &mut self.shard.log
    }

    /// Replace the RNG stream. Sharded sweeps reseed per work item from
    /// [`mix_seed`]`(base_seed, global_index)` so results are identical for
    /// every shard count.
    pub fn reseed(&mut self, seed: u64) {
        self.shard.rng = SmallRng::seed_from_u64(seed);
    }

    /// The configuration in force.
    pub fn config(&self) -> &NetworkConfig {
        &self.plane.cfg
    }

    /// Mutable latency model (worldgen tunes country profiles).
    pub fn latency_mut(&mut self) -> &mut LatencyModel {
        &mut self.plane_mut().cfg.latency
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shard.now
    }

    /// Advance the virtual clock (e.g. between scan epochs).
    pub fn advance(&mut self, d: SimDuration) {
        self.shard.now += d;
    }

    /// Schedule a typed event for `machine` (a dense per-shard index)
    /// `delay` after the current virtual time. Events at equal instants
    /// fire in schedule order.
    ///
    /// The delay must be a [`SimDuration`], whose constructors name the
    /// unit:
    ///
    /// ```
    /// # use netsim::{Network, NetworkConfig, SchedEvent, SimDuration};
    /// let mut net = Network::new(NetworkConfig::default(), 1);
    /// net.schedule_after(SimDuration::from_millis(5), 0, SchedEvent::Timer { token: 0 });
    /// ```
    ///
    /// A bare integer does not compile:
    ///
    /// ```compile_fail
    /// # use netsim::{Network, NetworkConfig, SchedEvent};
    /// let mut net = Network::new(NetworkConfig::default(), 1);
    /// net.schedule_after(500, 0, SchedEvent::Timer { token: 0 });
    /// ```
    ///
    /// Nor does a wall-clock `std::time::Duration`:
    ///
    /// ```compile_fail
    /// # use netsim::{Network, NetworkConfig, SchedEvent};
    /// let mut net = Network::new(NetworkConfig::default(), 1);
    /// let delay = std::time::Duration::from_millis(5);
    /// net.schedule_after(delay, 0, SchedEvent::Timer { token: 0 });
    /// ```
    pub fn schedule_after(&mut self, delay: SimDuration, machine: u64, event: SchedEvent) {
        let at = self.shard.now + delay;
        self.shard.sched.schedule(at, machine, event)
    }

    /// Schedule a typed event at an absolute instant, clamped to the
    /// current virtual time (events never fire in the past).
    ///
    /// The instant must be a [`SimInstant`]:
    ///
    /// ```
    /// # use netsim::{Network, NetworkConfig, SchedEvent, SimDuration};
    /// let mut net = Network::new(NetworkConfig::default(), 1);
    /// let at = net.now() + SimDuration::from_micros(500);
    /// net.schedule_at(at, 0, SchedEvent::Timer { token: 0 });
    /// ```
    ///
    /// A bare integer does not compile:
    ///
    /// ```compile_fail
    /// # use netsim::{Network, NetworkConfig, SchedEvent};
    /// let mut net = Network::new(NetworkConfig::default(), 1);
    /// net.schedule_at(500, 0, SchedEvent::Timer { token: 0 });
    /// ```
    pub fn schedule_at(&mut self, at: SimInstant, machine: u64, event: SchedEvent) {
        let at = at.max(self.shard.now);
        self.shard.sched.schedule(at, machine, event)
    }

    /// Pop the next scheduled event in `(instant, schedule order)`
    /// order, advancing the virtual clock to its instant and counting it
    /// in the `sched.event.fired` telemetry series. `None` when the heap
    /// is drained.
    pub fn next_event(&mut self) -> Option<Fired> {
        let fired = self.shard.sched.pop()?;
        if fired.at > self.shard.now {
            self.shard.now = fired.at;
        }
        let id = self.shard.ids.sched_fired[fired.event.kind_index()];
        self.shard.meter().add(id, 1);
        Some(fired)
    }

    /// Number of events pending on this shard's heap.
    pub fn pending_events(&self) -> usize {
        self.shard.sched.len()
    }

    /// This shard's scheduler accounting (`machine_peak` is
    /// shard-invariant).
    pub fn sched_stats(&self) -> SchedStats {
        self.shard.sched.load_stats()
    }

    /// Record the shard-invariant `sched.queue.depth` gauge: the peak
    /// number of simultaneously-pending events of any single machine
    /// (gauges merge by max, so the merged value is the fleet-wide peak
    /// for every shard count). [`crate::sched::run_machines`] calls this
    /// when the heap drains.
    pub fn record_sched_gauge(&mut self) {
        let peak = self.shard.sched.load_stats().machine_peak;
        if peak > 0 {
            self.shard
                .meter()
                .gauge_max("sched.queue.depth", Labels::empty(), peak as u64);
        }
    }

    /// Run `f` with `rng` standing in for the shard RNG, then put the
    /// shard stream back, whichever way `f` returns. Event machines wrap
    /// every network operation in this scope so each client draws from
    /// its own `mix_seed(salt, client_index)` stream no matter how
    /// machines interleave on the heap — the bit-identity contract from
    /// the per-client loops, preserved under event-driven execution.
    pub fn with_rng<R>(&mut self, rng: &mut SmallRng, f: impl FnOnce(&mut Network) -> R) -> R {
        std::mem::swap(&mut self.shard.rng, rng);
        let out = f(self);
        std::mem::swap(&mut self.shard.rng, rng);
        out
    }

    /// The geo database.
    pub fn geodb(&self) -> &GeoDb {
        &self.plane.geodb
    }

    /// Mutable geo database.
    pub fn geodb_mut(&mut self) -> &mut GeoDb {
        &mut self.plane_mut().geodb
    }

    /// The installed path policies.
    pub fn policies(&self) -> &PolicySet {
        &self.plane.policies
    }

    /// Mutable path policies.
    pub fn policies_mut(&mut self) -> &mut PolicySet {
        &mut self.plane_mut().policies
    }

    /// This shard's deterministic RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.shard.rng
    }

    /// Register a host. Replaces any prior host at the same address.
    pub fn add_host(&mut self, meta: HostMeta) {
        self.plane_mut().hosts.insert(
            meta.ip,
            HostEntry {
                meta,
                tcp: HashMap::new(),
                udp: HashMap::new(),
            },
        );
    }

    /// Remove a host entirely (e.g. a resolver decommissioned between scan
    /// epochs). Returns true if it existed.
    pub fn remove_host(&mut self, ip: Ipv4Addr) -> bool {
        self.plane_mut().hosts.remove(&ip).is_some()
    }

    /// Register a [`HostBand`]: `count` consecutive addresses from
    /// `start`, all listening on one TCP port with one shared service.
    /// Individually added hosts shadow band members; bands must be
    /// disjoint from each other.
    ///
    /// # Panics
    /// Panics on an empty band, a band wrapping the end of the address
    /// space, or one overlapping an existing band.
    pub fn add_host_band(&mut self, band: HostBand) {
        assert!(band.count > 0, "empty host band");
        let start = u32::from(band.start);
        let end = start
            .checked_add(band.count - 1)
            .expect("host band wraps the address space");
        let plane = self.plane_mut();
        for existing in &plane.bands {
            let (es, ee) = (u32::from(existing.start), existing.end_u32());
            assert!(
                end < es || start > ee,
                "host band {start:#x}+{} overlaps band at {es:#x}",
                band.count
            );
        }
        let at = plane.bands.partition_point(|b| u32::from(b.start) < start);
        plane.band_regions.insert(at, region_of(band.country));
        plane.bands.insert(at, band);
    }

    /// Registered host bands, sorted by start address.
    pub fn bands(&self) -> &[HostBand] {
        &self.plane.bands
    }

    /// Total addresses covered by host bands.
    pub fn band_host_count(&self) -> u64 {
        self.plane.bands.iter().map(|b| b.count as u64).sum()
    }

    /// Whether a host is registered at `ip`.
    pub fn has_host(&self, ip: Ipv4Addr) -> bool {
        self.plane.hosts.contains_key(&ip)
    }

    /// Metadata of a registered host.
    pub fn host_meta(&self, ip: Ipv4Addr) -> Option<&HostMeta> {
        self.plane.hosts.get(&ip).map(|h| &h.meta)
    }

    /// Number of registered hosts.
    pub fn host_count(&self) -> usize {
        self.plane.hosts.len()
    }

    /// All registered host addresses (unordered).
    pub fn host_ips(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.plane.hosts.keys().copied()
    }

    /// TCP ports a host listens on (empty if unknown host).
    pub fn open_tcp_ports(&self, ip: Ipv4Addr) -> Vec<u16> {
        let mut ports: Vec<u16> = self
            .plane
            .hosts
            .get(&ip)
            .map(|h| h.tcp.keys().copied().collect())
            .unwrap_or_default();
        ports.sort_unstable();
        ports
    }

    /// Bind a TCP service to `(ip, port)`. The host must exist.
    ///
    /// # Panics
    /// Panics if the host was never added — binding to a ghost is a
    /// worldgen bug.
    pub fn bind_tcp(&mut self, ip: Ipv4Addr, port: u16, svc: Arc<dyn Service>) {
        self.plane_mut()
            .hosts
            .get_mut(&ip)
            .unwrap_or_else(|| panic!("bind_tcp: no host {ip}"))
            .tcp
            .insert(port, svc);
    }

    /// Unbind a TCP service; returns true if something was bound.
    pub fn unbind_tcp(&mut self, ip: Ipv4Addr, port: u16) -> bool {
        self.plane_mut()
            .hosts
            .get_mut(&ip)
            .map(|h| h.tcp.remove(&port).is_some())
            .unwrap_or(false)
    }

    /// Bind a UDP service to `(ip, port)`. The host must exist.
    ///
    /// # Panics
    /// Panics if the host was never added.
    pub fn bind_udp(&mut self, ip: Ipv4Addr, port: u16, svc: Arc<dyn DatagramService>) {
        self.plane_mut()
            .hosts
            .get_mut(&ip)
            .unwrap_or_else(|| panic!("bind_udp: no host {ip}"))
            .udp
            .insert(port, svc);
    }

    /// Country/AS/region attribution for any address: a registered host's
    /// metadata wins, then a covering host band, then the geo database,
    /// then a neutral default.
    pub fn attribution(&self, ip: Ipv4Addr) -> (CountryCode, Asn, Region) {
        self.plane.attribution(ip)
    }

    /// Open a TCP connection with the default timeout.
    pub fn connect(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        port: u16,
    ) -> Result<Conn, ConnectError> {
        let timeout = self.plane.cfg.default_timeout;
        self.connect_with_timeout(src, dst, port, timeout)
    }

    /// Open a TCP connection, waiting at most `timeout` for establishment.
    ///
    /// On success the returned [`Conn`] has already been charged one round
    /// trip (SYN / SYN-ACK; the final ACK piggybacks on the first data
    /// flight). The connection keeps the [`Path`] resolved here for every
    /// later [`Conn::request`].
    pub fn connect_with_timeout(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        port: u16,
        timeout: SimDuration,
    ) -> Result<Conn, ConnectError> {
        if self.shard.handler_depth >= MAX_HANDLER_DEPTH {
            let id = self.shard.ids.path_depth_exceeded;
            self.shard.meter().inc(id);
            return Err(ConnectError {
                kind: ConnectErrorKind::DepthExceeded,
                elapsed: SimDuration::ZERO,
                rule: None,
            });
        }
        let plane = &*self.plane;
        let shard = &mut self.shard;
        let from = plane.resolve(src);
        let (decision, rule) = plane.decide_path(src, &from, dst, port, true);
        let (effective, diverted_rule) = match decision {
            PathDecision::Allow => (dst, None),
            PathDecision::Blackhole => {
                shard
                    .meter()
                    .count("net.path.timeout", rule_labels(rule), 1);
                shard.charge(timeout);
                let rule = rule.map(str::to_string);
                shard.log.record(NetEvent {
                    src,
                    dst,
                    port,
                    elapsed: timeout,
                    kind: EventKind::Timeout { rule: rule.clone() },
                });
                return Err(ConnectError {
                    kind: ConnectErrorKind::Timeout,
                    elapsed: timeout,
                    rule,
                });
            }
            PathDecision::Reset => {
                let rtt = plane
                    .path(&from, &plane.resolve(dst), port)
                    .sample_rtt(&mut shard.rng);
                shard.meter().count("net.path.reset", rule_labels(rule), 1);
                shard.charge(rtt);
                let rule = rule.map(str::to_string);
                shard.log.record(NetEvent {
                    src,
                    dst,
                    port,
                    elapsed: rtt,
                    kind: EventKind::TcpReset { rule: rule.clone() },
                });
                return Err(ConnectError {
                    kind: ConnectErrorKind::Reset,
                    elapsed: rtt,
                    rule,
                });
            }
            PathDecision::DivertTo(actual) => {
                shard.log.record(NetEvent {
                    src,
                    dst,
                    port,
                    elapsed: SimDuration::ZERO,
                    kind: EventKind::Diverted {
                        actual,
                        rule: rule.unwrap_or_default().to_string(),
                    },
                });
                (actual, rule)
            }
        };

        let at = plane.answerer(effective);
        let svc = match at {
            // A registered host accepts on its bound ports, a band member
            // on its one port…
            Answerer::Host(entry) => entry.tcp.get(&port).cloned(),
            Answerer::Band(band, _) => (band.port == port).then(|| Arc::clone(&band.service)),
            // …and a genuinely unrouted address swallows the SYNs.
            Answerer::Nobody => {
                shard
                    .meter()
                    .count("net.path.timeout", rule_labels(None), 1);
                shard.charge(timeout);
                shard.log.record(NetEvent {
                    src,
                    dst,
                    port,
                    elapsed: timeout,
                    kind: EventKind::Timeout { rule: None },
                });
                return Err(ConnectError {
                    kind: ConnectErrorKind::Timeout,
                    elapsed: timeout,
                    rule: diverted_rule.map(str::to_string),
                });
            }
        };
        let path = plane.path(&from, &plane.site_of(effective, at), port);
        let Some(svc) = svc else {
            // Any other port answers with RST.
            let rtt = path.sample_rtt(&mut shard.rng);
            let id = shard.ids.path_refused;
            shard.meter().inc(id);
            shard.charge(rtt);
            shard.log.record(NetEvent {
                src,
                dst,
                port,
                elapsed: rtt,
                kind: EventKind::TcpReset { rule: None },
            });
            return Err(ConnectError {
                kind: ConnectErrorKind::Refused,
                elapsed: rtt,
                rule: diverted_rule.map(str::to_string),
            });
        };

        let peer = PeerInfo {
            src,
            original_dst: dst,
            original_port: port,
            diverted: effective != dst,
        };
        let handler = svc.open_stream(peer);
        let mut rtt = path.sample_rtt(&mut shard.rng);
        if path.loss_roll(&mut shard.rng) {
            // Lost SYN: one retransmission.
            rtt += path.sample_rtt(&mut shard.rng);
            let id = shard.ids.path_retransmit;
            shard.meter().inc(id);
        }
        let id = shard.ids.tcp_connect_us;
        shard.meter().observe(id, rtt.as_micros());
        shard.charge(rtt);
        shard.log.record(NetEvent {
            src,
            dst,
            port,
            elapsed: rtt,
            kind: EventKind::TcpConnect,
        });
        Ok(Conn {
            src,
            effective_dst: effective,
            original_dst: dst,
            port,
            path,
            diverted_rule: diverted_rule.map(str::to_string),
            handler,
            elapsed: rtt,
            tx_bytes: 0,
            rx_bytes: 0,
            round_trips: 1,
        })
    }

    /// One UDP request/response exchange.
    pub fn udp_query(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        port: u16,
        data: &[u8],
        timeout: Option<SimDuration>,
    ) -> Result<UdpReply, UdpError> {
        if self.shard.handler_depth >= MAX_HANDLER_DEPTH {
            let id = self.shard.ids.path_depth_exceeded;
            self.shard.meter().inc(id);
            return Err(UdpError::DepthExceeded);
        }
        let plane = &*self.plane;
        let shard = &mut self.shard;
        let timeout = timeout.unwrap_or(plane.cfg.default_timeout);
        let from = plane.resolve(src);
        let (decision, rule) = plane.decide_path(src, &from, dst, port, false);
        let effective = match decision {
            PathDecision::Allow => dst,
            PathDecision::Blackhole | PathDecision::Reset => {
                // UDP has no RST; both read as silence.
                shard
                    .meter()
                    .count("net.path.udp_drop", rule_labels(rule), 1);
                shard.charge(timeout);
                let rule = rule.map(str::to_string);
                shard.log.record(NetEvent {
                    src,
                    dst,
                    port,
                    elapsed: timeout,
                    kind: EventKind::UdpDrop { rule: rule.clone() },
                });
                return Err(UdpError::Timeout {
                    elapsed: timeout,
                    rule,
                });
            }
            PathDecision::DivertTo(actual) => actual,
        };

        let at = plane.answerer(effective);
        let path = plane.path(&from, &plane.site_of(effective, at), port);
        if path.loss_roll(&mut shard.rng) {
            shard
                .meter()
                .count("net.path.udp_drop", rule_labels(Some("loss")), 1);
            shard.charge(timeout);
            shard.log.record(NetEvent {
                src,
                dst,
                port,
                elapsed: timeout,
                kind: EventKind::UdpDrop { rule: None },
            });
            return Err(UdpError::Timeout {
                elapsed: timeout,
                rule: None,
            });
        }

        let svc = match at {
            Answerer::Host(entry) => match entry.udp.get(&port) {
                None => {
                    let rtt = path.sample_rtt(&mut shard.rng);
                    let id = shard.ids.path_udp_unreachable;
                    shard.meter().inc(id);
                    shard.charge(rtt);
                    return Err(UdpError::Unreachable { elapsed: rtt });
                }
                Some(svc) => Arc::clone(svc),
            },
            // Bands bind TCP only; unrouted addresses answer nothing.
            Answerer::Band(..) | Answerer::Nobody => {
                shard
                    .meter()
                    .count("net.path.udp_drop", rule_labels(rule), 1);
                shard.charge(timeout);
                return Err(UdpError::Timeout {
                    elapsed: timeout,
                    rule: rule.map(str::to_string),
                });
            }
        };

        let peer = PeerInfo {
            src,
            original_dst: dst,
            original_port: port,
            diverted: effective != dst,
        };
        let rtt = path.sample_rtt(&mut shard.rng);
        self.shard.handler_depth += 1;
        let mut ctx = ServiceCtx::new(self, effective, 0);
        let reply = svc.on_datagram(&mut ctx, peer, data);
        let extra = ctx.extra();
        self.shard.handler_depth -= 1;
        match reply {
            Some(bytes) => {
                let total = rtt
                    + self
                        .plane
                        .cfg
                        .latency
                        .transmission(data.len() + bytes.len())
                    + extra;
                let ids = (
                    self.shard.ids.udp_exchange_us,
                    self.shard.ids.bytes_tx,
                    self.shard.ids.bytes_rx,
                );
                self.shard.meter().observe(ids.0, total.as_micros());
                self.shard.meter().add(ids.1, data.len() as u64);
                self.shard.meter().add(ids.2, bytes.len() as u64);
                self.shard.charge(total);
                self.shard.log.record(NetEvent {
                    src,
                    dst,
                    port,
                    elapsed: total,
                    kind: EventKind::UdpExchange {
                        tx: data.len(),
                        rx: bytes.len(),
                    },
                });
                Ok(UdpReply {
                    bytes,
                    elapsed: total,
                })
            }
            None => {
                self.shard
                    .meter()
                    .count("net.path.udp_drop", rule_labels(Some("no_answer")), 1);
                self.shard.charge(timeout);
                Err(UdpError::Timeout {
                    elapsed: timeout,
                    rule: None,
                })
            }
        }
    }

    /// ZMap-style SYN probe: open / closed / filtered plus time cost.
    ///
    /// Every probe bumps this shard's [`ShardStats`] and (when tracing is
    /// on) records a [`EventKind::SynProbe`] event.
    pub fn syn_probe(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        port: u16,
    ) -> (ProbeOutcome, SimDuration) {
        let (outcome, elapsed) = self.plane.probe(src, dst, port, &mut self.shard.rng);
        let sent_id = self.shard.ids.probe_sent;
        self.shard.meter().inc(sent_id);
        let outcome_id = match outcome {
            ProbeOutcome::Open => self.shard.ids.probe_open,
            ProbeOutcome::Closed => self.shard.ids.probe_closed,
            ProbeOutcome::Filtered => self.shard.ids.probe_filtered,
        };
        self.shard.meter().inc(outcome_id);
        self.shard.charge(elapsed);
        self.shard.log.record(NetEvent {
            src,
            dst,
            port,
            elapsed,
            kind: EventKind::SynProbe { outcome },
        });
        (outcome, elapsed)
    }

    /// Internal: run one request/response flight on an established
    /// connection to `local` over `path`. Used by [`Conn::request`].
    fn exchange(
        &mut self,
        path: Path,
        local: Ipv4Addr,
        handler: &mut Box<dyn StreamHandler>,
        data: &[u8],
    ) -> (Vec<u8>, SimDuration) {
        let mut rtt = path.sample_rtt(&mut self.shard.rng);
        if path.loss_roll(&mut self.shard.rng) {
            // One retransmission round.
            rtt += path.sample_rtt(&mut self.shard.rng);
            let id = self.shard.ids.path_retransmit;
            self.shard.meter().inc(id);
        }
        self.shard.handler_depth += 1;
        let mut ctx = ServiceCtx::new(self, local, 0);
        let resp = handler.on_bytes(&mut ctx, data);
        let extra = ctx.extra();
        self.shard.handler_depth -= 1;
        let total = rtt + self.plane.cfg.latency.transmission(data.len() + resp.len()) + extra;
        let ids = (
            self.shard.ids.tcp_exchange_us,
            self.shard.ids.bytes_tx,
            self.shard.ids.bytes_rx,
        );
        self.shard.meter().observe(ids.0, total.as_micros());
        self.shard.meter().add(ids.1, data.len() as u64);
        self.shard.meter().add(ids.2, resp.len() as u64);
        self.shard.charge(total);
        (resp, total)
    }

    fn depth_exceeded(&self) -> bool {
        self.shard.handler_depth >= MAX_HANDLER_DEPTH
    }
}

/// An established TCP connection, owned by the client side.
///
/// The connection accumulates virtual time in `elapsed`; callers measuring
/// per-query latency use [`Conn::take_elapsed`] to read-and-reset between
/// queries (this is how connection-reuse latency is measured, §4.3).
pub struct Conn {
    src: Ipv4Addr,
    effective_dst: Ipv4Addr,
    original_dst: Ipv4Addr,
    port: u16,
    /// The path resolved at connect; every request samples it.
    path: Path,
    diverted_rule: Option<String>,
    handler: Box<dyn StreamHandler>,
    elapsed: SimDuration,
    tx_bytes: usize,
    rx_bytes: usize,
    round_trips: u32,
}

impl fmt::Debug for Conn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Conn")
            .field("src", &self.src)
            .field("dst", &self.original_dst)
            .field("port", &self.port)
            .field("effective_dst", &self.effective_dst)
            .field("elapsed", &self.elapsed)
            .field("round_trips", &self.round_trips)
            .finish_non_exhaustive()
    }
}

impl Conn {
    /// Client address.
    pub fn src(&self) -> Ipv4Addr {
        self.src
    }

    /// The destination the client dialled.
    pub fn original_dst(&self) -> Ipv4Addr {
        self.original_dst
    }

    /// Where the connection actually terminated (differs under diversion).
    ///
    /// Measurement code must not peek at this to decide outcomes — the real
    /// client can't — but tests and forensics use it for ground truth.
    pub fn effective_dst(&self) -> Ipv4Addr {
        self.effective_dst
    }

    /// Destination port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Whether a policy rule diverted this connection, and which.
    pub fn diverted_rule(&self) -> Option<&str> {
        self.diverted_rule.as_deref()
    }

    /// Total virtual time charged so far.
    pub fn elapsed(&self) -> SimDuration {
        self.elapsed
    }

    /// Read and reset the elapsed clock.
    pub fn take_elapsed(&mut self) -> SimDuration {
        std::mem::take(&mut self.elapsed)
    }

    /// Charge additional client-side time to this connection's clock —
    /// used by higher layers for CPU-bound work (TLS key exchange, record
    /// sealing) that the wire model doesn't know about.
    pub fn charge(&mut self, d: SimDuration) {
        self.elapsed += d;
    }

    /// Bytes sent by the client.
    pub fn tx_bytes(&self) -> usize {
        self.tx_bytes
    }

    /// Bytes received by the client.
    pub fn rx_bytes(&self) -> usize {
        self.rx_bytes
    }

    /// Round trips charged (including the handshake).
    pub fn round_trips(&self) -> u32 {
        self.round_trips
    }

    /// Send one flight of bytes, returning the server's response flight.
    ///
    /// Each call charges one round trip plus transmission time plus any
    /// upstream time the server's handler spent.
    pub fn request(&mut self, net: &mut Network, data: &[u8]) -> Result<Vec<u8>, ConnectError> {
        if net.depth_exceeded() {
            return Err(ConnectError {
                kind: ConnectErrorKind::DepthExceeded,
                elapsed: SimDuration::ZERO,
                rule: None,
            });
        }
        let (resp, dt) = net.exchange(self.path, self.effective_dst, &mut self.handler, data);
        self.elapsed += dt;
        self.tx_bytes += data.len();
        self.rx_bytes += resp.len();
        self.round_trips += 1;
        net.shard.log.record(NetEvent {
            src: self.src,
            dst: self.original_dst,
            port: self.port,
            elapsed: dt,
            kind: EventKind::Exchange {
                tx: data.len(),
                rx: resp.len(),
            },
        });
        Ok(resp)
    }

    /// Close the connection (notifies the handler).
    pub fn close(self, net: &mut Network) {
        let mut handler = self.handler;
        let mut ctx = ServiceCtx::new(net, self.effective_dst, 0);
        handler.on_close(&mut ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{DstMatch, PolicyRule, PortMatch, SrcMatch};
    use crate::service::{FnDatagramService, FnStreamService};
    use rand::Rng;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn echo_net(seed: u64) -> (Network, Ipv4Addr, Ipv4Addr) {
        let mut net = Network::new(
            NetworkConfig {
                trace_capacity: 64,
                ..NetworkConfig::default()
            },
            seed,
        );
        let server = ip("192.0.2.1");
        let client = ip("198.51.100.1");
        net.add_host(HostMeta::new(server).country("US").asn(64500).label("echo"));
        net.add_host(HostMeta::new(client).country("DE").asn(64501));
        net.bind_tcp(
            server,
            7,
            Arc::new(FnStreamService::new(
                |_ctx, _peer, data: &[u8]| data.to_vec(),
                "echo",
            )),
        );
        net.bind_udp(
            server,
            7,
            Arc::new(FnDatagramService::new(|_ctx, _peer, data| {
                Some(data.to_vec())
            })),
        );
        (net, client, server)
    }

    #[test]
    fn tcp_echo_round_trip_charges_time() {
        let (mut net, client, server) = echo_net(1);
        let mut conn = net.connect(client, server, 7).unwrap();
        let after_handshake = conn.elapsed();
        assert!(after_handshake > SimDuration::ZERO, "handshake costs a RTT");
        let resp = conn.request(&mut net, b"hello").unwrap();
        assert_eq!(resp, b"hello");
        assert!(conn.elapsed() > after_handshake);
        assert_eq!(conn.round_trips(), 2);
        assert_eq!(conn.tx_bytes(), 5);
        conn.close(&mut net);
    }

    #[test]
    fn closed_port_refused_after_one_rtt() {
        let (mut net, client, server) = echo_net(2);
        let err = net.connect(client, server, 9999).unwrap_err();
        assert_eq!(err.kind, ConnectErrorKind::Refused);
        assert!(err.elapsed < SimDuration::from_secs(1));
    }

    #[test]
    fn unrouted_address_times_out() {
        let (mut net, client, _server) = echo_net(3);
        let err = net.connect(client, ip("203.0.113.99"), 7).unwrap_err();
        assert_eq!(err.kind, ConnectErrorKind::Timeout);
        assert_eq!(err.elapsed, net.config().default_timeout);
    }

    #[test]
    fn blackhole_policy_times_out_with_rule() {
        let (mut net, client, server) = echo_net(4);
        net.policies_mut()
            .push(PolicyRule::new("censor", PathDecision::Blackhole).to_dst(DstMatch::Ip(server)));
        let err = net.connect(client, server, 7).unwrap_err();
        assert_eq!(err.kind, ConnectErrorKind::Timeout);
        assert_eq!(err.rule.as_deref(), Some("censor"));
    }

    #[test]
    fn reset_policy_fails_fast() {
        let (mut net, client, server) = echo_net(5);
        net.policies_mut().push(
            PolicyRule::new("filter-53", PathDecision::Reset)
                .on_port(PortMatch::One(7))
                .from_src(SrcMatch::Country(CountryCode::new("DE"))),
        );
        let err = net.connect(client, server, 7).unwrap_err();
        assert_eq!(err.kind, ConnectErrorKind::Reset);
        assert!(err.elapsed < SimDuration::from_secs(1));
    }

    #[test]
    fn divert_policy_reaches_other_host() {
        let (mut net, client, server) = echo_net(6);
        let squatter = ip("10.255.0.1");
        net.add_host(HostMeta::new(squatter).label("modem"));
        net.bind_tcp(
            squatter,
            7,
            Arc::new(FnStreamService::new(
                |_ctx, peer: PeerInfo, _data: &[u8]| {
                    assert!(peer.diverted);
                    b"modem says hi".to_vec()
                },
                "squat",
            )),
        );
        net.policies_mut().push(
            PolicyRule::new("squat", PathDecision::DivertTo(squatter)).to_dst(DstMatch::Ip(server)),
        );
        let mut conn = net.connect(client, server, 7).unwrap();
        assert_eq!(conn.original_dst(), server);
        assert_eq!(conn.effective_dst(), squatter);
        assert_eq!(conn.diverted_rule(), Some("squat"));
        let resp = conn.request(&mut net, b"x").unwrap();
        assert_eq!(resp, b"modem says hi");
    }

    #[test]
    fn udp_echo_and_unreachable() {
        let (mut net, client, server) = echo_net(7);
        let reply = net.udp_query(client, server, 7, b"ping", None).unwrap();
        assert_eq!(reply.bytes, b"ping");
        assert!(reply.elapsed > SimDuration::ZERO);
        let err = net
            .udp_query(client, server, 9999, b"ping", None)
            .unwrap_err();
        assert!(matches!(err, UdpError::Unreachable { .. }));
    }

    #[test]
    fn syn_probe_classifies() {
        let (mut net, client, server) = echo_net(8);
        let (open, _) = net.syn_probe(client, server, 7);
        assert_eq!(open, ProbeOutcome::Open);
        let (closed, _) = net.syn_probe(client, server, 80);
        assert_eq!(closed, ProbeOutcome::Closed);
        let (filtered, dt) = net.syn_probe(client, ip("203.0.113.50"), 7);
        assert_eq!(filtered, ProbeOutcome::Filtered);
        assert_eq!(dt, net.config().probe_timeout);
    }

    #[test]
    fn syn_probe_counts_and_traces() {
        let (mut net, client, server) = echo_net(16);
        net.syn_probe(client, server, 7);
        net.syn_probe(client, server, 80);
        net.syn_probe(client, ip("203.0.113.50"), 7);
        let stats = net.shard_stats();
        assert_eq!(
            stats,
            ShardStats {
                probes: 3,
                open: 1,
                closed: 1,
                filtered: 1,
            }
        );
        let probes = net
            .log()
            .events()
            .filter(|e| matches!(e.kind, EventKind::SynProbe { .. }))
            .count();
        assert_eq!(probes, 3);
    }

    #[test]
    fn take_elapsed_resets_clock() {
        let (mut net, client, server) = echo_net(9);
        let mut conn = net.connect(client, server, 7).unwrap();
        let handshake = conn.take_elapsed();
        assert!(handshake > SimDuration::ZERO);
        assert_eq!(conn.elapsed(), SimDuration::ZERO);
        conn.request(&mut net, b"q").unwrap();
        let query_time = conn.take_elapsed();
        assert!(query_time > SimDuration::ZERO);
        assert!(query_time < handshake * 10);
    }

    #[test]
    fn determinism_same_seed_same_latencies() {
        let run = |seed| {
            let (mut net, client, server) = echo_net(seed);
            let mut conn = net.connect(client, server, 7).unwrap();
            conn.request(&mut net, b"abc").unwrap();
            conn.elapsed()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "different seeds should differ");
    }

    #[test]
    fn handler_can_call_upstream_and_time_propagates() {
        let (mut net, client, server) = echo_net(10);
        // A proxy host that forwards requests to the echo server over UDP.
        let proxy = ip("192.0.2.200");
        net.add_host(HostMeta::new(proxy).country("NL").asn(64502).label("proxy"));
        let upstream = server;
        net.bind_tcp(
            proxy,
            80,
            Arc::new(FnStreamService::new(
                move |ctx: &mut ServiceCtx<'_>, _peer, data: &[u8]| {
                    let local = ctx.local_addr();
                    match ctx.network().udp_query(local, upstream, 7, data, None) {
                        Ok(reply) => {
                            ctx.charge(reply.elapsed);
                            reply.bytes
                        }
                        Err(e) => {
                            ctx.charge(e.elapsed());
                            b"upstream failed".to_vec()
                        }
                    }
                },
                "proxy",
            )),
        );
        // Direct query to server vs. via proxy: the proxied path must cost
        // strictly more (it embeds the proxy→server RTT).
        let direct = net.udp_query(client, server, 7, b"payload", None).unwrap();
        let mut conn = net.connect(client, proxy, 80).unwrap();
        conn.take_elapsed(); // discard handshake
        let resp = conn.request(&mut net, b"payload").unwrap();
        assert_eq!(resp, b"payload");
        let proxied = conn.take_elapsed();
        assert!(
            proxied > direct.elapsed / 2,
            "proxied {proxied} vs direct {}",
            direct.elapsed
        );
    }

    #[test]
    fn trace_records_events() {
        let (mut net, client, server) = echo_net(13);
        let mut conn = net.connect(client, server, 7).unwrap();
        conn.request(&mut net, b"x").unwrap();
        let kinds: Vec<_> = net.log().events().map(|e| &e.kind).collect();
        assert!(matches!(kinds[0], EventKind::TcpConnect));
        assert!(matches!(kinds[1], EventKind::Exchange { tx: 1, .. }));
    }

    #[test]
    fn attribution_prefers_host_then_geodb() {
        let (mut net, _client, server) = echo_net(14);
        let (cc, asn, _) = net.attribution(server);
        assert_eq!(cc.as_str(), "US");
        assert_eq!(asn, Asn(64500));
        // Unregistered address attributed via geodb.
        net.geodb_mut().insert(
            crate::geo::Netblock::new(ip("41.0.0.0"), 8),
            crate::geo::BlockInfo {
                asn: Asn(37000),
                country: CountryCode::new("ZA"),
                region: Region::Africa,
            },
        );
        let (cc, asn, region) = net.attribution(ip("41.7.7.7"));
        assert_eq!(cc.as_str(), "ZA");
        assert_eq!(asn, Asn(37000));
        assert_eq!(region, Region::Africa);
    }

    #[test]
    fn remove_host_kills_service() {
        let (mut net, client, server) = echo_net(15);
        assert!(net.remove_host(server));
        let err = net.connect(client, server, 7).unwrap_err();
        assert_eq!(err.kind, ConnectErrorKind::Timeout);
    }

    #[test]
    fn fork_shares_plane_and_splits_rng() {
        let (net, client, server) = echo_net(20);
        let mut a = net.fork_shard(1);
        let mut b = net.fork_shard(2);
        // Shared topology: both forks see the echo service.
        let ra = a.udp_query(client, server, 7, b"ping", None).unwrap();
        let rb = b.udp_query(client, server, 7, b"ping", None).unwrap();
        assert_eq!(ra.bytes, b"ping");
        assert_eq!(rb.bytes, b"ping");
        // Independent RNG streams: shard ids give different jitter draws.
        assert_ne!(ra.elapsed, rb.elapsed, "shard streams should diverge");
        // Same shard id forked twice is bit-identical.
        let again = net
            .fork_shard(1)
            .udp_query(client, server, 7, b"ping", None)
            .unwrap();
        assert_eq!(
            again.elapsed,
            a.fork_shard(1)
                .udp_query(client, server, 7, b"ping", None)
                .unwrap()
                .elapsed
        );
    }

    #[test]
    fn fork_is_copy_on_write() {
        let (mut net, client, server) = echo_net(21);
        let mut fork = net.fork_shard(1);
        // Parent mutates topology after forking: the worker's view is frozen.
        net.remove_host(server);
        assert!(!net.has_host(server));
        assert!(fork.has_host(server));
        let reply = fork.udp_query(client, server, 7, b"ping", None).unwrap();
        assert_eq!(reply.bytes, b"ping");
    }

    #[test]
    fn absorb_merges_stats_and_log() {
        let (net, client, server) = echo_net(22);
        let mut parent = net.fork_shard(0);
        let mut w1 = parent.fork_shard(1);
        let mut w2 = parent.fork_shard(2);
        w1.syn_probe(client, server, 7);
        w2.syn_probe(client, server, 80);
        w2.syn_probe(client, ip("203.0.113.9"), 7);
        parent.absorb_shard(w1);
        parent.absorb_shard(w2);
        let stats = parent.shard_stats();
        assert_eq!(stats.probes, 3);
        assert_eq!(stats.open, 1);
        assert_eq!(stats.closed, 1);
        assert_eq!(stats.filtered, 1);
        assert_eq!(parent.log().len(), 3);
    }

    #[test]
    fn run_shards_returns_outputs_and_absorbs_workers_in_shard_order() {
        for shards in [1, 3, 8] {
            let (mut net, client, server) = echo_net(24);
            let outputs = net.run_shards(shards, |worker, s| {
                worker.syn_probe(client, server, 7);
                s
            });
            assert_eq!(outputs, (0..shards).collect::<Vec<_>>());
            let ids: Vec<u64> = net.shard_breakdown().iter().map(|&(id, _)| id).collect();
            assert_eq!(ids, (0..shards as u64).collect::<Vec<_>>());
            assert_eq!(net.shard_stats().probes, shards as u64);
            assert_eq!(net.log().len(), shards);
        }
    }

    #[test]
    fn run_shards_runs_shard_zero_on_the_calling_thread() {
        let mut net = Network::new(NetworkConfig::default(), 25);
        let caller = thread::current().id();
        assert_eq!(
            net.run_shards(1, |_, _| thread::current().id()),
            [caller],
            "one shard starts no thread"
        );
        let ids = net.run_shards(3, |_, _| thread::current().id());
        assert_eq!(ids[0], caller);
        assert!(ids[1..].iter().all(|&id| id != caller));
        assert_ne!(ids[1], ids[2]);
    }

    #[test]
    fn run_shards_returns_one_output_per_shard_when_shards_outnumber_items() {
        let mut net = Network::new(NetworkConfig::default(), 26);
        let items = [10u32, 20, 30];
        let outputs = net.run_shards(8, |_, s| items.iter().skip(s).step_by(8).sum::<u32>());
        assert_eq!(outputs, [10, 20, 30, 0, 0, 0, 0, 0]);
        assert_eq!(net.shard_breakdown().len(), 8);
    }

    #[test]
    fn run_shards_resumes_a_shard_panic_with_its_own_payload() {
        let mut net = Network::new(NetworkConfig::default(), 27);
        let caught = panic::catch_unwind(panic::AssertUnwindSafe(|| {
            net.run_shards(4, |_, s| {
                if s == 2 {
                    panic!("boom in shard 2");
                }
            })
        }));
        let payload = caught.expect_err("the shard's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom in shard 2"));
    }

    #[test]
    fn reseed_replays_stream() {
        let (mut net, client, server) = echo_net(23);
        net.reseed(mix_seed(net.base_seed(), 7));
        let (_, a) = net.syn_probe(client, server, 7);
        net.reseed(mix_seed(net.base_seed(), 7));
        let (_, b) = net.syn_probe(client, server, 7);
        assert_eq!(a, b);
    }

    fn band_net(seed: u64) -> (Network, Ipv4Addr) {
        let (mut net, client, _server) = echo_net(seed);
        net.add_host_band(HostBand {
            start: ip("23.0.0.0"),
            count: 1 << 18,
            country: CountryCode::new("CN"),
            asn: Asn(64610),
            port: 853,
            service: Arc::new(FnStreamService::new(
                |_ctx, _peer, _data: &[u8]| b"SSH-2.0-dropbear_2017.75\r\n".to_vec(),
                "junk-banner",
            )),
        });
        (net, client)
    }

    #[test]
    fn band_members_share_attribution() {
        let (net, _client) = band_net(30);
        for addr in ["23.0.0.0", "23.1.2.3", "23.3.255.255"] {
            let (country, asn, _region) = net.plane().attribution(ip(addr));
            assert_eq!(country, CountryCode::new("CN"), "{addr}");
            assert_eq!(asn, Asn(64610), "{addr}");
        }
        // One past the band: falls through to the default attribution.
        let (country, asn, _region) = net.plane().attribution(ip("23.4.0.0"));
        assert_eq!(country, CountryCode::new("US"));
        assert_eq!(asn, Asn(0));
        assert_eq!(net.band_host_count(), 1 << 18);
    }

    #[test]
    fn bands_added_out_of_order_keep_their_regions() {
        let (mut net, _client) = band_net(36);
        net.add_host_band(HostBand {
            start: ip("22.0.0.0"),
            count: 16,
            country: CountryCode::new("DE"),
            asn: Asn(64611),
            port: 853,
            service: Arc::new(FnStreamService::new(
                |_ctx, _peer, _data: &[u8]| Vec::new(),
                "junk-silent",
            )),
        });
        let starts: Vec<Ipv4Addr> = net.bands().iter().map(|b| b.start).collect();
        assert_eq!(starts, [ip("22.0.0.0"), ip("23.0.0.0")]);
        for (addr, region) in [("22.0.0.15", Region::Europe), ("23.0.0.0", Region::Asia)] {
            assert_eq!(net.plane().attribution(ip(addr)).2, region, "{addr}");
        }
    }

    #[test]
    fn band_syn_probe_open_closed_filtered() {
        let (mut net, client) = band_net(31);
        let member = ip("23.2.0.77");
        let (outcome, _) = net.syn_probe(client, member, 853);
        assert_eq!(outcome, ProbeOutcome::Open);
        let (outcome, _) = net.syn_probe(client, member, 443);
        assert_eq!(outcome, ProbeOutcome::Closed);
        let (outcome, _) = net.syn_probe(client, ip("23.4.0.0"), 853);
        assert_eq!(outcome, ProbeOutcome::Filtered);
    }

    #[test]
    fn band_connect_reaches_shared_service() {
        let (mut net, client) = band_net(32);
        let mut conn = net.connect(client, ip("23.0.1.2"), 853).unwrap();
        let resp = conn.request(&mut net, b"anything").unwrap();
        assert_eq!(resp, b"SSH-2.0-dropbear_2017.75\r\n");
        conn.close(&mut net);

        let err = net.connect(client, ip("23.0.1.2"), 443).unwrap_err();
        assert_eq!(err.kind, ConnectErrorKind::Refused);
        assert!(err.elapsed < net.config().default_timeout);

        let err = net.connect(client, ip("23.4.0.0"), 853).unwrap_err();
        assert_eq!(err.kind, ConnectErrorKind::Timeout);
    }

    #[test]
    fn registered_host_shadows_band_member() {
        let (mut net, client) = band_net(33);
        let shadowed = ip("23.1.0.9");
        net.add_host(HostMeta::new(shadowed).country("JP").asn(64999));
        net.bind_tcp(
            shadowed,
            4444,
            Arc::new(FnStreamService::new(
                |_ctx, _peer, data: &[u8]| data.to_vec(),
                "echo",
            )),
        );
        let (country, asn, _region) = net.plane().attribution(shadowed);
        assert_eq!(country, CountryCode::new("JP"));
        assert_eq!(asn, Asn(64999));
        // The host's own port table wins: 853 is closed here even though
        // the surrounding band answers it.
        let (outcome, _) = net.syn_probe(client, shadowed, 853);
        assert_eq!(outcome, ProbeOutcome::Closed);
        let (outcome, _) = net.syn_probe(client, shadowed, 4444);
        assert_eq!(outcome, ProbeOutcome::Open);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_bands_panic() {
        let (mut net, _client) = band_net(34);
        net.add_host_band(HostBand {
            start: ip("23.3.255.255"),
            count: 2,
            country: CountryCode::new("DE"),
            asn: Asn(64611),
            port: 853,
            service: Arc::new(FnStreamService::new(
                |_ctx, _peer, _data: &[u8]| Vec::new(),
                "junk-silent",
            )),
        });
    }

    #[test]
    fn shard_local_state_is_per_fork_and_dropped_on_absorb() {
        let mut net = Network::new(NetworkConfig::default(), 35);
        // The "if present" accessor creates nothing.
        assert_eq!(net.shard_local_if_present(|n: &mut u64| *n), None);
        assert_eq!(net.shard_local_if_present(|n: &mut u64| *n), None);
        net.shard_local(|n: &mut u64| *n += 5);
        assert_eq!(net.shard_local_if_present(|n: &mut u64| *n), Some(5));

        let mut worker = net.fork_shard(1);
        assert_eq!(
            worker.shard_local_if_present(|n: &mut u64| *n),
            None,
            "a fork starts with no state"
        );
        worker.shard_local(|n: &mut u64| *n += 1);
        worker.shard_local(|s: &mut String| s.push('w'));
        assert_eq!(worker.shard_local(|n: &mut u64| *n), 1);
        assert_eq!(
            net.fork_shard(2).shard_local_if_present(|n: &mut u64| *n),
            None,
            "every fork is fresh"
        );

        net.absorb_shard(worker);
        assert_eq!(net.shard_local(|n: &mut u64| *n), 5, "worker value dropped");
        assert_eq!(net.shard_local_if_present(|s: &mut String| s.len()), None);
    }

    /// Draw `n` values from the network's current RNG.
    fn draws(net: &mut Network, n: usize) -> Vec<u64> {
        (0..n).map(|_| net.rng().gen()).collect()
    }

    #[test]
    fn with_rng_scopes_the_machine_stream() {
        let mut net = Network::new(NetworkConfig::default(), 1);
        net.reseed(41);
        let mut shard_ref = SmallRng::seed_from_u64(41);
        let mut machine_ref = SmallRng::seed_from_u64(7);
        let mut machine = SmallRng::seed_from_u64(7);

        assert_eq!(
            draws(&mut net, 2),
            [shard_ref.gen::<u64>(), shard_ref.gen()]
        );
        // Inside the scope every draw comes from the machine stream.
        let inside = net.with_rng(&mut machine, |net| draws(net, 3));
        let expected: Vec<u64> = (0..3).map(|_| machine_ref.gen()).collect();
        assert_eq!(inside, expected);
        // The shard stream resumes exactly where it stopped...
        assert_eq!(draws(&mut net, 1), [shard_ref.gen::<u64>()]);
        // ...and the machine stream advanced by exactly the scope's draws.
        assert_eq!(machine.gen::<u64>(), machine_ref.gen::<u64>());
    }

    #[test]
    fn with_rng_restores_on_early_return() {
        fn attempt(net: &mut Network, i: u32) -> Result<(), u32> {
            let _: u64 = net.rng().gen();
            if i == 1 {
                Err(i)
            } else {
                Ok(())
            }
        }
        let mut net = Network::new(NetworkConfig::default(), 1);
        net.reseed(42);
        let mut shard_ref = SmallRng::seed_from_u64(42);
        let mut machine_ref = SmallRng::seed_from_u64(9);
        let mut machine = SmallRng::seed_from_u64(9);

        // The closure leaves through `?` after two draws.
        let out: Result<(), u32> = net.with_rng(&mut machine, |net| {
            for i in 0..4 {
                attempt(net, i)?;
            }
            Ok(())
        });
        assert_eq!(out, Err(1));
        assert_eq!(
            draws(&mut net, 2),
            [shard_ref.gen::<u64>(), shard_ref.gen()]
        );
        for _ in 0..2 {
            let _: u64 = machine_ref.gen();
        }
        assert_eq!(machine.gen::<u64>(), machine_ref.gen::<u64>());
    }
}
