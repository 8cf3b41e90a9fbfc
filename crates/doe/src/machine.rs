//! Event-driven stub clients: the [`StubResolver`] connection-reuse and
//! timeout behaviour recast as a state machine on the shard event heap.
//!
//! The per-client loop version of a stub client ran its whole query
//! sequence back to back, so one worker could only hold one client's
//! state at a time. A [`StubMachine`] instead performs one bounded step
//! per fired event and schedules its successors, which lets a single
//! shard interleave millions of concurrent clients:
//!
//! * [`SchedEvent::Timer`] — think time elapsed; issue the next query.
//! * [`SchedEvent::Deliver`] — the in-flight response arrives; record the
//!   sample and arm the next think timer plus an idle-close guard.
//! * [`SchedEvent::IdleClose`] — the pooled connection sat idle past the
//!   configured window; expire it. The event carries the count of
//!   completed queries it was armed at, so a close whose connection has
//!   carried another query since is ignored (lazy cancellation): each
//!   completed query arms one close, and the count is its own generation.
//! * [`SchedEvent::Retransmit`] — a timed-out flight's backoff elapsed;
//!   try again, up to the attempt budget.
//!
//! Determinism: each machine owns a `SmallRng` seeded from
//! `mix_seed(salt, client_index)` and installs it in the [`Network`]
//! for every operation ([`Network::with_rng`]), so a client's draw
//! sequence is identical no matter how machines interleave or how many
//! shards the fleet is split across.
//!
//! Footprint: a million machines sit in one `Vec`, so a machine is
//! exactly 128 bytes, aligned to 64, and spans two cache lines, never
//! three. It stores nothing the run knows elsewhere: the dense index
//! arrives with every fired event, the answered count is the completed
//! count less the failed one, the reuse count is the resolver's, and an
//! answer's latency is summed when its delivery is scheduled, since only
//! that delivery can move a waiting machine on (DESIGN.md §7).

use crate::error::QueryError;
use crate::stub::{StubConfig, StubResolver};
use dnswire::{Name, RecordType, WireError};
use netsim::sched::{EventMachine, Fired, SchedEvent};
use netsim::{Network, SimDuration};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Fleet-wide pacing parameters, shared by every machine via `Arc`.
#[derive(Debug, Clone)]
pub struct StubPacing {
    /// Logical queries each client issues before finishing.
    pub queries_per_client: u32,
    /// Mean think time between a delivered answer and the next query
    /// (each gap is drawn from the client's own stream).
    pub think_mean: SimDuration,
    /// Idle window after which a pooled connection is closed.
    pub idle_close: SimDuration,
    /// Base retransmission backoff (scaled linearly by attempt).
    pub backoff: SimDuration,
    /// Total attempts per logical query (1 = never retransmit).
    pub max_attempts: u32,
    /// Query-name apex; names are unique per (client, query, attempt) so
    /// a resolver cache cannot couple machines on one shard (see
    /// [`query_name`]).
    pub apex: Name,
}

impl StubPacing {
    /// The fleet's pacing under `apex`: four queries per client, a 30 s
    /// mean think time, a 60 s idle window, a 2 s backoff and three
    /// attempts per query.
    pub fn new(apex: Name) -> Self {
        StubPacing {
            queries_per_client: 4,
            think_mean: SimDuration::from_secs(30),
            idle_close: SimDuration::from_secs(60),
            backoff: SimDuration::from_secs(2),
            max_attempts: 3,
            apex,
        }
    }
}

/// The name attempt `attempt` of a client's logical query `completed`
/// asks for: `q<completed>a<attempt>.c<client>.<apex>`. Both labels are
/// written on the stack, digits included, so the name is the only
/// allocation. Fails, as parsing the same text would, when `apex` leaves
/// no room for them.
pub fn query_name(
    completed: u32,
    attempt: u32,
    client: u64,
    apex: &Name,
) -> Result<Name, WireError> {
    let mut query = Label::default();
    query.prepend_decimal(attempt.into());
    query.prepend(b'a');
    query.prepend_decimal(completed.into());
    query.prepend(b'q');
    let mut owner = Label::default();
    owner.prepend_decimal(client);
    owner.prepend(b'c');
    apex.prepend_labels(&[query.as_bytes(), owner.as_bytes()])
}

/// One query-name label on the stack, written from its end so that
/// decimal digits, least significant first, land in order. The longest,
/// `q` and `a` each followed by a `u32`, is 22 octets.
#[derive(Default)]
struct Label {
    octets: [u8; 22],
    len: usize,
}

impl Label {
    fn prepend(&mut self, octet: u8) {
        self.len += 1;
        self.octets[self.octets.len() - self.len] = octet;
    }

    fn prepend_decimal(&mut self, mut n: u64) {
        loop {
            self.prepend(b'0' + (n % 10) as u8);
            n /= 10;
            if n == 0 {
                break;
            }
        }
    }

    fn as_bytes(&self) -> &[u8] {
        &self.octets[self.octets.len() - self.len..]
    }
}

/// Per-machine outcome counters; plain integers so fleet totals merge
/// associatively (bit-identical for any shard layout).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StubMachineStats {
    /// Logical queries completed (answered or finally failed).
    pub queries: u64,
    /// Queries that got an answer delivered.
    pub answered: u64,
    /// Queries that exhausted every attempt (or failed hard).
    pub failed: u64,
    /// Timeout errors observed (including ones later retried).
    pub timeouts: u64,
    /// Retransmit events fired.
    pub retransmits: u64,
    /// Idle-close events that actually expired a pooled connection.
    pub idle_closes: u64,
    /// Answered queries that rode a reused (pooled) connection.
    pub reused: u64,
    /// Sum of delivered-answer latencies, microseconds.
    pub latency_sum_us: u64,
}

impl StubMachineStats {
    /// Fold another machine's counters into this one (associative and
    /// commutative — fleet totals are shard-count invariant).
    pub fn absorb(&mut self, other: &StubMachineStats) {
        self.queries += other.queries;
        self.answered += other.answered;
        self.failed += other.failed;
        self.timeouts += other.timeouts;
        self.retransmits += other.retransmits;
        self.idle_closes += other.idle_closes;
        self.reused += other.reused;
        self.latency_sum_us += other.latency_sum_us;
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Between queries; a think timer (and possibly an idle-close guard)
    /// is pending.
    Idle,
    /// A query is in flight; its answer is scheduled for delivery.
    Waiting,
    /// All queries done; any still-heaped events are stale.
    Done,
}

/// One event-driven stub client: 128 bytes, two cache lines.
#[repr(align(64))]
pub struct StubMachine {
    rng: SmallRng,
    stub: StubResolver,
    pacing: Arc<StubPacing>,
    /// Timeout errors observed (including ones later retried).
    timeouts: u64,
    /// Retransmit events fired.
    retransmits: u64,
    /// Sum of answer latencies, µs, added as each delivery is scheduled.
    latency_sum_us: u64,
    /// Global client index (names, seeding); the /10 band caps it at 4M.
    client: u32,
    /// Logical queries completed so far; also the generation an
    /// idle-close guard is armed with.
    completed: u32,
    /// Completed queries that failed (≤ `completed`).
    failed: u32,
    /// Idle closes that expired a pooled connection (≤ `completed`).
    idle_closes: u32,
    src: Ipv4Addr,
    phase: Phase,
}

impl StubMachine {
    /// Build a machine for global client index `client` (names the
    /// queries); `rng_seed` is typically `mix_seed(salt, client)`.
    pub fn new(
        client: u32,
        src: Ipv4Addr,
        config: StubConfig,
        pacing: Arc<StubPacing>,
        rng_seed: u64,
    ) -> StubMachine {
        StubMachine {
            rng: SmallRng::seed_from_u64(rng_seed),
            stub: StubResolver::new(config),
            pacing,
            timeouts: 0,
            retransmits: 0,
            latency_sum_us: 0,
            client,
            completed: 0,
            failed: 0,
            idle_closes: 0,
            src,
            phase: Phase::Idle,
        }
    }

    /// Whether the machine has finished its query budget.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// The global client index the machine was built with.
    pub fn client_index(&self) -> u64 {
        self.client.into()
    }

    /// The machine's outcome counters, read by the fleet runner after the
    /// heap drains. Every completed query was either answered or failed,
    /// and the resolver counts the queries that rode a pooled connection.
    pub fn stats(&self) -> StubMachineStats {
        let completed = u64::from(self.completed);
        let failed = u64::from(self.failed);
        StubMachineStats {
            queries: completed,
            answered: completed - failed,
            failed,
            timeouts: self.timeouts,
            retransmits: self.retransmits,
            idle_closes: self.idle_closes.into(),
            reused: self.stub.reused_queries(),
            latency_sum_us: self.latency_sum_us,
        }
    }

    /// Kick the machine off: schedule its first think timer `delay`
    /// after the current virtual time. `index` is the machine's dense
    /// per-shard heap address, which every fired event carries back.
    pub fn start(&self, net: &mut Network, index: u64, delay: SimDuration) {
        net.schedule_after(delay, index, SchedEvent::Timer { token: 0 });
    }

    /// Issue attempt `attempt` of the current logical query. The machine
    /// RNG stands in for the shard stream for the duration, so the draw
    /// sequence belongs to this client alone. A name that cannot be built
    /// fails the attempt as a wire error before the stub draws anything.
    fn issue_query(&mut self, net: &mut Network, index: u64, attempt: u32) {
        let outcome = query_name(
            self.completed,
            attempt,
            self.client.into(),
            &self.pacing.apex,
        )
        .map_err(QueryError::Wire)
        .and_then(|name| {
            net.with_rng(&mut self.rng, |net| {
                self.stub.resolve(net, self.src, name, RecordType::A)
            })
        });
        match outcome {
            Ok(reply) => {
                // Only this delivery moves a waiting machine on, and it
                // fires before the heap drains: its latency can be summed
                // now.
                self.phase = Phase::Waiting;
                self.latency_sum_us += reply.latency.as_micros();
                net.schedule_after(
                    reply.latency,
                    index,
                    SchedEvent::Deliver {
                        token: self.completed,
                    },
                );
            }
            Err(e) => {
                let timed_out = e.is_timeout();
                if timed_out {
                    self.timeouts += 1;
                }
                if timed_out && attempt < self.pacing.max_attempts {
                    // The flight's wasted wait plus a linear backoff.
                    let delay = e.elapsed() + self.pacing.backoff * u64::from(attempt);
                    net.schedule_after(
                        delay,
                        index,
                        SchedEvent::Retransmit {
                            attempt: attempt + 1,
                        },
                    );
                } else {
                    self.failed += 1;
                    self.finish_query(net, index);
                }
            }
        }
    }

    /// A logical query just completed (answered or exhausted); advance
    /// to the next one or finish, arming think and idle-close events.
    fn finish_query(&mut self, net: &mut Network, index: u64) {
        self.completed += 1;
        if self.completed >= self.pacing.queries_per_client {
            self.phase = Phase::Done;
            // Clean close; later IdleClose events find the machine done.
            self.stub.expire_session(net);
            return;
        }
        self.phase = Phase::Idle;
        // Think gap: 0.2×–2.5× the mean, from this client's own stream.
        // With the default idle window at 2× the mean, a fifth of gaps
        // outlive the pooled connection — both reuse and idle expiry are
        // routinely exercised.
        let frac: f64 = self.rng.gen_range(0.2..2.5);
        let think = SimDuration::from_micros(
            (self.pacing.think_mean.as_micros() as f64 * frac).round() as u64,
        );
        net.schedule_after(
            think,
            index,
            SchedEvent::Timer {
                token: self.completed,
            },
        );
        // Clear-text UDP pools nothing; skipping its guard keeps
        // 1M-client heaps lean.
        if self.stub.pools_connection() {
            net.schedule_after(
                self.pacing.idle_close,
                index,
                SchedEvent::IdleClose {
                    generation: self.completed,
                },
            );
        }
    }
}

impl EventMachine for StubMachine {
    fn on_event(&mut self, net: &mut Network, fired: Fired) {
        if self.phase == Phase::Done {
            return; // stale events after completion
        }
        let index = fired.machine;
        match fired.event {
            SchedEvent::Timer { .. } => self.issue_query(net, index, 1),
            SchedEvent::Retransmit { attempt } => {
                self.retransmits += 1;
                self.issue_query(net, index, attempt);
            }
            SchedEvent::Deliver { .. } => {
                if self.phase == Phase::Waiting {
                    self.finish_query(net, index);
                }
            }
            SchedEvent::IdleClose { generation } => {
                // Lazy cancellation: only a close armed at the current
                // completed count, on an idle machine, expires the
                // pooled connection.
                if generation == self.completed && self.phase == Phase::Idle {
                    self.stub.expire_session(net);
                    self.idle_closes += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::do53::{Do53TcpService, Do53UdpService};
    use crate::dot::DotServerService;
    use crate::responder::{AuthoritativeServer, DnsResponder};
    use crate::stub::StubProfile;
    use dnswire::zone::Zone;
    use dnswire::RData;
    use netsim::sched::run_machines;
    use netsim::{
        mix_seed, HostMeta, Netblock, Network, NetworkConfig, PathDecision, PolicyRule, SrcMatch,
    };
    use std::sync::Arc;
    use tlssim::{CaHandle, DateStamp, KeyId, TlsServerConfig, TrustStore};

    fn now() -> DateStamp {
        DateStamp::from_ymd(2019, 2, 1)
    }

    fn pop_example() -> Name {
        Name::parse("pop.example").unwrap()
    }

    fn fleet_net(seed: u64) -> (Network, Ipv4Addr, TrustStore) {
        let mut net = Network::new(NetworkConfig::default(), seed);
        let resolver: Ipv4Addr = "9.9.9.9".parse().unwrap();
        net.add_host(HostMeta::new(resolver).country("US").asn(19281).anycast());
        let apex = pop_example();
        let mut zone = Zone::new(apex.clone());
        zone.add_record(
            &apex.prepend("*").unwrap(),
            60,
            RData::A("203.0.113.13".parse().unwrap()),
        );
        let responder: Arc<dyn DnsResponder> = Arc::new(AuthoritativeServer::new(vec![zone]));
        net.bind_udp(
            resolver,
            53,
            Arc::new(Do53UdpService::new(Arc::clone(&responder))),
        );
        net.bind_tcp(
            resolver,
            53,
            Arc::new(Do53TcpService::new(Arc::clone(&responder))),
        );
        let ca = CaHandle::new("Quad9 CA", KeyId(1), now() + -100, 3650);
        let mut store = TrustStore::new();
        store.add(ca.authority());
        let leaf = ca.issue(
            "dns.quad9.net",
            vec![],
            KeyId(2),
            1,
            now() + -10,
            now() + 365,
        );
        net.bind_tcp(
            resolver,
            853,
            Arc::new(DotServerService::new(
                TlsServerConfig::new(vec![leaf], KeyId(2)),
                responder,
            )),
        );
        (net, resolver, store)
    }

    fn machine(
        index: u32,
        net_resolver: Ipv4Addr,
        store: &TrustStore,
        profile: StubProfile,
        pacing: &Arc<StubPacing>,
    ) -> StubMachine {
        let src = Ipv4Addr::new(100, 64, (index / 250) as u8, (index % 250) as u8 + 1);
        StubMachine::new(
            index,
            src,
            StubConfig {
                resolver: net_resolver,
                profile,
                trust_store: store.clone(),
                now: now(),
                timeout: SimDuration::from_secs(5),
            },
            Arc::clone(pacing),
            mix_seed(4242, index.into()),
        )
    }

    #[test]
    fn stub_machine_fits_its_footprint_budget() {
        // The 1M-client fleet's RSS is this size times a million, and a
        // 64-byte-aligned 128-byte machine spans exactly two cache lines.
        assert_eq!(std::mem::size_of::<StubMachine>(), 128);
        assert_eq!(std::mem::align_of::<StubMachine>(), 64);
    }

    #[test]
    fn fleet_completes_with_reuse_and_idle_closes() {
        let (mut net, resolver, store) = fleet_net(5);
        let pacing = Arc::new(StubPacing {
            queries_per_client: 6,
            think_mean: SimDuration::from_secs(30),
            idle_close: SimDuration::from_secs(60),
            ..StubPacing::new(pop_example())
        });
        let mut machines: Vec<StubMachine> = (0..40)
            .map(|i| {
                let profile = if i % 2 == 0 {
                    StubProfile::ClearTextTcp
                } else {
                    StubProfile::StrictDot {
                        auth_name: "dns.quad9.net".into(),
                    }
                };
                machine(i, resolver, &store, profile, &pacing)
            })
            .collect();
        for (index, m) in (0..).zip(&machines) {
            m.start(&mut net, index, SimDuration::from_micros(index * 1_000));
        }
        run_machines(&mut net, &mut machines);
        assert_eq!(net.pending_events(), 0);

        let mut total = StubMachineStats::default();
        for m in &machines {
            assert!(m.is_done());
            total.absorb(&m.stats());
        }
        assert_eq!(total.queries, 40 * 6);
        assert_eq!(total.answered, 40 * 6, "healthy fleet answers everything");
        assert!(total.reused > 0, "pooled connections must be reused");
        assert!(
            total.idle_closes > 0,
            "long think gaps must expire sessions"
        );
        assert_eq!(total.timeouts, 0);

        // Scheduler telemetry saw every kind the run produced.
        let stats = net.sched_stats();
        assert!(stats.fired[0] > 0, "timer events");
        assert!(stats.fired[1] > 0, "deliver events");
        assert!(stats.fired[2] > 0, "idle-close events");
    }

    #[test]
    fn a_name_past_255_octets_fails_the_query_without_a_retry() {
        // A 249-octet apex leaves 6 octets, too few for `q0a1` and `c0`.
        let label = "x".repeat(58);
        let apex = [label.as_str(); 4].join(".");
        let apex = Name::parse(&format!("{apex}.pop.example")).unwrap();
        assert_eq!(
            query_name(0, 1, 0, &apex),
            Name::parse(&format!("q0a1.c0.{apex}"))
        );
        assert_eq!(query_name(0, 1, 0, &apex), Err(WireError::NameTooLong(257)));
        let (mut net, resolver, store) = fleet_net(8);
        let pacing = Arc::new(StubPacing {
            queries_per_client: 2,
            ..StubPacing::new(apex)
        });
        let mut machines = vec![machine(
            0,
            resolver,
            &store,
            StubProfile::ClearText,
            &pacing,
        )];
        machines[0].start(&mut net, 0, SimDuration::ZERO);
        run_machines(&mut net, &mut machines);
        let stats = machines[0].stats();
        assert_eq!((stats.queries, stats.failed), (2, 2));
        assert_eq!(
            (stats.answered, stats.timeouts, stats.retransmits),
            (0, 0, 0)
        );
    }

    #[test]
    fn blackholed_clients_retransmit_then_fail() {
        let (mut net, resolver, store) = fleet_net(6);
        // Drop everything from one client block: those stubs time out,
        // retransmit up to the attempt budget, then fail the query.
        net.policies_mut().push(
            PolicyRule::new("test blackhole", PathDecision::Blackhole).from_src(SrcMatch::Block(
                Netblock::new("100.64.0.0".parse().unwrap(), 24),
            )),
        );
        let pacing = Arc::new(StubPacing {
            queries_per_client: 2,
            max_attempts: 3,
            ..StubPacing::new(pop_example())
        });
        let mut machines: Vec<StubMachine> = (0..4)
            .map(|i| machine(i, resolver, &store, StubProfile::ClearText, &pacing))
            .collect();
        for (index, m) in (0..).zip(&machines) {
            m.start(&mut net, index, SimDuration::ZERO);
        }
        run_machines(&mut net, &mut machines);

        let mut total = StubMachineStats::default();
        for m in &machines {
            total.absorb(&m.stats());
        }
        assert_eq!(total.answered, 0);
        assert_eq!(total.failed, 4 * 2);
        assert_eq!(total.retransmits, 4 * 2 * 2, "two retries per query");
        assert_eq!(total.timeouts, 4 * 2 * 3, "every attempt timed out");
        assert!(net.sched_stats().fired[3] > 0, "retransmit events fired");
    }

    #[test]
    fn identical_seeds_are_bit_identical() {
        let run = || {
            let (mut net, resolver, store) = fleet_net(7);
            let pacing = Arc::new(StubPacing::new(pop_example()));
            let mut machines: Vec<StubMachine> = (0..16)
                .map(|i| {
                    machine(
                        i,
                        resolver,
                        &store,
                        StubProfile::StrictDot {
                            auth_name: "dns.quad9.net".into(),
                        },
                        &pacing,
                    )
                })
                .collect();
            for (index, m) in (0..).zip(&machines) {
                m.start(&mut net, index, SimDuration::ZERO);
            }
            run_machines(&mut net, &mut machines);
            machines.iter().map(StubMachine::stats).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
