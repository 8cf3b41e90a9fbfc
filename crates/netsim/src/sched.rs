//! The deterministic discrete-event scheduler: a per-shard virtual-clock
//! event heap that lets one worker interleave millions of client state
//! machines without threads, wall-clock time or hash ordering.
//!
//! Ordering contract (DESIGN.md §7): events fire strictly in
//! `(SimInstant, seq)` order, where `seq` is a per-shard monotone counter
//! assigned at schedule time. Two events at the same instant therefore
//! fire in the order they were scheduled — a *total* order, independent
//! of heap internals, platform, or shard layout. Nothing here reads a
//! wall clock or iterates a hash map, so a seeded run is bit-reproducible.
//!
//! Client legs use the heap through [`EventMachine`]: each simulated
//! client is a small state machine that, on every fired event, performs
//! one bounded step (send a query, accept a delivery, expire an idle
//! connection, retransmit) and schedules its successor events. The
//! [`run_machines`] driver pops events until the heap drains.

use crate::net::Network;
use crate::time::SimInstant;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The event taxonomy. Everything the client legs wait for is one of
/// these four; payloads are small copyable tokens the owning machine
/// interprets (lazy cancellation: a stale token is ignored, never
/// removed from the heap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedEvent {
    /// A machine-owned timer fired (think time, phase pacing, guards).
    Timer {
        /// Machine-interpreted discriminator for multiple timers.
        token: u32,
    },
    /// A previously-issued request's response arrives at the client.
    Deliver {
        /// Machine-interpreted request discriminator.
        token: u32,
    },
    /// A pooled connection's idle period elapsed and it should close.
    IdleClose {
        /// Reuse generation the close was armed for; the machine drops
        /// the event if the connection has been used since (lazy cancel).
        generation: u32,
    },
    /// A lost flight's retransmission timer fired.
    Retransmit {
        /// 1-based attempt number about to be made.
        attempt: u32,
    },
}

impl SchedEvent {
    /// Number of event kinds (array-sized accounting).
    pub const KIND_COUNT: usize = 4;

    /// Kind names, indexed by [`SchedEvent::kind_index`].
    pub const KIND_NAMES: [&'static str; Self::KIND_COUNT] =
        ["timer", "deliver", "idle_close", "retransmit"];

    /// Dense index of this event's kind.
    pub fn kind_index(self) -> usize {
        match self {
            SchedEvent::Timer { .. } => 0,
            SchedEvent::Deliver { .. } => 1,
            SchedEvent::IdleClose { .. } => 2,
            SchedEvent::Retransmit { .. } => 3,
        }
    }

    /// Human-readable kind name (telemetry label).
    pub fn kind_name(self) -> &'static str {
        Self::KIND_NAMES[self.kind_index()]
    }
}

/// A fired event, as handed to [`EventMachine::on_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fired {
    /// The instant the event fired (the shard clock has been advanced
    /// to this value).
    pub at: SimInstant,
    /// The schedule-time sequence number (the tie-break key).
    pub seq: u64,
    /// Dense per-shard index of the machine the event belongs to.
    pub machine: u64,
    /// The event itself.
    pub event: SchedEvent,
}

/// Heap entry. `Ord` is *reversed* on `(at, seq)` so the std max-heap
/// behaves as a min-heap; `machine`/`event` never participate in the
/// ordering (seq alone breaks every tie).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    at: SimInstant,
    seq: u64,
    machine: u64,
    event: SchedEvent,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Scheduler accounting, per shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Events scheduled, by [`SchedEvent::kind_index`].
    pub scheduled: [u64; SchedEvent::KIND_COUNT],
    /// Events fired, by kind.
    pub fired: [u64; SchedEvent::KIND_COUNT],
    /// Peak heap depth on this shard. Layout-dependent (a shard holding
    /// more machines holds more pending events) — reported per shard,
    /// never merged into the shard-invariant registry.
    pub peak_depth: usize,
    /// Peak number of simultaneously-pending events for any single
    /// machine. Each machine's schedule pattern depends only on its own
    /// seeded stream, so the max over machines is shard-count invariant
    /// and safe to publish as the `sched.queue.depth` gauge.
    pub machine_peak: u32,
}

/// The per-shard event heap. Pure data structure: it orders events and
/// counts them; the virtual clock itself stays in `ShardCtx` (the
/// [`Network`] advances it to each popped event's instant).
#[derive(Debug, Default)]
pub struct Scheduler {
    heap: BinaryHeap<Entry>,
    next_seq: u64,
    scheduled: [u64; SchedEvent::KIND_COUNT],
    fired: [u64; SchedEvent::KIND_COUNT],
    peak_depth: usize,
    /// Pending-event count per dense machine index (includes lazily
    /// cancelled events until they pop — deterministic either way).
    outstanding: Vec<u32>,
    machine_peak: u32,
}

impl Scheduler {
    /// An empty scheduler.
    pub fn new() -> Scheduler {
        Scheduler::default()
    }

    /// Schedule `event` for `machine` at instant `at`; returns the
    /// assigned sequence number. Events at equal instants fire in
    /// schedule order.
    pub fn schedule(&mut self, at: SimInstant, machine: u64, event: SchedEvent) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled[event.kind_index()] += 1;
        self.heap.push(Entry {
            at,
            seq,
            machine,
            event,
        });
        if self.heap.len() > self.peak_depth {
            self.peak_depth = self.heap.len();
        }
        let mi = machine as usize;
        if mi >= self.outstanding.len() {
            self.outstanding.resize(mi + 1, 0);
        }
        self.outstanding[mi] += 1;
        if self.outstanding[mi] > self.machine_peak {
            self.machine_peak = self.outstanding[mi];
        }
        seq
    }

    /// Pop the next event in `(at, seq)` order.
    pub fn pop(&mut self) -> Option<Fired> {
        let e = self.heap.pop()?;
        self.fired[e.event.kind_index()] += 1;
        if let Some(n) = self.outstanding.get_mut(e.machine as usize) {
            *n = n.saturating_sub(1);
        }
        Some(Fired {
            at: e.at,
            seq: e.seq,
            machine: e.machine,
            event: e.event,
        })
    }

    /// Instant of the next pending event, if any.
    pub fn peek_at(&self) -> Option<SimInstant> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap is drained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Accounting snapshot.
    pub fn load_stats(&self) -> SchedStats {
        SchedStats {
            scheduled: self.scheduled,
            fired: self.fired,
            peak_depth: self.peak_depth,
            machine_peak: self.machine_peak,
        }
    }
}

/// A client state machine driven by scheduled events. Implementations
/// perform one bounded step per event and schedule their successors via
/// [`Network::schedule_after`]; per-client determinism comes from a
/// machine-owned RNG installed for the duration of each network
/// operation ([`Network::with_rng`]).
pub trait EventMachine {
    /// Handle one fired event addressed to this machine.
    fn on_event(&mut self, net: &mut Network, fired: Fired);
}

/// Drive `machines` until the shard's event heap drains. `fired.machine`
/// indexes into the slice; events addressed past its end are dropped
/// (machines must only schedule for indices they own). On completion the
/// shard-invariant `sched.queue.depth` gauge is recorded.
pub fn run_machines<M: EventMachine>(net: &mut Network, machines: &mut [M]) {
    while let Some(fired) = net.next_event() {
        if let Some(m) = machines.get_mut(fired.machine as usize) {
            m.on_event(net, fired);
        }
    }
    net.record_sched_gauge();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    fn at(us: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule(at(30), 0, SchedEvent::Timer { token: 0 });
        s.schedule(at(10), 1, SchedEvent::Timer { token: 1 });
        s.schedule(at(20), 2, SchedEvent::Timer { token: 2 });
        let order: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|f| f.machine).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn equal_instants_fire_in_schedule_order() {
        let mut s = Scheduler::new();
        for m in 0..64u64 {
            s.schedule(at(5), m, SchedEvent::Deliver { token: m as u32 });
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|f| f.machine).collect();
        assert_eq!(order, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn seq_numbers_are_monotone_and_returned() {
        let mut s = Scheduler::new();
        let a = s.schedule(at(1), 0, SchedEvent::Timer { token: 0 });
        let b = s.schedule(at(1), 0, SchedEvent::Retransmit { attempt: 1 });
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.pop().unwrap().seq, 0);
        assert_eq!(s.pop().unwrap().seq, 1);
    }

    #[test]
    fn stats_count_by_kind_and_track_peaks() {
        let mut s = Scheduler::new();
        s.schedule(at(1), 0, SchedEvent::Timer { token: 0 });
        s.schedule(at(2), 0, SchedEvent::Deliver { token: 0 });
        s.schedule(at(3), 1, SchedEvent::IdleClose { generation: 0 });
        assert_eq!(s.load_stats().scheduled, [1, 1, 1, 0]);
        assert_eq!(s.load_stats().peak_depth, 3);
        assert_eq!(s.load_stats().machine_peak, 2, "machine 0 had two pending");
        s.pop();
        s.pop();
        s.pop();
        assert_eq!(s.load_stats().fired, [1, 1, 1, 0]);
        assert!(s.is_empty());
        assert_eq!(s.peek_at(), None);
    }

    #[test]
    fn kind_names_match_indices() {
        let events = [
            SchedEvent::Timer { token: 0 },
            SchedEvent::Deliver { token: 0 },
            SchedEvent::IdleClose { generation: 0 },
            SchedEvent::Retransmit { attempt: 1 },
        ];
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.kind_index(), i);
            assert_eq!(e.kind_name(), SchedEvent::KIND_NAMES[i]);
        }
    }

    proptest! {
        /// Same schedule sequence ⇒ same pop sequence, and the pop
        /// sequence is sorted by (at, seq) with seq breaking every tie.
        #[test]
        fn pop_order_is_total_and_reproducible(
            times in proptest::collection::vec(0u64..50, 1..200),
        ) {
            let run = || {
                let mut s = Scheduler::new();
                for (i, &t) in times.iter().enumerate() {
                    s.schedule(at(t), i as u64, SchedEvent::Timer { token: i as u32 });
                }
                std::iter::from_fn(move || s.pop()).collect::<Vec<Fired>>()
            };
            let a = run();
            let b = run();
            prop_assert_eq!(&a, &b, "identical schedules must pop identically");
            for w in a.windows(2) {
                prop_assert!(
                    (w[0].at, w[0].seq) < (w[1].at, w[1].seq),
                    "pop order must be strictly increasing in (at, seq)"
                );
            }
        }

        /// Interleaved schedule/pop streams driven by a seeded script are
        /// reproducible and never fire an event before a later-scheduled
        /// one at an earlier instant.
        #[test]
        fn interleaved_ops_are_deterministic(
            script in proptest::collection::vec((0u64..100, any::<bool>()), 1..200),
        ) {
            let run = || {
                let mut s = Scheduler::new();
                let mut fired = Vec::new();
                for (i, &(t, do_pop)) in script.iter().enumerate() {
                    s.schedule(at(t), i as u64, SchedEvent::Deliver { token: i as u32 });
                    if do_pop {
                        if let Some(f) = s.pop() {
                            fired.push(f);
                        }
                    }
                }
                while let Some(f) = s.pop() {
                    fired.push(f);
                }
                fired
            };
            let a = run();
            prop_assert_eq!(a.len(), script.len(), "every scheduled event fires once");
            prop_assert_eq!(a, run());
        }
    }
}
