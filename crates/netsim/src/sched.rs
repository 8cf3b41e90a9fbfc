//! The deterministic discrete-event scheduler: a per-shard virtual-clock
//! event heap that lets one worker interleave millions of client state
//! machines without threads, wall-clock time or hash ordering.
//!
//! Ordering contract (DESIGN.md §7): events fire strictly in
//! `(SimInstant, schedule order)` order. Two events at the same instant
//! fire in the order they were scheduled — a *total* order, independent
//! of platform or shard layout. Virtual time never runs backwards: an
//! event scheduled before the last popped instant fires at that instant.
//! Nothing here reads a wall clock or iterates a hash map, so a seeded
//! run is bit-reproducible.
//!
//! The heap is a monotone radix heap on the instant in µs. Every pending
//! instant is at or after `last`, the instant of the last popped event,
//! and lands in one of 65 buckets by the highest bit in which it differs
//! from `last`. Each bucket is a FIFO, so equal instants keep schedule
//! order without a sequence number. A pop takes bucket 0 (the instants
//! equal to `last`); when that is empty, it advances `last` to the
//! smallest instant of the first non-empty bucket and spreads that
//! bucket, in order, over the empty buckets below it. Each move takes an
//! entry to a lower bucket, so an entry moves at most 64 times in all,
//! in sequential runs, where a binary heap sifts through twenty
//! cache-missing levels on every pop at a million pending events.
//!
//! Client legs use the heap through [`EventMachine`]: each simulated
//! client is a small state machine that, on every fired event, performs
//! one bounded step (send a query, accept a delivery, expire an idle
//! connection, retransmit) and schedules its successor events. The
//! [`run_machines`] driver pops events until the heap drains.

use crate::net::Network;
use crate::time::SimInstant;

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
    /// Dense per-shard index of the machine the event belongs to.
    pub machine: u64,
    /// The event itself.
    pub event: SchedEvent,
}

/// A pending event: 24 bytes. There is no sequence number, because a
/// bucket keeps its entries in schedule order.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// The (clamped) instant in µs since the epoch.
    at: u64,
    machine: u64,
    event: SchedEvent,
}

/// Bucket 0 holds instants equal to `last`; bucket `b ≥ 1` holds those
/// whose highest bit differing from `last` is bit `b − 1`.
const BUCKETS: usize = 65;

/// Capacity of a bucket's first block. Small, so that a heap of a few
/// dozen events (one per shaped privacy flow) stays a few kilobytes.
const FIRST_BLOCK: usize = 16;

/// Capacity of every later block.
const BLOCK: usize = 1024;

/// The end of a block chain.
const NONE: usize = usize::MAX;

/// The bucket an instant belongs to, given the last popped instant.
fn bucket_of(at: u64, last: u64) -> usize {
    (u64::BITS - (at ^ last).leading_zeros()) as usize
}

/// A fixed-capacity run of entries, linked into a bucket or a free list.
#[derive(Debug)]
struct Block {
    entries: Vec<Entry>,
    next: usize,
}

/// One radix-heap bucket: a FIFO chain of blocks, each full but the last.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: usize,
    tail: usize,
    /// Smallest instant held (`u64::MAX` when empty).
    min: u64,
}

const EMPTY: Bucket = Bucket {
    head: NONE,
    tail: NONE,
    min: u64::MAX,
};

/// Scheduler accounting, per shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Events scheduled, by [`SchedEvent::kind_index`].
    pub scheduled: [u64; SchedEvent::KIND_COUNT],
    /// Events fired, by kind.
    pub fired: [u64; SchedEvent::KIND_COUNT],
    /// Peak number of simultaneously-pending events for any single
    /// machine. Each machine's schedule pattern depends only on its own
    /// seeded stream, so the max over machines is shard-count invariant
    /// and safe to publish as the `sched.queue.depth` gauge.
    pub machine_peak: u32,
}

/// The per-shard event heap: a monotone radix heap (see the module
/// docs). Pure data structure: it orders events and counts them; the
/// virtual clock itself stays in `ShardCtx` (the [`Network`] advances it
/// to each popped event's instant).
///
/// Entries live in blocks from one pool. A block emptied by a pop or a
/// bucket spread goes to a free list and is reused, so a spread never
/// holds a large bucket and its redistributed copy at once: the heap
/// stays at about 24 bytes per pending event plus a block or two per
/// bucket, and once the pool covers the peak it allocates nothing.
#[derive(Debug)]
pub struct Scheduler {
    buckets: [Bucket; BUCKETS],
    /// Every block ever allocated, indexed by the chains.
    blocks: Vec<Block>,
    /// Free chains of emptied first-size and full-size blocks.
    free_first: usize,
    free: usize,
    /// Bit `b − 1` is set while bucket `b ≥ 1` holds entries.
    occupied: u64,
    /// The instant of the last popped event, in µs (0 before the first).
    last: u64,
    /// Next unread entry of bucket 0's head block.
    read: usize,
    len: usize,
    scheduled: [u64; SchedEvent::KIND_COUNT],
    fired: [u64; SchedEvent::KIND_COUNT],
    /// Pending-event count per dense machine index (includes lazily
    /// cancelled events until they pop — deterministic either way).
    outstanding: Vec<u32>,
    machine_peak: u32,
}

impl Default for Scheduler {
    fn default() -> Scheduler {
        Scheduler::new()
    }
}

impl Scheduler {
    /// An empty scheduler.
    pub fn new() -> Scheduler {
        Scheduler {
            buckets: [EMPTY; BUCKETS],
            blocks: Vec::new(),
            free_first: NONE,
            free: NONE,
            occupied: 0,
            last: 0,
            read: 0,
            len: 0,
            scheduled: [0; SchedEvent::KIND_COUNT],
            fired: [0; SchedEvent::KIND_COUNT],
            outstanding: Vec::new(),
            machine_peak: 0,
        }
    }

    /// Schedule `event` for `machine` at instant `at`. Events at equal
    /// instants fire in schedule order. An instant before the last
    /// popped event's is clamped to it, so the event fires next among
    /// those at that instant and virtual time never runs backwards.
    pub fn schedule(&mut self, at: SimInstant, machine: u64, event: SchedEvent) {
        self.scheduled[event.kind_index()] += 1;
        self.push(Entry {
            at: at.as_micros().max(self.last),
            machine,
            event,
        });
        self.len += 1;
        let mi = machine as usize;
        if mi >= self.outstanding.len() {
            self.outstanding.resize(mi + 1, 0);
        }
        self.outstanding[mi] += 1;
        if self.outstanding[mi] > self.machine_peak {
            self.machine_peak = self.outstanding[mi];
        }
    }

    /// Append `e` to its bucket (`e.at >= self.last`).
    fn push(&mut self, e: Entry) {
        let b = bucket_of(e.at, self.last);
        let tail = self.buckets[b].tail;
        match self.blocks.get_mut(tail) {
            Some(block) if block.entries.len() < block.entries.capacity() => {
                block.entries.push(e);
            }
            _ => {
                let id = self.take_block(tail == NONE);
                self.blocks[id].entries.push(e);
                match self.blocks.get_mut(tail) {
                    Some(block) => block.next = id,
                    None => self.buckets[b].head = id,
                }
                self.buckets[b].tail = id;
            }
        }
        let bucket = &mut self.buckets[b];
        bucket.min = bucket.min.min(e.at);
        if b > 0 {
            self.occupied |= 1 << (b - 1);
        }
    }

    /// A free block, first-size for a bucket's first block, full-size
    /// otherwise; allocated only when its free list is empty.
    fn take_block(&mut self, first: bool) -> usize {
        let free = if first {
            &mut self.free_first
        } else {
            &mut self.free
        };
        match self.blocks.get_mut(*free) {
            Some(block) => {
                let id = *free;
                *free = std::mem::replace(&mut block.next, NONE);
                id
            }
            None => {
                let capacity = if first { FIRST_BLOCK } else { BLOCK };
                self.blocks.push(Block {
                    entries: Vec::with_capacity(capacity),
                    next: NONE,
                });
                self.blocks.len() - 1
            }
        }
    }

    /// Empty block `id` and put it on the free list of its size.
    fn release(&mut self, id: usize) {
        if let Some(block) = self.blocks.get_mut(id) {
            block.entries.clear();
            let free = if block.entries.capacity() < BLOCK {
                &mut self.free_first
            } else {
                &mut self.free
            };
            block.next = std::mem::replace(free, id);
        }
    }

    /// Refill the empty bucket 0: advance `last` to the smallest instant
    /// of the first non-empty bucket and spread that bucket, in order,
    /// over the buckets below it (all empty). False when nothing is
    /// pending.
    fn refill(&mut self) -> bool {
        if self.occupied == 0 {
            return false;
        }
        let b = self.occupied.trailing_zeros() as usize + 1;
        self.occupied &= self.occupied - 1;
        let bucket = std::mem::replace(&mut self.buckets[b], EMPTY);
        self.last = bucket.min;
        let mut id = bucket.head;
        while let Some(block) = self.blocks.get_mut(id) {
            let next = block.next;
            let mut entries = std::mem::take(&mut block.entries);
            for e in entries.drain(..) {
                self.push(e);
            }
            self.blocks[id].entries = entries;
            self.release(id);
            id = next;
        }
        true
    }

    /// Pop the next event in `(at, schedule order)` order.
    pub fn pop(&mut self) -> Option<Fired> {
        if self.buckets[0].head == NONE && !self.refill() {
            return None;
        }
        let head = self.buckets[0].head;
        let block = self.blocks.get(head)?;
        let e = *block.entries.get(self.read)?;
        self.read += 1;
        if self.read == block.entries.len() {
            // The head block is used up: it is full, or it is the last.
            self.read = 0;
            self.buckets[0].head = block.next;
            if block.next == NONE {
                self.buckets[0].tail = NONE;
            }
            self.release(head);
        }
        self.len -= 1;
        self.fired[e.event.kind_index()] += 1;
        if let Some(n) = self.outstanding.get_mut(e.machine as usize) {
            *n = n.saturating_sub(1);
        }
        Some(Fired {
            at: SimInstant::from_micros(e.at),
            machine: e.machine,
            event: e.event,
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the heap is drained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Accounting snapshot.
    pub fn load_stats(&self) -> SchedStats {
        SchedStats {
            scheduled: self.scheduled,
            fired: self.fired,
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
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn at(us: u64) -> SimInstant {
        SimInstant::from_micros(us)
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
    fn an_instant_before_the_last_pop_fires_at_the_last_pop() {
        let mut s = Scheduler::new();
        s.schedule(at(10), 0, SchedEvent::Timer { token: 0 });
        assert_eq!(s.pop().map(|f| f.at), Some(at(10)));
        s.schedule(at(20), 1, SchedEvent::Timer { token: 1 });
        s.schedule(at(5), 2, SchedEvent::Timer { token: 2 });
        // The late event is clamped to 10 µs: it fires before the one at
        // 20 µs, and virtual time does not run backwards.
        let order: Vec<(SimInstant, u64)> = std::iter::from_fn(|| s.pop())
            .map(|f| (f.at, f.machine))
            .collect();
        assert_eq!(order, vec![(at(10), 2), (at(20), 1)]);
    }

    #[test]
    fn stats_count_by_kind_and_track_peaks() {
        let mut s = Scheduler::new();
        s.schedule(at(1), 0, SchedEvent::Timer { token: 0 });
        s.schedule(at(2), 0, SchedEvent::Deliver { token: 0 });
        s.schedule(at(3), 1, SchedEvent::IdleClose { generation: 0 });
        assert_eq!(s.load_stats().scheduled, [1, 1, 1, 0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.load_stats().machine_peak, 2, "machine 0 had two pending");
        s.pop();
        s.pop();
        s.pop();
        assert_eq!(s.load_stats().fired, [1, 1, 1, 0]);
        assert!(s.is_empty());
        assert_eq!(s.pop(), None);
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

    /// The ordering the radix heap replaced, kept as the reference: a
    /// binary min-heap on `(instant, schedule index)`, with the instant
    /// clamped to the last popped one.
    #[derive(Default)]
    struct Model {
        heap: BinaryHeap<Reverse<(u64, usize)>>,
        scheduled: Vec<(u64, SchedEvent)>,
        last: u64,
    }

    impl Model {
        fn schedule(&mut self, at: u64, machine: u64, event: SchedEvent) {
            let key = (at.max(self.last), self.scheduled.len());
            self.heap.push(Reverse(key));
            self.scheduled.push((machine, event));
        }

        fn pop(&mut self) -> Option<(u64, u64, SchedEvent)> {
            let Reverse((at, i)) = self.heap.pop()?;
            self.last = at;
            let (machine, event) = self.scheduled[i];
            Some((at, machine, event))
        }
    }

    /// A scheduler and the model, fed the same operations.
    #[derive(Default)]
    struct Lockstep {
        sched: Scheduler,
        model: Model,
    }

    type Popped = Option<(u64, u64, SchedEvent)>;

    impl Lockstep {
        fn schedule(&mut self, at: u64, machine: u64, event: SchedEvent) {
            self.sched
                .schedule(SimInstant::from_micros(at), machine, event);
            self.model.schedule(at, machine, event);
        }

        /// What the scheduler and the model pop next.
        fn pop(&mut self) -> (Popped, Popped) {
            let got = self.sched.pop();
            let got = got.map(|f| (f.at.as_micros(), f.machine, f.event));
            (got, self.model.pop())
        }
    }

    /// Pop from both sides and check that they agree; true if an event
    /// fired.
    fn pops_agree(l: &mut Lockstep) -> Result<bool, TestCaseError> {
        let (got, want) = l.pop();
        prop_assert_eq!(got, want);
        Ok(got.is_some())
    }

    /// One step of an interleaved script.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Schedule one event this far after the last popped instant.
        After(u64),
        /// Schedule this many events at one instant this far ahead.
        Burst(u64, u8),
        /// Schedule one event this far before the last popped instant.
        Past(u64),
        /// Schedule one event this far below `u64::MAX`.
        NearMax(u64),
        /// Pop up to this many events.
        Pop(u8),
        /// Pop until the heap is empty.
        Drain,
    }

    /// Script steps with fixed weights out of 64. Gaps are drawn both
    /// uniformly and log-uniformly over `0..2^40` µs; an instant near
    /// `u64::MAX` is rare, because once it pops every later instant
    /// clamps up to it.
    fn op() -> impl Strategy<Value = Op> {
        (0u8..64, any::<u64>(), any::<u64>()).prop_map(|(pick, a, b)| match pick {
            0 => Op::NearMax(a % 1024),
            1..=3 => Op::Drain,
            4..=15 => Op::Pop((a % 8) as u8 + 1),
            16..=21 => Op::Burst(a % (1 << 20), (b % 32) as u8 + 1),
            22..=25 => Op::Past(a % (1 << 20) + 1),
            26..=29 => Op::After(0),
            30..=45 => Op::After(a % (1 << 40)),
            _ => Op::After(a % (1 << (b % 41))),
        })
    }

    proptest! {
        /// Same schedule sequence ⇒ same pop sequence, and the pop
        /// sequence is sorted by instant with schedule order breaking
        /// every tie.
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
                    (w[0].at, w[0].machine) < (w[1].at, w[1].machine),
                    "pop order must be strictly increasing in (at, schedule index)"
                );
            }
        }

        /// Interleaved schedule/pop scripts (bursts at one instant, zero
        /// delays, past instants, gaps across 2^40 µs, instants near
        /// `u64::MAX`, drains to empty and refills) pop exactly what the
        /// reference model pops, and every scheduled event fires once.
        #[test]
        fn interleaved_ops_match_the_reference_model(
            script in proptest::collection::vec(op(), 1..300),
        ) {
            let mut l = Lockstep::default();
            let mut token = 0u32;
            let mut fired = 0u32;
            for (i, &op) in script.iter().enumerate() {
                prop_assert_eq!(l.sched.len(), l.model.heap.len());
                let now = l.model.last;
                let (at, count) = match op {
                    Op::Pop(n) => {
                        for _ in 0..n {
                            fired += u32::from(pops_agree(&mut l)?);
                        }
                        continue;
                    }
                    Op::Drain => {
                        while pops_agree(&mut l)? {
                            fired += 1;
                        }
                        continue;
                    }
                    Op::After(gap) => (now.saturating_add(gap), 1),
                    Op::Burst(gap, n) => (now.saturating_add(gap), n),
                    Op::Past(back) => (now.saturating_sub(back), 1),
                    Op::NearMax(below) => (u64::MAX - below, 1),
                };
                for _ in 0..count {
                    l.schedule(at, i as u64 % 32, SchedEvent::Deliver { token });
                    token += 1;
                }
            }
            while pops_agree(&mut l)? {
                fired += 1;
            }
            prop_assert_eq!(fired, token, "every scheduled event fires once");
        }
    }

    /// A seeded run shaped like the stub fleet pops exactly what the
    /// reference model pops: 50,000 machines start over one second, and
    /// each sends two queries answered after whole milliseconds (so
    /// deliveries share instants), with a 6–75 s think timer between.
    #[test]
    fn stub_shaped_run_matches_the_reference_model() {
        const MACHINES: u64 = 50_000;
        let mut rng = SmallRng::seed_from_u64(2019);
        let mut l = Lockstep::default();
        for m in 0..MACHINES {
            let start = rng.gen_range(0..1_000_000u64);
            l.schedule(start, m, SchedEvent::Timer { token: 0 });
        }
        let mut fired = 0;
        loop {
            let (got, want) = l.pop();
            assert_eq!(got, want, "event {fired}");
            let Some((now, machine, event)) = got else {
                break;
            };
            fired += 1;
            match event {
                SchedEvent::Timer { token } => {
                    let rtt = 1_000 * rng.gen_range(1..300u64);
                    l.schedule(now + rtt, machine, SchedEvent::Deliver { token });
                }
                SchedEvent::Deliver { token: 0 } => {
                    let think = rng.gen_range(6_000_000..75_000_000u64);
                    l.schedule(now + think, machine, SchedEvent::Timer { token: 1 });
                }
                _ => {}
            }
        }
        assert_eq!(fired, 4 * MACHINES);
    }
}
