//! The port-853 SYN sweep over a target address space, optionally
//! parallelised zmap-style across shard workers.
//!
//! A full-space sweep probes 6.1M addresses to find 2–3M open hosts, so
//! nothing is kept per probe: a shard keeps only its open hits, 8 bytes
//! each (a `u32` cycle ordinal and the address), and the merge
//! interleaves them back into cycle order. The closed and filtered counts
//! come from the telemetry registry.

use crate::permutation::PermutationShard;
use netsim::telemetry::Labels;
use netsim::{mix_seed, Netblock, Network, ProbeOutcome};
use std::net::Ipv4Addr;

/// A concatenation of netblocks addressable by index — the sweep target
/// (`zmap`'s whitelist).
#[derive(Debug, Clone)]
pub struct AddressSpace {
    blocks: Vec<Netblock>,
    // Cumulative sizes for index→address mapping.
    offsets: Vec<u64>,
    total: u64,
}

impl AddressSpace {
    /// Build from blocks (order preserved; overlaps are the caller's
    /// problem and merely waste probes).
    pub fn new(blocks: Vec<Netblock>) -> Self {
        let mut offsets = Vec::with_capacity(blocks.len());
        let mut total = 0u64;
        for b in &blocks {
            offsets.push(total);
            total += b.size();
        }
        AddressSpace {
            blocks,
            offsets,
            total,
        }
    }

    /// Number of addresses covered.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True if no blocks.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `i`-th address.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn addr(&self, i: u64) -> Ipv4Addr {
        let idx = match self.offsets.binary_search(&i) {
            Ok(exact) => exact,
            Err(ins) => ins - 1,
        };
        self.blocks[idx].addr(i - self.offsets[idx])
    }
}

/// Sweep statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Addresses probed.
    pub probed: u64,
    /// SYN-ACKs received.
    pub open: u64,
    /// RSTs received.
    pub closed: u64,
    /// Silence.
    pub filtered: u64,
}

/// The sweep's findings.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Addresses with the port open, in discovery order.
    pub open_addrs: Vec<Ipv4Addr>,
    /// Counters.
    pub stats: SweepStats,
}

/// An open target as its shard found it: the shard-local ordinal of its
/// cycle position and its address. Shard `s` of `n` owns the positions
/// `j·n + s`, so ordinal `j` and the shard index together order the hits
/// of every shard in cycle order.
type OpenHit = (u32, Ipv4Addr);

/// One shard's walk: probe every target whose cycle position this shard
/// owns and keep the open ones, each with its ordinal for the merge.
fn sweep_shard(
    worker: &mut Network,
    sources: &[Ipv4Addr],
    space: &AddressSpace,
    port: u16,
    seed: u64,
    shard: u64,
    shards: u64,
) -> Vec<OpenHit> {
    let mut hits = Vec::new();
    let probe_us = worker
        .metrics_mut()
        .histogram("stage.sweep.probe_us", Labels::empty());
    for (pos, index) in PermutationShard::new(space.len(), seed, shard, shards) {
        let addr = space.addr(index);
        // Reseed per target (keyed on the permuted index, which is unique)
        // so an individual probe's randomness does not depend on which
        // shard — or how many shards — executed it.
        worker.reseed(mix_seed(seed, index));
        let src = sources[(index as usize) % sources.len()];
        let (outcome, elapsed) = worker.syn_probe(src, addr, port);
        worker.metrics_mut().observe(probe_us, elapsed.as_micros());
        if outcome == ProbeOutcome::Open {
            let ordinal = u32::try_from(pos / shards).expect("space fits a u32 ordinal");
            hits.push((ordinal, addr));
        }
    }
    hits
}

/// Merge the shards' open hits into cycle order: the next hit is the
/// least `(ordinal, shard)` among the shards' first unmerged hits.
fn merge_hits(shards: &[Vec<OpenHit>]) -> Vec<Ipv4Addr> {
    let mut open = Vec::with_capacity(shards.iter().map(Vec::len).sum());
    let mut next = vec![0usize; shards.len()];
    while let Some((_, s)) = shards
        .iter()
        .zip(&next)
        .enumerate()
        .filter_map(|(s, (hits, &k))| hits.get(k).map(|&(ordinal, _)| (ordinal, s)))
        .min()
    {
        open.push(shards[s][next[s]].1);
        next[s] += 1;
    }
    open
}

/// Run a SYN sweep of `port` over `space`, rotating probes across
/// `sources` (the paper used three hosts on two clouds), split across
/// `shards` workers ([`Network::run_shards`]): shard `s` probes the cycle
/// positions `≡ s (mod shards)` of the scan permutation.
///
/// The result is bit-identical for every shard count (including 1):
/// per-target randomness is derived from the target's permuted index, and
/// each shard returns only its open hits, which are merged back into
/// cycle order. Memory follows the open hosts, not the probes.
///
/// # Panics
/// Panics if `sources` is empty, or if `space` holds more than 2^32
/// addresses (a cycle ordinal is a `u32`).
pub fn syn_sweep_sharded(
    net: &mut Network,
    sources: &[Ipv4Addr],
    space: &AddressSpace,
    port: u16,
    seed: u64,
    shards: usize,
) -> SweepResult {
    assert!(!sources.is_empty(), "need at least one probe source");
    assert!(
        space.len() <= 1 << 32,
        "address space of {} targets overflows a u32 cycle ordinal",
        space.len()
    );
    let shards = shards.max(1);
    if space.is_empty() {
        return SweepResult {
            open_addrs: Vec::new(),
            stats: SweepStats::default(),
        };
    }
    // The registry is the one source of truth for probe counters: the
    // sweep's stats are the delta of the parent's `net.probe.*` counters
    // across the absorb, not a separately maintained tally.
    let before = net.shard_stats();
    let hits = net.run_shards(shards, |worker, s| {
        sweep_shard(worker, sources, space, port, seed, s as u64, shards as u64)
    });
    let open_addrs = merge_hits(&hits);
    let after = net.shard_stats();
    let delta = |a: u64, b: u64| a.saturating_sub(b);
    let stats = SweepStats {
        probed: delta(after.probes, before.probes),
        open: delta(after.open, before.open),
        closed: delta(after.closed, before.closed),
        filtered: delta(after.filtered, before.filtered),
    };
    SweepResult { open_addrs, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permutation::RandomPermutation;
    use netsim::service::FnStreamService;
    use netsim::{HostMeta, NetworkConfig};
    use std::sync::Arc;

    fn block(s: &str, len: u8) -> Netblock {
        Netblock::new(s.parse().unwrap(), len)
    }

    #[test]
    fn address_space_indexing() {
        let space = AddressSpace::new(vec![block("10.0.0.0", 30), block("192.168.1.0", 30)]);
        assert_eq!(space.len(), 8);
        assert_eq!(space.addr(0), "10.0.0.0".parse::<Ipv4Addr>().unwrap());
        assert_eq!(space.addr(3), "10.0.0.3".parse::<Ipv4Addr>().unwrap());
        assert_eq!(space.addr(4), "192.168.1.0".parse::<Ipv4Addr>().unwrap());
        assert_eq!(space.addr(7), "192.168.1.3".parse::<Ipv4Addr>().unwrap());
    }

    #[test]
    fn sweep_finds_exactly_the_open_hosts() {
        let mut net = Network::new(NetworkConfig::default(), 5);
        let src: Ipv4Addr = "198.51.100.1".parse().unwrap();
        net.add_host(HostMeta::new(src));
        let space = AddressSpace::new(vec![block("10.7.0.0", 24)]);
        // Three hosts: two with 853 open, one with only 80.
        for (i, port) in [(10u64, 853u16), (20, 853), (30, 80)] {
            let addr = space.addr(i);
            net.add_host(HostMeta::new(addr));
            net.bind_tcp(
                addr,
                port,
                Arc::new(FnStreamService::new(|_c, _p, d: &[u8]| d.to_vec(), "echo")),
            );
        }
        let result = syn_sweep_sharded(&mut net, &[src], &space, 853, 99, 1);
        assert_eq!(result.stats.probed, 256);
        assert_eq!(result.stats.open, 2);
        assert_eq!(result.stats.closed, 1); // the port-80 host RSTs on 853
        assert_eq!(result.stats.filtered, 253);
        let mut found = result.open_addrs.clone();
        found.sort();
        assert_eq!(found, vec![space.addr(10), space.addr(20)]);
    }

    /// A network with three probe sources in which exactly the targets
    /// at `open` indices of `space` have port 853 open.
    fn net_with_open(space: &AddressSpace, open: &[u64]) -> (Network, Vec<Ipv4Addr>) {
        let mut net = Network::new(NetworkConfig::default(), 5);
        let srcs: Vec<Ipv4Addr> = ["198.51.100.1", "198.51.100.2", "203.0.113.1"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        for &s in &srcs {
            net.add_host(HostMeta::new(s));
        }
        for &i in open {
            let addr = space.addr(i);
            net.add_host(HostMeta::new(addr));
            net.bind_tcp(
                addr,
                853,
                Arc::new(FnStreamService::new(|_c, _p, d: &[u8]| d.to_vec(), "echo")),
            );
        }
        (net, srcs)
    }

    /// A /24 and a /25: 384 targets in a 512-position cycle, so every
    /// shard skips positions and ordinals are not hit counts.
    fn uneven_space() -> AddressSpace {
        AddressSpace::new(vec![block("10.7.0.0", 24), block("10.9.0.0", 25)])
    }

    /// Sweeping at 1, 2, 3, 8 and 16 shards finds the open targets in the
    /// one-shard order, which is their order in the permutation's cycle,
    /// with the one-shard counters, and absorbs every worker's probes.
    fn assert_merged_in_cycle_order(space: &AddressSpace, open: &[u64]) {
        let cycle: Vec<Ipv4Addr> = RandomPermutation::new(space.len(), 42)
            .filter(|i| open.contains(i))
            .map(|i| space.addr(i))
            .collect();
        let (mut net, srcs) = net_with_open(space, open);
        let reference = syn_sweep_sharded(&mut net, &srcs, space, 853, 42, 1);
        assert_eq!(reference.open_addrs, cycle, "open={open:?}");
        assert_eq!(reference.stats.open, open.len() as u64);
        for shards in [2usize, 3, 8, 16] {
            let (mut net, srcs) = net_with_open(space, open);
            let result = syn_sweep_sharded(&mut net, &srcs, space, 853, 42, shards);
            assert_eq!(result.open_addrs, cycle, "shards={shards} open={open:?}");
            assert_eq!(result.stats, reference.stats, "shards={shards}");
            assert_eq!(net.shard_stats().probes, space.len(), "shards={shards}");
        }
    }

    #[test]
    fn sharded_sweep_is_bit_identical_to_sequential() {
        let space = AddressSpace::new(vec![block("10.7.0.0", 24)]);
        assert_merged_in_cycle_order(&space, &[3, 10, 77, 200]);
    }

    #[test]
    fn merge_keeps_cycle_order_with_empty_shards_and_more_shards_than_hits() {
        let space = uneven_space();
        // No hits at all: every shard returns nothing.
        assert_merged_in_cycle_order(&space, &[]);
        // One and two hits: most of 3, 8 and 16 shards are empty.
        assert_merged_in_cycle_order(&space, &[77]);
        assert_merged_in_cycle_order(&space, &[0, 383]);
        // Hits spread over many shards.
        assert_merged_in_cycle_order(&space, &[3, 10, 77, 128, 200, 255, 256, 300, 383]);
    }

    #[test]
    fn merge_keeps_cycle_order_when_the_last_hit_is_in_the_highest_shard() {
        let space = uneven_space();
        for shards in [2u64, 3, 8, 16] {
            let (_, first) = PermutationShard::new(space.len(), 42, 0, shards)
                .next()
                .unwrap();
            let (_, last) = PermutationShard::new(space.len(), 42, shards - 1, shards)
                .last()
                .unwrap();
            assert_merged_in_cycle_order(&space, &[first, last]);
        }
    }

    #[test]
    #[should_panic(expected = "overflows a u32 cycle ordinal")]
    fn a_space_past_two_to_the_32_addresses_is_refused() {
        let (mut net, srcs) = net_with_open(&uneven_space(), &[]);
        // Two /0 blocks: 2^33 targets, more cycle positions than a u32
        // ordinal can number at one shard.
        let space = AddressSpace::new(vec![block("0.0.0.0", 0), block("0.0.0.0", 0)]);
        syn_sweep_sharded(&mut net, &srcs, &space, 853, 42, 1);
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let build = || {
            let mut net = Network::new(NetworkConfig::default(), 5);
            let src: Ipv4Addr = "198.51.100.1".parse().unwrap();
            net.add_host(HostMeta::new(src));
            (net, src)
        };
        let space = AddressSpace::new(vec![block("10.9.0.0", 26)]);
        let (mut n1, s1) = build();
        let (mut n2, s2) = build();
        let r1 = syn_sweep_sharded(&mut n1, &[s1], &space, 853, 7, 1);
        let r2 = syn_sweep_sharded(&mut n2, &[s2], &space, 853, 7, 1);
        assert_eq!(r1.stats, r2.stats);
    }
}
