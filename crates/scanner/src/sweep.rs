//! The port-853 SYN sweep over a target address space, optionally
//! parallelised zmap-style across shard workers.

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

/// A probe result tagged with its permutation cycle position, the key the
/// parent merges shard outputs on.
type TaggedProbe = (u64, Ipv4Addr, ProbeOutcome);

/// One shard's walk: probe every target whose cycle position this shard
/// owns, tagging each result with its position for the later merge.
fn sweep_shard(
    worker: &mut Network,
    sources: &[Ipv4Addr],
    space: &AddressSpace,
    port: u16,
    seed: u64,
    shard: u64,
    shards: u64,
) -> Vec<TaggedProbe> {
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
        hits.push((pos, addr, outcome));
    }
    hits
}

/// Run a SYN sweep of `port` over `space`, rotating probes across
/// `sources` (the paper used three hosts on two clouds), split across
/// `shards` workers ([`Network::run_shards`]): shard `s` probes the cycle
/// positions `≡ s (mod shards)` of the scan permutation.
///
/// The result is bit-identical for every shard count (including 1):
/// per-target randomness is derived from the target's permuted index, and
/// shard outputs are merged back into cycle order.
pub fn syn_sweep_sharded(
    net: &mut Network,
    sources: &[Ipv4Addr],
    space: &AddressSpace,
    port: u16,
    seed: u64,
    shards: usize,
) -> SweepResult {
    assert!(!sources.is_empty(), "need at least one probe source");
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
    let outputs = net.run_shards(shards, |worker, s| {
        sweep_shard(worker, sources, space, port, seed, s as u64, shards as u64)
    });
    let mut tagged: Vec<TaggedProbe> = Vec::with_capacity(space.len() as usize);
    for hits in outputs {
        tagged.extend(hits);
    }
    tagged.sort_unstable_by_key(|&(pos, _, _)| pos);
    let open_addrs = tagged
        .into_iter()
        .filter(|&(_, _, outcome)| outcome == ProbeOutcome::Open)
        .map(|(_, addr, _)| addr)
        .collect();
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

    #[test]
    fn sharded_sweep_is_bit_identical_to_sequential() {
        let build = || {
            let mut net = Network::new(NetworkConfig::default(), 5);
            let srcs: Vec<Ipv4Addr> = ["198.51.100.1", "198.51.100.2", "203.0.113.1"]
                .iter()
                .map(|s| s.parse().unwrap())
                .collect();
            for &s in &srcs {
                net.add_host(HostMeta::new(s));
            }
            let space = AddressSpace::new(vec![block("10.7.0.0", 24)]);
            for i in [3u64, 10, 77, 200] {
                let addr = space.addr(i);
                net.add_host(HostMeta::new(addr));
                net.bind_tcp(
                    addr,
                    853,
                    Arc::new(FnStreamService::new(|_c, _p, d: &[u8]| d.to_vec(), "echo")),
                );
            }
            (net, srcs, space)
        };
        let (mut net1, srcs1, space) = build();
        let reference = syn_sweep_sharded(&mut net1, &srcs1, &space, 853, 42, 1);
        assert_eq!(reference.stats.open, 4);
        for shards in [2usize, 3, 8] {
            let (mut net, srcs, space) = build();
            let result = syn_sweep_sharded(&mut net, &srcs, &space, 853, 42, shards);
            assert_eq!(result.stats, reference.stats, "shards={shards}");
            assert_eq!(result.open_addrs, reference.open_addrs, "shards={shards}");
            // The parent absorbed every worker's counters.
            assert_eq!(net.shard_stats().probes, 256, "shards={shards}");
        }
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
