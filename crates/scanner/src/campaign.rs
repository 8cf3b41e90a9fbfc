//! The ten-epoch longitudinal scanning campaign (§3.1): every 10 days from
//! Feb 1 to May 1 2019, sweep the space, verify DoT, classify certificates.

use crate::observation::{CertClass, ObservationTable};
use crate::sweep::{syn_sweep_sharded, AddressSpace, SweepStats};
use crate::verify::verify_resolvers_sharded;
use netsim::telemetry::Labels;
use netsim::Netblock;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use tlssim::DateStamp;
use worldgen::World;

/// Certificate-health histogram (Finding 1.2's buckets).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CertBuckets {
    /// Verifies against the trust store.
    pub valid: usize,
    /// Expired (or not yet valid).
    pub expired: usize,
    /// Self-signed.
    pub self_signed: usize,
    /// Broken/incomplete chain.
    pub broken_chain: usize,
    /// Signed by an untrusted CA.
    pub untrusted_ca: usize,
}

impl CertBuckets {
    /// Total invalid certificates.
    pub fn invalid(&self) -> usize {
        self.expired + self.self_signed + self.broken_chain + self.untrusted_ca
    }
}

/// What one scan epoch found.
#[derive(Debug, Clone)]
pub struct EpochSummary {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Scan date.
    pub date: DateStamp,
    /// Raw SYN sweep counters (the paper's "2 to 3 million hosts with
    /// port 853 open" corresponds to `stats.open`).
    pub stats: SweepStats,
    /// Verified open DoT resolvers.
    pub open_resolvers: usize,
    /// Open resolvers per country.
    pub by_country: BTreeMap<String, usize>,
    /// Open resolvers per provider key.
    pub by_provider: BTreeMap<String, usize>,
    /// Certificate buckets over open resolvers.
    pub certs: CertBuckets,
    /// Providers with at least one invalid certificate.
    pub providers_with_invalid: usize,
    /// Providers operating exactly one address.
    pub single_address_providers: usize,
    /// Open resolvers whose answers failed validation (dnsfilter-style).
    pub wrong_answer_resolvers: Vec<Ipv4Addr>,
    /// Open resolvers that appear in the public DoT list.
    pub in_public_list: usize,
    /// Full per-resolver observations, packed columnar (SoA) — at paper
    /// scale an epoch verifies 2–3M candidates, so boxing each one is not
    /// an option.
    pub observations: ObservationTable,
}

impl EpochSummary {
    /// Provider count.
    pub fn provider_count(&self) -> usize {
        self.by_provider.len()
    }

    /// Share of addresses owned by the largest `n` providers.
    pub fn top_provider_share(&self, n: usize) -> f64 {
        let mut counts: Vec<usize> = self.by_provider.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top: usize = counts.iter().take(n).sum();
        let total: usize = counts.iter().sum();
        if total == 0 {
            0.0
        } else {
            top as f64 / total as f64
        }
    }
}

/// The whole campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// One summary per epoch, in order.
    pub epochs: Vec<EpochSummary>,
}

impl CampaignReport {
    /// Country growth between the first and last epoch, as
    /// `(country, first, last, growth_percent)` sorted by first-epoch count
    /// — Table 2's columns.
    pub fn country_growth(&self) -> Vec<(String, usize, usize, f64)> {
        let (Some(first), Some(last)) = (self.epochs.first(), self.epochs.last()) else {
            return Vec::new();
        };
        let mut rows = Vec::new();
        let countries: BTreeSet<&String> = first
            .by_country
            .keys()
            .chain(last.by_country.keys())
            .collect();
        for cc in countries {
            let a = first.by_country.get(cc).copied().unwrap_or(0);
            let b = last.by_country.get(cc).copied().unwrap_or(0);
            let growth = if a == 0 {
                100.0 * b as f64
            } else {
                100.0 * (b as f64 - a as f64) / a as f64
            };
            rows.push((cc.clone(), a, b, growth));
        }
        rows.sort_by_key(|row| std::cmp::Reverse(row.1));
        rows
    }
}

/// The honest target space: every block the world routes servers in.
pub fn full_space(world: &World) -> AddressSpace {
    AddressSpace::new(world.scan_space.clone())
}

/// A whitelist-narrowed space for debug runs and unit tests: the /24s of
/// the scan space that are actually populated (zmap's `-w` file). Release
/// reproduction runs use [`full_space`].
pub fn compact_space(world: &World) -> AddressSpace {
    // Sorted, merged interval index over the scan space: membership for a
    // host is a binary search instead of a linear pass over every block
    // (the old scan was O(hosts × blocks)).
    let mut intervals: Vec<(u64, u64)> = world
        .scan_space
        .iter()
        .map(|b| {
            let start = u32::from(b.network()) as u64;
            (start, start + b.size() - 1)
        })
        .collect();
    intervals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match merged.last_mut() {
            Some(last) if s <= last.1 + 1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    let in_space = |ip: Ipv4Addr| {
        let v = u32::from(ip) as u64;
        let k = merged.partition_point(|&(s, _)| s <= v);
        k > 0 && v <= merged[k - 1].1
    };
    let mut blocks: BTreeSet<Netblock> = BTreeSet::new();
    for ip in world.net.host_ips() {
        if in_space(ip) {
            blocks.insert(Netblock::slash24(ip));
        }
    }
    // Include every resolver that may come online in later epochs.
    for r in &world.deployment.dot_resolvers {
        blocks.insert(Netblock::slash24(r.addr));
    }
    // Junk port-853 hosts live in shared host bands, invisible to
    // `host_ips`. A full band is millions of addresses; the compact
    // space samples the first /24 of each so debug-scale campaigns
    // still see the open-but-not-DoT population's classification mix.
    for band in world.net.bands() {
        blocks.insert(Netblock::slash24(band.start));
    }
    AddressSpace::new(blocks.into_iter().collect())
}

/// Run one epoch's sweep + verification against the world's current
/// state, split across `shards` workers. The summary is identical for
/// every shard count — both the sweep and the verification pass key their
/// randomness on the target, not the shard.
pub fn scan_epoch_sharded(
    world: &mut World,
    space: &AddressSpace,
    epoch: usize,
    seed: u64,
    shards: usize,
) -> EpochSummary {
    let date = world.epoch();
    let sources = world.scanner_sources.clone();
    let sweep = syn_sweep_sharded(
        &mut world.net,
        &sources,
        space,
        853,
        seed ^ (epoch as u64) << 32,
        shards,
    );
    let store = world.trust_store.clone();
    let apex = world.probe.apex.to_string();
    let apex = apex.trim_end_matches('.').to_string();
    let expected = world.probe.expected_a;
    let observations = verify_resolvers_sharded(
        &mut world.net,
        &sources,
        &sweep.open_addrs,
        &apex,
        expected,
        &store,
        date,
        &format!("e{epoch}"),
        shards,
    );

    let mut by_country: BTreeMap<String, usize> = BTreeMap::new();
    let mut by_provider: BTreeMap<String, usize> = BTreeMap::new();
    let mut provider_invalid: BTreeMap<String, bool> = BTreeMap::new();
    let mut certs = CertBuckets::default();
    let mut wrong_answer = Vec::new();
    let mut in_public = 0usize;
    let public: BTreeSet<Ipv4Addr> = world.deployment.public_dot_list.iter().copied().collect();

    for obs in observations.rows() {
        if !obs.is_open_resolver() {
            continue;
        }
        let (country, _asn, _region) = world.net.attribution(obs.addr);
        *by_country.entry(country.as_str().to_string()).or_default() += 1;
        if let Some(provider) = obs.provider {
            *by_provider.entry(provider.to_string()).or_default() += 1;
            let invalid = obs.cert.map(CertClass::is_invalid).unwrap_or(false);
            let entry = provider_invalid.entry(provider.to_string()).or_default();
            *entry = *entry || invalid;
        }
        match obs.cert {
            Some(CertClass::Valid) => certs.valid += 1,
            Some(CertClass::Expired) => certs.expired += 1,
            Some(CertClass::SelfSigned) => certs.self_signed += 1,
            Some(CertClass::InvalidChain) => certs.broken_chain += 1,
            Some(CertClass::UntrustedCa) => certs.untrusted_ca += 1,
            None => {}
        }
        if obs.answer_correct == Some(false) {
            wrong_answer.push(obs.addr);
        }
        if public.contains(&obs.addr) {
            in_public += 1;
        }
    }

    EpochSummary {
        epoch,
        date,
        stats: sweep.stats,
        open_resolvers: observations.open_resolvers(),
        single_address_providers: by_provider.values().filter(|&&n| n == 1).count(),
        providers_with_invalid: provider_invalid.values().filter(|&&v| v).count(),
        by_country,
        by_provider,
        certs,
        wrong_answer_resolvers: wrong_answer,
        in_public_list: in_public,
        observations,
    }
}

/// Run the full campaign: `epochs` scans at the configured cadence, each
/// epoch's sweep and verification split across `shards` workers. The
/// report is shard-count invariant.
pub fn run_campaign_sharded(
    world: &mut World,
    space: &AddressSpace,
    epochs: usize,
    seed: u64,
    shards: usize,
) -> CampaignReport {
    let mut summaries = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        let date = world.config.scan_date(epoch);
        world.set_epoch(date);
        let summary = scan_epoch_sharded(world, space, epoch, seed, shards);
        // Per-epoch accounting lives in the registry, same store as the
        // sweep counters the summary itself is derived from.
        world
            .net
            .metrics_mut()
            .count("stage.campaign.epochs", Labels::empty(), 1);
        world.net.metrics_mut().count(
            "stage.campaign.open_resolvers",
            Labels::one("epoch", &format!("e{epoch}")),
            summary.open_resolvers as u64,
        );
        summaries.push(summary);
    }
    CampaignReport { epochs: summaries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use worldgen::WorldConfig;

    #[test]
    fn two_epoch_campaign_recovers_ground_truth_shape() {
        let mut world = World::build(WorldConfig::test_scale(7));
        let space = compact_space(&world);
        // First and last epoch only, to keep the test quick.
        let first_date = world.config.scan_date(0);
        world.set_epoch(first_date);
        let feb = scan_epoch_sharded(&mut world, &space, 0, 1, 1);
        let truth_feb = world.online_dot_resolvers();
        assert!(
            (feb.open_resolvers as i64 - truth_feb as i64).abs() <= truth_feb as i64 / 20,
            "measured {} vs truth {truth_feb}",
            feb.open_resolvers
        );

        let last_date = world.config.scan_date(9);
        world.set_epoch(last_date);
        let may = scan_epoch_sharded(&mut world, &space, 9, 1, 1);
        let truth_may = world.online_dot_resolvers();
        assert!(may.open_resolvers > feb.open_resolvers, "growth");
        assert!(
            (may.open_resolvers as i64 - truth_may as i64).abs() <= truth_may as i64 / 20,
            "measured {} vs truth {truth_may}",
            may.open_resolvers
        );

        // Table 2 shape: IE grows, CN collapses, US quadruples.
        let ie_feb = feb.by_country.get("IE").copied().unwrap_or(0);
        let ie_may = may.by_country.get("IE").copied().unwrap_or(0);
        assert!(
            ie_may as f64 > 1.7 * ie_feb as f64,
            "IE {ie_feb} → {ie_may}"
        );
        let cn_feb = feb.by_country.get("CN").copied().unwrap_or(0);
        let cn_may = may.by_country.get("CN").copied().unwrap_or(0);
        assert!(cn_may * 4 < cn_feb, "CN {cn_feb} → {cn_may}");

        // Finding 1.2: ~25% of providers hold an invalid certificate.
        let frac = may.providers_with_invalid as f64 / may.provider_count() as f64;
        assert!((0.15..0.40).contains(&frac), "invalid providers {frac}");
        // Cert buckets in paper proportion.
        assert!(may.certs.self_signed > may.certs.expired);
        assert!(may.certs.invalid() > 100, "{:?}", may.certs);

        // The long tail: most providers run one address; top providers
        // dominate.
        let singles = may.single_address_providers as f64 / may.provider_count() as f64;
        assert!(singles > 0.5, "singles {singles}");
        assert!(may.top_provider_share(5) > 0.6);

        // dnsfilter-style wrong answers observed.
        assert!(!may.wrong_answer_resolvers.is_empty());

        // Far more resolvers than the public list advertises.
        assert!(may.open_resolvers > may.in_public_list * 10);
    }
}
