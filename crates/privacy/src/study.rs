//! The sharded padding-leakage experiment.
//!
//! Replays the closed-world workload once per policy, extracts and
//! shapes each flow's message sequence, then evaluates the k-NN
//! adversary per policy and measures bandwidth/latency overhead against
//! the unpadded baseline.
//!
//! Determinism: a flow is the unit of work. Each flow seeds its own RNG
//! from `mix_seed(salt, flow_index)`, installs it in its shard's network
//! for every session operation (`Network::with_rng`), and uses fresh
//! clients, so a flow's observation depends on its index alone — never
//! on which shard ran it or what ran before it. The merge is a sort by
//! `(policy, domain, sample)`, so the report is bit-identical for any
//! shard count.

use crate::classifier::{evaluate_closed_world, LabeledTrace};
use crate::sequence::MessageSequence;
use crate::shaper::shape_sequence;
use crate::workload::{self, PrivacyWorld};
use netsim::telemetry::Labels;
use netsim::{mix_seed, Network};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Knobs for one privacy-study run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrivacyConfig {
    /// Closed-world size: number of candidate domains.
    pub domains: u32,
    /// Observed visits (flows) per domain per policy.
    pub samples_per_domain: u32,
    /// Of those, how many train the adversary; the rest are tested.
    pub train_per_domain: u32,
    /// Size-bucket width for the classifier alphabet, bytes.
    pub size_bucket: u32,
    /// Neighbours in the k-NN vote.
    pub k: usize,
}

impl PrivacyConfig {
    /// CI-scale configuration.
    pub fn quick() -> Self {
        PrivacyConfig {
            domains: 20,
            samples_per_domain: 8,
            train_per_domain: 6,
            size_bucket: 16,
            k: 3,
        }
    }

    /// Paper-scale configuration.
    pub fn paper() -> Self {
        PrivacyConfig {
            domains: 40,
            samples_per_domain: 12,
            train_per_domain: 8,
            size_bucket: 16,
            k: 3,
        }
    }
}

/// One flow's processed observation, as merged across shards.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FlowResult {
    policy: u8,
    domain: u32,
    sample: u32,
    symbols: Vec<u16>,
    wire_bytes: u64,
    dummy_cells: u64,
    latency_added_us: u64,
    messages: u64,
}

/// Per-policy outcome of the experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyReport {
    /// Policy label (see `PaddingPolicy::label`).
    pub policy: &'static str,
    /// Closed-world classifier accuracy, ‰ of tested flows.
    pub accuracy_permille: u32,
    /// Correctly attributed test flows.
    pub correct: u64,
    /// Tested flows.
    pub tested: u64,
    /// Total on-wire bytes across the policy's flows (after shaping).
    pub wire_bytes: u64,
    /// Bytes relative to the unpadded baseline, ‰ (1000 = parity).
    pub bandwidth_overhead_permille: u32,
    /// Dummy cells injected by the policy's shaper.
    pub dummy_cells: u64,
    /// Mean added queueing latency per flow, µs (constant-rate only).
    pub latency_added_us_mean: u64,
    /// Total messages the observer saw (real + dummy).
    pub messages: u64,
}

/// The merged experiment report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrivacyReport {
    /// Closed-world size.
    pub domains: u32,
    /// Flows per domain per policy.
    pub samples_per_domain: u32,
    /// Total flows simulated (all policies).
    pub flows: u64,
    /// Random-guess baseline, ‰.
    pub random_guess_permille: u32,
    /// Per-policy results, in [`workload::policies`] order.
    pub policies: Vec<PolicyReport>,
}

/// Whether sample `s` of a domain rides DoH instead of DoT (a small,
/// deterministic minority — the paper's client mix is DoT-heavy).
fn is_doh_sample(sample: u32) -> bool {
    sample % 6 == 5
}

/// Run one flow on its shard's worker network.
fn run_flow(
    worker: &mut Network,
    world: &PrivacyWorld,
    cfg: &PrivacyConfig,
    salt: u64,
    flow: u64,
) -> FlowResult {
    let per_policy = u64::from(cfg.domains) * u64::from(cfg.samples_per_domain);
    let policy_idx = (flow / per_policy) as usize;
    let domain = ((flow % per_policy) / u64::from(cfg.samples_per_domain)) as u32;
    let sample = (flow % u64::from(cfg.samples_per_domain)) as u32;
    let leg = &world.legs[policy_idx];
    let plan = workload::sample_plan(domain, sample);

    let mut rng = SmallRng::seed_from_u64(mix_seed(salt, flow));
    let observed = worker.with_rng(&mut rng, |worker| {
        if is_doh_sample(sample) {
            workload::run_doh_flow(worker, &world.store, leg, &plan)
        } else {
            workload::run_dot_flow(worker, &world.store, leg, &plan)
        }
    });
    // The world is self-built and closed: a transport error here is an
    // experiment bug, not a measurement outcome.
    let (tap, thinks) = observed.expect("privacy flow failed against self-built resolver");

    let seq = MessageSequence::extract(&tap, &thinks);
    let shaped = shape_sequence(leg.policy, &seq, mix_seed(salt ^ 0x5348_4150, flow));
    FlowResult {
        policy: policy_idx as u8,
        domain,
        sample,
        symbols: shaped.seq.symbols(cfg.size_bucket),
        wire_bytes: shaped.seq.wire_bytes(),
        dummy_cells: shaped.dummy_cells,
        latency_added_us: shaped.latency_added_us,
        messages: shaped.seq.len() as u64,
    }
}

/// Run the experiment over `shards` worker shards forked from `net`,
/// which must already carry the installed world
/// ([`workload::install`]); `net` receives the merged shard state and
/// the per-policy telemetry counters.
pub fn privacy_study_sharded(
    net: &mut Network,
    world: &PrivacyWorld,
    cfg: &PrivacyConfig,
    shards: usize,
) -> PrivacyReport {
    let shards = shards.max(1);
    let n_policies = world.legs.len();
    let per_policy = u64::from(cfg.domains) * u64::from(cfg.samples_per_domain);
    let flows_total = n_policies as u64 * per_policy;
    let salt = mix_seed(net.base_seed(), 0x7072_6976_6163_7921); // "privacy!"

    let run_shard = |worker: &mut Network, shard: usize| -> Vec<FlowResult> {
        let mut out = Vec::new();
        let mut flow = shard as u64;
        while flow < flows_total {
            out.push(run_flow(worker, world, cfg, salt, flow));
            flow += shards as u64;
        }
        out
    };

    let mut results: Vec<FlowResult> = Vec::with_capacity(flows_total as usize);
    for mut shard_results in net.run_shards(shards, run_shard) {
        results.append(&mut shard_results);
    }
    // The canonical order: flow identity, independent of shard layout.
    results.sort_by_key(|a| (a.policy, a.domain, a.sample));

    let report = aggregate(cfg, &results);

    let m = net.metrics_mut();
    for pr in &report.policies {
        let labels = Labels::one("policy", pr.policy);
        m.count("stage.privacy.flows", labels.clone(), per_policy);
        m.count("stage.privacy.wire_bytes", labels.clone(), pr.wire_bytes);
        m.count("stage.privacy.dummy_cells", labels.clone(), pr.dummy_cells);
        m.count("stage.privacy.messages", labels.clone(), pr.messages);
        m.count("stage.privacy.attributed", labels, pr.correct);
    }
    report
}

/// Classify and aggregate the sorted flow results.
fn aggregate(cfg: &PrivacyConfig, results: &[FlowResult]) -> PrivacyReport {
    let labels: Vec<&'static str> = workload::policies().iter().map(|p| p.label()).collect();
    let per_policy_flows = u64::from(cfg.domains) * u64::from(cfg.samples_per_domain);
    let mut policies = Vec::with_capacity(labels.len());
    let mut baseline_bytes = 0u64;
    for (p, label) in labels.iter().enumerate() {
        let slice: Vec<&FlowResult> = results.iter().filter(|r| r.policy == p as u8).collect();
        let mut train = Vec::new();
        let mut test = Vec::new();
        for r in &slice {
            let trace = LabeledTrace {
                domain: r.domain,
                symbols: r.symbols.clone(),
            };
            if r.sample < cfg.train_per_domain {
                train.push(trace);
            } else {
                test.push(trace);
            }
        }
        let (correct, tested) = evaluate_closed_world(&train, &test, cfg.k);
        let wire_bytes: u64 = slice.iter().map(|r| r.wire_bytes).sum();
        let dummy_cells: u64 = slice.iter().map(|r| r.dummy_cells).sum();
        let latency_total: u64 = slice.iter().map(|r| r.latency_added_us).sum();
        let messages: u64 = slice.iter().map(|r| r.messages).sum();
        if p == 0 {
            baseline_bytes = wire_bytes;
        }
        policies.push(PolicyReport {
            policy: label,
            accuracy_permille: (correct * 1000).checked_div(tested).unwrap_or(0) as u32,
            correct,
            tested,
            wire_bytes,
            bandwidth_overhead_permille: (wire_bytes * 1000)
                .checked_div(baseline_bytes)
                .unwrap_or(0) as u32,
            dummy_cells,
            latency_added_us_mean: latency_total.checked_div(per_policy_flows).unwrap_or(0),
            messages,
        });
    }
    PrivacyReport {
        domains: cfg.domains,
        samples_per_domain: cfg.samples_per_domain,
        flows: per_policy_flows * labels.len() as u64,
        random_guess_permille: 1000u32.checked_div(cfg.domains).unwrap_or(0),
        policies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::NetworkConfig;

    fn tiny() -> PrivacyConfig {
        PrivacyConfig {
            domains: 8,
            samples_per_domain: 5,
            train_per_domain: 3,
            size_bucket: 16,
            k: 3,
        }
    }

    fn run(shards: usize) -> PrivacyReport {
        let mut net = Network::new(NetworkConfig::default(), 4242);
        let world = workload::install(&mut net, tiny().domains);
        privacy_study_sharded(&mut net, &world, &tiny(), shards)
    }

    #[test]
    fn report_is_shard_invariant() {
        let one = run(1);
        let two = run(2);
        let four = run(4);
        assert_eq!(one, two);
        assert_eq!(one, four);
    }

    #[test]
    fn acceptance_ordering_holds() {
        let report = run(1);
        let by: std::collections::BTreeMap<&str, &PolicyReport> =
            report.policies.iter().map(|p| (p.policy, p)).collect();
        let none = by["none"];
        let block = by["block"];
        let adaptive = by["adaptive-padding"];
        let constant = by["constant-rate"];
        // The classifier beats random guessing handily on unpadded
        // traffic…
        assert!(
            none.accuracy_permille > report.random_guess_permille * 4,
            "unpadded accuracy {} vs random {}",
            none.accuracy_permille,
            report.random_guess_permille
        );
        // …RFC 8467 padding reduces but does not eliminate the leak…
        assert!(
            block.accuracy_permille < none.accuracy_permille,
            "block {} !< none {}",
            block.accuracy_permille,
            none.accuracy_permille
        );
        assert!(block.accuracy_permille > report.random_guess_permille);
        // …and shaping reduces it further, at measured bandwidth cost.
        assert!(constant.accuracy_permille <= block.accuracy_permille);
        assert!(constant.bandwidth_overhead_permille > block.bandwidth_overhead_permille);
        assert!(adaptive.bandwidth_overhead_permille > 1000);
        assert!(constant.dummy_cells > 0);
        assert!(adaptive.dummy_cells > 0);
        // Only the constant-rate shaper delays real traffic.
        assert!(constant.latency_added_us_mean > 0);
        assert_eq!(adaptive.latency_added_us_mean, 0);
        // Padding costs bytes: every countermeasure is above parity.
        assert!(block.bandwidth_overhead_permille > 1000);
    }

    #[test]
    fn telemetry_counts_flows_per_policy() {
        let mut net = Network::new(NetworkConfig::default(), 77);
        let cfg = tiny();
        let world = workload::install(&mut net, cfg.domains);
        privacy_study_sharded(&mut net, &world, &cfg, 2);
        let per_policy = u64::from(cfg.domains) * u64::from(cfg.samples_per_domain);
        for policy in [
            "none",
            "block",
            "random-block",
            "adaptive-padding",
            "constant-rate",
        ] {
            assert_eq!(
                net.metrics()
                    .counter_value("stage.privacy.flows", &Labels::one("policy", policy)),
                per_policy
            );
        }
    }
}
