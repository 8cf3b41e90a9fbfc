//! The capstone integration test: run every experiment of the study at
//! test scale and assert the *shape* of each result — who wins, by what
//! rough factor, where the crossovers fall — mirroring the paper's
//! findings. (Absolute values are compared in EXPERIMENTS.md, not here.)

use doe_core::experiments::{run, ALL_EXPERIMENTS};
use doe_core::{Study, StudyConfig};
use doe_privacy::{privacy_study_sharded, PrivacyConfig};
use netsim::{Network, NetworkConfig};

fn study() -> Study {
    Study::new(StudyConfig {
        epochs: 2,
        ..StudyConfig::quick(2019)
    })
}

#[test]
fn every_experiment_runs_and_produces_output() {
    let mut s = study();
    for id in ALL_EXPERIMENTS {
        let result = run(&mut s, id).unwrap_or_else(|| panic!("runner missing for {id}"));
        assert_eq!(result.id, id);
        assert!(
            result.rendered.len() > 80,
            "{id} rendered only {} bytes",
            result.rendered.len()
        );
        assert!(!result.json.is_null(), "{id} produced no JSON");
        // The expectation registry covers it.
        assert!(
            doe_core::expectation(id).is_some(),
            "{id} missing expectation entry"
        );
    }
}

#[test]
fn finding_1_shape_servers() {
    // Key observation 1: many small unlisted providers; a quarter of
    // providers with invalid certificates.
    let mut s = study();
    let campaign = s.campaign().clone();
    let last = campaign.epochs.last().unwrap();
    assert!(last.open_resolvers > 1_400, "paper: >1.5K per scan");
    assert!(
        last.open_resolvers > last.in_public_list * 10,
        "most resolvers absent from public lists"
    );
    let invalid_frac = last.providers_with_invalid as f64 / last.provider_count() as f64;
    assert!(
        (0.15..0.45).contains(&invalid_frac),
        "paper: ~25% providers invalid; got {invalid_frac}"
    );
    // Growth between the first and last scan (Figure 3's slope).
    let first = &campaign.epochs[0];
    assert!(last.open_resolvers > first.open_resolvers);
}

#[test]
fn finding_2_shape_reachability() {
    // Key observation 2: >99% reachability for DoE, in-path devices break
    // clear text far more than encrypted DNS.
    let mut s = study();
    let n = {
        let r = s.reach_global();
        r.clients_tested as f64
    };
    let r = s.reach_global().clone();
    use doe_vantage::reachability::TransportKind::*;
    let cf_dns_fail = r.cell("Cloudflare", Dns).failed as f64 / n;
    let cf_dot_fail = r.cell("Cloudflare", Dot).failed as f64 / n;
    let cf_doh_fail = r.cell("Cloudflare", Doh).failed as f64 / n;
    // DNS fails an order of magnitude more often than DoT, which fails
    // more than DoH (conflicts hit 1.1.1.1 but not the DoH front).
    assert!(
        cf_dns_fail > 5.0 * cf_dot_fail,
        "{cf_dns_fail} vs {cf_dot_fail}"
    );
    assert!(cf_dot_fail >= cf_doh_fail, "{cf_dot_fail} vs {cf_doh_fail}");
    assert!(cf_dot_fail < 0.05, "paper: ~1.1%");
    // Quad9 DoH: double-digit Incorrect (Finding 2.4).
    let q9_doh_incorrect = r.cell("Quad9", Doh).incorrect as f64 / n;
    assert!((0.05..0.25).contains(&q9_doh_incorrect));
    // Self-built: everything ≥97%.
    for t in [Dns, Dot, Doh] {
        assert!(r.cell("Self-built", t).correct as f64 / n > 0.97);
    }
}

#[test]
fn finding_2_shape_censorship_and_interception() {
    let mut s = study();
    let zh = s.reach_cn().clone();
    use doe_vantage::reachability::TransportKind::*;
    let n = zh.clients_tested as f64;
    // Google DoH blocked almost entirely from CN; Cloudflare DoH fine.
    assert!(zh.cell("Google", Doh).failed as f64 / n > 0.99);
    assert!(zh.cell("Cloudflare", Doh).failed as f64 / n < 0.05);
    // CN filters hit Cloudflare's 53 and 853 roughly equally.
    let dns_fail = zh.cell("Cloudflare", Dns).failed as f64 / n;
    let dot_fail = zh.cell("Cloudflare", Dot).failed as f64 / n;
    assert!((dns_fail - dot_fail).abs() < 0.05);
    assert!(dns_fail > 0.05);

    // Interception: strict DoH fails closed, opportunistic DoT leaks.
    let global = s.reach_global().clone();
    assert!(!global.interceptions.is_empty());
    assert!(global.interceptions.iter().any(|i| i.port_853));
}

#[test]
fn finding_3_shape_performance() {
    let mut s = study();
    let perf = s.performance().clone();
    assert!(perf.observations.len() > 20);
    // Reused connections: overheads are small (single digits to low tens
    // of ms), for both protocols.
    assert!(
        perf.global_dot.0.abs() < 40.0,
        "DoT mean {}ms",
        perf.global_dot.0
    );
    assert!(
        perf.global_doh.0.abs() < 40.0,
        "DoH mean {}ms",
        perf.global_doh.0
    );
    // Figure 10: the scatter hugs y=x.
    let near = perf
        .observations
        .iter()
        .filter(|o| o.dot_overhead().abs() <= 50.0 && o.doh_overhead().abs() <= 50.0)
        .count() as f64
        / perf.observations.len() as f64;
    assert!(near > 0.7, "only {near} of points near the diagonal");
}

#[test]
fn finding_4_shape_usage() {
    let mut s = study();
    let ds = s.traffic().clone();
    let labels = {
        let mut m = std::collections::BTreeMap::new();
        m.insert(
            worldgen::providers::anchors::CLOUDFLARE_PRIMARY,
            "Cloudflare".to_string(),
        );
        m.insert(
            worldgen::providers::anchors::QUAD9_PRIMARY,
            "Quad9".to_string(),
        );
        m
    };
    let report = doe_traffic::analyze_dot(&ds.records, &labels);
    let cf = report.monthly.get("Cloudflare").unwrap();
    let jul = *cf.get("2018-07").unwrap() as f64;
    let dec = *cf.get("2018-12").unwrap() as f64;
    let growth = (dec - jul) / jul;
    assert!(
        (0.35..0.80).contains(&growth),
        "growth {growth} (paper: 56%)"
    );
    // Concentration + churn.
    assert!((0.30..0.58).contains(&report.top_share(5)));
    let (blocks, traffic) = report.short_lived(7);
    assert!(blocks > 0.85 && (0.15..0.40).contains(&traffic));
    // DoT is orders of magnitude below traditional DNS.
    assert!(ds.do53_monthly_estimate / dec > 100.0);
}

/// The padding-leakage leg at paper scale keeps the per-policy counts
/// EXPERIMENTS.md reports: one shard, with the seed `Study::privacy`
/// derives from the default study seed 2019.
#[test]
fn padding_leakage_paper_accuracy_is_pinned() {
    let mut net = Network::new(NetworkConfig::default(), 2019 ^ 0x7061_6464);
    let cfg = PrivacyConfig::paper();
    let world = doe_privacy::workload::install(&mut net, cfg.domains);
    let report = privacy_study_sharded(&mut net, &world, &cfg, 1);
    let counts: Vec<(&str, u64, u64)> = report
        .policies
        .iter()
        .map(|p| (p.policy, p.correct, p.tested))
        .collect();
    assert_eq!(
        counts,
        [
            ("none", 97, 160),
            ("block", 14, 160),
            ("random-block", 14, 160),
            ("adaptive-padding", 14, 160),
            ("constant-rate", 8, 160),
        ]
    );
}
