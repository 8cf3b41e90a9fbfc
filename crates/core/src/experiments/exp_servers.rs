//! Section 3 experiments: the scanning campaign (Figure 3, Table 2,
//! Figure 4) and DoH discovery.

use crate::experiments::ExperimentResult;
use crate::render::{heading, pct, TextTable};
use crate::study::Study;
use serde_json::json;

/// Figure 3: open DoT resolvers identified by each scan, split by the
/// biggest providers.
pub fn figure3(study: &mut Study) -> ExperimentResult {
    let report = study.campaign();
    let mut table = TextTable::new(vec![
        "Scan date",
        "Port-853 open",
        "Open DoT resolvers",
        "Providers",
        "Top-5 provider share",
        "In public lists",
    ]);
    for epoch in &report.epochs {
        table.row(vec![
            epoch.date.to_string(),
            epoch.stats.open.to_string(),
            epoch.open_resolvers.to_string(),
            epoch.provider_count().to_string(),
            pct(epoch.top_provider_share(5)),
            epoch.in_public_list.to_string(),
        ]);
    }
    let last = report.epochs.last().expect("ran at least one epoch");
    let mut providers: Vec<(&String, &usize)> = last.by_provider.iter().collect();
    providers.sort_by(|a, b| b.1.cmp(a.1));
    let mut top = TextTable::new(vec!["Provider (final scan)", "Resolver addresses"]);
    for (name, count) in providers.iter().take(8) {
        top.row(vec![name.to_string(), count.to_string()]);
    }
    let rendered = format!(
        "{}{}\nLargest providers at the final scan:\n{}",
        heading("Figure 3 — Open DoT resolvers identified by each scan"),
        table.render(),
        top.render()
    );
    ExperimentResult {
        id: "figure3",
        title: "Open DoT resolvers per scan",
        rendered,
        json: json!({
            "epochs": report
                .epochs
                .iter()
                .map(|e| json!({
                    "date": e.date.to_string(),
                    "port_open": e.stats.open,
                    "open_resolvers": e.open_resolvers,
                    "providers": e.provider_count(),
                    "top5_share": e.top_provider_share(5),
                }))
                .collect::<Vec<_>>(),
        }),
    }
}

/// Table 2: top countries of open DoT resolvers, first vs last scan.
pub fn table2(study: &mut Study) -> ExperimentResult {
    let report = study.campaign();
    let growth = report.country_growth();
    let mut table = TextTable::new(vec!["CC", "First scan", "Final scan", "Growth"]);
    for (cc, first, last, pct_growth) in growth.iter().take(10) {
        table.row(vec![
            cc.clone(),
            first.to_string(),
            last.to_string(),
            format!("{pct_growth:+.0}%"),
        ]);
    }
    let rendered = format!(
        "{}{}",
        heading("Table 2 — Top countries of open DoT resolvers"),
        table.render()
    );
    ExperimentResult {
        id: "table2",
        title: "DoT resolvers by country",
        rendered,
        json: json!(growth
            .iter()
            .take(12)
            .map(|(cc, a, b, g)| json!({"cc": cc, "first": a, "last": b, "growth_pct": g}))
            .collect::<Vec<_>>()),
    }
}

/// Figure 4: providers of open DoT resolvers and their certificate health.
pub fn figure4(study: &mut Study) -> ExperimentResult {
    let report = study.campaign();
    let mut table = TextTable::new(vec![
        "Scan date",
        "Providers",
        "w/ invalid cert",
        "Invalid %",
        "Single-address %",
    ]);
    for epoch in &report.epochs {
        let providers = epoch.provider_count().max(1);
        table.row(vec![
            epoch.date.to_string(),
            epoch.provider_count().to_string(),
            epoch.providers_with_invalid.to_string(),
            pct(epoch.providers_with_invalid as f64 / providers as f64),
            pct(epoch.single_address_providers as f64 / providers as f64),
        ]);
    }
    let last = report.epochs.last().expect("ran");
    let certs = last.certs;
    let rendered = format!(
        "{}{}\nCertificates at the final scan: {} valid, {} expired, {} self-signed, {} broken chains (paper: 27/67/28)\nAnswer-validation failures (dnsfilter-style fixed answers): {} resolvers\n",
        heading("Figure 4 — Providers of open DoT resolvers"),
        table.render(),
        certs.valid,
        certs.expired,
        certs.self_signed,
        certs.broken_chain,
        last.wrong_answer_resolvers.len(),
    );
    ExperimentResult {
        id: "figure4",
        title: "Provider certificate health",
        rendered,
        json: json!({
            "final": {
                "providers": last.provider_count(),
                "providers_invalid": last.providers_with_invalid,
                "certs": {
                    "valid": certs.valid,
                    "expired": certs.expired,
                    "self_signed": certs.self_signed,
                    "broken_chain": certs.broken_chain,
                },
                "single_address_providers": last.single_address_providers,
                "wrong_answer_resolvers": last.wrong_answer_resolvers.len(),
            }
        }),
    }
}

/// §3.1's second half: DoH discovery from the URL corpus.
pub fn doh_discovery(study: &mut Study) -> ExperimentResult {
    let source = study.world.scanner_sources[0];
    let corpus = study.world.corpus.urls.clone();
    let apex = study.world.probe.apex.to_string();
    let apex = apex.trim_end_matches('.').to_string();
    let known = study.world.known_doh_list.clone();
    let store = study.world.trust_store.clone();
    let now = study.world.epoch();
    let bootstrap = study.world.bootstrap_resolver;
    let expected = study.world.probe.expected_a;
    let report = doe_scanner::discover_doh(
        &mut study.world.net,
        source,
        &corpus,
        bootstrap,
        &apex,
        expected,
        &known,
        &store,
        now,
    );
    let mut table = TextTable::new(vec!["Discovered DoH service", "In public list"]);
    let known_hosts: Vec<String> = known.iter().map(|t| t.host().to_string()).collect();
    for t in &report.services {
        table.row(vec![
            t.to_string(),
            if known_hosts.contains(&t.host().to_string()) {
                "yes".to_string()
            } else {
                "NEW".to_string()
            },
        ]);
    }
    let rendered = format!(
        "{}corpus URLs      : {}\ncandidates (grep): {}   (paper: 61)\nvalidated URLs   : {}\nservices         : {}   (paper: 17)\nbeyond known list: {}   (paper: 2)\n\n{}",
        heading("DoH discovery from the URL corpus (§3.1)"),
        report.corpus_size,
        report.candidates,
        report.valid_urls,
        report.services.len(),
        report.beyond_known_list.len(),
        table.render()
    );
    ExperimentResult {
        id: "doh-discovery",
        title: "DoH service discovery",
        rendered,
        json: json!({
            "corpus": report.corpus_size,
            "candidates": report.candidates,
            "valid_urls": report.valid_urls,
            "services": report.services.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
            "beyond_known": report
                .beyond_known_list
                .iter()
                .map(|t| t.host().to_string())
                .collect::<Vec<_>>(),
        }),
    }
}
