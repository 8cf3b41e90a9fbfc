//! Section 5 experiments: DoT traffic (Figures 11/12), DoH bootstrap
//! trends (Figure 13) and the scan-detection check.

use crate::experiments::ExperimentResult;
use crate::render::{heading, pct, TextTable};
use crate::study::Study;
use doe_traffic::{analyze_dot_metered, detect_scanners, ScanDetectorConfig, ScanVerdict};
use serde_json::json;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use worldgen::providers::anchors;

fn resolver_labels() -> BTreeMap<Ipv4Addr, String> {
    let mut m = BTreeMap::new();
    m.insert(anchors::CLOUDFLARE_PRIMARY, "Cloudflare".to_string());
    m.insert(anchors::CLOUDFLARE_SECONDARY, "Cloudflare".to_string());
    m.insert(anchors::QUAD9_PRIMARY, "Quad9".to_string());
    m
}

/// Figure 11: monthly DoT flows to Cloudflare and Quad9.
pub fn figure11(study: &mut Study) -> ExperimentResult {
    let do53_estimate = study.traffic().do53_monthly_estimate;
    // Cloned: the records are held while `world.net.metrics_mut()` is written.
    let records = study.traffic().records.clone();
    let report = analyze_dot_metered(&records, &resolver_labels(), study.world.net.metrics_mut());
    let months: Vec<String> = {
        let mut set = std::collections::BTreeSet::new();
        for series in report.monthly.values() {
            set.extend(series.keys().cloned());
        }
        set.into_iter().collect()
    };
    let mut table = TextTable::new(vec!["Month", "Cloudflare", "Quad9"]);
    for month in &months {
        let cf = report
            .monthly
            .get("Cloudflare")
            .and_then(|s| s.get(month))
            .copied()
            .unwrap_or(0);
        let q9 = report
            .monthly
            .get("Quad9")
            .and_then(|s| s.get(month))
            .copied()
            .unwrap_or(0);
        table.row(vec![month.clone(), cf.to_string(), q9.to_string()]);
    }
    let cf = report
        .monthly
        .get("Cloudflare")
        .cloned()
        .unwrap_or_default();
    let jul = cf.get("2018-07").copied().unwrap_or(0) as f64;
    let dec = cf.get("2018-12").copied().unwrap_or(0) as f64;
    let growth = if jul > 0.0 { (dec - jul) / jul } else { 0.0 };
    let rendered = format!(
        "{}{}\nCloudflare Jul→Dec 2018 growth: {} (paper: +56%)\nsingle-SYN flows excluded: {}\nDoT vs traditional DNS volume: ~{:.0}× less (paper: 2-3 orders of magnitude)\n",
        heading("Figure 11 — Monthly DoT flows to Cloudflare and Quad9 (sampled NetFlow)"),
        table.render(),
        pct(growth),
        report.excluded_single_syn,
        do53_estimate / dec.max(1.0),
    );
    ExperimentResult {
        id: "figure11",
        title: "DoT traffic trend",
        rendered,
        json: json!({
            "monthly": report.monthly,
            "growth_jul_dec_2018": growth,
            "excluded_single_syn": report.excluded_single_syn,
            "do53_ratio": do53_estimate / dec.max(1.0),
        }),
    }
}

/// Figure 12: per-/24 DoT traffic concentration and churn.
pub fn figure12(study: &mut Study) -> ExperimentResult {
    // Cloned: the records are held while `world.net.metrics_mut()` is written.
    let records = study.traffic().records.clone();
    let report = analyze_dot_metered(&records, &resolver_labels(), study.world.net.metrics_mut());
    let (short_blocks, short_traffic) = report.short_lived(7);
    let mut table = TextTable::new(vec!["Top /24", "Flows", "Share", "Active days"]);
    for b in report.netblocks.iter().take(10) {
        table.row(vec![
            b.block.to_string(),
            b.flows.to_string(),
            pct(b.share),
            b.active_days.to_string(),
        ]);
    }
    let rendered = format!(
        "{}{}\nnetblocks total      : {} (paper: 5,623)\ntop-5 traffic share  : {} (paper: 44%)\ntop-20 traffic share : {} (paper: 60%)\nactive <1 week       : {} of netblocks carrying {} of traffic (paper: 96% / 25%)\n",
        heading("Figure 12 — DoT traffic per /24 client network"),
        table.render(),
        report.netblocks.len(),
        pct(report.top_share(5)),
        pct(report.top_share(20)),
        pct(short_blocks),
        pct(short_traffic),
    );
    ExperimentResult {
        id: "figure12",
        title: "Per-/24 concentration",
        rendered,
        json: json!({
            "netblocks": report.netblocks.len(),
            "top5_share": report.top_share(5),
            "top20_share": report.top_share(20),
            "short_lived_blocks": short_blocks,
            "short_lived_traffic": short_traffic,
            "points": report
                .netblocks
                .iter()
                .take(500)
                .map(|b| json!({"share": b.share, "active_days": b.active_days}))
                .collect::<Vec<_>>(),
        }),
    }
}

/// Figure 13: monthly query volume of popular DoH bootstrap domains.
pub fn figure13(study: &mut Study) -> ExperimentResult {
    let (popular, dnsdb_count) = {
        let top = study.pdns_dnsdb().domains_above(10_000);
        (
            top.iter()
                .map(|(d, _)| d.to_string())
                .collect::<Vec<String>>(),
            top.len(),
        )
    };
    let db = study.pdns_360();
    let months = ["2018-07", "2018-09", "2018-11", "2019-01", "2019-03"];
    let mut header = vec!["Domain".to_string()];
    header.extend(months.iter().map(|m| m.to_string()));
    let mut table = TextTable::new(header);
    let mut payload = BTreeMap::new();
    for domain in &popular {
        let Some(stats) = db.lookup(domain) else {
            continue;
        };
        let monthly = stats.monthly();
        let mut row = vec![domain.clone()];
        for m in months {
            row.push(monthly.get(m).copied().unwrap_or(0).to_string());
        }
        table.row(row);
        payload.insert(domain.clone(), monthly);
    }
    let rendered = format!(
        "{}domains with >10K lifetime lookups (DNSDB view): {} (paper: 4)\n\n{}",
        heading("Figure 13 — Query volume of popular DoH domains (360 view)"),
        dnsdb_count,
        table.render(),
    );
    ExperimentResult {
        id: "figure13",
        title: "DoH bootstrap trends",
        rendered,
        json: json!({
            "popular": popular,
            "monthly": payload,
        }),
    }
}

/// §5.2's validation: the observed DoT client networks are not scanners.
pub fn scandet(study: &mut Study) -> ExperimentResult {
    let traffic = study.traffic();
    let scanner_sources = &traffic.scanner_sources;
    let verdicts = detect_scanners(&traffic.records, 853, ScanDetectorConfig::default());
    let scanners: Vec<_> = verdicts
        .iter()
        .filter(|(_, v)| **v == ScanVerdict::Scanner)
        .map(|(s, _)| *s)
        .collect();
    let suspicious = verdicts
        .values()
        .filter(|v| **v == ScanVerdict::Suspicious)
        .count();
    let false_positives: Vec<_> = scanners
        .iter()
        .filter(|s| !scanner_sources.contains(s))
        .collect();
    let rendered = format!(
        "{}sources analysed : {}\nconfirmed scanners: {:?} (planted research scanners: {:?})\nsuspicious        : {}\nclient networks flagged: {} (paper: none)\n",
        heading("Scan detection over the DoT flow dataset (§5.2)"),
        verdicts.len(),
        scanners,
        scanner_sources,
        suspicious,
        false_positives.len(),
    );
    ExperimentResult {
        id: "scandet",
        title: "Scanner exclusion",
        rendered,
        json: json!({
            "sources": verdicts.len(),
            "scanners": scanners.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            "false_positives": false_positives.len(),
        }),
    }
}
