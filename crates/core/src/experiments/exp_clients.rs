//! Section 4 experiments: the client-side usability study
//! (Tables 3-7, Figures 9-10).

use crate::experiments::ExperimentResult;
use crate::render::{heading, ms, pct, TextTable};
use crate::study::Study;
use doe_vantage::performance::fresh_connection_test;
use doe_vantage::reachability::TransportKind;
use netsim::sched::SchedEvent;
use serde_json::json;

/// Table 3: the vantage-point datasets.
pub fn table3(study: &mut Study) -> ExperimentResult {
    let pr = &study.world.proxyrack;
    let zh = &study.world.zhima;
    let perf_clients: Vec<_> = pr.perf_subset().collect();
    let perf_countries: std::collections::BTreeSet<_> =
        perf_clients.iter().map(|c| c.country).collect();
    let perf_ases: std::collections::BTreeSet<_> = perf_clients.iter().map(|c| c.asn).collect();

    let mut table = TextTable::new(vec![
        "Test",
        "Platform",
        "# Distinct IP",
        "# Country",
        "# AS",
    ]);
    table.row(vec![
        "Reachability".to_string(),
        "ProxyRack (Global)".to_string(),
        pr.clients.len().to_string(),
        pr.country_count().to_string(),
        pr.as_count().to_string(),
    ]);
    table.row(vec![
        "Reachability".to_string(),
        "Zhima (Censored)".to_string(),
        zh.clients.len().to_string(),
        zh.country_count().to_string(),
        zh.as_count().to_string(),
    ]);
    table.row(vec![
        "Performance".to_string(),
        "ProxyRack (Global)".to_string(),
        perf_clients.len().to_string(),
        perf_countries.len().to_string(),
        perf_ases.len().to_string(),
    ]);
    let rendered = format!(
        "{}{}\n(paper: 29,622 / 166 / 2,597; 85,112 / 1 / 5; 8,257 / 132 / 1,098 — counts scale with --scale={})\n",
        heading("Table 3 — Evaluation of the client-side dataset"),
        table.render(),
        study.config.scale,
    );
    ExperimentResult {
        id: "table3",
        title: "Vantage datasets",
        rendered,
        json: json!({
            "proxyrack": {"ips": pr.clients.len(), "countries": pr.country_count(), "ases": pr.as_count()},
            "zhima": {"ips": zh.clients.len(), "countries": zh.country_count(), "ases": zh.as_count()},
            "performance": {"ips": perf_clients.len(), "countries": perf_countries.len(), "ases": perf_ases.len()},
        }),
    }
}

/// Table 4: reachability results per resolver × transport × platform.
pub fn table4(study: &mut Study) -> ExperimentResult {
    // Cloned: the global report is held while `reach_cn` runs.
    let global = study.reach_global().clone();
    let censored = study.reach_cn();
    let mut table = TextTable::new(vec![
        "Platform",
        "Resolver",
        "Transport",
        "Correct",
        "Incorrect",
        "Failed",
    ]);
    let mut payload = Vec::new();
    for (platform, report) in [
        ("ProxyRack (Global)", &global),
        ("Zhima (Censored, CN)", censored),
    ] {
        for (resolver, row) in &report.matrix {
            for transport in [TransportKind::Dns, TransportKind::Dot, TransportKind::Doh] {
                let Some(counts) = row.get(&transport) else {
                    if transport == TransportKind::Dot && resolver == "Google" {
                        table.row(vec![
                            platform.to_string(),
                            resolver.clone(),
                            "DoT".to_string(),
                            "n/a".to_string(),
                            "n/a".to_string(),
                            "n/a (not announced)".to_string(),
                        ]);
                    }
                    continue;
                };
                let (c, i, f) = counts.rates();
                table.row(vec![
                    platform.to_string(),
                    resolver.clone(),
                    transport.to_string(),
                    pct(c),
                    pct(i),
                    pct(f),
                ]);
                payload.push(json!({
                    "platform": platform,
                    "resolver": resolver,
                    "transport": transport.to_string(),
                    "correct": c, "incorrect": i, "failed": f,
                    "n": counts.total(),
                }));
            }
        }
    }
    let rendered = format!(
        "{}{}",
        heading("Table 4 — Reachability test results of public resolvers"),
        table.render()
    );
    ExperimentResult {
        id: "table4",
        title: "Reachability",
        rendered,
        json: json!(payload),
    }
}

/// Table 5: ports open on 1.1.1.1 as probed from failing clients.
pub fn table5(study: &mut Study) -> ExperimentResult {
    let report = study.reach_global();
    let (hist, none) = report.port_histogram();
    let mut table = TextTable::new(vec!["Port", "# Clients", "Notes"]);
    table.row(vec![
        "None".to_string(),
        none.to_string(),
        "internal routing / blackholing".to_string(),
    ]);
    for (port, count) in &hist {
        let note = match port {
            22 => "SSH (routers)",
            23 => "Telnet (routers)",
            53 => "DNS (router resolvers — answer 'Incorrectly')",
            67 => "DHCP relays",
            80 => "HTTP (management pages; see titles below)",
            123 => "NTP appliances",
            139 => "SMB boxes",
            161 => "SNMP appliances",
            179 => "BGP routers",
            443 => "HTTPS (modems / portals)",
            _ => "",
        };
        table.row(vec![port.to_string(), count.to_string(), note.to_string()]);
    }
    let mut titles: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    let mut miners = 0usize;
    for f in &report.forensics {
        if let Some(t) = &f.page_title {
            *titles.entry(t.clone()).or_default() += 1;
        }
        if f.coinminer {
            miners += 1;
        }
    }
    let mut pages = TextTable::new(vec!["Webpage title on 1.1.1.1", "# Clients"]);
    for (t, n) in &titles {
        pages.row(vec![t.clone(), n.to_string()]);
    }
    let rendered = format!(
        "{}failing Cloudflare-DoT clients probed: {}\n\n{}\n{}\ncrypto-hijacked (coin-mining) pages: {} clients (paper: 12)\n",
        heading("Table 5 — Ports open on 1.1.1.1, probed from failing clients"),
        report.forensics.len(),
        table.render(),
        pages.render(),
        miners,
    );
    ExperimentResult {
        id: "table5",
        title: "1.1.1.1 conflict forensics",
        rendered,
        json: json!({
            "probed_clients": report.forensics.len(),
            "none": none,
            "ports": hist,
            "page_titles": titles,
            "coinminers": miners,
        }),
    }
}

/// Table 6: clients affected by TLS interception.
pub fn table6(study: &mut Study) -> ExperimentResult {
    let report = study.reach_global();
    let mut table = TextTable::new(vec![
        "Client (/24)",
        "Country",
        "AS",
        "CA common name",
        "443",
        "853",
    ]);
    for i in &report.interceptions {
        let block = netsim::Netblock::slash24(i.client);
        table.row(vec![
            format!("{}.*", block.network().to_string().trim_end_matches(".0")),
            i.country.clone(),
            format!("AS{}", i.asn),
            i.ca_cn.clone(),
            if i.port_443 { "✓" } else { "" }.to_string(),
            if i.port_853 { "✓" } else { "" }.to_string(),
        ]);
    }
    let only_443 = report
        .interceptions
        .iter()
        .filter(|i| i.port_443 && !i.port_853)
        .count();
    let rendered = format!(
        "{}{}\nintercepted clients: {} (paper: 17); 443-only devices: {} (paper: 3)\nOpportunistic DoT proceeded on every intercepted path — queries were visible to the devices.\n",
        heading("Table 6 — Example clients affected by TLS interception"),
        table.render(),
        report.interceptions.len(),
        only_443,
    );
    ExperimentResult {
        id: "table6",
        title: "TLS interception",
        rendered,
        json: json!(report
            .interceptions
            .iter()
            .map(|i| json!({
                "country": i.country,
                "asn": i.asn,
                "ca": i.ca_cn,
                "port_443": i.port_443,
                "port_853": i.port_853,
            }))
            .collect::<Vec<_>>()),
    }
}

/// Figure 9: per-country latency overhead with reused connections.
pub fn figure9(study: &mut Study) -> ExperimentResult {
    let report = study.performance();
    let mut table = TextTable::new(vec![
        "Country",
        "Clients",
        "DoT mean",
        "DoT median",
        "DoH mean",
        "DoH median",
    ]);
    for c in report.per_country.iter().take(20) {
        table.row(vec![
            c.country.clone(),
            c.clients.to_string(),
            ms(c.dot_mean_ms),
            ms(c.dot_median_ms),
            ms(c.doh_mean_ms),
            ms(c.doh_median_ms),
        ]);
    }
    let rendered = format!(
        "{}{}\nglobal: DoT {} mean / {} median; DoH {} mean / {} median (paper: +5/+9ms DoT, +8/+6ms DoH)\nclients skipped (rotation/broken paths): {}\n",
        heading("Figure 9 — Query performance per country (reused connections)"),
        table.render(),
        ms(report.global_dot.0),
        ms(report.global_dot.1),
        ms(report.global_doh.0),
        ms(report.global_doh.1),
        report.skipped,
    );
    ExperimentResult {
        id: "figure9",
        title: "Per-country overhead",
        rendered,
        json: json!({
            "global_dot_mean_ms": report.global_dot.0,
            "global_dot_median_ms": report.global_dot.1,
            "global_doh_mean_ms": report.global_doh.0,
            "global_doh_median_ms": report.global_doh.1,
            "per_country": report
                .per_country
                .iter()
                .map(|c| json!({
                    "cc": c.country, "clients": c.clients,
                    "dot_mean_ms": c.dot_mean_ms, "dot_median_ms": c.dot_median_ms,
                    "doh_mean_ms": c.doh_mean_ms, "doh_median_ms": c.doh_median_ms,
                }))
                .collect::<Vec<_>>(),
        }),
    }
}

/// Figure 10: the per-client scatter of Do53 vs encrypted latency.
pub fn figure10(study: &mut Study) -> ExperimentResult {
    let report = study.performance();
    let n = report.observations.len().max(1);
    let near = |delta: f64| {
        let dot = report
            .observations
            .iter()
            .filter(|o| o.dot_overhead().abs() <= delta)
            .count() as f64
            / n as f64;
        let doh = report
            .observations
            .iter()
            .filter(|o| o.doh_overhead().abs() <= delta)
            .count() as f64
            / n as f64;
        (dot, doh)
    };
    let (dot25, doh25) = near(25.0);
    let (dot50, doh50) = near(50.0);
    let rendered = format!(
        "{}clients plotted        : {}\nwithin ±25ms of y=x    : DoT {}, DoH {}\nwithin ±50ms of y=x    : DoT {}, DoH {}\n(the full point set is in the JSON artifact; the paper's Figure 10 shows the same near-diagonal mass)\n",
        heading("Figure 10 — Query time of DNS vs DoT/DoH per client"),
        n,
        pct(dot25),
        pct(doh25),
        pct(dot50),
        pct(doh50),
    );
    ExperimentResult {
        id: "figure10",
        title: "Latency scatter",
        rendered,
        json: json!({
            "points": report
                .observations
                .iter()
                .map(|o| json!({
                    "cc": o.country,
                    "dns_ms": o.dns_ms,
                    "dot_ms": o.dot_ms,
                    "doh_ms": o.doh_ms,
                }))
                .collect::<Vec<_>>(),
            "near25": {"dot": dot25, "doh": doh25},
            "near50": {"dot": dot50, "doh": doh50},
        }),
    }
}

/// Population-scale stress leg: the event-driven stub-client fleet.
///
/// Not a paper figure — an engineering experiment demonstrating that the
/// discrete-event scheduler interleaves `--clients N` (paper config: 1M)
/// concurrent stub resolvers in one run, with connection reuse, timeouts
/// and retransmits all delivered as scheduled events.
pub fn stub_scale(study: &mut Study) -> ExperimentResult {
    let report = study.stub_population();
    let t = &report.totals;

    let mut profiles = TextTable::new(vec![
        "Profile",
        "Clients",
        "Queries",
        "Answered",
        "Failed",
        "Reused",
        "Mean latency",
    ]);
    for p in &report.profiles {
        let mean_ms = if p.stats.answered > 0 {
            p.stats.latency_sum_us as f64 / p.stats.answered as f64 / 1_000.0
        } else {
            0.0
        };
        profiles.row(vec![
            p.profile.to_string(),
            p.clients.to_string(),
            p.stats.queries.to_string(),
            p.stats.answered.to_string(),
            p.stats.failed.to_string(),
            p.stats.reused.to_string(),
            ms(mean_ms),
        ]);
    }

    let mut sched = TextTable::new(vec!["Event kind", "Scheduled", "Fired"]);
    for (i, name) in SchedEvent::KIND_NAMES.iter().enumerate() {
        sched.row(vec![
            name.to_string(),
            report.sched.scheduled[i].to_string(),
            report.sched.fired[i].to_string(),
        ]);
    }

    let rendered = format!(
        "{}clients               : {}\nqueries               : {} ({} answered, {} failed)\ntimeouts / retransmits : {} / {}\nidle closes / reuses   : {} / {}\npeak outstanding/client: {}\n\n{}\n{}",
        heading("Stub scale — 1M-class event-driven client population"),
        report.clients,
        t.queries,
        t.answered,
        t.failed,
        t.timeouts,
        t.retransmits,
        t.idle_closes,
        t.reused,
        report.sched.peak_outstanding,
        profiles.render(),
        sched.render(),
    );
    ExperimentResult {
        id: "stub-scale",
        title: "Event-driven client fleet",
        rendered,
        json: json!({
            "clients": report.clients,
            "totals": {
                "queries": t.queries,
                "answered": t.answered,
                "failed": t.failed,
                "timeouts": t.timeouts,
                "retransmits": t.retransmits,
                "idle_closes": t.idle_closes,
                "reused": t.reused,
                "latency_sum_us": t.latency_sum_us,
            },
            "profiles": report
                .profiles
                .iter()
                .map(|p| json!({
                    "profile": p.profile,
                    "clients": p.clients,
                    "queries": p.stats.queries,
                    "answered": p.stats.answered,
                    "failed": p.stats.failed,
                    "reused": p.stats.reused,
                }))
                .collect::<Vec<_>>(),
            "sched": {
                "kinds": SchedEvent::KIND_NAMES,
                "scheduled": report.sched.scheduled,
                "fired": report.sched.fired,
                "peak_outstanding": report.sched.peak_outstanding,
            },
        }),
    }
}

/// Table 7: fresh-connection latency from four controlled vantages.
pub fn table7(study: &mut Study) -> ExperimentResult {
    let iterations = study.config.fresh_iterations;
    let rows = fresh_connection_test(&mut study.world, iterations);
    let mut table = TextTable::new(vec![
        "Vantage",
        "DNS/TCP (s)",
        "DoT (s)",
        "DoT overhead",
        "DoH (s)",
        "DoH overhead",
    ]);
    for r in &rows {
        table.row(vec![
            r.vantage.clone(),
            format!("{:.3}", r.dns_s),
            format!("{:.3}", r.dot_s),
            ms(r.dot_overhead_ms()),
            format!("{:.3}", r.doh_s),
            ms(r.doh_overhead_ms()),
        ]);
    }
    let rendered = format!(
        "{}{}\n({} fresh connections per protocol per vantage; paper's medians of 200: DoT overheads 77ms US → 470ms HK)\n",
        heading("Table 7 — Performance without connection reuse"),
        table.render(),
        iterations,
    );
    ExperimentResult {
        id: "table7",
        title: "Fresh-connection cost",
        rendered,
        json: json!(rows
            .iter()
            .map(|r| json!({
                "vantage": r.vantage,
                "dns_s": r.dns_s,
                "dot_s": r.dot_s,
                "doh_s": r.doh_s,
                "dot_overhead_ms": r.dot_overhead_ms(),
                "doh_overhead_ms": r.doh_overhead_ms(),
            }))
            .collect::<Vec<_>>()),
    }
}
