//! DoH service discovery from a URL corpus (§3.1):
//! grep for common DoH paths → validate candidates with real DoH queries
//! → deduplicate into services → compare against the public list.

use dnswire::view::MessageView;
use dnswire::{builder, Rcode, RecordType};
use doe_protocols::{Bootstrap, DohClient, DohMethod};
use httpsim::uri::COMMON_DOH_PATHS;
use httpsim::{UriTemplate, Url};
use netsim::telemetry::{Labels, Span};
use netsim::Network;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use tlssim::{DateStamp, TlsClientConfig, TrustStore};

/// One validated (or failed) DoH candidate.
#[derive(Debug, Clone)]
pub struct DohObservation {
    /// Candidate URL as found in the corpus.
    pub url: String,
    /// The derived locator template.
    pub template: UriTemplate,
    /// Whether the endpoint spoke DoH at all (a well-formed DNS response,
    /// any RCODE — Quad9's SERVFAIL-prone front still counts, §3.1).
    pub works: bool,
    /// Whether the answer also matched authoritative ground truth.
    pub correct: bool,
}

/// Discovery results.
#[derive(Debug, Clone)]
pub struct DohDiscoveryReport {
    /// Corpus size inspected.
    pub corpus_size: usize,
    /// URLs whose path matched a common DoH template.
    pub candidates: usize,
    /// Candidates that validated.
    pub valid_urls: usize,
    /// Distinct working services (by host + path).
    pub services: Vec<UriTemplate>,
    /// Working services not present in the known public list.
    pub beyond_known_list: Vec<UriTemplate>,
    /// Per-candidate detail.
    pub observations: Vec<DohObservation>,
}

fn path_matches_doh(url: &Url) -> bool {
    COMMON_DOH_PATHS.iter().any(|p| url.path == *p)
}

/// Run discovery over `corpus` from `source`, bootstrapping through
/// `bootstrap_resolver` and validating answers against the probe domain.
#[allow(clippy::too_many_arguments)]
pub fn discover_doh(
    net: &mut Network,
    source: Ipv4Addr,
    corpus: &[String],
    bootstrap_resolver: Ipv4Addr,
    probe_apex: &str,
    expected_a: Ipv4Addr,
    known_list: &[UriTemplate],
    store: &TrustStore,
    now: DateStamp,
) -> DohDiscoveryReport {
    // Stage 1: grep.
    let mut candidates: Vec<(String, Url)> = Vec::new();
    for raw in corpus {
        if let Some(url) = Url::parse(raw) {
            if url.scheme == "https" && path_matches_doh(&url) {
                candidates.push((raw.clone(), url));
            }
        }
    }

    // Stage 2: validate each candidate with a genuine DoH query.
    let probe_us = net
        .metrics_mut()
        .histogram("stage.doh_discovery.probe_us", Labels::empty());
    net.metrics_mut().count(
        "stage.doh_discovery.candidates",
        Labels::empty(),
        candidates.len() as u64,
    );
    let mut observations = Vec::with_capacity(candidates.len());
    let mut working: BTreeSet<String> = BTreeSet::new();
    let mut services: Vec<UriTemplate> = Vec::new();
    for (i, (raw, url)) in candidates.iter().enumerate() {
        let template =
            match UriTemplate::parse(&format!("https://{}{}{{?dns}}", url.host, url.path)) {
                Some(t) => t,
                None => continue,
            };
        let mut client = DohClient::new(
            TlsClientConfig::strict(store.clone(), now),
            template.clone(),
            DohMethod::Get,
            Bootstrap::Do53 {
                resolver: bootstrap_resolver,
            },
        );
        let qname = format!("doh{i}.{probe_apex}");
        let span = Span::begin(net.charged().as_micros());
        let reply = builder::query(crate::txid(i), &qname, RecordType::A)
            .ok()
            .and_then(|q| client.query_once_wire(net, source, &q).ok());
        let elapsed = span.elapsed_us(net.charged().as_micros());
        net.metrics_mut().observe(probe_us, elapsed);
        // The raw HTTP body is classified through the borrowing view — a
        // body that fails wire validation does not count as DoH. The owned
        // decode inside `query_once` is this same parse plus a copy.
        let view = reply
            .as_ref()
            .and_then(|reply| MessageView::parse(&reply.frame).ok());
        let works = view.is_some();
        if works {
            net.metrics_mut()
                .count("stage.doh_discovery.works", Labels::empty(), 1);
        }
        let correct = view
            .map(|view| {
                view.rcode() == Rcode::NoError
                    && view.answers().any(|rr| rr.rdata_a() == Some(expected_a))
            })
            .unwrap_or(false);
        if works {
            let key = format!("{}{}", template.host(), template.path());
            if working.insert(key) {
                services.push(template.clone());
            }
        }
        observations.push(DohObservation {
            url: raw.clone(),
            template,
            works,
            correct,
        });
    }

    let known: BTreeSet<String> = known_list
        .iter()
        .map(|t| format!("{}{}", t.host(), t.path()))
        .collect();
    let beyond_known_list = services
        .iter()
        .filter(|t| !known.contains(&format!("{}{}", t.host(), t.path())))
        .cloned()
        .collect();

    DohDiscoveryReport {
        corpus_size: corpus.len(),
        candidates: candidates.len(),
        valid_urls: observations.iter().filter(|o| o.works).count(),
        services,
        beyond_known_list,
        observations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use worldgen::{World, WorldConfig};

    #[test]
    fn discovery_finds_seventeen_services_two_beyond_list() {
        let mut world = World::build(WorldConfig::test_scale(19));
        let source = world.scanner_sources[0];
        let corpus = world.corpus.urls.clone();
        let apex = world.probe.apex.to_string();
        let apex = apex.trim_end_matches('.').to_string();
        let known = world.known_doh_list.clone();
        let store = world.trust_store.clone();
        let now = world.epoch();
        let bootstrap = world.bootstrap_resolver;
        let expected = world.probe.expected_a;
        let report = discover_doh(
            &mut world.net,
            source,
            &corpus,
            bootstrap,
            &apex,
            expected,
            &known,
            &store,
            now,
        );
        assert_eq!(report.candidates, world.corpus.candidate_count);
        // Host-literal aliases (https://1.1.1.1/dns-query) fail strict
        // hostname verification, so valid URLs ≥ services ≥ 17.
        assert!(
            report.services.len() >= 17,
            "found {} services",
            report.services.len()
        );
        assert!(report.valid_urls >= report.services.len());
        let beyond: Vec<String> = report
            .beyond_known_list
            .iter()
            .map(|t| t.host().to_string())
            .collect();
        assert!(
            beyond.contains(&"dns.rubyfish.cn".to_string()),
            "{beyond:?}"
        );
        assert!(beyond.contains(&"dns.233py.com".to_string()));
        // Quad9's template validated despite its flaky back-end or not —
        // either way it must be in the service list via its hostname.
        assert!(report
            .services
            .iter()
            .any(|t| t.host() == "cloudflare-dns.com"));
    }
}
