//! DoH service discovery from a URL corpus (§3.1):
//! grep for common DoH paths → validate candidates with real DoH queries
//! → deduplicate into services → compare against the public list.

use dnswire::{builder, Rcode, RecordType};
use doe_protocols::{Bootstrap, DohClient, DohMethod, QueryReply};
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
            .and_then(|q| client.query_once(net, source, &q).ok());
        let elapsed = span.elapsed_us(net.charged().as_micros());
        net.metrics_mut().observe(probe_us, elapsed);
        // The HTTP body is validated on receipt — a body that fails wire
        // validation is an error and does not count as DoH — and read in
        // place through its view.
        let view = reply.as_ref().map(QueryReply::view);
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
    use dnswire::zone::Zone;
    use dnswire::{Name, RData};
    use doe_protocols::doh::DNS_MESSAGE_TYPE;
    use doe_protocols::responder::{AuthoritativeServer, DnsResponder};
    use doe_protocols::{Do53UdpService, DohBackend, DohServerService};
    use httpsim::Response;
    use netsim::service::FnStreamService;
    use netsim::{HostMeta, NetworkConfig};
    use std::sync::Arc;
    use tlssim::{CaHandle, KeyId, TlsServerConfig, TlsServerService};
    use worldgen::{World, WorldConfig};

    /// One zone answering `name` and everything below it with `addr`.
    fn zone(name: &str, addr: Ipv4Addr) -> Zone {
        let apex = Name::parse(name).unwrap();
        let mut zone = Zone::new(apex.clone());
        zone.add_record(&apex, 300, RData::A(addr));
        zone.add_record(&apex.prepend("*").unwrap(), 300, RData::A(addr));
        zone
    }

    #[test]
    fn a_200_with_a_body_that_is_not_dns_does_not_work() {
        let now = DateStamp::from_ymd(2019, 2, 1);
        let mut net = Network::new(NetworkConfig::default(), 23);
        let [source, bootstrap, good, junk]: [Ipv4Addr; 4] =
            ["198.51.100.2", "192.0.2.53", "203.0.113.10", "203.0.113.20"]
                .map(|ip| ip.parse().unwrap());
        for ip in [source, bootstrap, good, junk] {
            net.add_host(HostMeta::new(ip));
        }
        let expected: Ipv4Addr = "203.0.113.99".parse().unwrap();
        let hosts = vec![zone("good.example", good), zone("junk.example", junk)];
        let boot: Arc<dyn DnsResponder> = Arc::new(AuthoritativeServer::new(hosts));
        net.bind_udp(bootstrap, 53, Arc::new(Do53UdpService::new(boot)));

        let ca = CaHandle::new("Root CA", KeyId(1), now + -365, 3650);
        let mut store = TrustStore::new();
        store.add(ca.authority());
        let cert = |host: &str, key| {
            let leaf = ca.issue(host, vec![], KeyId(key), key, now + -10, now + 300);
            TlsServerConfig::new(vec![leaf], KeyId(key))
        };
        let probe = vec![zone("probe.example", expected)];
        let probe: Arc<dyn DnsResponder> = Arc::new(AuthoritativeServer::new(probe));
        net.bind_tcp(
            good,
            443,
            Arc::new(DohServerService::new(
                cert("good.example", 2),
                vec!["/dns-query".into()],
                DohBackend::Local(probe),
            )),
        );
        // HTTP 200 with the DoH media type, but the body is an empty
        // response header and one stray octet.
        let body = b"\xde\xad\x81\x80\0\0\0\0\0\0\0\0\0".to_vec();
        let reply = Response::ok(DNS_MESSAGE_TYPE, body).encode();
        net.bind_tcp(
            junk,
            443,
            Arc::new(TlsServerService::new(
                cert("junk.example", 3),
                Arc::new(FnStreamService::new(
                    move |_c, _p, _d: &[u8]| reply.clone(),
                    "junk-doh",
                )),
            )),
        );

        let corpus = [
            "https://junk.example/dns-query".to_string(),
            "https://good.example/dns-query".to_string(),
        ];
        let report = discover_doh(
            &mut net,
            source,
            &corpus,
            bootstrap,
            "probe.example",
            expected,
            &[],
            &store,
            now,
        );
        assert_eq!(report.candidates, 2);
        let works: Vec<(bool, bool)> = report
            .observations
            .iter()
            .map(|o| (o.works, o.correct))
            .collect();
        assert_eq!(works, [(false, false), (true, true)]);
        assert_eq!(report.valid_urls, 1);
        let services: Vec<&str> = report.services.iter().map(|t| t.host()).collect();
        assert_eq!(services, ["good.example"]);
    }

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
