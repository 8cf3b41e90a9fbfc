//! Assembles the complete world: network, deployment, populations,
//! middleboxes, probe infrastructure and corpora.

use crate::calendar::Calendar;
use crate::clients::{self, ClientAllocator, GeneratedClients};
use crate::config::WorldConfig;
use crate::corpus::{self, Corpus};
use crate::devices::{self, InstalledDevices};
use crate::providers::{self, anchors, DohServiceSpec, ProviderDeployment};
use crate::types::{
    AtlasProbe, CertProfile, ClientPool, DeviceKind, ProviderClass, ResolverBehavior,
};
use dnswire::zone::Zone;
use dnswire::{Name, RData, RecordType, ResourceRecord};
use doe_protocols::recursive::{MissDelay, RecursiveConfig, RecursiveResolver, UpstreamMap};
use doe_protocols::responder::{AuthoritativeServer, DnsResponder, FixedAnswerResponder};
use doe_protocols::{
    Do53TcpService, Do53UdpService, DohBackend, DohServerService, DotServerService,
};
use httpsim::{StaticSite, UriTemplate};
use netsim::service::FnStreamService;
use netsim::{
    DatagramService, HostMeta, LatencyProfile, Netblock, Network, NetworkConfig, Service,
    SimDuration,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::Arc;
use tlssim::{CaHandle, Certificate, DateStamp, KeyId, TlsServerConfig, TrustStore};

/// The study's own probe domain and its authoritative server.
pub struct ProbeInfra {
    /// Zone apex (`probe.dnsmeasure.example`).
    pub apex: Name,
    /// The wildcard answer every probe resolves to.
    pub expected_a: Ipv4Addr,
    /// Authoritative server address.
    pub auth_addr: Ipv4Addr,
}

/// The self-built resolver of §4.1.
pub struct SelfBuiltInfo {
    /// Its address.
    pub addr: Ipv4Addr,
    /// DoT authentication name.
    pub auth_name: String,
    /// DoH locator.
    pub doh_template: UriTemplate,
}

struct ResolverBundle {
    meta: HostMeta,
    tcp: Vec<(u16, Arc<dyn Service>)>,
    udp: Vec<(u16, Arc<dyn DatagramService>)>,
}

/// The fully-built world. See the crate docs for contents.
/// Address stride between junk-host country bands: a /14 (262,144
/// addresses) holds each country's tenth of the paper-scale 2–3M
/// population with headroom.
const JUNK_BAND_STRIDE: u32 = 1 << 18;

/// Base of the junk-band region. 23.0.0.0 is free in the simulated
/// plan: provider servers live in 5.0.0.0/8, clients in 64.0.0.0/4 and
/// the anchor addresses are scattered well away from it.
const JUNK_BAND_BASE: Ipv4Addr = Ipv4Addr::new(23, 0, 0, 0);

/// First address of junk country band `c`.
fn junk_band_start(c: usize) -> Ipv4Addr {
    Ipv4Addr::from(u32::from(JUNK_BAND_BASE) + c as u32 * JUNK_BAND_STRIDE)
}

/// Exact CIDR cover of `count` consecutive addresses from `start`:
/// greedy largest-aligned-block decomposition, so a band of any size
/// enters the scan space without padding it with unrouted addresses.
fn cover_blocks(start: Ipv4Addr, count: u32) -> Vec<Netblock> {
    let mut blocks = Vec::new();
    let mut cur = u32::from(start);
    let mut left = count;
    while left > 0 {
        let align = if cur == 0 { 31 } else { cur.trailing_zeros() };
        let bits = align.min(31 - left.leading_zeros());
        blocks.push(Netblock::new(Ipv4Addr::from(cur), (32 - bits) as u8));
        cur += 1 << bits;
        left -= 1 << bits;
    }
    blocks
}

pub struct World {
    /// The simulated internet.
    pub net: Network,
    /// Build configuration.
    pub config: WorldConfig,
    /// Virtual-time ↔ civil-date mapping (anchored at the first scan).
    pub calendar: Calendar,
    /// The client-side trust store (Mozilla CA list analog).
    pub trust_store: TrustStore,
    /// Probe-domain infrastructure.
    pub probe: ProbeInfra,
    /// Ground-truth resolver deployment.
    pub deployment: ProviderDeployment,
    /// Global residential vantage pool.
    pub proxyrack: ClientPool,
    /// Censored CN vantage pool.
    pub zhima: ClientPool,
    /// Conflict devices installed: (client block, device addr, kind).
    pub conflict_devices: Vec<(Netblock, Ipv4Addr, DeviceKind)>,
    /// The scanner's target address space.
    pub scan_space: Vec<Netblock>,
    /// The URL corpus for DoH discovery.
    pub corpus: Corpus,
    /// RIPE-Atlas-like probes.
    pub atlas: Vec<AtlasProbe>,
    /// The public DoH template list (the curl-wiki 15).
    pub known_doh_list: Vec<UriTemplate>,
    /// Neutral open resolver for DoH bootstrap.
    pub bootstrap_resolver: Ipv4Addr,
    /// Scanner source addresses (2 US + 1 CN, §3.1).
    pub scanner_sources: Vec<Ipv4Addr>,
    /// The self-built resolver.
    pub self_built: SelfBuiltInfo,
    epoch: DateStamp,
    deployed: BTreeSet<Ipv4Addr>,
    bundles: BTreeMap<Ipv4Addr, ResolverBundle>,
    probe_serials: u64,
}

impl World {
    /// Build a world from config. Deterministic in `config`.
    pub fn build(config: WorldConfig) -> World {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let first = config.first_scan;
        let mut net = Network::new(
            NetworkConfig {
                trace_capacity: config.trace_capacity,
                metrics: config.metrics,
                ..NetworkConfig::default()
            },
            config.seed ^ 0x6e65_7473_696d,
        );
        let calendar = Calendar::anchored_at(first);

        // ---- Trust anchors ----------------------------------------------
        let mut trust_store = TrustStore::new();
        let ca_names = [
            "Let's Encrypt Authority X3",
            "DigiCert Global Root CA",
            "GlobalSign Root CA",
            "Sectigo RSA CA",
            "GoDaddy Root CA",
        ];
        let cas: Vec<CaHandle> = ca_names
            .iter()
            .enumerate()
            .map(|(i, name)| CaHandle::new(name, KeyId(1 + i as u64), first + -1500, 7300))
            .collect();
        for ca in &cas {
            trust_store.add(ca.authority());
        }
        let web_ca = cas[0].clone();
        // An intermediate nobody presents — broken-chain leaves hang off it.
        let orphan_ca = CaHandle::new("Orphan Intermediate CA", KeyId(900), first + -900, 3650);
        let mut next_key = 1_000u64;
        let mut key = move || {
            let k = KeyId(next_key);
            next_key += 1;
            k
        };

        // ---- Deployment & populations ------------------------------------
        let (deployment, server_alloc) = providers::generate(&config, &mut rng);
        let mut client_alloc = ClientAllocator::new();
        let GeneratedClients {
            proxyrack,
            zhima,
            plan,
            geo_entries,
        } = clients::generate(&config, &mut rng, &mut client_alloc);

        for (block, country, asn) in &geo_entries {
            net.geodb_mut().insert(
                *block,
                netsim::geo::BlockInfo {
                    asn: *asn,
                    country: *country,
                    region: netsim::geo::region_of(*country),
                },
            );
        }
        // Latency personalities and port penalties per country.
        for spec in clients::all_country_specs() {
            let cc = netsim::CountryCode::new(spec.cc);
            net.latency_mut().set_country_profile(
                cc,
                LatencyProfile {
                    access_ms: spec.access_ms,
                    jitter_sigma: spec.jitter,
                    loss: spec.loss,
                },
            );
            if spec.penalty_53_ms > 0.0 {
                net.latency_mut()
                    .set_port_penalty(cc, 53, spec.penalty_53_ms);
            }
            if spec.penalty_853_ms > 0.0 {
                net.latency_mut()
                    .set_port_penalty(cc, 853, spec.penalty_853_ms);
            }
        }

        // ---- Probe infrastructure ----------------------------------------
        let apex = Name::parse("probe.dnsmeasure.example").expect("static name");
        let expected_a = Ipv4Addr::new(203, 0, 113, 99);
        let mut zones = Vec::new();
        {
            let mut zone = Zone::new(apex.clone());
            zone.add_record(&apex, 300, RData::A(anchors::PROBE_AUTH));
            zone.add_record(
                &apex.prepend("*").expect("wildcard"),
                60,
                RData::A(expected_a),
            );
            zones.push(zone);
        }
        // Bootstrap zones: one per DoH hostname, plus the self-built name.
        let self_built_name = "resolver.dnsmeasure.example";
        let mut bootstrap_hosts: Vec<(String, Ipv4Addr)> = deployment
            .doh_services
            .iter()
            .map(|s| (s.hostname.clone(), s.front))
            .collect();
        bootstrap_hosts.push((self_built_name.to_string(), anchors::SELF_BUILT));
        for (hostname, front) in &bootstrap_hosts {
            let host_apex = Name::parse(hostname).expect("hostnames parse");
            let mut zone = Zone::new(host_apex.clone());
            zone.add_record(&host_apex, 300, RData::A(*front));
            zones.push(zone);
        }
        let auth_server = Arc::new(AuthoritativeServer::new(zones));
        net.add_host(
            HostMeta::new(anchors::PROBE_AUTH)
                .country("US")
                .asn(64_501)
                .label("probe-authoritative"),
        );
        net.bind_udp(
            anchors::PROBE_AUTH,
            53,
            Arc::new(Do53UdpService::new(
                Arc::clone(&auth_server) as Arc<dyn DnsResponder>
            )),
        );
        net.bind_tcp(
            anchors::PROBE_AUTH,
            53,
            Arc::new(Do53TcpService::new(auth_server)),
        );

        let mut upstreams = UpstreamMap::new();
        upstreams.add(apex.clone(), anchors::PROBE_AUTH);
        for (hostname, _) in &bootstrap_hosts {
            upstreams.add(Name::parse(hostname).expect("parses"), anchors::PROBE_AUTH);
        }

        // Neutral bootstrap resolver.
        net.add_host(
            HostMeta::new(anchors::BOOTSTRAP_RESOLVER)
                .country("US")
                .asn(64_502)
                .anycast()
                .label("bootstrap-resolver"),
        );
        let mut bootstrap_responder = RecursiveResolver::new(
            upstreams.clone(),
            RecursiveConfig {
                servfail_rate: 0.0,
                ..RecursiveConfig::default()
            },
        );
        // Real deployments keep the big DoH front-end hostnames permanently
        // hot, so pin them: every bootstrap lookup is a cache hit no matter
        // which worker asks first or how the clients are sharded.
        for (hostname, front) in &bootstrap_hosts {
            let host_apex = Name::parse(hostname).expect("hostnames parse");
            let answer = ResourceRecord::new(host_apex.clone(), 300, RData::A(*front));
            bootstrap_responder.prewarm(&host_apex, RecordType::A, vec![answer]);
        }
        net.bind_udp(
            anchors::BOOTSTRAP_RESOLVER,
            53,
            Arc::new(Do53UdpService::new(Arc::new(bootstrap_responder))),
        );

        // ---- Middleboxes --------------------------------------------------
        let google_fronts: Vec<Ipv4Addr> = deployment
            .doh_services
            .iter()
            .filter(|s| s.blocked_in_cn)
            .map(|s| s.front)
            .collect();
        let InstalledDevices { conflict_devices } =
            devices::install(&mut net, &plan, &google_fronts, first, 500_000);

        // ---- Resolver bundles ---------------------------------------------
        // One responder per provider, shared by all its addresses; each
        // address keeps its own dynamic cache on each shard.
        let mut responders: BTreeMap<String, Arc<dyn DnsResponder>> = BTreeMap::new();
        let mut responder_for = |provider: &str,
                                 behavior: &ResolverBehavior,
                                 upstreams: &UpstreamMap|
         -> Arc<dyn DnsResponder> {
            if let ResolverBehavior::FixedAnswer(addr) = behavior {
                return Arc::new(FixedAnswerResponder::new(*addr));
            }
            responders
                .entry(provider.to_string())
                .or_insert_with(|| {
                    let extra_delay = if provider == "quad9.net" {
                        Some(MissDelay::congested())
                    } else {
                        None
                    };
                    Arc::new(RecursiveResolver::new(
                        upstreams.clone(),
                        RecursiveConfig {
                            servfail_rate: 0.0006,
                            extra_delay,
                            ..RecursiveConfig::default()
                        },
                    ))
                })
                .clone()
        };

        let mut bundles: BTreeMap<Ipv4Addr, ResolverBundle> = BTreeMap::new();
        for r in &deployment.dot_resolvers {
            let meta = {
                let mut m = HostMeta::new(r.addr)
                    .country(r.country.as_str())
                    .asn(r.asn.0)
                    .label(&r.provider);
                if r.anycast {
                    m = m.anycast();
                }
                m
            };
            let mut tcp: Vec<(u16, Arc<dyn Service>)> = Vec::new();
            let mut udp: Vec<(u16, Arc<dyn DatagramService>)> = Vec::new();

            match &r.behavior {
                ResolverBehavior::DotProxy { upstream } => {
                    let device_key = key();
                    let fg_ca = CaHandle::new(&r.provider, key(), first + -400, 3650);
                    let default_cert = CaHandle::self_signed(
                        &r.provider,
                        vec![],
                        device_key,
                        u64::from(u32::from(r.addr)),
                        first + -400,
                        first + 3650,
                    );
                    let proxy = tlssim::TlsInterceptService::fixed_cert_proxy(
                        fg_ca,
                        device_key,
                        vec![default_cert],
                        (*upstream, 853),
                        first,
                    );
                    tcp.push((853, Arc::new(proxy)));
                }
                behavior => {
                    let responder = responder_for(&r.provider, behavior, &upstreams);
                    let leaf_key = key();
                    let chain = build_chain(
                        &web_ca,
                        &orphan_ca,
                        &r.provider,
                        &r.cert,
                        leaf_key,
                        r.addr,
                        first,
                    );
                    let dot = DotServerService::new(
                        TlsServerConfig::new(chain, leaf_key),
                        Arc::clone(&responder),
                    );
                    tcp.push((853, Arc::new(dot)));
                    // Big providers also serve clear-text DNS.
                    if r.class == ProviderClass::Large || r.class == ProviderClass::Medium {
                        udp.push((53, Arc::new(Do53UdpService::new(Arc::clone(&responder)))));
                        tcp.push((53, Arc::new(Do53TcpService::new(Arc::clone(&responder)))));
                    }
                    // The Cloudflare primary also serves a webpage and DoH
                    // (its genuine port profile: 53/80/443, §4.2 footnote).
                    if r.addr == anchors::CLOUDFLARE_PRIMARY {
                        tcp.push((
                            80,
                            Arc::new(StaticSite::single_page(
                                "<title>1.1.1.1 — the free, private DNS resolver</title>",
                            )),
                        ));
                        let doh_key = key();
                        let chain = vec![web_ca.issue(
                            "cloudflare-dns.com",
                            vec!["*.cloudflare-dns.com".into(), "one.one.one.one".into()],
                            doh_key,
                            u32::from(r.addr) as u64 + 7,
                            first + -30,
                            first + 365,
                        )];
                        tcp.push((
                            443,
                            Arc::new(DohServerService::new(
                                TlsServerConfig::new(chain, doh_key),
                                vec!["/dns-query".into()],
                                DohBackend::Local(Arc::clone(&responder)),
                            )),
                        ));
                    }
                }
            }
            bundles.insert(r.addr, ResolverBundle { meta, tcp, udp });
        }

        // ---- DoH fronts ----------------------------------------------------
        for svc in &deployment.doh_services {
            install_doh_front(
                &mut net,
                svc,
                &web_ca,
                &mut key,
                &mut responder_for,
                &upstreams,
                first,
            );
        }

        // Google clear-text (8.8.8.8): Do53 only — DoT unannounced.
        {
            net.add_host(
                HostMeta::new(anchors::GOOGLE_PRIMARY)
                    .country("US")
                    .asn(15_169)
                    .anycast()
                    .label("dns.google.com"),
            );
            let responder =
                responder_for("dns.google.com", &ResolverBehavior::Recursive, &upstreams);
            net.bind_udp(
                anchors::GOOGLE_PRIMARY,
                53,
                Arc::new(Do53UdpService::new(Arc::clone(&responder))),
            );
            net.bind_tcp(
                anchors::GOOGLE_PRIMARY,
                53,
                Arc::new(Do53TcpService::new(responder)),
            );
        }

        // ---- Self-built resolver -------------------------------------------
        let self_built = {
            let responder = responder_for(
                "dnsmeasure.example",
                &ResolverBehavior::Recursive,
                &upstreams,
            );
            net.add_host(
                HostMeta::new(anchors::SELF_BUILT)
                    .country("US")
                    .asn(64_503)
                    .label("self-built resolver"),
            );
            net.bind_udp(
                anchors::SELF_BUILT,
                53,
                Arc::new(Do53UdpService::new(Arc::clone(&responder))),
            );
            net.bind_tcp(
                anchors::SELF_BUILT,
                53,
                Arc::new(Do53TcpService::new(Arc::clone(&responder))),
            );
            let dot_key = key();
            let chain = vec![web_ca.issue(
                self_built_name,
                vec![],
                dot_key,
                4242,
                first + -10,
                first + 365,
            )];
            net.bind_tcp(
                anchors::SELF_BUILT,
                853,
                Arc::new(DotServerService::new(
                    TlsServerConfig::new(chain.clone(), dot_key),
                    Arc::clone(&responder),
                )),
            );
            net.bind_tcp(
                anchors::SELF_BUILT,
                443,
                Arc::new(DohServerService::new(
                    TlsServerConfig::new(chain, dot_key),
                    vec!["/dns-query".into()],
                    DohBackend::Local(responder),
                )),
            );
            SelfBuiltInfo {
                addr: anchors::SELF_BUILT,
                auth_name: self_built_name.to_string(),
                doh_template: UriTemplate::parse(&format!(
                    "https://{self_built_name}/dns-query{{?dns}}"
                ))
                .expect("static template"),
            }
        };

        // ---- Junk port-853 hosts -------------------------------------------
        // The paper's headline sweep surprise: 2–3 million hosts accept
        // TCP/853 yet speak no DNS (§3.2, Table 3). At that scale a
        // registered host per address would dominate world-build time and
        // memory, so each country's share lives in one [`netsim::HostBand`]
        // — a contiguous range sharing a country, an AS and a service.
        //
        // The bands reproduce the old per-host loop exactly: the loop
        // round-robined countries by `i % 10` and services by `i % 2`, and
        // with an even country count that makes every host of country `c`
        // carry parity `c % 2` — so a whole band answers with a garbage
        // banner (even index) or silence (odd index), both of which the
        // scanner classifies as not-TLS.
        let junk = config.scaled(config.junk_853_hosts, 50);
        let junk_countries = ["US", "DE", "CN", "FR", "RU", "BR", "JP", "GB", "NL", "IE"];
        let n_countries = junk_countries.len() as u32;
        for (c, name) in junk_countries.iter().enumerate() {
            // The old round-robin gave country `c` one extra host when
            // `junk` was not a multiple of ten.
            let count = junk / n_countries + u32::from((c as u32) < junk % n_countries);
            if count == 0 {
                continue;
            }
            assert!(
                count <= JUNK_BAND_STRIDE,
                "junk population per country exceeds its /14 band"
            );
            let svc: Arc<dyn Service> = if c % 2 == 0 {
                Arc::new(FnStreamService::new(
                    |_ctx, _peer, _data: &[u8]| b"SSH-2.0-dropbear_2017.75\r\n".to_vec(),
                    "junk-banner",
                ))
            } else {
                Arc::new(FnStreamService::new(
                    |_ctx, _peer, _data: &[u8]| Vec::new(),
                    "junk-silent",
                ))
            };
            net.add_host_band(netsim::HostBand {
                start: junk_band_start(c),
                count,
                country: netsim::CountryCode::new(name),
                asn: netsim::Asn(64_700 + c as u32),
                port: 853,
                service: svc,
            });
        }

        // ---- Atlas probes & ISP resolvers ----------------------------------
        // Exactly the calibrated number of probes (24 of 6,655 at paper
        // scale) sit behind small DoT-pioneer ISPs, like the three ASes the
        // paper's footnote names; everyone else gets a Do53-only resolver.
        let mut atlas = Vec::new();
        let n_probes = config.scaled(config.atlas_probes, 60);
        let probes_per_isp = 50u32;
        let dot_probe_target = (((n_probes as f64) * config.isp_dot_rate).round() as u32).max(1);
        let mut remaining = n_probes;
        let mut dot_remaining = dot_probe_target;
        let mut isp = 0u32;
        while remaining > 0 {
            let isp_has_dot = dot_remaining > 0;
            let in_this_isp = if isp_has_dot {
                dot_remaining.min(8).min(remaining)
            } else {
                probes_per_isp.min(remaining)
            };
            let blocks = client_alloc.alloc_blocks(1);
            let block = blocks[0];
            let country = netsim::CountryCode::new(
                ["DE", "FR", "GB", "NL", "US", "SE", "CZ", "DK", "IT", "JP"][(isp as usize) % 10],
            );
            let asn = netsim::Asn(200_000 + isp);
            net.geodb_mut().insert(
                block,
                netsim::geo::BlockInfo {
                    asn,
                    country,
                    region: netsim::geo::region_of(country),
                },
            );
            let resolver_ip = block.addr(250);
            net.add_host(
                HostMeta::new(resolver_ip)
                    .country(country.as_str())
                    .asn(asn.0)
                    .label("isp-resolver"),
            );
            let responder = responder_for(
                &format!("isp-{isp}.example"),
                &ResolverBehavior::Recursive,
                &upstreams,
            );
            net.bind_udp(
                resolver_ip,
                53,
                Arc::new(Do53UdpService::new(Arc::clone(&responder))),
            );
            net.bind_tcp(
                resolver_ip,
                53,
                Arc::new(Do53TcpService::new(Arc::clone(&responder))),
            );
            if isp_has_dot {
                let k = key();
                let chain = vec![web_ca.issue(
                    &format!("resolver.isp-{isp}.example"),
                    vec![],
                    k,
                    isp as u64,
                    first + -10,
                    first + 365,
                )];
                net.bind_tcp(
                    resolver_ip,
                    853,
                    Arc::new(DotServerService::new(
                        TlsServerConfig::new(chain, k),
                        responder,
                    )),
                );
                dot_remaining -= in_this_isp.min(dot_remaining);
            }
            for p in 0..in_this_isp {
                let ip = block.addr(1 + p as u64);
                atlas.push(AtlasProbe {
                    ip,
                    local_resolver: resolver_ip,
                    resolver_has_dot: isp_has_dot,
                    // DoT-pioneer probes are configured to use their ISP
                    // resolver by definition; others sometimes point at
                    // public resolvers and are excluded by the analysis.
                    uses_public_resolver: !isp_has_dot && rng.gen_bool(0.10),
                });
            }
            remaining -= in_this_isp;
            isp += 1;
        }

        // ---- Scanner sources -------------------------------------------------
        let scanner_sources = vec![
            Ipv4Addr::new(198, 51, 100, 10),
            Ipv4Addr::new(198, 51, 100, 11),
            Ipv4Addr::new(59, 110, 1, 10),
        ];
        for (i, src) in scanner_sources.iter().enumerate() {
            let country = if i < 2 { "US" } else { "CN" };
            net.add_host(
                HostMeta::new(*src)
                    .country(country)
                    .asn(64_510 + i as u32)
                    .label("scanner")
                    .rdns(&format!("scanner-{i}.dnsmeasure.example")),
            );
            net.bind_tcp(
                *src,
                80,
                Arc::new(StaticSite::single_page(
                    "<title>DNS measurement research — opt out</title>\
                     <p>This host scans for DNS-over-Encryption services. \
                     Email [email protected] to opt out.</p>",
                )),
            );
        }

        // ---- Scan space -------------------------------------------------------
        let mut scan_space = server_alloc.blocks();
        for special in [
            Ipv4Addr::new(1, 1, 1, 0),
            Ipv4Addr::new(1, 0, 0, 0),
            Ipv4Addr::new(9, 9, 9, 0),
            Ipv4Addr::new(8, 8, 8, 0),
            Ipv4Addr::new(203, 0, 113, 0),
            Ipv4Addr::new(198, 51, 100, 0),
        ] {
            scan_space.push(Netblock::new(special, 24));
        }
        for svc in &deployment.doh_services {
            scan_space.push(Netblock::slash24(svc.front));
        }
        for band in net.bands() {
            scan_space.extend(cover_blocks(band.start, band.count));
        }
        scan_space.sort_by_key(|b| (u32::from(b.network()), b.len()));
        scan_space.dedup();

        // ---- URL corpus ---------------------------------------------------------
        let corpus = corpus::generate(
            config.scaled(config.corpus_noise_urls, 500),
            &deployment.doh_services,
            &mut rng,
        );

        let known_doh_list = deployment
            .doh_services
            .iter()
            .filter(|s| s.in_public_list)
            .map(|s| s.template.clone())
            .collect();

        let mut world = World {
            net,
            calendar,
            trust_store,
            probe: ProbeInfra {
                apex,
                expected_a,
                auth_addr: anchors::PROBE_AUTH,
            },
            deployment,
            proxyrack,
            zhima,
            conflict_devices,
            scan_space,
            corpus,
            atlas,
            known_doh_list,
            bootstrap_resolver: anchors::BOOTSTRAP_RESOLVER,
            scanner_sources,
            self_built,
            epoch: first,
            deployed: BTreeSet::new(),
            bundles,
            probe_serials: 0,
            config,
        };
        world.sync_deployment();
        world
    }

    /// The current world date.
    pub fn epoch(&self) -> DateStamp {
        self.epoch
    }

    /// Reserve a block of `n` probe-domain query serials, returning the
    /// first serial in the block.
    ///
    /// Measurement stages build unique query names (`d42.<apex>`), as the
    /// paper's §4 probes do, so no resolver cache can answer a probe and
    /// every probe reaches the authoritative server. Disjoint blocks keep
    /// the names unique across stages that restart their client index at
    /// 0.
    pub fn take_probe_serials(&mut self, n: u64) -> u64 {
        let base = self.probe_serials;
        self.probe_serials += n;
        base
    }

    /// Advance the world to `date`: the virtual clock moves and resolvers
    /// come online / go away per their deployment windows. Time cannot
    /// move backwards.
    pub fn set_epoch(&mut self, date: DateStamp) {
        assert!(date >= self.epoch, "time runs forward only");
        let target = self.calendar.time_of(date);
        let now = self.net.now();
        if target > now {
            self.net.advance(target.since(now));
        }
        self.epoch = date;
        self.sync_deployment();
    }

    fn sync_deployment(&mut self) {
        let date = self.epoch;
        for r in &self.deployment.dot_resolvers {
            let should = r.online_at(date);
            let is = self.deployed.contains(&r.addr);
            if should && !is {
                let bundle = self.bundles.get(&r.addr).expect("bundle built");
                self.net.add_host(bundle.meta.clone());
                for (port, svc) in &bundle.tcp {
                    self.net.bind_tcp(r.addr, *port, Arc::clone(svc));
                }
                for (port, svc) in &bundle.udp {
                    self.net.bind_udp(r.addr, *port, Arc::clone(svc));
                }
                self.deployed.insert(r.addr);
            } else if !should && is {
                self.net.remove_host(r.addr);
                self.deployed.remove(&r.addr);
            }
        }
    }

    /// Total addresses in the scan space.
    pub fn scan_space_size(&self) -> u64 {
        self.scan_space.iter().map(|b| b.size()).sum()
    }

    /// Ground truth: DoT resolvers online right now.
    pub fn online_dot_resolvers(&self) -> usize {
        self.deployment
            .dot_resolvers
            .iter()
            .filter(|r| r.online_at(self.epoch))
            .count()
    }
}

/// Build a certificate chain for a resolver per its health profile.
fn build_chain(
    web_ca: &CaHandle,
    orphan_ca: &CaHandle,
    provider: &str,
    profile: &CertProfile,
    leaf_key: KeyId,
    addr: Ipv4Addr,
    first: DateStamp,
) -> Vec<Certificate> {
    let serial = u64::from(u32::from(addr));
    let san = vec![provider.to_string(), format!("*.{provider}")];
    match profile {
        CertProfile::Valid => {
            vec![web_ca.issue(provider, san, leaf_key, serial, first + -90, first + 365)]
        }
        CertProfile::Expired { expired_on } => vec![web_ca.issue(
            provider,
            san,
            leaf_key,
            serial,
            *expired_on + -365,
            *expired_on,
        )],
        CertProfile::SelfSigned => vec![CaHandle::self_signed(
            provider,
            san,
            leaf_key,
            serial,
            first + -90,
            first + 3650,
        )],
        CertProfile::BrokenChain => {
            // Leaf signed by an intermediate the server never presents.
            vec![orphan_ca.issue(provider, san, leaf_key, serial, first + -90, first + 365)]
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn install_doh_front(
    net: &mut Network,
    svc: &DohServiceSpec,
    web_ca: &CaHandle,
    key: &mut impl FnMut() -> KeyId,
    responder_for: &mut impl FnMut(&str, &ResolverBehavior, &UpstreamMap) -> Arc<dyn DnsResponder>,
    upstreams: &UpstreamMap,
    first: DateStamp,
) {
    let mut meta = HostMeta::new(svc.front)
        .country(svc.country.as_str())
        .asn(svc.asn.0)
        .label(&svc.hostname);
    if svc.anycast {
        meta = meta.anycast();
    }
    net.add_host(meta);
    let responder = responder_for(&svc.provider, &ResolverBehavior::Recursive, upstreams);
    let backend = match svc.backend_timeout_ms {
        Some(ms) => {
            // Quad9 architecture: the front forwards to the provider's own
            // Do53 (here: bound on the front itself) with a hard timeout.
            net.bind_udp(
                svc.front,
                53,
                Arc::new(Do53UdpService::new(Arc::clone(&responder))),
            );
            DohBackend::ForwardUdp {
                backend: svc.front,
                port: 53,
                timeout: SimDuration::from_millis(ms),
            }
        }
        None => DohBackend::Local(Arc::clone(&responder)),
    };
    let k = key();
    let chain = vec![web_ca.issue(
        &svc.hostname,
        vec![format!("*.{}", svc.hostname)],
        k,
        u64::from(u32::from(svc.front)),
        first + -60,
        first + 365,
    )];
    net.bind_tcp(
        svc.front,
        443,
        Arc::new(DohServerService::new(
            TlsServerConfig::new(chain, k),
            vec![svc.template.path().to_string()],
            backend,
        )),
    );
}
