//! End-to-end smoke tests over a scaled-down world: the full stack from
//! vantage client through middleboxes to resolvers and the authoritative
//! ground truth.

use dnswire::{builder, Rcode, RecordType};
use doe_protocols::dot::DotClient;
use doe_protocols::{Bootstrap, DohClient, DohMethod, QueryLog};
use netsim::geo::region_of;
use std::net::Ipv4Addr;
use tlssim::{InterceptLog, TlsClientConfig};
use worldgen::{Affliction, World, WorldConfig};

fn test_world() -> World {
    World::build(WorldConfig::test_scale(42))
}

#[test]
fn world_builds_with_expected_inventory() {
    let w = test_world();
    assert!(
        w.online_dot_resolvers() >= 1_400,
        "{}",
        w.online_dot_resolvers()
    );
    assert_eq!(w.deployment.doh_services.len(), 17);
    assert!(w.proxyrack.clients.len() > 400);
    assert!(w.zhima.clients.len() > 1_000);
    assert!(w.scan_space_size() > 500_000);
    assert!(w.corpus.urls.len() > 2_000);
    assert_eq!(w.scanner_sources.len(), 3);
}

#[test]
fn clean_client_full_stack_dot_query() {
    let mut w = test_world();
    let client = w
        .proxyrack
        .clients
        .iter()
        .find(|c| c.affliction == Affliction::None && c.country.as_str() == "US")
        .expect("clean US client")
        .clone();
    w.net.shard_local(|_: &mut QueryLog| ());
    let mut dot = DotClient::new(TlsClientConfig::opportunistic(
        w.trust_store.clone(),
        w.epoch(),
    ));
    let q = builder::query(7, "smoke1.probe.dnsmeasure.example", RecordType::A).unwrap();
    let reply = dot
        .query_once(
            &mut w.net,
            client.ip,
            worldgen::providers::anchors::CLOUDFLARE_PRIMARY,
            None,
            &q,
        )
        .unwrap();
    assert_eq!(reply.view().rcode(), Rcode::NoError);
    // The answer matches the wildcard ground truth.
    match reply.view().answers().next().unwrap().rdata() {
        dnswire::RData::A(a) => assert_eq!(a, w.probe.expected_a),
        other => panic!("expected A, got {other:?}"),
    }
    // The authoritative server saw Cloudflare's resolver, not the client.
    let QueryLog(log) = w.net.shard_local(|log: &mut QueryLog| log.clone());
    let entry = log
        .iter()
        .find(|e| e.qname.to_string().starts_with("smoke1"))
        .expect("query reached authoritative");
    assert_ne!(entry.observed_src, client.ip);
}

#[test]
fn conflicted_client_fails_cloudflare_dot_but_not_doh() {
    let mut w = test_world();
    let client = w
        .proxyrack
        .clients
        .iter()
        .find(|c| matches!(c.affliction, Affliction::Conflict(_)))
        .expect("conflicted client")
        .clone();
    // DoT to 1.1.1.1 fails: the squatter owns the address.
    let mut dot = DotClient::new(TlsClientConfig::opportunistic(
        w.trust_store.clone(),
        w.epoch(),
    ));
    let q = builder::query(8, "smoke2.probe.dnsmeasure.example", RecordType::A).unwrap();
    let result = dot.query_once(
        &mut w.net,
        client.ip,
        worldgen::providers::anchors::CLOUDFLARE_PRIMARY,
        None,
        &q,
    );
    assert!(result.is_err(), "squatted 1.1.1.1 must not answer DoT");
    // DoH via cloudflare-dns.com works: different front address.
    let mut doh = DohClient::new(
        TlsClientConfig::strict(w.trust_store.clone(), w.epoch()),
        w.deployment.doh_services[0].template.clone(),
        DohMethod::Post,
        Bootstrap::Do53 {
            resolver: w.bootstrap_resolver,
        },
    );
    let reply = doh.query_once(&mut w.net, client.ip, &q).unwrap();
    assert_eq!(reply.view().rcode(), Rcode::NoError);
}

#[test]
fn intercepted_client_leaks_queries_opportunistically() {
    let mut w = test_world();
    let client = w
        .proxyrack
        .clients
        .iter()
        .find(|c| {
            matches!(
                &c.affliction,
                Affliction::Intercepted {
                    intercepts_853: true,
                    ..
                }
            )
        })
        .expect("intercepted client")
        .clone();
    let Affliction::Intercepted { ca_cn, .. } = &client.affliction else {
        unreachable!()
    };
    w.net.shard_local(|_: &mut InterceptLog| ());
    let mut dot = DotClient::new(TlsClientConfig::opportunistic(
        w.trust_store.clone(),
        w.epoch(),
    ));
    let q = builder::query(9, "smoke3.probe.dnsmeasure.example", RecordType::A).unwrap();
    let reply = dot
        .query_once(
            &mut w.net,
            client.ip,
            worldgen::providers::anchors::CLOUDFLARE_PRIMARY,
            None,
            &q,
        )
        .expect("opportunistic DoT proceeds through the interceptor");
    assert_eq!(reply.view().rcode(), Rcode::NoError);
    // Verification failed with the device's CA name.
    match &reply.transport.verify {
        Some(Err(tlssim::CertError::UntrustedCa { ca_cn: seen })) => {
            assert_eq!(seen, ca_cn);
        }
        other => panic!("expected untrusted CA, got {other:?}"),
    }
    // The device logged the plaintext.
    let InterceptLog(log) = w.net.shard_local(|log: &mut InterceptLog| log.clone());
    assert!(
        log.iter().any(|e| e.client == client.ip),
        "interceptor saw the query"
    );
}

#[test]
fn cn_client_blocked_from_google_doh() {
    let mut w = test_world();
    let client = w.zhima.clients[0].clone();
    let google = w
        .deployment
        .doh_services
        .iter()
        .find(|s| s.hostname == "dns.google.com")
        .unwrap()
        .clone();
    let mut doh = DohClient::new(
        TlsClientConfig::strict(w.trust_store.clone(), w.epoch()),
        google.template.clone(),
        DohMethod::Post,
        Bootstrap::Do53 {
            resolver: w.bootstrap_resolver,
        },
    );
    let q = builder::query(10, "smoke4.probe.dnsmeasure.example", RecordType::A).unwrap();
    let err = doh.query_once(&mut w.net, client.ip, &q).unwrap_err();
    // Bootstrap resolves, but the TCP connection to the front blackholes.
    assert!(
        matches!(
            err,
            doe_protocols::QueryError::Tls(tlssim::TlsError::Transport(_))
        ),
        "{err:?}"
    );
}

#[test]
fn quad9_doh_servfails_at_double_digit_rate() {
    let mut w = test_world();
    let client = w
        .proxyrack
        .clients
        .iter()
        .find(|c| c.affliction == Affliction::None)
        .unwrap()
        .clone();
    let quad9 = w
        .deployment
        .doh_services
        .iter()
        .find(|s| s.hostname == "dns.quad9.net")
        .unwrap()
        .clone();
    let mut doh = DohClient::new(
        TlsClientConfig::strict(w.trust_store.clone(), w.epoch()),
        quad9.template.clone(),
        DohMethod::Post,
        Bootstrap::Static(quad9.front),
    );
    let mut session = doh.session(&mut w.net, client.ip).unwrap();
    let mut servfail = 0;
    let n = 120;
    for i in 0..n {
        let q = builder::query(
            i as u16,
            &format!("q9u{i}.probe.dnsmeasure.example"),
            RecordType::A,
        )
        .unwrap();
        let reply = session.query(&mut w.net, &q).unwrap();
        if reply.view().rcode() == Rcode::ServFail {
            servfail += 1;
        }
    }
    let frac = servfail as f64 / n as f64;
    assert!(
        (0.05..0.25).contains(&frac),
        "Quad9 DoH SERVFAIL {frac} (paper: ~13%)"
    );
}

#[test]
fn scan_epoch_changes_online_population() {
    let mut w = test_world();
    let feb = w.online_dot_resolvers();
    let cfg = w.config.clone();
    w.set_epoch(cfg.scan_date(9));
    let may = w.online_dot_resolvers();
    assert!(may > feb, "growth: feb {feb} may {may}");
    // CN cloud shutdown visible in the network itself.
    let cn_online = w
        .deployment
        .dot_resolvers
        .iter()
        .filter(|r| r.country.as_str() == "CN" && r.online_at(cfg.scan_date(9)))
        .count();
    assert!(cn_online <= 45, "CN at May: {cn_online}");
}

/// Every member of every paper-world host band (the 2.5M junk port-853
/// hosts) is attributed its band's country, AS and
/// `region_of(band.country)`, which the data plane computes once per
/// band; a registered host shadowing a member keeps its own attribution.
#[test]
fn paper_world_band_members_get_their_band_region() {
    let w = World::build(WorldConfig::default());
    let net = &w.net;
    assert_eq!(net.bands().len(), 10);
    assert!(net.band_host_count() >= 2_000_000);
    for band in net.bands() {
        let expected = (band.country, band.asn, region_of(band.country));
        let start = u32::from(band.start);
        for ip in (start..start + band.count).map(Ipv4Addr::from) {
            if !net.has_host(ip) {
                assert_eq!(net.attribution(ip), expected, "{ip}");
            }
        }
    }
}

#[test]
fn self_built_resolver_serves_all_three_transports() {
    let mut w = test_world();
    let client = w
        .proxyrack
        .clients
        .iter()
        .find(|c| c.affliction == Affliction::None)
        .unwrap()
        .clone();
    let q = builder::query(11, "smoke5.probe.dnsmeasure.example", RecordType::A).unwrap();
    // Do53/UDP.
    let reply = doe_protocols::do53_udp_query(
        &mut w.net,
        client.ip,
        w.self_built.addr,
        &q,
        netsim::SimDuration::from_secs(5),
        1,
    )
    .unwrap();
    assert_eq!(reply.view().rcode(), Rcode::NoError);
    // DoT, strict, with the auth name.
    let mut dot = DotClient::new(TlsClientConfig::strict(w.trust_store.clone(), w.epoch()));
    let auth_name = w.self_built.auth_name.clone();
    let reply = dot
        .query_once(
            &mut w.net,
            client.ip,
            w.self_built.addr,
            Some(&auth_name),
            &q,
        )
        .unwrap();
    assert_eq!(reply.view().rcode(), Rcode::NoError);
    // DoH.
    let mut doh = DohClient::new(
        TlsClientConfig::strict(w.trust_store.clone(), w.epoch()),
        w.self_built.doh_template.clone(),
        DohMethod::Get,
        Bootstrap::Do53 {
            resolver: w.bootstrap_resolver,
        },
    );
    let reply = doh.query_once(&mut w.net, client.ip, &q).unwrap();
    assert_eq!(reply.view().rcode(), Rcode::NoError);
}

#[test]
fn doq_has_no_real_world_deployment() {
    // Table 1/Table 8: no resolver in the world binds port 784.
    let w = test_world();
    for r in &w.deployment.dot_resolvers {
        assert!(w.net.host_meta(r.addr).is_none() || !w.net.open_tcp_ports(r.addr).contains(&784));
    }
}
