//! Cross-crate integration: invariants that only hold when every layer
//! cooperates — ground-truth recovery, determinism, and the real SOCKS5
//! relay path.

use dnswire::{builder, Rcode, RecordType};
use doe_core::experiments::ALL_EXPERIMENTS;
use doe_core::{Study, StudyConfig};
use doe_protocols::QueryLog;
use doe_vantage::socks::Socks5Client;
use netsim::HostMeta;
use std::net::Ipv4Addr;
use std::sync::Arc;
use tlssim::InterceptLog;
use worldgen::{Affliction, World, WorldConfig};

#[test]
fn scanner_recovers_deployment_ground_truth() {
    let mut world = World::build(WorldConfig::test_scale(101));
    let space = doe_scanner::campaign::compact_space(&world);
    let date = world.config.scan_date(0);
    world.set_epoch(date);
    let summary = doe_scanner::campaign::scan_epoch_sharded(&mut world, &space, 0, 5, 1);

    // Every *measured* open resolver corresponds to a ground-truth
    // deployment that is online and answers queries.
    let mut truth: std::collections::HashSet<Ipv4Addr> = world
        .deployment
        .dot_resolvers
        .iter()
        .filter(|r| r.online_at(date))
        .map(|r| r.addr)
        .collect();
    // The study's own self-built resolver is also a genuine open DoT
    // service inside the scan space.
    truth.insert(world.self_built.addr);
    for obs in summary.observations.rows().filter(|o| o.is_open_resolver()) {
        assert!(
            truth.contains(&obs.addr),
            "scanner hallucinated a resolver at {}",
            obs.addr
        );
    }
    // Recovery rate is essentially total (loss can cost a handful).
    let found = summary.open_resolvers;
    assert!(
        found * 100 >= truth.len() * 95,
        "found {found} of {} ground-truth resolvers",
        truth.len()
    );

    // Provider grouping reconstructs ground-truth provider keys.
    for obs in summary.observations.rows().filter(|o| o.is_open_resolver()) {
        let Some(deployed) = world
            .deployment
            .dot_resolvers
            .iter()
            .find(|r| r.addr == obs.addr)
        else {
            continue; // the self-built resolver has no deployment record
        };
        // DotProxy appliances present their own device CN; every other
        // behaviour presents the provider's name.
        if !matches!(
            deployed.behavior,
            worldgen::ResolverBehavior::DotProxy { .. }
        ) {
            assert_eq!(
                obs.provider,
                Some(deployed.provider.as_str()),
                "provider grouping diverged at {}",
                obs.addr
            );
        }
    }
}

#[test]
fn whole_study_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut study = Study::new(StudyConfig {
            epochs: 2,
            ..StudyConfig::quick(seed)
        });
        let table4 = doe_core::experiments::run(&mut study, "table4").expect("runs");
        let figure9 = doe_core::experiments::run(&mut study, "figure9").expect("runs");
        (table4.json.to_string(), figure9.json.to_string())
    };
    let a = run(77);
    let b = run(77);
    assert_eq!(a, b, "same seed must reproduce byte-identical results");
    let c = run(78);
    assert_ne!(a, c, "different seeds should differ in detail");
}

/// Two studies built one after the other in one process write the same
/// bytes for every artifact and for the telemetry snapshot, so no state
/// outlives a `Study`. doe-bench compares each batch with the first one
/// of its process in the same way.
#[test]
fn two_studies_in_one_process_write_the_same_bytes() {
    let run = || {
        let mut study = Study::new(StudyConfig::quick(2019));
        let mut bytes: Vec<(&str, String)> = ALL_EXPERIMENTS
            .iter()
            .map(|&id| {
                let result = doe_core::experiments::run(&mut study, id).expect("runs");
                let body = serde_json::to_string_pretty(&result.json).expect("serialises");
                (id, body)
            })
            .collect();
        let snapshot = study.world.net.metrics().snapshot();
        let body = serde_json::to_string_pretty(&snapshot).expect("serialises");
        bytes.push(("telemetry", body));
        bytes
    };
    let first = run();
    let second = run();
    assert_eq!(first.len(), ALL_EXPERIMENTS.len() + 1);
    for ((id, a), (_, b)) in first.iter().zip(&second) {
        assert!(a == b, "{id} differs between two studies in one process");
    }
}

#[test]
fn dns_through_a_real_socks5_tunnel() {
    // The measurement platform's relay architecture, end to end: a
    // measurement client in the US tunnels a clear-text DNS/TCP query
    // through a super proxy that exits via a residential node, and the
    // exit node's middleboxes apply (Figure 5).
    let mut world = World::build(WorldConfig::test_scale(55));
    let mc: Ipv4Addr = "198.51.100.60".parse().unwrap();
    let super_proxy: Ipv4Addr = "198.51.100.61".parse().unwrap();
    world
        .net
        .add_host(HostMeta::new(mc).country("US").asn(65_100));
    world.net.add_host(
        HostMeta::new(super_proxy)
            .country("US")
            .asn(65_100)
            .label("super proxy"),
    );

    // A clean exit and a port-53-filtered exit.
    let clean = world
        .proxyrack
        .clients
        .iter()
        .find(|c| c.affliction == Affliction::None)
        .unwrap()
        .clone();
    let filtered = world
        .proxyrack
        .clients
        .iter()
        .find(|c| c.affliction == Affliction::Port53Filter)
        .unwrap()
        .clone();

    for (exit, should_work) in [(clean, true), (filtered, false)] {
        world.net.bind_tcp(
            super_proxy,
            1080,
            Arc::new(doe_vantage::Socks5RelayService::new(exit.ip)),
        );
        let target = worldgen::providers::anchors::CLOUDFLARE_PRIMARY;
        let tunnel = Socks5Client::tunnel(&mut world.net, mc, super_proxy, 1080, target, 53);
        match (tunnel, should_work) {
            (Ok(mut t), true) => {
                let q = builder::query(1, "sock1.probe.dnsmeasure.example", RecordType::A).unwrap();
                let framed = dnswire::frame_message(&q.encode().unwrap()).unwrap();
                let resp = t.exchange(&mut world.net, &framed).unwrap();
                let (msg, _) = dnswire::read_framed(&resp).expect("framed response");
                let msg = dnswire::Message::decode(msg).unwrap();
                assert_eq!(msg.rcode(), Rcode::NoError);
                match &msg.answers[0].rdata {
                    dnswire::RData::A(a) => assert_eq!(*a, world.probe.expected_a),
                    other => panic!("unexpected rdata {other:?}"),
                }
                t.close(&mut world.net);
            }
            (Err(e), false) => {
                assert!(e.contains("connect refused"), "filtered exit: {e}");
            }
            (Ok(_), false) => panic!("filtered exit should not reach port 53"),
            (Err(e), true) => panic!("clean exit failed: {e}"),
        }
    }
}

#[test]
fn interception_ground_truth_cross_check() {
    // The authoritative server's observed sources corroborate the
    // intercept logs: queries leaked through a MITM arrive at the
    // authoritative from the *resolver*, and the device log holds the
    // plaintext the client sent.
    let mut world = World::build(WorldConfig::test_scale(66));
    let victim = world
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
        .unwrap()
        .clone();
    // Ground truth is recorded only on a network that carries the logs.
    world.net.shard_local(|_: &mut QueryLog| ());
    world.net.shard_local(|_: &mut InterceptLog| ());
    let mut dot = doe_protocols::dot::DotClient::new(tlssim::TlsClientConfig::opportunistic(
        world.trust_store.clone(),
        world.epoch(),
    ));
    let q = builder::query(9, "leak1.probe.dnsmeasure.example", RecordType::A).unwrap();
    let reply = dot
        .query_once(
            &mut world.net,
            victim.ip,
            worldgen::providers::anchors::CLOUDFLARE_PRIMARY,
            None,
            &q,
        )
        .expect("opportunistic DoT succeeds through the device");
    assert_eq!(reply.view().rcode(), Rcode::NoError);

    // The device saw framed DNS containing our query name.
    let InterceptLog(entries) = world.net.shard_local(|log: &mut InterceptLog| log.clone());
    assert!(entries.iter().any(|e| {
        e.client == victim.ip && String::from_utf8_lossy(&e.plaintext).contains("leak1")
    }));

    // And the authoritative server saw the *resolver*, not the client or
    // the device (the device proxies to the genuine resolver, which then
    // recurses).
    let QueryLog(auth_log) = world.net.shard_local(|log: &mut QueryLog| log.clone());
    let entry = auth_log
        .iter()
        .find(|e| e.qname.to_string().starts_with("leak1"))
        .expect("query recursed to the authoritative");
    assert_ne!(entry.observed_src, victim.ip);
}

#[test]
fn stub_resolver_profiles_disagree_exactly_where_rfc8310_says() {
    // Strict fails closed against bad certs; opportunistic proceeds; the
    // same resolver, the same moment — the profile is the only variable.
    let mut world = World::build(WorldConfig::test_scale(88));
    let date = world.config.scan_date(0);
    world.set_epoch(date);
    let bad = world
        .deployment
        .dot_resolvers
        .iter()
        .find(|r| {
            r.online_at(date)
                && matches!(r.cert, worldgen::CertProfile::SelfSigned)
                && matches!(r.behavior, worldgen::ResolverBehavior::Recursive)
        })
        .expect("a self-signed recursive resolver exists")
        .clone();
    let client = world.proxyrack.clients[0].clone();

    let mut strict = doe_protocols::dot::DotClient::new(tlssim::TlsClientConfig::strict(
        world.trust_store.clone(),
        date,
    ));
    let q = builder::query(3, "prof1.probe.dnsmeasure.example", RecordType::A).unwrap();
    assert!(strict
        .query_once(&mut world.net, client.ip, bad.addr, Some(&bad.provider), &q)
        .is_err());

    let mut opp = doe_protocols::dot::DotClient::new(tlssim::TlsClientConfig::opportunistic(
        world.trust_store.clone(),
        date,
    ));
    let reply = opp
        .query_once(&mut world.net, client.ip, bad.addr, None, &q)
        .expect("opportunistic proceeds");
    assert_eq!(reply.view().rcode(), Rcode::NoError);
    assert!(matches!(
        reply.transport.verify,
        Some(Err(tlssim::CertError::SelfSigned))
    ));
}
