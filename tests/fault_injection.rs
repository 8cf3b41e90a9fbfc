//! Fault injection: the pipeline must behave sanely under packet loss,
//! forwarding loops and broken services — failures should be errors, not
//! hangs or panics.

use dnswire::zone::Zone;
use dnswire::{builder, Rcode, RecordType};
use dnswire::{Name, RData};
use doe_protocols::do53::{do53_udp_query, Do53UdpService};
use doe_protocols::dot::{DotClient, DotServerService};
use doe_protocols::responder::AuthoritativeServer;
use netsim::{HostMeta, LatencyProfile, Network, NetworkConfig, SimDuration};
use std::net::Ipv4Addr;
use std::sync::Arc;
use tlssim::{CaHandle, DateStamp, KeyId, TlsClientConfig, TlsServerConfig, TrustStore};

fn now() -> DateStamp {
    DateStamp::from_ymd(2019, 2, 1)
}

fn lossy_world(loss: f64) -> (Network, Ipv4Addr, Ipv4Addr, TrustStore) {
    let mut net = Network::new(NetworkConfig::default(), 404);
    let resolver: Ipv4Addr = "192.0.2.9".parse().unwrap();
    let client: Ipv4Addr = "198.51.100.9".parse().unwrap();
    net.add_host(HostMeta::new(resolver).country("US").label("resolver"));
    net.add_host(HostMeta::new(client).country("NG"));
    net.latency_mut().set_country_profile(
        netsim::CountryCode::new("NG"),
        LatencyProfile {
            access_ms: 15.0,
            jitter_sigma: 0.4,
            loss,
        },
    );
    let apex = Name::parse("probe.example").unwrap();
    let mut zone = Zone::new(apex.clone());
    zone.add_record(
        &apex.prepend("*").unwrap(),
        60,
        RData::A("203.0.113.1".parse().unwrap()),
    );
    let responder: Arc<dyn doe_protocols::DnsResponder> =
        Arc::new(AuthoritativeServer::new(vec![zone]));
    net.bind_udp(
        resolver,
        53,
        Arc::new(Do53UdpService::new(Arc::clone(&responder))),
    );
    let ca = CaHandle::new("CA", KeyId(1), now() + -100, 3650);
    let leaf = ca.issue(
        "dns.probe.example",
        vec![],
        KeyId(2),
        1,
        now() + -1,
        now() + 90,
    );
    let mut store = TrustStore::new();
    store.add(ca.authority());
    net.bind_tcp(
        resolver,
        853,
        Arc::new(DotServerService::new(
            TlsServerConfig::new(vec![leaf], KeyId(2)),
            responder,
        )),
    );
    (net, client, resolver, store)
}

#[test]
fn udp_retries_beat_moderate_loss() {
    let (mut net, client, resolver, _store) = lossy_world(0.25);
    let mut ok = 0;
    let n = 200;
    for i in 0..n {
        let q = builder::query(i, &format!("l{i}.probe.example"), RecordType::A).unwrap();
        // 4 retries: P(all lost) = 0.25^5 ≈ 0.1%.
        if do53_udp_query(&mut net, client, resolver, &q, SimDuration::from_secs(2), 4).is_ok() {
            ok += 1;
        }
    }
    assert!(ok as f64 / n as f64 > 0.97, "{ok}/{n} under 25% loss");
}

#[test]
fn tcp_based_dot_survives_loss_with_retransmission_cost() {
    // TCP retransmissions are charged as extra RTTs, not failures: DoT
    // lookups still complete, just slower.
    let (mut net, client, resolver, store) = lossy_world(0.30);
    let mut dot = DotClient::new(TlsClientConfig::strict(store, now()));
    let mut latencies = Vec::new();
    for i in 0..40u16 {
        let q = builder::query(i, &format!("t{i}.probe.example"), RecordType::A).unwrap();
        let reply = dot
            .query_once(&mut net, client, resolver, Some("dns.probe.example"), &q)
            .expect("TCP absorbs loss");
        assert_eq!(reply.view().rcode(), Rcode::NoError);
        latencies.push(reply.latency);
    }
    // Loss shows up as a heavy tail, not as errors.
    let max = latencies.iter().max().unwrap();
    let min = latencies.iter().min().unwrap();
    assert!(*max > *min, "retransmissions should spread latencies");
}

#[test]
fn forwarding_loop_terminates_with_error() {
    // A DoT proxy that forwards to itself: the handler-depth guard must
    // convert the loop into an error instead of recursing forever.
    let mut net = Network::new(NetworkConfig::default(), 505);
    let proxy: Ipv4Addr = "192.0.2.66".parse().unwrap();
    let client: Ipv4Addr = "198.51.100.66".parse().unwrap();
    net.add_host(HostMeta::new(proxy).label("self-loop proxy"));
    net.add_host(HostMeta::new(client));
    let fg_ca = CaHandle::new("Loop CA", KeyId(9), now() + -10, 3650);
    let cert = CaHandle::self_signed("LOOP", vec![], KeyId(10), 1, now() + -10, now() + 90);
    let svc = tlssim::TlsInterceptService::fixed_cert_proxy(
        fg_ca,
        KeyId(10),
        vec![cert],
        (proxy, 853), // upstream = itself
        now(),
    );
    net.bind_tcp(proxy, 853, Arc::new(svc));
    let mut dot = DotClient::new(TlsClientConfig::opportunistic(TrustStore::new(), now()));
    let q = builder::query(1, "loop.probe.example", RecordType::A).unwrap();
    let result = dot.query_once(&mut net, client, proxy, None, &q);
    assert!(
        result.is_err(),
        "self-forwarding proxy must error, got {result:?}"
    );
}

#[test]
fn malformed_service_bytes_do_not_poison_the_client() {
    // A "DoT" service that answers TLS handshakes with garbage app data.
    let mut net = Network::new(NetworkConfig::default(), 606);
    let server: Ipv4Addr = "192.0.2.77".parse().unwrap();
    let client: Ipv4Addr = "198.51.100.77".parse().unwrap();
    net.add_host(HostMeta::new(server));
    net.add_host(HostMeta::new(client));
    net.bind_tcp(
        server,
        853,
        Arc::new(netsim::service::FnStreamService::new(
            |_c, _p, _d: &[u8]| vec![0xde, 0xad, 0xbe, 0xef, 0x01],
            "garbage",
        )),
    );
    let mut dot = DotClient::new(TlsClientConfig::opportunistic(TrustStore::new(), now()));
    let q = builder::query(1, "x.probe.example", RecordType::A).unwrap();
    assert!(dot.query_once(&mut net, client, server, None, &q).is_err());
    // The client object is still usable against a real server afterwards.
    let (mut net2, client2, resolver2, store2) = lossy_world(0.0);
    let mut dot2 = DotClient::new(TlsClientConfig::strict(store2, now()));
    let q2 = builder::query(2, "y.probe.example", RecordType::A).unwrap();
    assert!(dot2
        .query_once(
            &mut net2,
            client2,
            resolver2,
            Some("dns.probe.example"),
            &q2
        )
        .is_ok());
}

#[test]
fn extreme_loss_fails_loudly_not_silently() {
    let (mut net, client, resolver, _store) = lossy_world(1.0);
    let q = builder::query(1, "dead.probe.example", RecordType::A).unwrap();
    let err =
        do53_udp_query(&mut net, client, resolver, &q, SimDuration::from_secs(1), 2).unwrap_err();
    // All three attempts' timeouts are accounted.
    assert_eq!(err.elapsed(), SimDuration::from_secs(3));
}
