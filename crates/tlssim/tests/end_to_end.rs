//! End-to-end TLS over the simulated network: handshakes, profiles,
//! resumption, interception.

use netsim::{
    DstMatch, HostMeta, Network, NetworkConfig, PathDecision, PolicyRule, Service, SimDuration,
};
use std::net::Ipv4Addr;
use std::sync::Arc;
use tlssim::handshake::{ClientHello, HandshakeMsg, ServerHello};
use tlssim::record::{decode_records, encode_records, ContentType, Record};
use tlssim::{
    CaHandle, CertError, DateStamp, InterceptLog, KeyId, TlsClientConfig, TlsConnector, TlsError,
    TlsInterceptService, TlsServerConfig, TlsServerService, TrustStore, VerifyMode,
};

fn ip(s: &str) -> Ipv4Addr {
    s.parse().unwrap()
}

const NOW: fn() -> DateStamp = || DateStamp::from_ymd(2019, 2, 1);

/// Upper-cases whatever it receives: an observable plaintext transform.
struct UpperService;
impl Service for UpperService {
    fn open_stream(&self, _peer: netsim::PeerInfo) -> Box<dyn netsim::StreamHandler> {
        struct H;
        impl netsim::StreamHandler for H {
            fn on_bytes(&mut self, _ctx: &mut netsim::ServiceCtx<'_>, data: &[u8]) -> Vec<u8> {
                data.to_ascii_uppercase()
            }
        }
        Box::new(H)
    }
}

/// Answers every request with this many bytes.
struct FloodService(usize);
impl Service for FloodService {
    fn open_stream(&self, _peer: netsim::PeerInfo) -> Box<dyn netsim::StreamHandler> {
        struct H(usize);
        impl netsim::StreamHandler for H {
            fn on_bytes(&mut self, _ctx: &mut netsim::ServiceCtx<'_>, _data: &[u8]) -> Vec<u8> {
                vec![b'x'; self.0]
            }
        }
        Box::new(H(self.0))
    }
}

struct World {
    net: Network,
    client: Ipv4Addr,
    server: Ipv4Addr,
    store: TrustStore,
}

fn build_world(seed: u64) -> World {
    build_world_serving(seed, Arc::new(UpperService))
}

fn build_world_serving(seed: u64, inner: Arc<dyn Service>) -> World {
    let mut net = Network::new(NetworkConfig::default(), seed);
    let server = ip("203.0.113.10");
    let client = ip("198.51.100.20");
    net.add_host(
        HostMeta::new(server)
            .country("US")
            .asn(13335)
            .label("resolver"),
    );
    net.add_host(HostMeta::new(client).country("DE").asn(3320));

    let ca = CaHandle::new("Example Root CA", KeyId(1), NOW() + -365, 3650);
    let leaf = ca.issue(
        "dns.example.com",
        vec!["*.example.com".into()],
        KeyId(2),
        1,
        NOW() + -30,
        NOW() + 300,
    );
    let mut store = TrustStore::new();
    store.add(ca.authority());
    let tls = TlsServerService::new(
        TlsServerConfig::new(vec![leaf], KeyId(2)).with_alpn(&["dot", "h2"]),
        inner,
    );
    net.bind_tcp(server, 853, Arc::new(tls));
    World {
        net,
        client,
        server,
        store,
    }
}

#[test]
fn strict_handshake_and_exchange() {
    let mut w = build_world(1);
    let mut connector =
        TlsConnector::new(TlsClientConfig::strict(w.store.clone(), NOW()).with_alpn(&["dot"]));
    let mut stream = connector
        .connect(&mut w.net, w.client, w.server, 853, Some("dns.example.com"))
        .unwrap();
    assert_eq!(stream.alpn(), Some("dot"));
    assert!(stream.verify_result().is_ok());
    assert!(!stream.resumed());
    let resp = stream.request(&mut w.net, b"hello dns").unwrap();
    assert_eq!(resp, b"HELLO DNS");
}

/// A record's length field is a `u16`. The DoT frame of a 65,535-byte
/// DNS message is 65,537 bytes, so the client refuses it before sending
/// rather than wrap its length, and the session stays usable.
#[test]
fn oversized_request_is_refused_before_sending() {
    let mut w = build_world(11);
    let mut connector =
        TlsConnector::new(TlsClientConfig::strict(w.store.clone(), NOW()).with_alpn(&["dot"]));
    let mut stream = connector
        .connect(&mut w.net, w.client, w.server, 853, Some("dns.example.com"))
        .unwrap();
    let round_trips = stream.conn().round_trips();
    assert_eq!(
        stream.request(&mut w.net, &[b'q'; 65_537]),
        Err(TlsError::RecordOverflow(65_537))
    );
    assert_eq!(stream.conn().round_trips(), round_trips);
    // The largest plaintext one record holds still crosses intact.
    let max = tlssim::record::MAX_PLAINTEXT;
    assert_eq!(
        stream.request(&mut w.net, &vec![b'q'; max]).unwrap(),
        vec![b'Q'; max]
    );
}

/// A response too large for one record draws a `record_overflow` alert
/// instead of a record whose length wrapped.
#[test]
fn oversized_response_draws_record_overflow_alert() {
    let mut w = build_world_serving(12, Arc::new(FloodService(70_000)));
    let mut connector =
        TlsConnector::new(TlsClientConfig::strict(w.store.clone(), NOW()).with_alpn(&["dot"]));
    let mut stream = connector
        .connect(&mut w.net, w.client, w.server, 853, Some("dns.example.com"))
        .unwrap();
    assert_eq!(
        stream.request(&mut w.net, b"query"),
        Err(TlsError::HandshakeFailed("record_overflow".into()))
    );
}

/// A handshake record's length field is a `u16` too. A ClientHello
/// longer than that is refused before it is sent, for the full and the
/// ticketed hello alike, instead of going out with a wrapped length.
#[test]
fn oversized_client_hello_is_refused_before_sending() {
    let mut w = build_world(13);
    let mut connector = TlsConnector::new(TlsClientConfig::no_verify(NOW()).with_alpn(&["dot"]));
    let long_sni = "a".repeat(70_000);
    let err = connector
        .connect(&mut w.net, w.client, w.server, 853, Some(&long_sni))
        .unwrap_err();
    assert!(
        matches!(err, TlsError::RecordOverflow(len) if len > 70_000),
        "{err:?}"
    );

    // A name that fills the record when the client random has all 20
    // digits: the full hello fits, and the ticket pushes the resumed
    // hello past the limit.
    let fixed = HandshakeMsg::ClientHello(ClientHello {
        sni: Some(String::new()),
        alpn: vec!["dot".into()],
        client_random: u64::MAX,
        ticket: None,
    })
    .encode()
    .len();
    let sni = "a".repeat(usize::from(u16::MAX) - fixed);
    connector
        .connect(&mut w.net, w.client, w.server, 853, Some(&sni))
        .unwrap();
    assert_eq!(connector.cached_sessions(), 1);
    let err = connector
        .connect(&mut w.net, w.client, w.server, 853, Some(&sni))
        .unwrap_err();
    assert!(
        matches!(err, TlsError::RecordOverflow(len) if len > usize::from(u16::MAX)),
        "{err:?}"
    );
}

/// A ServerHello whose chain does not fit one record draws a
/// `record_overflow` alert, from the server and from an interception
/// device presenting the same chain.
#[test]
fn oversized_server_hello_draws_record_overflow_alert() {
    let mut w = build_world(14);
    let sans: Vec<String> = (0..3_000)
        .map(|i| format!("host-{i:04}.example.com"))
        .collect();
    let leaf = CaHandle::self_signed("big.example.com", sans, KeyId(30), 1, NOW(), NOW() + 90);
    let big = TlsServerConfig::new(vec![leaf.clone()], KeyId(30));
    w.net.bind_tcp(
        w.server,
        8853,
        Arc::new(TlsServerService::new(big, Arc::new(UpperService))),
    );
    let proxy_ip = ip("10.88.0.2");
    w.net
        .add_host(HostMeta::new(proxy_ip).country("US").asn(64512));
    let proxy = TlsInterceptService::fixed_cert_proxy(
        CaHandle::new("FortiGate CA", KeyId(31), NOW(), 3650),
        KeyId(30),
        vec![leaf],
        (w.server, 853),
        NOW(),
    );
    w.net.bind_tcp(proxy_ip, 853, Arc::new(proxy));

    let mut connector = TlsConnector::new(TlsClientConfig::no_verify(NOW()));
    for (dst, port) in [(w.server, 8853), (proxy_ip, 853)] {
        assert_eq!(
            connector
                .connect(&mut w.net, w.client, dst, port, None)
                .unwrap_err(),
            TlsError::HandshakeFailed("record_overflow".into()),
            "{dst}:{port}"
        );
    }
}

#[test]
fn resumption_skips_handshake_round_trip() {
    let mut w = build_world(2);
    let mut connector =
        TlsConnector::new(TlsClientConfig::strict(w.store.clone(), NOW()).with_alpn(&["dot"]));
    // Session 1: full handshake.
    let mut s1 = connector
        .connect(&mut w.net, w.client, w.server, 853, Some("dns.example.com"))
        .unwrap();
    s1.request(&mut w.net, b"warmup").unwrap();
    let full_rts = s1.conn().round_trips();
    s1.close(&mut w.net);
    assert_eq!(connector.cached_sessions(), 1);

    // Session 2: resumed; hello piggybacks on the first request.
    let mut s2 = connector
        .connect(&mut w.net, w.client, w.server, 853, Some("dns.example.com"))
        .unwrap();
    assert!(s2.resumed());
    let resp = s2.request(&mut w.net, b"resumed query").unwrap();
    assert_eq!(resp, b"RESUMED QUERY");
    let resumed_rts = s2.conn().round_trips();
    // Full (TLS 1.2 style): connect + hello + finished + request = 4.
    // Resumed: connect + request = 2.
    assert_eq!(full_rts, 4);
    assert_eq!(resumed_rts, 2);
}

#[test]
fn strict_fails_on_self_signed_opportunistic_proceeds() {
    let mut w = build_world(3);
    // Replace the server's chain with an appliance default certificate.
    let self_signed =
        CaHandle::self_signed("FGT60D", vec![], KeyId(9), 1, NOW() + -1, NOW() + 3650);
    let tls = TlsServerService::new(
        TlsServerConfig::new(vec![self_signed], KeyId(9)),
        Arc::new(UpperService),
    );
    w.net.bind_tcp(w.server, 853, Arc::new(tls));

    let mut strict = TlsConnector::new(TlsClientConfig::strict(w.store.clone(), NOW()));
    let err = strict
        .connect(&mut w.net, w.client, w.server, 853, None)
        .unwrap_err();
    assert_eq!(err, TlsError::Cert(CertError::SelfSigned));

    let mut opp = TlsConnector::new(TlsClientConfig::opportunistic(w.store.clone(), NOW()));
    let mut stream = opp
        .connect(&mut w.net, w.client, w.server, 853, None)
        .unwrap();
    assert_eq!(stream.verify_result(), &Err(CertError::SelfSigned));
    let resp = stream.request(&mut w.net, b"leaky").unwrap();
    assert_eq!(resp, b"LEAKY");
}

#[test]
fn alpn_mismatch_aborts() {
    let mut w = build_world(4);
    let mut connector =
        TlsConnector::new(TlsClientConfig::strict(w.store.clone(), NOW()).with_alpn(&["h3"]));
    let err = connector
        .connect(&mut w.net, w.client, w.server, 853, None)
        .unwrap_err();
    assert!(matches!(err, TlsError::HandshakeFailed(_)), "{err:?}");
}

/// A client offering `h2, http/1.1` to a server that accepts only
/// `http/1.1` reads `http/1.1`, on the full stream and on the stream its
/// ticket resumes: the ticket keeps what the handshake negotiated, not
/// the client's first offer.
#[test]
fn a_resumed_stream_keeps_the_negotiated_alpn() {
    let mut w = build_world(15);
    let cert = CaHandle::self_signed("web.example.com", vec![], KeyId(40), 1, NOW(), NOW() + 90);
    w.net.bind_tcp(
        w.server,
        443,
        Arc::new(TlsServerService::new(
            TlsServerConfig::new(vec![cert], KeyId(40)).with_alpn(&["http/1.1"]),
            Arc::new(UpperService),
        )),
    );
    let mut connector =
        TlsConnector::new(TlsClientConfig::no_verify(NOW()).with_alpn(&["h2", "http/1.1"]));
    let mut full = connector
        .connect(&mut w.net, w.client, w.server, 443, None)
        .unwrap();
    assert!(!full.resumed());
    assert_eq!(full.alpn(), Some("http/1.1"));
    assert_eq!(full.request(&mut w.net, b"full").unwrap(), b"FULL");
    full.close(&mut w.net);

    let mut resumed = connector
        .connect(&mut w.net, w.client, w.server, 443, None)
        .unwrap();
    assert!(resumed.resumed());
    assert_eq!(resumed.alpn(), Some("http/1.1"));
    assert_eq!(resumed.request(&mut w.net, b"again").unwrap(), b"AGAIN");
}

/// A scripted server whose ServerHello selects `spdy/3` whatever the
/// client offered, with a valid chain and a Finished acknowledgement.
struct SpdyServer(tlssim::Certificate);
impl Service for SpdyServer {
    fn open_stream(&self, _peer: netsim::PeerInfo) -> Box<dyn netsim::StreamHandler> {
        struct H(tlssim::Certificate);
        impl netsim::StreamHandler for H {
            fn on_bytes(&mut self, _ctx: &mut netsim::ServiceCtx<'_>, data: &[u8]) -> Vec<u8> {
                let mut out = Vec::new();
                for record in decode_records(data).unwrap() {
                    let reply = match HandshakeMsg::decode(&record.payload) {
                        Ok(HandshakeMsg::ClientHello(_)) => {
                            HandshakeMsg::ServerHello(ServerHello {
                                server_random: 7,
                                alpn: Some("spdy/3".into()),
                                chain: vec![self.0.clone()],
                                ticket: Some(9),
                                resumed: false,
                            })
                        }
                        _ => HandshakeMsg::Finished,
                    };
                    out.push(Record {
                        ctype: ContentType::Handshake,
                        payload: reply.encode(),
                    });
                }
                encode_records(&out)
            }
        }
        Box::new(H(self.0.clone()))
    }
}

/// RFC 7301 §3.2: a server selects one of the client's offers. A
/// ServerHello selecting anything else is refused, and no ticket is kept.
#[test]
fn a_server_selecting_an_unoffered_alpn_is_refused() {
    let mut w = build_world(16);
    let cert = CaHandle::self_signed("spdy.example.com", vec![], KeyId(41), 1, NOW(), NOW() + 90);
    w.net.bind_tcp(w.server, 4433, Arc::new(SpdyServer(cert)));
    for offers in [&["h2", "http/1.1"][..], &[]] {
        let mut connector = TlsConnector::new(TlsClientConfig::no_verify(NOW()).with_alpn(offers));
        let err = connector
            .connect(&mut w.net, w.client, w.server, 4433, None)
            .unwrap_err();
        assert!(
            matches!(&err, TlsError::ProtocolViolation(m) if m.contains("spdy/3")),
            "offers {offers:?}: {err:?}"
        );
        assert_eq!(connector.cached_sessions(), 0);
    }
}

#[test]
fn interception_breaks_strict_but_not_opportunistic() {
    let mut w = build_world(5);
    // Install an inline interceptor and divert the client's path to it.
    let device_ip = ip("10.99.0.1");
    w.net.add_host(
        HostMeta::new(device_ip)
            .country("DE")
            .asn(3320)
            .label("DPI box"),
    );
    let mitm_ca = CaHandle::new("SonicWall Firewall DPI-SSL", KeyId(100), NOW() + -100, 3650);
    let device = TlsInterceptService::inline_interceptor(mitm_ca, KeyId(101), NOW());
    w.net.bind_tcp(device_ip, 853, Arc::new(device));
    w.net.shard_local(|_: &mut InterceptLog| ());
    let logged = |net: &mut Network| net.shard_local(|log: &mut InterceptLog| log.0.clone());
    w.net.policies_mut().push(
        PolicyRule::new("dpi-divert", PathDecision::DivertTo(device_ip))
            .to_dst(DstMatch::Ip(w.server)),
    );

    // Opportunistic DoT: lookup succeeds, verification says untrusted CA,
    // and the device saw the plaintext — Finding 2.3 end to end.
    let mut opp = TlsConnector::new(TlsClientConfig::opportunistic(w.store.clone(), NOW()));
    let mut stream = opp
        .connect(&mut w.net, w.client, w.server, 853, Some("dns.example.com"))
        .unwrap();
    match stream.verify_result() {
        Err(CertError::UntrustedCa { ca_cn }) => {
            assert_eq!(ca_cn, "SonicWall Firewall DPI-SSL")
        }
        other => panic!("expected untrusted CA, got {other:?}"),
    }
    // The forged leaf keeps the original subject.
    assert_eq!(stream.server_chain()[0].subject_cn, "dns.example.com");
    let resp = stream.request(&mut w.net, b"secret query").unwrap();
    assert_eq!(resp, b"SECRET QUERY", "proxied through to the real server");
    let seen = logged(&mut w.net);
    assert_eq!(seen.len(), 1);
    assert_eq!(seen[0].plaintext, b"secret query");
    assert_eq!(seen[0].original_dst, w.server);

    // Strict profile: certificate error, no plaintext leaks.
    let before = seen.len();
    let mut strict = TlsConnector::new(TlsClientConfig::strict(w.store.clone(), NOW()));
    let err = strict
        .connect(&mut w.net, w.client, w.server, 853, Some("dns.example.com"))
        .unwrap_err();
    assert!(matches!(err, TlsError::Cert(CertError::UntrustedCa { .. })));
    assert_eq!(
        logged(&mut w.net).len(),
        before,
        "strict client leaked nothing"
    );
}

#[test]
fn fixed_cert_proxy_forwards_upstream() {
    let mut w = build_world(6);
    // A FortiGate-style DoT proxy on its own address, forwarding to the
    // genuine resolver.
    let proxy_ip = ip("10.88.0.1");
    w.net.add_host(
        HostMeta::new(proxy_ip)
            .country("US")
            .asn(64512)
            .label("FortiGate"),
    );
    let fg_ca = CaHandle::new("FortiGate CA", KeyId(200), NOW() + -10, 3650);
    let default_cert =
        CaHandle::self_signed("FGT60D", vec![], KeyId(201), 7, NOW() + -10, NOW() + 3650);
    let proxy = TlsInterceptService::fixed_cert_proxy(
        fg_ca,
        KeyId(201),
        vec![default_cert],
        (w.server, 853),
        NOW(),
    );
    w.net.bind_tcp(proxy_ip, 853, Arc::new(proxy));

    let mut opp = TlsConnector::new(TlsClientConfig::opportunistic(w.store.clone(), NOW()));
    let mut stream = opp
        .connect(&mut w.net, w.client, proxy_ip, 853, None)
        .unwrap();
    assert_eq!(stream.verify_result(), &Err(CertError::SelfSigned));
    let resp = stream.request(&mut w.net, b"via proxy").unwrap();
    assert_eq!(resp, b"VIA PROXY");
}

#[test]
fn handshake_costs_appear_in_latency() {
    let mut w = build_world(7);
    let mut connector = TlsConnector::new(TlsClientConfig::strict(w.store.clone(), NOW()));
    let stream = connector
        .connect(&mut w.net, w.client, w.server, 853, Some("dns.example.com"))
        .unwrap();
    // TCP (1 RTT) + TLS (1 RTT) + handshake CPU: must exceed two bare RTTs.
    let elapsed = stream.elapsed();
    assert!(
        elapsed >= SimDuration::from_millis(9),
        "handshake cost missing: {elapsed}"
    );
}

#[test]
fn no_verify_mode_collects_chain_without_judging() {
    let mut w = build_world(8);
    let mut scanner = TlsConnector::new(TlsClientConfig::no_verify(NOW()));
    assert_eq!(scanner.config().verify, VerifyMode::NoVerify);
    let stream = scanner
        .connect(&mut w.net, w.client, w.server, 853, None)
        .unwrap();
    assert_eq!(stream.server_chain()[0].subject_cn, "dns.example.com");
}
