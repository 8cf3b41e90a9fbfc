//! Resolver operator: stand up your own DoT + DoH resolver on the
//! simulated Internet and watch what clients of each profile experience —
//! including what happens when you let the certificate lapse (the
//! misconfiguration a quarter of the paper's providers shipped).
//!
//! ```sh
//! cargo run --release --example resolver_operator
//! ```

use dnswire::zone::Zone;
use dnswire::{Name, RData, RecordType};
use doe_protocols::dot::DotClient;
use doe_protocols::responder::AuthoritativeServer;
use doe_protocols::{
    Bootstrap, DohBackend, DohClient, DohMethod, DohServerService, DotServerService, QueryReply,
};
use httpsim::UriTemplate;
use netsim::{HostMeta, Network, NetworkConfig};
use std::net::Ipv4Addr;
use std::sync::Arc;
use tlssim::{CaHandle, DateStamp, KeyId, TlsClientConfig, TlsServerConfig, TrustStore};

fn main() {
    let today = DateStamp::from_ymd(2019, 2, 1);
    let mut net = Network::new(NetworkConfig::default(), 1);

    // --- the operator's infrastructure -----------------------------------
    let resolver_ip: Ipv4Addr = "192.0.2.53".parse().unwrap();
    let client_ip: Ipv4Addr = "198.51.100.77".parse().unwrap();
    net.add_host(
        HostMeta::new(resolver_ip)
            .country("NL")
            .asn(64496)
            .label("my-resolver"),
    );
    net.add_host(HostMeta::new(client_ip).country("DE").asn(64497));

    // Serve a zone of our own.
    let apex = Name::parse("operator.example").unwrap();
    let mut zone = Zone::new(apex.clone());
    zone.add_record(
        &apex.prepend("www").unwrap(),
        300,
        RData::A("203.0.113.80".parse().unwrap()),
    );
    zone.add_record(
        &apex.prepend("*").unwrap(),
        60,
        RData::A("203.0.113.81".parse().unwrap()),
    );
    let responder = Arc::new(AuthoritativeServer::new(vec![zone]));

    // Get a certificate from a (simulated) public CA.
    let ca = CaHandle::new("Let's Encrypt Authority X3", KeyId(1), today + -700, 3650);
    let mut store = TrustStore::new();
    store.add(ca.authority());
    let good_cert = ca.issue(
        "dns.operator.example",
        vec![],
        KeyId(2),
        1,
        today + -30,
        today + 60,
    );

    // Bind DoT (853) and DoH (443).
    net.bind_tcp(
        resolver_ip,
        853,
        Arc::new(DotServerService::new(
            TlsServerConfig::new(vec![good_cert.clone()], KeyId(2)),
            Arc::clone(&responder) as Arc<dyn doe_protocols::DnsResponder>,
        )),
    );
    net.bind_tcp(
        resolver_ip,
        443,
        Arc::new(DohServerService::new(
            TlsServerConfig::new(vec![good_cert], KeyId(2)),
            vec!["/dns-query".into()],
            DohBackend::Local(Arc::clone(&responder) as Arc<dyn doe_protocols::DnsResponder>),
        )),
    );
    println!("resolver up: DoT on {resolver_ip}:853, DoH on {resolver_ip}:443\n");

    // --- clients ----------------------------------------------------------
    let query = dnswire::builder::query(1, "www.operator.example", RecordType::A).unwrap();

    let mut dot = DotClient::new(TlsClientConfig::strict(store.clone(), today));
    let reply = dot
        .query_once(
            &mut net,
            client_ip,
            resolver_ip,
            Some("dns.operator.example"),
            &query,
        )
        .expect("strict DoT works against a valid certificate");
    println!(
        "strict DoT client : {:?} in {}",
        first_answer(&reply),
        reply.latency
    );

    let template = UriTemplate::parse("https://dns.operator.example/dns-query{?dns}").unwrap();
    let mut doh = DohClient::new(
        TlsClientConfig::strict(store.clone(), today),
        template,
        DohMethod::Get,
        Bootstrap::Static(resolver_ip),
    );
    let reply = doh
        .query_once(&mut net, client_ip, &query)
        .expect("DoH works");
    println!(
        "DoH client        : {:?} in {}",
        first_answer(&reply),
        reply.latency
    );

    // --- now let the certificate lapse (Finding 1.2) ----------------------
    println!(
        "\n...90 days pass; the operator forgets to renew (like 27 resolvers in the paper)...\n"
    );
    let later = today + 90;
    let mut dot_later = DotClient::new(TlsClientConfig::strict(store.clone(), later));
    match dot_later.query_once(
        &mut net,
        client_ip,
        resolver_ip,
        Some("dns.operator.example"),
        &query,
    ) {
        Err(e) => println!("strict DoT client : FAILS — {e}"),
        Ok(_) => unreachable!("expired certificate must fail the strict profile"),
    }
    let mut opp = DotClient::new(TlsClientConfig::opportunistic(store, later));
    let reply = opp
        .query_once(&mut net, client_ip, resolver_ip, None, &query)
        .expect("opportunistic clients proceed");
    println!(
        "opportunistic DoT : still answers ({:?}) but verification says {:?}",
        first_answer(&reply),
        reply.transport.verify.unwrap().unwrap_err()
    );
    println!("\nmoral: renew your certificates — strict clients fail closed, opportunistic ones lose authentication silently.");
}

/// The first answer record's data, as the client received it.
fn first_answer(reply: &QueryReply) -> RData {
    reply.view().answers().next().expect("one answer").rdata()
}
