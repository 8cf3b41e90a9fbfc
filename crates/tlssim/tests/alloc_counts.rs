//! Heap allocations of the TLS state a million-client fleet holds and
//! moves: a record flight is written into one buffer, an accepted stream
//! shares its server's config, a server writes its chain into the
//! ServerHello without copying it, a trust store's clone shares its
//! anchors, and a resumed session shares its ticket's certificate chain.

use netsim::{HostMeta, Network, NetworkConfig, PeerInfo, Service, StreamHandler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::Arc;
use tlssim::handshake::{ClientHello, HandshakeMsg};
use tlssim::record::{decode_records, encode_records, ContentType, Record};
use tlssim::{
    CaHandle, Certificate, DateStamp, KeyId, TlsClientConfig, TlsConnector, TlsServerConfig,
    TlsServerService, TrustStore,
};

/// The system allocator, counting allocations per thread so that the
/// test harness's other threads never add to a tally.
struct CountingAlloc;

thread_local! {
    /// Calls that may hand out a new block: every `alloc` and `realloc`.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System` upholds the allocator contract. The tally is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (through `alloc`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller meets `GlobalAlloc::realloc`'s contract: `ptr`
        // came from this allocator (so from `System`) with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations and reallocations during `f`.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn now() -> DateStamp {
    DateStamp::from_ymd(2019, 2, 1)
}

/// A chain of `len` certificates, each naming a few hosts, so that a
/// copy of it would take several allocations per certificate.
fn chain(len: u64) -> Vec<Certificate> {
    let ca = CaHandle::new("Alloc Root CA", KeyId(1), now() + -100, 3650);
    (0..len)
        .map(|i| {
            let sans = vec![format!("a{i}.example"), format!("b{i}.example")];
            ca.issue(
                "dns.example",
                sans,
                KeyId(10 + i),
                i,
                now() + -10,
                now() + 90,
            )
        })
        .collect()
}

/// A server config whose copy would allocate: a chain and ALPN strings.
fn server_config(chain_len: u64) -> TlsServerConfig {
    TlsServerConfig::new(chain(chain_len), KeyId(10)).with_alpn(&["dot", "h2"])
}

/// Upper-cases whatever it receives.
struct UpperService;
impl Service for UpperService {
    fn open_stream(&self, _peer: PeerInfo) -> Box<dyn StreamHandler> {
        struct H;
        impl StreamHandler for H {
            fn on_bytes(&mut self, _ctx: &mut netsim::ServiceCtx<'_>, data: &[u8]) -> Vec<u8> {
                data.to_ascii_uppercase()
            }
        }
        Box::new(H)
    }
}

#[test]
fn a_two_record_flight_is_one_allocation() {
    let records = [
        Record {
            ctype: ContentType::Handshake,
            payload: b"{\"Finished\":null}".to_vec(),
        },
        Record {
            ctype: ContentType::ApplicationData,
            payload: vec![0x5a; 300],
        },
    ];
    let (allocs, flight) = allocs_during(|| encode_records(&records));
    assert_eq!(allocs, 1, "one buffer sized to the flight");
    assert_eq!(flight.len(), 3 + 17 + 3 + 300);
    assert_eq!(flight.capacity(), flight.len());
}

#[test]
fn a_tls_accept_allocates_only_its_handler() {
    let service = TlsServerService::new(server_config(3), Arc::new(UpperService));
    let peer = PeerInfo {
        src: Ipv4Addr::new(198, 51, 100, 1),
        original_dst: Ipv4Addr::new(203, 0, 113, 53),
        original_port: 853,
        diverted: false,
    };
    let (allocs, handler) = allocs_during(|| service.open_stream(peer));
    assert_eq!(allocs, 1, "the handler's box, and no copy of the config");
    drop(handler);
}

/// A server answers a full ClientHello with the same allocations whether
/// its chain holds one certificate or three with SANs: the chain is
/// written into the ServerHello from the shared config, not copied.
#[test]
fn answering_a_full_client_hello_copies_no_certificate_chain() {
    let mut net = Network::new(NetworkConfig::default(), 5);
    let server = Ipv4Addr::new(203, 0, 113, 53);
    let client = Ipv4Addr::new(198, 51, 100, 1);
    net.add_host(HostMeta::new(server).country("US").asn(64500));
    net.add_host(HostMeta::new(client).country("DE").asn(64501));
    for (port, len) in [(853, 1), (8853, 3)] {
        net.bind_tcp(
            server,
            port,
            Arc::new(TlsServerService::new(
                server_config(len),
                Arc::new(UpperService),
            )),
        );
    }
    let hello = encode_records(&[Record {
        ctype: ContentType::Handshake,
        payload: HandshakeMsg::ClientHello(ClientHello {
            sni: Some("dns.example".into()),
            alpn: vec!["dot".into()],
            client_random: 42,
            ticket: None,
        })
        .encode(),
    }]);
    let answer = |net: &mut Network, port: u16| {
        let mut conn = net.connect(client, server, port).unwrap();
        let (allocs, flight) = allocs_during(|| conn.request(net, &hello));
        conn.close(net);
        (allocs, flight.unwrap())
    };
    // Warm the connection tables and telemetry with one answered hello
    // per server, then count the next.
    for port in [853, 8853] {
        answer(&mut net, port);
    }
    let mut answer_allocs = Vec::new();
    for (port, len) in [(853, 1), (8853, 3)] {
        let (allocs, flight) = answer(&mut net, port);
        let records = decode_records(&flight).unwrap();
        let Ok(HandshakeMsg::ServerHello(sh)) = HandshakeMsg::decode(&records[0].payload) else {
            panic!("expected a ServerHello");
        };
        assert_eq!(sh.chain, chain(len), "the ServerHello carries the chain");
        answer_allocs.push(allocs);
    }
    assert_eq!(
        answer_allocs[0], answer_allocs[1],
        "allocations of a full ClientHello answered with a 1- and a 3-certificate chain"
    );
}

#[test]
fn cloning_a_trust_store_allocates_nothing() {
    let mut store = TrustStore::new();
    for key in 1..=40 {
        store.add_key(KeyId(key), &format!("Root CA {key}"));
    }
    let (allocs, clone) = allocs_during(|| store.clone());
    assert_eq!(allocs, 0);
    assert_eq!(clone.len(), 40);
    assert!(clone.is_trusted(KeyId(17)));
    let (allocs, empty) = allocs_during(TrustStore::new);
    assert_eq!(allocs, 0, "an empty store allocates nothing");
    assert!(empty.is_empty());
}

/// A resumed connect allocates the same whether the ticket's chain holds
/// one certificate or three, and its stream points at the very chain the
/// full handshake received.
#[test]
fn a_resumed_connect_copies_no_certificate_chain() {
    let mut net = Network::new(NetworkConfig::default(), 3);
    let server = Ipv4Addr::new(203, 0, 113, 53);
    let client = Ipv4Addr::new(198, 51, 100, 1);
    net.add_host(HostMeta::new(server).country("US").asn(64500));
    net.add_host(HostMeta::new(client).country("DE").asn(64501));
    for (port, len) in [(853, 1), (8853, 3)] {
        net.bind_tcp(
            server,
            port,
            Arc::new(TlsServerService::new(
                server_config(len),
                Arc::new(UpperService),
            )),
        );
    }
    let mut connector = TlsConnector::new(TlsClientConfig::no_verify(now()).with_alpn(&["dot"]));
    let mut resumed_allocs = Vec::new();
    for port in [853, 8853] {
        let full = connector
            .connect(&mut net, client, server, port, None)
            .unwrap();
        assert!(!full.resumed());
        // Warm the connection tables and telemetry with one resumed
        // connect, then count the next.
        let warm = connector
            .connect(&mut net, client, server, port, None)
            .unwrap();
        warm.close(&mut net);
        let (allocs, resumed) =
            allocs_during(|| connector.connect(&mut net, client, server, port, None));
        let resumed = resumed.unwrap();
        assert!(resumed.resumed());
        assert_eq!(resumed.server_chain(), full.server_chain());
        assert!(
            std::ptr::eq(resumed.server_chain(), full.server_chain()),
            "the resumed stream shares the full handshake's chain"
        );
        resumed_allocs.push(allocs);
        resumed.close(&mut net);
        full.close(&mut net);
    }
    assert_eq!(
        resumed_allocs[0], resumed_allocs[1],
        "allocations of a resumed connect to a 1- and a 3-certificate chain"
    );
}
