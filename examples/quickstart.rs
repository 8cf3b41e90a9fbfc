//! Quickstart: resolve names through encrypted DNS inside the simulated
//! Internet.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a small world (the full study's world at 2% client scale),
//! then uses the public `StubResolver` API — the same API a downstream
//! application would embed — to resolve names over Strict DoT,
//! Opportunistic DoT, DoH and clear text, printing what each profile
//! experiences.

use dnswire::{Name, RecordType};
use doe_protocols::{Bootstrap, DohMethod, StubConfig, StubProfile, StubResolver};
use netsim::SimDuration;
use worldgen::providers::anchors;
use worldgen::{World, WorldConfig};

fn main() {
    println!("building world (seed 2019, 2% scale)...");
    let mut world = World::build(WorldConfig::test_scale(2019));
    let client = world
        .proxyrack
        .clients
        .iter()
        .find(|c| c.affliction == worldgen::Affliction::None)
        .expect("a clean client exists")
        .clone();
    println!(
        "vantage point: {} ({}, AS{})\n",
        client.ip, client.country, client.asn.0
    );

    let cases: Vec<(&str, std::net::Ipv4Addr, StubProfile)> = vec![
        (
            "Strict DoT (Quad9)",
            anchors::QUAD9_PRIMARY,
            StubProfile::StrictDot {
                auth_name: "quad9.net".into(),
            },
        ),
        (
            "Opportunistic DoT (Cloudflare)",
            anchors::CLOUDFLARE_PRIMARY,
            StubProfile::OpportunisticDot {
                fallback_clear: true,
            },
        ),
        (
            "DoH (cloudflare-dns.com)",
            anchors::CLOUDFLARE_DOH_FRONT,
            StubProfile::Doh {
                template: world.deployment.doh_services[0].template.clone(),
                method: DohMethod::Post,
                bootstrap: Bootstrap::Do53 {
                    resolver: world.bootstrap_resolver,
                },
            },
        ),
        (
            "Clear text (self-built)",
            world.self_built.addr,
            StubProfile::ClearText,
        ),
    ];

    for (label, resolver, profile) in cases {
        let mut stub = StubResolver::new(StubConfig {
            resolver,
            profile,
            trust_store: world.trust_store.clone(),
            now: world.epoch(),
            timeout: SimDuration::from_secs(5),
        });
        println!("--- {label} via {resolver} ---");
        for i in 0..3 {
            let name = format!("q{i}.probe.dnsmeasure.example");
            let qname = Name::parse(&name).expect("probe names parse");
            match stub.resolve(&mut world.net, client.ip, qname, RecordType::A) {
                Ok(reply) => {
                    let answer = reply
                        .view()
                        .answers()
                        .next()
                        .map(|rr| format!("{:?}", rr.rdata()))
                        .unwrap_or_else(|| "(no answer)".into());
                    println!(
                        "  {name} -> {answer}  [{} in {}, reused={}]",
                        reply.transport.protocol, reply.latency, reply.transport.connection_reused
                    );
                }
                Err(e) => println!("  {name} -> FAILED: {e}"),
            }
        }
        println!(
            "  queries answered over a reused connection: {}\n",
            stub.reused_queries()
        );
    }

    println!(
        "ground truth: every probe name resolves to {}",
        world.probe.expected_a
    );
}
