//! Scan campaign: discover DoT/DoH services the way Section 3 does.
//!
//! ```sh
//! cargo run --release --example scan_campaign
//! ```
//!
//! Runs a first-and-last-epoch ZMap-style sweep of the simulated address
//! space, verifies DoT with application-layer probes, classifies
//! certificates, groups providers, and greps the URL corpus for DoH.

use doe_scanner::campaign::{compact_space, scan_epoch_sharded};
use doe_scanner::{discover_doh, CertClass};
use worldgen::{World, WorldConfig};

fn main() {
    println!("building world...");
    let mut world = World::build(WorldConfig::test_scale(7));
    let space = compact_space(&world);
    println!(
        "sweeping {} addresses across {} epochs (whitelist mode; use `repro --paper` for the full space)\n",
        space.len(),
        2
    );

    for (label, epoch) in [("first scan (Feb 1)", 0usize), ("final scan (May 1)", 9)] {
        let date = world.config.scan_date(epoch);
        world.set_epoch(date);
        let summary = scan_epoch_sharded(&mut world, &space, epoch, 42, 1);
        println!("== {label} — {} ==", summary.date);
        println!("  port 853 open      : {}", summary.stats.open);
        println!("  open DoT resolvers : {}", summary.open_resolvers);
        println!("  providers          : {}", summary.provider_count());
        println!(
            "  invalid certs      : {} resolvers across {} providers",
            summary.certs.invalid(),
            summary.providers_with_invalid
        );
        let mut countries: Vec<(&String, &usize)> = summary.by_country.iter().collect();
        countries.sort_by(|a, b| b.1.cmp(a.1));
        let top: Vec<String> = countries
            .iter()
            .take(5)
            .map(|(cc, n)| format!("{cc}:{n}"))
            .collect();
        println!("  top countries      : {}", top.join("  "));
        // A few concrete certificate findings.
        let mut shown = 0;
        for obs in summary.observations.rows() {
            if let Some(class) = obs.cert {
                if class.is_invalid() && obs.is_open_resolver() && shown < 3 {
                    println!(
                        "  e.g. {} ({}) presents {:?}",
                        obs.addr,
                        obs.provider.unwrap_or("?"),
                        match class {
                            CertClass::Expired => "an expired certificate",
                            CertClass::SelfSigned => "a self-signed certificate",
                            CertClass::InvalidChain => "a broken chain",
                            CertClass::UntrustedCa => "an untrusted CA",
                            CertClass::Valid => unreachable!(),
                        }
                    );
                    shown += 1;
                }
            }
        }
        println!();
    }

    println!("== DoH discovery from the URL corpus ==");
    let source = world.scanner_sources[0];
    let corpus = world.corpus.urls.clone();
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
        "probe.dnsmeasure.example",
        expected,
        &known,
        &store,
        now,
    );
    println!(
        "  corpus {} URLs -> {} candidates -> {} working services ({} beyond the public list)",
        report.corpus_size,
        report.candidates,
        report.services.len(),
        report.beyond_known_list.len()
    );
    for t in &report.beyond_known_list {
        println!("  newly discovered: {t}");
    }
}
