//! Reachability study: who can actually use encrypted DNS, and what
//! breaks it (Section 4).
//!
//! ```sh
//! cargo run --release --example reachability_study
//! ```

use doe_vantage::reachability::{reachability_test_sharded, TransportKind};
use worldgen::{World, WorldConfig};

fn main() {
    println!("building world...");
    let mut world = World::build(WorldConfig::test_scale(23));
    let clients = world.proxyrack.clients.clone();
    println!(
        "testing {} global vantage points against Cloudflare / Google / Quad9 / self-built...\n",
        clients.len()
    );
    let report = reachability_test_sharded(&mut world, &clients, "Cloudflare", 1);

    println!(
        "{:<12} {:<6} {:>9} {:>11} {:>9}",
        "Resolver", "Proto", "Correct", "Incorrect", "Failed"
    );
    for (resolver, row) in &report.matrix {
        for t in [TransportKind::Dns, TransportKind::Dot, TransportKind::Doh] {
            if let Some(counts) = row.get(&t) {
                let (c, i, f) = counts.rates();
                println!(
                    "{resolver:<12} {t:<6} {:>8.2}% {:>10.2}% {:>8.2}%",
                    100.0 * c,
                    100.0 * i,
                    100.0 * f
                );
            }
        }
    }

    println!("\n== interception findings (Table 6 shape) ==");
    for i in &report.interceptions {
        println!(
            "  client {} ({}) behind CA {:?}  443:{} 853:{}",
            i.client, i.country, i.ca_cn, i.port_443, i.port_853
        );
    }

    println!("\n== forensics on Cloudflare-DoT failures (Table 5 shape) ==");
    let (hist, none) = report.port_histogram();
    println!("  clients probed: {}", report.forensics.len());
    println!("  no ports open : {none}");
    for (port, n) in hist {
        println!("  port {port:<5}: {n} clients");
    }
    for f in report
        .forensics
        .iter()
        .filter(|f| f.page_title.is_some())
        .take(5)
    {
        println!(
            "  {} sees \"{}\"{}",
            f.client,
            f.page_title.as_deref().unwrap_or(""),
            if f.coinminer {
                "  [coin-mining script!]"
            } else {
                ""
            }
        );
    }
}
