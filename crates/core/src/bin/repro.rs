//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro all                       # everything, quick scale
//! repro --paper all               # full paper scale (use --release!)
//! repro --scale 0.1 table4        # one experiment at a custom scale
//! repro --seed 7 figure3 table2   # several experiments, custom seed
//! repro --json results/ all      # also write one JSON artifact per experiment
//! repro --metrics results/metrics.json table1   # export the telemetry snapshot
//! repro list                      # available experiment ids
//! ```

use doe_core::experiments::{self, ALL_EXPERIMENTS};
use doe_core::{Study, StudyConfig};
use std::io::Write;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--paper] [--scale X] [--seed N] [--epochs N] [--shards N] [--clients N] [--trace] [--json DIR] [--metrics PATH] <experiment...|all|list>"
    );
    eprintln!("  --shards N   worker threads for sharded stages (default: available cores; results identical for any N)");
    eprintln!("  --clients N  concurrent event-driven stub clients in the stub-scale leg (default: 20000, --paper: 1000000)");
    eprintln!("  --trace      record network events and print per-shard probe counters");
    eprintln!(
        "  --metrics PATH  write the telemetry snapshot as JSON and print a per-stage breakdown"
    );
    eprintln!("experiments: {}", ALL_EXPERIMENTS.join(", "));
    std::process::exit(2);
}

/// A parsed command line.
struct Cli {
    config: StudyConfig,
    json_dir: Option<String>,
    metrics_path: Option<String>,
    targets: Vec<String>,
}

/// Parse the command line; `None` when it is malformed. `--paper`
/// chooses the base configuration wherever it appears, so every other
/// flag applies on top of it.
fn parse(args: &[String]) -> Option<Cli> {
    let paper = args.iter().any(|a| a == "--paper");
    let mut cli = Cli {
        config: if paper {
            StudyConfig::paper(2019)
        } else {
            StudyConfig::quick(2019)
        },
        json_dir: None,
        metrics_path: None,
        targets: Vec::new(),
    };
    let config = &mut cli.config;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--paper" => {}
            "--scale" => config.scale = it.next()?.parse().ok()?,
            "--seed" => config.seed = it.next()?.parse().ok()?,
            "--epochs" => config.epochs = it.next()?.parse().ok()?,
            "--shards" => config.shards = it.next()?.parse().ok()?,
            "--clients" => config.sim_clients = it.next()?.parse().ok()?,
            "--trace" => config.trace_capacity = 4096,
            "--json" => cli.json_dir = Some(it.next()?.clone()),
            "--metrics" => cli.metrics_path = Some(it.next()?.clone()),
            other if other.starts_with('-') => return None,
            other => cli.targets.push(other.to_string()),
        }
    }
    Some(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let Cli {
        config,
        json_dir,
        metrics_path,
        targets,
    } = parse(&args).unwrap_or_else(|| usage());
    if targets.iter().any(|t| t == "list") {
        for id in ALL_EXPERIMENTS {
            println!("{id}");
        }
        return;
    }
    let ids: Vec<&str> = if targets.iter().any(|t| t == "all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        targets.iter().map(String::as_str).collect()
    };
    for id in &ids {
        if !ALL_EXPERIMENTS.contains(id) {
            eprintln!("unknown experiment: {id}");
            usage();
        }
    }

    eprintln!(
        "building world: seed={} scale={} epochs={} shards={} (full sweep: {})",
        config.seed,
        config.scale,
        config.epochs,
        config.effective_shards(),
        config.full_sweep
    );
    let trace_on = config.trace_capacity > 0;
    let started = std::time::Instant::now();
    let mut study = Study::new(config);
    eprintln!("world ready in {:.1}s", started.elapsed().as_secs_f64());

    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
    }
    for id in ids {
        let t0 = std::time::Instant::now();
        let result = experiments::run(&mut study, id).expect("id validated above");
        println!("{}", result.with_expectation());
        eprintln!("[{id} took {:.1}s]", t0.elapsed().as_secs_f64());
        if let Some(dir) = &json_dir {
            let path = format!("{dir}/{id}.json");
            let mut f = std::fs::File::create(&path).expect("create artifact");
            let body = serde_json::to_string_pretty(&result.json).expect("serialise artifact");
            f.write_all(body.as_bytes()).expect("write artifact");
            eprintln!("[wrote {path}]");
        }
    }

    if let Some(path) = &metrics_path {
        let snapshot = study.world.net.metrics().snapshot();
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create metrics dir");
            }
        }
        let mut body = serde_json::to_string_pretty(&snapshot).expect("serialise metrics");
        body.push('\n');
        std::fs::write(path, body).expect("write metrics");
        eprintln!("[wrote {path}]");
        print!("{}", netsim::telemetry::render_breakdown(&snapshot));
    }

    if trace_on {
        let net = &study.world.net;
        let total = net.shard_stats();
        eprintln!(
            "trace: {} probes total ({} open, {} closed, {} filtered)",
            total.probes, total.open, total.closed, total.filtered
        );
        for (shard, stats) in net.shard_breakdown() {
            eprintln!(
                "trace: shard {shard}: {} probes ({} open, {} closed, {} filtered)",
                stats.probes, stats.open, stats.closed, stats.filtered
            );
        }
        let log = net.log();
        eprintln!(
            "trace: {} events retained (cap 4096), newest last",
            log.len()
        );
        for event in log.events().rev().take(10).rev() {
            eprintln!(
                "trace: {} -> {}:{} {:?} ({}us)",
                event.src,
                event.dst,
                event.port,
                event.kind,
                event.elapsed.as_micros()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn config(line: &str) -> StudyConfig {
        parse(&args(line)).expect("valid command line").config
    }

    #[test]
    fn paper_flag_position_does_not_matter() {
        assert_eq!(
            config("--shards 1 --paper all"),
            config("--paper --shards 1 all")
        );
        assert_eq!(
            config("--scale 0.5 --seed 7 --epochs 2 --clients 10 --trace --shards 1 --paper all"),
            StudyConfig {
                scale: 0.5,
                epochs: 2,
                sim_clients: 10,
                trace_capacity: 4096,
                shards: 1,
                ..StudyConfig::paper(7)
            }
        );
    }

    #[test]
    fn malformed_command_lines_are_rejected() {
        for bad in ["--shards", "--shards x all", "--bogus all", "--json"] {
            assert!(parse(&args(bad)).is_none(), "{bad} should not parse");
        }
    }
}
