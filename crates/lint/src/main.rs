//! `doe-lint` CLI: lint the workspace against `lint.toml`.
//!
//! ```text
//! cargo run -p doe-lint                  # human output, exit 1 on findings
//! cargo run -p doe-lint -- --json       # machine-readable report on stdout
//! cargo run -p doe-lint -- --json-out results/doe-lint.json
//! cargo run -p doe-lint -- --sarif results/doe-lint.sarif
//! cargo run -p doe-lint -- --graph      # workspace call graph on stdout
//! cargo run -p doe-lint -- --graph-out results/callgraph.json
//! cargo run -p doe-lint -- --baseline results/doe-lint.json
//! cargo run -p doe-lint -- --root /path/to/workspace
//! ```
//!
//! `--baseline FILE` turns the run into a *regression gate*: findings
//! whose stable fingerprint already appears in the baseline report are
//! counted as known debt — they stay in the written artifacts (the
//! `--json-out`/`--sarif` files always describe the full state of the
//! workspace) but are dropped from console output and from the exit
//! code, which is non-zero only when a NEW finding appears.
//!
//! Exit codes: 0 contract holds (or no regression vs. baseline),
//! 1 unsuppressed (new) findings, 2 usage, configuration (stale policy
//! entry) or I/O error.

use doe_lint::{analyze_workspace, find_root, graph, policy::Policy, report, Report};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: Option<PathBuf>,
    json: bool,
    json_out: Option<PathBuf>,
    graph: bool,
    graph_out: Option<PathBuf>,
    sarif_out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        json: false,
        json_out: None,
        graph: false,
        graph_out: None,
        sarif_out: None,
        baseline: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => args.json = true,
            "--graph" => args.graph = true,
            "--quiet" | "-q" => args.quiet = true,
            "--json-out" => {
                let path = it.next().ok_or("--json-out needs a path")?;
                args.json_out = Some(PathBuf::from(path));
            }
            "--graph-out" => {
                let path = it.next().ok_or("--graph-out needs a path")?;
                args.graph_out = Some(PathBuf::from(path));
            }
            "--sarif" => {
                let path = it.next().ok_or("--sarif needs a path")?;
                args.sarif_out = Some(PathBuf::from(path));
            }
            "--baseline" => {
                let path = it.next().ok_or("--baseline needs a path")?;
                args.baseline = Some(PathBuf::from(path));
            }
            "--root" => {
                let path = it.next().ok_or("--root needs a path")?;
                args.root = Some(PathBuf::from(path));
            }
            "--help" | "-h" => {
                return Err("usage: doe-lint [--root DIR] [--json] [--json-out FILE] \
                     [--sarif FILE] [--baseline FILE] [--graph] [--graph-out FILE] \
                     [--quiet]"
                    .to_string())
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn write_out(path: &PathBuf, content: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, content).map_err(|e| format!("{}: {e}", path.display()))
}

/// Extract the fingerprints recorded in a baseline report (schema v4 or
/// later: both carry a per-finding `"fingerprint"`). A plain
/// substring scan — the report is our own deterministic output, and
/// fingerprints never contain an unescaped `"`.
fn baseline_fingerprints(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(i) = rest.find("\"fingerprint\": \"") {
        rest = &rest[i + "\"fingerprint\": \"".len()..];
        if let Some(end) = rest.find('"') {
            out.push(rest[..end].to_string());
            rest = &rest[end..];
        }
    }
    out
}

/// Drop findings whose fingerprint appears in the baseline, keeping
/// only regressions.
fn regressions_vs(rep: &Report, known: &[String]) -> Report {
    Report {
        findings: rep
            .findings
            .iter()
            .filter(|f| !known.iter().any(|k| *k == report::fingerprint(f)))
            .cloned()
            .collect(),
        suppressed: rep.suppressed.clone(),
        files_scanned: rep.files_scanned,
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let root = match args.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            find_root(&cwd).ok_or("no lint.toml found between here and filesystem root")?
        }
    };
    let policy_text = std::fs::read_to_string(root.join("lint.toml"))
        .map_err(|e| format!("{}: {e}", root.join("lint.toml").display()))?;
    let policy = Policy::parse(&policy_text)?;
    let analysis = analyze_workspace(&root, &policy).map_err(|e| format!("scan failed: {e}"))?;
    let rep = &analysis.report;

    // Artifacts always describe the full workspace state, baseline or not.
    if let Some(path) = &args.json_out {
        write_out(path, &report::json(rep))?;
    }
    if let Some(path) = &args.sarif_out {
        write_out(path, &report::sarif(rep))?;
    }
    if let Some(path) = &args.graph_out {
        write_out(path, &graph::to_json(&analysis.graph))?;
    }

    // Console output and exit code see only regressions when a baseline
    // is in force.
    let gated: Report;
    let visible = match &args.baseline {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("baseline {}: {e}", path.display()))?;
            gated = regressions_vs(rep, &baseline_fingerprints(&text));
            &gated
        }
        None => rep,
    };

    if args.graph {
        print!("{}", graph::to_json(&analysis.graph));
    } else if args.json {
        print!("{}", report::json(visible));
    } else if !args.quiet || !visible.clean() {
        print!("{}", report::human(visible));
    }
    Ok(if visible.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("doe-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
