//! `doe-bench` — run, check and compare the reproduction's benchmark.
//!
//! ```text
//! doe-bench                                   # all four workloads, one child process each
//! doe-bench --workload stub-fleet --seed 7    # one workload in this process
//! doe-bench --trace 1                         # per-layer metrics from a traced run
//! doe-bench --runs 10 --out base.json         # ten runs per workload, for compare
//! doe-bench --expect base.json                # digests must match an earlier run
//! doe-bench compare base.json new.json        # verdict per workload x metric
//! ```
//!
//! A single-workload run prints every metric by name with its unit, then
//! one JSON line `{"correct", "attempted", "failed", "metrics"}` as the
//! last line of standard output, and writes its full record (digests,
//! batch times, failures, `nproc`) under `target/doe-bench/`. It exits
//! with 1 when a check failed.

use doe_benchmark::layers::{self, TraceInputs, END_TO_END};
use doe_benchmark::procfs;
use doe_benchmark::stats::{digest_hex, median, quartiles, spread, verdict, Verdict};
use doe_benchmark::trace::Tracer;
use doe_benchmark::workload::{run_batch, setup_s, Batch, Workload, WORKLOADS};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// World builds a run times for `setup_s`. A paper-scale build takes about
/// 40 ms; on a shared two-vCPU VM it takes twice that for windows of up to
/// a second or so, so the median is taken over more than a second of builds.
const SETUPS: usize = 25;

/// How long a single-workload run measures by default: `run_seconds` in
/// `BENCHMARK.json`. `--smoke` runs measure one batch.
const DEFAULT_SECONDS: f64 = 30.0;

/// The declaration `compare` takes its metrics and bounds from.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// Where records, combined runs and spans go (ignored by git).
const OUT_DIR: &str = "target/doe-bench";

const USAGE: &str = "usage: doe-bench [--workload NAME [--seconds S]] [--seed N] [--trace 0|1] \
[--smoke] [--runs N] [--expect PREV.json] [--out PATH]
       doe-bench compare BASE.json NEW.json
workloads: scan-fullspace, vantage-clients, stub-fleet, privacy-usage";

struct Opts {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
    expect: Option<String>,
    out: Option<PathBuf>,
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("doe-bench: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: 2019,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        runs: 1,
        expect: None,
        out: None,
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => opts.smoke = true,
            "--runs" => opts.runs = value()?.parse().map_err(|_| "bad --runs")?,
            "--expect" => opts.expect = Some(value()?),
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if seconds.is_some() && opts.workload.is_none() {
        return Err("--seconds applies to a single --workload run".into());
    }
    if opts.smoke {
        opts.seconds = 0.0;
    }
    opts.seconds = seconds.unwrap_or(opts.seconds);
    if !opts.seconds.is_finite() || opts.seconds < 0.0 || opts.runs == 0 {
        return Err("--seconds must be >= 0 and --runs >= 1".into());
    }
    Ok(opts)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_json(path: &Path, value: &Value) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    let mut body = serde_json::to_string_pretty(value).expect("serialise record");
    body.push('\n');
    std::fs::write(path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

fn suffix(trace: bool) -> &'static str {
    if trace {
        "-trace"
    } else {
        ""
    }
}

/// Pass/fail tally of every check a run makes.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn record(&mut self, passed: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !passed {
            let what = what();
            eprintln!("doe-bench: CHECK FAILED: {what}");
            self.failures.push(what);
        }
    }
}

/// The digests an earlier record holds for `workload` at the same seed
/// and configuration; `PREV` is a single-workload record or a combined
/// run file.
fn expected_digests(
    path: &str,
    workload: Workload,
    seed: u64,
    config: &str,
) -> Result<BTreeMap<String, String>, String> {
    let prev = read_json(Path::new(path))?;
    let record = match prev.get("workloads") {
        Some(all) => all
            .get(workload.name())
            .and_then(|runs| runs.as_array()?.first())
            .ok_or(format!("{path} has no {} record", workload.name()))?,
        None => &prev,
    };
    let same = |key: &str, want: &Value| record.get(key) == Some(want);
    if !same("workload", &json!(workload.name()))
        || !same("seed", &json!(seed))
        || !same("config", &json!(config))
    {
        return Err(format!(
            "{path} records another workload, seed or configuration"
        ));
    }
    let digests = record
        .get("digests")
        .and_then(|d| match d {
            Value::Object(entries) => Some(entries),
            _ => None,
        })
        .ok_or(format!("{path} has no digests"))?;
    Ok(digests
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
        .collect())
}

fn metric_json(metrics: &[(String, f64, &str)]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(name, value, unit)| (name.clone(), json!({"value": value, "unit": unit})))
            .collect(),
    )
}

/// One workload, in this process: [`SETUPS`] timed world builds, then
/// batches while another still ends within `--seconds` (at least one; with
/// `--trace 1`, pairs of an untraced and a traced batch). The first batch
/// runs the shape checks and fixes the digests every later batch, and an
/// `--expect` record, must match.
fn run_workload(opts: &Opts, workload: Workload) -> Result<ExitCode, String> {
    let config = workload.config(opts.seed, opts.smoke);
    let config_text = format!("{config:?}");
    eprintln!(
        "doe-bench: {} seed={} seconds={} trace={} smoke={} nproc={} shards={}",
        workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.smoke,
        nproc(),
        config.shards
    );
    let expected = match &opts.expect {
        Some(path) => Some(expected_digests(path, workload, opts.seed, &config_text)?),
        None => None,
    };

    let setups: Vec<f64> = (0..SETUPS).map(|_| setup_s(&config)).collect();

    let mut checks = Checks::default();
    let mut tracer = Tracer::new(false);
    let mut first: Option<Batch> = None;
    let mut units = 0.0;
    let mut peak_rss_kb = 0;
    let mut walls = Vec::new();
    let mut builds = Vec::new();
    let mut cpus = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traced_spans = Vec::new();
    let mut traced_snapshot = None;
    let per_step = if opts.trace { 2 } else { 1 };
    let started = Instant::now();
    for i in 0usize.. {
        // With tracing, batches alternate in pairs whose order flips
        // every pair, so neither side always runs first; batch 0 is
        // untraced.
        let traced = opts.trace && ((i % 2 == 1) != ((i / 2) % 2 == 1));
        tracer.set_on(traced);
        let mark = tracer.len();
        let (batch, mut study) = run_batch(workload, &config, &mut tracer);
        match &first {
            None => {
                for (what, passed) in workload.shape_checks(&mut study) {
                    checks.record(passed, || what);
                }
                units = workload.units(&mut study) as f64;
                // Read before a second batch can raise it: how many
                // batches fit in the budget must not move the peak.
                peak_rss_kb = procfs::status_kb("VmHWM");
                if let Some(prev) = &expected {
                    for (id, digest) in batch.digests() {
                        checks.record(prev.get(id).map(String::as_str) == Some(digest), || {
                            format!("{id} digest {digest} differs from --expect")
                        });
                    }
                }
            }
            Some(first) => {
                for ((id, want), (_, got)) in first.digests().into_iter().zip(batch.digests()) {
                    checks.record(want == got, || {
                        format!("batch {i}: {id} digest {got} differs from batch 0's {want}")
                    });
                }
            }
        }
        drop(study);
        let wall_s = batch.wall_s;
        if traced {
            traced_walls.push(wall_s);
            traced_spans.push(tracer.totals_since(mark));
            traced_snapshot = Some(batch.snapshot);
        } else {
            walls.push(wall_s);
            builds.push(batch.build_s);
            cpus.push(batch.cpu_s);
            first.get_or_insert(batch);
        }
        // Another step only if it still ends within the budget.
        let step_s = wall_s * per_step as f64;
        if (i + 1) % per_step == 0 && started.elapsed().as_secs_f64() + step_s > opts.seconds {
            break;
        }
    }
    let first = first.expect("batch 0 is untraced");
    let failed = checks.failures.len() as u64;

    let metrics: Vec<(String, f64, &str)> = if opts.trace {
        tracer.set_on(true);
        let replay = (workload == Workload::ScanFullspace).then(|| {
            let replay = layers::replay_epoch0(&config, &mut tracer);
            let figure3 = first
                .artifact("figure3")
                .and_then(|f| f.get("epochs")?.as_array()?.first()?.get("open_resolvers")?.as_u64());
            let matched = figure3 == Some(replay.open_resolvers);
            if !matched {
                eprintln!(
                    "doe-bench: sweep/verify split INVALID: replayed epoch 0 found {} open resolvers, figure3 {:?}",
                    replay.open_resolvers, figure3
                );
            }
            (replay, matched)
        });
        let snapshot = traced_snapshot.expect("at least one traced batch");
        layers::per_layer(&TraceInputs {
            workload,
            batches: &traced_spans,
            snapshot: &snapshot,
            privacy: first.artifact("padding-leakage"),
            stub_rss_kb: first.stub_rss_kb,
            replay,
            dnswire: layers::dnswire_micro(),
            overhead_frac: median(&traced_walls) / median(&walls) - 1.0,
        })
    } else {
        // The measured phase is a batch minus its own world build.
        let measured: Vec<f64> = walls.iter().zip(&builds).map(|(w, b)| w - b).collect();
        let values = [
            median(&walls),
            units / median(&measured),
            median(&setups),
            median(&cpus),
            peak_rss_kb as f64 * 1024.0 / 1e6,
            (checks.attempted - failed) as f64 / checks.attempted.max(1) as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name.to_string(), value, unit))
            .collect()
    };

    for (name, value, unit) in &metrics {
        println!("{:<16} {name:<36} {value:>16.6} {unit}", workload.name());
    }
    let reference = first.digests();
    let digest_all: String = reference.iter().map(|(_, d)| *d).collect();
    let record = json!({
        "workload": workload.name(),
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "smoke": opts.smoke,
        "nproc": nproc(),
        "shards": config.shards,
        "config": config_text,
        "unit": workload.unit(),
        "units_per_batch": units,
        "setup_s": setups,
        "batch_build_s": builds,
        "batch_wall_s": walls,
        "batch_cpu_s": cpus,
        "traced_batch_wall_s": traced_walls,
        "digest": digest_hex(digest_all.as_bytes()),
        "digests": Value::Object(
            reference.iter().map(|(id, d)| (id.to_string(), json!(d))).collect()
        ),
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "failures": checks.failures,
        "metrics": metric_json(&metrics),
    });
    let out = opts.out.clone().unwrap_or_else(|| {
        Path::new(OUT_DIR).join(format!(
            "{}-s{}{}.json",
            workload.name(),
            opts.seed,
            suffix(opts.trace)
        ))
    });
    write_json(&out, &record);
    if opts.trace {
        let spans = out.with_file_name(format!("{}-s{}-spans.json", workload.name(), opts.seed));
        write_json(
            &spans,
            &json!({"workload": workload.name(), "seed": opts.seed, "nproc": nproc(), "spans": tracer.to_json()}),
        );
    }
    let line = json!({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": metric_json(&metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&line).expect("serialise result")
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, each in a child process of its own (so `peak_rss_mb`
/// and `cpu_s` belong to one workload), `--runs` times; prints each
/// metric's median over the runs and writes the combined records.
fn run_all(opts: &Opts) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut records: BTreeMap<&str, Vec<Value>> = BTreeMap::new();
    for run in 0..opts.runs {
        for w in WORKLOADS {
            let out = Path::new(OUT_DIR).join(format!(
                "{}-s{}-r{run}{}.json",
                w.name(),
                opts.seed,
                suffix(opts.trace)
            ));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name()])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--trace", if opts.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&out)
                .stdout(Stdio::null());
            if opts.smoke {
                cmd.arg("--smoke");
            }
            if let Some(prev) = &opts.expect {
                cmd.args(["--expect", prev]);
            }
            let status = cmd
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            // Exit code 1 is a run whose checks failed; its record counts.
            if !status.success() && status.code() != Some(1) {
                return Err(format!("{} run {run} exited with {status}", w.name()));
            }
            records.entry(w.name()).or_default().push(read_json(&out)?);
        }
    }

    let (mut attempted, mut failed) = (0, 0);
    println!(
        "nproc {}  shards 1  seed {}  runs {}",
        nproc(),
        opts.seed,
        opts.runs
    );
    for (name, runs) in &records {
        let mut by_metric: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
        for rec in runs {
            attempted += rec.get("attempted").and_then(Value::as_u64).unwrap_or(0);
            failed += rec.get("failed").and_then(Value::as_u64).unwrap_or(0);
            if let Some(Value::Object(metrics)) = rec.get("metrics") {
                for (m, v) in metrics {
                    let entry = by_metric.entry(m.clone()).or_default();
                    entry.0.extend(v.get("value").and_then(Value::as_f64));
                    entry.1 = v
                        .get("unit")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string();
                }
            }
        }
        for (m, (values, unit)) in &by_metric {
            println!("{name:<16} {m:<36} {:>16.6} {unit}", median(values));
        }
    }
    let combined = json!({
        "seed": opts.seed,
        "trace": opts.trace,
        "smoke": opts.smoke,
        "runs": opts.runs,
        "nproc": nproc(),
        "workloads": Value::Object(
            records.into_iter().map(|(k, v)| (k.to_string(), Value::Array(v))).collect()
        ),
    });
    let out = opts.out.clone().unwrap_or_else(|| {
        Path::new(OUT_DIR).join(format!("run-s{}{}.json", opts.seed, suffix(opts.trace)))
    });
    write_json(&out, &combined);
    let line = json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "out": out.display().to_string(),
    });
    println!(
        "{}",
        serde_json::to_string(&line).expect("serialise summary")
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `compare BASE NEW`: per workload and end-to-end metric, both sides'
/// medians and quartiles and a verdict under `BENCHMARK.json`'s bounds;
/// non-zero exit on a regression or an output-digest mismatch.
fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err("compare takes BASE.json NEW.json".into());
    };
    let bench = read_json(Path::new(BENCHMARK_JSON))?;
    let (base, new) = (read_json(Path::new(base))?, read_json(Path::new(new))?);
    let runs = |v: &Value, w: &str| -> Vec<Value> {
        v.get("workloads")
            .and_then(|all| all.get(w))
            .and_then(Value::as_array)
            .map(<[Value]>::to_vec)
            .unwrap_or_default()
    };
    let values = |runs: &[Value], metric: &str| -> Vec<f64> {
        runs.iter()
            .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect()
    };
    let (mut regressions, mut mismatches) = (0, 0);
    println!(
        "{:<16} {:<18} {:>34} {:>34} {:>8}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change"
    );
    for w in WORKLOADS {
        let (b, n) = (runs(&base, w.name()), runs(&new, w.name()));
        if b.is_empty() || n.is_empty() {
            continue;
        }
        for m in bench
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap_or(&[])
        {
            let name = m.get("name").and_then(Value::as_str).unwrap_or("");
            let lower = m.get("better").and_then(Value::as_str) == Some("lower");
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let (bv, nv) = (values(&b, name), values(&n, name));
            if bv.is_empty() || nv.is_empty() {
                continue;
            }
            let v = verdict(&bv, &nv, lower, bound);
            if v == Verdict::Regressed {
                regressions += 1;
            }
            let (bq1, bmed, bq3) = quartiles(&bv);
            let (nq1, nmed, nq3) = quartiles(&nv);
            println!(
                "{:<16} {name:<18} {bmed:>12.5} [{bq1:>9.5}, {bq3:>9.5}] {nmed:>12.5} [{nq1:>9.5}, {nq3:>9.5}] {:>+7.2}%  {} (bound {:.1}%, spread {:.1}% / {:.1}%)",
                w.name(),
                100.0 * (nmed - bmed) / bmed,
                v.label(),
                100.0 * bound,
                100.0 * spread(&bv),
                100.0 * spread(&nv),
            );
        }
        let key = |r: &Value| {
            ["seed", "config", "digest"].map(|k| r.get(k).cloned().unwrap_or(Value::Null))
        };
        let (bk, nk) = (key(&b[0]), key(&n[0]));
        if bk[..2] == nk[..2] {
            let same = bk[2] == nk[2];
            if !same {
                mismatches += 1;
            }
            println!(
                "{:<16} output digests {}",
                w.name(),
                if same { "identical" } else { "DIFFER" }
            );
        }
    }
    Ok(if regressions + mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare(&args[1..])
    } else {
        match parse_opts(&args) {
            Ok(opts) => match opts.workload {
                Some(w) => run_workload(&opts, w),
                None => run_all(&opts),
            },
            Err(msg) => return usage_error(&msg),
        }
    };
    result.unwrap_or_else(|msg| {
        eprintln!("doe-bench: {msg}");
        ExitCode::from(2)
    })
}
