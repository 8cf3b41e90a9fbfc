//! The `doe-bench` binary end to end at smoke scale (`StudyConfig::quick`,
//! 20K stub clients): every check passes, two runs regenerate identical
//! digests, `--expect` accepts them and fails a run whose digest differs,
//! `compare` of a run against itself finds no regression, and every
//! metric `BENCHMARK.json` names is emitted with its unit, untraced and
//! traced. Run with `--release`; a debug build takes minutes.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bench_file() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn read(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

fn doe_bench(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_doe-bench"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn doe-bench")
}

/// Run every workload at smoke scale into `dir/file`; returns the
/// combined record file.
fn smoke_run(dir: &Path, file: &str, extra: &[&str]) -> (PathBuf, Value) {
    let out = dir.join(file);
    let out_arg = out.to_str().expect("utf-8 path");
    let mut args = vec!["--smoke", "--out", out_arg];
    args.extend_from_slice(extra);
    let result = doe_bench(dir, &args);
    assert!(
        result.status.success(),
        "doe-bench {args:?} failed: {}",
        String::from_utf8_lossy(&result.stderr)
    );
    let summary = String::from_utf8_lossy(&result.stdout);
    let last: Value = serde_json::from_str(summary.lines().last().expect("summary line"))
        .expect("summary is JSON");
    assert_eq!(
        last.get("failed").and_then(Value::as_u64),
        Some(0),
        "{summary}"
    );
    let combined = read(&out);
    (out, combined)
}

fn names_and_units(bench: &Value, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Every run of every workload declared in `BENCHMARK.json` passed its
/// checks and emitted exactly the `key` metrics with their units.
fn assert_runs(bench: &Value, combined: &Value, key: &str, runs: usize) {
    let expected = names_and_units(bench, key);
    for w in bench
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
    {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .expect("workload name");
        let records = combined
            .get("workloads")
            .and_then(|all| all.get(name))
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("no records for {name}"));
        assert_eq!(records.len(), runs, "{name}");
        for r in records {
            assert_eq!(r.get("failed").and_then(Value::as_u64), Some(0), "{name}");
            assert!(
                r.get("attempted").and_then(Value::as_u64) > Some(0),
                "{name}"
            );
            let Some(Value::Object(metrics)) = r.get("metrics") else {
                panic!("{name}: no metrics");
            };
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(m, v)| {
                    let unit = v.get("unit").and_then(Value::as_str).expect("unit");
                    assert!(
                        v.get("value").and_then(Value::as_f64).is_some(),
                        "{name} {m}"
                    );
                    (m.clone(), unit.to_string())
                })
                .collect();
            let (mut got, mut want) = (emitted, expected.clone());
            got.sort();
            want.sort();
            assert_eq!(got, want, "{name}: {key} metrics");
            if key == "end_to_end" {
                let passed = r
                    .get("metrics")
                    .and_then(|m| m.get("checks_passed_frac")?.get("value")?.as_f64());
                assert_eq!(passed, Some(1.0), "{name}");
            }
        }
        let digest = |r: &Value| r.get("digest").and_then(Value::as_str).map(str::to_string);
        assert!(
            records.iter().all(|r| digest(r) == digest(&records[0])),
            "{name}: digests differ between runs"
        );
    }
}

#[test]
fn smoke_runs_are_correct_repeatable_and_complete() {
    let bench = read(&bench_file());
    let dir = workdir("smoke");

    let (first_path, first) = smoke_run(&dir, "base.json", &["--runs", "2"]);
    assert_runs(&bench, &first, "end_to_end", 2);

    let first_arg = first_path.to_str().expect("utf-8 path");
    let (_, traced) = smoke_run(
        &dir,
        "traced.json",
        &["--trace", "1", "--expect", first_arg],
    );
    assert_runs(&bench, &traced, "per_layer", 1);
    let replay_match = traced
        .get("workloads")
        .and_then(|w| w.get("scan-fullspace")?.as_array()?.first()?.get("metrics"))
        .and_then(|m| m.get("scanner.replay_match")?.get("value")?.as_f64());
    assert_eq!(replay_match, Some(1.0), "epoch-0 replay reproduces figure3");

    let result = doe_bench(&dir, &["compare", first_arg, first_arg]);
    let table = String::from_utf8_lossy(&result.stdout);
    assert!(result.status.success(), "{table}");
    assert!(
        !table.contains("regressed") && !table.contains("DIFFER"),
        "{table}"
    );
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let dir = workdir("bad-args");
    for args in [
        &["--workload", "bogus"][..],
        &["--workload", "all"],
        &["--trace", "2"],
        &["--seed"],
        &["--seconds", "5"],
        &["compare", "one.json"],
    ] {
        let result = doe_bench(&dir, args);
        assert_eq!(result.status.code(), Some(2), "{args:?}");
        assert!(result.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn a_failed_check_fails_the_run() {
    let dir = workdir("failed-check");
    let record = dir.join("record.json");
    let record_arg = record.to_str().expect("utf-8 path");
    let first = doe_bench(
        &dir,
        &[
            "--workload",
            "privacy-usage",
            "--smoke",
            "--out",
            record_arg,
        ],
    );
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );

    // An --expect record whose telemetry digest differs fails that check.
    let digest = read(&record)
        .get("digests")
        .and_then(|d| d.get("telemetry")?.as_str().map(str::to_string))
        .expect("telemetry digest");
    let tampered = dir.join("tampered.json");
    let text = std::fs::read_to_string(&record).expect("read record");
    std::fs::write(&tampered, text.replace(&digest, "0000000000000000"))
        .expect("write tampered record");
    let tampered_arg = tampered.to_str().expect("utf-8 path");
    let second = doe_bench(
        &dir,
        &[
            "--workload",
            "privacy-usage",
            "--smoke",
            "--expect",
            tampered_arg,
        ],
    );
    assert_eq!(second.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&second.stdout);
    let last: Value =
        serde_json::from_str(stdout.lines().last().expect("result line")).expect("result is JSON");
    assert_eq!(last.get("correct").and_then(Value::as_bool), Some(false));
    assert_eq!(last.get("failed").and_then(Value::as_u64), Some(1));
    let passed = last
        .get("metrics")
        .and_then(|m| m.get("checks_passed_frac")?.get("value")?.as_f64())
        .expect("checks_passed_frac");
    assert!(passed < 1.0, "{passed}");
}
