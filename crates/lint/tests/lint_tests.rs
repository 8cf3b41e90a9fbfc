//! Fixture-based self-tests for the determinism analyzer.
//!
//! Each token rule (D001–D006) gets three fixtures — violating, clean,
//! and pragma-suppressed — and the call-graph rules (D007–D009, D012,
//! D015) get the same triple driven through the whole-workspace
//! `analyze` entry point. On top of that: pragma hygiene (including
//! stale pragmas as P004 errors), `lint.toml` scoping, byte-determinism
//! of the exported call graph, v5 report and SARIF export, and
//! meta-tests asserting the live workspace satisfies its own contract
//! and that every crate keeps D006.

use doe_lint::policy::Policy;
use doe_lint::{
    analyze, lint_source, lint_workspace, Analysis, FileOutcome, LoadedFile, SourceFile,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const ALL_RULES: &[&str] = &["D001", "D002", "D003", "D004", "D005", "D006"];

fn lint(src: &str, rules: &[&str]) -> FileOutcome {
    let enabled: Vec<String> = rules.iter().map(|r| r.to_string()).collect();
    lint_source("fixture.rs", src, &enabled)
}

fn assert_rule_triple(rule: &str, violation: &str, clean: &str, suppressed: &str) {
    let v = lint(violation, ALL_RULES);
    assert!(
        !v.findings.is_empty(),
        "{rule}: violation fixture produced no findings"
    );
    assert!(
        v.findings.iter().all(|f| f.rule == rule),
        "{rule}: violation fixture tripped other rules: {:?}",
        v.findings
    );
    assert!(v.suppressed.is_empty());

    let c = lint(clean, ALL_RULES);
    assert!(
        c.findings.is_empty(),
        "{rule}: clean fixture produced findings: {:?}",
        c.findings
    );

    let s = lint(suppressed, ALL_RULES);
    assert!(
        s.findings.is_empty(),
        "{rule}: suppressed fixture still has findings: {:?}",
        s.findings
    );
    assert!(
        !s.suppressed.is_empty(),
        "{rule}: suppressed fixture recorded no suppressions"
    );
    assert!(
        s.suppressed
            .iter()
            .all(|sup| sup.rule == rule && !sup.reason.trim().is_empty()),
        "{rule}: suppression missing rule or reason: {:?}",
        s.suppressed
    );
}

#[test]
fn d001_wall_clock_and_entropy() {
    assert_rule_triple(
        "D001",
        include_str!("fixtures/d001_violation.rs"),
        include_str!("fixtures/d001_clean.rs"),
        include_str!("fixtures/d001_suppressed.rs"),
    );
}

#[test]
fn d002_hash_iteration_order() {
    assert_rule_triple(
        "D002",
        include_str!("fixtures/d002_violation.rs"),
        include_str!("fixtures/d002_clean.rs"),
        include_str!("fixtures/d002_suppressed.rs"),
    );
}

#[test]
fn d003_console_output() {
    assert_rule_triple(
        "D003",
        include_str!("fixtures/d003_violation.rs"),
        include_str!("fixtures/d003_clean.rs"),
        include_str!("fixtures/d003_suppressed.rs"),
    );
}

#[test]
fn d004_panicking_extraction() {
    assert_rule_triple(
        "D004",
        include_str!("fixtures/d004_violation.rs"),
        include_str!("fixtures/d004_clean.rs"),
        include_str!("fixtures/d004_suppressed.rs"),
    );
}

#[test]
fn d005_narrowing_casts() {
    assert_rule_triple(
        "D005",
        include_str!("fixtures/d005_violation.rs"),
        include_str!("fixtures/d005_clean.rs"),
        include_str!("fixtures/d005_suppressed.rs"),
    );
}

#[test]
fn d006_interior_mutability() {
    assert_rule_triple(
        "D006",
        include_str!("fixtures/d006_violation.rs"),
        include_str!("fixtures/d006_clean.rs"),
        include_str!("fixtures/d006_suppressed.rs"),
    );
}

// ---------------------------------------------------------------------
// Call-graph rules: fixtures run through the whole-workspace `analyze`
// entry point with the fixture file standing in as a one-crate
// workspace, rooted at the `[graph]` entry set the rule reads.

fn analyze_policy_fixture(src: &str, policy: &Policy) -> Analysis {
    let files = vec![LoadedFile {
        file: SourceFile {
            crate_key: "fixture".to_string(),
            rel_path: "src/lib.rs".to_string(),
            display_path: "crates/fixture/src/lib.rs".to_string(),
            abs_path: PathBuf::new(),
        },
        src: src.to_string(),
    }];
    let mut names = BTreeMap::new();
    names.insert("fixture".to_string(), "fixture_lib".to_string());
    analyze(&files, policy, &names).expect("fixture analysis succeeds")
}

/// A policy rooting only `rule`'s `[graph]` entry set, at `entry`.
fn graph_policy(rule: &str, entry: &[&str]) -> Policy {
    let mut policy = Policy::default();
    let g = &mut policy.graph;
    let set = match rule {
        "D007" => &mut g.protocol_entries,
        "D008" | "D015" => &mut g.merge_entries,
        "D009" => &mut g.step_entries,
        "D012" => &mut g.hot_entries,
        other => panic!("{other} is not a [graph] rule"),
    };
    *set = entry.iter().map(|s| s.to_string()).collect();
    policy
}

fn assert_graph_triple(rule: &str, entry: &[&str], violation: &str, clean: &str, suppressed: &str) {
    let policy = graph_policy(rule, entry);

    let v = analyze_policy_fixture(violation, &policy).report;
    assert!(
        !v.findings.is_empty(),
        "{rule}: violation fixture produced no findings"
    );
    assert!(
        v.findings.iter().all(|f| f.rule == rule),
        "{rule}: violation fixture tripped other rules: {:?}",
        v.findings
    );
    // Chain evidence: every interprocedural finding names its entry point.
    assert!(
        v.findings
            .iter()
            .all(|f| !f.chain.is_empty()
                && f.chain[0].contains(entry[0].rsplit("::").next().unwrap())),
        "{rule}: finding lacks a chain rooted at the entry: {:?}",
        v.findings
    );

    let c = analyze_policy_fixture(clean, &policy).report;
    assert!(
        c.findings.is_empty(),
        "{rule}: clean fixture produced findings: {:?}",
        c.findings
    );

    let sup = analyze_policy_fixture(suppressed, &policy).report;
    assert!(
        sup.findings.is_empty(),
        "{rule}: suppressed fixture still has findings: {:?}",
        sup.findings
    );
    assert!(
        sup.suppressed.iter().any(|x| x.rule == rule),
        "{rule}: suppressed fixture recorded no {rule} suppression: {:?}",
        sup.suppressed
    );
}

#[test]
fn d007_transitive_panic_reachability() {
    assert_graph_triple(
        "D007",
        &["fixture_lib::proto_query"],
        include_str!("fixtures/d007_violation.rs"),
        include_str!("fixtures/d007_clean.rs"),
        include_str!("fixtures/d007_suppressed.rs"),
    );
}

#[test]
fn d008_float_accumulation_on_merge_paths() {
    assert_graph_triple(
        "D008",
        &["fixture_lib::merge_shards"],
        include_str!("fixtures/d008_violation.rs"),
        include_str!("fixtures/d008_clean.rs"),
        include_str!("fixtures/d008_suppressed.rs"),
    );
}

#[test]
fn d009_blocking_in_event_step() {
    assert_graph_triple(
        "D009",
        &["fixture_lib::on_event"],
        include_str!("fixtures/d009_violation.rs"),
        include_str!("fixtures/d009_clean.rs"),
        include_str!("fixtures/d009_suppressed.rs"),
    );
}

#[test]
fn d012_hot_path_allocation() {
    assert_graph_triple(
        "D012",
        &["fixture_lib::observe"],
        include_str!("fixtures/d012_violation.rs"),
        include_str!("fixtures/d012_clean.rs"),
        include_str!("fixtures/d012_suppressed.rs"),
    );
}

#[test]
fn d015_shard_identity_on_merge_path() {
    assert_graph_triple(
        "D015",
        &["fixture_lib::Stats::absorb"],
        include_str!("fixtures/d015_violation.rs"),
        include_str!("fixtures/d015_clean.rs"),
        include_str!("fixtures/d015_suppressed.rs"),
    );
}

#[test]
fn stale_hot_entry_is_a_configuration_error() {
    let mut policy = Policy::default();
    policy.graph.hot_entries = vec!["fixture_lib::renamed_or_removed".to_string()];
    let files = vec![LoadedFile {
        file: SourceFile {
            crate_key: "fixture".to_string(),
            rel_path: "src/lib.rs".to_string(),
            display_path: "crates/fixture/src/lib.rs".to_string(),
            abs_path: PathBuf::new(),
        },
        src: include_str!("fixtures/d012_clean.rs").to_string(),
    }];
    let mut names = BTreeMap::new();
    names.insert("fixture".to_string(), "fixture_lib".to_string());
    let err = analyze(&files, &policy, &names).expect_err("stale entry must be rejected");
    assert!(
        err.contains("renamed_or_removed") && err.contains("hot_entries"),
        "error should name the stale entry and its set: {err}"
    );
}

#[test]
fn chain_reports_every_hop() {
    let src = include_str!("fixtures/d009_violation.rs");
    let entry = &["fixture_lib::on_event"];
    // The fixture has no panic site, so rooting D007 there is clean…
    let report = analyze_policy_fixture(src, &graph_policy("D007", entry)).report;
    assert!(report.findings.is_empty(), "{:?}", report.findings);

    // …while the D009 chain walks entry -> retry -> backoff.
    let report = analyze_policy_fixture(src, &graph_policy("D009", entry)).report;
    let f = &report.findings[0];
    assert_eq!(
        f.chain.len(),
        3,
        "chain should have three hops: {:?}",
        f.chain
    );
    assert!(f.chain[0].contains("on_event"));
    assert!(f.chain[1].contains("retry"));
    assert!(f.chain[2].contains("backoff"));
}

#[test]
fn stale_graph_entry_is_a_configuration_error() {
    let mut policy = Policy::default();
    policy.graph.protocol_entries = vec!["fixture_lib::renamed_or_removed".to_string()];
    let files = vec![LoadedFile {
        file: SourceFile {
            crate_key: "fixture".to_string(),
            rel_path: "src/lib.rs".to_string(),
            display_path: "crates/fixture/src/lib.rs".to_string(),
            abs_path: PathBuf::new(),
        },
        src: include_str!("fixtures/d007_clean.rs").to_string(),
    }];
    let mut names = BTreeMap::new();
    names.insert("fixture".to_string(), "fixture_lib".to_string());
    let err = analyze(&files, &policy, &names).expect_err("stale entry must be rejected");
    assert!(
        err.contains("renamed_or_removed"),
        "error should name the stale entry: {err}"
    );
}

#[test]
fn graph_policy_parses_multi_line_arrays() {
    let toml = r#"
        [graph]
        step_entries = [
            "a::on_event",   # trailing comment
            "b::on_event",
        ]
        protocol_entries = ["c::query"]
        merge_entries = []

        [default]
        rules = ["D001"]
    "#;
    let p = Policy::parse(toml).expect("graph policy parses");
    assert_eq!(p.graph.step_entries, vec!["a::on_event", "b::on_event"]);
    assert_eq!(p.graph.protocol_entries, vec!["c::query"]);
    assert!(p.graph.merge_entries.is_empty());
}

// ---------------------------------------------------------------------
// Pragma hygiene.

#[test]
fn pragma_missing_reason_is_a_finding() {
    let src = "pub fn f() -> u16 {\n    // doe-lint: allow(D005)\n    3usize as u16\n}\n";
    let out = lint(src, ALL_RULES);
    // The malformed pragma suppresses nothing, so both the hygiene error
    // and the underlying D005 finding surface.
    assert!(out.findings.iter().any(|f| f.rule == "P002"), "{out:?}");
    assert!(out.findings.iter().any(|f| f.rule == "D005"), "{out:?}");
}

#[test]
fn pragma_unknown_rule_is_a_finding() {
    let src = "// doe-lint: allow(D999) — no such rule\npub fn f() {}\n";
    let out = lint(src, ALL_RULES);
    assert!(out.findings.iter().any(|f| f.rule == "P003"), "{out:?}");
}

#[test]
fn pragma_malformed_directive_is_a_finding() {
    let src = "// doe-lint: deny(D001) — wrong verb\npub fn f() {}\n";
    let out = lint(src, ALL_RULES);
    assert!(out.findings.iter().any(|f| f.rule == "P001"), "{out:?}");
}

#[test]
fn pragma_for_wrong_rule_is_stale_and_suppresses_nothing() {
    let src = "pub fn f() -> u16 {\n    \
               // doe-lint: allow(D001) — fixture: wrong rule id on purpose\n    \
               3usize as u16\n}\n";
    let out = lint(src, ALL_RULES);
    assert!(out.findings.iter().any(|f| f.rule == "D005"), "{out:?}");
    assert!(out.findings.iter().any(|f| f.rule == "P004"), "{out:?}");
}

#[test]
fn stale_pragma_is_a_p004_error() {
    assert_rule_p004(
        include_str!("fixtures/p004_violation.rs"),
        include_str!("fixtures/p004_clean.rs"),
    );
}

fn assert_rule_p004(violation: &str, clean: &str) {
    let v = lint(violation, ALL_RULES);
    assert!(
        v.findings.iter().any(|f| f.rule == "P004"),
        "stale pragma did not produce P004: {:?}",
        v.findings
    );
    assert!(
        v.findings
            .iter()
            .filter(|f| f.rule == "P004")
            .all(|f| f.message.contains("suppresses nothing")),
        "P004 message should explain the problem: {:?}",
        v.findings
    );

    let c = lint(clean, ALL_RULES);
    assert!(
        c.findings.is_empty(),
        "live suppression flagged as stale: {:?}",
        c.findings
    );
    assert!(
        !c.suppressed.is_empty(),
        "clean fixture should record its live suppression"
    );
}

#[test]
fn test_modules_are_exempt() {
    let src = "pub fn lib_code() {}\n\n\
               #[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    \
               #[test]\n    fn t() {\n        \
               let mut m = HashMap::new();\n        \
               m.insert(1, std::time::Instant::now());\n        \
               println!(\"{}\", m.len());\n        \
               m.get(&1).unwrap();\n    }\n}\n";
    let out = lint(src, ALL_RULES);
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

#[test]
fn policy_scoping_controls_what_fires() {
    let toml = r#"
        [default]
        rules = ["D001", "D003"]

        [crates.scanner]
        rules = ["D001", "D002", "D003", "D005"]

        [crates.netsim.files."src/net.rs"]
        rules = ["D005"]

        [crates.bench]
        rules = []
    "#;
    let policy = Policy::parse(toml).expect("sample policy parses");

    // A HashMap in an unlisted crate is fine (D002 off by default)...
    let hash_src = include_str!("fixtures/d002_violation.rs");
    let default_rules = policy.rules_for("tlssim", "src/lib.rs");
    assert!(lint_source("f.rs", hash_src, &default_rules)
        .findings
        .is_empty());

    // ...but fires in the scanner, whose output feeds reports.
    let scanner_rules = policy.rules_for("scanner", "src/sweep.rs");
    let out = lint_source("f.rs", hash_src, &scanner_rules);
    assert!(out.findings.iter().all(|f| f.rule == "D002"));
    assert!(!out.findings.is_empty());

    // File-scoped extras apply to exactly that file.
    let cast_src = include_str!("fixtures/d005_violation.rs");
    let net_rules = policy.rules_for("netsim", "src/net.rs");
    assert!(!lint_source("f.rs", cast_src, &net_rules)
        .findings
        .is_empty());
    let geo_rules = policy.rules_for("netsim", "src/geo.rs");
    assert!(lint_source("f.rs", cast_src, &geo_rules)
        .findings
        .is_empty());

    // Empty rule set means the crate is fully out of scope.
    assert!(policy.rules_for("bench", "src/lib.rs").is_empty());
}

// ---------------------------------------------------------------------
// Whole-workspace meta-tests.

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

fn workspace_policy(root: &Path) -> Policy {
    let policy_text =
        std::fs::read_to_string(root.join("lint.toml")).expect("workspace lint.toml exists");
    Policy::parse(&policy_text).expect("workspace lint.toml parses")
}

/// The meta-test: the live workspace must satisfy its own contract —
/// token rules *and* the interprocedural D007–D015 — and every
/// recorded suppression must carry a justification.
#[test]
fn workspace_lints_clean() {
    let root = workspace_root();
    let policy = workspace_policy(&root);
    assert!(
        !policy.graph.protocol_entries.is_empty()
            && !policy.graph.merge_entries.is_empty()
            && !policy.graph.step_entries.is_empty()
            && !policy.graph.hot_entries.is_empty(),
        "the workspace policy must keep the interprocedural rules rooted"
    );
    let report = lint_workspace(&root, &policy).expect("workspace lints");
    assert!(
        report.clean(),
        "workspace has unsuppressed findings:\n{}",
        doe_lint::report::human(&report)
    );
    assert!(report.files_scanned > 50, "suspiciously few files scanned");
    assert!(
        report
            .suppressed
            .iter()
            .all(|s| !s.reason.trim().is_empty()),
        "a suppression lost its reason: {:?}",
        report.suppressed
    );
}

/// D006 is what keeps interior mutability out of library code, so no
/// `[crates.*]` override may drop it: every crate directory (and the
/// umbrella package) must have it in force. File entries only add rules.
#[test]
fn workspace_policy_enables_d006_everywhere() {
    let root = workspace_root();
    let policy = workspace_policy(&root);
    let mut crates: Vec<String> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    crates.push("root".to_string());
    for name in &crates {
        assert!(
            policy
                .rules_for(name, "src/lib.rs")
                .iter()
                .any(|r| r == "D006"),
            "lint.toml drops D006 for crate `{name}`"
        );
    }
}

/// Two analyses of the same tree must serialise to byte-identical
/// artifacts — `scripts/verify.sh` archives and diffs them.
#[test]
fn callgraph_and_report_are_byte_deterministic() {
    let root = workspace_root();
    let policy = workspace_policy(&root);
    let a = doe_lint::analyze_workspace(&root, &policy).expect("first analysis");
    let b = doe_lint::analyze_workspace(&root, &policy).expect("second analysis");
    let ga = doe_lint::graph::to_json(&a.graph);
    let gb = doe_lint::graph::to_json(&b.graph);
    assert_eq!(ga, gb, "callgraph.json is not byte-stable across runs");
    assert!(
        ga.contains("\"edges\"") && ga.contains("\"nodes\""),
        "callgraph export lost its sections"
    );
    let ra = doe_lint::report::json(&a.report);
    assert_eq!(
        ra,
        doe_lint::report::json(&b.report),
        "doe-lint.json is not byte-stable across runs"
    );
    assert!(
        ra.contains("\"version\": 5"),
        "report schema should be v5 (per-finding chain and fingerprint)"
    );
    let sa = doe_lint::report::sarif(&a.report);
    assert_eq!(
        sa,
        doe_lint::report::sarif(&b.report),
        "SARIF export is not byte-stable across runs"
    );
    assert!(
        sa.contains("\"version\": \"2.1.0\"") && sa.contains("\"name\": \"doe-lint\""),
        "SARIF export lost its envelope"
    );
}
