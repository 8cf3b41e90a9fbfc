//! Fixture-based self-tests for the determinism analyzer.
//!
//! Each token rule gets three fixtures — violating, clean, and
//! pragma-suppressed — and the call-graph rules (D006–D009, D012) and
//! the effect-summary rules (D013–D015) get the same triple driven
//! through the whole-workspace `analyze` entry point. On top of that:
//! pragma hygiene (including stale pragmas as P004 errors), `lint.toml`
//! scoping, byte-determinism of the exported call graph, v4 report and
//! SARIF export, and meta-tests asserting the live workspace satisfies
//! its own contract and that the summary fixpoint covers every function
//! in the graph.

use doe_lint::policy::Policy;
use doe_lint::{
    analyze, lint_source, lint_workspace, Analysis, FileOutcome, LoadedFile, SourceFile,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const ALL_RULES: &[&str] = &["D001", "D002", "D003", "D004", "D005"];

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

fn analyze_fixture(src: &str, shard: &[&str], proto: &[&str], merge: &[&str]) -> Analysis {
    let mut policy = Policy::default();
    policy.graph.shard_entries = shard.iter().map(|s| s.to_string()).collect();
    policy.graph.protocol_entries = proto.iter().map(|s| s.to_string()).collect();
    policy.graph.merge_entries = merge.iter().map(|s| s.to_string()).collect();
    analyze_policy_fixture(src, &policy)
}

/// A policy rooting only `rule`'s `[graph]` entry set, at `entry`.
fn graph_policy(rule: &str, entry: &[&str]) -> Policy {
    let mut policy = Policy::default();
    let g = &mut policy.graph;
    let set = match rule {
        "D006" => &mut g.shard_entries,
        "D007" => &mut g.protocol_entries,
        "D008" => &mut g.merge_entries,
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
fn d006_shard_purity() {
    assert_graph_triple(
        "D006",
        &["fixture_lib::sweep_sharded"],
        include_str!("fixtures/d006_violation.rs"),
        include_str!("fixtures/d006_clean.rs"),
        include_str!("fixtures/d006_suppressed.rs"),
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

// ---------------------------------------------------------------------
// Effect-summary rules (D013–D015): same triple shape, rooted at the
// `[summary]` entry sets. D013's evidence is the cycle's witness edges
// rather than an entry-rooted call chain, so the chain-root assertion
// is relaxed for it.

fn analyze_summary_fixture(src: &str, lock: &[&str], decode: &[&str], ident: &[&str]) -> Analysis {
    let mut policy = Policy::default();
    policy.summary.lock_entries = lock.iter().map(|s| s.to_string()).collect();
    policy.summary.decode_entries = decode.iter().map(|s| s.to_string()).collect();
    policy.summary.identity_entries = ident.iter().map(|s| s.to_string()).collect();
    analyze_policy_fixture(src, &policy)
}

fn assert_summary_triple(
    rule: &str,
    entry: &[&str],
    violation: &str,
    clean: &str,
    suppressed: &str,
) {
    let pick = |r: &str| -> (Vec<&str>, Vec<&str>, Vec<&str>) {
        match r {
            "D013" => (entry.to_vec(), Vec::new(), Vec::new()),
            "D014" => (Vec::new(), entry.to_vec(), Vec::new()),
            _ => (Vec::new(), Vec::new(), entry.to_vec()),
        }
    };
    let (l, d, i) = pick(rule);

    let v = analyze_summary_fixture(violation, &l, &d, &i).report;
    assert!(
        !v.findings.is_empty(),
        "{rule}: violation fixture produced no findings"
    );
    assert!(
        v.findings.iter().all(|f| f.rule == rule),
        "{rule}: violation fixture tripped other rules: {:?}",
        v.findings
    );
    // Every summary-rule finding carries its effect provenance and
    // evidence: witness edges (D013) or an entry-rooted chain.
    assert!(
        v.findings
            .iter()
            .all(|f| f.summary.is_some() && !f.chain.is_empty()),
        "{rule}: finding lacks summary provenance or evidence: {:?}",
        v.findings
    );
    if rule != "D013" {
        assert!(
            v.findings
                .iter()
                .all(|f| f.chain[0].contains(entry[0].rsplit("::").next().unwrap())),
            "{rule}: finding lacks a chain rooted at the entry: {:?}",
            v.findings
        );
    }

    let c = analyze_summary_fixture(clean, &l, &d, &i).report;
    assert!(
        c.findings.is_empty(),
        "{rule}: clean fixture produced findings: {:?}",
        c.findings
    );

    let sup = analyze_summary_fixture(suppressed, &l, &d, &i).report;
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
fn d013_lock_acquisition_order() {
    assert_summary_triple(
        "D013",
        &["fixture_lib::run_shard"],
        include_str!("fixtures/d013_violation.rs"),
        include_str!("fixtures/d013_clean.rs"),
        include_str!("fixtures/d013_suppressed.rs"),
    );
}

#[test]
fn d014_bounded_decode_recursion() {
    assert_summary_triple(
        "D014",
        &["fixture_lib::decode"],
        include_str!("fixtures/d014_violation.rs"),
        include_str!("fixtures/d014_clean.rs"),
        include_str!("fixtures/d014_suppressed.rs"),
    );
}

#[test]
fn d015_shard_identity_on_merge_path() {
    assert_summary_triple(
        "D015",
        &["fixture_lib::Stats::absorb"],
        include_str!("fixtures/d015_violation.rs"),
        include_str!("fixtures/d015_clean.rs"),
        include_str!("fixtures/d015_suppressed.rs"),
    );
}

/// D013's message must show BOTH acquisition orders — a cycle report
/// that names only one edge is not actionable.
#[test]
fn d013_reports_both_witness_chains() {
    let report = analyze_summary_fixture(
        include_str!("fixtures/d013_violation.rs"),
        &["fixture_lib::run_shard"],
        &[],
        &[],
    )
    .report;
    let f = &report.findings[0];
    assert_eq!(f.rule, "D013");
    assert_eq!(
        f.chain.len(),
        2,
        "one witness per cycle edge: {:?}",
        f.chain
    );
    assert!(
        f.message.contains("Worker::record") && f.message.contains("Worker::evict"),
        "both orders must be named: {}",
        f.message
    );
    assert!(
        f.message
            .contains("Worker.cache -> Worker.stats -> Worker.cache"),
        "cycle must be rendered lock-by-lock: {}",
        f.message
    );
}

#[test]
fn stale_summary_entry_is_a_configuration_error() {
    let mut policy = Policy::default();
    policy.summary.decode_entries = vec!["fixture_lib::renamed_or_removed".to_string()];
    let files = vec![LoadedFile {
        file: SourceFile {
            crate_key: "fixture".to_string(),
            rel_path: "src/lib.rs".to_string(),
            display_path: "crates/fixture/src/lib.rs".to_string(),
            abs_path: PathBuf::new(),
        },
        src: include_str!("fixtures/d014_clean.rs").to_string(),
    }];
    let mut names = BTreeMap::new();
    names.insert("fixture".to_string(), "fixture_lib".to_string());
    let err = analyze(&files, &policy, &names).expect_err("stale entry must be rejected");
    assert!(
        err.contains("renamed_or_removed") && err.contains("decode_entries"),
        "error should name the stale entry and its set: {err}"
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
fn d007_chain_reports_every_hop() {
    let report = analyze_fixture(
        include_str!("fixtures/d006_violation.rs"),
        &[],
        &["fixture_lib::sweep_sharded"],
        &[],
    )
    .report;
    // The same fixture has no panic site, so rooting D007 there is clean…
    assert!(report.findings.is_empty(), "{:?}", report.findings);

    // …while the D006 chain walks entry -> helper -> record.
    let report = analyze_fixture(
        include_str!("fixtures/d006_violation.rs"),
        &["fixture_lib::sweep_sharded"],
        &[],
        &[],
    )
    .report;
    let f = &report.findings[0];
    assert_eq!(
        f.chain.len(),
        3,
        "chain should have three hops: {:?}",
        f.chain
    );
    assert!(f.chain[0].contains("sweep_sharded"));
    assert!(f.chain[1].contains("helper"));
    assert!(f.chain[2].contains("record"));
}

#[test]
fn stale_graph_entry_is_a_configuration_error() {
    let mut policy = Policy::default();
    policy.graph.shard_entries = vec!["fixture_lib::renamed_or_removed".to_string()];
    let files = vec![LoadedFile {
        file: SourceFile {
            crate_key: "fixture".to_string(),
            rel_path: "src/lib.rs".to_string(),
            display_path: "crates/fixture/src/lib.rs".to_string(),
            abs_path: PathBuf::new(),
        },
        src: include_str!("fixtures/d006_clean.rs").to_string(),
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
        shard_entries = [
            "a::sweep",   # trailing comment
            "b::verify",
        ]
        protocol_entries = ["c::query"]
        merge_entries = []

        [default]
        rules = ["D001"]
    "#;
    let p = Policy::parse(toml).expect("graph policy parses");
    assert_eq!(p.graph.shard_entries, vec!["a::sweep", "b::verify"]);
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
/// token rules *and* the interprocedural D006–D015 — and every
/// recorded suppression must carry a justification.
#[test]
fn workspace_lints_clean() {
    let root = workspace_root();
    let policy = workspace_policy(&root);
    assert!(
        !policy.graph.shard_entries.is_empty()
            && !policy.graph.protocol_entries.is_empty()
            && !policy.graph.merge_entries.is_empty()
            && !policy.graph.step_entries.is_empty()
            && !policy.graph.hot_entries.is_empty(),
        "the workspace policy must keep the interprocedural rules rooted"
    );
    assert!(
        !policy.summary.lock_entries.is_empty()
            && !policy.summary.decode_entries.is_empty()
            && !policy.summary.identity_entries.is_empty(),
        "the workspace policy must keep the effect-summary rules rooted"
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
        ra.contains("\"version\": 4"),
        "report schema should be v4 (with per-finding fingerprint and summary provenance)"
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

/// The summary fixpoint must converge with a summary for every function
/// in the workspace graph, and the results must be internally
/// consistent: component ids in range, recursion counts only on members
/// of cyclic exact SCCs, and the condensation topologically ordered
/// (callees' components never after their callers' in emission order is
/// not required, but each function's effects must include those of its
/// exact callees' lock sets by the join).
#[test]
fn workspace_summary_fixpoint_covers_every_function() {
    let root = workspace_root();
    let policy = workspace_policy(&root);
    let a = doe_lint::analyze_workspace(&root, &policy).expect("analysis");
    let n = a.graph.nodes.len();
    assert!(n > 500, "suspiciously small workspace graph: {n} nodes");
    assert_eq!(
        a.summaries.per_fn.len(),
        n,
        "fixpoint must produce a summary for every function"
    );
    // Join consistency: every caller's summary includes each callee's
    // effect bits (modulo the ShardCtx boundary clamp on mutates_shared).
    for (u, node) in a.graph.nodes.iter().enumerate() {
        let su = &a.summaries.per_fn[u];
        if doe_lint::summary::exempt(node) {
            assert!(!su.mutates_shared, "boundary clamp violated at {u}");
            continue;
        }
        for &(v, _, _) in &a.graph.adj[u] {
            let sv = &a.summaries.per_fn[v];
            assert!(!sv.panics || su.panics, "panics not joined {u}<-{v}");
            assert!(!sv.blocks || su.blocks, "blocks not joined {u}<-{v}");
            assert!(
                !sv.allocates || su.allocates,
                "allocates not joined {u}<-{v}"
            );
        }
    }
    // The workspace certainly allocates somewhere and takes locks
    // somewhere; a fixpoint that says otherwise silently under-joined.
    assert!(
        a.summaries.per_fn.iter().any(|s| s.allocates),
        "no allocation effect anywhere — summaries under-joined"
    );
    assert!(
        a.summaries.per_fn.iter().any(|s| !s.lock_set.is_empty()),
        "no held-lock-set anywhere — lock sites lost"
    );
}
