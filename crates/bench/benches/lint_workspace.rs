//! Cost of the determinism analyzer over the live workspace, split into
//! its stages: the per-file token pass (`lint_workspace`'s dominant
//! cost before the call-graph work existed), the full pass (parse →
//! graph build → effect-summary fixpoint → every D006–D015 rule rooted
//! as in `lint.toml`), and the bottom-up effect-summary fixpoint (SCC
//! condensation + worklist) in isolation over a prebuilt graph. The
//! delta between the two passes is what the interprocedural proofs cost
//! on top of reading and tokenising the workspace, and the full pass is
//! what `scripts/verify.sh` pays per gate run.

use criterion::{criterion_group, criterion_main, Criterion};
use doe_lint::policy::Policy;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn load_policy(root: &std::path::Path) -> Policy {
    let text = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml exists");
    Policy::parse(&text).expect("lint.toml parses")
}

fn bench_token_pass(c: &mut Criterion) {
    let root = workspace_root();
    let mut policy = load_policy(&root);
    // Unroot the graph and summary rules: this measures the
    // pre-existing per-file scan alone. (The live D006–D015 pragmas
    // read as stale without their rules, so cleanliness is asserted
    // only in the full pass.)
    policy.graph = Default::default();
    policy.summary = Default::default();
    c.bench_function("lint/token_pass", |b| {
        b.iter(|| {
            let analysis = doe_lint::analyze_workspace(&root, &policy).expect("analysis runs");
            assert!(analysis.report.files_scanned > 50);
            analysis.report.files_scanned
        })
    });
}

fn bench_full_pass(c: &mut Criterion) {
    let root = workspace_root();
    let policy = load_policy(&root);
    c.bench_function("lint/full_pass", |b| {
        b.iter(|| {
            let analysis = doe_lint::analyze_workspace(&root, &policy).expect("analysis runs");
            assert!(analysis.report.clean());
            analysis.graph.nodes.len() + analysis.graph.edges.len()
        })
    });
}

fn bench_summary_fixpoint(c: &mut Criterion) {
    let root = workspace_root();
    let policy = load_policy(&root);
    let analysis = doe_lint::analyze_workspace(&root, &policy).expect("analysis runs");
    // The fixpoint alone over the prebuilt workspace graph: two Tarjan
    // passes plus the per-SCC worklist to convergence. This is the
    // marginal cost v4 added to every gate run.
    c.bench_function("lint/summary_fixpoint", |b| {
        b.iter(|| {
            let summaries = doe_lint::summary::compute(&analysis.graph);
            assert_eq!(summaries.per_fn.len(), analysis.graph.nodes.len());
            summaries.exact_sccs.len()
        })
    });
}

fn bench_graph_export(c: &mut Criterion) {
    let root = workspace_root();
    let policy = load_policy(&root);
    let analysis = doe_lint::analyze_workspace(&root, &policy).expect("analysis runs");
    c.bench_function("lint/graph_export", |b| {
        b.iter(|| doe_lint::graph::to_json(&analysis.graph).len())
    });
}

criterion_group!(
    benches,
    bench_token_pass,
    bench_full_pass,
    bench_summary_fixpoint,
    bench_graph_export
);
criterion_main!(benches);
