//! Whole-program effect summaries: the bottom-up fixpoint.
//!
//! Every function gets an [`EffectSummary`] — a point in a finite
//! join-semilattice {panics, allocates, blocks, reads-wall-clock,
//! reads-shard-identity, max-self-recursion} — computed callee-first
//! over the call graph's SCC condensation:
//!
//! 1. Tarjan over **all** edges yields the condensation in reverse
//!    topological emission order (an SCC is emitted only after every
//!    SCC it calls into), so one pass over components in emission order
//!    sees each callee's final summary before any caller joins it.
//! 2. Within an SCC (mutual or self recursion) the members iterate to a
//!    fixpoint: the join is monotone and the lattice finite, so the
//!    loop terminates — in practice in two rounds.
//! 3. A second Tarjan over **exact** edges only (see
//!    [`crate::graph::Edge::exact`]) computes the recursion facts D014
//!    consumes. The broad method fan-out over-approximates calls so
//!    heavily that any two same-named methods would read as "mutual
//!    recursion"; exact edges cannot fabricate a cycle.

use crate::graph::{CallGraph, FnNode};
use crate::parser::HazardKind;

/// The per-function point in the effect lattice. All fields join by
/// field-wise OR / max.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EffectSummary {
    /// A panic site is (transitively) reachable.
    pub panics: bool,
    /// An allocation site is reachable.
    pub allocates: bool,
    /// A blocking operation is reachable.
    pub blocks: bool,
    /// An `Instant`/`SystemTime` mention is reachable.
    pub wall_clock: bool,
    /// A shard/worker/thread identity value is read on a reachable
    /// function.
    pub shard_ident: bool,
    /// Size of this function's cyclic SCC over exact edges: 0 when the
    /// function cannot recurse, 1 for direct self-recursion, n for a
    /// mutual-recursion cycle of n functions.
    pub recursion: u32,
    /// Condensation component id (all-edge Tarjan emission order) —
    /// provenance for findings: which component the verdict was
    /// computed in.
    pub scc: usize,
}

/// The fixpoint result for a whole graph.
#[derive(Debug, Default)]
pub struct Summaries {
    /// One summary per graph node, indexed like `graph.nodes`.
    pub per_fn: Vec<EffectSummary>,
    /// Cyclic SCCs over exact edges (size > 1, or a single node with an
    /// exact self-edge), members sorted. D014 walks these.
    pub exact_sccs: Vec<Vec<usize>>,
}

/// Compute every function's effect summary.
pub fn compute(graph: &CallGraph) -> Summaries {
    let n = graph.nodes.len();
    let (comp_of, comps) = tarjan(n, |u| graph.adj[u].iter().map(|&(v, _, _)| v));

    let mut per_fn: Vec<EffectSummary> = graph.nodes.iter().map(local_bits).collect();
    for (i, s) in per_fn.iter_mut().enumerate() {
        s.scc = comp_of[i];
    }

    // Emission order is reverse topological: every callee component is
    // final before its callers join it. Within a component, iterate.
    for members in &comps {
        loop {
            let mut changed = false;
            for &u in members {
                let mut s = per_fn[u].clone();
                for &(v, _, _) in &graph.adj[u] {
                    let callee = &per_fn[v];
                    s.panics |= callee.panics;
                    s.allocates |= callee.allocates;
                    s.blocks |= callee.blocks;
                    s.wall_clock |= callee.wall_clock;
                    s.shard_ident |= callee.shard_ident;
                }
                if s != per_fn[u] {
                    per_fn[u] = s;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    // Recursion facts over exact edges only.
    let (exact_comp, exact_comps) = tarjan(n, |u| {
        graph.adj[u]
            .iter()
            .filter(|&&(_, _, exact)| exact)
            .map(|&(v, _, _)| v)
    });
    let mut exact_sccs: Vec<Vec<usize>> = Vec::new();
    for members in &exact_comps {
        let cyclic = members.len() > 1
            || members
                .iter()
                .any(|&u| graph.adj[u].iter().any(|&(v, _, exact)| exact && v == u));
        if !cyclic {
            continue;
        }
        let mut sorted = members.clone();
        sorted.sort_unstable();
        for &u in &sorted {
            per_fn[u].recursion = sorted.len() as u32;
        }
        exact_sccs.push(sorted);
    }
    let _ = exact_comp;
    exact_sccs.sort();

    Summaries { per_fn, exact_sccs }
}

/// A node's own contribution to the lattice, before propagation.
fn local_bits(node: &FnNode) -> EffectSummary {
    let mut s = EffectSummary::default();
    for h in &node.hazards {
        match h.kind {
            HazardKind::Panic => s.panics = true,
            HazardKind::Alloc => s.allocates = true,
            HazardKind::Blocking => s.blocks = true,
            HazardKind::ShardIdent => s.shard_ident = true,
            HazardKind::FloatAccum => {}
        }
    }
    s.wall_clock = node.wall_clock;
    s
}

/// Iterative Tarjan SCC. Returns (component id per node, components in
/// emission order). Emission order is reverse topological over the
/// condensation: a component is emitted before every component that can
/// reach it, i.e. callees first. Deterministic: nodes are seeded in
/// index order and successors visited in adjacency order.
fn tarjan<I, F>(n: usize, succ: F) -> (Vec<usize>, Vec<Vec<usize>>)
where
    I: Iterator<Item = usize>,
    F: Fn(usize) -> I,
{
    const NONE: usize = usize::MAX;
    let mut index = vec![NONE; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp_of = vec![NONE; n];
    let mut comps: Vec<Vec<usize>> = Vec::new();
    let mut next_index = 0usize;

    // Explicit DFS frames: (node, successor list, cursor).
    let mut frames: Vec<(usize, Vec<usize>, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != NONE {
            continue;
        }
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        frames.push((root, succ(root).collect(), 0));
        while let Some(frame) = frames.last_mut() {
            let u = frame.0;
            if frame.2 < frame.1.len() {
                let v = frame.1[frame.2];
                frame.2 += 1;
                if index[v] == NONE {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    frames.push((v, succ(v).collect(), 0));
                } else if on_stack[v] {
                    low[u] = low[u].min(index[v]);
                }
            } else {
                frames.pop();
                if let Some(parent) = frames.last() {
                    let p = parent.0;
                    low[p] = low[p].min(low[u]);
                }
                if low[u] == index[u] {
                    let mut members = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp_of[w] = comps.len();
                        members.push(w);
                        if w == u {
                            break;
                        }
                    }
                    members.reverse();
                    comps.push(members);
                }
            }
        }
    }
    (comp_of, comps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{build, SourceItems};
    use crate::lexer::lex;
    use crate::parser::parse_file;
    use crate::rules::test_mask;

    fn graph_of(src: &str) -> CallGraph {
        let lexed = lex(src);
        let mask = test_mask(&lexed.toks);
        let module: Vec<String> = Vec::new();
        let parsed = parse_file(&module, &lexed.toks, &mask);
        build(&[SourceItems {
            crate_key: "a".to_string(),
            crate_name: "a".to_string(),
            file: "crates/a/src/x.rs".to_string(),
            module,
            parsed,
        }])
    }

    fn idx(g: &CallGraph, name: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.name == name)
            .unwrap_or_else(|| panic!("no fn {name}"))
    }

    #[test]
    fn effects_propagate_bottom_up() {
        let g = graph_of(
            r#"
            pub fn top(x: Option<u8>) { mid(x); }
            fn mid(x: Option<u8>) { leaf(x); }
            fn leaf(x: Option<u8>) -> u8 { x.unwrap() }
            pub fn bystander() {}
            "#,
        );
        let s = compute(&g);
        assert!(s.per_fn[idx(&g, "leaf")].panics);
        assert!(s.per_fn[idx(&g, "mid")].panics);
        assert!(s.per_fn[idx(&g, "top")].panics);
        assert!(!s.per_fn[idx(&g, "bystander")].panics);
    }

    #[test]
    fn every_node_gets_a_summary() {
        let g = graph_of("pub fn a() { b(); } fn b() {} fn c() { c(); }");
        let s = compute(&g);
        assert_eq!(s.per_fn.len(), g.nodes.len());
    }

    #[test]
    fn self_recursion_reaches_fixpoint() {
        let g = graph_of(
            r#"
            pub fn walk(n: u64) -> u64 {
                let s = format!("{n}");
                if n == 0 { 0 } else { walk(n - 1) }
            }
            "#,
        );
        let s = compute(&g);
        let w = &s.per_fn[idx(&g, "walk")];
        assert!(w.allocates);
        assert_eq!(w.recursion, 1);
    }

    #[test]
    fn mutual_recursion_joins_both_members() {
        let g = graph_of(
            r#"
            pub fn even(n: u64) -> bool { if n == 0 { true } else { odd(n - 1) } }
            pub fn odd(n: u64) -> bool {
                let s = format!("{n}");
                if n == 0 { false } else { even(n - 1) }
            }
            "#,
        );
        let s = compute(&g);
        // The alloc in `odd` reaches `even` through the cycle.
        assert!(s.per_fn[idx(&g, "even")].allocates);
        assert!(s.per_fn[idx(&g, "odd")].allocates);
        assert_eq!(s.per_fn[idx(&g, "even")].recursion, 2);
        assert_eq!(s.per_fn[idx(&g, "odd")].recursion, 2);
        assert_eq!(s.exact_sccs.len(), 1);
        assert_eq!(s.exact_sccs[0].len(), 2);
    }

    #[test]
    fn diamond_join_unions_both_branches() {
        let g = graph_of(
            r#"
            pub fn top(x: Option<u8>) { left(x); right(); }
            fn left(x: Option<u8>) -> u8 { x.unwrap() }
            fn right() -> String { format!("r") }
            "#,
        );
        let s = compute(&g);
        let t = &s.per_fn[idx(&g, "top")];
        assert!(t.panics && t.allocates);
        assert!(!s.per_fn[idx(&g, "left")].allocates);
        assert!(!s.per_fn[idx(&g, "right")].panics);
    }

    #[test]
    fn inexact_edges_do_not_fabricate_recursion() {
        // `a.step()` fans out to every `step`; if inexact edges fed the
        // recursion pass, A::step -> B::step -> A::step would read as a
        // cycle.
        let g = graph_of(
            r#"
            struct A;
            struct B;
            impl A { fn step(&self, b: &B) { b.step(self); } }
            impl B { fn step(&self, a: &A) { a.step(self); } }
            "#,
        );
        let s = compute(&g);
        assert!(s.exact_sccs.is_empty(), "{:?}", s.exact_sccs);
        assert!(s.per_fn.iter().all(|f| f.recursion == 0));
    }
}
