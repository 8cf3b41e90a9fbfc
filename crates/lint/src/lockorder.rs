//! The lock-order graph (D013): static deadlock detection from
//! held-lock-set summaries.
//!
//! An edge `A → B` means some function acquires `B` while `A` is held:
//!
//! * a `let`-bound guard (`let g = self.a.lock();`) holds its lock to
//!   end of scope, so every later `.lock()` in the same body — and
//!   every lock in the summary lock-set of an **exact** callee invoked
//!   on a later line — is acquired under it;
//! * an unbound (temporary) guard dies at its statement's end, so it
//!   only orders against acquisitions on the same source line.
//!
//! Two threads taking the same pair of locks along different edges of a
//! cycle can each hold one lock and wait forever on the other — the
//! static analogue of the PR 9 shards-8 replay flake. Every cycle is
//! reported once, with one witness chain per hop so the diagnostic
//! shows *both* acquisition orders, not just the existence of a cycle.
//! A self-edge `A → A` is reported too: re-acquiring a held
//! non-reentrant mutex deadlocks against itself.
//!
//! Edges derive only from functions in the caller-supplied reachable
//! set (the `[summary] lock_entries` cone) and only through exact call
//! edges, so name collisions in the over-approximated method graph
//! cannot fabricate an ordering.

use crate::graph::CallGraph;
use crate::summary::Summaries;
use std::collections::{BTreeMap, BTreeSet};

/// One lock-order edge with its witness.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// The lock already held.
    pub held: String,
    /// The lock acquired under it.
    pub acquired: String,
    /// Rendered witness: which function, which lines, through which
    /// callee (if interprocedural).
    pub witness: String,
    /// Node index of the witnessing function.
    pub node: usize,
    /// 1-based line of the second acquisition (the finding anchor).
    pub line: u32,
}

/// One lock-order cycle: the locks in cycle order (starting at the
/// lexicographically smallest) and one witness edge per hop.
#[derive(Debug, Clone)]
pub struct LockCycle {
    /// Lock identities in cycle order.
    pub locks: Vec<String>,
    /// `witnesses[i]` justifies the hop `locks[i] → locks[(i+1) % n]`.
    pub witnesses: Vec<LockEdge>,
}

/// Collect lock-order edges from every reachable function.
pub fn build_edges(graph: &CallGraph, summaries: &Summaries, reachable: &[bool]) -> Vec<LockEdge> {
    let mut edges: Vec<LockEdge> = Vec::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        if !reachable[i] {
            continue;
        }
        for (si, s) in node.lock_sites.iter().enumerate() {
            // Later direct acquisitions in the same body.
            for t in node.lock_sites.iter().skip(si + 1) {
                let ordered = if s.bound {
                    t.line >= s.line
                } else {
                    t.line == s.line
                };
                if !ordered {
                    continue;
                }
                edges.push(LockEdge {
                    held: s.id.clone(),
                    acquired: t.id.clone(),
                    witness: format!(
                        "{} ({}): holds `{}` (line {}), acquires `{}` (line {})",
                        node.qualified(),
                        node.file,
                        s.id,
                        s.line,
                        t.id,
                        t.line
                    ),
                    node: i,
                    line: t.line,
                });
            }
            // Locks acquired inside exact callees invoked while held.
            for &(v, call_line, exact) in &graph.adj[i] {
                if !exact || v == i {
                    continue;
                }
                let ordered = if s.bound {
                    call_line >= s.line
                } else {
                    call_line == s.line
                };
                if !ordered {
                    continue;
                }
                for acquired in &summaries.per_fn[v].lock_set {
                    edges.push(LockEdge {
                        held: s.id.clone(),
                        acquired: acquired.clone(),
                        witness: format!(
                            "{} ({}): holds `{}` (line {}), calls {} (line {}) which acquires `{}`",
                            node.qualified(),
                            node.file,
                            s.id,
                            s.line,
                            graph.nodes[v].qualified(),
                            call_line,
                            acquired
                        ),
                        node: i,
                        line: call_line,
                    });
                }
            }
        }
    }
    // Deterministic order; one witness per (held, acquired) pair — the
    // first in (file, line) order wins.
    edges.sort_by(|a, b| {
        (&a.held, &a.acquired, &graph.nodes[a.node].file, a.line).cmp(&(
            &b.held,
            &b.acquired,
            &graph.nodes[b.node].file,
            b.line,
        ))
    });
    edges.dedup_by(|a, b| a.held == b.held && a.acquired == b.acquired);
    edges
}

/// Find every cycle in the lock-order graph. One cycle is reported per
/// strongly connected component (the shortest cycle through the
/// component's smallest lock), plus every self-edge.
pub fn find_cycles(edges: &[LockEdge]) -> Vec<LockCycle> {
    let mut adj: BTreeMap<&str, BTreeMap<&str, &LockEdge>> = BTreeMap::new();
    let mut locks: BTreeSet<&str> = BTreeSet::new();
    for e in edges {
        locks.insert(&e.held);
        locks.insert(&e.acquired);
        adj.entry(&e.held)
            .or_default()
            .entry(&e.acquired)
            .or_insert(e);
    }

    let mut out: Vec<LockCycle> = Vec::new();
    // Self-edges first: `A → A` is a one-hop cycle.
    for e in edges {
        if e.held == e.acquired {
            out.push(LockCycle {
                locks: vec![e.held.clone()],
                witnesses: vec![e.clone()],
            });
        }
    }

    // Proper cycles: for each lock (smallest first), BFS for the
    // shortest path back to itself; claim every lock on the found cycle
    // so each component reports once.
    let mut claimed: BTreeSet<&str> = BTreeSet::new();
    for &start in &locks {
        if claimed.contains(start) {
            continue;
        }
        let Some(path) = shortest_cycle(&adj, start) else {
            continue;
        };
        if path.len() < 2 {
            continue; // self-edges handled above
        }
        let mut witnesses = Vec::new();
        for (k, from) in path.iter().enumerate() {
            let to = &path[(k + 1) % path.len()];
            let e = adj[from.as_str()][to.as_str()];
            witnesses.push(e.clone());
        }
        for l in &path {
            claimed.insert(locks.get(l.as_str()).copied().unwrap_or_default());
        }
        out.push(LockCycle {
            locks: path,
            witnesses,
        });
    }
    out
}

/// Shortest cycle through `start` (BFS over sorted neighbours), as the
/// lock sequence `[start, …]` without repeating `start` at the end.
fn shortest_cycle(
    adj: &BTreeMap<&str, BTreeMap<&str, &LockEdge>>,
    start: &str,
) -> Option<Vec<String>> {
    let mut pred: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue: std::collections::VecDeque<&str> = std::collections::VecDeque::new();
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        if let Some(next) = adj.get(u) {
            for (&v, _) in next.iter() {
                if v == start {
                    // Found the way back; unwind.
                    let mut path = vec![u.to_string()];
                    let mut cur = u;
                    while cur != start {
                        cur = pred[cur];
                        path.push(cur.to_string());
                    }
                    path.reverse();
                    if path.len() < 2 && u == start {
                        // `start → start` with no intermediate hops is a
                        // self-edge, not a proper cycle.
                        return None;
                    }
                    return Some(path);
                }
                if v != u && !pred.contains_key(v) {
                    pred.insert(v, u);
                    queue.push_back(v);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{build, SourceItems};
    use crate::lexer::lex;
    use crate::parser::parse_file;
    use crate::rules::test_mask;
    use crate::summary::compute;

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

    fn all(graph: &CallGraph) -> Vec<bool> {
        vec![true; graph.nodes.len()]
    }

    #[test]
    fn opposite_acquisition_orders_form_a_cycle_with_both_witnesses() {
        let g = graph_of(
            r#"
            struct W;
            impl W {
                fn ab(&self) {
                    let a = self.alpha.lock();
                    let b = self.beta.lock();
                }
                fn ba(&self) {
                    let b = self.beta.lock();
                    let a = self.alpha.lock();
                }
            }
            "#,
        );
        let s = compute(&g);
        let edges = build_edges(&g, &s, &all(&g));
        let cycles = find_cycles(&edges);
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        let c = &cycles[0];
        assert_eq!(c.locks, vec!["W.alpha".to_string(), "W.beta".to_string()]);
        assert_eq!(c.witnesses.len(), 2);
        assert!(c.witnesses[0].witness.contains("a::W::ab"));
        assert!(c.witnesses[1].witness.contains("a::W::ba"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let g = graph_of(
            r#"
            struct W;
            impl W {
                fn one(&self) {
                    let a = self.alpha.lock();
                    let b = self.beta.lock();
                }
                fn two(&self) {
                    let a = self.alpha.lock();
                    let b = self.beta.lock();
                }
            }
            "#,
        );
        let s = compute(&g);
        let cycles = find_cycles(&build_edges(&g, &s, &all(&g)));
        assert!(cycles.is_empty(), "{cycles:?}");
    }

    #[test]
    fn temporary_guards_do_not_order_across_statements() {
        // Both statements drop their guard before the next line: no
        // ordering, no cycle.
        let g = graph_of(
            r#"
            struct W;
            impl W {
                fn ab(&self) {
                    self.alpha.lock().n += 1;
                    self.beta.lock().n += 1;
                }
                fn ba(&self) {
                    self.beta.lock().n += 1;
                    self.alpha.lock().n += 1;
                }
            }
            "#,
        );
        let s = compute(&g);
        let cycles = find_cycles(&build_edges(&g, &s, &all(&g)));
        assert!(cycles.is_empty(), "{cycles:?}");
    }

    #[test]
    fn interprocedural_cycle_through_exact_callee() {
        let g = graph_of(
            r#"
            struct W;
            impl W {
                fn ab(&self) {
                    let a = self.alpha.lock();
                    self.take_beta();
                }
                fn ba(&self) {
                    let b = self.beta.lock();
                    self.take_alpha();
                }
                fn take_beta(&self) { let b = self.beta.lock(); }
                fn take_alpha(&self) { let a = self.alpha.lock(); }
            }
            "#,
        );
        let s = compute(&g);
        let edges = build_edges(&g, &s, &all(&g));
        let cycles = find_cycles(&edges);
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        assert!(cycles[0].witnesses[0].witness.contains("calls"));
    }

    #[test]
    fn reacquiring_a_held_lock_is_a_self_cycle() {
        let g = graph_of(
            r#"
            struct W;
            impl W {
                fn twice(&self) {
                    let a = self.alpha.lock();
                    let b = self.alpha.lock();
                }
            }
            "#,
        );
        let s = compute(&g);
        let cycles = find_cycles(&build_edges(&g, &s, &all(&g)));
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].locks, vec!["W.alpha".to_string()]);
    }

    #[test]
    fn unreachable_functions_contribute_no_edges() {
        let g = graph_of(
            r#"
            struct W;
            impl W {
                fn ab(&self) {
                    let a = self.alpha.lock();
                    let b = self.beta.lock();
                }
            }
            "#,
        );
        let s = compute(&g);
        let none = vec![false; g.nodes.len()];
        assert!(build_edges(&g, &s, &none).is_empty());
    }
}
