//! Reachability over the call graph: the interprocedural rules.
//!
//! Hazard rules, one BFS each, driven by the `[graph]` section of
//! `lint.toml`:
//!
//! * **D007 transitive panic reachability** — from the protocol entry
//!   points, no panic site is reachable through any call chain.
//! * **D008 float-accumulation hazard** — from the merge entry points,
//!   no order-sensitive floating-point accumulation is reachable;
//!   shard-merge results must not depend on shard layout.
//! * **D009 non-blocking step** — from the event-machine step entry
//!   points, no blocking operation (sleeps, channel receives, real I/O)
//!   is reachable; one stalled handler would skew every virtual-time
//!   measurement behind it.
//! * **D012 hot-path allocation freedom** — from the telemetry hot-path
//!   entry points, no allocation site is reachable.
//! * **D015 shard-identity independence** — from the same merge entry
//!   points as D008, no shard/worker/thread identity value is read;
//!   merged results must not depend on worker layout.
//!
//! Every finding carries its full call chain (entry → … → hazard site)
//! as evidence, so a diagnostic is actionable without re-running the
//! analysis by hand. BFS visits neighbours in sorted order over a
//! deterministic graph, so chains are stable across runs.

use crate::graph::CallGraph;
use crate::parser::{Hazard, HazardKind};
use crate::policy::GraphPolicy;

/// One interprocedural finding, attributed to the hazard site.
#[derive(Debug, Clone)]
pub struct ChainFinding {
    /// Workspace-relative file of the hazard site.
    pub file: String,
    /// 1-based line of the hazard site.
    pub line: u32,
    /// `D007` … `D015`.
    pub rule: &'static str,
    /// Explanation with the rendered chain.
    pub message: String,
    /// Call chain as `fn (file:line)` hops, entry first, hazard fn last.
    pub chain: Vec<String>,
}

/// Run every configured interprocedural rule. Fails when an entry in
/// any policy section matches no graph node — a stale entry list would
/// silently un-prove the contract.
pub fn check(graph: &CallGraph, policy: &GraphPolicy) -> Result<Vec<ChainFinding>, String> {
    let mut out = Vec::new();
    if !policy.protocol_entries.is_empty() {
        let entries = resolve_entries(graph, &policy.protocol_entries, "[graph] protocol_entries")?;
        out.extend(scan(
            graph,
            &entries,
            "D007",
            |h| h.kind == HazardKind::Panic,
            "can panic and is reachable from a protocol entry point; malformed \
             wire data must surface as a typed error, not an abort",
        ));
    }
    if !policy.merge_entries.is_empty() {
        let entries = resolve_entries(graph, &policy.merge_entries, "[graph] merge_entries")?;
        out.extend(scan(
            graph,
            &entries,
            "D008",
            |h| h.kind == HazardKind::FloatAccum,
            "accumulates floats on a shard-merge path; summation order depends \
             on shard layout — accumulate in integers or fold in sorted order",
        ));
        out.extend(scan(
            graph,
            &entries,
            "D015",
            |h| h.kind == HazardKind::ShardIdent,
            "reads a shard/worker identity value on a merge path; merged \
             results would depend on worker layout — key the data on a \
             layout-independent value (global index, address, name)",
        ));
    }
    if !policy.step_entries.is_empty() {
        let entries = resolve_entries(graph, &policy.step_entries, "[graph] step_entries")?;
        out.extend(scan(
            graph,
            &entries,
            "D009",
            |h| h.kind == HazardKind::Blocking,
            "blocks the calling thread and is reachable from an event-machine \
             step; a stalled handler skews every virtual-time measurement \
             behind it — model the wait as a scheduled event instead",
        ));
    }
    if !policy.hot_entries.is_empty() {
        let entries = resolve_entries(graph, &policy.hot_entries, "[graph] hot_entries")?;
        out.extend(scan(
            graph,
            &entries,
            "D012",
            |h| h.kind == HazardKind::Alloc,
            "allocates on the telemetry hot path; the alloc-free per-probe \
             budget holds only if no reachable site touches the heap",
        ));
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
    Ok(out)
}

/// Map entry patterns (`doe_scanner::sweep::syn_sweep_sharded`,
/// `Do53TcpConn::query`) to node indices by suffix match on the
/// qualified name.
pub fn resolve_entries(
    graph: &CallGraph,
    patterns: &[String],
    what: &str,
) -> Result<Vec<usize>, String> {
    let mut out: Vec<usize> = Vec::new();
    for pat in patterns {
        let segs: Vec<&str> = pat.split("::").collect();
        let mut hits: Vec<usize> = Vec::new();
        for (i, n) in graph.nodes.iter().enumerate() {
            let mut full: Vec<&str> = vec![&n.crate_name];
            full.extend(n.module.iter().map(String::as_str));
            if let Some(o) = &n.owner {
                full.push(o);
            }
            full.push(&n.name);
            if full.len() >= segs.len() && full[full.len() - segs.len()..] == segs[..] {
                hits.push(i);
            }
        }
        if hits.is_empty() {
            return Err(format!(
                "lint.toml {what}: entry `{pat}` matches no function in \
                 the workspace call graph (renamed or removed?)"
            ));
        }
        out.extend(hits);
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// Deterministic BFS over the call graph: which nodes the entries reach,
/// and each reached node's predecessor on a shortest chain.
fn bfs(graph: &CallGraph, entries: &[usize]) -> (Vec<bool>, Vec<Option<usize>>) {
    let n = graph.nodes.len();
    let mut pred: Vec<Option<usize>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue: std::collections::VecDeque<usize> = entries.iter().copied().collect();
    for &e in entries {
        seen[e] = true;
    }
    while let Some(u) = queue.pop_front() {
        for &v in &graph.adj[u] {
            if !seen[v] {
                seen[v] = true;
                pred[v] = Some(u);
                queue.push_back(v);
            }
        }
    }
    (seen, pred)
}

/// BFS from `entries`; emit one finding per hazard site on a reached
/// node that passes `hazard_filter`.
fn scan(
    graph: &CallGraph,
    entries: &[usize],
    rule: &'static str,
    hazard_filter: impl Fn(&Hazard) -> bool,
    why: &str,
) -> Vec<ChainFinding> {
    let (seen, pred) = bfs(graph, entries);

    let mut out = Vec::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        if !seen[i] {
            continue;
        }
        for h in node.hazards.iter().filter(|h| hazard_filter(h)) {
            let chain = chain_to(graph, &pred, i);
            let rendered = chain
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>()
                .join(" -> ");
            out.push(ChainFinding {
                file: node.file.clone(),
                line: h.line,
                rule,
                message: format!("`{}` {why} [chain: {rendered}]", h.what),
                chain,
            });
        }
    }
    out
}

/// Walk the predecessor map back to an entry and render each hop.
fn chain_to(graph: &CallGraph, pred: &[Option<usize>], end: usize) -> Vec<String> {
    let mut hops: Vec<String> = Vec::new();
    let mut cur = end;
    let mut guard = 0usize;
    loop {
        let node = &graph.nodes[cur];
        hops.push(format!(
            "{} ({}:{})",
            node.qualified(),
            node.file,
            node.line
        ));
        match pred[cur] {
            Some(prev) if guard < graph.nodes.len() => {
                cur = prev;
                guard += 1;
            }
            _ => break,
        }
    }
    hops.reverse();
    hops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{build, SourceItems};
    use crate::lexer::lex;
    use crate::parser::parse_file;
    use crate::rules::test_mask;

    fn items(module: &[&str], src: &str) -> SourceItems {
        let lexed = lex(src);
        let mask = test_mask(&lexed.toks);
        let module: Vec<String> = module.iter().map(|s| s.to_string()).collect();
        let parsed = parse_file(&module, &lexed.toks, &mask);
        SourceItems {
            crate_key: "a".to_string(),
            crate_name: "a".to_string(),
            file: "crates/a/src/x.rs".to_string(),
            module: module.clone(),
            parsed,
        }
    }

    fn gp(proto: &[&str], merge: &[&str]) -> GraphPolicy {
        let v = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect();
        GraphPolicy {
            protocol_entries: v(proto),
            merge_entries: v(merge),
            ..GraphPolicy::default()
        }
    }

    fn step_hot(step: &[&str], hot: &[&str]) -> GraphPolicy {
        let v = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect();
        GraphPolicy {
            step_entries: v(step),
            hot_entries: v(hot),
            ..GraphPolicy::default()
        }
    }

    #[test]
    fn panic_two_calls_away_is_reported_with_chain() {
        let src = r#"
            pub fn entry(x: Option<u8>) { mid(x); }
            fn mid(x: Option<u8>) { leaf(x); }
            fn leaf(x: Option<u8>) -> u8 { x.unwrap() }
        "#;
        let g = build(&[items(&[], src)]);
        let f = check(&g, &gp(&["a::entry"], &[])).unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "D007");
        assert_eq!(f[0].line, 4);
        assert_eq!(f[0].chain.len(), 3);
        assert!(f[0].chain[0].starts_with("a::entry "));
        assert!(f[0].chain[2].starts_with("a::leaf "));
        assert!(f[0].message.contains("a::entry"));
    }

    #[test]
    fn unreachable_panics_stay_silent() {
        let src = r#"
            pub fn entry() {}
            fn elsewhere(x: Option<u8>) -> u8 { x.unwrap() }
        "#;
        let g = build(&[items(&[], src)]);
        let f = check(&g, &gp(&["a::entry"], &[])).unwrap();
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn float_accumulation_on_merge_path_is_caught() {
        let src = r#"
            pub struct Stats { total: f64 }
            impl Stats {
                pub fn absorb(&mut self, o: &Stats) { self.add(o.total); }
                fn add(&mut self, w: f64) { self.total += w; }
            }
        "#;
        let g = build(&[items(&[], src)]);
        let f = check(&g, &gp(&[], &["Stats::absorb"])).unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "D008");
        assert!(f[0].message.contains("+="));
    }

    #[test]
    fn stale_entry_is_a_hard_error() {
        let g = build(&[items(&[], "pub fn entry() {}")]);
        let err = check(&g, &gp(&["a::no_such_fn"], &[])).unwrap_err();
        assert!(err.contains("no_such_fn"));
    }

    #[test]
    fn stale_step_entry_is_a_hard_error() {
        let g = build(&[items(&[], "pub fn entry() {}")]);
        let err = check(&g, &step_hot(&["a::gone"], &[])).unwrap_err();
        assert!(err.contains("[graph] step_entries"), "{err}");
        assert!(err.contains("gone"));
    }

    #[test]
    fn blocking_reachable_from_step_is_d009() {
        let src = r#"
            pub struct M;
            impl M {
                pub fn on_event(&mut self) { helper(); }
            }
            fn helper() { std::thread::sleep(core::time::Duration::from_millis(1)); }
            fn unrelated() { std::thread::sleep(core::time::Duration::from_millis(1)); }
        "#;
        let g = build(&[items(&[], src)]);
        let f = check(&g, &step_hot(&["M::on_event"], &[])).unwrap();
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "D009");
        assert!(f[0].message.contains("thread::sleep"));
        assert_eq!(f[0].chain.len(), 2);
    }

    #[test]
    fn alloc_reachable_from_hot_entry_is_d012() {
        let src = r#"
            pub struct Registry;
            impl Registry {
                pub fn add(&mut self, v: u64) { self.render(v); }
                fn render(&mut self, v: u64) { let s = format!("{v}"); }
            }
        "#;
        let g = build(&[items(&[], src)]);
        let f = check(&g, &step_hot(&[], &["Registry::add"])).unwrap();
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "D012");
        assert!(f[0].message.contains("format!"));
    }

    #[test]
    fn shard_identity_read_on_merge_path_is_d015() {
        let src = r#"
            pub struct Stats;
            impl Stats {
                pub fn absorb(&mut self, o: &Stats) { self.key(o); }
                fn key(&mut self, o: &Stats) { let k = o.shard_id; }
            }
            pub fn unrelated(o: &Stats) { let k = o.shard_id; }
        "#;
        let g = build(&[items(&[], src)]);
        let f = check(&g, &gp(&[], &["Stats::absorb"])).unwrap();
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "D015");
        assert!(f[0].message.contains("shard_id"));
        assert_eq!(f[0].chain.len(), 2);
    }
}
