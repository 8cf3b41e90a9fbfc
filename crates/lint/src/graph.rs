//! The workspace call graph.
//!
//! Nodes are the non-test `fn` items the parser extracted; edges come
//! from resolving each call expression against the workspace. Resolution
//! is module-path and `use`-alias aware and chases crate-root re-exports
//! (`netsim::mix_seed` → `netsim::net::mix_seed`); method calls resolve
//! conservatively to **every** workspace method of that name (narrowed
//! to the enclosing impl for `self.` receivers), so reachability over
//! the graph over-approximates the dynamic call relation — a verdict of
//! "unreachable" is trustworthy, a verdict of "reachable" names a chain
//! that must be either fixed or justified with a pragma.
//!
//! Everything here iterates in sorted orders over index-stable inputs,
//! so the graph — and its JSON rendering — is byte-identical across
//! runs.

use crate::parser::{Call, Hazard, HazardKind, ParsedFile};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Parsed items of one source file, tagged with where they live.
#[derive(Debug)]
pub struct SourceItems {
    /// Policy key (directory under `crates/`, or `root`).
    pub crate_key: String,
    /// The crate's library name (`doe_scanner`), as paths reference it.
    pub crate_name: String,
    /// Workspace-relative display path.
    pub file: String,
    /// Module path the file contributes (`src/a/b.rs` → `["a", "b"]`).
    pub module: Vec<String>,
    /// The parser's output for this file.
    pub parsed: ParsedFile,
}

/// One function in the graph.
#[derive(Debug)]
pub struct FnNode {
    /// Policy key of the owning crate.
    pub crate_key: String,
    /// Library name of the owning crate.
    pub crate_name: String,
    /// Module path within the crate (file modules + inline `mod`s).
    pub module: Vec<String>,
    /// Enclosing impl self-type or trait name, if any.
    pub owner: Option<String>,
    /// Function name.
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Hazard sites in the body.
    pub hazards: Vec<Hazard>,
    /// Declared parameter count (`self` excluded) — lets method-call
    /// resolution drop same-name candidates whose signature cannot
    /// match the call site.
    pub arity: usize,
}

impl FnNode {
    /// Fully qualified display name (`doe_scanner::sweep::syn_sweep_sharded`).
    pub fn qualified(&self) -> String {
        let mut parts: Vec<&str> = vec![&self.crate_name];
        parts.extend(self.module.iter().map(String::as_str));
        if let Some(o) = &self.owner {
            parts.push(o);
        }
        parts.push(&self.name);
        parts.join("::")
    }
}

/// One resolved call edge. `line` is the call site.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Caller node index.
    pub from: usize,
    /// Callee node index.
    pub to: usize,
    /// 1-based call-site line (in the caller's file).
    pub line: u32,
}

/// The whole-workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Nodes, in (file, line) order — index-stable across runs.
    pub nodes: Vec<FnNode>,
    /// Edges, sorted by (from, to), deduplicated to one edge per pair
    /// (the earliest call site).
    pub edges: Vec<Edge>,
    /// Adjacency: `adj[from]` lists the callees in sorted order.
    pub adj: Vec<Vec<usize>>,
}

/// Build the graph from every file's parsed items.
pub fn build(sources: &[SourceItems]) -> CallGraph {
    let mut nodes: Vec<FnNode> = Vec::new();
    let mut calls: Vec<Vec<Call>> = Vec::new();
    // Aliases per (crate_key, module path): alias → target segments.
    let mut aliases: BTreeMap<(String, String), BTreeMap<String, Vec<String>>> = BTreeMap::new();
    let mut crate_names: BTreeSet<String> = BTreeSet::new();
    let mut name_to_key: BTreeMap<String, String> = BTreeMap::new();

    for s in sources {
        crate_names.insert(s.crate_name.clone());
        name_to_key.insert(s.crate_name.clone(), s.crate_key.clone());
        for u in &s.parsed.uses {
            aliases
                .entry((s.crate_key.clone(), u.module.join("::")))
                .or_default()
                .insert(u.alias.clone(), u.target.clone());
        }
        for f in &s.parsed.fns {
            if f.is_test {
                continue;
            }
            nodes.push(FnNode {
                crate_key: s.crate_key.clone(),
                crate_name: s.crate_name.clone(),
                module: f.module.clone(),
                owner: f.owner.clone(),
                name: f.name.clone(),
                file: s.file.clone(),
                line: f.line,
                hazards: f.hazards.clone(),
                arity: f.arity,
            });
            calls.push(f.calls.clone());
        }
    }

    // Lookup indexes. Keys are owned strings for simplicity; the graph is
    // built once per run.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_owner: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut exact: BTreeMap<(&str, String, &str, &str), Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        by_name.entry(&n.name).or_default().push(i);
        if let Some(o) = &n.owner {
            by_owner.entry((o, &n.name)).or_default().push(i);
        }
        exact
            .entry((
                &n.crate_name,
                n.module.join("::"),
                n.owner.as_deref().unwrap_or(""),
                &n.name,
            ))
            .or_default()
            .push(i);
    }

    let ctx = Resolver {
        nodes: &nodes,
        by_name: &by_name,
        by_owner: &by_owner,
        exact: &exact,
        aliases: &aliases,
        crate_names: &crate_names,
        name_to_key: &name_to_key,
    };

    let mut edges: Vec<Edge> = Vec::new();
    for (from, node_calls) in calls.iter().enumerate() {
        for call in node_calls {
            for to in ctx.resolve(&nodes[from], call) {
                edges.push(Edge {
                    from,
                    to,
                    line: call.line,
                });
            }
        }
    }
    // One edge per (from, to): the earliest call site wins.
    edges.sort_by_key(|e| (e.from, e.to, e.line));
    edges.dedup_by_key(|e| (e.from, e.to));

    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for e in &edges {
        adj[e.from].push(e.to);
    }

    CallGraph { nodes, edges, adj }
}

struct Resolver<'a> {
    nodes: &'a [FnNode],
    by_name: &'a BTreeMap<&'a str, Vec<usize>>,
    by_owner: &'a BTreeMap<(&'a str, &'a str), Vec<usize>>,
    exact: &'a BTreeMap<(&'a str, String, &'a str, &'a str), Vec<usize>>,
    aliases: &'a BTreeMap<(String, String), BTreeMap<String, Vec<String>>>,
    crate_names: &'a BTreeSet<String>,
    name_to_key: &'a BTreeMap<String, String>,
}

impl<'a> Resolver<'a> {
    /// Resolve one call to the node indices it may reach: a path
    /// anchored through modules/aliases, else the suffix fallback.
    fn resolve(&self, from: &FnNode, call: &Call) -> Vec<usize> {
        if call.method {
            return self.resolve_method(from, call);
        }
        let mut out = self.resolve_path(
            &from.crate_key,
            &from.crate_name,
            &from.module,
            &call.path,
            0,
        );
        if out.is_empty() {
            out = self.resolve_suffix(&from.crate_name, &call.path);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// `.name(...)`: every workspace method of that name; a literal
    /// `self.` receiver narrows to the enclosing impl when it defines
    /// the method (otherwise the call targets a field or a trait method
    /// provided elsewhere — fall through to the broad set). When the
    /// call site's argument count is known, candidates whose declared
    /// arity cannot match are dropped — unless that would empty the set
    /// (default arguments don't exist, but macros and `impl Trait`
    /// receivers keep the fallback honest).
    fn resolve_method(&self, from: &FnNode, call: &Call) -> Vec<usize> {
        let name = call.path.last().map(String::as_str).unwrap_or("");
        if call.via_self {
            if let Some(owner) = &from.owner {
                if let Some(own) = self.by_owner.get(&(owner.as_str(), name)) {
                    return self.narrow_arity(own.clone(), call.arity);
                }
            }
        }
        let mut out: Vec<usize> = Vec::new();
        for ((_, n), idxs) in self.by_owner.iter() {
            if *n == name {
                out.extend_from_slice(idxs);
            }
        }
        out.sort_unstable();
        out.dedup();
        self.narrow_arity(out, call.arity)
    }

    /// Keep candidates whose declared arity matches the call site's
    /// argument count; fall back to the full set rather than dropping
    /// edges the parser merely failed to count.
    fn narrow_arity(&self, cands: Vec<usize>, arity: Option<usize>) -> Vec<usize> {
        let Some(a) = arity else { return cands };
        let narrowed: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| self.nodes[i].arity == a)
            .collect();
        if narrowed.is_empty() {
            cands
        } else {
            narrowed
        }
    }

    /// Resolve a `::` path relative to (`crate_key`, `module`). `depth`
    /// bounds alias/re-export chasing.
    fn resolve_path(
        &self,
        crate_key: &str,
        crate_name: &str,
        module: &[String],
        path: &[String],
        depth: u8,
    ) -> Vec<usize> {
        if depth > 4 || path.is_empty() {
            return Vec::new();
        }
        let head = path[0].as_str();

        // `crate::` / `self::` / `super::` anchors.
        if head == "crate" {
            return self.in_crate(crate_key, crate_name, &[], &path[1..], depth);
        }
        if head == "self" {
            return self.in_crate(crate_key, crate_name, module, &path[1..], depth);
        }
        if head == "super" {
            let up = module.len().saturating_sub(1);
            return self.resolve_path(crate_key, crate_name, &module[..up], &path[1..], depth);
        }

        // A `use` alias in the calling module (or the crate root) rewrites
        // the head: `use crate::permutation::PermutationShard;` makes
        // `PermutationShard::new` mean `crate::permutation::…::new`.
        for scope in [module.join("::"), String::new()] {
            if let Some(map) = self.aliases.get(&(crate_key.to_string(), scope)) {
                if let Some(target) = map.get(head) {
                    if target.first().map(String::as_str) != Some(head) || target.len() > 1 {
                        let mut full = target.clone();
                        full.extend_from_slice(&path[1..]);
                        let hit =
                            self.resolve_path(crate_key, crate_name, module, &full, depth + 1);
                        if !hit.is_empty() {
                            return hit;
                        }
                    }
                }
            }
        }

        // Another workspace crate by library name.
        if self.crate_names.contains(head) {
            let key = self.name_to_key.get(head).cloned().unwrap_or_default();
            return self.in_crate(&key, head, &[], &path[1..], depth);
        }

        // Unanchored path: try relative to the calling module, then the
        // crate root (2015-style absolute paths and glob-imported mods).
        let rel = self.in_crate(crate_key, crate_name, module, path, depth);
        if !rel.is_empty() {
            return rel;
        }
        self.in_crate(crate_key, crate_name, &[], path, depth)
    }

    /// Resolve `segs` as an item of `crate_name` under module `base`:
    /// either `mods… :: fn` or `mods… :: Type :: method`, then through
    /// the target crate's root re-exports.
    fn in_crate(
        &self,
        crate_key: &str,
        crate_name: &str,
        base: &[String],
        segs: &[String],
        depth: u8,
    ) -> Vec<usize> {
        if segs.is_empty() {
            return Vec::new();
        }
        let (mods, name) = segs.split_at(segs.len() - 1);
        let name = name[0].as_str();
        let mut module: Vec<String> = base.to_vec();

        // Free function: all leading segments are modules.
        module.extend(mods.iter().cloned());
        if let Some(hit) = self.exact.get(&(crate_name, module.join("::"), "", name)) {
            return hit.clone();
        }
        // Associated function: the last leading segment is a type.
        if let Some((ty, mods)) = mods.split_last() {
            let mut module: Vec<String> = base.to_vec();
            module.extend(mods.iter().cloned());
            if let Some(hit) = self
                .exact
                .get(&(crate_name, module.join("::"), ty.as_str(), name))
            {
                return hit.clone();
            }
        }
        // Crate-root re-export: `pub use net::mix_seed;` in lib.rs lets
        // `netsim::mix_seed` resolve even though the item lives in `net`.
        if base.is_empty() {
            if let Some(map) = self.aliases.get(&(crate_key.to_string(), String::new())) {
                if let Some(target) = map.get(segs[0].as_str()) {
                    let mut full = target.clone();
                    full.extend_from_slice(&segs[1..]);
                    if full != segs {
                        return self.resolve_path(crate_key, crate_name, &[], &full, depth + 1);
                    }
                }
            }
        }
        Vec::new()
    }

    /// Last resort for paths no anchor resolves (glob imports, method
    /// calls through type aliases): match `Type::name` against every
    /// workspace impl, or a bare name against free functions of the
    /// calling crate.
    fn resolve_suffix(&self, crate_name: &str, path: &[String]) -> Vec<usize> {
        if path.len() >= 2 {
            let ty = path[path.len() - 2].as_str();
            let name = path[path.len() - 1].as_str();
            if ty.chars().next().is_some_and(char::is_uppercase) {
                if let Some(hit) = self.by_owner.get(&(ty, name)) {
                    return hit.clone();
                }
            }
            return Vec::new();
        }
        let name = path[0].as_str();
        self.by_name
            .get(name)
            .map(|idxs| {
                idxs.iter()
                    .copied()
                    .filter(|&i| {
                        self.nodes[i].crate_name == crate_name && self.nodes[i].owner.is_none()
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Render the graph as deterministic JSON (the `results/callgraph.json`
/// artifact). Node order is build order; edges are sorted.
pub fn to_json(g: &CallGraph) -> String {
    let mut out = String::from("{\n  \"version\": 3,\n  \"nodes\": [");
    for (i, n) in g.nodes.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"id\": {i}, \"fn\": \"{}\", \"file\": \"{}\", \"line\": {}",
            crate::report::esc(&n.qualified()),
            crate::report::esc(&n.file),
            n.line,
        );
        if n.hazards.is_empty() {
            out.push('}');
        } else {
            out.push_str(", \"hazards\": [");
            for (j, h) in n.hazards.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(
                    out,
                    "{sep}{{\"kind\": \"{}\", \"what\": \"{}\", \"line\": {}}}",
                    hazard_kind(h.kind),
                    crate::report::esc(&h.what),
                    h.line
                );
            }
            out.push_str("]}");
        }
    }
    out.push_str("\n  ],\n  \"edges\": [");
    for (i, e) in g.edges.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    [{}, {}, {}]", e.from, e.to, e.line);
    }
    let _ = write!(
        out,
        "\n  ],\n  \"summary\": {{\"nodes\": {}, \"edges\": {}}}\n}}\n",
        g.nodes.len(),
        g.edges.len()
    );
    out
}

/// Stable string for a hazard kind.
pub fn hazard_kind(k: HazardKind) -> &'static str {
    match k {
        HazardKind::Panic => "panic",
        HazardKind::FloatAccum => "float_accum",
        HazardKind::Blocking => "blocking",
        HazardKind::Alloc => "alloc",
        HazardKind::ShardIdent => "shard_ident",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;
    use crate::rules::test_mask;

    fn items(crate_key: &str, crate_name: &str, module: &[&str], src: &str) -> SourceItems {
        let lexed = lex(src);
        let mask = test_mask(&lexed.toks);
        let module: Vec<String> = module.iter().map(|s| s.to_string()).collect();
        SourceItems {
            crate_key: crate_key.to_string(),
            crate_name: crate_name.to_string(),
            file: format!("crates/{crate_key}/src/x.rs"),
            module: module.clone(),
            parsed: parse_file(&module, &lexed.toks, &mask),
        }
    }

    fn edge_names(g: &CallGraph) -> Vec<(String, String)> {
        g.edges
            .iter()
            .map(|e| (g.nodes[e.from].qualified(), g.nodes[e.to].qualified()))
            .collect()
    }

    #[test]
    fn same_module_bare_calls_link() {
        let g = build(&[items(
            "a",
            "a",
            &["m"],
            "fn top() { helper(); } fn helper() {}",
        )]);
        assert_eq!(
            edge_names(&g),
            vec![("a::m::top".to_string(), "a::m::helper".to_string())]
        );
    }

    #[test]
    fn cross_crate_calls_resolve_through_use_aliases() {
        let lib = items("netsim", "netsim", &[], "pub use net::mix_seed;");
        let net = items(
            "netsim",
            "netsim",
            &["net"],
            "pub fn mix_seed(s: u64) -> u64 { s }",
        );
        let user = items(
            "scanner",
            "doe_scanner",
            &["sweep"],
            "use netsim::mix_seed;\nfn go() { mix_seed(1); netsim::mix_seed(2); }",
        );
        let g = build(&[lib, net, user]);
        let edges = edge_names(&g);
        assert_eq!(
            edges,
            vec![(
                "doe_scanner::sweep::go".to_string(),
                "netsim::net::mix_seed".to_string()
            )]
        );
    }

    #[test]
    fn method_calls_over_approximate_and_self_narrows() {
        let src = r#"
            struct A;
            struct B;
            impl A {
                fn run(&self) { self.step(); }
                fn step(&self) {}
            }
            impl B {
                fn step(&self) {}
                fn kick(&self, a: &A) { a.step(); }
            }
        "#;
        let g = build(&[items("a", "a", &[], src)]);
        let edges = edge_names(&g);
        // self.step() narrows to A::step only.
        assert!(edges.contains(&("a::A::run".to_string(), "a::A::step".to_string())));
        assert!(!edges.contains(&("a::A::run".to_string(), "a::B::step".to_string())));
        // a.step() through a non-self receiver hits every `step` method.
        assert!(edges.contains(&("a::B::kick".to_string(), "a::A::step".to_string())));
        assert!(edges.contains(&("a::B::kick".to_string(), "a::B::step".to_string())));
    }

    #[test]
    fn type_method_paths_resolve_exactly() {
        let a = items(
            "a",
            "a",
            &["perm"],
            "pub struct Shard; impl Shard { pub fn new() -> Shard { Shard } }",
        );
        let b = items("a", "a", &["run"], "fn go() { crate::perm::Shard::new(); }");
        let g = build(&[a, b]);
        assert_eq!(
            edge_names(&g),
            vec![("a::run::go".to_string(), "a::perm::Shard::new".to_string())]
        );
    }

    #[test]
    fn arity_narrows_same_name_methods() {
        let src = r#"
            struct H;
            struct R;
            impl H {
                fn observe(&mut self, v: u64) {}
            }
            impl R {
                fn observe(&mut self, k: u8, v: u64) {}
            }
            fn go(h: &mut H) { h.observe(5); }
        "#;
        let g = build(&[items("a", "a", &[], src)]);
        let edges = edge_names(&g);
        assert!(edges.contains(&("a::go".to_string(), "a::H::observe".to_string())));
        assert!(
            !edges.contains(&("a::go".to_string(), "a::R::observe".to_string())),
            "{edges:?}"
        );
    }

    #[test]
    fn unknown_arity_keeps_the_full_candidate_set() {
        // A generic argument defeats comma counting; the resolver must
        // keep over-approximating rather than dropping edges.
        let src = r#"
            struct H;
            struct R;
            impl H {
                fn observe(&mut self, v: u64) {}
            }
            impl R {
                fn observe(&mut self, k: u8, v: u64) {}
            }
            fn go(h: &mut H) { h.observe(id::<u64>(5)); }
        "#;
        let g = build(&[items("a", "a", &[], src)]);
        let edges = edge_names(&g);
        assert!(edges.contains(&("a::go".to_string(), "a::H::observe".to_string())));
        assert!(edges.contains(&("a::go".to_string(), "a::R::observe".to_string())));
    }

    #[test]
    fn test_functions_are_not_nodes() {
        let src = r#"
            fn lib() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { lib(); }
            }
        "#;
        let g = build(&[items("a", "a", &[], src)]);
        assert_eq!(g.nodes.len(), 1);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn json_is_deterministic() {
        let mk = || {
            build(&[items(
                "a",
                "a",
                &[],
                "fn f() { g(); rx.recv(); } fn g() { x.unwrap(); }",
            )])
        };
        let one = to_json(&mk());
        let two = to_json(&mk());
        assert_eq!(one, two);
        assert!(one.contains("\"blocking\""));
        assert!(one.contains("\"panic\""));
    }
}
