//! # doe-lint — determinism & hygiene analyzer
//!
//! The sharded measurement engine's headline guarantee is that results
//! are bit-identical for any shard count (see `DESIGN.md` §"Determinism
//! contract"). That guarantee is enforced here, mechanically, rather
//! than remembered: a dependency-free lexer walks every workspace crate
//! and flags constructs that would let wall-clock time, ambient entropy
//! or hash-iteration order leak into rendered tables and figures, and a
//! whole-workspace call graph (see [`graph`]) proves the transitive
//! properties a single file cannot show.
//!
//! Rules (see [`rules::RULES`]):
//!
//! * **D001** — no `std::time::{Instant, SystemTime}`, `thread_rng`,
//!   `rand::random` or `from_entropy` in library code.
//! * **D002** — no `HashMap`/`HashSet` in crates whose output reaches
//!   reports or merge paths.
//! * **D003** — no `println!`/`eprintln!` (or `print!`/`eprint!`/`dbg!`)
//!   in library code.
//! * **D004** — no `.unwrap()`/`.expect()` on protocol paths.
//! * **D005** — no narrowing `as` casts in address-space indexing.
//! * **D006** — no interior mutability (locks, cells, atomics,
//!   `thread_local!`, `static mut`) in library code, so a shard worker
//!   can mutate only what its own `Network` owns.
//! * **D007** — no panic site transitively reachable from the protocol
//!   entry points (interprocedural; the transitive closure of D004).
//! * **D008** — no float accumulation transitively reachable from the
//!   shard-merge entry points (interprocedural).
//! * **D009** — no blocking operation (sleeps, channel receives, real
//!   I/O) reachable from the event-machine step entry points
//!   (interprocedural).
//! * **D012** — no allocation site reachable from the telemetry
//!   hot-path entry points (interprocedural).
//! * **D015** — shard-identity independence: no shard/worker/thread
//!   identity value read on a path reachable from the shard-merge entry
//!   points (interprocedural).
//!
//! Each interprocedural rule is one breadth-first walk of the call graph
//! from its `[graph]` roots (see [`reach`]), and each finding carries the
//! call chain that reaches its hazard site. Bounded work on hostile wire
//! input is not an analyzer rule: the decoders' own tests feed them deep
//! and long input on a small worker stack.
//!
//! Scope comes from `lint.toml` at the workspace root; per-site escape
//! hatches are `// doe-lint: allow(D00x) — <reason>` pragmas with a
//! mandatory reason. A pragma that suppresses nothing is itself an error
//! (**P004**) — stale pragmas hide contract erosion. Binaries
//! (`src/bin/`, `main.rs`), `tests/`, `benches/`, `examples/` and
//! `#[cfg(test)]` items are exempt by construction.

pub mod graph;
pub mod lexer;
pub mod parser;
pub mod policy;
pub mod pragma;
pub mod reach;
pub mod report;
pub mod rules;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Diagnostic severity. Only errors exist today; the enum keeps the
/// JSON schema forward-compatible with advisory rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the run.
    Error,
}

/// One unsuppressed diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`D00x` contract rules, `P00x` pragma hygiene).
    pub rule: String,
    /// Explanation and remediation.
    pub message: String,
    /// Severity (always [`Severity::Error`] today).
    pub severity: Severity,
    /// For interprocedural rules: the call chain from an entry point to
    /// the hazard site, as `fn (file:line)` hops. Empty for token rules.
    pub chain: Vec<String>,
}

/// A finding that a pragma suppressed, kept for the audit trail.
#[derive(Debug, Clone)]
pub struct Suppressed {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the suppressed finding.
    pub line: u32,
    /// Rule id.
    pub rule: String,
    /// The pragma's mandatory justification.
    pub reason: String,
}

/// Outcome of a whole-workspace run.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings; non-empty means a failing run.
    pub findings: Vec<Finding>,
    /// Suppressed findings with their recorded reasons.
    pub suppressed: Vec<Suppressed>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the workspace satisfies the contract.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Outcome of linting a single source file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Unsuppressed findings (contract violations and pragma errors,
    /// including stale pragmas — P004).
    pub findings: Vec<Finding>,
    /// Suppressed findings.
    pub suppressed: Vec<Suppressed>,
}

/// A rule hit before pragma settlement.
struct RawHit {
    line: u32,
    rule: String,
    message: String,
    chain: Vec<String>,
}

/// Per-file pragma bookkeeping: parse errors, plus each pragma resolved
/// to the code line it governs.
struct PragmaSlots<'a> {
    parse_errors: Vec<Finding>,
    /// (governed line, pragma, used)
    targeted: Vec<(u32, &'a pragma::Pragma, bool)>,
    /// Pragma lines with no code line to govern.
    orphans: Vec<u32>,
}

fn pragma_slots<'a>(
    file: &str,
    pragmas: &'a [pragma::Pragma],
    pragma_errors: Vec<pragma::PragmaError>,
    test_lines: &BTreeSet<u32>,
    code_lines: &BTreeSet<u32>,
) -> PragmaSlots<'a> {
    let mut slots = PragmaSlots {
        parse_errors: Vec::new(),
        targeted: Vec::new(),
        orphans: Vec::new(),
    };
    for e in pragma_errors {
        if test_lines.contains(&e.line) {
            continue;
        }
        slots.parse_errors.push(Finding {
            file: file.to_string(),
            line: e.line,
            rule: e.rule.to_string(),
            message: e.message,
            severity: Severity::Error,
            chain: Vec::new(),
        });
    }
    // Resolve each pragma to the line it governs: its own line when code
    // shares it, otherwise the next line that carries code.
    for p in pragmas {
        if test_lines.contains(&p.line) {
            continue;
        }
        let target = if code_lines.contains(&p.line) {
            Some(p.line)
        } else {
            code_lines.range(p.line + 1..).next().copied()
        };
        match target {
            Some(t) => slots.targeted.push((t, p, false)),
            None => slots.orphans.push(p.line),
        }
    }
    slots
}

/// Match raw hits against pragma slots: suppressed or reported, then
/// stale pragmas become P004 findings.
fn settle(file: &str, raw: Vec<RawHit>, mut slots: PragmaSlots<'_>) -> FileOutcome {
    let mut out = FileOutcome {
        findings: slots.parse_errors.drain(..).collect(),
        suppressed: Vec::new(),
    };
    for hit in raw {
        let slot = slots
            .targeted
            .iter_mut()
            .find(|(line, p, _)| *line == hit.line && p.rules.contains(&hit.rule));
        match slot {
            Some((_, p, used)) => {
                *used = true;
                out.suppressed.push(Suppressed {
                    file: file.to_string(),
                    line: hit.line,
                    rule: hit.rule,
                    reason: p.reason.clone(),
                });
            }
            None => out.findings.push(Finding {
                file: file.to_string(),
                line: hit.line,
                rule: hit.rule,
                message: hit.message,
                severity: Severity::Error,
                chain: hit.chain,
            }),
        }
    }
    let stale = slots
        .orphans
        .iter()
        .copied()
        .chain(
            slots
                .targeted
                .iter()
                .filter(|(_, _, used)| !used)
                .map(|(_, p, _)| p.line),
        )
        .collect::<BTreeSet<u32>>();
    for line in stale {
        out.findings.push(Finding {
            file: file.to_string(),
            line,
            rule: "P004".to_string(),
            message: "doe-lint pragma suppresses nothing — delete it, or fix its \
                      rule list to match the finding it is meant to cover"
                .to_string(),
            severity: Severity::Error,
            chain: Vec::new(),
        });
    }
    out.findings
        .sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    out
}

/// Lint one source text under the given token rules. `file` is used only
/// for labelling findings. Interprocedural rules need the whole
/// workspace — see [`analyze_workspace`].
pub fn lint_source(file: &str, src: &str, enabled: &[String]) -> FileOutcome {
    let lexed = lexer::lex(src);
    let mask = rules::test_mask(&lexed.toks);
    let test_lines: BTreeSet<u32> = lexed
        .toks
        .iter()
        .zip(&mask)
        .filter(|(_, m)| **m)
        .map(|(t, _)| t.line)
        .collect();
    let code_lines: BTreeSet<u32> = lexed.toks.iter().map(|t| t.line).collect();
    let (pragmas, pragma_errors) = pragma::parse(&lexed.comments);
    let slots = pragma_slots(file, &pragmas, pragma_errors, &test_lines, &code_lines);
    let raw = rules::scan(&lexed.toks, &mask, |r| enabled.iter().any(|e| e == r))
        .into_iter()
        .map(|f| RawHit {
            line: f.line,
            rule: f.rule.to_string(),
            message: f.message,
            chain: Vec::new(),
        })
        .collect();
    settle(file, raw, slots)
}

/// A library source file selected for analysis.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Policy key: directory name under `crates/`, or `root` for the
    /// workspace's umbrella package.
    pub crate_key: String,
    /// Path relative to the crate root (`src/net.rs`).
    pub rel_path: String,
    /// Path relative to the workspace root (for display).
    pub display_path: String,
    /// Absolute path on disk.
    pub abs_path: PathBuf,
}

/// Discover the library sources of every workspace crate, in a stable
/// order. Binaries, tests, benches and examples are excluded — the
/// contract governs code whose effects reach merged, rendered output.
pub fn discover(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    let mut crate_dirs: Vec<(String, PathBuf)> = vec![("root".to_string(), root.to_path_buf())];
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut names: Vec<String> = Vec::new();
        for entry in fs::read_dir(&crates)? {
            let entry = entry?;
            if entry.path().is_dir() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        for name in names {
            let dir = crates.join(&name);
            crate_dirs.push((name, dir));
        }
    }
    for (key, dir) in crate_dirs {
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs(&src, &mut files)?;
        files.sort();
        for abs in files {
            let name = abs.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "main.rs" || name == "build.rs" {
                continue;
            }
            let rel = abs.strip_prefix(&dir).unwrap_or(&abs);
            if rel.components().any(|c| c.as_os_str() == "bin") {
                continue;
            }
            let display = abs.strip_prefix(root).unwrap_or(&abs);
            out.push(SourceFile {
                crate_key: key.clone(),
                rel_path: path_to_slash(rel),
                display_path: path_to_slash(display),
                abs_path: abs,
            });
        }
    }
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn path_to_slash(p: &Path) -> String {
    p.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// The module path a library file contributes: `src/lib.rs` → ``[]``,
/// `src/sweep.rs` → `["sweep"]`, `src/a/mod.rs` → `["a"]`,
/// `src/a/b.rs` → `["a", "b"]`.
pub fn module_of(rel_path: &str) -> Vec<String> {
    let mut segs: Vec<&str> = rel_path.split('/').collect();
    if segs.first() == Some(&"src") {
        segs.remove(0);
    }
    let Some(last) = segs.pop() else {
        return Vec::new();
    };
    let stem = last.strip_suffix(".rs").unwrap_or(last);
    let mut out: Vec<String> = segs.iter().map(|s| s.to_string()).collect();
    if stem != "lib" && stem != "mod" {
        out.push(stem.to_string());
    }
    out
}

/// Library names of every workspace crate, from each `Cargo.toml`:
/// `[lib] name` when present, else the package name with `-` → `_`.
pub fn crate_lib_names(root: &Path) -> io::Result<BTreeMap<String, String>> {
    let mut out = BTreeMap::new();
    let mut dirs: Vec<(String, PathBuf)> = vec![("root".to_string(), root.to_path_buf())];
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            let entry = entry?;
            if entry.path().is_dir() {
                dirs.push((
                    entry.file_name().to_string_lossy().into_owned(),
                    entry.path(),
                ));
            }
        }
    }
    for (key, dir) in dirs {
        let manifest = dir.join("Cargo.toml");
        let Ok(text) = fs::read_to_string(&manifest) else {
            continue;
        };
        out.insert(key, lib_name_from_manifest(&text));
    }
    Ok(out)
}

fn lib_name_from_manifest(text: &str) -> String {
    let mut section = String::new();
    let mut package = String::new();
    let mut lib = String::new();
    for raw in text.lines() {
        let line = raw.trim();
        if let Some(inner) = line.strip_prefix('[') {
            section = inner.trim_end_matches(']').to_string();
            continue;
        }
        if let Some((k, v)) = line.split_once('=') {
            if k.trim() == "name" {
                let v = v.trim().trim_matches('"').to_string();
                match section.as_str() {
                    "package" => package = v,
                    "lib" => lib = v,
                    _ => {}
                }
            }
        }
    }
    if !lib.is_empty() {
        lib
    } else {
        package.replace('-', "_")
    }
}

/// A loaded source file ready for analysis.
#[derive(Debug)]
pub struct LoadedFile {
    /// Where the file lives.
    pub file: SourceFile,
    /// Its full text.
    pub src: String,
}

/// Result of a whole-workspace analysis: the report plus the call graph
/// it was proved against.
#[derive(Debug)]
pub struct Analysis {
    /// Findings, suppressions and counts.
    pub report: Report,
    /// The workspace call graph (for `--graph` / `callgraph.json`).
    pub graph: graph::CallGraph,
}

/// Analyze loaded sources: token rules per file, then the call-graph
/// rules across all of them. `crate_names` maps policy keys to library
/// names (see [`crate_lib_names`]). Fails on configuration errors —
/// a `[graph]` entry that matches no function.
pub fn analyze(
    files: &[LoadedFile],
    policy: &policy::Policy,
    crate_names: &BTreeMap<String, String>,
) -> Result<Analysis, String> {
    struct Prepped<'a> {
        file: &'a SourceFile,
        slots_pragmas: Vec<pragma::Pragma>,
        slots_errors: Vec<pragma::PragmaError>,
        test_lines: BTreeSet<u32>,
        code_lines: BTreeSet<u32>,
        raw: Vec<RawHit>,
    }

    let mut prepped: Vec<Prepped<'_>> = Vec::new();
    let mut graph_sources: Vec<graph::SourceItems> = Vec::new();
    for lf in files {
        let enabled = policy.rules_for(&lf.file.crate_key, &lf.file.rel_path);
        let lexed = lexer::lex(&lf.src);
        let mask = rules::test_mask(&lexed.toks);
        let test_lines: BTreeSet<u32> = lexed
            .toks
            .iter()
            .zip(&mask)
            .filter(|(_, m)| **m)
            .map(|(t, _)| t.line)
            .collect();
        let code_lines: BTreeSet<u32> = lexed.toks.iter().map(|t| t.line).collect();
        let (pragmas, pragma_errors) = pragma::parse(&lexed.comments);
        let raw = rules::scan(&lexed.toks, &mask, |r| enabled.iter().any(|e| e == r))
            .into_iter()
            .map(|f| RawHit {
                line: f.line,
                rule: f.rule.to_string(),
                message: f.message,
                chain: Vec::new(),
            })
            .collect();
        let module = module_of(&lf.file.rel_path);
        let crate_name = crate_names
            .get(&lf.file.crate_key)
            .cloned()
            .unwrap_or_else(|| lf.file.crate_key.clone());
        let parsed = parser::parse_file(&module, &lexed.toks, &mask);
        graph_sources.push(graph::SourceItems {
            crate_key: lf.file.crate_key.clone(),
            crate_name,
            file: lf.file.display_path.clone(),
            module: module.clone(),
            parsed,
        });
        prepped.push(Prepped {
            file: &lf.file,
            slots_pragmas: pragmas,
            slots_errors: pragma_errors,
            test_lines,
            code_lines,
            raw,
        });
    }

    let callgraph = graph::build(&graph_sources);
    let chain_findings = reach::check(&callgraph, &policy.graph)?;
    let mut per_file: BTreeMap<String, Vec<RawHit>> = BTreeMap::new();
    for f in chain_findings {
        per_file.entry(f.file.clone()).or_default().push(RawHit {
            line: f.line,
            rule: f.rule.to_string(),
            message: f.message,
            chain: f.chain,
        });
    }

    let mut report = Report::default();
    for p in prepped {
        let display = p.file.display_path.as_str();
        let mut raw = p.raw;
        if let Some(extra) = per_file.remove(display) {
            raw.extend(extra);
        }
        let slots = pragma_slots(
            display,
            &p.slots_pragmas,
            p.slots_errors,
            &p.test_lines,
            &p.code_lines,
        );
        let outcome = settle(display, raw, slots);
        report.findings.extend(outcome.findings);
        report.suppressed.extend(outcome.suppressed);
        report.files_scanned += 1;
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    report
        .suppressed
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok(Analysis {
        report,
        graph: callgraph,
    })
}

/// Load and analyze every library source under `root` with `policy`.
pub fn analyze_workspace(root: &Path, policy: &policy::Policy) -> io::Result<Analysis> {
    let mut files = Vec::new();
    for file in discover(root)? {
        let src = fs::read_to_string(&file.abs_path)?;
        files.push(LoadedFile { file, src });
    }
    let crate_names = crate_lib_names(root)?;
    analyze(&files, policy, &crate_names).map_err(io::Error::other)
}

/// Lint every library source under `root` with `policy`.
pub fn lint_workspace(root: &Path, policy: &policy::Policy) -> io::Result<Report> {
    Ok(analyze_workspace(root, policy)?.report)
}

/// Locate the workspace root by walking upward from `start` until a
/// directory containing `lint.toml` appears.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        if dir.join("lint.toml").is_file() {
            return Some(dir.to_path_buf());
        }
        cur = dir.parent();
    }
    None
}
