//! Per-crate policy from `lint.toml`.
//!
//! The build is offline and the analyzer dependency-free, so this is a
//! hand-rolled parser for the small TOML subset the policy needs:
//! `[section.path."quoted segment"]` headers and `key = [array, of,
//! strings]` assignments. Anything else is a hard error — a policy file
//! that silently half-parses would be worse than none.

use std::collections::BTreeMap;

/// Resolved lint policy.
#[derive(Debug, Clone, Default)]
pub struct Policy {
    /// Rules applied to crates without an explicit entry.
    pub default_rules: Vec<String>,
    /// Per-crate overrides, keyed by directory name under `crates/`
    /// (the workspace root package uses the key `root`).
    pub crates: BTreeMap<String, CratePolicy>,
    /// Entry points for the interprocedural rules (`[graph]` section).
    pub graph: GraphPolicy,
}

/// Entry-point sets for the call-graph rules. Each entry is a `::`
/// suffix of a qualified function name (`dnswire::view::MessageView::
/// parse`, `Do53TcpConn::query`); an entry matching nothing is a hard
/// configuration error. Empty sets disable the rule.
#[derive(Debug, Clone, Default)]
pub struct GraphPolicy {
    /// D007 roots: the protocol query APIs.
    pub protocol_entries: Vec<String>,
    /// D008 and D015 roots: the shard-merge operations — no float
    /// accumulation and no shard/worker/thread identity read may be
    /// reachable.
    pub merge_entries: Vec<String>,
    /// D009 roots: the event-machine step implementations — no blocking
    /// operation may be reachable.
    pub step_entries: Vec<String>,
    /// D012 roots: the telemetry hot-path entry points — no allocation
    /// site may be reachable.
    pub hot_entries: Vec<String>,
}

/// Policy for one crate.
#[derive(Debug, Clone, Default)]
pub struct CratePolicy {
    /// Replaces the default rule set when present.
    pub rules: Option<Vec<String>>,
    /// Extra rules for specific files, keyed by path relative to the
    /// crate root (e.g. `src/net.rs`).
    pub file_rules: BTreeMap<String, Vec<String>>,
}

impl Policy {
    /// Parse a `lint.toml` document.
    pub fn parse(text: &str) -> Result<Policy, String> {
        let mut policy = Policy::default();
        let mut section: Vec<String> = Vec::new();
        let mut lines = text.lines().enumerate();
        while let Some((lineno, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| format!("lint.toml:{}: {msg}", lineno + 1);
            if let Some(inner) = line.strip_prefix('[') {
                let Some(inner) = inner.strip_suffix(']') else {
                    return Err(err("unterminated section header"));
                };
                section = split_path(inner).map_err(|m| err(&m))?;
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err("expected `key = value`"));
            };
            let key = key.trim().to_string();
            // A `[` without its closing `]` on the same line starts a
            // multi-line array: accumulate until the bracket closes.
            let mut value = value.trim().to_string();
            while value.starts_with('[') && !value.ends_with(']') {
                let Some((_, cont)) = lines.next() else {
                    return Err(err("unterminated multi-line array"));
                };
                value.push_str(strip_comment(cont).trim());
            }
            let value = parse_string_array(&value).map_err(|m| err(&m))?;
            policy.apply(&section, &key, value).map_err(|m| err(&m))?;
        }
        Ok(policy)
    }

    fn apply(&mut self, section: &[String], key: &str, value: Vec<String>) -> Result<(), String> {
        let segs: Vec<&str> = section.iter().map(String::as_str).collect();
        match (segs.as_slice(), key) {
            (["default"], "rules") => self.default_rules = value,
            (["graph"], "protocol_entries") => self.graph.protocol_entries = value,
            (["graph"], "merge_entries") => self.graph.merge_entries = value,
            (["graph"], "step_entries") => self.graph.step_entries = value,
            (["graph"], "hot_entries") => self.graph.hot_entries = value,
            (["crates", name], "rules") => {
                self.crates.entry(name.to_string()).or_default().rules = Some(value);
            }
            (["crates", name, "files", path], "rules") => {
                self.crates
                    .entry(name.to_string())
                    .or_default()
                    .file_rules
                    .insert(path.to_string(), value);
            }
            _ => {
                return Err(format!(
                    "unrecognized policy entry `[{}] {key}`",
                    section.join(".")
                ))
            }
        }
        Ok(())
    }

    /// The rule ids in force for `rel_path` (relative to the crate root)
    /// inside crate `crate_key`.
    pub fn rules_for(&self, crate_key: &str, rel_path: &str) -> Vec<String> {
        let entry = self.crates.get(crate_key);
        let mut rules = entry
            .and_then(|c| c.rules.clone())
            .unwrap_or_else(|| self.default_rules.clone());
        if let Some(extra) = entry.and_then(|c| c.file_rules.get(rel_path)) {
            for r in extra {
                if !rules.contains(r) {
                    rules.push(r.clone());
                }
            }
        }
        rules
    }
}

/// Drop a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Split a dotted section path, honouring quoted segments that may
/// themselves contain dots (`crates.netsim.files."src/net.rs"`).
fn split_path(s: &str) -> Result<Vec<String>, String> {
    let mut segs = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '.' if !in_str => {
                if cur.trim().is_empty() {
                    return Err("empty section path segment".to_string());
                }
                segs.push(cur.trim().to_string());
                cur = String::new();
            }
            _ => cur.push(c),
        }
    }
    if in_str {
        return Err("unterminated quoted segment in section header".to_string());
    }
    if cur.trim().is_empty() {
        return Err("empty section path segment".to_string());
    }
    segs.push(cur.trim().to_string());
    Ok(segs)
}

/// Parse `["a", "b"]` into a vector of strings.
fn parse_string_array(s: &str) -> Result<Vec<String>, String> {
    let Some(inner) = s.strip_prefix('[').and_then(|t| t.strip_suffix(']')) else {
        return Err(format!("expected a `[\"...\"]` array, got `{s}`"));
    };
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let Some(unq) = part.strip_prefix('"').and_then(|t| t.strip_suffix('"')) else {
            return Err(format!("array element `{part}` must be a quoted string"));
        };
        out.push(unq.to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
        # comment
        [default]
        rules = ["D001", "D003"]

        [crates.dnswire]
        rules = ["D001", "D003", "D004"]

        [crates.netsim.files."src/net.rs"]
        rules = ["D005"]

        [crates.bench]
        rules = []

        [graph]
        step_entries = ["StubMachine::on_event"]
        hot_entries = ["Registry::add"]
    "#;

    #[test]
    fn step_and_hot_entry_sets_parse_under_graph() {
        let p = Policy::parse(SAMPLE).unwrap();
        assert_eq!(p.graph.step_entries, vec!["StubMachine::on_event"]);
        assert_eq!(p.graph.hot_entries, vec!["Registry::add"]);
    }

    #[test]
    fn defaults_apply_to_unlisted_crates() {
        let p = Policy::parse(SAMPLE).unwrap();
        assert_eq!(p.rules_for("tlssim", "src/lib.rs"), vec!["D001", "D003"]);
    }

    #[test]
    fn crate_override_replaces_defaults() {
        let p = Policy::parse(SAMPLE).unwrap();
        assert_eq!(
            p.rules_for("dnswire", "src/name.rs"),
            vec!["D001", "D003", "D004"]
        );
        assert!(p.rules_for("bench", "src/lib.rs").is_empty());
    }

    #[test]
    fn file_extras_stack_on_crate_rules() {
        let p = Policy::parse(SAMPLE).unwrap();
        assert_eq!(
            p.rules_for("netsim", "src/net.rs"),
            vec!["D001", "D003", "D005"]
        );
        assert_eq!(p.rules_for("netsim", "src/geo.rs"), vec!["D001", "D003"]);
    }

    #[test]
    fn unknown_entries_are_rejected() {
        assert!(Policy::parse("[nonsense]\nrules = [\"D001\"]\n").is_err());
        assert!(Policy::parse("[default]\nrules = not-an-array\n").is_err());
        // The retired `[dataflow]` and `[summary]` sections fail loudly
        // instead of silently unrooting a rule, and so do the retired
        // D006/D013 roots.
        assert!(Policy::parse("[dataflow]\nstep_entries = [\"M::on_event\"]\n").is_err());
        assert!(Policy::parse("[graph]\nshard_entries = [\"a::run\"]\n").is_err());
        assert!(Policy::parse("[summary]\ndecode_entries = [\"a::decode\"]\n").is_err());
        assert!(Policy::parse("[summary]\nidentity_entries = [\"a::absorb\"]\n").is_err());
    }
}
