//! Human, JSON and SARIF rendering of a lint run.
//!
//! JSON is hand-rolled (the analyzer is dependency-free); the schema is
//! stable so `scripts/verify.sh` can archive reports under `results/`
//! and diff them across runs. In schema version 5 each finding carries,
//! besides its file, line, rule, severity and message:
//!
//! * `"chain"` — for the interprocedural rules (D007–D015), the call
//!   chain from an entry point to the hazard site as evidence; empty for
//!   token rules;
//! * `"fingerprint"` — a stable identity (`rule|file|entry|site`) built
//!   from line-number-free chain endpoints, so `--baseline` diffs
//!   survive unrelated edits that shift line numbers.
//!
//! The same findings export as SARIF 2.1.0 (see [`sarif`]) for CI
//! annotation; both renderings are byte-deterministic.

use crate::{Finding, Report, Severity};
use std::fmt::Write as _;

/// Render the human-readable report.
pub fn human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let _ = writeln!(out, "{}:{}: {} {}", f.file, f.line, f.rule, f.message);
        if !f.chain.is_empty() {
            for (i, hop) in f.chain.iter().enumerate() {
                let arrow = if i == 0 { "entry" } else { "  via" };
                let _ = writeln!(out, "    {arrow} {hop}");
            }
        }
    }
    let _ = writeln!(
        out,
        "doe-lint: {} finding(s), {} suppressed, {} file(s) scanned",
        report.findings.len(),
        report.suppressed.len(),
        report.files_scanned
    );
    if report.findings.is_empty() {
        let _ = writeln!(out, "doe-lint: determinism contract holds");
    }
    out
}

/// Strip the ` (file:line)` location suffix from a chain hop, leaving
/// the qualified function name.
fn hop_name(hop: &str) -> &str {
    match hop.find(" (") {
        Some(i) => &hop[..i],
        None => hop,
    }
}

/// A finding's stable identity for baseline diffing:
/// `rule|file|entry|site`. `entry` and `site` are the first and last
/// chain hops with their `(file:line)` locations stripped — a chain
/// finding keeps its fingerprint when unrelated edits shift line
/// numbers. Token findings (no chain) use `-` and `L<line>`.
pub fn fingerprint(f: &Finding) -> String {
    let entry = f.chain.first().map_or("-", |h| hop_name(h));
    let site = match f.chain.last() {
        Some(h) => hop_name(h).to_string(),
        None => format!("L{}", f.line),
    };
    format!("{}|{}|{}|{}", f.rule, f.file, entry, site)
}

/// Render the machine-readable report.
pub fn json(report: &Report) -> String {
    let mut out = String::from("{\n  \"version\": 5,\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \
             \"severity\": \"{}\", \"fingerprint\": \"{}\", \"message\": \"{}\", \"chain\": [",
            esc(&f.file),
            f.line,
            f.rule,
            match f.severity {
                Severity::Error => "error",
            },
            esc(&fingerprint(f)),
            esc(&f.message)
        );
        for (j, hop) in f.chain.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\"", esc(hop));
        }
        out.push_str("]}");
    }
    out.push_str("\n  ],\n  \"suppressed\": [");
    for (i, s) in report.suppressed.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \
             \"reason\": \"{}\"}}",
            esc(&s.file),
            s.line,
            s.rule,
            esc(&s.reason)
        );
    }
    let _ = write!(
        out,
        "\n  ],\n  \"summary\": {{\"findings\": {}, \"suppressed\": {}, \
         \"files_scanned\": {}, \"clean\": {}}}\n}}\n",
        report.findings.len(),
        report.suppressed.len(),
        report.files_scanned,
        report.findings.is_empty()
    );
    out
}

/// Render the report as SARIF 2.1.0 for CI annotation. The driver
/// advertises every contract rule; each result carries the finding's
/// stable fingerprint under `partialFingerprints` so SARIF consumers
/// dedup across runs the same way `--baseline` does. Output is
/// byte-deterministic: findings are already sorted and every map is
/// emitted in a fixed key order.
pub fn sarif(report: &Report) -> String {
    let mut out = String::from(
        "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \
         \"driver\": {\n          \"name\": \"doe-lint\",\n          \
         \"version\": \"5\",\n          \"rules\": [",
    );
    for (i, (id, what)) in crate::rules::RULES.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n            {{\"id\": \"{id}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
            esc(what)
        );
    }
    out.push_str("\n          ]\n        }\n      },\n      \"results\": [");
    for (i, f) in report.findings.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n        {{\"ruleId\": \"{}\", \"level\": \"{}\", \
             \"message\": {{\"text\": \"{}\"}}, \
             \"partialFingerprints\": {{\"doeLint/v1\": \"{}\"}}, \
             \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
             \"region\": {{\"startLine\": {}}}}}}}]}}",
            f.rule,
            match f.severity {
                Severity::Error => "error",
            },
            esc(&f.message),
            esc(&fingerprint(f)),
            esc(&f.file),
            f.line
        );
    }
    out.push_str("\n      ]\n    }\n  ]\n}\n");
    out
}

/// Escape a string for embedding in JSON.
pub(crate) fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Finding;

    #[test]
    fn json_escapes_and_reports_clean_flag() {
        let report = Report {
            findings: vec![Finding {
                file: "crates/x/src/lib.rs".to_string(),
                line: 3,
                rule: "D003".to_string(),
                message: "a \"quoted\" message".to_string(),
                severity: Severity::Error,
                chain: Vec::new(),
            }],
            suppressed: Vec::new(),
            files_scanned: 1,
        };
        let j = json(&report);
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("\"clean\": false"));
        assert!(j.contains("\"version\": 5"));
        let empty = Report {
            findings: Vec::new(),
            suppressed: Vec::new(),
            files_scanned: 0,
        };
        assert!(json(&empty).contains("\"clean\": true"));
    }

    #[test]
    fn chains_render_in_both_formats() {
        let report = Report {
            findings: vec![Finding {
                file: "crates/x/src/lib.rs".to_string(),
                line: 9,
                rule: "D007".to_string(),
                message: "`.unwrap()` can panic".to_string(),
                severity: Severity::Error,
                chain: vec![
                    "a::entry (crates/a/src/lib.rs:1)".to_string(),
                    "a::leaf (crates/a/src/lib.rs:5)".to_string(),
                ],
            }],
            suppressed: Vec::new(),
            files_scanned: 1,
        };
        let h = human(&report);
        assert!(h.contains("entry a::entry"));
        assert!(h.contains("  via a::leaf"));
        let j = json(&report);
        assert!(j.contains("\"chain\": [\"a::entry (crates/a/src/lib.rs:1)\", \"a::leaf (crates/a/src/lib.rs:5)\"]}"));
    }

    fn chained(line: u32, chain: &[&str]) -> Finding {
        Finding {
            file: "crates/x/src/lib.rs".to_string(),
            line,
            rule: "D007".to_string(),
            message: "can panic".to_string(),
            severity: Severity::Error,
            chain: chain.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn fingerprints_survive_line_shifts() {
        let a = chained(
            9,
            &[
                "a::entry (crates/a/src/lib.rs:1)",
                "a::leaf (crates/a/src/lib.rs:5)",
            ],
        );
        // Same chain endpoints, every line number shifted.
        let b = chained(
            41,
            &[
                "a::entry (crates/a/src/lib.rs:30)",
                "a::leaf (crates/a/src/lib.rs:38)",
            ],
        );
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), "D007|crates/x/src/lib.rs|a::entry|a::leaf");
        // Token findings fall back to the line anchor.
        let t = chained(9, &[]);
        assert_eq!(fingerprint(&t), "D007|crates/x/src/lib.rs|-|L9");
    }

    #[test]
    fn sarif_export_is_valid_shaped_and_carries_fingerprints() {
        let report = Report {
            findings: vec![chained(9, &["a::entry (crates/a/src/lib.rs:1)"])],
            suppressed: Vec::new(),
            files_scanned: 1,
        };
        let s = sarif(&report);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"name\": \"doe-lint\""));
        assert!(
            s.contains("\"id\": \"D015\""),
            "driver advertises all rules"
        );
        assert!(s.contains("\"ruleId\": \"D007\""));
        assert!(s.contains("\"doeLint/v1\": \"D007|crates/x/src/lib.rs|a::entry|a::entry\""));
        assert!(s.contains("\"startLine\": 9"));
        // Determinism: same report, same bytes.
        assert_eq!(s, sarif(&report));
    }
}
