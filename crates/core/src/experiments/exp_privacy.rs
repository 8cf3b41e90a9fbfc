//! The privacy experiment: does padding stop sequence fingerprinting?
//!
//! The paper's §6 recommendation is RFC 8467 padding; the FOCI '20
//! follow-up line showed message *sequences* still fingerprint
//! destinations. `padding-leakage` stages that argument end to end:
//! closed-world per-domain lookup flows, five countermeasure policies,
//! one k-NN adversary, bandwidth/latency overheads against the unpadded
//! baseline. All figures are integers (permille / bytes / µs) so the
//! JSON artifact byte-compares across runs and shard counts.

use crate::experiments::ExperimentResult;
use crate::render::{heading, TextTable};
use crate::study::Study;
use serde_json::json;

/// The `padding-leakage` experiment.
pub fn padding_leakage(study: &mut Study) -> ExperimentResult {
    let report = study.privacy();

    let mut table = TextTable::new(vec![
        "Policy",
        "Accuracy",
        "Bandwidth",
        "Dummies",
        "Added latency",
        "Messages",
    ]);
    for p in &report.policies {
        table.row(vec![
            p.policy.to_string(),
            format!("{}.{}%", p.accuracy_permille / 10, p.accuracy_permille % 10),
            format!(
                "{}.{}x",
                p.bandwidth_overhead_permille / 1000,
                p.bandwidth_overhead_permille % 1000 / 10
            ),
            p.dummy_cells.to_string(),
            format!("{:.1} ms", p.latency_added_us_mean as f64 / 1000.0),
            p.messages.to_string(),
        ]);
    }

    let rendered = format!(
        "{}closed world      : {} domains x {} samples per policy\nflows simulated   : {}\nrandom guess      : {}.{}%\n\n{}",
        heading("Padding leakage — sequence fingerprinting vs countermeasures"),
        report.domains,
        report.samples_per_domain,
        report.flows,
        report.random_guess_permille / 10,
        report.random_guess_permille % 10,
        table.render(),
    );

    let policies_json: Vec<serde_json::Value> = report
        .policies
        .iter()
        .map(|p| {
            json!({
                "policy": p.policy,
                "accuracy_permille": p.accuracy_permille,
                "correct": p.correct,
                "tested": p.tested,
                "wire_bytes": p.wire_bytes,
                "bandwidth_overhead_permille": p.bandwidth_overhead_permille,
                "dummy_cells": p.dummy_cells,
                "latency_added_us_mean": p.latency_added_us_mean,
                "messages": p.messages,
            })
        })
        .collect();

    ExperimentResult {
        id: "padding-leakage",
        title: "Padding vs sequence fingerprinting",
        rendered,
        json: json!({
            "domains": report.domains,
            "samples_per_domain": report.samples_per_domain,
            "flows": report.flows,
            "random_guess_permille": report.random_guess_permille,
            "policies": policies_json,
        }),
    }
}
