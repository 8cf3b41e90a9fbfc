//! The four workloads: which study configuration each runs, which
//! experiments it regenerates, and the checks its outputs must pass.
//!
//! A batch builds a fresh [`Study`] and regenerates the workload's
//! experiments through [`experiments::run`]. Every cached study stage an
//! experiment triggers is called explicitly first, so a stage's cost
//! lands in its own span instead of in the first experiment that needs
//! it; the call order is the order the experiments would trigger the
//! stages in, so the outputs are the same either way.

use crate::procfs;
use crate::stats::digest_hex;
use crate::trace::Tracer;
use doe_core::experiments;
use doe_core::{Study, StudyConfig};
use doe_vantage::reachability::TransportKind;
use netsim::telemetry::Snapshot;
use serde_json::Value;
use std::time::Instant;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §3: the port-853 SYN sweep of the full advertised space plus DoT
    /// verification of every open host, over scan epochs 0 and 9.
    ScanFullspace,
    /// §4: reachability and reused/fresh-connection performance from the
    /// vantage client pools.
    VantageClients,
    /// The event-driven stub-resolver fleet on the discrete-event scheduler.
    StubFleet,
    /// §5 usage analytics plus the padding-leakage fingerprinting study.
    PrivacyUsage,
}

/// Every workload, in run order. Together they regenerate all 22
/// experiments.
pub const WORKLOADS: [Workload; 4] = [
    Workload::ScanFullspace,
    Workload::VantageClients,
    Workload::StubFleet,
    Workload::PrivacyUsage,
];

/// A cached [`Study`] stage method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// [`Study::campaign`].
    Campaign,
    /// [`Study::reach_global`].
    ReachGlobal,
    /// [`Study::reach_cn`].
    ReachCn,
    /// [`Study::performance`].
    Performance,
    /// [`Study::stub_population`].
    StubPopulation,
    /// [`Study::privacy`].
    Privacy,
    /// [`Study::traffic`].
    Traffic,
    /// [`Study::pdns_dnsdb`].
    PdnsDnsdb,
    /// [`Study::pdns_360`].
    Pdns360,
}

impl Stage {
    /// The span this stage is recorded under.
    pub fn span(self) -> &'static str {
        match self {
            Stage::Campaign => "stage.campaign",
            Stage::ReachGlobal => "stage.reach_global",
            Stage::ReachCn => "stage.reach_cn",
            Stage::Performance => "stage.performance",
            Stage::StubPopulation => "stage.stub_population",
            Stage::Privacy => "stage.privacy",
            Stage::Traffic => "stage.traffic",
            Stage::PdnsDnsdb => "stage.pdns_dnsdb",
            Stage::Pdns360 => "stage.pdns_360",
        }
    }

    fn run(self, study: &mut Study) {
        match self {
            Stage::Campaign => {
                study.campaign();
            }
            Stage::ReachGlobal => {
                study.reach_global();
            }
            Stage::ReachCn => {
                study.reach_cn();
            }
            Stage::Performance => {
                study.performance();
            }
            Stage::StubPopulation => {
                study.stub_population();
            }
            Stage::Privacy => {
                study.privacy();
            }
            Stage::Traffic => {
                study.traffic();
            }
            Stage::PdnsDnsdb => {
                study.pdns_dnsdb();
            }
            Stage::Pdns360 => {
                study.pdns_360();
            }
        }
    }
}

/// One experiment of a workload, the stages it triggers first, and the
/// layer its own `experiments::run` time belongs to: `core.render` when
/// it only renders cached stage output, otherwise the layer whose work it
/// does itself.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Experiment id (see `ALL_EXPERIMENTS`).
    pub experiment: &'static str,
    /// Stages it triggers, in trigger order.
    pub stages: &'static [Stage],
    /// Layer of the run span.
    pub layer: &'static str,
}

const fn step(experiment: &'static str, stages: &'static [Stage], layer: &'static str) -> Step {
    Step {
        experiment,
        stages,
        layer,
    }
}

const RENDER: &str = "core.render";

const SCAN_STEPS: [Step; 5] = [
    step("figure3", &[Stage::Campaign], RENDER),
    step("table2", &[], RENDER),
    step("figure4", &[], RENDER),
    step("doh-discovery", &[], "scanner.discovery"),
    step("local-probe", &[], "scanner.discovery"),
];

const VANTAGE_STEPS: [Step; 7] = [
    step("table3", &[], RENDER),
    step("table4", &[Stage::ReachGlobal, Stage::ReachCn], RENDER),
    step("table5", &[], RENDER),
    step("table6", &[], RENDER),
    step("figure9", &[Stage::Performance], RENDER),
    step("figure10", &[], RENDER),
    step("table7", &[], "vantage.fresh"),
];

const STUB_STEPS: [Step; 1] = [step("stub-scale", &[Stage::StubPopulation], RENDER)];

const PRIVACY_STEPS: [Step; 9] = [
    step("padding-leakage", &[Stage::Privacy], RENDER),
    step("figure11", &[Stage::Traffic], "traffic.usage"),
    step("figure12", &[], "traffic.usage"),
    step(
        "figure13",
        &[Stage::PdnsDnsdb, Stage::Pdns360],
        "traffic.usage",
    ),
    step("scandet", &[], "traffic.usage"),
    step("table1", &[], RENDER),
    step("figure1", &[], RENDER),
    step("figure2", &[], RENDER),
    step("table8", &[], RENDER),
];

/// Queries each stub client makes (`StubPopulationConfig::default`).
const STUB_QUERIES_PER_CLIENT: u64 = 2;

impl Workload {
    /// The workload's name on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanFullspace => "scan-fullspace",
            Workload::VantageClients => "vantage-clients",
            Workload::StubFleet => "stub-fleet",
            Workload::PrivacyUsage => "privacy-usage",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// What `units_per_s` counts.
    pub fn unit(self) -> &'static str {
        match self {
            Workload::ScanFullspace => "addresses probed",
            Workload::VantageClients => "vantage clients tested",
            Workload::StubFleet => "stub clients",
            Workload::PrivacyUsage => "privacy flows",
        }
    }

    /// The study configuration of one batch: `StudyConfig::paper`, or
    /// `StudyConfig::quick` for `smoke`, on one worker thread.
    ///
    /// Stub fleet (1M clients) and privacy run the paper configuration
    /// as is. The other two are cut to fit a batch in a 30 s run without
    /// changing the world or the per-unit work: the scan measures two of
    /// the paper's epochs (0 and 9) over the full 6.1M-address space, and
    /// the vantage leg tests every fourth reachability client and half the
    /// performance clients, which keeps the reachability/performance split
    /// of the paper-size leg (README, "Batch sizes").
    pub fn config(self, seed: u64, smoke: bool) -> StudyConfig {
        let base = if smoke {
            StudyConfig::quick(seed)
        } else {
            StudyConfig::paper(seed)
        };
        let config = match self {
            Workload::ScanFullspace => StudyConfig { epochs: 2, ..base },
            Workload::VantageClients => StudyConfig {
                reach_stride: 4,
                perf_clients: base.perf_clients / 2,
                ..base
            },
            Workload::StubFleet | Workload::PrivacyUsage => base,
        };
        StudyConfig {
            shards: 1,
            ..config
        }
    }

    /// The workload's experiments in run order.
    pub fn steps(self) -> &'static [Step] {
        match self {
            Workload::ScanFullspace => &SCAN_STEPS,
            Workload::VantageClients => &VANTAGE_STEPS,
            Workload::StubFleet => &STUB_STEPS,
            Workload::PrivacyUsage => &PRIVACY_STEPS,
        }
    }

    /// Work one batch did, in [`Workload::unit`]s (read from the cached
    /// stage reports of a finished batch).
    pub fn units(self, study: &mut Study) -> u64 {
        match self {
            Workload::ScanFullspace => study.campaign().epochs.iter().map(|e| e.stats.probed).sum(),
            Workload::VantageClients => {
                let reach = study.reach_global().clients_tested + study.reach_cn().clients_tested;
                let perf = study.performance();
                (reach + perf.observations.len() + perf.skipped) as u64
            }
            Workload::StubFleet => study.stub_population().clients,
            Workload::PrivacyUsage => study.privacy().flows,
        }
    }

    /// Shape checks on the typed reports of a finished batch: the
    /// paper's findings as `tests/end_to_end_study.rs` and
    /// `tests/shard_invariance.rs` state them. Returns
    /// `(description, passed)`.
    pub fn shape_checks(self, study: &mut Study) -> Vec<(String, bool)> {
        let mut checks = Vec::new();
        match self {
            Workload::ScanFullspace => {
                let full_sweep = study.config.full_sweep;
                let epochs = &study.campaign().epochs;
                // The port-853 band holds at paper scale over the full
                // space; the smoke scan sweeps the compact space only.
                if full_sweep {
                    for e in epochs {
                        let open = e.stats.open;
                        checks.push((
                            format!(
                                "epoch {}: {open} port-853-open hosts within [2.0M, 3.0M)",
                                e.epoch
                            ),
                            (2_000_000..3_000_000).contains(&open),
                        ));
                    }
                }
                let (first, last) = (&epochs[0], &epochs[epochs.len() - 1]);
                checks.push((
                    format!(
                        "open resolvers grow from the first epoch ({}) to the last ({})",
                        first.open_resolvers, last.open_resolvers
                    ),
                    epochs.len() >= 2 && first.open_resolvers < last.open_resolvers,
                ));
            }
            Workload::VantageClients => {
                let r = study.reach_global();
                let incorrect =
                    r.cell("Quad9", TransportKind::Doh).incorrect as f64 / r.clients_tested as f64;
                checks.push((
                    format!("Quad9 DoH incorrect share {incorrect:.4} within [0.05, 0.25]"),
                    (0.05..=0.25).contains(&incorrect),
                ));
            }
            Workload::StubFleet => {
                let r = study.stub_population();
                let t = &r.totals;
                checks.push((
                    format!(
                        "answered {} + failed {} == {STUB_QUERIES_PER_CLIENT} x {} clients",
                        t.answered, t.failed, r.clients
                    ),
                    t.answered + t.failed == STUB_QUERIES_PER_CLIENT * r.clients,
                ));
                checks.push((
                    format!(
                        "failed {} == {STUB_QUERIES_PER_CLIENT} x floor({} / 64) blackholed clients",
                        t.failed, r.clients
                    ),
                    t.failed == STUB_QUERIES_PER_CLIENT * (r.clients / 64),
                ));
            }
            Workload::PrivacyUsage => {
                let r = study.privacy();
                let acc = |label: &str| {
                    r.policies
                        .iter()
                        .find(|p| p.policy == label)
                        .map_or(0, |p| p.accuracy_permille)
                };
                let (none, block, constant) = (acc("none"), acc("block"), acc("constant-rate"));
                let random = r.random_guess_permille;
                checks.push((
                    format!(
                        "accuracy permille none {none} > block {block} >= constant-rate {constant} > random {random}"
                    ),
                    none > block && block >= constant && constant > random,
                ));
            }
        }
        checks
    }
}

/// One experiment's regenerated artifact.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Experiment id.
    pub id: &'static str,
    /// FNV-1a of the artifact's `to_string_pretty` bytes (what
    /// `repro --json` writes).
    pub digest: String,
    /// The artifact itself.
    pub json: Value,
}

/// The outcome of one batch.
#[derive(Debug)]
pub struct Batch {
    /// Wall time of the whole batch (world build to telemetry snapshot), s.
    pub wall_s: f64,
    /// Wall time of the batch's world build (`Study::new`), s.
    pub build_s: f64,
    /// User + system CPU time of the batch, s.
    pub cpu_s: f64,
    /// Artifacts in step order.
    pub artifacts: Vec<Artifact>,
    /// The world's telemetry snapshot after the batch.
    pub snapshot: Snapshot,
    /// FNV-1a of the snapshot's `to_string_pretty` bytes.
    pub snapshot_digest: String,
    /// Resident set (kB) just before the stub-population stage and its
    /// high-water mark just after, when the batch ran that stage.
    pub stub_rss_kb: Option<(u64, u64)>,
}

impl Batch {
    /// `(name, digest)` for every artifact, then `telemetry`.
    pub fn digests(&self) -> Vec<(&str, &str)> {
        self.artifacts
            .iter()
            .map(|a| (a.id, a.digest.as_str()))
            .chain(std::iter::once((
                "telemetry",
                self.snapshot_digest.as_str(),
            )))
            .collect()
    }

    /// The artifact of `id`, if the batch produced it.
    pub fn artifact(&self, id: &str) -> Option<&Value> {
        self.artifacts.iter().find(|a| a.id == id).map(|a| &a.json)
    }
}

/// Wall time of one world build (`Study::new`), s: the set-up every batch
/// pays before its first stage.
pub fn setup_s(config: &StudyConfig) -> f64 {
    let t = Instant::now();
    let study = Study::new(config.clone());
    let elapsed = t.elapsed().as_secs_f64();
    drop(study);
    elapsed
}

/// Run one batch of `workload` on a fresh study, recording spans into
/// `tracer`. The study is returned for the checks and counts that read
/// its cached reports.
pub fn run_batch(workload: Workload, config: &StudyConfig, tracer: &mut Tracer) -> (Batch, Study) {
    let cpu0 = procfs::cpu_seconds();
    let t0 = Instant::now();
    tracer.begin("batch");
    tracer.begin("worldgen.build");
    let mut study = Study::new(config.clone());
    let build_s = t0.elapsed().as_secs_f64();
    tracer.end();
    let mut artifacts = Vec::new();
    let mut stub_rss_kb = None;
    for step in workload.steps() {
        for &stage in step.stages {
            let rss_before = (stage == Stage::StubPopulation).then(|| procfs::status_kb("VmRSS"));
            tracer.begin(stage.span());
            stage.run(&mut study);
            tracer.end();
            if let Some(before) = rss_before {
                stub_rss_kb = Some((before, procfs::status_kb("VmHWM")));
            }
        }
        tracer.begin(&format!("run.{}", step.experiment));
        let result = experiments::run(&mut study, step.experiment).expect("known experiment id");
        let body = serde_json::to_string_pretty(&result.json).expect("serialise artifact");
        tracer.end();
        artifacts.push(Artifact {
            id: step.experiment,
            digest: digest_hex(body.as_bytes()),
            json: result.json,
        });
    }
    tracer.begin("telemetry.snapshot");
    let snapshot = study.world.net.metrics().snapshot();
    let body = serde_json::to_string_pretty(&snapshot).expect("serialise telemetry");
    tracer.end();
    tracer.end();
    let batch = Batch {
        wall_s: t0.elapsed().as_secs_f64(),
        build_s,
        cpu_s: procfs::cpu_seconds() - cpu0,
        artifacts,
        snapshot,
        snapshot_digest: digest_hex(body.as_bytes()),
        stub_rss_kb,
    };
    (batch, study)
}
