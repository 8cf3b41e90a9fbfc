//! Per-layer metrics of a traced run: span times per layer, work counts
//! from the telemetry snapshot, the scan's sweep/verify split, and
//! microbenchmarks of the dnswire codec and the fingerprinting distance.
//!
//! Every workload reports every metric; a layer the workload never calls
//! reads 0, which is the prediction for it.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::Workload;
use dnswire::{builder, Message, MessageView, Name, RData, RecordType, ResourceRecord};
use doe_core::{Study, StudyConfig};
use doe_scanner::campaign;
use doe_scanner::{syn_sweep_sharded, verify_resolvers_sharded};
use netsim::telemetry::{Labels, Snapshot};
use serde_json::Value;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

/// End-to-end metrics, `(name, unit)`. `checks_passed_frac` is one minus
/// the failed share of the run's checks: a failure share reads 0 on a
/// correct run, and a metric that reads 0 has no relative bound.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("units_per_s", "1/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("checks_passed_frac", "frac"),
];

/// The padding policies of the privacy study, in report order.
pub const POLICIES: [&str; 5] = [
    "none",
    "block",
    "random-block",
    "adaptive-padding",
    "constant-rate",
];

const LAYER_METRICS: [(&str, &str); 43] = [
    ("worldgen.build_s", "s"),
    ("scanner.campaign_s", "s"),
    ("scanner.discovery_s", "s"),
    ("scanner.sweep_s", "s"),
    ("scanner.sweep.probes", "count"),
    ("scanner.sweep.ns_per_probe", "ns"),
    ("scanner.sweep.open_frac", "frac"),
    ("scanner.verify_s", "s"),
    ("scanner.verify.candidates", "count"),
    ("scanner.verify.us_per_candidate", "us"),
    ("scanner.verify.yield", "frac"),
    ("scanner.verify.not_tls_frac", "frac"),
    ("scanner.replay_match", "count"),
    ("vantage.reach_s", "s"),
    ("vantage.reach.clients", "count"),
    ("vantage.reach.us_per_client", "us"),
    ("vantage.perf_s", "s"),
    ("vantage.perf.queries", "count"),
    ("vantage.perf.us_per_query", "us"),
    ("vantage.fresh_s", "s"),
    ("netsim.probes", "count"),
    ("netsim.tcp.connects", "count"),
    ("netsim.tcp.exchanges", "count"),
    ("netsim.udp.exchanges", "count"),
    ("netsim.path.retries", "count"),
    ("netsim.bytes", "bytes"),
    ("netsim.sched.events", "count"),
    ("netsim.sched.ns_per_event", "ns"),
    ("netsim.sched.stale_frac", "frac"),
    ("traffic.stubsim_s", "s"),
    ("traffic.stub.rss_bytes_per_client", "bytes"),
    ("traffic.usage_s", "s"),
    ("doe.stub.reused_frac", "frac"),
    ("doe.stub.retransmits", "count"),
    ("privacy.study_s", "s"),
    ("privacy.classify_est_s", "s"),
    ("privacy.flows_est_s", "s"),
    ("dnswire.view_parse_ns", "ns"),
    ("dnswire.encode_ns", "ns"),
    ("dnswire.decode_ns", "ns"),
    ("telemetry.snapshot_s", "s"),
    ("core.render_s", "s"),
    ("trace.overhead_frac", "frac"),
];

/// Every per-layer metric, `(name, unit)`, including the per-policy
/// sequence lengths and distance timings.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for policy in POLICIES {
        all.push((format!("privacy.seq_len.{policy}"), "symbols"));
        all.push((format!("privacy.distance_ns.{policy}"), "ns"));
    }
    all
}

/// The scan's epoch 0 replayed on a fresh world as its two halves.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// SYN sweep wall time, s.
    pub sweep_s: f64,
    /// DoT verification wall time, s.
    pub verify_s: f64,
    /// Addresses probed.
    pub probes: u64,
    /// Addresses with port 853 open (the verification candidates).
    pub candidates: u64,
    /// Candidates verified as open DoT resolvers.
    pub open_resolvers: u64,
    /// Candidates whose TLS handshake failed.
    pub not_tls: u64,
}

/// Replay epoch 0 of `config`'s campaign: `syn_sweep_sharded` then
/// `verify_resolvers_sharded`, with the arguments `scan_epoch_sharded`
/// passes them, timed apart and recorded as `replay.*` spans.
pub fn replay_epoch0(config: &StudyConfig, tracer: &mut Tracer) -> Replay {
    let mut study = Study::new(config.clone());
    let world = &mut study.world;
    let space = if config.full_sweep {
        campaign::full_space(world)
    } else {
        campaign::compact_space(world)
    };
    let date = world.config.scan_date(0);
    world.set_epoch(date);
    let sources = world.scanner_sources.clone();
    let apex = world.probe.apex.to_string();
    let apex = apex.trim_end_matches('.');
    let store = world.trust_store.clone();

    tracer.begin("replay.sweep");
    let t = Instant::now();
    let sweep = syn_sweep_sharded(&mut world.net, &sources, &space, 853, config.seed, 1);
    let sweep_s = t.elapsed().as_secs_f64();
    tracer.end();

    tracer.begin("replay.verify");
    let t = Instant::now();
    let table = verify_resolvers_sharded(
        &mut world.net,
        &sources,
        &sweep.open_addrs,
        apex,
        world.probe.expected_a,
        &store,
        date,
        "e0",
        1,
    );
    let verify_s = t.elapsed().as_secs_f64();
    tracer.end();

    let not_tls = world
        .net
        .metrics()
        .counter_value("stage.verify.outcome", &Labels::one("class", "not_tls"));
    Replay {
        sweep_s,
        verify_s,
        probes: sweep.stats.probed,
        candidates: sweep.open_addrs.len() as u64,
        open_resolvers: table.open_resolvers() as u64,
        not_tls,
    }
}

/// Median nanoseconds per call of `f`, over 15 rounds each long enough
/// (≥ 1 ms) for the clock to resolve.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed() >= Duration::from_millis(1) || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    let rounds: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    median(&rounds)
}

/// The dnswire microbenchmarks: `(view_parse_ns, encode_ns, decode_ns)`.
///
/// `view_parse` is the zero-copy parse of the padded 128-byte reply DoT
/// verification classifies; `encode`/`decode` are the owned codec on a
/// stub-sized EDNS query and its one-record answer.
pub fn dnswire_micro() -> (f64, f64, f64) {
    let qname = "se0x01234567.probe.dnsmeasure.example";
    let probe = builder::query(0x3d4e, qname, RecordType::A).expect("probe query");
    let record = |name: &str, addr: Ipv4Addr| {
        ResourceRecord::new(Name::parse(name).expect("static name"), 300, RData::A(addr))
    };
    let mut reply = builder::answer(&probe, vec![record(qname, Ipv4Addr::new(198, 51, 100, 53))]);
    reply.pad_to_block(128).expect("padding fits");
    let reply = reply.encode().expect("reply encodes");
    let view_parse = ns_per_call(|| {
        let view = MessageView::parse(black_box(&reply)).expect("valid reply");
        black_box(view.first_a_answer());
    });

    let stub_name = "c0012345.pop.example";
    let query = builder::edns_query(0x1234, stub_name, RecordType::A).expect("stub query");
    let encode = ns_per_call(|| {
        black_box(black_box(&query).encode().expect("query encodes"));
    });
    let answer = builder::answer(
        &query,
        vec![record(stub_name, Ipv4Addr::new(203, 0, 113, 80))],
    )
    .encode()
    .expect("answer encodes");
    let decode = ns_per_call(|| {
        black_box(Message::decode(black_box(&answer)).expect("valid answer"));
    });
    (view_parse, encode, decode)
}

/// Nanoseconds per `doe_privacy::sequence_distance` between two
/// pseudo-random symbol strings of length `len` over a 16-symbol
/// alphabet. The cost is quadratic in the length; the symbols move it by
/// about 15%.
pub fn distance_ns(len: usize) -> f64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut symbols = || -> Vec<u16> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 16) as u16
            })
            .collect()
    };
    let (a, b) = (symbols(), symbols());
    ns_per_call(|| {
        black_box(doe_privacy::sequence_distance(black_box(&a), black_box(&b)));
    })
}

/// What a traced run collected.
pub struct TraceInputs<'a> {
    /// The workload traced.
    pub workload: Workload,
    /// Seconds per span name, one map per traced batch.
    pub batches: &'a [BTreeMap<String, f64>],
    /// Telemetry snapshot of a traced batch.
    pub snapshot: &'a Snapshot,
    /// The `padding-leakage` artifact, when the workload produced it.
    pub privacy: Option<&'a Value>,
    /// Resident set before / high-water mark after the first stub stage, kB.
    pub stub_rss_kb: Option<(u64, u64)>,
    /// The scan's epoch-0 replay and whether it matched Figure 3.
    pub replay: Option<(Replay, bool)>,
    /// `(view_parse_ns, encode_ns, decode_ns)`.
    pub dnswire: (f64, f64, f64),
    /// Traced over untraced median batch wall time, minus one.
    pub overhead_frac: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The series of a snapshot map named `name`, with or without labels.
fn series<'a, T>(map: &'a BTreeMap<String, T>, name: &'a str) -> impl Iterator<Item = &'a T> {
    map.iter()
        .filter(move |(k, _)| {
            k.strip_prefix(name)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
        })
        .map(|(_, v)| v)
}

/// Sum of histogram sample counts over every series named `name`.
fn histogram_count(snap: &Snapshot, name: &str) -> f64 {
    series(&snap.histograms, name).map(|h| h.count).sum::<u64>() as f64
}

/// Sum of counter values over every series named `name`.
fn counter(snap: &Snapshot, name: &str) -> f64 {
    series(&snap.counters, name).sum::<u64>() as f64
}

/// Seconds per layer in one traced batch.
fn layer_times(workload: Workload, spans: &BTreeMap<String, f64>) -> BTreeMap<&'static str, f64> {
    let span = |name: &str| spans.get(name).copied().unwrap_or(0.0);
    // Folded from +0.0: an empty f64 `sum()` is -0.0.
    let runs_in = |layer: &str| -> f64 {
        workload
            .steps()
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| span(&format!("run.{}", s.experiment)))
            .fold(0.0, |a, b| a + b)
    };
    let stages: f64 = spans
        .iter()
        .filter(|(k, _)| k.starts_with("stage."))
        .map(|(_, v)| v)
        .fold(0.0, |a, b| a + b);
    BTreeMap::from([
        ("worldgen.build_s", span("worldgen.build")),
        ("scanner.campaign_s", span("stage.campaign")),
        ("scanner.discovery_s", runs_in("scanner.discovery")),
        (
            "vantage.reach_s",
            span("stage.reach_global") + span("stage.reach_cn"),
        ),
        ("vantage.perf_s", span("stage.performance")),
        ("vantage.fresh_s", runs_in("vantage.fresh")),
        ("traffic.stubsim_s", span("stage.stub_population")),
        (
            "traffic.usage_s",
            span("stage.traffic")
                + span("stage.pdns_dnsdb")
                + span("stage.pdns_360")
                + runs_in("traffic.usage"),
        ),
        ("privacy.study_s", span("stage.privacy")),
        ("telemetry.snapshot_s", span("telemetry.snapshot")),
        ("core.render_s", runs_in("core.render")),
        ("stages_s", stages),
    ])
}

/// Every per-layer metric of a traced run, in [`per_layer_metrics`] order.
pub fn per_layer(inputs: &TraceInputs) -> Vec<(String, f64, &'static str)> {
    let mut v: BTreeMap<String, f64> = BTreeMap::new();

    // Span times: the median over traced batches, per layer.
    let per_batch: Vec<BTreeMap<&str, f64>> = inputs
        .batches
        .iter()
        .map(|spans| layer_times(inputs.workload, spans))
        .collect();
    if let Some(first) = per_batch.first() {
        for &name in first.keys() {
            let samples: Vec<f64> = per_batch.iter().map(|m| m[name]).collect();
            v.insert(name.to_string(), median(&samples));
        }
    }

    let snap = inputs.snapshot;
    let reach_clients = histogram_count(snap, "stage.reach.client_us");
    let perf_queries = histogram_count(snap, "stage.perf.query_us");
    v.insert("vantage.reach.clients".into(), reach_clients);
    v.insert(
        "vantage.reach.us_per_client".into(),
        ratio(v["vantage.reach_s"] * 1e6, reach_clients),
    );
    v.insert("vantage.perf.queries".into(), perf_queries);
    v.insert(
        "vantage.perf.us_per_query".into(),
        ratio(v["vantage.perf_s"] * 1e6, perf_queries),
    );

    let events = counter(snap, "sched.event.fired");
    v.insert("netsim.probes".into(), counter(snap, "net.probe.sent"));
    v.insert(
        "netsim.tcp.connects".into(),
        histogram_count(snap, "net.tcp.connect_us"),
    );
    v.insert(
        "netsim.tcp.exchanges".into(),
        histogram_count(snap, "net.tcp.exchange_us"),
    );
    v.insert(
        "netsim.udp.exchanges".into(),
        histogram_count(snap, "net.udp.exchange_us"),
    );
    v.insert(
        "netsim.path.retries".into(),
        counter(snap, "net.path.retransmit"),
    );
    v.insert(
        "netsim.bytes".into(),
        counter(snap, "net.bytes.tx") + counter(snap, "net.bytes.rx"),
    );
    v.insert("netsim.sched.events".into(), events);
    v.insert(
        "netsim.sched.ns_per_event".into(),
        ratio(v["stages_s"] * 1e9, events),
    );

    // Stub fleet: idle-close events that expired no pooled connection
    // were dispatched for nothing.
    let stub_clients = counter(snap, "stage.stub.clients");
    if stub_clients > 0.0 {
        let idle_fired = counter(snap, "sched.event.fired{kind=idle_close}");
        let idle_closed = counter(snap, "stage.stub.idle_closes");
        v.insert(
            "netsim.sched.stale_frac".into(),
            ratio(idle_fired - idle_closed, idle_fired),
        );
        v.insert(
            "doe.stub.reused_frac".into(),
            ratio(
                counter(snap, "stage.stub.reused"),
                counter(snap, "stage.stub.answered"),
            ),
        );
        v.insert(
            "doe.stub.retransmits".into(),
            counter(snap, "stage.stub.retransmits"),
        );
        if let Some((before, after)) = inputs.stub_rss_kb {
            v.insert(
                "traffic.stub.rss_bytes_per_client".into(),
                after.saturating_sub(before) as f64 * 1024.0 / stub_clients,
            );
        }
    }

    if let Some((r, matched)) = inputs.replay {
        v.insert("scanner.sweep_s".into(), r.sweep_s);
        v.insert("scanner.sweep.probes".into(), r.probes as f64);
        v.insert(
            "scanner.sweep.ns_per_probe".into(),
            ratio(r.sweep_s * 1e9, r.probes as f64),
        );
        v.insert(
            "scanner.sweep.open_frac".into(),
            ratio(r.candidates as f64, r.probes as f64),
        );
        v.insert("scanner.verify_s".into(), r.verify_s);
        v.insert("scanner.verify.candidates".into(), r.candidates as f64);
        v.insert(
            "scanner.verify.us_per_candidate".into(),
            ratio(r.verify_s * 1e6, r.candidates as f64),
        );
        v.insert(
            "scanner.verify.yield".into(),
            ratio(r.open_resolvers as f64, r.candidates as f64),
        );
        v.insert(
            "scanner.verify.not_tls_frac".into(),
            ratio(r.not_tls as f64, r.candidates as f64),
        );
        v.insert("scanner.replay_match".into(), f64::from(u8::from(matched)));
    }

    // Privacy: the k-NN evaluation computes train x test distances per
    // policy at that policy's sequence length; the rest of the study is
    // flow simulation and shaping.
    if let Some(art) = inputs.privacy {
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        let flows_per_policy = field(art, "domains") * field(art, "samples_per_domain");
        let mut classify_s = 0.0;
        for p in art.get("policies").and_then(Value::as_array).unwrap_or(&[]) {
            let Some(label) = p.get("policy").and_then(Value::as_str) else {
                continue;
            };
            let seq_len = ratio(field(p, "messages"), flows_per_policy);
            let dist_ns = distance_ns(seq_len.round() as usize);
            let tested = field(p, "tested");
            classify_s += (flows_per_policy - tested) * tested * dist_ns / 1e9;
            v.insert(format!("privacy.seq_len.{label}"), seq_len);
            v.insert(format!("privacy.distance_ns.{label}"), dist_ns);
        }
        v.insert("privacy.classify_est_s".into(), classify_s);
        v.insert(
            "privacy.flows_est_s".into(),
            v["privacy.study_s"] - classify_s,
        );
    }

    let (view_parse, encode, decode) = inputs.dnswire;
    v.insert("dnswire.view_parse_ns".into(), view_parse);
    v.insert("dnswire.encode_ns".into(), encode);
    v.insert("dnswire.decode_ns".into(), decode);
    v.insert("trace.overhead_frac".into(), inputs.overhead_frac);

    per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let value = v.get(&name).copied().unwrap_or(0.0);
            (name, value, unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let names: Vec<String> = END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(per_layer_metrics().into_iter().map(|(n, _)| n))
            .collect();
        let unique: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        for n in &names {
            assert!(n.len() <= 64);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn series_sums_match_name_and_labelled_forms() {
        let mut snap = Snapshot::default();
        snap.counters
            .insert("sched.event.fired{kind=timer}".into(), 3);
        snap.counters
            .insert("sched.event.fired{kind=deliver}".into(), 4);
        snap.counters.insert("sched.event.fired_extra".into(), 100);
        assert_eq!(counter(&snap, "sched.event.fired"), 7.0);
        assert_eq!(counter(&snap, "sched.event.fired{kind=timer}"), 3.0);
        assert_eq!(counter(&snap, "absent"), 0.0);
    }

    #[test]
    fn distance_cost_grows_with_length() {
        assert!(distance_ns(200) > distance_ns(10));
    }
}
