//! The 18-month DoT client-population model behind Figures 11 and 12.
//!
//! Records are generated *post-sampling*: for each (netblock, day, target)
//! the expected number of sampled flow records λ is computed and a
//! Poisson(λ) count drawn — mathematically equivalent to generating the
//! ~150× larger real-flow population and pushing it through the 1/3,000
//! collector (the collector itself is implemented and property-tested in
//! [`crate::netflow`]), at a fraction of the memory.

use crate::netflow::{poisson, FlowRecord, TCP_ACK, TCP_FIN, TCP_PSH, TCP_SYN};
use netsim::sched::{SchedEvent, Scheduler};
use netsim::{mix_seed, Netblock, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;
use tlssim::DateStamp;
use worldgen::providers::anchors;

/// Traffic-model calibration (Finding 4.1).
#[derive(Debug, Clone)]
pub struct DotTrafficConfig {
    /// Seed.
    pub seed: u64,
    /// NetFlow observation window start (paper: Jul 2017).
    pub start: DateStamp,
    /// Months covered (paper: 18, through Dec 2018/Jan 2019).
    pub months: u32,
    /// Monthly sampled Cloudflare-DoT flow target at the window's end
    /// (Dec 2018: 7,318).
    pub cloudflare_dec2018: f64,
    /// Monthly sampled Cloudflare-DoT flows in Jul 2018 (4,674 — the 56%
    /// growth baseline).
    pub cloudflare_jul2018: f64,
    /// Mean monthly Quad9 flows (fluctuating).
    pub quad9_monthly: f64,
    /// Share of traffic carried by the top 5 netblocks (44%).
    pub top5_share: f64,
    /// Share carried by netblocks 6–20 (top-20 total 60%).
    pub next15_share: f64,
    /// Share carried by short-lived netblocks (25%).
    pub temporary_share: f64,
    /// Total distinct client /24s across the window (5,623).
    pub total_netblocks: u32,
    /// Traditional-DNS-to-DoT volume ratio (the "2-3 orders of magnitude"
    /// comparison; only the summary number is generated).
    pub do53_ratio: f64,
}

impl Default for DotTrafficConfig {
    fn default() -> Self {
        DotTrafficConfig {
            seed: 360,
            start: DateStamp::from_ymd(2017, 7, 1),
            months: 18,
            cloudflare_dec2018: 7_318.0,
            cloudflare_jul2018: 4_674.0,
            quad9_monthly: 1_400.0,
            top5_share: 0.44,
            next15_share: 0.16,
            temporary_share: 0.25,
            total_netblocks: 5_623,
            do53_ratio: 900.0,
        }
    }
}

/// The generated dataset.
#[derive(Debug, Clone)]
pub struct TrafficDataset {
    /// Sampled flow records, chronological.
    pub records: Vec<FlowRecord>,
    /// Ground truth: netblocks that were short-lived (< 1 week).
    pub temporary_blocks: Vec<Netblock>,
    /// Ground truth: the heavy persistent netblocks.
    pub persistent_blocks: Vec<Netblock>,
    /// Estimated sampled traditional-DNS flows per month (for the orders-
    /// of-magnitude comparison).
    pub do53_monthly_estimate: f64,
    /// Planted research-scanner sources (for the scan-detection check).
    pub scanner_sources: Vec<Ipv4Addr>,
}

/// Cloudflare's monthly intensity: zero before its Apr 2018 launch, then a
/// ramp through the calibration points.
fn cloudflare_monthly(cfg: &DotTrafficConfig, month_start: DateStamp) -> f64 {
    let launch = DateStamp::from_ymd(2018, 4, 1);
    let jul = DateStamp::from_ymd(2018, 7, 1);
    if month_start < launch {
        return 0.0;
    }
    if month_start < jul {
        // Ramp from ~1/4 of the July figure at launch.
        let months_in = ((month_start - launch) / 30) as f64;
        return cfg.cloudflare_jul2018 * (0.25 + 0.25 * months_in);
    }
    // Jul→Dec 2018: the calibrated 56% growth, linear per month, and
    // continuing gently afterwards.
    let months_past_jul = ((month_start - jul) / 30) as f64;
    let slope = (cfg.cloudflare_dec2018 - cfg.cloudflare_jul2018) / 5.0;
    cfg.cloudflare_jul2018 + slope * months_past_jul
}

fn quad9_monthly(cfg: &DotTrafficConfig, _month_index: u32, rng: &mut SmallRng) -> f64 {
    // Fluctuates ±40% around the mean.
    cfg.quad9_monthly * rng.gen_range(0.6..1.4)
}

/// A heavy netblock's address pool (clients within the /24).
fn block_addr(block: Netblock, rng: &mut SmallRng) -> Ipv4Addr {
    block.addr(1 + rng.gen_range(0..200) as u64)
}

/// The two observed resolvers, indexed as `MonthInfo::intensity` is.
const TARGETS: [Ipv4Addr; 2] = [anchors::CLOUDFLARE_PRIMARY, anchors::QUAD9_PRIMARY];

/// One calendar month of the observation window, with the monthly flow
/// intensity for each target precomputed in the planning pass.
struct MonthInfo {
    start: DateStamp,
    days: u32,
    intensity: [f64; 2],
}

/// Virtual instant of a calendar day on the generation timeline.
fn day_instant(origin: DateStamp, date: DateStamp) -> SimTime {
    SimTime::EPOCH + SimDuration::from_secs((date - origin).max(0) as u64 * 86_400)
}

/// A persistent netblock as an emitter machine: one scheduler event per
/// day, emitting that day's Poisson draw for every active target, then
/// rescheduling itself for the next day. Owns its RNG stream, so the
/// records it emits don't depend on what other machines do.
struct BlockEmitter {
    block: Netblock,
    /// `(1 - temp_share) · w / Σshares` — multiply by monthly/days for λ.
    weight_term: f64,
    rng: SmallRng,
    month: usize,
    day: u32,
}

impl BlockEmitter {
    fn on_event(
        &mut self,
        months: &[MonthInfo],
        sched: &mut Scheduler,
        index: u64,
        out: &mut Vec<FlowRecord>,
    ) {
        let mi = &months[self.month];
        let date = mi.start + self.day as i64;
        for (t, dst) in TARGETS.iter().enumerate() {
            let monthly = mi.intensity[t];
            if monthly <= 0.0 {
                continue;
            }
            let lambda_day = monthly * self.weight_term / mi.days as f64;
            let n = poisson(lambda_day, &mut self.rng);
            for _ in 0..n {
                out.push(dot_record(
                    block_addr(self.block, &mut self.rng),
                    *dst,
                    date,
                    &mut self.rng,
                ));
            }
        }
        self.day += 1;
        if self.day >= mi.days {
            self.day = 0;
            self.month += 1;
        }
        if let Some(next) = months.get(self.month) {
            sched.schedule(
                day_instant(months[0].start, next.start + self.day as i64),
                index,
                SchedEvent::Timer {
                    token: self.month as u32,
                },
            );
        }
    }
}

/// One short-lived burst: a single event at its month's start that draws
/// the burst's placement and emits its 2–4 flows.
struct BurstEmitter {
    block: Netblock,
    dst: Ipv4Addr,
    month: usize,
    rng: SmallRng,
}

impl BurstEmitter {
    fn on_event(&mut self, months: &[MonthInfo], out: &mut Vec<FlowRecord>) {
        let mi = &months[self.month];
        let days = mi.days;
        let active_days = self.rng.gen_range(1..=5u32).min(days);
        let start_day = self
            .rng
            .gen_range(0..days.saturating_sub(active_days).max(1));
        let flows = self.rng.gen_range(2..=4u32);
        for f in 0..flows {
            let day = start_day + (f % active_days);
            out.push(dot_record(
                block_addr(self.block, &mut self.rng),
                self.dst,
                mi.start + day as i64,
                &mut self.rng,
            ));
        }
    }
}

enum TrafficMachine {
    Block(BlockEmitter),
    Burst(BurstEmitter),
}

/// RNG stream salts: one family per machine kind plus the planning pass.
const BLOCK_STREAM: u64 = 0x626c_6f63_6b73; // "blocks"
const BURST_STREAM: u64 = 0x6275_7273_7473; // "bursts"
const PLAN_STREAM: u64 = 0x706c_616e; // "plan"

/// Generate the dataset.
///
/// A planning pass lays out the netblock roster, the per-month target
/// intensities and the burst assignments; emission then runs event-driven
/// on a discrete-event [`Scheduler`]: every persistent netblock and every
/// burst is a machine with its own seeded RNG stream, firing in virtual-day
/// order off the heap. The heap's `(instant, schedule order)` total order
/// makes the emission sequence — and therefore the dataset —
/// deterministic.
pub fn generate_dot_traffic(cfg: &DotTrafficConfig) -> TrafficDataset {
    // --- Planning pass -------------------------------------------------
    let mut plan_rng = SmallRng::seed_from_u64(mix_seed(cfg.seed, PLAN_STREAM));

    // Netblock roster: 20 heavy + ~180 steady + temporaries.
    let heavy_count = 20usize;
    let steady_count = (cfg.total_netblocks as f64 * 0.04 - heavy_count as f64).max(50.0) as usize;
    let mut persistent_blocks = Vec::new();
    for i in 0..(heavy_count + steady_count) {
        persistent_blocks.push(Netblock::new(
            Ipv4Addr::new(80, (i / 250) as u8, (i % 250) as u8, 0),
            24,
        ));
    }
    let temp_total = cfg.total_netblocks as usize - persistent_blocks.len();
    let mut temporary_blocks = Vec::new();
    for i in 0..temp_total {
        temporary_blocks.push(Netblock::new(
            Ipv4Addr::new(
                81 + (i / 65_000) as u8,
                ((i / 250) % 260) as u8,
                (i % 250) as u8,
                0,
            ),
            24,
        ));
    }

    // Per-block weight among the persistent set.
    // top5 : next15 : steady = top5_share : next15_share : rest-temp.
    let steady_share = (1.0 - cfg.top5_share - cfg.next15_share - cfg.temporary_share).max(0.02);
    let mut weights: Vec<f64> = Vec::with_capacity(persistent_blocks.len());
    for i in 0..persistent_blocks.len() {
        let w = if i < 5 {
            cfg.top5_share / 5.0
        } else if i < 20 {
            cfg.next15_share / 15.0
        } else {
            steady_share / steady_count as f64
        };
        weights.push(w);
    }
    let shares_sum = cfg.top5_share + cfg.next15_share + steady_share;

    // Month calendar with per-target intensities (Quad9's fluctuation is
    // drawn here, in month order, from the planning stream).
    let months: Vec<MonthInfo> = (0..cfg.months)
        .map(|month| {
            let start = cfg.start.add_months(month);
            let days = (cfg.start.add_months(month + 1) - start) as u32;
            MonthInfo {
                start,
                days,
                intensity: [
                    cloudflare_monthly(cfg, start),
                    quad9_monthly(cfg, month, &mut plan_rng),
                ],
            }
        })
        .collect();

    // --- Machine construction ------------------------------------------
    let mut machines: Vec<TrafficMachine> = persistent_blocks
        .iter()
        .zip(&weights)
        .enumerate()
        .map(|(i, (block, w))| {
            TrafficMachine::Block(BlockEmitter {
                block: *block,
                weight_term: (1.0 - cfg.temporary_share) * w / shares_sum,
                rng: SmallRng::seed_from_u64(mix_seed(mix_seed(cfg.seed, BLOCK_STREAM), i as u64)),
                month: 0,
                day: 0,
            })
        })
        .collect();

    // Temporary blocks: burst assignments walk the roster in plan order,
    // exactly as the sequential generator's cursor did.
    let mut temp_cursor = 0usize;
    let mut burst_count = 0u64;
    for (month, mi) in months.iter().enumerate() {
        for (t, dst) in TARGETS.iter().enumerate() {
            if mi.intensity[t] <= 0.0 {
                continue;
            }
            let bursts = (mi.intensity[t] * cfg.temporary_share / 3.0).round() as usize;
            for _ in 0..bursts {
                if temp_cursor >= temporary_blocks.len() {
                    temp_cursor = 0;
                }
                let block = temporary_blocks[temp_cursor];
                temp_cursor += 1;
                machines.push(TrafficMachine::Burst(BurstEmitter {
                    block,
                    dst: *dst,
                    month,
                    rng: SmallRng::seed_from_u64(mix_seed(
                        mix_seed(cfg.seed, BURST_STREAM),
                        burst_count,
                    )),
                }));
                burst_count += 1;
            }
        }
    }

    // --- Event-driven emission -----------------------------------------
    let mut sched = Scheduler::new();
    for (i, machine) in machines.iter().enumerate() {
        match machine {
            TrafficMachine::Block(_) => {
                sched.schedule(
                    day_instant(cfg.start, months[0].start),
                    i as u64,
                    SchedEvent::Timer { token: 0 },
                );
            }
            TrafficMachine::Burst(b) => {
                sched.schedule(
                    day_instant(cfg.start, months[b.month].start),
                    i as u64,
                    SchedEvent::Timer {
                        token: b.month as u32,
                    },
                );
            }
        }
    }
    let mut records: Vec<FlowRecord> = Vec::new();
    while let Some(fired) = sched.pop() {
        match &mut machines[fired.machine as usize] {
            TrafficMachine::Block(b) => {
                b.on_event(&months, &mut sched, fired.machine, &mut records)
            }
            TrafficMachine::Burst(b) => b.on_event(&months, &mut records),
        }
    }

    // Research scanners: port-853 SYNs sprayed across many destinations —
    // present on the wire, excluded by the single-SYN rule and flagged by
    // the detector.
    let scanner: Ipv4Addr = "198.51.100.10".parse().expect("static");
    for i in 0..400u32 {
        records.push(FlowRecord {
            src: scanner,
            dst: Ipv4Addr::new(5, (i % 200) as u8 + 1, (i / 200) as u8, 1),
            dst_port: 853,
            sampled_packets: 1,
            bytes: 40,
            tcp_flags: TCP_SYN,
            date: DateStamp::from_ymd(2019, 2, 1),
        });
    }

    records.sort_by_key(|r| r.date);
    let do53_monthly_estimate = cfg.cloudflare_dec2018 * cfg.do53_ratio;
    TrafficDataset {
        records,
        temporary_blocks,
        persistent_blocks,
        do53_monthly_estimate,
        scanner_sources: vec![scanner],
    }
}

fn dot_record(src: Ipv4Addr, dst: Ipv4Addr, date: DateStamp, rng: &mut SmallRng) -> FlowRecord {
    FlowRecord {
        src,
        dst,
        dst_port: 853,
        sampled_packets: rng.gen_range(1..=3),
        bytes: rng.gen_range(150..900),
        tcp_flags: TCP_SYN | TCP_ACK | TCP_PSH | TCP_FIN,
        date,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monthly_cloudflare_counts_hit_calibration() {
        let cfg = DotTrafficConfig::default();
        let ds = generate_dot_traffic(&cfg);
        let month_count = |y: i32, m: u32| {
            let start = DateStamp::from_ymd(y, m, 1);
            let end = start.add_months(1);
            ds.records
                .iter()
                .filter(|r| r.dst == anchors::CLOUDFLARE_PRIMARY && r.date >= start && r.date < end)
                .count() as f64
        };
        let jul = month_count(2018, 7);
        let dec = month_count(2018, 12);
        assert!((4_200.0..5_200.0).contains(&jul), "Jul 2018: {jul}");
        assert!((6_600.0..8_000.0).contains(&dec), "Dec 2018: {dec}");
        let growth = (dec - jul) / jul;
        assert!(
            (0.40..0.75).contains(&growth),
            "growth {growth} (paper: 56%)"
        );
        // Nothing before the launch.
        assert_eq!(month_count(2018, 1), 0.0);
    }

    #[test]
    fn quad9_present_through_whole_window() {
        let cfg = DotTrafficConfig::default();
        let ds = generate_dot_traffic(&cfg);
        let early = ds
            .records
            .iter()
            .filter(|r| {
                r.dst == anchors::QUAD9_PRIMARY && r.date < DateStamp::from_ymd(2017, 10, 1)
            })
            .count();
        assert!(early > 100, "Quad9 flows early in the window: {early}");
    }

    #[test]
    fn do53_dwarfs_dot() {
        let cfg = DotTrafficConfig::default();
        let ds = generate_dot_traffic(&cfg);
        assert!(ds.do53_monthly_estimate / cfg.cloudflare_dec2018 >= 100.0);
    }

    #[test]
    fn deterministic() {
        let cfg = DotTrafficConfig::default();
        let a = generate_dot_traffic(&cfg);
        let b = generate_dot_traffic(&cfg);
        assert_eq!(a.records.len(), b.records.len());
        assert_eq!(a.records[100], b.records[100]);
    }
}
