//! Calibration constants and the world configuration.
//!
//! Every number here traces to a figure the paper reports; the comment on
//! each entry says which. The measurement pipeline must *recover* these
//! rates — tests compare measured against configured within tolerances.

use tlssim::DateStamp;

/// Per-country calibration for client populations.
#[derive(Debug, Clone, Copy)]
pub struct CountrySpec {
    /// ISO code.
    pub cc: &'static str,
    /// ProxyRack-like clients at scale 1.0.
    pub proxyrack_clients: u32,
    /// Fraction of the country's client ASes whose port-53 path to
    /// *prominent* resolver addresses is filtered (§4.2: 16% of global
    /// clients fail Cloudflare/Google clear-text DNS, over 60% of the
    /// affected in ID/VN/IN).
    pub filter53_rate: f64,
    /// Fraction of client ASes with a device squatting on 1.1.1.1
    /// (Finding 2.1: Cloudflare DoT fails for ~1.1% of clients).
    pub conflict_rate: f64,
    /// Last-mile access delay, ms.
    pub access_ms: f64,
    /// Lognormal jitter sigma.
    pub jitter: f64,
    /// Per-exchange loss probability.
    pub loss: f64,
    /// Port-53 shaping penalty, ms (DPI slow-pathing of clear DNS —
    /// what makes DoH *faster* than Do53 in India, Finding 3.2).
    pub penalty_53_ms: f64,
    /// Port-853 shaping penalty, ms (Indonesia's above-average DoT
    /// overhead, Finding 3.2).
    pub penalty_853_ms: f64,
}

#[allow(clippy::too_many_arguments)] // one row of the calibration table
const fn c(
    cc: &'static str,
    clients: u32,
    filter53: f64,
    conflict: f64,
    access: f64,
    jitter: f64,
    loss: f64,
    p53: f64,
    p853: f64,
) -> CountrySpec {
    CountrySpec {
        cc,
        proxyrack_clients: clients,
        filter53_rate: filter53,
        conflict_rate: conflict,
        access_ms: access,
        jitter,
        loss,
        penalty_53_ms: p53,
        penalty_853_ms: p853,
    }
}

/// The explicitly-calibrated countries (others come from
/// [`TAIL_COUNTRIES`]).
pub const COUNTRY_TABLE: &[CountrySpec] = &[
    //  cc    clients fil53 conflict access jitter loss   p53   p853
    c("US", 2300, 0.05, 0.006, 3.0, 0.06, 0.001, 0.0, 0.0),
    c("BR", 2100, 0.08, 0.020, 7.0, 0.12, 0.004, 0.0, 0.0),
    c("VN", 2000, 0.62, 0.008, 9.0, 0.18, 0.006, 15.0, 0.0),
    c("ID", 1800, 0.62, 0.020, 10.0, 0.22, 0.008, 12.0, 35.0),
    c("RU", 1300, 0.07, 0.012, 5.0, 0.10, 0.003, 0.0, 0.0),
    c("IN", 1000, 0.55, 0.008, 9.0, 0.20, 0.006, 100.0, 95.0),
    c("TH", 750, 0.15, 0.008, 7.0, 0.12, 0.004, 5.0, 0.0),
    c("UA", 700, 0.08, 0.006, 5.0, 0.10, 0.003, 0.0, 0.0),
    c("PL", 650, 0.05, 0.006, 4.0, 0.08, 0.002, 0.0, 0.0),
    c("DE", 650, 0.04, 0.004, 3.0, 0.06, 0.001, 0.0, 0.0),
    c("GB", 630, 0.04, 0.004, 3.0, 0.06, 0.001, 0.0, 0.0),
    c("FR", 620, 0.04, 0.004, 3.5, 0.06, 0.001, 0.0, 0.0),
    c("IT", 600, 0.06, 0.015, 4.0, 0.08, 0.002, 0.0, 0.0),
    c("ES", 550, 0.05, 0.006, 4.0, 0.07, 0.002, 0.0, 0.0),
    c("TR", 540, 0.12, 0.008, 6.0, 0.10, 0.003, 4.0, 0.0),
    c("EG", 520, 0.12, 0.008, 8.0, 0.14, 0.005, 5.0, 0.0),
    c("MX", 500, 0.07, 0.008, 6.0, 0.10, 0.003, 0.0, 0.0),
    c("AR", 480, 0.07, 0.006, 6.5, 0.10, 0.003, 0.0, 0.0),
    c("CO", 460, 0.08, 0.008, 7.0, 0.11, 0.003, 0.0, 0.0),
    c("MY", 450, 0.10, 0.015, 6.0, 0.10, 0.003, 4.0, 0.0),
    c("PH", 430, 0.14, 0.008, 9.0, 0.16, 0.005, 6.0, 0.0),
    c("BD", 420, 0.20, 0.008, 10.0, 0.18, 0.006, 8.0, 0.0),
    c("PK", 400, 0.20, 0.008, 9.0, 0.16, 0.006, 8.0, 0.0),
    c("NG", 380, 0.10, 0.008, 11.0, 0.20, 0.008, 0.0, 0.0),
    c("ZA", 370, 0.06, 0.006, 7.0, 0.10, 0.003, 0.0, 0.0),
    c("KR", 350, 0.05, 0.012, 2.5, 0.05, 0.001, 0.0, 0.0),
    c("JP", 350, 0.04, 0.010, 2.5, 0.05, 0.001, 0.0, 0.0),
    c("CA", 340, 0.04, 0.004, 3.0, 0.06, 0.001, 0.0, 0.0),
    c("NL", 330, 0.03, 0.004, 2.5, 0.05, 0.001, 0.0, 0.0),
    c("RO", 320, 0.05, 0.006, 4.0, 0.08, 0.002, 0.0, 0.0),
    c("CZ", 310, 0.04, 0.004, 3.5, 0.07, 0.002, 0.0, 0.0),
    c("HU", 300, 0.05, 0.006, 4.0, 0.08, 0.002, 0.0, 0.0),
    c("GR", 300, 0.06, 0.006, 4.5, 0.08, 0.002, 0.0, 0.0),
    c("PT", 290, 0.05, 0.006, 4.0, 0.07, 0.002, 0.0, 0.0),
    c("SE", 280, 0.03, 0.004, 3.0, 0.06, 0.001, 0.0, 0.0),
    c("BG", 270, 0.05, 0.006, 4.0, 0.08, 0.002, 0.0, 0.0),
    c("RS", 260, 0.06, 0.006, 4.5, 0.08, 0.002, 0.0, 0.0),
    c("CL", 250, 0.06, 0.006, 6.0, 0.09, 0.003, 0.0, 0.0),
    c("PE", 240, 0.08, 0.008, 7.0, 0.11, 0.003, 0.0, 0.0),
    c("VE", 230, 0.10, 0.008, 8.0, 0.14, 0.005, 0.0, 0.0),
    c("AU", 230, 0.04, 0.004, 4.0, 0.07, 0.002, 0.0, 0.0),
    c("TW", 220, 0.04, 0.006, 3.0, 0.06, 0.001, 0.0, 0.0),
    c("HK", 210, 0.04, 0.006, 2.5, 0.05, 0.001, 0.0, 0.0),
    c("SG", 200, 0.03, 0.004, 2.5, 0.05, 0.001, 0.0, 0.0),
    c("IL", 190, 0.05, 0.006, 4.0, 0.07, 0.002, 0.0, 0.0),
    c("SA", 180, 0.10, 0.008, 6.0, 0.10, 0.003, 0.0, 0.0),
    c("AE", 170, 0.09, 0.006, 5.0, 0.09, 0.002, 0.0, 0.0),
    c("KE", 160, 0.08, 0.008, 10.0, 0.16, 0.006, 0.0, 0.0),
    c("MA", 150, 0.08, 0.008, 8.0, 0.13, 0.004, 0.0, 0.0),
    // Few ProxyRack exits inside China (Finding 2.2's global side).
    c("CN", 40, 0.20, 0.008, 6.0, 0.10, 0.003, 0.0, 0.0),
];

/// The remaining countries of the 166-country footprint (Table 3); each
/// receives a small equal share of clients and default middlebox rates.
pub const TAIL_COUNTRIES: &[&str] = &[
    "AF", "AL", "AM", "AO", "AT", "AZ", "BA", "BE", "BF", "BH", "BI", "BJ", "BN", "BO", "BS", "BT",
    "BW", "BY", "BZ", "CD", "CF", "CG", "CH", "CI", "CM", "CR", "CU", "CV", "CY", "DJ", "DK", "DM",
    "DO", "DZ", "EC", "EE", "ER", "ET", "FI", "FJ", "GA", "GD", "GE", "GH", "GM", "GN", "GQ", "GT",
    "GW", "GY", "HN", "HR", "HT", "IE", "IQ", "IR", "IS", "JM", "JO", "KG", "KH", "KM", "KW", "KZ",
    "LA", "LB", "LC", "LI", "LK", "LR", "LS", "LT", "LU", "LV", "LY", "MC", "MD", "ME", "MG", "MK",
    "ML", "MM", "MN", "MR", "MT", "MU", "MV", "MW", "MZ", "NA", "NE", "NI", "NO", "NP", "NZ", "OM",
    "PA", "PG", "PY", "QA", "RW", "SC", "SD", "SI", "SK", "SL", "SM", "SN", "SO", "SR", "SV", "SY",
    "SZ", "TD", "TG", "TJ", "TM", "TN", "TO", "TZ", "UG", "UY", "UZ", "VU", "WS", "YE", "ZM", "ZW",
];

/// Per-country open-DoT-resolver counts at the first and last scan —
/// Table 2 of the paper, verbatim.
pub const DOT_COUNTRY_COUNTS: &[(&str, u32, u32)] = &[
    ("IE", 456, 951),
    ("CN", 257, 40),
    ("US", 100, 531),
    ("DE", 71, 86),
    ("FR", 59, 56),
    ("JP", 34, 27),
    ("NL", 30, 36),
    ("GB", 25, 21),
    ("BR", 22, 49),
    ("RU", 17, 40),
];

/// Countries hosting the long tail of DoT resolvers beyond Table 2's top
/// ten, with (Feb 1, May 1) totals summing to a few hundred.
pub const DOT_TAIL_COUNTRY_COUNTS: &[(&str, u32, u32)] = &[
    ("CA", 21, 30),
    ("AU", 19, 27),
    ("SG", 18, 26),
    ("CH", 17, 23),
    ("SE", 16, 21),
    ("AT", 14, 19),
    ("FI", 14, 19),
    ("PL", 13, 18),
    ("CZ", 12, 16),
    ("IT", 12, 16),
    ("ES", 11, 14),
    ("HK", 11, 16),
    ("KR", 10, 14),
    ("IN", 10, 16),
    ("ZA", 9, 12),
    ("TW", 9, 12),
    ("NO", 8, 11),
    ("DK", 8, 11),
    ("RO", 7, 10),
    ("BG", 7, 9),
    ("UA", 7, 10),
    ("MX", 6, 9),
    ("AR", 6, 8),
    ("TH", 6, 8),
    ("MY", 5, 7),
    ("VN", 5, 7),
    ("ID", 5, 8),
    ("TR", 5, 7),
    ("IL", 4, 6),
    ("NZ", 4, 6),
    ("GR", 4, 5),
    ("PT", 4, 5),
    ("HU", 3, 5),
    ("SK", 3, 4),
    ("EE", 3, 4),
    ("LT", 3, 4),
    ("LV", 3, 4),
    ("SI", 2, 3),
    ("HR", 2, 3),
    ("RS", 2, 3),
    ("CL", 2, 3),
    ("CO", 2, 3),
    ("PE", 2, 3),
    ("KZ", 1, 2),
    ("LU", 1, 2),
];

/// The ten scan dates: every 10 days from 2019-02-01 to 2019-05-01 (§3.1).
pub const SCAN_EPOCHS: usize = 10;

/// World-construction parameters.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Scale factor for *client* populations and corpus/junk sizes
    /// (resolver deployment is always full size — it's small). 1.0 is
    /// paper scale; tests use ~0.02.
    pub scale: f64,
    /// ProxyRack-like pool size at scale 1.0 (Table 3).
    pub proxyrack_total: u32,
    /// Zhima-like pool size at scale 1.0 (Table 3).
    pub zhima_total: u32,
    /// Fraction of ProxyRack clients included in the performance subset
    /// (8,257 / 29,622, Table 3).
    pub perf_subset: f64,
    /// TLS-intercepted clients in the global pool at scale 1.0
    /// (Finding 2.3 found 17 of 29,622).
    pub interceptor_clients: u32,
    /// Hosts with port 853 open that are not DoT resolvers, at scale 1.0.
    /// The paper saw 2-3 million across the whole IPv4 space (§3.2,
    /// Table 3); the full population is simulated — the hosts live in
    /// shared [`netsim::HostBand`]s, so the count costs bytes per band,
    /// not per host.
    pub junk_853_hosts: u32,
    /// Noise URLs in the discovery corpus at scale 1.0 (plus decoys and
    /// the 61 genuine DoH URLs).
    pub corpus_noise_urls: u32,
    /// RIPE-Atlas-like probes at scale 1.0 (§3.1 used 6,655).
    pub atlas_probes: u32,
    /// Fraction of ISP local resolvers with DoT enabled (24/6,655).
    pub isp_dot_rate: f64,
    /// Fraction of the CN pool behind 1.1.1.1 port-53/853 filtering
    /// (Table 4, Zhima rows: ~15%).
    pub cn_cloudflare_filter_rate: f64,
    /// Fraction of the CN pool whose path to 8.8.8.8:53 fails (Table 4:
    /// ~1%).
    pub cn_google_dns_filter_rate: f64,
    /// First scan date.
    pub first_scan: DateStamp,
    /// Days between scans.
    pub scan_interval_days: i64,
    /// Network event-trace capacity (0 = tracing off). Campaigns leave
    /// this at 0; `repro --trace` turns it on.
    pub trace_capacity: usize,
    /// Whether the network collects telemetry (`repro --metrics`). On by
    /// default; off makes every metric operation a no-op.
    pub metrics: bool,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 2019,
            scale: 1.0,
            proxyrack_total: 29_622,
            zhima_total: 85_112,
            perf_subset: 8_257.0 / 29_622.0,
            interceptor_clients: 17,
            junk_853_hosts: 2_500_000,
            corpus_noise_urls: 120_000,
            atlas_probes: 6_655,
            isp_dot_rate: 24.0 / 6_655.0,
            cn_cloudflare_filter_rate: 0.151,
            cn_google_dns_filter_rate: 0.0105,
            first_scan: DateStamp::from_ymd(2019, 2, 1),
            scan_interval_days: 10,
            trace_capacity: 0,
            metrics: true,
        }
    }
}

impl WorldConfig {
    /// A configuration scaled down for fast tests.
    pub fn test_scale(seed: u64) -> Self {
        WorldConfig {
            seed,
            scale: 0.02,
            ..WorldConfig::default()
        }
    }

    /// Scale a count, keeping at least `min` when the base is non-zero.
    pub fn scaled(&self, base: u32, min: u32) -> u32 {
        if base == 0 {
            return 0;
        }
        (((base as f64) * self.scale).round() as u32).max(min)
    }

    /// The date of scan epoch `i` (0-based).
    pub fn scan_date(&self, epoch: usize) -> DateStamp {
        self.first_scan + (epoch as i64) * self.scan_interval_days
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn country_table_totals_are_near_paper_scale() {
        let listed: u32 = COUNTRY_TABLE.iter().map(|c| c.proxyrack_clients).sum();
        // Tail countries each get a small share in clients.rs; listed
        // countries should carry the bulk.
        assert!(listed > 24_000 && listed < 29_622, "listed={listed}");
        // 50 listed + 128 tail ≥ 166 countries.
        assert!(COUNTRY_TABLE.len() + TAIL_COUNTRIES.len() >= 166);
    }

    #[test]
    fn no_duplicate_country_codes() {
        let mut seen = std::collections::HashSet::new();
        for spec in COUNTRY_TABLE {
            assert!(seen.insert(spec.cc), "duplicate {}", spec.cc);
        }
        for cc in TAIL_COUNTRIES {
            assert!(seen.insert(*cc), "duplicate tail {cc}");
        }
    }

    #[test]
    fn table2_counts_verbatim() {
        let ie = DOT_COUNTRY_COUNTS.iter().find(|e| e.0 == "IE").unwrap();
        assert_eq!((ie.1, ie.2), (456, 951));
        let cn = DOT_COUNTRY_COUNTS.iter().find(|e| e.0 == "CN").unwrap();
        assert_eq!((cn.1, cn.2), (257, 40));
        let us = DOT_COUNTRY_COUNTS.iter().find(|e| e.0 == "US").unwrap();
        assert_eq!((us.1, us.2), (100, 531));
    }

    #[test]
    fn scan_dates_span_feb_to_may() {
        let cfg = WorldConfig::default();
        assert_eq!(cfg.scan_date(0).to_string(), "2019-02-01");
        assert_eq!(cfg.scan_date(9).to_string(), "2019-05-02");
        // The paper's "May 1" final scan: epoch 9 at a 10-day cadence
        // lands on May 2; close enough that we label it May 1 in reports.
    }

    #[test]
    fn scaled_counts_respect_minimum() {
        let cfg = WorldConfig::test_scale(1);
        assert_eq!(
            cfg.scaled(29_622, 50),
            ((29_622f64 * 0.02).round() as u32).max(50)
        );
        assert_eq!(cfg.scaled(0, 5), 0);
        assert_eq!(cfg.scaled(10, 5), 5);
    }

    #[test]
    fn filter_rates_put_most_failures_in_id_vn_in() {
        // Expected affected clients: sum(count * rate).
        let affected: f64 = COUNTRY_TABLE
            .iter()
            .map(|c| c.proxyrack_clients as f64 * c.filter53_rate)
            .sum();
        let idvnin: f64 = COUNTRY_TABLE
            .iter()
            .filter(|c| ["ID", "VN", "IN"].contains(&c.cc))
            .map(|c| c.proxyrack_clients as f64 * c.filter53_rate)
            .sum();
        assert!(
            idvnin / affected > 0.55,
            "ID+VN+IN carry {:.0}% of expected failures",
            100.0 * idvnin / affected
        );
        // Global failure rate in the right ballpark (~16%).
        let total: f64 = COUNTRY_TABLE
            .iter()
            .map(|c| c.proxyrack_clients as f64)
            .sum();
        let rate = affected / total;
        assert!((0.12..=0.22).contains(&rate), "global rate {rate}");
    }
}
