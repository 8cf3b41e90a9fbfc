//! The latency model: inter-region base RTTs, per-country access quality,
//! anycast short-circuiting and lognormal jitter.
//!
//! The paper's performance study (§4.3, Figure 9, Table 7) is entirely
//! about *relative* latency — Do53 vs DoT vs DoH over identical paths — so
//! what matters here is that (a) paths have realistic magnitudes, (b) the
//! same path yields correlated samples across protocols, and (c) per-country
//! differences (e.g. Indonesia's noisy last mile) are expressible.

use crate::geo::{CountryCode, Region};
use crate::time::SimDuration;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Base one-way-pair RTTs between regions, in milliseconds.
///
/// Symmetric matrix indexed by [`Region::index`]. Values are coarse public
/// figures for inter-continental paths.
const REGION_RTT_MS: [[f64; 6]; 6] = [
    //            NA     SA     EU     AF     AS     OC
    /* NA */
    [18.0, 120.0, 90.0, 180.0, 185.0, 160.0],
    /* SA */ [120.0, 25.0, 190.0, 250.0, 280.0, 250.0],
    /* EU */ [90.0, 190.0, 16.0, 120.0, 180.0, 260.0],
    /* AF */ [180.0, 250.0, 120.0, 40.0, 200.0, 300.0],
    /* AS */ [185.0, 280.0, 180.0, 200.0, 45.0, 120.0],
    /* OC */ [160.0, 250.0, 260.0, 300.0, 120.0, 20.0],
];

/// Per-path latency characteristics attached to host pairs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyProfile {
    /// Median last-mile access delay added per endpoint, ms.
    pub access_ms: f64,
    /// Multiplicative jitter sigma (lognormal scale; 0 = deterministic).
    pub jitter_sigma: f64,
    /// Probability that a single packet exchange is lost/retransmitted,
    /// charging one extra RTT.
    pub loss: f64,
}

impl Default for LatencyProfile {
    fn default() -> Self {
        LatencyProfile {
            access_ms: 4.0,
            jitter_sigma: 0.08,
            loss: 0.002,
        }
    }
}

/// Endpoint description consumed by the model.
#[derive(Debug, Clone, Copy)]
pub struct Endpoint {
    /// Latency region of the endpoint.
    pub region: Region,
    /// Country, for per-country overrides.
    pub country: CountryCode,
    /// Anycast services are reached at the nearest point of presence
    /// regardless of where the "home" host sits.
    pub anycast: bool,
}

/// The deterministic-given-seed latency model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Default per-path profile.
    pub default_profile: LatencyProfile,
    /// Country-specific overrides (looked up for *both* endpoints; the
    /// worse access/jitter wins, modelling the bottleneck last mile).
    pub country_profiles: HashMap<CountryCode, LatencyProfile>,
    /// RTT to the nearest anycast PoP, per region, ms.
    pub anycast_pop_ms: [f64; 6],
    /// Extra per-round-trip delay applied when the *client's* country
    /// slow-paths a destination port (DPI queueing / traffic engineering
    /// of DNS ports — what makes some countries' port-53 or port-853
    /// paths slower than their port-443 paths, Figure 9 of the paper).
    pub port_penalty_ms: HashMap<(CountryCode, u16), f64>,
    /// Bandwidth used to charge transmission time, bytes per millisecond.
    pub bytes_per_ms: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            default_profile: LatencyProfile::default(),
            country_profiles: HashMap::new(),
            // Anycast PoPs are dense in NA/EU, sparser elsewhere.
            anycast_pop_ms: [8.0, 35.0, 8.0, 45.0, 30.0, 25.0],
            port_penalty_ms: HashMap::new(),
            // ~10 Mbit/s residential downlink.
            bytes_per_ms: 1250.0,
        }
    }
}

impl LatencyModel {
    /// Register a country override.
    pub fn set_country_profile(&mut self, country: CountryCode, profile: LatencyProfile) {
        self.country_profiles.insert(country, profile);
    }

    /// Register a per-port penalty for clients in `country`.
    pub fn set_port_penalty(&mut self, country: CountryCode, port: u16, extra_ms: f64) {
        self.port_penalty_ms.insert((country, port), extra_ms);
    }

    /// The penalty (ms) a client in `country` pays per round trip to
    /// `port`, if any.
    pub fn port_penalty(&self, country: CountryCode, port: u16) -> f64 {
        self.port_penalty_ms
            .get(&(country, port))
            .copied()
            .unwrap_or(0.0)
    }

    fn profile_for(&self, country: CountryCode) -> LatencyProfile {
        self.country_profiles
            .get(&country)
            .copied()
            .unwrap_or(self.default_profile)
    }

    /// Resolve the path from `src` to `dst`: its base RTT (plus the
    /// source country's penalty for `port`, if given), the bottleneck
    /// endpoint's jitter sigma and its loss probability. A flow resolves
    /// its path once and samples it per round trip.
    pub fn path(&self, src: Endpoint, dst: Endpoint, port: Option<u16>) -> Path {
        let transit = if dst.anycast {
            self.anycast_pop_ms[src.region.index()]
        } else if src.anycast {
            self.anycast_pop_ms[dst.region.index()]
        } else {
            REGION_RTT_MS[src.region.index()][dst.region.index()]
        };
        let ps = self.profile_for(src.country);
        let pd = self.profile_for(dst.country);
        Path {
            base_ms: transit
                + ps.access_ms
                + pd.access_ms
                + port.map_or(0.0, |p| self.port_penalty(src.country, p)),
            jitter_sigma: ps.jitter_sigma.max(pd.jitter_sigma),
            loss: ps.loss.max(pd.loss),
        }
    }

    /// The deterministic base RTT between two endpoints, ms, before jitter.
    pub fn base_rtt_ms(&self, src: Endpoint, dst: Endpoint) -> f64 {
        self.path(src, dst, None).base_ms
    }

    /// Sample one round-trip time from `src` to `dst`, with the source
    /// country's penalty for the destination port if given.
    pub fn sample_rtt_port<R: Rng + ?Sized>(
        &self,
        src: Endpoint,
        dst: Endpoint,
        port: Option<u16>,
        rng: &mut R,
    ) -> SimDuration {
        self.path(src, dst, port).sample_rtt(rng)
    }

    /// Per-path loss probability (bottleneck endpoint's figure).
    pub fn loss_probability(&self, src: Endpoint, dst: Endpoint) -> f64 {
        self.path(src, dst, None).loss
    }

    /// Time to push `bytes` through the path, excluding propagation.
    pub fn transmission(&self, bytes: usize) -> SimDuration {
        SimDuration::from_millis_f64(bytes as f64 / self.bytes_per_ms)
    }
}

/// One resolved path ([`LatencyModel::path`]): the figures a round trip
/// needs, computed once per flow instead of once per sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Path {
    /// Base RTT before jitter, ms, port penalty included.
    base_ms: f64,
    /// Multiplicative jitter sigma of the bottleneck endpoint.
    jitter_sigma: f64,
    /// Per-exchange loss probability of the bottleneck endpoint.
    loss: f64,
}

impl Path {
    /// Sample one round-trip time.
    ///
    /// Jitter is multiplicative lognormal so tails are one-sided (paths
    /// get slower, not faster-than-light).
    pub fn sample_rtt<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        SimDuration::from_millis_f64(self.base_ms * lognormal_factor(self.jitter_sigma, rng))
    }

    /// Roll whether one packet exchange is lost and must be retransmitted.
    pub fn loss_roll<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen_bool(self.loss.clamp(0.0, 1.0))
    }
}

/// Sample `exp(sigma * Z)` with `Z ~ N(0,1)` via Box–Muller, normalised so
/// the *median* factor is 1.
fn lognormal_factor<R: Rng + ?Sized>(sigma: f64, rng: &mut R) -> f64 {
    if sigma <= 0.0 {
        return 1.0;
    }
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ep(cc: &str, anycast: bool) -> Endpoint {
        let country = CountryCode::new(cc);
        Endpoint {
            region: crate::geo::region_of(country),
            country,
            anycast,
        }
    }

    #[test]
    fn matrix_is_symmetric() {
        for (i, row) in REGION_RTT_MS.iter().enumerate() {
            for (j, &cell) in row.iter().enumerate() {
                assert_eq!(cell, REGION_RTT_MS[j][i], "({i},{j})");
            }
        }
    }

    #[test]
    fn intercontinental_slower_than_local() {
        let m = LatencyModel::default();
        let local = m.base_rtt_ms(ep("DE", false), ep("FR", false));
        let far = m.base_rtt_ms(ep("DE", false), ep("AU", false));
        assert!(far > 2.0 * local, "far {far} vs local {local}");
    }

    #[test]
    fn anycast_short_circuits_distance() {
        let m = LatencyModel::default();
        let au_to_us_unicast = m.base_rtt_ms(ep("AU", false), ep("US", false));
        let au_to_anycast = m.base_rtt_ms(ep("AU", false), ep("US", true));
        assert!(au_to_anycast < au_to_us_unicast / 3.0);
    }

    #[test]
    fn country_profile_raises_access_delay() {
        let mut m = LatencyModel::default();
        let before = m.base_rtt_ms(ep("ID", false), ep("US", true));
        m.set_country_profile(
            CountryCode::new("ID"),
            LatencyProfile {
                access_ms: 30.0,
                jitter_sigma: 0.4,
                loss: 0.02,
            },
        );
        let after = m.base_rtt_ms(ep("ID", false), ep("US", true));
        assert!(after > before + 20.0);
        assert!(m.loss_probability(ep("ID", false), ep("US", true)) >= 0.02);
    }

    #[test]
    fn jitter_is_median_neutral_and_positive() {
        let m = LatencyModel::default();
        let mut rng = SmallRng::seed_from_u64(7);
        let src = ep("US", false);
        let dst = ep("US", true);
        let base = m.base_rtt_ms(src, dst);
        let mut samples: Vec<f64> = (0..2001)
            .map(|_| m.path(src, dst, None).sample_rtt(&mut rng).as_millis_f64())
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!(
            (median - base).abs() / base < 0.05,
            "median {median} vs base {base}"
        );
        assert!(samples.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn determinism_under_same_seed() {
        let m = LatencyModel::default();
        let a: Vec<_> = {
            let mut rng = SmallRng::seed_from_u64(99);
            (0..16)
                .map(|_| m.sample_rtt_port(ep("BR", false), ep("US", true), None, &mut rng))
                .collect()
        };
        let b: Vec<_> = {
            let mut rng = SmallRng::seed_from_u64(99);
            (0..16)
                .map(|_| m.sample_rtt_port(ep("BR", false), ep("US", true), None, &mut rng))
                .collect()
        };
        assert_eq!(a, b);
    }

    /// Verbatim copies of the per-sample model that [`Path`] replaced:
    /// every sample used to look both endpoints' profiles up again.
    mod per_sample {
        use super::super::{Endpoint, LatencyModel, LatencyProfile, REGION_RTT_MS};
        use crate::geo::CountryCode;
        use crate::time::SimDuration;
        use rand::Rng;

        fn port_penalty(m: &LatencyModel, country: CountryCode, port: u16) -> f64 {
            m.port_penalty_ms
                .get(&(country, port))
                .copied()
                .unwrap_or(0.0)
        }

        fn profile_for(m: &LatencyModel, country: CountryCode) -> LatencyProfile {
            m.country_profiles
                .get(&country)
                .copied()
                .unwrap_or(m.default_profile)
        }

        fn base_rtt_ms(m: &LatencyModel, src: Endpoint, dst: Endpoint) -> f64 {
            let transit = if dst.anycast {
                m.anycast_pop_ms[src.region.index()]
            } else if src.anycast {
                m.anycast_pop_ms[dst.region.index()]
            } else {
                REGION_RTT_MS[src.region.index()][dst.region.index()]
            };
            let ps = profile_for(m, src.country);
            let pd = profile_for(m, dst.country);
            transit + ps.access_ms + pd.access_ms
        }

        pub fn sample_rtt_port<R: Rng + ?Sized>(
            m: &LatencyModel,
            src: Endpoint,
            dst: Endpoint,
            port: Option<u16>,
            rng: &mut R,
        ) -> SimDuration {
            let base =
                base_rtt_ms(m, src, dst) + port.map_or(0.0, |p| port_penalty(m, src.country, p));
            let sigma = profile_for(m, src.country)
                .jitter_sigma
                .max(profile_for(m, dst.country).jitter_sigma);
            let rtt = base * lognormal_factor(sigma, rng);
            SimDuration::from_millis_f64(rtt)
        }

        pub fn loss_probability(m: &LatencyModel, src: Endpoint, dst: Endpoint) -> f64 {
            profile_for(m, src.country)
                .loss
                .max(profile_for(m, dst.country).loss)
        }

        fn lognormal_factor<R: Rng + ?Sized>(sigma: f64, rng: &mut R) -> f64 {
            if sigma <= 0.0 {
                return 1.0;
            }
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (sigma * z).exp()
        }
    }

    const COUNTRIES: [&str; 5] = ["US", "BR", "DE", "ID", "AU"];

    fn arb_endpoint() -> impl Strategy<Value = Endpoint> {
        (0usize..COUNTRIES.len(), any::<bool>()).prop_map(|(i, anycast)| ep(COUNTRIES[i], anycast))
    }

    proptest! {
        #[test]
        fn path_draws_what_the_per_sample_model_drew(
            profiles in proptest::collection::vec(
                (0usize..COUNTRIES.len(), 0u32..60_000, 0u32..1_200, 0u32..1_100),
                0..6,
            ),
            penalties in proptest::collection::vec(
                (0usize..COUNTRIES.len(), prop_oneof![Just(53u16), Just(853u16), any::<u16>()], 0u32..90_000),
                0..6,
            ),
            flows in proptest::collection::vec(
                (arb_endpoint(), arb_endpoint(), prop_oneof![Just(None), Just(Some(853u16)), any::<u16>().prop_map(Some)]),
                1..8,
            ),
            ops in proptest::collection::vec(any::<bool>(), 1..12),
            seed in any::<u64>(),
        ) {
            let mut m = LatencyModel::default();
            for (c, access_milli, sigma_milli, loss_milli) in profiles {
                m.set_country_profile(
                    CountryCode::new(COUNTRIES[c]),
                    LatencyProfile {
                        access_ms: f64::from(access_milli) / 1000.0,
                        jitter_sigma: f64::from(sigma_milli) / 1000.0,
                        // Up to 1.1: a roll clamps the probability to 1.
                        loss: f64::from(loss_milli) / 1000.0,
                    },
                );
            }
            for (c, port, extra_milli) in penalties {
                m.set_port_penalty(CountryCode::new(COUNTRIES[c]), port, f64::from(extra_milli) / 1000.0);
            }
            let mut old_rng = SmallRng::seed_from_u64(seed);
            let mut new_rng = SmallRng::seed_from_u64(seed);
            for (src, dst, port) in flows {
                let path = m.path(src, dst, port);
                for &is_rtt in &ops {
                    if is_rtt {
                        let old = per_sample::sample_rtt_port(&m, src, dst, port, &mut old_rng);
                        prop_assert_eq!(path.sample_rtt(&mut new_rng), old);
                    } else {
                        let p = per_sample::loss_probability(&m, src, dst);
                        let old = old_rng.gen_bool(p.clamp(0.0, 1.0));
                        prop_assert_eq!(path.loss_roll(&mut new_rng), old);
                    }
                }
                prop_assert_eq!(
                    m.loss_probability(src, dst),
                    per_sample::loss_probability(&m, src, dst)
                );
            }
            // Same draws in the same order: the streams end level.
            prop_assert_eq!(new_rng.gen::<u64>(), old_rng.gen::<u64>());
        }
    }

    #[test]
    fn transmission_scales_with_bytes() {
        let m = LatencyModel::default();
        assert_eq!(m.transmission(0), SimDuration::ZERO);
        assert!(m.transmission(12_500) >= SimDuration::from_millis(9));
    }
}
