//! # doe-scanner — Internet-wide discovery of DNS-over-Encryption servers
//!
//! Reproduces Section 3 of the paper:
//!
//! * [`permutation`] — ZMap-style full-period random permutation of the
//!   target address space, so probes arrive in an order uncorrelated with
//!   address locality (§3.1: "cover the entire IPv4 address space in a
//!   random order"),
//! * [`sweep`] — the port-853 SYN sweep from the three scanner sources,
//! * [`verify`] — the getdns-style application-layer check: a DoT query
//!   for the study's own domain decides "open DoT resolver", the
//!   certificate chain is collected openssl-style and classified
//!   (Finding 1.2), answers are validated against authoritative ground
//!   truth, and providers are grouped by certificate CN / SLD,
//! * [`doh_discovery`] — grepping the URL corpus for common DoH paths and
//!   validating candidates with real DoH queries (§3.1's second half),
//! * [`campaign`] — the ten-epoch longitudinal campaign producing the
//!   series behind Figure 3, Figure 4 and Table 2,
//! * [`atlas`] — the RIPE-Atlas-style probe of ISP local resolvers
//!   (footnote 1: 24 of 6,655 probes, excluding those configured with
//!   public resolvers).

pub mod atlas;
pub mod campaign;

/// Derive a DNS transaction id from a probe counter. The single blessed
/// narrowing in this crate: the mask makes the 16-bit wrap explicit
/// instead of letting `as u16` truncate silently at probe 65 536.
pub(crate) fn txid(i: usize) -> u16 {
    (i & 0xFFFF) as u16 // doe-lint: allow(D005) — masked to the u16 domain on the previous token
}

pub mod doh_discovery;
pub mod observation;
pub mod permutation;
pub mod provider;
pub mod sweep;
pub mod verify;

pub use atlas::{local_resolver_probe, AtlasReport};
pub use campaign::{run_campaign_sharded, CampaignReport, EpochSummary};
pub use doh_discovery::{discover_doh, DohDiscoveryReport, DohObservation};
pub use observation::{CertClass, ObservationRow, ObservationTable};
pub use permutation::{PermutationShard, RandomPermutation};
pub use provider::provider_key;
pub use sweep::{syn_sweep_sharded, AddressSpace, SweepResult, SweepStats};
pub use verify::{verify_resolvers_sharded, DotObservation, ProbeTemplate, VerifyOutcome};
