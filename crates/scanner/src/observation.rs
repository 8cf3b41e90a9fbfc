//! Column-oriented (SoA) storage for per-host verification results.
//!
//! A full-scale sweep verifies 2–3M port-853-open hosts per epoch. Keeping
//! every observation as a `DotObservation` (each provider key its own
//! `String`) costs several words per host, but the campaign aggregation
//! only ever reads five small facts per host.
//! [`ObservationTable`] packs those into parallel columns — eleven bytes a
//! row plus a provider string-intern table, about 27 MB for a full-space
//! epoch's 2.5M candidates. A one-shard verification hands its table over
//! as the epoch's table; only a sharded one is merged into a new table.

use crate::verify::{DotObservation, VerifyOutcome};
use dnswire::Rcode;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use tlssim::CertStatus;

/// Certificate classification reduced to its bucket.
///
/// [`CertStatus::UntrustedCa`] carries the offending issuer name, which
/// matters when reporting a single probe but never in campaign
/// aggregation; the table keeps only the bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertClass {
    /// Chain verifies against the trust store.
    Valid,
    /// Leaf outside its validity window.
    Expired,
    /// Single self-signed certificate.
    SelfSigned,
    /// Chain does not link up.
    InvalidChain,
    /// Links up but the root is not in the store.
    UntrustedCa,
}

impl CertClass {
    /// Collapse a full [`CertStatus`] to its bucket.
    pub fn of(status: &CertStatus) -> Self {
        match status {
            CertStatus::Valid => CertClass::Valid,
            CertStatus::Expired => CertClass::Expired,
            CertStatus::SelfSigned => CertClass::SelfSigned,
            CertStatus::InvalidChain => CertClass::InvalidChain,
            CertStatus::UntrustedCa { .. } => CertClass::UntrustedCa,
        }
    }

    /// Anything but [`CertClass::Valid`] counts as invalid (§4.2).
    pub fn is_invalid(self) -> bool {
        self != CertClass::Valid
    }

    /// Stable metrics/report label.
    pub fn label(self) -> &'static str {
        match self {
            CertClass::Valid => "valid",
            CertClass::Expired => "expired",
            CertClass::SelfSigned => "self_signed",
            CertClass::InvalidChain => "invalid_chain",
            CertClass::UntrustedCa => "untrusted_ca",
        }
    }
}

// Outcome column encoding: low nibble is the class, high nibble carries
// the RCODE for `AnsweredError`.
const OUTCOME_OPEN: u8 = 0;
const OUTCOME_ANSWERED_ERROR: u8 = 1;
const OUTCOME_NOT_DNS: u8 = 2;
const OUTCOME_NOT_TLS: u8 = 3;
const OUTCOME_CONNECT_FAILED: u8 = 4;

fn encode_outcome(outcome: &VerifyOutcome) -> u8 {
    match outcome {
        VerifyOutcome::OpenResolver => OUTCOME_OPEN,
        VerifyOutcome::AnsweredError(rcode) => OUTCOME_ANSWERED_ERROR | (rcode.to_u8() << 4),
        VerifyOutcome::NotDns => OUTCOME_NOT_DNS,
        VerifyOutcome::NotTls => OUTCOME_NOT_TLS,
        VerifyOutcome::ConnectFailed => OUTCOME_CONNECT_FAILED,
    }
}

fn decode_outcome(byte: u8) -> VerifyOutcome {
    match byte & 0x0f {
        OUTCOME_OPEN => VerifyOutcome::OpenResolver,
        OUTCOME_ANSWERED_ERROR => VerifyOutcome::AnsweredError(Rcode::from_u8(byte >> 4)),
        OUTCOME_NOT_DNS => VerifyOutcome::NotDns,
        OUTCOME_NOT_TLS => VerifyOutcome::NotTls,
        _ => VerifyOutcome::ConnectFailed,
    }
}

// Cert column: 0 = TLS never completed, otherwise 1 + bucket.
const CERT_NONE: u8 = 0;

fn encode_cert(cert: Option<CertClass>) -> u8 {
    match cert {
        None => CERT_NONE,
        Some(CertClass::Valid) => 1,
        Some(CertClass::Expired) => 2,
        Some(CertClass::SelfSigned) => 3,
        Some(CertClass::InvalidChain) => 4,
        Some(CertClass::UntrustedCa) => 5,
    }
}

fn decode_cert(byte: u8) -> Option<CertClass> {
    match byte {
        CERT_NONE => None,
        1 => Some(CertClass::Valid),
        2 => Some(CertClass::Expired),
        3 => Some(CertClass::SelfSigned),
        4 => Some(CertClass::InvalidChain),
        _ => Some(CertClass::UntrustedCa),
    }
}

// Answer column: 0 = no answer observed, 1 = correct, 2 = wrong.
const ANSWER_NONE: u8 = 0;
const ANSWER_CORRECT: u8 = 1;
const ANSWER_WRONG: u8 = 2;

/// Sentinel provider id for "no certificate, no provider".
const PROVIDER_NONE: u16 = u16::MAX;

/// One decoded row of an [`ObservationTable`].
///
/// Cheap to produce (`provider` borrows from the intern table); this is
/// the aggregation-facing replacement for [`DotObservation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservationRow<'t> {
    /// The probed address.
    pub addr: Ipv4Addr,
    /// Outcome class.
    pub outcome: VerifyOutcome,
    /// Certificate bucket (when TLS completed).
    pub cert: Option<CertClass>,
    /// Provider grouping key from the leaf CN.
    pub provider: Option<&'t str>,
    /// Whether the answer matched authoritative ground truth.
    pub answer_correct: Option<bool>,
}

impl ObservationRow<'_> {
    /// Whether this host counts as an open DoT resolver.
    pub fn is_open_resolver(&self) -> bool {
        self.outcome == VerifyOutcome::OpenResolver
    }
}

/// Packed per-host verification results, one row per probed candidate.
///
/// Rows are stored in candidate order. Provider keys are interned in
/// first-seen row order, so two tables built from the same observation
/// sequence — regardless of how the work was sharded — compare equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObservationTable {
    addrs: Vec<u32>,
    outcomes: Vec<u8>,
    certs: Vec<u8>,
    providers: Vec<u16>,
    answers: Vec<u8>,
    provider_names: Vec<String>,
    provider_index: BTreeMap<String, u16>,
}

impl ObservationTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with row capacity reserved.
    pub fn with_capacity(rows: usize) -> Self {
        ObservationTable {
            addrs: Vec::with_capacity(rows),
            outcomes: Vec::with_capacity(rows),
            certs: Vec::with_capacity(rows),
            providers: Vec::with_capacity(rows),
            answers: Vec::with_capacity(rows),
            provider_names: Vec::new(),
            provider_index: BTreeMap::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Distinct provider keys seen so far.
    pub fn provider_names(&self) -> &[String] {
        &self.provider_names
    }

    fn intern(&mut self, name: &str) -> u16 {
        if let Some(&id) = self.provider_index.get(name) {
            return id;
        }
        let len = self.provider_names.len();
        assert!(
            len < usize::from(PROVIDER_NONE),
            "provider intern table overflow"
        );
        // The assert guarantees the conversion fits; the fallback arm is
        // unreachable.
        let id = u16::try_from(len).unwrap_or(PROVIDER_NONE);
        self.provider_names.push(name.to_string());
        self.provider_index.insert(name.to_string(), id);
        id
    }

    /// Append a full observation, compacting it to one row.
    pub fn push(&mut self, obs: &DotObservation) {
        let provider = match &obs.provider {
            Some(name) => self.intern(name),
            None => PROVIDER_NONE,
        };
        self.addrs.push(u32::from(obs.addr));
        self.outcomes.push(encode_outcome(&obs.outcome));
        self.certs
            .push(encode_cert(obs.cert_status.as_ref().map(CertClass::of)));
        self.providers.push(provider);
        self.answers.push(match obs.answer_correct {
            None => ANSWER_NONE,
            Some(true) => ANSWER_CORRECT,
            Some(false) => ANSWER_WRONG,
        });
    }

    /// Append an already-compacted row (e.g. while merging shard tables).
    pub fn push_row(&mut self, row: ObservationRow<'_>) {
        let provider = match row.provider {
            Some(name) => self.intern(name),
            None => PROVIDER_NONE,
        };
        self.addrs.push(u32::from(row.addr));
        self.outcomes.push(encode_outcome(&row.outcome));
        self.certs.push(encode_cert(row.cert));
        self.providers.push(provider);
        self.answers.push(match row.answer_correct {
            None => ANSWER_NONE,
            Some(true) => ANSWER_CORRECT,
            Some(false) => ANSWER_WRONG,
        });
    }

    /// Decode row `k`.
    pub fn row(&self, k: usize) -> ObservationRow<'_> {
        ObservationRow {
            addr: Ipv4Addr::from(self.addrs[k]),
            outcome: decode_outcome(self.outcomes[k]),
            cert: decode_cert(self.certs[k]),
            provider: match self.providers[k] {
                PROVIDER_NONE => None,
                id => Some(self.provider_names[id as usize].as_str()),
            },
            answer_correct: match self.answers[k] {
                ANSWER_NONE => None,
                v => Some(v == ANSWER_CORRECT),
            },
        }
    }

    /// Iterate over all rows in candidate order.
    pub fn rows(&self) -> impl Iterator<Item = ObservationRow<'_>> + '_ {
        (0..self.len()).map(|k| self.row(k))
    }

    /// Rows classified as open resolvers.
    pub fn open_resolvers(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|&&b| b & 0x0f == OUTCOME_OPEN)
            .count()
    }

    /// Merge per-shard tables back into global candidate order.
    ///
    /// Shard `s` of `n` verified candidates `s, s+n, s+2n, …` in order and
    /// produced exactly one row each, so the global sequence is a strided
    /// round-robin over the shard tables. Provider keys are re-interned in
    /// merged order, which makes the result independent of the shard count.
    /// A single shard's table is already in that order and is handed back
    /// as it is, without a copy.
    pub fn merge_striped(shards: Vec<ObservationTable>) -> ObservationTable {
        let shards = match <[ObservationTable; 1]>::try_from(shards) {
            Ok([table]) => return table,
            Err(shards) => shards,
        };
        let total: usize = shards.iter().map(ObservationTable::len).sum();
        let mut merged = ObservationTable::with_capacity(total);
        let mut cursors = vec![0usize; shards.len()];
        for i in 0..total {
            let s = i % shards.len();
            merged.push_row(shards[s].row(cursors[s]));
            cursors[s] += 1;
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(
        addr: &str,
        outcome: VerifyOutcome,
        cert_status: Option<CertStatus>,
        provider: Option<&str>,
        answer_correct: Option<bool>,
    ) -> DotObservation {
        DotObservation {
            addr: addr.parse().unwrap(),
            outcome,
            cert_status,
            provider: provider.map(str::to_string),
            answer_correct,
        }
    }

    #[test]
    fn rows_round_trip_through_the_columns() {
        let samples = vec![
            obs(
                "10.0.0.1",
                VerifyOutcome::OpenResolver,
                Some(CertStatus::Valid),
                Some("goodprov.net"),
                Some(true),
            ),
            obs(
                "10.0.0.2",
                VerifyOutcome::AnsweredError(Rcode::Refused),
                Some(CertStatus::SelfSigned),
                Some("FGT60D000"),
                None,
            ),
            obs(
                "10.0.0.3",
                VerifyOutcome::OpenResolver,
                Some(CertStatus::UntrustedCa {
                    ca_cn: "Shady CA".into(),
                }),
                Some("goodprov.net"),
                Some(false),
            ),
            obs("10.0.0.4", VerifyOutcome::NotTls, None, None, None),
            obs("10.0.0.5", VerifyOutcome::ConnectFailed, None, None, None),
        ];
        let mut table = ObservationTable::new();
        for s in &samples {
            table.push(s);
        }
        assert_eq!(table.len(), samples.len());
        assert_eq!(table.open_resolvers(), 2);
        // The two goodprov rows share one interned key.
        assert_eq!(table.provider_names().len(), 2);
        for (k, s) in samples.iter().enumerate() {
            let row = table.row(k);
            assert_eq!(row.addr, s.addr);
            assert_eq!(row.outcome, s.outcome);
            assert_eq!(row.cert, s.cert_status.as_ref().map(CertClass::of));
            assert_eq!(row.provider, s.provider.as_deref());
            assert_eq!(row.answer_correct, s.answer_correct);
            assert_eq!(row.is_open_resolver(), s.is_open_resolver());
        }
    }

    #[test]
    fn striped_merge_restores_candidate_order() {
        // Candidates 0..7 verified across 3 shards; provider first-seen
        // order differs per shard but the merged table re-interns.
        let all: Vec<DotObservation> = (0..7)
            .map(|i| {
                obs(
                    &format!("10.1.0.{i}"),
                    VerifyOutcome::OpenResolver,
                    Some(CertStatus::Valid),
                    Some(if i % 2 == 0 { "even.net" } else { "odd.net" }),
                    Some(true),
                )
            })
            .collect();
        let shards = 3usize;
        let tables: Vec<ObservationTable> = (0..shards)
            .map(|s| {
                let mut t = ObservationTable::new();
                for i in (s..all.len()).step_by(shards) {
                    t.push(&all[i]);
                }
                t
            })
            .collect();
        let merged = ObservationTable::merge_striped(tables);
        assert_eq!(merged.len(), all.len());
        for (k, s) in all.iter().enumerate() {
            assert_eq!(merged.row(k).addr, s.addr);
            assert_eq!(merged.row(k).provider, s.provider.as_deref());
        }
        // Interned in merged (candidate) order: even before odd.
        assert_eq!(merged.provider_names(), &["even.net", "odd.net"]);

        // A single-shard build of the same sequence is bit-identical.
        let mut single = ObservationTable::new();
        for s in &all {
            single.push(s);
        }
        assert_eq!(merged, single);
    }
}
