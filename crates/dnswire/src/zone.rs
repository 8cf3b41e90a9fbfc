//! A small authoritative zone model used by the simulated servers.
//!
//! The pipeline's "self-built resolver" and the probe domain's authoritative
//! server (which validates answers and witnesses interception, §3.1/§4.2)
//! both serve from [`Zone`]s. Lookups implement just enough RFC 1034
//! semantics for the study: exact matches, CNAME chasing within the zone,
//! wildcard synthesis at one level, and NXDOMAIN/NODATA distinction.

use crate::name::{self, Name};
use crate::rr::{RData, RecordType, ResourceRecord, SoaData};
use crate::MAX_NAME_LEN;
use std::collections::BTreeMap;

/// Result of a zone lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneLookup {
    /// Records found (possibly via CNAME chain; chain included in order).
    Found(Vec<ResourceRecord>),
    /// The name exists but has no records of the requested type.
    NoData,
    /// The name does not exist in the zone.
    NxDomain,
    /// The name is not within this zone at all.
    OutOfZone,
}

/// An authoritative zone: an apex, an SOA and a set of records.
#[derive(Debug, Clone)]
pub struct Zone {
    apex: Name,
    soa: SoaData,
    /// Records keyed by the owner's buffer ([`Name`]'s wire form), so a
    /// lookup borrows the query name's bytes instead of building a key.
    records: BTreeMap<Box<[u8]>, Vec<ResourceRecord>>,
}

impl Zone {
    /// Create a zone with a conventional SOA.
    pub fn new(apex: Name) -> Self {
        let soa = SoaData {
            mname: apex.prepend("ns1").unwrap_or_else(|_| apex.clone()),
            rname: apex.prepend("hostmaster").unwrap_or_else(|_| apex.clone()),
            serial: 20_190_201,
            refresh: 7200,
            retry: 900,
            expire: 1_209_600,
            minimum: 300,
        };
        Zone {
            apex,
            soa,
            records: BTreeMap::new(),
        }
    }

    /// The zone apex.
    pub fn apex(&self) -> &Name {
        &self.apex
    }

    /// The SOA data.
    pub fn soa(&self) -> &SoaData {
        &self.soa
    }

    /// Total record count (for tests and reporting).
    pub fn len(&self) -> usize {
        self.records.values().map(Vec::len).sum()
    }

    /// True if no records have been added.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Add a record. Returns `false` (and ignores the record) if the owner
    /// is outside the zone.
    pub fn add(&mut self, rr: ResourceRecord) -> bool {
        if !rr.name.is_within(&self.apex) {
            return false;
        }
        self.records
            .entry(rr.name.wire().into())
            .or_default()
            .push(rr);
        true
    }

    /// Convenience: add an `IN` record from parts.
    pub fn add_record(&mut self, name: &Name, ttl: u32, rdata: RData) -> bool {
        self.add(ResourceRecord::new(name.clone(), ttl, rdata))
    }

    /// Whether any name exists at or below `wire` (empty non-terminals
    /// count as existing, per RFC 4592).
    fn name_exists(&self, wire: &[u8]) -> bool {
        self.records.contains_key(wire)
            || self
                .records
                .keys()
                .any(|owner| name::is_within(owner, wire) && owner.as_ref() != wire)
    }

    /// Look up `qname`/`qtype`, chasing CNAMEs within the zone (bounded) and
    /// synthesising from a `*` wildcard one level up if present.
    ///
    /// Every probe borrows bytes: the current name's buffer, or the
    /// wildcard owner (`*` plus the parent) assembled on the stack. Only
    /// the records returned are allocated.
    pub fn lookup(&self, qname: &Name, qtype: RecordType) -> ZoneLookup {
        if !qname.is_within(&self.apex) {
            return ZoneLookup::OutOfZone;
        }
        let mut chain: Vec<ResourceRecord> = Vec::new();
        let mut current = qname;
        for _hop in 0..8 {
            if let Some(records) = self.records.get(current.wire()) {
                let before = chain.len();
                chain.extend(records.iter().filter(|rr| rr.rtype == qtype).cloned());
                if chain.len() > before {
                    return ZoneLookup::Found(chain);
                }
                // CNAME redirection (unless a CNAME itself was asked for).
                if qtype != RecordType::Cname {
                    if let Some(cname) = records.iter().find(|rr| rr.rtype == RecordType::Cname) {
                        chain.push(cname.clone());
                        if let RData::Cname(target) = &cname.rdata {
                            if target.is_within(&self.apex) {
                                current = target;
                                continue;
                            }
                        }
                        // Chain leaves the zone: return what we have.
                        return ZoneLookup::Found(chain);
                    }
                }
                return ZoneLookup::NoData;
            }
            // Wildcard synthesis: replace the leftmost label with `*`.
            let mut buf = [0u8; MAX_NAME_LEN];
            if let Some(wild) = current.wildcard_wire(&mut buf) {
                if let Some(records) = self.records.get(wild) {
                    let before = chain.len();
                    chain.extend(records.iter().filter(|rr| rr.rtype == qtype).map(|rr| {
                        ResourceRecord {
                            name: current.clone(),
                            rtype: rr.rtype,
                            class: rr.class,
                            ttl: rr.ttl,
                            rdata: rr.rdata.clone(),
                        }
                    }));
                    if chain.len() > before {
                        return ZoneLookup::Found(chain);
                    }
                    return ZoneLookup::NoData;
                }
            }
            return if self.name_exists(current.wire()) {
                ZoneLookup::NoData
            } else {
                ZoneLookup::NxDomain
            };
        }
        // CNAME loop: serve what has been collected.
        ZoneLookup::Found(chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn test_zone() -> Zone {
        let apex = Name::parse("probe.example").unwrap();
        let mut zone = Zone::new(apex.clone());
        zone.add_record(
            &apex.prepend("www").unwrap(),
            60,
            RData::A(Ipv4Addr::new(192, 0, 2, 10)),
        );
        zone.add_record(
            &apex.prepend("alias").unwrap(),
            60,
            RData::Cname(apex.prepend("www").unwrap()),
        );
        zone.add_record(
            &apex.prepend("*").unwrap(),
            60,
            RData::A(Ipv4Addr::new(192, 0, 2, 99)),
        );
        zone.add_record(
            &apex.prepend("txt").unwrap(),
            60,
            RData::Txt(vec![b"token".to_vec()]),
        );
        zone
    }

    #[test]
    fn exact_match() {
        let zone = test_zone();
        let q = Name::parse("www.probe.example").unwrap();
        match zone.lookup(&q, RecordType::A) {
            ZoneLookup::Found(rrs) => {
                assert_eq!(rrs.len(), 1);
                assert_eq!(rrs[0].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 10)));
            }
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn cname_chased_within_zone() {
        let zone = test_zone();
        let q = Name::parse("alias.probe.example").unwrap();
        match zone.lookup(&q, RecordType::A) {
            ZoneLookup::Found(rrs) => {
                assert_eq!(rrs.len(), 2);
                assert_eq!(rrs[0].rtype, RecordType::Cname);
                assert_eq!(rrs[1].rtype, RecordType::A);
            }
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn wildcard_synthesis_uses_query_name() {
        let zone = test_zone();
        // The paper's probes use unique prefixes to defeat caching; the
        // wildcard serves them all.
        let q = Name::parse("u1f3a9.probe.example").unwrap();
        match zone.lookup(&q, RecordType::A) {
            ZoneLookup::Found(rrs) => {
                assert_eq!(rrs[0].name, q);
                assert_eq!(rrs[0].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 99)));
            }
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn nodata_vs_nxdomain() {
        let zone = test_zone();
        let exists = Name::parse("txt.probe.example").unwrap();
        assert_eq!(zone.lookup(&exists, RecordType::Mx), ZoneLookup::NoData);
        // Wildcard matches everything one level deep; go deeper to miss it
        // and check that an empty non-terminal still reads as NODATA.
        let under_www = Name::parse("deep.www.probe.example").unwrap();
        // `deep.www` doesn't exist, wildcard at `*.www` doesn't exist either.
        assert_eq!(zone.lookup(&under_www, RecordType::A), ZoneLookup::NxDomain);
        // `www.probe.example` is an existing name: NODATA for AAAA.
        let www = Name::parse("www.probe.example").unwrap();
        assert_eq!(zone.lookup(&www, RecordType::Aaaa), ZoneLookup::NoData);
    }

    #[test]
    fn out_of_zone_rejected() {
        let zone = test_zone();
        let q = Name::parse("www.elsewhere.example").unwrap();
        assert_eq!(zone.lookup(&q, RecordType::A), ZoneLookup::OutOfZone);
        // Adding out-of-zone records fails.
        let mut z = test_zone();
        assert!(!z.add_record(&q, 60, RData::A(Ipv4Addr::new(1, 2, 3, 4))));
    }

    #[test]
    fn cname_loop_terminates() {
        let apex = Name::parse("loop.example").unwrap();
        let mut zone = Zone::new(apex.clone());
        let a = apex.prepend("a").unwrap();
        let b = apex.prepend("b").unwrap();
        zone.add_record(&a, 60, RData::Cname(b.clone()));
        zone.add_record(&b, 60, RData::Cname(a.clone()));
        // Must not hang; returns the collected chain.
        match zone.lookup(&a, RecordType::A) {
            ZoneLookup::Found(rrs) => assert!(!rrs.is_empty()),
            other => panic!("expected Found(chain), got {other:?}"),
        }
    }

    #[test]
    fn empty_nonterminal_is_nodata() {
        let apex = Name::parse("ent.example").unwrap();
        let mut zone = Zone::new(apex.clone());
        let deep = Name::parse("a.b.ent.example").unwrap();
        zone.add_record(&deep, 60, RData::A(Ipv4Addr::new(10, 0, 0, 1)));
        // `b.ent.example` has no records but exists as a non-terminal.
        let ent = Name::parse("b.ent.example").unwrap();
        assert_eq!(zone.lookup(&ent, RecordType::A), ZoneLookup::NoData);
    }
}
