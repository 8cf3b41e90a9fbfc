//! Resource records: types, classes and RDATA encoding (RFC 1035 §3.2,
//! §4.1.3). Decoding is [`RrView::to_record`](crate::RrView::to_record), a
//! copy out of a validated [`MessageView`](crate::MessageView).

use crate::error::WireError;
use crate::name::{CompressionTable, Name};
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Record types understood by the codec. Unknown types survive decode as
/// [`RData::Opaque`] so scans of arbitrary services never fail to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecordType {
    /// IPv4 host address.
    A,
    /// Authoritative name server.
    Ns,
    /// Canonical name alias.
    Cname,
    /// Start of authority.
    Soa,
    /// Pointer (reverse DNS) — used by the paper to vet DoT client networks.
    Ptr,
    /// Mail exchange.
    Mx,
    /// Free-form text.
    Txt,
    /// IPv6 host address.
    Aaaa,
    /// EDNS(0) pseudo-record (RFC 6891).
    Opt,
    /// Any other type, preserved numerically.
    Other(u16),
}

impl RecordType {
    /// Numeric value on the wire.
    pub fn to_u16(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Soa => 6,
            RecordType::Ptr => 12,
            RecordType::Mx => 15,
            RecordType::Txt => 16,
            RecordType::Aaaa => 28,
            RecordType::Opt => 41,
            RecordType::Other(v) => v,
        }
    }

    /// Decode from the wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RecordType::A,
            2 => RecordType::Ns,
            5 => RecordType::Cname,
            6 => RecordType::Soa,
            12 => RecordType::Ptr,
            15 => RecordType::Mx,
            16 => RecordType::Txt,
            28 => RecordType::Aaaa,
            41 => RecordType::Opt,
            other => RecordType::Other(other),
        }
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordType::A => write!(f, "A"),
            RecordType::Ns => write!(f, "NS"),
            RecordType::Cname => write!(f, "CNAME"),
            RecordType::Soa => write!(f, "SOA"),
            RecordType::Ptr => write!(f, "PTR"),
            RecordType::Mx => write!(f, "MX"),
            RecordType::Txt => write!(f, "TXT"),
            RecordType::Aaaa => write!(f, "AAAA"),
            RecordType::Opt => write!(f, "OPT"),
            RecordType::Other(v) => write!(f, "TYPE{v}"),
        }
    }
}

/// Record classes. Practically always `IN`; `Other` preserved for fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordClass {
    /// The Internet.
    In,
    /// Chaosnet (used by `version.bind` style queries).
    Ch,
    /// Anything else.
    Other(u16),
}

impl RecordClass {
    /// Numeric value on the wire.
    pub fn to_u16(self) -> u16 {
        match self {
            RecordClass::In => 1,
            RecordClass::Ch => 3,
            RecordClass::Other(v) => v,
        }
    }

    /// Decode from the wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RecordClass::In,
            3 => RecordClass::Ch,
            other => RecordClass::Other(other),
        }
    }
}

/// SOA RDATA fields (RFC 1035 §3.3.13).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SoaData {
    /// Primary master name server.
    pub mname: Name,
    /// Responsible mailbox, encoded as a name.
    pub rname: Name,
    /// Zone serial number.
    pub serial: u32,
    /// Secondary refresh interval, seconds.
    pub refresh: u32,
    /// Retry interval, seconds.
    pub retry: u32,
    /// Expiry limit, seconds.
    pub expire: u32,
    /// Negative-caching TTL, seconds.
    pub minimum: u32,
}

/// Decoded RDATA.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Name-server target.
    Ns(Name),
    /// Alias target.
    Cname(Name),
    /// Reverse-pointer target.
    Ptr(Name),
    /// Start of authority.
    Soa(SoaData),
    /// Mail exchange: preference and host.
    Mx {
        /// Lower is preferred.
        preference: u16,
        /// Exchange host name.
        exchange: Name,
    },
    /// Character strings, each at most 255 bytes.
    Txt(Vec<Vec<u8>>),
    /// Verbatim bytes of an unknown type.
    Opaque(Vec<u8>),
}

impl RData {
    /// The natural record type for this RDATA (`None` for [`RData::Opaque`],
    /// whose type lives on the containing record).
    pub fn natural_type(&self) -> Option<RecordType> {
        match self {
            RData::A(_) => Some(RecordType::A),
            RData::Aaaa(_) => Some(RecordType::Aaaa),
            RData::Ns(_) => Some(RecordType::Ns),
            RData::Cname(_) => Some(RecordType::Cname),
            RData::Ptr(_) => Some(RecordType::Ptr),
            RData::Soa(_) => Some(RecordType::Soa),
            RData::Mx { .. } => Some(RecordType::Mx),
            RData::Txt(_) => Some(RecordType::Txt),
            RData::Opaque(_) => None,
        }
    }

    /// Encode RDATA (without the length prefix) into `buf`.
    ///
    /// Names inside RDATA are encoded *without* compression: RFC 3597
    /// forbids compression in the RDATA of unknown types, and modern
    /// practice avoids it everywhere except the legacy types; emitting
    /// uncompressed is always interoperable.
    pub fn encode(&self, buf: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            RData::A(addr) => buf.extend_from_slice(&addr.octets()),
            RData::Aaaa(addr) => buf.extend_from_slice(&addr.octets()),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => n.encode_uncompressed(buf),
            RData::Soa(soa) => {
                soa.mname.encode_uncompressed(buf);
                soa.rname.encode_uncompressed(buf);
                buf.extend_from_slice(&soa.serial.to_be_bytes());
                buf.extend_from_slice(&soa.refresh.to_be_bytes());
                buf.extend_from_slice(&soa.retry.to_be_bytes());
                buf.extend_from_slice(&soa.expire.to_be_bytes());
                buf.extend_from_slice(&soa.minimum.to_be_bytes());
            }
            RData::Mx {
                preference,
                exchange,
            } => {
                buf.extend_from_slice(&preference.to_be_bytes());
                exchange.encode_uncompressed(buf);
            }
            RData::Txt(segments) => {
                for seg in segments {
                    if seg.len() > 255 {
                        return Err(WireError::TxtSegmentTooLong(seg.len()));
                    }
                    buf.push(seg.len() as u8);
                    buf.extend_from_slice(seg);
                }
            }
            RData::Opaque(bytes) => buf.extend_from_slice(bytes),
        }
        Ok(())
    }
}

/// A complete resource record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResourceRecord {
    /// Owner name.
    pub name: Name,
    /// Record type.
    pub rtype: RecordType,
    /// Record class.
    pub class: RecordClass,
    /// Time to live, seconds.
    pub ttl: u32,
    /// Decoded record data.
    pub rdata: RData,
}

impl ResourceRecord {
    /// Construct an `IN`-class record, inferring `rtype` from the RDATA.
    ///
    /// # Panics
    /// Panics if `rdata` is [`RData::Opaque`] (whose type is not inferable);
    /// build those records literally instead.
    pub fn new(name: Name, ttl: u32, rdata: RData) -> Self {
        let rtype = rdata
            .natural_type()
            // doe-lint: allow(D004, D007) — documented `# Panics` contract: opaque rdata is a
            // caller bug, not wire input; servers on the query path build typed rdata only
            .expect("opaque rdata needs an explicit type");
        ResourceRecord {
            name,
            rtype,
            class: RecordClass::In,
            ttl,
            rdata,
        }
    }

    /// Encode into `buf`, compressing the owner name via `table`.
    pub fn encode<'a>(
        &'a self,
        buf: &mut Vec<u8>,
        table: &mut CompressionTable<'a>,
    ) -> Result<(), WireError> {
        self.name.encode_compressed(buf, table);
        buf.extend_from_slice(&self.rtype.to_u16().to_be_bytes());
        buf.extend_from_slice(&self.class.to_u16().to_be_bytes());
        buf.extend_from_slice(&self.ttl.to_be_bytes());
        let len_pos = buf.len();
        buf.extend_from_slice(&[0, 0]);
        self.rdata.encode(buf)?;
        let rdlen = buf.len() - len_pos - 2;
        if rdlen > u16::MAX as usize {
            return Err(WireError::MessageTooLong(rdlen));
        }
        buf[len_pos..len_pos + 2].copy_from_slice(&(rdlen as u16).to_be_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Header, Message};

    /// `rr` back out of the answer section of an encoded message.
    fn round_trip(rr: &ResourceRecord) -> ResourceRecord {
        let mut msg = Message::new(Header::new_query(1));
        msg.answers.push(rr.clone());
        let mut back = Message::decode(&msg.encode().unwrap()).unwrap();
        assert_eq!(back.answers.len(), 1);
        back.answers.remove(0)
    }

    #[test]
    fn a_record_round_trip() {
        let rr = ResourceRecord::new(
            Name::parse("one.one.one.one").unwrap(),
            300,
            RData::A(Ipv4Addr::new(1, 1, 1, 1)),
        );
        assert_eq!(round_trip(&rr), rr);
    }

    #[test]
    fn aaaa_record_round_trip() {
        let rr = ResourceRecord::new(
            Name::parse("dns.google").unwrap(),
            60,
            RData::Aaaa("2001:4860:4860::8888".parse().unwrap()),
        );
        assert_eq!(round_trip(&rr), rr);
    }

    #[test]
    fn soa_record_round_trip() {
        let rr = ResourceRecord::new(
            Name::parse("example.com").unwrap(),
            3600,
            RData::Soa(SoaData {
                mname: Name::parse("ns1.example.com").unwrap(),
                rname: Name::parse("hostmaster.example.com").unwrap(),
                serial: 20_190_501,
                refresh: 7200,
                retry: 900,
                expire: 1_209_600,
                minimum: 86_400,
            }),
        );
        assert_eq!(round_trip(&rr), rr);
    }

    #[test]
    fn mx_and_txt_round_trip() {
        let mx = ResourceRecord::new(
            Name::parse("example.com").unwrap(),
            120,
            RData::Mx {
                preference: 10,
                exchange: Name::parse("mail.example.com").unwrap(),
            },
        );
        assert_eq!(round_trip(&mx), mx);
        let txt = ResourceRecord::new(
            Name::parse("example.com").unwrap(),
            120,
            RData::Txt(vec![b"v=spf1 -all".to_vec(), b"second".to_vec()]),
        );
        assert_eq!(round_trip(&txt), txt);
    }

    #[test]
    fn cname_ptr_ns_round_trip() {
        for rdata in [
            RData::Cname(Name::parse("alias.example.net").unwrap()),
            RData::Ptr(Name::parse("host.example.net").unwrap()),
            RData::Ns(Name::parse("ns.example.net").unwrap()),
        ] {
            let rr = ResourceRecord::new(Name::parse("x.example.com").unwrap(), 30, rdata);
            assert_eq!(round_trip(&rr), rr);
        }
    }

    #[test]
    fn unknown_type_survives_as_opaque() {
        let rr = ResourceRecord {
            name: Name::parse("x.example.com").unwrap(),
            rtype: RecordType::Other(65280),
            class: RecordClass::In,
            ttl: 5,
            rdata: RData::Opaque(vec![1, 2, 3, 4, 5]),
        };
        assert_eq!(round_trip(&rr), rr);
    }

    #[test]
    fn txt_segment_too_long_rejected() {
        let rr = ResourceRecord::new(
            Name::parse("t.example.com").unwrap(),
            5,
            RData::Txt(vec![vec![0u8; 256]]),
        );
        let mut buf = Vec::new();
        let mut table = CompressionTable::new();
        assert!(matches!(
            rr.encode(&mut buf, &mut table),
            Err(WireError::TxtSegmentTooLong(256))
        ));
    }

    #[test]
    fn record_type_mapping_is_bijective_on_known_codes() {
        for code in [1u16, 2, 5, 6, 12, 15, 16, 28, 41] {
            assert_eq!(RecordType::from_u16(code).to_u16(), code);
        }
        assert_eq!(RecordType::from_u16(999), RecordType::Other(999));
    }
}
