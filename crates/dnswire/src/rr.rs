//! Resource records: types, classes and RDATA codecs (RFC 1035 §3.2, §4.1.3).

use crate::error::WireError;
use crate::name::{CompressionTable, Name};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Record types understood by the codec. Unknown types survive decode as
/// [`RData::Opaque`] so scans of arbitrary services never fail to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
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

    /// Decode RDATA of `rtype` from `msg[start..start+len]`, with access to
    /// the whole message for compression pointers in legacy types.
    pub fn decode(
        msg: &[u8],
        rtype: RecordType,
        start: usize,
        len: usize,
    ) -> Result<Self, WireError> {
        let end = start + len;
        let slice = msg
            .get(start..end)
            .ok_or(WireError::Truncated { expecting: "rdata" })?;
        match rtype {
            RecordType::A => {
                let arr: [u8; 4] = slice.try_into().map_err(|_| WireError::BadRdataLength {
                    rtype: rtype.to_u16(),
                    found: len,
                })?;
                Ok(RData::A(Ipv4Addr::from(arr)))
            }
            RecordType::Aaaa => {
                let arr: [u8; 16] = slice.try_into().map_err(|_| WireError::BadRdataLength {
                    rtype: rtype.to_u16(),
                    found: len,
                })?;
                Ok(RData::Aaaa(Ipv6Addr::from(arr)))
            }
            RecordType::Ns | RecordType::Cname | RecordType::Ptr => {
                let mut pos = start;
                let name = Name::decode(msg, &mut pos)?;
                if pos != end {
                    return Err(WireError::BadRdataLength {
                        rtype: rtype.to_u16(),
                        found: len,
                    });
                }
                Ok(match rtype {
                    RecordType::Ns => RData::Ns(name),
                    RecordType::Cname => RData::Cname(name),
                    _ => RData::Ptr(name),
                })
            }
            RecordType::Soa => {
                let mut pos = start;
                let mname = Name::decode(msg, &mut pos)?;
                let rname = Name::decode(msg, &mut pos)?;
                let fixed = msg.get(pos..pos + 20).ok_or(WireError::Truncated {
                    expecting: "soa fields",
                })?;
                let word = |i: usize| {
                    u32::from_be_bytes([fixed[i], fixed[i + 1], fixed[i + 2], fixed[i + 3]])
                };
                pos += 20;
                if pos != end {
                    return Err(WireError::BadRdataLength {
                        rtype: rtype.to_u16(),
                        found: len,
                    });
                }
                Ok(RData::Soa(SoaData {
                    mname,
                    rname,
                    serial: word(0),
                    refresh: word(4),
                    retry: word(8),
                    expire: word(12),
                    minimum: word(16),
                }))
            }
            RecordType::Mx => {
                if len < 3 {
                    return Err(WireError::BadRdataLength {
                        rtype: rtype.to_u16(),
                        found: len,
                    });
                }
                let preference = u16::from_be_bytes([slice[0], slice[1]]);
                let mut pos = start + 2;
                let exchange = Name::decode(msg, &mut pos)?;
                if pos != end {
                    return Err(WireError::BadRdataLength {
                        rtype: rtype.to_u16(),
                        found: len,
                    });
                }
                Ok(RData::Mx {
                    preference,
                    exchange,
                })
            }
            RecordType::Txt => {
                let mut segments = Vec::new();
                let mut i = 0usize;
                while i < slice.len() {
                    let seg_len = slice[i] as usize;
                    let seg = slice
                        .get(i + 1..i + 1 + seg_len)
                        .ok_or(WireError::Truncated {
                            expecting: "txt segment",
                        })?;
                    segments.push(seg.to_vec());
                    i += 1 + seg_len;
                }
                Ok(RData::Txt(segments))
            }
            RecordType::Opt | RecordType::Other(_) => Ok(RData::Opaque(slice.to_vec())),
        }
    }
}

/// A complete resource record.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
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

    /// Decode a record at `msg[*pos..]`, advancing `*pos` past it.
    pub fn decode(msg: &[u8], pos: &mut usize) -> Result<Self, WireError> {
        let name = Name::decode(msg, pos)?;
        let fixed = msg.get(*pos..*pos + 10).ok_or(WireError::Truncated {
            expecting: "rr fixed fields",
        })?;
        let rtype = RecordType::from_u16(u16::from_be_bytes([fixed[0], fixed[1]]));
        let class = RecordClass::from_u16(u16::from_be_bytes([fixed[2], fixed[3]]));
        let ttl = u32::from_be_bytes([fixed[4], fixed[5], fixed[6], fixed[7]]);
        let rdlen = u16::from_be_bytes([fixed[8], fixed[9]]) as usize;
        *pos += 10;
        let rdata = RData::decode(msg, rtype, *pos, rdlen)?;
        *pos += rdlen;
        Ok(ResourceRecord {
            name,
            rtype,
            class,
            ttl,
            rdata,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(rr: &ResourceRecord) -> ResourceRecord {
        let mut buf = Vec::new();
        let mut table = CompressionTable::new();
        rr.encode(&mut buf, &mut table).unwrap();
        let mut pos = 0;
        let back = ResourceRecord::decode(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        back
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
    fn wrong_a_length_rejected() {
        // Hand-build an A record with 3-byte RDATA.
        let mut buf = Vec::new();
        Name::parse("a.example")
            .unwrap()
            .encode_uncompressed(&mut buf);
        buf.extend_from_slice(&1u16.to_be_bytes()); // type A
        buf.extend_from_slice(&1u16.to_be_bytes()); // class IN
        buf.extend_from_slice(&0u32.to_be_bytes()); // ttl
        buf.extend_from_slice(&3u16.to_be_bytes()); // rdlen = 3
        buf.extend_from_slice(&[1, 2, 3]);
        let mut pos = 0;
        assert!(matches!(
            ResourceRecord::decode(&buf, &mut pos),
            Err(WireError::BadRdataLength { rtype: 1, found: 3 })
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
