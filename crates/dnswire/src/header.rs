//! The fixed 12-octet DNS message header (RFC 1035 §4.1.1).

use crate::error::WireError;

/// DNS operation codes. Only `Query` is exercised by the pipeline, but the
/// full set decodes so hostile scans don't error out on unusual traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Standard query (0).
    Query,
    /// Inverse query (1, obsolete).
    IQuery,
    /// Server status (2).
    Status,
    /// Zone change notification (4).
    Notify,
    /// Dynamic update (5).
    Update,
    /// Anything else, preserved verbatim.
    Other(u8),
}

impl Opcode {
    /// Numeric value as carried in the header.
    pub fn to_u8(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::IQuery => 1,
            Opcode::Status => 2,
            Opcode::Notify => 4,
            Opcode::Update => 5,
            Opcode::Other(v) => v & 0x0f,
        }
    }

    /// Decode from the 4-bit field.
    pub fn from_u8(v: u8) -> Self {
        match v & 0x0f {
            0 => Opcode::Query,
            1 => Opcode::IQuery,
            2 => Opcode::Status,
            4 => Opcode::Notify,
            5 => Opcode::Update,
            other => Opcode::Other(other),
        }
    }
}

/// DNS response codes.
///
/// The reachability analysis (§4.2, Table 4) classifies results into
/// *Correct* / *Incorrect* / *Failed*, where "Incorrect" covers SERVFAIL and
/// empty answers — so the exact RCODE matters to the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error (0).
    NoError,
    /// Format error (1).
    FormErr,
    /// Server failure (2) — what misconfigured Quad9 DoH returns.
    ServFail,
    /// Name does not exist (3).
    NxDomain,
    /// Not implemented (4).
    NotImp,
    /// Query refused (5) — what closed resolvers return to strangers.
    Refused,
    /// Any extended or unassigned code.
    Other(u8),
}

impl Rcode {
    /// Numeric value as carried in the header.
    pub fn to_u8(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(v) => v & 0x0f,
        }
    }

    /// Decode from the 4-bit field.
    pub fn from_u8(v: u8) -> Self {
        match v & 0x0f {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

/// The parsed message header: ID, flag bits and section counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Transaction identifier echoed by responders.
    pub id: u16,
    /// `QR`: true for responses.
    pub response: bool,
    /// Operation code.
    pub opcode: Opcode,
    /// `AA`: authoritative answer.
    pub authoritative: bool,
    /// `TC`: message was truncated (forces TCP retry for Do53/UDP).
    pub truncated: bool,
    /// `RD`: recursion desired.
    pub recursion_desired: bool,
    /// `RA`: recursion available.
    pub recursion_available: bool,
    /// `AD`: authenticated data (DNSSEC).
    pub authentic_data: bool,
    /// `CD`: checking disabled (DNSSEC).
    pub checking_disabled: bool,
    /// Response code.
    pub rcode: Rcode,
    /// Entries in the question section.
    pub qdcount: u16,
    /// Entries in the answer section.
    pub ancount: u16,
    /// Entries in the authority section.
    pub nscount: u16,
    /// Entries in the additional section.
    pub arcount: u16,
}

impl Header {
    /// Size of the header on the wire.
    pub const WIRE_LEN: usize = 12;

    /// A recursion-desired query header with the given transaction ID.
    pub fn new_query(id: u16) -> Self {
        Header {
            id,
            response: false,
            opcode: Opcode::Query,
            authoritative: false,
            truncated: false,
            recursion_desired: true,
            recursion_available: false,
            authentic_data: false,
            checking_disabled: false,
            rcode: Rcode::NoError,
            qdcount: 0,
            ancount: 0,
            nscount: 0,
            arcount: 0,
        }
    }

    /// A response header answering `query` with `rcode`.
    pub fn new_response(query: &Header, rcode: Rcode) -> Self {
        Header {
            id: query.id,
            response: true,
            opcode: query.opcode,
            authoritative: false,
            truncated: false,
            recursion_desired: query.recursion_desired,
            recursion_available: true,
            authentic_data: false,
            checking_disabled: false,
            rcode,
            qdcount: 0,
            ancount: 0,
            nscount: 0,
            arcount: 0,
        }
    }

    /// Append the 12 header octets to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.id.to_be_bytes());
        let mut b2: u8 = 0;
        if self.response {
            b2 |= 0b1000_0000;
        }
        b2 |= self.opcode.to_u8() << 3;
        if self.authoritative {
            b2 |= 0b0000_0100;
        }
        if self.truncated {
            b2 |= 0b0000_0010;
        }
        if self.recursion_desired {
            b2 |= 0b0000_0001;
        }
        buf.push(b2);
        let mut b3: u8 = 0;
        if self.recursion_available {
            b3 |= 0b1000_0000;
        }
        if self.authentic_data {
            b3 |= 0b0010_0000;
        }
        if self.checking_disabled {
            b3 |= 0b0001_0000;
        }
        b3 |= self.rcode.to_u8();
        buf.push(b3);
        buf.extend_from_slice(&self.qdcount.to_be_bytes());
        buf.extend_from_slice(&self.ancount.to_be_bytes());
        buf.extend_from_slice(&self.nscount.to_be_bytes());
        buf.extend_from_slice(&self.arcount.to_be_bytes());
    }

    /// Decode the header at `msg[*pos..]`, advancing `*pos` by 12.
    pub fn decode(msg: &[u8], pos: &mut usize) -> Result<Self, WireError> {
        // Manual bounds check (not slice `.get`): this sits on the
        // zero-copy hot path, where doe-lint's D012 pass walks every
        // method call by name.
        if msg.len() < Self::WIRE_LEN || *pos > msg.len() - Self::WIRE_LEN {
            return Err(WireError::Truncated {
                expecting: "header",
            });
        }
        let bytes = &msg[*pos..*pos + Self::WIRE_LEN];
        let id = u16::from_be_bytes([bytes[0], bytes[1]]);
        let b2 = bytes[2];
        let b3 = bytes[3];
        let header = Header {
            id,
            response: b2 & 0b1000_0000 != 0,
            opcode: Opcode::from_u8((b2 >> 3) & 0x0f),
            authoritative: b2 & 0b0000_0100 != 0,
            truncated: b2 & 0b0000_0010 != 0,
            recursion_desired: b2 & 0b0000_0001 != 0,
            recursion_available: b3 & 0b1000_0000 != 0,
            authentic_data: b3 & 0b0010_0000 != 0,
            checking_disabled: b3 & 0b0001_0000 != 0,
            rcode: Rcode::from_u8(b3 & 0x0f),
            qdcount: u16::from_be_bytes([bytes[4], bytes[5]]),
            ancount: u16::from_be_bytes([bytes[6], bytes[7]]),
            nscount: u16::from_be_bytes([bytes[8], bytes[9]]),
            arcount: u16::from_be_bytes([bytes[10], bytes[11]]),
        };
        *pos += Self::WIRE_LEN;
        Ok(header)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_header_round_trip() {
        let h = Header::new_query(0xbeef);
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), Header::WIRE_LEN);
        let mut pos = 0;
        let back = Header::decode(&buf, &mut pos).unwrap();
        assert_eq!(back, h);
        assert_eq!(pos, 12);
    }

    #[test]
    fn response_header_echoes_id_and_rd() {
        let q = Header::new_query(7);
        let r = Header::new_response(&q, Rcode::NxDomain);
        assert_eq!(r.id, 7);
        assert!(r.response);
        assert!(r.recursion_desired);
        assert!(r.recursion_available);
        assert_eq!(r.rcode, Rcode::NxDomain);
    }

    #[test]
    fn all_flag_bits_round_trip() {
        let mut h = Header::new_query(1);
        h.response = true;
        h.authoritative = true;
        h.truncated = true;
        h.recursion_available = true;
        h.authentic_data = true;
        h.checking_disabled = true;
        h.rcode = Rcode::Refused;
        h.opcode = Opcode::Update;
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let mut pos = 0;
        assert_eq!(Header::decode(&buf, &mut pos).unwrap(), h);
    }

    #[test]
    fn opcode_rcode_numeric_mapping() {
        for v in 0..16u8 {
            assert_eq!(Opcode::from_u8(v).to_u8(), v);
            assert_eq!(Rcode::from_u8(v).to_u8(), v);
        }
    }

    #[test]
    fn truncated_header_rejected() {
        let buf = [0u8; 11];
        let mut pos = 0;
        assert!(matches!(
            Header::decode(&buf, &mut pos),
            Err(WireError::Truncated { .. })
        ));
    }
}
