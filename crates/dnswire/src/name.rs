//! Domain names: presentation parsing and wire encoding with message
//! compression (RFC 1035 §4.1.4). Decoding is
//! [`NameRef::to_name`](crate::NameRef::to_name), a copy out of a validated
//! [`MessageView`](crate::MessageView).

use crate::error::WireError;
use crate::{MAX_LABEL_LEN, MAX_NAME_LEN};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A fully-qualified domain name, stored as lower-cased labels.
///
/// Names are case-insensitive for comparison (RFC 1035 §2.3.3); we normalise
/// to lowercase at construction so that `Eq`/`Hash` behave as DNS expects.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Name {
    labels: Vec<Vec<u8>>,
}

impl Name {
    /// The root name (zero labels).
    pub fn root() -> Self {
        Name { labels: Vec::new() }
    }

    /// Parse a presentation-format name such as `"dns.example.com"`.
    ///
    /// A trailing dot is accepted and ignored; the empty string and `"."`
    /// both denote the root. Escapes are not supported — the measurement
    /// pipeline only handles hostnames.
    pub fn parse(s: &str) -> Result<Self, WireError> {
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        if trimmed.is_empty() {
            return Ok(Name::root());
        }
        let mut labels = Vec::new();
        let mut total = 1usize; // terminating root byte
        for raw in trimmed.split('.') {
            if raw.is_empty() {
                return Err(WireError::BadPresentation(s.to_string()));
            }
            let bytes = raw.as_bytes();
            if bytes.len() > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong(bytes.len()));
            }
            if !bytes
                .iter()
                .all(|&b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'*')
            {
                return Err(WireError::BadPresentation(s.to_string()));
            }
            total += 1 + bytes.len();
            labels.push(bytes.to_ascii_lowercase());
        }
        if total > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(total));
        }
        Ok(Name { labels })
    }

    /// Lower-cased copy of labels a validated message holds, leftmost
    /// first.
    pub(crate) fn from_wire_labels<'l>(labels: impl Iterator<Item = &'l [u8]>) -> Self {
        Name {
            labels: labels.map(<[u8]>::to_ascii_lowercase).collect(),
        }
    }

    /// Number of labels (`0` for the root).
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// The labels, leftmost (most specific) first.
    pub fn labels(&self) -> &[Vec<u8>] {
        &self.labels
    }

    /// Length of the name in wire octets, including the root terminator.
    pub fn wire_len(&self) -> usize {
        1 + self.labels.iter().map(|l| 1 + l.len()).sum::<usize>()
    }

    /// True if `self` equals or is a subdomain of `other`
    /// (`dns.example.com` is within `example.com` and within the root).
    pub fn is_within(&self, other: &Name) -> bool {
        if other.labels.len() > self.labels.len() {
            return false;
        }
        let skip = self.labels.len() - other.labels.len();
        self.labels[skip..] == other.labels[..]
    }

    /// The parent name, or `None` at the root.
    pub fn parent(&self) -> Option<Name> {
        if self.labels.is_empty() {
            None
        } else {
            Some(Name {
                labels: self.labels[1..].to_vec(),
            })
        }
    }

    /// Prepend a label, e.g. turning `example.com` into `probe7.example.com`.
    pub fn prepend(&self, label: &str) -> Result<Name, WireError> {
        let mut labels = Vec::with_capacity(self.labels.len() + 1);
        if label.len() > MAX_LABEL_LEN {
            return Err(WireError::LabelTooLong(label.len()));
        }
        labels.push(label.as_bytes().to_ascii_lowercase());
        labels.extend(self.labels.iter().cloned());
        let name = Name { labels };
        if name.wire_len() > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(name.wire_len()));
        }
        Ok(name)
    }

    /// The registrable second-level domain (last two labels), if present.
    ///
    /// The scanner groups DoT providers by the SLD of their certificate
    /// common names, mirroring §3.2 of the paper.
    pub fn second_level_domain(&self) -> Option<Name> {
        if self.labels.len() < 2 {
            return None;
        }
        Some(Name {
            labels: self.labels[self.labels.len() - 2..].to_vec(),
        })
    }

    /// Encode without compression, appending to `buf`.
    pub fn encode_uncompressed(&self, buf: &mut Vec<u8>) {
        for label in &self.labels {
            buf.push(label.len() as u8);
            buf.extend_from_slice(label);
        }
        buf.push(0);
    }

    /// Encode with compression, updating `table` (suffix → offset).
    ///
    /// Each suffix, longest first, is looked up; the first one already
    /// written becomes a pointer and ends the name. Offsets beyond the
    /// 14-bit pointer range are not inserted into the table, as they
    /// cannot be referenced.
    pub fn encode_compressed<'a>(&'a self, buf: &mut Vec<u8>, table: &mut CompressionTable<'a>) {
        let mut suffix: &'a [Vec<u8>] = &self.labels;
        while let [label, rest @ ..] = suffix {
            if let Some(off) = table.offset_of(suffix) {
                buf.push(0b1100_0000 | ((off >> 8) as u8));
                buf.push((off & 0xff) as u8);
                return;
            }
            let here = buf.len();
            if here <= 0x3fff {
                table.suffixes.push((suffix, here as u16));
            }
            buf.push(label.len() as u8);
            buf.extend_from_slice(label);
            suffix = rest;
        }
        buf.push(0);
    }
}

/// Name-compression state of one message encode: every suffix written so
/// far at a pointer-reachable offset, borrowed from the message's own
/// names, so recording a suffix copies no label.
///
/// A suffix is recorded only after its lookup missed, so each is present
/// at most once, and a linear scan finds the one exact match, as a map
/// would. DNS messages carry few distinct suffixes, so the scan costs
/// less than hashing each suffix.
#[derive(Debug, Default)]
pub struct CompressionTable<'a> {
    suffixes: Vec<(&'a [Vec<u8>], u16)>,
}

impl<'a> CompressionTable<'a> {
    /// An empty table, for the start of a message.
    pub fn new() -> Self {
        Self::default()
    }

    /// The offset `suffix` was written at, if it was recorded.
    fn offset_of(&self, suffix: &[Vec<u8>]) -> Option<u16> {
        self.suffixes
            .iter()
            .find(|(seen, _)| *seen == suffix)
            .map(|&(_, off)| off)
    }
}

impl fmt::Display for Name {
    /// Presentation format with a trailing dot (`example.com.`); the root is
    /// rendered as `"."`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            return write!(f, ".");
        }
        for label in &self.labels {
            for &b in label {
                if b.is_ascii_graphic() {
                    write!(f, "{}", b as char)?;
                } else {
                    write!(f, "\\{:03}", b)?;
                }
            }
            write!(f, ".")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Name {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Header, Message};

    #[test]
    fn parse_and_display_round_trip() {
        let n = Name::parse("DNS.Example.COM").unwrap();
        assert_eq!(n.to_string(), "dns.example.com.");
        assert_eq!(n.label_count(), 3);
    }

    #[test]
    fn root_forms() {
        assert_eq!(Name::parse("").unwrap(), Name::root());
        assert_eq!(Name::parse(".").unwrap(), Name::root());
        assert_eq!(Name::root().to_string(), ".");
        assert_eq!(Name::root().wire_len(), 1);
    }

    #[test]
    fn trailing_dot_is_optional() {
        assert_eq!(
            Name::parse("example.com.").unwrap(),
            Name::parse("example.com").unwrap()
        );
    }

    #[test]
    fn empty_label_rejected() {
        assert!(Name::parse("a..b").is_err());
    }

    #[test]
    fn overlong_label_rejected() {
        let long = "a".repeat(64);
        assert!(matches!(
            Name::parse(&long),
            Err(WireError::LabelTooLong(64))
        ));
    }

    #[test]
    fn overlong_name_rejected() {
        let label = "a".repeat(63);
        let name = [label.as_str(); 5].join(".");
        assert!(matches!(Name::parse(&name), Err(WireError::NameTooLong(_))));
    }

    #[test]
    fn within_and_parent() {
        let sub = Name::parse("a.b.example.com").unwrap();
        let apex = Name::parse("example.com").unwrap();
        assert!(sub.is_within(&apex));
        assert!(sub.is_within(&Name::root()));
        assert!(!apex.is_within(&sub));
        assert_eq!(sub.parent().unwrap().to_string(), "b.example.com.");
        assert!(Name::root().parent().is_none());
    }

    #[test]
    fn second_level_domain() {
        let n = Name::parse("mozilla.cloudflare-dns.com").unwrap();
        assert_eq!(
            n.second_level_domain().unwrap().to_string(),
            "cloudflare-dns.com."
        );
        assert!(Name::parse("com").unwrap().second_level_domain().is_none());
    }

    /// A query header announcing `qdcount` questions, for the test to
    /// write their names after.
    fn header_for(qdcount: u16) -> Vec<u8> {
        let mut buf = Vec::new();
        Header {
            qdcount,
            ..Header::new_query(1)
        }
        .encode(&mut buf);
        buf
    }

    /// The type (A) and class (IN) that end each question.
    const A_IN: [u8; 4] = [0, 1, 0, 1];

    fn qnames(wire: &[u8]) -> Vec<Name> {
        let msg = Message::decode(wire).unwrap();
        msg.questions.into_iter().map(|q| q.qname).collect()
    }

    #[test]
    fn uncompressed_round_trip() {
        let n = Name::parse("dns.quad9.net").unwrap();
        let mut buf = header_for(1);
        n.encode_uncompressed(&mut buf);
        assert_eq!(buf.len(), Header::WIRE_LEN + n.wire_len());
        buf.extend_from_slice(&A_IN);
        assert_eq!(qnames(&buf), [n]);
    }

    #[test]
    fn compression_reuses_suffixes() {
        let a = Name::parse("one.example.com").unwrap();
        let b = Name::parse("two.example.com").unwrap();
        let mut buf = header_for(2);
        let mut table = CompressionTable::new();
        a.encode_compressed(&mut buf, &mut table);
        buf.extend_from_slice(&A_IN);
        let first_len = buf.len();
        b.encode_compressed(&mut buf, &mut table);
        // "two" label (4 bytes) + 2-byte pointer instead of full 17 bytes.
        assert_eq!(buf.len() - first_len, 4 + 2);
        buf.extend_from_slice(&A_IN);
        assert_eq!(qnames(&buf), [a, b]);
    }

    #[test]
    fn identical_name_collapses_to_pointer() {
        let a = Name::parse("example.com").unwrap();
        let mut buf = Vec::new();
        let mut table = CompressionTable::new();
        a.encode_compressed(&mut buf, &mut table);
        let first = buf.len();
        a.encode_compressed(&mut buf, &mut table);
        assert_eq!(buf.len() - first, 2);
    }

    #[test]
    fn prepend_builds_probe_names() {
        let apex = Name::parse("probe.example.com").unwrap();
        let unique = apex.prepend("x1f3a9").unwrap();
        assert_eq!(unique.to_string(), "x1f3a9.probe.example.com.");
        assert!(unique.is_within(&apex));
    }
}
