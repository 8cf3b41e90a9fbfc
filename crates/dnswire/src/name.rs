//! Domain names: presentation parsing and wire encoding with message
//! compression (RFC 1035 §4.1.4). Decoding is
//! [`NameRef::to_name`](crate::NameRef::to_name), a copy out of a validated
//! [`MessageView`](crate::MessageView).

use crate::error::WireError;
use crate::{MAX_LABEL_LEN, MAX_NAME_LEN};
use std::fmt;

/// A fully-qualified domain name, stored as one lower-cased buffer in
/// uncompressed wire form: each label's length octet, then the label,
/// leftmost label first, without the root's terminating zero octet. The
/// root is the empty buffer.
///
/// Names are case-insensitive for comparison (RFC 1035 §2.3.3); we normalise
/// to lowercase at construction. The length octets delimit the labels, so
/// two names are equal exactly when their buffers are, and `Eq`/`Hash`
/// compare the bytes. Building, copying out, cloning or dropping a name
/// costs one allocation (none for the root). Names have no order: the
/// buffer's byte order would rank by the first label's length, which is no
/// DNS order, and nothing sorts names.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Name {
    wire: Box<[u8]>,
}

/// Append one label, length octet first, lower-casing it.
fn push_label(wire: &mut Vec<u8>, label: &[u8]) {
    wire.push(label.len() as u8);
    wire.extend(label.iter().map(u8::to_ascii_lowercase));
}

/// Every suffix of a name's buffer that starts at a label boundary: the
/// whole name first, then each parent, down to (not including) the root.
fn suffixes(wire: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::successors(Some(wire), |suffix| {
        let mut labels = Labels { rest: suffix };
        labels.next().map(|_| labels.rest)
    })
    .take_while(|suffix| !suffix.is_empty())
}

/// True if the name in `wire` equals or lies below the name in `ancestor`,
/// both in [`Name`]'s buffer form: `ancestor` is empty (the root) or one of
/// `wire`'s label-boundary suffixes.
pub(crate) fn is_within(wire: &[u8], ancestor: &[u8]) -> bool {
    ancestor.is_empty() || suffixes(wire).find(|s| s.len() <= ancestor.len()) == Some(ancestor)
}

impl Name {
    /// The root name (zero labels).
    pub fn root() -> Self {
        Name {
            wire: Box::default(),
        }
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
        // Labels are non-empty, so each dot becomes a length octet and the
        // first label gains one: the buffer is exactly one octet longer.
        // A longer input cannot be a name, so the buffer holds at most one
        // name's worth and labels past the limit are validated, counted
        // and not copied: the error is the one the whole copy would give.
        let mut wire = Vec::with_capacity((trimmed.len() + 1).min(MAX_NAME_LEN));
        let mut total = 1; // terminating root byte
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
            if total <= MAX_NAME_LEN {
                push_label(&mut wire, bytes);
            }
        }
        if total > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(total));
        }
        Ok(Name {
            wire: wire.into_boxed_slice(),
        })
    }

    /// Lower-cased copy of labels a validated message holds, leftmost
    /// first, into one buffer of exactly the name's size.
    pub(crate) fn from_wire_labels<'l>(labels: impl Iterator<Item = &'l [u8]> + Clone) -> Self {
        let len = labels.clone().map(|label| 1 + label.len()).sum();
        let mut wire = Vec::with_capacity(len);
        for label in labels {
            push_label(&mut wire, label);
        }
        Name {
            wire: wire.into_boxed_slice(),
        }
    }

    /// The name's buffer: uncompressed wire form without the root octet.
    pub(crate) fn wire(&self) -> &[u8] {
        &self.wire
    }

    /// Number of labels (`0` for the root).
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// The labels, leftmost (most specific) first.
    pub fn labels(&self) -> Labels<'_> {
        Labels { rest: &self.wire }
    }

    /// Length of the name in wire octets, including the root terminator.
    pub fn wire_len(&self) -> usize {
        self.wire.len() + 1
    }

    /// True if `self` equals or is a subdomain of `other`
    /// (`dns.example.com` is within `example.com` and within the root).
    pub fn is_within(&self, other: &Name) -> bool {
        is_within(&self.wire, &other.wire)
    }

    /// The parent name, or `None` at the root.
    pub fn parent(&self) -> Option<Name> {
        self.parent_wire().map(|wire| Name { wire: wire.into() })
    }

    /// The parent's buffer, borrowed from this one; `None` at the root.
    fn parent_wire(&self) -> Option<&[u8]> {
        let mut labels = self.labels();
        labels.next()?;
        Some(labels.rest)
    }

    /// The buffer of `*` plus the parent, the owner a one-level wildcard
    /// answers this name from, written into `buf`; `None` at the root. It
    /// always fits: a buffer holds at most 254 octets, so a parent's holds
    /// at most 253.
    pub(crate) fn wildcard_wire<'b>(&self, buf: &'b mut [u8; MAX_NAME_LEN]) -> Option<&'b [u8]> {
        let parent = self.parent_wire()?;
        let wild = buf.get_mut(..2 + parent.len())?;
        let (star, rest) = wild.split_at_mut(2);
        star.copy_from_slice(b"\x01*");
        rest.copy_from_slice(parent);
        Some(wild)
    }

    /// Prepend a label, e.g. turning `example.com` into `probe7.example.com`.
    pub fn prepend(&self, label: &str) -> Result<Name, WireError> {
        self.prepend_labels(&[label.as_bytes()])
    }

    /// Prepend `labels`, leftmost first, in one allocation: `[b"q0", b"c7"]`
    /// turns `example.com` into `q0.c7.example.com`. Each label is taken as
    /// [`Self::prepend`] takes its one: lower-cased, refused past 63 octets
    /// (the first such label decides the error), then the whole name past
    /// 255.
    pub fn prepend_labels(&self, labels: &[&[u8]]) -> Result<Name, WireError> {
        let mut total = self.wire_len();
        for label in labels {
            if label.len() > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong(label.len()));
            }
            total += 1 + label.len();
        }
        if total > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(total));
        }
        let mut wire = Vec::with_capacity(total - 1);
        for label in labels {
            push_label(&mut wire, label);
        }
        wire.extend_from_slice(&self.wire);
        Ok(Name {
            wire: wire.into_boxed_slice(),
        })
    }

    /// The registrable second-level domain (last two labels), if present.
    ///
    /// The scanner groups DoT providers by the SLD of their certificate
    /// common names, mirroring §3.2 of the paper.
    pub fn second_level_domain(&self) -> Option<Name> {
        let count = self.label_count();
        let sld = suffixes(&self.wire).nth(count.checked_sub(2)?)?;
        Some(Name { wire: sld.into() })
    }

    /// Encode without compression, appending to `buf`.
    pub fn encode_uncompressed(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.wire);
        buf.push(0);
    }

    /// Encode with compression, updating `table` (suffix → offset).
    ///
    /// Each suffix, longest first, is looked up; the first one already
    /// written becomes a pointer and ends the name. Offsets beyond the
    /// 14-bit pointer range are not inserted into the table, as they
    /// cannot be referenced.
    pub fn encode_compressed<'a>(&'a self, buf: &mut Vec<u8>, table: &mut CompressionTable<'a>) {
        for suffix in suffixes(&self.wire) {
            if let Some(off) = table.offset_of(suffix) {
                buf.push(0b1100_0000 | ((off >> 8) as u8));
                buf.push((off & 0xff) as u8);
                return;
            }
            let here = buf.len();
            if here <= 0x3fff {
                table.suffixes.push((suffix, here as u16));
            }
            // The suffix's first label, length octet included.
            buf.extend_from_slice(&suffix[..1 + usize::from(suffix[0])]);
        }
        buf.push(0);
    }
}

/// The labels of a [`Name`], leftmost first, borrowed from its buffer.
#[derive(Debug, Clone)]
pub struct Labels<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, tail) = self.rest.split_first()?;
        let (label, rest) = tail.split_at_checked(usize::from(len))?;
        self.rest = rest;
        Some(label)
    }
}

/// Name-compression state of one message encode: every suffix written so
/// far at a pointer-reachable offset, borrowed from the message's own
/// names' buffers, so recording a suffix copies no label.
///
/// A suffix is recorded only after its lookup missed, so each is present
/// at most once, and a linear scan finds the one exact match, as a map
/// would. Suffixes start at label boundaries, so equal bytes mean equal
/// label sequences. DNS messages carry few distinct suffixes, so the scan
/// costs less than hashing each suffix.
#[derive(Debug, Default)]
pub struct CompressionTable<'a> {
    suffixes: Vec<(&'a [u8], u16)>,
}

impl<'a> CompressionTable<'a> {
    /// An empty table, for the start of a message.
    pub fn new() -> Self {
        Self::default()
    }

    /// The offset `suffix` was written at, if it was recorded.
    fn offset_of(&self, suffix: &[u8]) -> Option<u16> {
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
        if self.wire.is_empty() {
            return write!(f, ".");
        }
        for label in self.labels() {
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
    fn a_suffix_is_a_pointer_target_up_to_offset_0x3fff() {
        // Written at 0x3fff, the name is recorded and its second copy is
        // a pointer to it; one octet later it is past the 14-bit range and
        // is written out again.
        let name = Name::parse("edge.example").unwrap();
        let pointer = vec![0xff, 0xff];
        let again = b"\x04edge\x07example\x00".to_vec();
        for (at, second) in [(0x3fff, pointer), (0x4000, again)] {
            let mut buf = vec![0; at];
            let mut table = CompressionTable::new();
            name.encode_compressed(&mut buf, &mut table);
            let first = buf.len();
            name.encode_compressed(&mut buf, &mut table);
            assert_eq!(buf[first..], second, "first copy at {at:#x}");
        }
    }

    #[test]
    fn prepend_builds_probe_names() {
        let apex = Name::parse("probe.example.com").unwrap();
        let unique = apex.prepend("x1f3a9").unwrap();
        assert_eq!(unique.to_string(), "x1f3a9.probe.example.com.");
        assert!(unique.is_within(&apex));
    }

    #[test]
    fn prepend_labels_is_prepend_right_to_left() {
        let apex = Name::parse("pop.example").unwrap();
        let both = apex.prepend_labels(&[b"Q0a1", b"c7"]).unwrap();
        let chained = apex.prepend("c7").unwrap().prepend("q0a1").unwrap();
        assert_eq!(both, chained);
        assert_eq!(both.to_string(), "q0a1.c7.pop.example.");
        assert_eq!(apex.prepend_labels(&[]).unwrap(), apex);
        let long = [b'x'; 64];
        assert_eq!(
            apex.prepend_labels(&[b"ok", &long]),
            Err(WireError::LabelTooLong(64))
        );
        // The total counts every label: 13 + 4 × 61 octets.
        let label = [b'y'; 60];
        assert_eq!(
            apex.prepend_labels(&[&label, &label, &label, &label]),
            Err(WireError::NameTooLong(257))
        );
    }
}
