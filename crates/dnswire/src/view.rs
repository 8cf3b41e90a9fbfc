//! Zero-copy borrowed views over DNS wire messages.
//!
//! [`MessageView::parse`] is the crate's only DNS validation walk: it checks
//! an entire message in one pass but builds no owned values. Names stay as
//! offsets into the input buffer and are resolved lazily through
//! [`NameRef`], compression pointers included. After a successful parse, the
//! section iterators and RDATA accessors are infallible and allocation-free,
//! which is what lets the scanner classify millions of DoT responses per
//! epoch without touching the heap. The owned decoder,
//! [`Message::decode`](crate::Message::decode), is this parse followed by
//! [`MessageView::to_message`], an infallible copy.
//!
//! The view layer deliberately avoids slice combinators and `Option`-returning
//! std helpers on the parse path; every bound is checked with explicit
//! comparisons so the allocation-freedom proof (doe-lint D012, rooted at the
//! entry points below) has a small, auditable call tree.

use crate::error::WireError;
use crate::header::{Header, Rcode};
use crate::message::{Message, Question};
use crate::name::Name;
use crate::rr::{RData, RecordClass, RecordType, ResourceRecord, SoaData};
use crate::MAX_NAME_LEN;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Big-endian u16 at `at`. Callers must have bounds-checked `at + 2`.
#[inline]
fn be16(msg: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([msg[at], msg[at + 1]])
}

/// Walk a (possibly compressed) name without materialising labels.
///
/// The RFC 1035 name checks: truncation of a length byte, label or pointer,
/// the `BadPointer` rule (targets must precede the cursor), the 64-jump
/// `PointerLoop` limit and the 255-octet `NameTooLong` cap. On success
/// `*pos` is advanced past the inline representation; pointers are followed
/// without moving it.
fn skip_name(msg: &[u8], pos: &mut usize) -> Result<(), WireError> {
    let mut total = 1usize;
    let mut cursor = *pos;
    let mut jumped = false;
    let mut jumps = 0u32;
    let mut end_of_inline = *pos;

    loop {
        if cursor >= msg.len() {
            return Err(WireError::Truncated {
                expecting: "name label length",
            });
        }
        let len_byte = msg[cursor];
        match len_byte & 0b1100_0000 {
            0b0000_0000 => {
                if len_byte == 0 {
                    if !jumped {
                        end_of_inline = cursor + 1;
                    }
                    break;
                }
                let len = len_byte as usize;
                let end = cursor + 1 + len;
                if end > msg.len() {
                    return Err(WireError::Truncated {
                        expecting: "name label",
                    });
                }
                total += 1 + len;
                if total > MAX_NAME_LEN {
                    return Err(WireError::NameTooLong(total));
                }
                cursor = end;
                if !jumped {
                    end_of_inline = cursor;
                }
            }
            0b1100_0000 => {
                if cursor + 1 >= msg.len() {
                    return Err(WireError::Truncated {
                        expecting: "pointer low byte",
                    });
                }
                let second = msg[cursor + 1];
                let target = (((len_byte & 0b0011_1111) as u16) << 8) | second as u16;
                if (target as usize) >= cursor {
                    return Err(WireError::BadPointer(target));
                }
                jumps += 1;
                if jumps > 64 {
                    return Err(WireError::PointerLoop);
                }
                if !jumped {
                    end_of_inline = cursor + 2;
                    jumped = true;
                }
                cursor = target as usize;
            }
            other => return Err(WireError::BadLabelType(other)),
        }
    }
    *pos = end_of_inline;
    Ok(())
}

/// Validate RDATA of `rtype` at `msg[start..start+len]` without decoding it.
///
/// The `Truncated { "rdata" }` bounds check comes first, then the layout of
/// the type: fixed lengths for `A`/`AAAA`, names that consume the RDATA
/// exactly for the name-bearing types, and TXT segments that stay inside it.
/// [`RrView::rdata`] copies out exactly the layout checked here.
fn check_rdata(msg: &[u8], rtype: RecordType, start: usize, len: usize) -> Result<(), WireError> {
    let end = start + len;
    if end > msg.len() {
        return Err(WireError::Truncated { expecting: "rdata" });
    }
    match rtype {
        RecordType::A => {
            if len != 4 {
                return Err(WireError::BadRdataLength {
                    rtype: rtype.to_u16(),
                    found: len,
                });
            }
            Ok(())
        }
        RecordType::Aaaa => {
            if len != 16 {
                return Err(WireError::BadRdataLength {
                    rtype: rtype.to_u16(),
                    found: len,
                });
            }
            Ok(())
        }
        RecordType::Ns | RecordType::Cname | RecordType::Ptr => {
            let mut pos = start;
            skip_name(msg, &mut pos)?;
            if pos != end {
                return Err(WireError::BadRdataLength {
                    rtype: rtype.to_u16(),
                    found: len,
                });
            }
            Ok(())
        }
        RecordType::Soa => {
            let mut pos = start;
            skip_name(msg, &mut pos)?;
            skip_name(msg, &mut pos)?;
            if pos + 20 > msg.len() {
                return Err(WireError::Truncated {
                    expecting: "soa fields",
                });
            }
            pos += 20;
            if pos != end {
                return Err(WireError::BadRdataLength {
                    rtype: rtype.to_u16(),
                    found: len,
                });
            }
            Ok(())
        }
        RecordType::Mx => {
            if len < 3 {
                return Err(WireError::BadRdataLength {
                    rtype: rtype.to_u16(),
                    found: len,
                });
            }
            let mut pos = start + 2;
            skip_name(msg, &mut pos)?;
            if pos != end {
                return Err(WireError::BadRdataLength {
                    rtype: rtype.to_u16(),
                    found: len,
                });
            }
            Ok(())
        }
        RecordType::Txt => {
            let mut i = 0usize;
            while i < len {
                let seg_len = msg[start + i] as usize;
                if i + 1 + seg_len > len {
                    return Err(WireError::Truncated {
                        expecting: "txt segment",
                    });
                }
                i += 1 + seg_len;
            }
            Ok(())
        }
        RecordType::Opt | RecordType::Other(_) => Ok(()),
    }
}

/// Walk one resource record, validating name, fixed fields and RDATA.
/// Returns the record type so the caller can enforce OPT placement.
fn skip_record(msg: &[u8], pos: &mut usize) -> Result<RecordType, WireError> {
    skip_name(msg, pos)?;
    if *pos + 10 > msg.len() {
        return Err(WireError::Truncated {
            expecting: "rr fixed fields",
        });
    }
    let rtype = RecordType::from_u16(be16(msg, *pos));
    let rdlen = be16(msg, *pos + 8) as usize;
    *pos += 10;
    check_rdata(msg, rtype, *pos, rdlen)?;
    *pos += rdlen;
    Ok(rtype)
}

/// A domain name as offsets into the message buffer; labels resolve lazily.
#[derive(Debug, Clone, Copy)]
pub struct NameRef<'a> {
    msg: &'a [u8],
    start: usize,
}

impl<'a> NameRef<'a> {
    /// Iterate the raw label bytes, leftmost first, following compression
    /// pointers. Labels are returned in original case; DNS comparison is
    /// case-insensitive, so use [`ascii lowercase`](u8::to_ascii_lowercase)
    /// folding when matching.
    pub fn label_iter(&self) -> LabelIter<'a> {
        LabelIter {
            msg: self.msg,
            cursor: self.start,
            jumps: 0,
        }
    }

    /// Case-insensitive comparison against a presentation-format name such
    /// as `"probe.example.com"` (trailing dot optional, no escapes).
    pub fn eq_presentation(&self, mut expect: &str) -> bool {
        if let Some(stripped) = expect.strip_suffix('.') {
            expect = stripped;
        }
        let mut rest = expect.as_bytes();
        let mut labels = self.label_iter();
        loop {
            match labels.next_label() {
                Some(label) => {
                    if rest.is_empty() || rest.len() < label.len() {
                        return false;
                    }
                    let (head, tail) = rest.split_at(label.len());
                    if !head.eq_ignore_ascii_case(label) {
                        return false;
                    }
                    rest = tail;
                    match rest.split_first() {
                        Some((&b'.', after)) => rest = after,
                        Some(_) => return false,
                        None => rest = &[],
                    }
                }
                None => return rest.is_empty(),
            }
        }
    }

    /// Copy out an owned, lower-cased [`Name`]. Infallible: a `NameRef`
    /// exists only inside a message [`MessageView::parse`] validated.
    /// Allocates — for the owned decoder and reporting, never for hot-path
    /// classification.
    pub fn to_name(&self) -> Name {
        Name::from_wire_labels(self.label_iter())
    }
}

/// Lazy label iterator for [`NameRef`]; yields raw (original-case) labels.
#[derive(Debug, Clone, Copy)]
pub struct LabelIter<'a> {
    msg: &'a [u8],
    cursor: usize,
    jumps: u32,
}

impl<'a> LabelIter<'a> {
    /// The next label, or `None` at the root terminator.
    ///
    /// The underlying bytes were validated by [`MessageView::parse`], so the
    /// defensive bound/loop checks here can only trip on a `NameRef` built
    /// from a different buffer — they yield `None` rather than panicking.
    pub fn next_label(&mut self) -> Option<&'a [u8]> {
        loop {
            if self.cursor >= self.msg.len() || self.jumps > 64 {
                return None;
            }
            let len_byte = self.msg[self.cursor];
            match len_byte & 0b1100_0000 {
                0b0000_0000 => {
                    if len_byte == 0 {
                        return None;
                    }
                    let start = self.cursor + 1;
                    let end = start + len_byte as usize;
                    if end > self.msg.len() {
                        return None;
                    }
                    self.cursor = end;
                    return Some(&self.msg[start..end]);
                }
                0b1100_0000 => {
                    if self.cursor + 1 >= self.msg.len() {
                        return None;
                    }
                    let target = (((len_byte & 0b0011_1111) as usize) << 8)
                        | self.msg[self.cursor + 1] as usize;
                    if target >= self.cursor {
                        return None;
                    }
                    self.jumps += 1;
                    self.cursor = target;
                }
                _ => return None,
            }
        }
    }
}

impl<'a> Iterator for LabelIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        self.next_label()
    }
}

/// One question-section entry, borrowed.
#[derive(Debug, Clone, Copy)]
pub struct QuestionView<'a> {
    /// Queried name.
    pub qname: NameRef<'a>,
    /// Queried type.
    pub qtype: RecordType,
    /// Queried class.
    pub qclass: RecordClass,
}

impl QuestionView<'_> {
    /// Copy out an owned [`Question`].
    pub fn to_question(&self) -> Question {
        Question {
            qname: self.qname.to_name(),
            qtype: self.qtype,
            qclass: self.qclass,
        }
    }
}

/// One resource record, borrowed; RDATA stays as a byte range.
#[derive(Debug, Clone, Copy)]
pub struct RrView<'a> {
    msg: &'a [u8],
    /// Owner name.
    pub name: NameRef<'a>,
    /// Record type.
    pub rtype: RecordType,
    /// Record class.
    pub class: RecordClass,
    /// Time to live, seconds.
    pub ttl: u32,
    rdata_start: usize,
    rdata_len: usize,
}

impl<'a> RrView<'a> {
    /// Copy out an owned [`ResourceRecord`].
    pub fn to_record(&self) -> ResourceRecord {
        ResourceRecord {
            name: self.name.to_name(),
            rtype: self.rtype,
            class: self.class,
            ttl: self.ttl,
            rdata: self.rdata(),
        }
    }

    /// Copy out the RDATA as an owned [`RData`], reading the layout
    /// `check_rdata` validated for this type. Names inside it may be
    /// compressed, so they resolve against the whole message.
    pub fn rdata(&self) -> RData {
        let bytes = self.rdata_bytes();
        let name_at = |start| NameRef {
            msg: self.msg,
            start,
        };
        let mut soa_rname = self.rdata_start;
        match (self.rtype, bytes) {
            (RecordType::A, &[a, b, c, d]) => RData::A(Ipv4Addr::new(a, b, c, d)),
            (RecordType::Aaaa, _) if bytes.len() == 16 => {
                let mut octets = [0u8; 16];
                octets.copy_from_slice(bytes);
                RData::Aaaa(Ipv6Addr::from(octets))
            }
            (RecordType::Ns, _) => RData::Ns(name_at(self.rdata_start).to_name()),
            (RecordType::Cname, _) => RData::Cname(name_at(self.rdata_start).to_name()),
            (RecordType::Ptr, _) => RData::Ptr(name_at(self.rdata_start).to_name()),
            (RecordType::Mx, &[hi, lo, ..]) => RData::Mx {
                preference: u16::from_be_bytes([hi, lo]),
                exchange: name_at(self.rdata_start + 2).to_name(),
            },
            // The guard's walk over `mname` finds where `rname` starts.
            (RecordType::Soa, _)
                if bytes.len() >= 20 && skip_name(self.msg, &mut soa_rname).is_ok() =>
            {
                let fixed = &bytes[bytes.len() - 20..];
                let word = |i: usize| {
                    u32::from_be_bytes([fixed[i], fixed[i + 1], fixed[i + 2], fixed[i + 3]])
                };
                RData::Soa(SoaData {
                    mname: name_at(self.rdata_start).to_name(),
                    rname: name_at(soa_rname).to_name(),
                    serial: word(0),
                    refresh: word(4),
                    retry: word(8),
                    expire: word(12),
                    minimum: word(16),
                })
            }
            (RecordType::Txt, _) => {
                let mut segments = Vec::new();
                let mut rest = bytes;
                while let [len, tail @ ..] = rest {
                    let (segment, after) = tail.split_at(usize::from(*len).min(tail.len()));
                    segments.push(segment.to_vec());
                    rest = after;
                }
                RData::Txt(segments)
            }
            _ => RData::Opaque(bytes.to_vec()),
        }
    }

    /// The raw RDATA bytes.
    pub fn rdata_bytes(&self) -> &'a [u8] {
        let end = self.rdata_start + self.rdata_len;
        if end <= self.msg.len() {
            &self.msg[self.rdata_start..end]
        } else {
            &[]
        }
    }

    /// The IPv4 address for an `A` record, without allocating.
    pub fn rdata_a(&self) -> Option<Ipv4Addr> {
        if self.rtype != RecordType::A || self.rdata_len != 4 {
            return None;
        }
        let b = self.rdata_bytes();
        if b.len() != 4 {
            return None;
        }
        Some(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
    }

    /// The target name for the name-bearing types (`NS`/`CNAME`/`PTR`).
    pub fn rdata_name(&self) -> Option<NameRef<'a>> {
        match self.rtype {
            RecordType::Ns | RecordType::Cname | RecordType::Ptr => Some(NameRef {
                msg: self.msg,
                start: self.rdata_start,
            }),
            _ => None,
        }
    }
}

/// Iterator over the question section.
#[derive(Debug, Clone, Copy)]
pub struct QuestionIter<'a> {
    msg: &'a [u8],
    pos: usize,
    remaining: u16,
}

impl<'a> QuestionIter<'a> {
    fn step(&mut self) -> Option<QuestionView<'a>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let qname = NameRef {
            msg: self.msg,
            start: self.pos,
        };
        let mut pos = self.pos;
        if skip_name(self.msg, &mut pos).is_err() || pos + 4 > self.msg.len() {
            self.remaining = 0;
            return None;
        }
        let qtype = RecordType::from_u16(be16(self.msg, pos));
        let qclass = RecordClass::from_u16(be16(self.msg, pos + 2));
        self.pos = pos + 4;
        Some(QuestionView {
            qname,
            qtype,
            qclass,
        })
    }
}

impl<'a> Iterator for QuestionIter<'a> {
    type Item = QuestionView<'a>;

    fn next(&mut self) -> Option<QuestionView<'a>> {
        self.step()
    }
}

/// Iterator over one resource-record section.
#[derive(Debug, Clone, Copy)]
pub struct RrIter<'a> {
    msg: &'a [u8],
    pos: usize,
    remaining: u16,
}

impl<'a> RrIter<'a> {
    fn step(&mut self) -> Option<RrView<'a>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let name = NameRef {
            msg: self.msg,
            start: self.pos,
        };
        let mut pos = self.pos;
        if skip_name(self.msg, &mut pos).is_err() || pos + 10 > self.msg.len() {
            self.remaining = 0;
            return None;
        }
        let rtype = RecordType::from_u16(be16(self.msg, pos));
        let class = RecordClass::from_u16(be16(self.msg, pos + 2));
        let ttl = u32::from_be_bytes([
            self.msg[pos + 4],
            self.msg[pos + 5],
            self.msg[pos + 6],
            self.msg[pos + 7],
        ]);
        let rdata_len = be16(self.msg, pos + 8) as usize;
        let rdata_start = pos + 10;
        if rdata_start + rdata_len > self.msg.len() {
            self.remaining = 0;
            return None;
        }
        self.pos = rdata_start + rdata_len;
        Some(RrView {
            msg: self.msg,
            name,
            rtype,
            class,
            ttl,
            rdata_start,
            rdata_len,
        })
    }
}

impl<'a> Iterator for RrIter<'a> {
    type Item = RrView<'a>;

    fn next(&mut self) -> Option<RrView<'a>> {
        self.step()
    }
}

/// A borrowed, validated view of a complete DNS message.
///
/// Construction via [`MessageView::parse`] performs the crate's full strict
/// validation, so [`Message::decode`](crate::Message::decode) returns exactly
/// its typed errors. Afterwards every accessor is allocation-free and
/// panic-free, and [`MessageView::to_message`] copies the message out.
#[derive(Debug, Clone, Copy)]
pub struct MessageView<'a> {
    msg: &'a [u8],
    header: Header,
    answers_off: usize,
    authority_off: usize,
    additional_off: usize,
}

impl<'a> MessageView<'a> {
    /// Validate `msg` and build a view. Trailing bytes are an error, as is an
    /// OPT record outside the additional section or more than one OPT record
    /// (RFC 6891 §6.1.1).
    pub fn parse(msg: &'a [u8]) -> Result<Self, WireError> {
        let mut pos = 0usize;
        let header = Header::decode(msg, &mut pos)?;
        let mut left = header.qdcount;
        while left > 0 {
            skip_name(msg, &mut pos)?;
            if pos + 4 > msg.len() {
                return Err(WireError::Truncated {
                    expecting: "question fixed fields",
                });
            }
            pos += 4;
            left -= 1;
        }
        let answers_off = pos;
        let mut opt_misplaced = false;
        let mut opt_count = 0u32;
        left = header.ancount;
        while left > 0 {
            if skip_record(msg, &mut pos)? == RecordType::Opt {
                opt_misplaced = true;
            }
            left -= 1;
        }
        let authority_off = pos;
        left = header.nscount;
        while left > 0 {
            if skip_record(msg, &mut pos)? == RecordType::Opt {
                opt_misplaced = true;
            }
            left -= 1;
        }
        let additional_off = pos;
        left = header.arcount;
        while left > 0 {
            if skip_record(msg, &mut pos)? == RecordType::Opt {
                opt_count += 1;
            }
            left -= 1;
        }
        if pos != msg.len() {
            return Err(WireError::TrailingBytes(msg.len() - pos));
        }
        if opt_misplaced || opt_count > 1 {
            return Err(WireError::MisplacedOpt);
        }
        Ok(MessageView {
            msg,
            header,
            answers_off,
            authority_off,
            additional_off,
        })
    }

    /// The decoded header (fixed 12 octets; counts as found on the wire).
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The transaction ID.
    pub fn id(&self) -> u16 {
        self.header.id
    }

    /// The response code.
    pub fn rcode(&self) -> Rcode {
        self.header.rcode
    }

    /// Iterate the question section.
    pub fn questions(&self) -> QuestionIter<'a> {
        QuestionIter {
            msg: self.msg,
            pos: Header::WIRE_LEN,
            remaining: self.header.qdcount,
        }
    }

    /// Iterate the answer section.
    pub fn answers(&self) -> RrIter<'a> {
        RrIter {
            msg: self.msg,
            pos: self.answers_off,
            remaining: self.header.ancount,
        }
    }

    /// Iterate the authority section.
    pub fn authority(&self) -> RrIter<'a> {
        RrIter {
            msg: self.msg,
            pos: self.authority_off,
            remaining: self.header.nscount,
        }
    }

    /// Iterate the additional section.
    pub fn additional(&self) -> RrIter<'a> {
        RrIter {
            msg: self.msg,
            pos: self.additional_off,
            remaining: self.header.arcount,
        }
    }

    /// The first `A` record in the answer section, if any — the scanner's
    /// correctness check (§3.2: did the resolver return our controlled
    /// answer?) without materialising the message.
    pub fn first_a_answer(&self) -> Option<Ipv4Addr> {
        let mut iter = self.answers();
        loop {
            match iter.step() {
                Some(rr) => {
                    if let Some(addr) = rr.rdata_a() {
                        return Some(addr);
                    }
                }
                None => return None,
            }
        }
    }

    /// Copy the whole message out as an owned [`Message`], each section
    /// sized from its header count. Infallible: `parse` validated every
    /// byte the copy reads.
    pub fn to_message(&self) -> Message {
        let copy = |section: RrIter<'a>| {
            let mut records = Vec::with_capacity(section.remaining.into());
            records.extend(section.map(|rr| rr.to_record()));
            records
        };
        let mut questions = Vec::with_capacity(self.header.qdcount.into());
        questions.extend(self.questions().map(|q| q.to_question()));
        Message {
            header: self.header,
            questions,
            answers: copy(self.answers()),
            authority: copy(self.authority()),
            additional: copy(self.additional()),
        }
    }
}

/// An owned DNS message kept as the wire bytes it arrived as, which
/// [`MessageView::parse`] accepted. It stores the header and the section
/// offsets that parse found, so [`MessageBuf::view`] is infallible and
/// free, and bytes that failed validation cannot be held as one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageBuf {
    bytes: Vec<u8>,
    header: Header,
    answers_off: usize,
    authority_off: usize,
    additional_off: usize,
}

impl MessageBuf {
    /// Validate `bytes` as [`MessageView::parse`] does, with its errors,
    /// and keep them without copying.
    pub fn parse(bytes: Vec<u8>) -> Result<Self, WireError> {
        let MessageView {
            header,
            answers_off,
            authority_off,
            additional_off,
            ..
        } = MessageView::parse(&bytes)?;
        Ok(MessageBuf {
            bytes,
            header,
            answers_off,
            authority_off,
            additional_off,
        })
    }

    /// The borrowed view of the validated bytes.
    pub fn view(&self) -> MessageView<'_> {
        MessageView {
            msg: &self.bytes,
            header: self.header,
            answers_off: self.answers_off,
            authority_off: self.authority_off,
            additional_off: self.additional_off,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;

    fn response_fixture() -> Vec<u8> {
        let q = builder::query(0x1234, "www.example.com", RecordType::A).unwrap();
        let mut resp = builder::answer(
            &q,
            vec![
                ResourceRecord::new(
                    Name::parse("www.example.com").unwrap(),
                    60,
                    RData::Cname(Name::parse("cdn.example.com").unwrap()),
                ),
                ResourceRecord::new(
                    Name::parse("cdn.example.com").unwrap(),
                    60,
                    RData::A(std::net::Ipv4Addr::new(198, 51, 100, 7)),
                ),
            ],
        );
        resp.authority.push(ResourceRecord::new(
            Name::parse("example.com").unwrap(),
            60,
            RData::Ns(Name::parse("ns1.example.com").unwrap()),
        ));
        resp.encode().unwrap()
    }

    #[test]
    fn view_matches_owned_decode() {
        let bytes = response_fixture();
        let owned = Message::decode(&bytes).unwrap();
        let view = MessageView::parse(&bytes).unwrap();
        assert_eq!(view.id(), owned.id());
        assert_eq!(view.rcode(), owned.rcode());
        assert_eq!(view.header(), &owned.header);
        assert_eq!(view.questions().count(), owned.questions.len());
        assert_eq!(view.answers().count(), owned.answers.len());
        assert_eq!(view.authority().count(), owned.authority.len());
        assert_eq!(view.additional().count(), owned.additional.len());
    }

    #[test]
    fn compressed_names_resolve_lazily() {
        let bytes = response_fixture();
        let view = MessageView::parse(&bytes).unwrap();
        let second = view.answers().nth(1).unwrap();
        // The second owner is a bare compression pointer on the wire.
        assert!(second.name.eq_presentation("cdn.example.com"));
        assert!(second.name.eq_presentation("CDN.Example.COM."));
        assert!(!second.name.eq_presentation("cdn.example.net"));
        assert_eq!(second.name.to_name().to_string(), "cdn.example.com.");
    }

    #[test]
    fn labels_keep_wire_case_but_copy_out_lower_case() {
        let mut bytes = Vec::new();
        Header {
            qdcount: 1,
            ..Header::new_query(1)
        }
        .encode(&mut bytes);
        bytes.extend_from_slice(b"\x03WwW\x07ExAmPlE\x00\x00\x01\x00\x01");
        let view = MessageView::parse(&bytes).unwrap();
        let qname = view.questions().next().unwrap().qname;
        let labels: Vec<&[u8]> = qname.label_iter().collect();
        assert_eq!(labels, [&b"WwW"[..], b"ExAmPlE"]);
        assert_eq!(qname.to_name().to_string(), "www.example.");
        assert_eq!(
            Message::decode(&bytes).unwrap().questions[0].qname,
            qname.to_name()
        );
    }

    #[test]
    fn first_a_answer_skips_cname() {
        let bytes = response_fixture();
        let view = MessageView::parse(&bytes).unwrap();
        assert_eq!(
            view.first_a_answer(),
            Some(std::net::Ipv4Addr::new(198, 51, 100, 7))
        );
    }

    #[test]
    fn rdata_name_follows_pointers() {
        let bytes = response_fixture();
        let view = MessageView::parse(&bytes).unwrap();
        let ns = view.authority().next().unwrap();
        assert_eq!(ns.rtype, RecordType::Ns);
        assert!(ns.rdata_name().unwrap().eq_presentation("ns1.example.com"));
    }

    #[test]
    fn trailing_bytes_rejected_like_owned() {
        let mut bytes = response_fixture();
        bytes.push(0);
        assert!(matches!(
            MessageView::parse(&bytes),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn message_buf_keeps_what_the_view_accepted() {
        let bytes = response_fixture();
        let buf = MessageBuf::parse(bytes.clone()).unwrap();
        let (kept, fresh) = (buf.view(), MessageView::parse(&bytes).unwrap());
        assert_eq!(kept.header(), fresh.header());
        assert_eq!(kept.to_message(), fresh.to_message());
        assert_eq!(kept.first_a_answer(), fresh.first_a_answer());
        let mut trailing = bytes;
        trailing.push(0);
        for junk in [trailing, vec![0; 5], vec![0xff; 12]] {
            let err = MessageView::parse(&junk).unwrap_err();
            assert_eq!(MessageBuf::parse(junk), Err(err));
        }
    }

    #[test]
    fn hostile_garbage_never_panics() {
        let cases: Vec<Vec<u8>> = vec![vec![], vec![0; 5], vec![0xff; 12]];
        for case in cases {
            assert!(MessageView::parse(&case).is_err());
        }
    }
}
