//! Complete DNS messages: the four sections, encode with compression, and
//! strict decode as a copy of a validated [`MessageView`].

use crate::edns::OptRecord;
use crate::error::WireError;
use crate::header::{Header, Rcode};
use crate::name::{CompressionTable, Name};
use crate::rr::{RecordClass, RecordType, ResourceRecord};
use crate::view::MessageView;

/// One entry of the question section.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// Queried name.
    pub qname: Name,
    /// Queried type.
    pub qtype: RecordType,
    /// Queried class.
    pub qclass: RecordClass,
}

impl Question {
    /// An `IN`-class question.
    pub fn new(qname: Name, qtype: RecordType) -> Self {
        Question {
            qname,
            qtype,
            qclass: RecordClass::In,
        }
    }

    fn encode<'a>(&'a self, buf: &mut Vec<u8>, table: &mut CompressionTable<'a>) {
        self.qname.encode_compressed(buf, table);
        buf.extend_from_slice(&self.qtype.to_u16().to_be_bytes());
        buf.extend_from_slice(&self.qclass.to_u16().to_be_bytes());
    }
}

/// A full DNS message.
///
/// The header's section counts are recomputed on encode, so callers mutate
/// the `questions`/`answers`/... vectors freely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Message header (counts are advisory until encode).
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<ResourceRecord>,
    /// Authority section.
    pub authority: Vec<ResourceRecord>,
    /// Additional section (including any OPT record).
    pub additional: Vec<ResourceRecord>,
}

impl Message {
    /// An empty message with the given header.
    pub fn new(header: Header) -> Self {
        Message {
            header,
            questions: Vec::new(),
            answers: Vec::new(),
            authority: Vec::new(),
            additional: Vec::new(),
        }
    }

    /// The transaction ID.
    pub fn id(&self) -> u16 {
        self.header.id
    }

    /// The response code.
    pub fn rcode(&self) -> Rcode {
        self.header.rcode
    }

    /// First question, if any — the common single-question case.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// The EDNS OPT record, decoded, if present in the additional section.
    pub fn opt(&self) -> Option<OptRecord> {
        self.additional
            .iter()
            .find(|rr| rr.rtype == RecordType::Opt)
            .and_then(|rr| OptRecord::from_record(rr).ok())
    }

    /// Attach (or replace) the EDNS OPT record.
    pub fn set_opt(&mut self, opt: OptRecord) {
        self.additional.retain(|rr| rr.rtype != RecordType::Opt);
        self.additional.push(opt.to_record());
    }

    /// Add EDNS padding so the encoded message length is a multiple of
    /// `block` (RFC 8467 policy, sized by [`crate::edns::pad_to_block`]).
    /// Requires an OPT record to already be attached (adds a default one
    /// if missing). A message already at an exact block multiple keeps no
    /// padding option — adding one would overshoot by a whole block.
    pub fn pad_to_block(&mut self, block: usize) -> Result<(), WireError> {
        let mut opt = self.opt().unwrap_or_default();
        opt.options
            .retain(|o| o.code != crate::edns::OPTION_PADDING);
        self.set_opt(opt.clone());
        let unpadded = self.encode()?.len();
        if let Some(pad) = OptRecord::padding_for(unpadded, block) {
            opt.options.push(crate::edns::EdnsOption::padding(pad));
            self.set_opt(opt);
        }
        Ok(())
    }

    /// Encode to wire bytes with name compression.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        for count in [
            self.questions.len(),
            self.answers.len(),
            self.authority.len(),
            self.additional.len(),
        ] {
            if count > u16::MAX as usize {
                return Err(WireError::CountOverflow);
            }
        }
        let mut header = self.header;
        header.qdcount = self.questions.len() as u16;
        header.ancount = self.answers.len() as u16;
        header.nscount = self.authority.len() as u16;
        header.arcount = self.additional.len() as u16;

        let mut buf = Vec::with_capacity(64);
        header.encode(&mut buf);
        let mut table = CompressionTable::new();
        for q in &self.questions {
            q.encode(&mut buf, &mut table);
        }
        for rr in self
            .answers
            .iter()
            .chain(self.authority.iter())
            .chain(self.additional.iter())
        {
            rr.encode(&mut buf, &mut table)?;
        }
        if buf.len() > u16::MAX as usize {
            return Err(WireError::MessageTooLong(buf.len()));
        }
        Ok(buf)
    }

    /// Decode a complete message; trailing bytes are an error, as is an OPT
    /// record outside the additional section or more than one OPT record
    /// (RFC 6891 §6.1.1). [`MessageView::parse`] validates; this copies the
    /// validated view out.
    pub fn decode(msg: &[u8]) -> Result<Self, WireError> {
        MessageView::parse(msg).map(|view| view.to_message())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::rr::RData;
    use std::net::Ipv4Addr;

    #[test]
    fn query_encode_decode_round_trip() {
        let q = builder::query(0xabcd, "probe.dnsmeasure.example", RecordType::A).unwrap();
        let bytes = q.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back.id(), 0xabcd);
        assert_eq!(back.questions.len(), 1);
        assert_eq!(
            back.question().unwrap().qname.to_string(),
            "probe.dnsmeasure.example."
        );
        // Counts were recomputed.
        assert_eq!(back.header.qdcount, 1);
    }

    #[test]
    fn response_with_all_sections_round_trips() {
        let q = builder::query(9, "www.example.com", RecordType::A).unwrap();
        let mut resp = builder::answer(
            &q,
            vec![ResourceRecord::new(
                Name::parse("www.example.com").unwrap(),
                60,
                RData::A(Ipv4Addr::new(93, 184, 216, 34)),
            )],
        );
        resp.authority.push(ResourceRecord::new(
            Name::parse("example.com").unwrap(),
            60,
            RData::Ns(Name::parse("ns1.example.com").unwrap()),
        ));
        resp.additional.push(ResourceRecord::new(
            Name::parse("ns1.example.com").unwrap(),
            60,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        let bytes = resp.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back.answers.len(), 1);
        assert_eq!(back.authority.len(), 1);
        assert_eq!(back.additional.len(), 1);
        assert_eq!(back, {
            let mut expect = resp.clone();
            expect.header.qdcount = 1;
            expect.header.ancount = 1;
            expect.header.nscount = 1;
            expect.header.arcount = 1;
            expect
        });
    }

    #[test]
    fn compression_shrinks_shared_suffixes() {
        let q = builder::query(1, "www.example.com", RecordType::A).unwrap();
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
                    RData::A(Ipv4Addr::new(198, 51, 100, 7)),
                ),
            ],
        );
        resp.header.id = 1;
        let compressed = resp.encode().unwrap();
        // The owner of the second record is a bare 2-byte pointer; the
        // message must round-trip despite that.
        let back = Message::decode(&compressed).unwrap();
        assert_eq!(back.answers[1].name.to_string(), "cdn.example.com.");
    }

    #[test]
    fn trailing_bytes_rejected() {
        let q = builder::query(2, "x.example", RecordType::A).unwrap();
        let mut bytes = q.encode().unwrap();
        bytes.push(0);
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn opt_set_and_get() {
        let mut q = builder::query(3, "x.example", RecordType::A).unwrap();
        let opt = OptRecord {
            udp_payload: 1232,
            ..OptRecord::default()
        };
        q.set_opt(opt);
        let bytes = q.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back.opt().unwrap().udp_payload, 1232);
    }

    #[test]
    fn padding_rounds_message_size() {
        let mut q = builder::query(4, "padded.example.com", RecordType::A).unwrap();
        q.pad_to_block(128).unwrap();
        let bytes = q.encode().unwrap();
        assert_eq!(bytes.len() % 128, 0, "len {} not padded", bytes.len());
        // Re-padding to the same block is stable.
        let mut again = Message::decode(&bytes).unwrap();
        again.pad_to_block(128).unwrap();
        assert_eq!(again.encode().unwrap().len(), bytes.len());
    }

    #[test]
    fn set_opt_replaces_existing() {
        let mut q = builder::query(5, "x.example", RecordType::A).unwrap();
        q.set_opt(OptRecord::default());
        q.set_opt(OptRecord {
            udp_payload: 512,
            ..OptRecord::default()
        });
        assert_eq!(q.additional.len(), 1);
        assert_eq!(q.opt().unwrap().udp_payload, 512);
    }
}
