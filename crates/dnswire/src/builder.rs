//! Convenience constructors for the messages the measurement pipeline sends.

use crate::edns::OptRecord;
use crate::error::WireError;
use crate::header::{Header, Rcode};
use crate::message::{Message, Question};
use crate::name::Name;
use crate::rr::{RecordType, ResourceRecord};

/// A recursion-desired query for `name`/`qtype` with transaction `id`:
/// [`query_for`] the parsed name.
pub fn query(id: u16, name: &str, qtype: RecordType) -> Result<Message, WireError> {
    Ok(query_for(id, Name::parse(name)?, qtype))
}

/// A recursion-desired query for `qname`/`qtype` with transaction `id`,
/// for a caller that already holds the name.
pub fn query_for(id: u16, qname: Name, qtype: RecordType) -> Message {
    let mut msg = Message::new(Header::new_query(id));
    msg.questions.push(Question::new(qname, qtype));
    msg
}

/// Like [`query`], but with an EDNS OPT record advertising a 4096-byte
/// payload — the shape emitted by our stub resolvers.
pub fn edns_query(id: u16, name: &str, qtype: RecordType) -> Result<Message, WireError> {
    let mut msg = query(id, name, qtype)?;
    msg.set_opt(OptRecord::default());
    Ok(msg)
}

/// A NOERROR response answering `query` with `answers`.
pub fn answer(query: &Message, answers: Vec<ResourceRecord>) -> Message {
    let mut msg = Message::new(Header::new_response(&query.header, Rcode::NoError));
    msg.questions = query.questions.clone();
    msg.answers = answers;
    msg
}

/// An error response (`SERVFAIL`, `NXDOMAIN`, `REFUSED`, ...) echoing the
/// question section.
pub fn error_response(query: &Message, rcode: Rcode) -> Message {
    let mut msg = Message::new(Header::new_response(&query.header, rcode));
    msg.questions = query.questions.clone();
    msg
}

/// A NOERROR response with zero answers — one of the "Incorrect" outcomes
/// counted by the reachability study (Table 4, footnote 1).
pub fn empty_answer(query: &Message) -> Message {
    answer(query, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rr::RData;
    use std::net::Ipv4Addr;

    #[test]
    fn query_builder_sets_rd() {
        let q = query(1, "example.com", RecordType::Aaaa).unwrap();
        assert!(q.header.recursion_desired);
        assert!(!q.header.response);
        assert_eq!(q.question().unwrap().qtype, RecordType::Aaaa);
    }

    #[test]
    fn edns_query_carries_opt() {
        let q = edns_query(1, "example.com", RecordType::A).unwrap();
        assert_eq!(q.opt().unwrap().udp_payload, crate::DEFAULT_EDNS_PAYLOAD);
    }

    #[test]
    fn answer_echoes_question_and_id() {
        let q = query(42, "example.com", RecordType::A).unwrap();
        let resp = answer(
            &q,
            vec![ResourceRecord::new(
                Name::parse("example.com").unwrap(),
                60,
                RData::A(Ipv4Addr::new(203, 0, 113, 1)),
            )],
        );
        assert_eq!(resp.id(), 42);
        assert!(resp.header.response);
        assert_eq!(resp.questions, q.questions);
        assert_eq!(resp.rcode(), Rcode::NoError);
    }

    #[test]
    fn error_response_carries_rcode() {
        let q = query(7, "blocked.example", RecordType::A).unwrap();
        let resp = error_response(&q, Rcode::ServFail);
        assert_eq!(resp.rcode(), Rcode::ServFail);
        assert!(resp.answers.is_empty());
    }

    #[test]
    fn empty_answer_is_noerror_with_no_records() {
        let q = query(7, "filtered.example", RecordType::A).unwrap();
        let resp = empty_answer(&q);
        assert_eq!(resp.rcode(), Rcode::NoError);
        assert!(resp.answers.is_empty());
    }

    #[test]
    fn invalid_name_propagates() {
        assert!(query(1, "bad..name", RecordType::A).is_err());
    }
}
