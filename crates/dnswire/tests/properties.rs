//! Property-based tests: the wire codec must round-trip every value it can
//! represent and never panic on hostile bytes. The owned decoder is
//! [`MessageView::parse`] plus a copy, so the round trips also check the
//! copy: view → owned → encode → view, on generated messages and on
//! byte-flipped, truncated and random inputs.

use dnswire::{
    builder, FrameDecoder, Header, Message, MessageView, Name, Question, RData, Rcode, RecordType,
    ResourceRecord, SoaData,
};
use proptest::prelude::*;

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]([a-z0-9-]{0,20}[a-z0-9])?").expect("regex")
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 1..5)
        .prop_map(|labels| Name::parse(&labels.join(".")).expect("labels valid"))
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|b| RData::A(b.into())),
        any::<[u8; 16]>().prop_map(|b| RData::Aaaa(b.into())),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Ptr),
        (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RData::Mx {
            preference,
            exchange
        }),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..255), 0..4)
            .prop_map(RData::Txt),
        (
            arb_name(),
            arb_name(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(mname, rname, serial, refresh, retry, expire, minimum)| {
                RData::Soa(SoaData {
                    mname,
                    rname,
                    serial,
                    refresh,
                    retry,
                    expire,
                    minimum,
                })
            }),
    ]
}

fn arb_record() -> impl Strategy<Value = ResourceRecord> {
    (arb_name(), any::<u32>(), arb_rdata())
        .prop_map(|(name, ttl, rdata)| ResourceRecord::new(name, ttl, rdata))
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        arb_name(),
        proptest::collection::vec(arb_record(), 0..5),
        proptest::collection::vec(arb_record(), 0..3),
        proptest::collection::vec(arb_record(), 0..3),
    )
        .prop_map(|(id, qname, answers, authority, additional)| {
            let mut msg = Message::new(Header::new_query(id));
            msg.questions.push(Question::new(qname, RecordType::A));
            msg.answers = answers;
            msg.authority = authority;
            msg.additional = additional;
            msg
        })
}

/// `msg` with the header counts `encode` writes, as a decode returns it.
fn with_counts(mut msg: Message) -> Message {
    msg.header.qdcount = msg.questions.len() as u16;
    msg.header.ancount = msg.answers.len() as u16;
    msg.header.nscount = msg.authority.len() as u16;
    msg.header.arcount = msg.additional.len() as u16;
    msg
}

/// A one-question query around raw qname bytes (type A, class IN).
fn question_wire(qname: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    Header {
        qdcount: 1,
        ..Header::new_query(1)
    }
    .encode(&mut wire);
    wire.extend_from_slice(qname);
    wire.extend_from_slice(&[0, 1, 0, 1]);
    wire
}

/// Whatever `parse` accepts copies out to a message that encodes, and
/// decoding that encoding gives the same message, byte-stable on re-encode.
fn assert_copy_round_trips(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(view) = MessageView::parse(bytes) {
        let owned = view.to_message();
        let wire = owned.encode().expect("a copied message encodes");
        let back = Message::decode(&wire).expect("a copied message decodes");
        prop_assert_eq!(&back, &owned);
        prop_assert_eq!(back.encode().expect("re-encodes"), wire);
    }
    Ok(())
}

proptest! {
    #[test]
    fn name_round_trips_uncompressed(name in arb_name()) {
        let mut qname = Vec::new();
        name.encode_uncompressed(&mut qname);
        let back = Message::decode(&question_wire(&qname)).unwrap();
        prop_assert_eq!(&back.questions[0].qname, &name);
    }

    #[test]
    fn name_parse_display_round_trips(name in arb_name()) {
        let shown = name.to_string();
        prop_assert_eq!(Name::parse(&shown).unwrap(), name);
    }

    #[test]
    fn message_round_trips(msg in arb_message()) {
        let bytes = msg.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        prop_assert_eq!(&back, &with_counts(msg));
        // Re-encoding the decoded message is byte-stable.
        prop_assert_eq!(&back.encode().unwrap(), &bytes);
        // The view's borrowing accessors agree with the owned copy.
        let view = MessageView::parse(&bytes).unwrap();
        let a_of = |rr: &ResourceRecord| match rr.rdata {
            RData::A(addr) => Some(addr),
            _ => None,
        };
        prop_assert_eq!(view.first_a_answer(), back.answers.iter().find_map(a_of));
        for (q, owned) in view.questions().zip(&back.questions) {
            prop_assert!(q.qname.eq_presentation(&owned.qname.to_string()));
        }
        let records = view.answers().chain(view.authority()).chain(view.additional());
        let owned = back.answers.iter().chain(&back.authority).chain(&back.additional);
        for (rr, owned) in records.zip(owned) {
            prop_assert!(rr.name.eq_presentation(&owned.name.to_string()));
            prop_assert_eq!(rr.rdata_a(), a_of(owned));
        }
    }

    #[test]
    fn hostile_inputs_copy_out_and_round_trip(
        msg in arb_message(),
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
        keep in any::<u16>(),
        random in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let bytes = msg.encode().unwrap();
        let mut flipped = bytes.clone();
        for (at, val) in flips {
            let at = at as usize % flipped.len();
            flipped[at] = val;
        }
        let truncated = &bytes[..keep as usize % (bytes.len() + 1)];
        for input in [&flipped[..], truncated, &random] {
            assert_copy_round_trips(input)?;
        }
    }

    #[test]
    fn name_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = Message::decode(&question_wire(&bytes)); // may Err, must not panic
    }

    /// Fixed-size chunks split frames anywhere and coalesce them; one
    /// push per frame ends every push on a boundary, so each frame is the
    /// whole buffer and is handed over rather than copied out.
    #[test]
    fn framing_reassembles_any_chunking(
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 1..5),
        chunk in 1usize..17,
    ) {
        let frames: Vec<Vec<u8>> = msgs
            .iter()
            .map(|m| dnswire::frame_message(m).unwrap())
            .collect();
        let stream = frames.concat();
        let per_frame = frames.iter().map(Vec::as_slice);
        let chunkings: [Vec<&[u8]>; 2] = [stream.chunks(chunk).collect(), per_frame.collect()];
        for pieces in chunkings {
            let mut dec = FrameDecoder::new();
            let mut out = Vec::new();
            for piece in pieces {
                dec.push(piece);
                out.extend(dec.drain_messages());
            }
            prop_assert_eq!(&out, &msgs);
            prop_assert_eq!(dec.pending_len(), 0);
        }
    }

    #[test]
    fn padding_always_hits_block(block in 16usize..512, name in arb_name()) {
        let mut q = Message::new(Header::new_query(1));
        q.questions.push(Question::new(name, RecordType::A));
        q.pad_to_block(block).unwrap();
        prop_assert_eq!(q.encode().unwrap().len() % block, 0);
    }

    #[test]
    fn padding_never_shrinks_and_is_minimal(block in 16usize..512, name in arb_name()) {
        let mut q = Message::new(Header::new_query(1));
        q.questions.push(Question::new(name, RecordType::A));
        // Attach the OPT up front so `unpadded` measures exactly what the
        // padding rule sees (pad_to_block would add a default OPT anyway).
        q.set_opt(dnswire::OptRecord::default());
        let unpadded = q.encode().unwrap().len();
        q.pad_to_block(block).unwrap();
        let padded = q.encode().unwrap().len();
        prop_assert!(padded >= unpadded, "padding must never shrink a message");
        prop_assert_eq!(padded, dnswire::pad_to_block(unpadded, block));
        // Minimality: at most one block beyond the unpadded size.
        prop_assert!(padded < unpadded + 4 + block);
        // Fixed edge: an exact multiple stays put instead of gaining a
        // whole extra block.
        if unpadded.is_multiple_of(block) {
            prop_assert_eq!(padded, unpadded);
        }
    }

    #[test]
    fn padding_option_round_trips(block in 16usize..512, name in arb_name()) {
        let mut q = Message::new(Header::new_query(1));
        q.questions.push(Question::new(name, RecordType::A));
        q.pad_to_block(block).unwrap();
        let wire = q.encode().unwrap();
        let back = Message::decode(&wire).unwrap();
        let sent = q.opt().and_then(|o| o.padding_len());
        let got = back.opt().and_then(|o| o.padding_len());
        prop_assert_eq!(got, sent, "padding option must survive a round trip");
        prop_assert_eq!(back.encode().unwrap().len(), wire.len());
        // Re-padding an already padded message is a fixed point.
        let mut again = back;
        again.pad_to_block(block).unwrap();
        prop_assert_eq!(again.encode().unwrap().len(), wire.len());
    }

    #[test]
    fn policy_padded_queries_hit_their_block(key in any::<u64>(), name in arb_name()) {
        use dnswire::PaddingPolicy;
        for policy in [
            PaddingPolicy::rfc8467(),
            PaddingPolicy::RandomBlock { query_block: 128, response_block: 468, max_extra: 3 },
            PaddingPolicy::ConstantRate { interval_us: 5_000, cell: 468 },
            PaddingPolicy::AdaptivePadding { burst_gap_us: 4_000, cell: 468 },
        ] {
            let block = policy.query_block(key).unwrap();
            let mut q = Message::new(Header::new_query(1));
            q.questions.push(Question::new(name.clone(), RecordType::A));
            q.pad_to_block(block).unwrap();
            prop_assert_eq!(q.encode().unwrap().len() % block, 0);
        }
        prop_assert_eq!(PaddingPolicy::None.query_block(key), None);
    }

    #[test]
    fn error_responses_echo_question(name in arb_name(), id in any::<u16>()) {
        let q = {
            let mut m = Message::new(Header::new_query(id));
            m.questions.push(Question::new(name, RecordType::Aaaa));
            m
        };
        let resp = builder::error_response(&q, Rcode::ServFail);
        prop_assert_eq!(resp.id(), id);
        prop_assert_eq!(&resp.questions, &q.questions);
        prop_assert_eq!(resp.rcode(), Rcode::ServFail);
    }
}
