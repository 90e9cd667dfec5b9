//! Property-based parity between the in-place `ReplyWriter` and the owned
//! response path: for any query, the writer's bytes must equal
//! `Message::response_to(..)` with the same answers pushed, encoded.
//!
//! Queries vary the question count (0, 1 or 2, with mixed-case names that
//! share suffixes so compression kicks in), opcode, RD/CD and the other
//! header bits, and carry a trailing additional section the response must
//! not copy.

use dns_wire::{
    AnswerData, EncodeScratch, Header, Message, MessageView, Name, Opcode, Question, RClass, RData,
    RType, Rcode, Record, ReplyWriter, MAX_NAME_LEN,
};
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};

const LABELS: [&str; 8] = [
    "id", "server", "version", "bind", "o-o", "myaddr", "google", "com",
];

/// A name of 0..=3 labels drawn from a small pool, each character's case
/// picked at random, so names often share (differently cased) suffixes.
fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec((0..LABELS.len(), any::<u64>()), 0..=3).prop_map(|labels| {
        let owned: Vec<Vec<u8>> = labels
            .iter()
            .map(|&(i, case)| {
                LABELS[i]
                    .bytes()
                    .enumerate()
                    .map(|(j, b)| {
                        if case >> (j % 64) & 1 == 1 {
                            b.to_ascii_uppercase()
                        } else {
                            b
                        }
                    })
                    .collect()
            })
            .collect();
        Name::from_labels(owned.iter().map(|l| l.as_slice())).unwrap()
    })
}

fn arb_class() -> impl Strategy<Value = RClass> {
    prop_oneof![
        Just(RClass::In),
        Just(RClass::Chaos),
        any::<u16>().prop_map(RClass::from_u16)
    ]
}

fn arb_question() -> impl Strategy<Value = Question> {
    (arb_name(), any::<u16>(), arb_class()).prop_map(|(qname, qtype, qclass)| Question {
        qname,
        qtype: RType::from_u16(qtype),
        qclass,
    })
}

fn arb_header() -> impl Strategy<Value = Header> {
    (any::<u16>(), 0u8..16, any::<u8>(), any::<u8>()).prop_map(|(id, opcode, bits, rcode)| Header {
        id,
        qr: false,
        opcode: Opcode::from_u8(opcode),
        aa: bits & 1 != 0,
        tc: bits & 2 != 0,
        rd: bits & 4 != 0,
        ra: bits & 8 != 0,
        ad: bits & 16 != 0,
        cd: bits & 32 != 0,
        rcode: Rcode::from_u8(rcode & 0x0F),
    })
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::from(o))),
        any::<[u8; 16]>().prop_map(|o| RData::Aaaa(Ipv6Addr::from(o))),
        "[a-zA-Z0-9 .-]{0,40}".prop_map(RData::txt),
        arb_name().prop_map(RData::Cname),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (arb_name(), arb_class(), any::<u32>(), arb_rdata()).prop_map(|(name, class, ttl, rdata)| {
        Record {
            name,
            class,
            ttl,
            rdata,
        }
    })
}

fn arb_query() -> impl Strategy<Value = Message> {
    (
        arb_header(),
        proptest::collection::vec(arb_question(), 0..=2),
        proptest::collection::vec(arb_record(), 0..=2),
    )
        .prop_map(|(header, questions, additional)| Message {
            header,
            questions,
            answers: Vec::new(),
            authority: Vec::new(),
            additional,
        })
}

/// One answer to append: synthesized at the first question's name, or a
/// stored record with its own owner.
#[derive(Debug, Clone)]
enum Answer {
    A(Ipv4Addr),
    Aaaa(Ipv6Addr),
    Txt(String),
    Stored(Record),
}

fn arb_answer() -> impl Strategy<Value = (Answer, RClass, u32)> {
    let answer = prop_oneof![
        any::<[u8; 4]>().prop_map(|o| Answer::A(Ipv4Addr::from(o))),
        any::<[u8; 16]>().prop_map(|o| Answer::Aaaa(Ipv6Addr::from(o))),
        "[a-zA-Z0-9 .-]{0,60}".prop_map(Answer::Txt),
        arb_record().prop_map(Answer::Stored),
    ];
    (answer, arb_class(), any::<u32>())
}

fn owned_reply(
    query: &Message,
    rcode: Rcode,
    ad: bool,
    answers: &[(Answer, RClass, u32)],
) -> Vec<u8> {
    let mut resp = Message::response_to(query, rcode);
    resp.header.ad = ad;
    for (answer, class, ttl) in answers {
        let rdata = match answer {
            Answer::Stored(record) => {
                resp.answers.push(record.clone());
                continue;
            }
            Answer::A(ip) => RData::A(*ip),
            Answer::Aaaa(ip) => RData::Aaaa(*ip),
            Answer::Txt(text) => RData::txt(text),
        };
        let Some(q) = query.question() else { continue };
        resp.answers.push(Record {
            name: q.qname.clone(),
            class: *class,
            ttl: *ttl,
            rdata,
        });
    }
    resp.encode().unwrap()
}

fn written_reply(
    scratch: &mut EncodeScratch,
    wire: &[u8],
    rcode: Rcode,
    ad: bool,
    answers: &[(Answer, RClass, u32)],
) -> Vec<u8> {
    let view = MessageView::parse(wire).unwrap();
    let mut buf = [0u8; MAX_NAME_LEN];
    let qname = view.question().map(|q| q.qname.to_wire_name(&mut buf));
    let mut w = ReplyWriter::new(scratch, &view, rcode);
    w.set_ad(ad);
    for (answer, class, ttl) in answers {
        if let Answer::Stored(record) = answer {
            w.record(record);
            continue;
        }
        let Some(owner) = qname else { continue };
        match answer {
            Answer::A(ip) => w.answer(owner, *class, *ttl, AnswerData::A(*ip)),
            Answer::Aaaa(ip) => w.answer(owner, *class, *ttl, AnswerData::Aaaa(*ip)),
            Answer::Txt(text) => {
                w.answer(owner, *class, *ttl, AnswerData::Txt(format_args!("{text}")))
            }
            Answer::Stored(_) => unreachable!(),
        }
    }
    w.finish().unwrap().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn writer_matches_owned_response(
        query in arb_query(),
        rcode in 0u8..16,
        ad in any::<bool>(),
        answers in proptest::collection::vec(arb_answer(), 0..=4),
    ) {
        let wire = query.encode().unwrap();
        // The owned path starts from the parsed query, as a responder does.
        let parsed = Message::parse(&wire).unwrap();
        let rcode = Rcode::from_u8(rcode);
        let want = owned_reply(&parsed, rcode, ad, &answers);
        // One scratch, used twice: a warm scratch must write the same bytes.
        let mut scratch = EncodeScratch::new();
        for _ in 0..2 {
            let got = written_reply(&mut scratch, &wire, rcode, ad, &answers);
            prop_assert_eq!(&got, &want);
        }
    }
}
