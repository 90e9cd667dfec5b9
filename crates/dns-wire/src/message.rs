//! DNS message: header, question, resource record, and the full message with
//! parse/encode and builder helpers.

use crate::error::{BuildError, ParseError};
use crate::name::{Name, NameCompressor};
use crate::rdata::{encode_with_length, RData};
use crate::types::{Opcode, RClass, RType, Rcode};
use crate::wire::{Reader, Writer};
use core::fmt;

/// Decoded DNS header (RFC 1035 §4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Transaction ID, copied from query to response.
    pub id: u16,
    /// True in responses.
    pub qr: bool,
    /// Operation code.
    pub opcode: Opcode,
    /// Authoritative answer.
    pub aa: bool,
    /// Truncation.
    pub tc: bool,
    /// Recursion desired.
    pub rd: bool,
    /// Recursion available.
    pub ra: bool,
    /// Authentic data (DNSSEC).
    pub ad: bool,
    /// Checking disabled (DNSSEC).
    pub cd: bool,
    /// Response code.
    pub rcode: Rcode,
}

impl Header {
    /// A recursion-desired query header with the given transaction ID.
    pub fn query(id: u16) -> Header {
        Header {
            id,
            qr: false,
            opcode: Opcode::Query,
            aa: false,
            tc: false,
            rd: true,
            ra: false,
            ad: false,
            cd: false,
            rcode: Rcode::NoError,
        }
    }

    pub(crate) fn parse(r: &mut Reader<'_>) -> Result<(Header, [u16; 4]), ParseError> {
        if r.remaining() < 12 {
            return Err(ParseError::TruncatedHeader);
        }
        let id = r.read_u16()?;
        let flags = r.read_u16()?;
        let counts = [r.read_u16()?, r.read_u16()?, r.read_u16()?, r.read_u16()?];
        let header = Header {
            id,
            qr: flags & 0x8000 != 0,
            opcode: Opcode::from_u8(((flags >> 11) & 0x0F) as u8),
            aa: flags & 0x0400 != 0,
            tc: flags & 0x0200 != 0,
            rd: flags & 0x0100 != 0,
            ra: flags & 0x0080 != 0,
            ad: flags & 0x0020 != 0,
            cd: flags & 0x0010 != 0,
            rcode: Rcode::from_u8((flags & 0x000F) as u8),
        };
        Ok((header, counts))
    }

    /// The 16-bit flags word: QR, opcode, AA, TC, RD, RA, AD, CD, rcode.
    pub(crate) fn flags(&self) -> u16 {
        let bit = |set: bool, mask: u16| if set { mask } else { 0 };
        bit(self.qr, 0x8000)
            | (self.opcode.to_u8() as u16) << 11
            | bit(self.aa, 0x0400)
            | bit(self.tc, 0x0200)
            | bit(self.rd, 0x0100)
            | bit(self.ra, 0x0080)
            | bit(self.ad, 0x0020)
            | bit(self.cd, 0x0010)
            | self.rcode.to_u8() as u16
    }

    pub(crate) fn encode(&self, w: &mut Writer, counts: [u16; 4]) {
        w.write_u16(self.id);
        w.write_u16(self.flags());
        for c in counts {
            w.write_u16(c);
        }
    }
}

/// A question-section entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// Name being queried.
    pub qname: Name,
    /// Type being queried.
    pub qtype: RType,
    /// Class being queried (`IN` for ordinary lookups, `CH` for the
    /// server-identification queries this system is built around).
    pub qclass: RClass,
}

impl Question {
    /// Ordinary Internet-class question.
    pub fn new(qname: Name, qtype: RType) -> Question {
        Question { qname, qtype, qclass: RClass::In }
    }

    /// CHAOS-class TXT question (e.g. `version.bind`, `id.server`).
    pub fn chaos_txt(qname: Name) -> Question {
        Question { qname, qtype: RType::Txt, qclass: RClass::Chaos }
    }

    fn parse(r: &mut Reader<'_>) -> Result<Question, ParseError> {
        Ok(Question {
            qname: Name::parse(r)?,
            qtype: RType::from_u16(r.read_u16()?),
            qclass: RClass::from_u16(r.read_u16()?),
        })
    }

    fn encode(&self, w: &mut Writer, compress: &mut NameCompressor) {
        self.qname.encode(w, Some(compress));
        w.write_u16(self.qtype.to_u16());
        w.write_u16(self.qclass.to_u16());
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.qname, self.qclass, self.qtype)
    }
}

/// A resource record in the answer, authority, or additional section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Owner name.
    pub name: Name,
    /// Class; the TYPE is implied by `rdata`.
    pub class: RClass,
    /// Time to live in seconds.
    pub ttl: u32,
    /// Typed record data.
    pub rdata: RData,
}

impl Record {
    /// Internet-class record constructor.
    pub fn new(name: Name, ttl: u32, rdata: RData) -> Record {
        Record { name, class: RClass::In, ttl, rdata }
    }

    /// CHAOS-class TXT record, the response shape of `version.bind` and
    /// `id.server` queries.
    pub fn chaos_txt(name: Name, text: impl AsRef<[u8]>) -> Record {
        Record { name, class: RClass::Chaos, ttl: 0, rdata: RData::txt(text) }
    }

    fn parse(r: &mut Reader<'_>) -> Result<Record, ParseError> {
        let name = Name::parse(r)?;
        let rtype = RType::from_u16(r.read_u16()?);
        let class = RClass::from_u16(r.read_u16()?);
        let ttl = r.read_u32()?;
        let rdlength = r.read_u16()?;
        let rdata = RData::parse(r, rtype, rdlength)?;
        Ok(Record { name, class, ttl, rdata })
    }

    pub(crate) fn encode(
        &self,
        w: &mut Writer,
        compress: &mut NameCompressor,
    ) -> Result<(), BuildError> {
        self.name.encode(w, Some(compress));
        w.write_u16(self.rdata.rtype().to_u16());
        w.write_u16(self.class.to_u16());
        w.write_u32(self.ttl);
        encode_with_length(&self.rdata, w, compress)
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {}",
            self.name,
            self.ttl,
            self.class,
            self.rdata.rtype(),
            self.rdata
        )
    }
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Header fields.
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section.
    pub authority: Vec<Record>,
    /// Additional section.
    pub additional: Vec<Record>,
}

impl Message {
    /// Builds a standard recursive query for one question.
    pub fn query(id: u16, question: Question) -> Message {
        Message {
            header: Header::query(id),
            questions: vec![question],
            answers: Vec::new(),
            authority: Vec::new(),
            additional: Vec::new(),
        }
    }

    /// Starts a response to `query`: copies ID, question, opcode, and RD;
    /// sets QR and RA. Answers are appended by the caller.
    pub fn response_to(query: &Message, rcode: Rcode) -> Message {
        Message {
            header: Header {
                id: query.header.id,
                qr: true,
                opcode: query.header.opcode,
                aa: false,
                tc: false,
                rd: query.header.rd,
                ra: true,
                ad: false,
                cd: query.header.cd,
                rcode,
            },
            questions: query.questions.clone(),
            answers: Vec::new(),
            authority: Vec::new(),
            additional: Vec::new(),
        }
    }

    /// Appends an answer record, returning `self` for chaining.
    pub fn with_answer(mut self, record: Record) -> Message {
        self.answers.push(record);
        self
    }

    /// First question, if any. Almost all real traffic has exactly one.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// Parses a message, tolerating trailing bytes (as real resolvers do).
    pub fn parse(bytes: &[u8]) -> Result<Message, ParseError> {
        Self::parse_inner(bytes, false)
    }

    /// Parses a message, rejecting trailing bytes.
    pub fn parse_strict(bytes: &[u8]) -> Result<Message, ParseError> {
        Self::parse_inner(bytes, true)
    }

    fn parse_inner(bytes: &[u8], strict: bool) -> Result<Message, ParseError> {
        let mut r = Reader::new(bytes);
        let (header, counts) = Header::parse(&mut r)?;
        let mut questions = Vec::with_capacity(counts[0] as usize);
        for _ in 0..counts[0] {
            questions.push(Question::parse(&mut r)?);
        }
        let mut sections: [Vec<Record>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (i, count) in counts[1..].iter().enumerate() {
            for _ in 0..*count {
                sections[i].push(Record::parse(&mut r)?);
            }
        }
        if strict && r.remaining() > 0 {
            return Err(ParseError::TrailingBytes { remaining: r.remaining() });
        }
        let [answers, authority, additional] = sections;
        Ok(Message { header, questions, answers, authority, additional })
    }

    /// Encodes the message with name compression.
    pub fn encode(&self) -> Result<Vec<u8>, BuildError> {
        let mut scratch = EncodeScratch::new();
        self.encode_into(&mut scratch)?;
        Ok(std::mem::take(&mut scratch.buf))
    }

    /// Encodes into `scratch`, reusing its buffer and compression-state
    /// allocations, and returns the encoded bytes. Produces exactly the
    /// bytes [`Message::encode`] would; hot paths that encode many
    /// messages keep one scratch alive instead of allocating per message.
    pub fn encode_into<'s>(&self, scratch: &'s mut EncodeScratch) -> Result<&'s [u8], BuildError> {
        let EncodeScratch { buf, compress } = scratch;
        self.encode_to(buf, compress)?;
        Ok(buf)
    }

    /// Encodes into the caller's buffer (cleared first), reusing `compress`
    /// for name-compression state. This is the primitive behind both
    /// [`Message::encode`] and [`Message::encode_into`]; callers that own
    /// the destination buffer (like [`QueryEncoder`]'s cache slots) encode
    /// straight into it with no intermediate copy.
    pub fn encode_to(&self, out: &mut Vec<u8>, compress: &mut NameCompressor) -> Result<(), BuildError> {
        for section_len in [
            self.questions.len(),
            self.answers.len(),
            self.authority.len(),
            self.additional.len(),
        ] {
            if section_len > u16::MAX as usize {
                return Err(BuildError::TooManyRecords);
            }
        }
        let mut w = Writer::from_vec(std::mem::take(out));
        compress.clear();
        self.header.encode(
            &mut w,
            [
                self.questions.len() as u16,
                self.answers.len() as u16,
                self.authority.len() as u16,
                self.additional.len() as u16,
            ],
        );
        for q in &self.questions {
            q.encode(&mut w, compress);
        }
        let records = self
            .answers
            .iter()
            .chain(self.authority.iter())
            .chain(self.additional.iter());
        for rec in records {
            if let Err(e) = rec.encode(&mut w, compress) {
                *out = w.into_bytes();
                return Err(e);
            }
        }
        if w.len() > u16::MAX as usize {
            *out = w.into_bytes();
            return Err(BuildError::MessageTooLong);
        }
        *out = w.into_bytes();
        Ok(())
    }
}

/// Reusable encode state: the output buffer and the name-compression state.
/// [`Message::encode_into`] clears and refills both, so one warm scratch
/// serves any number of encodes without fresh buffer allocations.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    pub(crate) buf: Vec<u8>,
    pub(crate) compress: NameCompressor,
}

impl EncodeScratch {
    /// An empty scratch.
    pub fn new() -> EncodeScratch {
        EncodeScratch::default()
    }
}

/// Caches the wire form of repeated queries.
///
/// The transaction ID occupies the first two header bytes, so one cached
/// encoding serves every txid by patching those bytes in place — the
/// result is byte-for-byte what a fresh `Message::query(txid, q).encode()`
/// would produce. Measurement pipelines ask the same fixed question set
/// (location queries, version.bind, bogon probes) thousands of times, so a
/// per-worker encoder turns per-query encoding into a memcpy.
#[derive(Debug, Default)]
pub struct QueryEncoder {
    compress: NameCompressor,
    cache: Vec<(Question, Vec<u8>)>,
}

impl QueryEncoder {
    /// Cache capacity: the measurement question set is small and fixed;
    /// anything past this evicts the oldest entry rather than growing.
    const CAPACITY: usize = 64;

    /// An empty encoder.
    pub fn new() -> QueryEncoder {
        QueryEncoder::default()
    }

    /// Returns the wire bytes of a standard recursive query for
    /// `question` with transaction ID `txid`, encoding on first sight and
    /// patching the cached bytes thereafter.
    ///
    /// A miss encodes directly into the cache slot (recycling an evicted
    /// slot's buffer once the cache is full), so the bytes are written
    /// exactly once.
    pub fn encode_query(&mut self, txid: u16, question: &Question) -> Result<&[u8], BuildError> {
        if let Some(idx) = self.cache.iter().position(|(q, _)| q == question) {
            let bytes = &mut self.cache[idx].1;
            bytes[0..2].copy_from_slice(&txid.to_be_bytes());
            return Ok(&self.cache[idx].1);
        }
        let mut slot = if self.cache.len() >= Self::CAPACITY {
            self.cache.remove(0).1
        } else {
            Vec::new()
        };
        let msg = Message::query(txid, question.clone());
        msg.encode_to(&mut slot, &mut self.compress)?;
        self.cache.push((question.clone(), slot));
        Ok(&self.cache.last().expect("just pushed").1)
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            ";; id {} {} {} {}",
            self.header.id,
            if self.header.qr { "response" } else { "query" },
            self.header.rcode,
            if self.header.aa { "aa" } else { "" },
        )?;
        for q in &self.questions {
            writeln!(f, ";{q}")?;
        }
        for a in &self.answers {
            writeln!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn q(name: &str, qtype: RType) -> Question {
        Question::new(name.parse().unwrap(), qtype)
    }

    #[test]
    fn query_roundtrip() {
        let msg = Message::query(0x1234, q("example.com", RType::A));
        let bytes = msg.encode().unwrap();
        let back = Message::parse_strict(&bytes).unwrap();
        assert_eq!(back, msg);
        assert!(!back.header.qr);
        assert!(back.header.rd);
    }

    #[test]
    fn chaos_query_roundtrip() {
        let msg = Message::query(7, Question::chaos_txt("version.bind".parse().unwrap()));
        let bytes = msg.encode().unwrap();
        let back = Message::parse_strict(&bytes).unwrap();
        assert_eq!(back.question().unwrap().qclass, RClass::Chaos);
        assert_eq!(back.question().unwrap().qtype, RType::Txt);
    }

    #[test]
    fn response_roundtrip_with_answers() {
        let query = Message::query(9, q("whoami.akamai.com", RType::A));
        let resp = Message::response_to(&query, Rcode::NoError).with_answer(Record::new(
            "whoami.akamai.com".parse().unwrap(),
            30,
            RData::A(Ipv4Addr::new(75, 75, 75, 75)),
        ));
        let bytes = resp.encode().unwrap();
        let back = Message::parse_strict(&bytes).unwrap();
        assert_eq!(back, resp);
        assert!(back.header.qr);
        assert_eq!(back.header.id, 9);
        assert_eq!(back.answers.len(), 1);
    }

    #[test]
    fn response_copies_rcode_and_question() {
        let query = Message::query(3, Question::chaos_txt("id.server".parse().unwrap()));
        let resp = Message::response_to(&query, Rcode::NotImp);
        assert_eq!(resp.header.rcode, Rcode::NotImp);
        assert_eq!(resp.questions, query.questions);
    }

    #[test]
    fn encode_into_matches_encode_byte_for_byte() {
        let mut scratch = EncodeScratch::new();
        let query = Message::query(0x1234, q("example.com", RType::A));
        let resp = Message::response_to(&query, Rcode::NoError).with_answer(Record::new(
            "example.com".parse().unwrap(),
            30,
            RData::A(Ipv4Addr::new(93, 184, 216, 34)),
        ));
        // Reuse the same scratch across different messages: each encode
        // must still equal the standalone path.
        for msg in [&query, &resp, &query] {
            let via_scratch = msg.encode_into(&mut scratch).unwrap().to_vec();
            assert_eq!(via_scratch, msg.encode().unwrap());
        }
    }

    #[test]
    fn query_encoder_patches_txid_into_cached_bytes() {
        let mut enc = QueryEncoder::new();
        let qa = q("example.com", RType::A);
        let qb = Question::chaos_txt("id.server".parse().unwrap());
        for txid in [0x1000u16, 0x2001, 0xFFFF, 0] {
            for question in [&qa, &qb] {
                let cached = enc.encode_query(txid, question).unwrap().to_vec();
                let fresh = Message::query(txid, question.clone()).encode().unwrap();
                assert_eq!(cached, fresh, "txid {txid:#x} {question:?}");
            }
        }
    }

    #[test]
    fn query_encoder_evicts_past_capacity() {
        let mut enc = QueryEncoder::new();
        for i in 0..(QueryEncoder::CAPACITY + 8) {
            let question = q(&format!("host-{i}.example.com"), RType::A);
            let bytes = enc.encode_query(i as u16, &question).unwrap().to_vec();
            assert_eq!(bytes, Message::query(i as u16, question).encode().unwrap());
        }
        assert!(enc.cache.len() <= QueryEncoder::CAPACITY);
        // Evicted entries simply re-encode.
        let first = q("host-0.example.com", RType::A);
        let bytes = enc.encode_query(7, &first).unwrap().to_vec();
        assert_eq!(bytes, Message::query(7, first).encode().unwrap());
    }

    #[test]
    fn compression_shrinks_repeated_names() {
        let name: Name = "a-rather-long-owner-name.example.com".parse().unwrap();
        let mut msg = Message::query(1, Question::new(name.clone(), RType::A));
        msg.header.qr = true;
        for i in 0..4 {
            msg.answers.push(Record::new(
                name.clone(),
                60,
                RData::A(Ipv4Addr::new(10, 0, 0, i)),
            ));
        }
        let bytes = msg.encode().unwrap();
        // Uncompressed, each answer would repeat the 38-byte name; with
        // compression each answer spends only 2 pointer bytes.
        assert!(bytes.len() < 12 + 42 + 4 * (2 + 2 + 2 + 4 + 2 + 4) + 8);
        let back = Message::parse_strict(&bytes).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn parse_tolerates_trailing_bytes_by_default() {
        let msg = Message::query(2, q("example.com", RType::A));
        let mut bytes = msg.encode().unwrap();
        bytes.extend_from_slice(b"junk");
        assert!(Message::parse(&bytes).is_ok());
        assert_eq!(
            Message::parse_strict(&bytes),
            Err(ParseError::TrailingBytes { remaining: 4 })
        );
    }

    #[test]
    fn parse_rejects_truncated_header() {
        assert_eq!(Message::parse(&[0u8; 5]), Err(ParseError::TruncatedHeader));
    }

    #[test]
    fn parse_rejects_count_overrun() {
        // Header claims one question but the body is empty.
        let mut w = Writer::new();
        Header::query(1).encode(&mut w, [1, 0, 0, 0]);
        let bytes = w.into_bytes();
        assert!(matches!(
            Message::parse(&bytes),
            Err(ParseError::UnexpectedEnd { .. })
        ));
    }

    #[test]
    fn header_flags_roundtrip_exhaustively() {
        for bits in 0..32u16 {
            let h = Header {
                id: 0xABCD,
                qr: bits & 1 != 0,
                opcode: Opcode::Query,
                aa: bits & 2 != 0,
                tc: bits & 4 != 0,
                rd: bits & 8 != 0,
                ra: bits & 16 != 0,
                ad: false,
                cd: false,
                rcode: Rcode::Refused,
            };
            let mut w = Writer::new();
            h.encode(&mut w, [0, 0, 0, 0]);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let (back, counts) = Header::parse(&mut r).unwrap();
            assert_eq!(back, h);
            assert_eq!(counts, [0, 0, 0, 0]);
        }
    }

    #[test]
    fn display_is_diglike() {
        let query = Message::query(5, q("example.com", RType::A));
        let resp = Message::response_to(&query, Rcode::NoError).with_answer(Record::new(
            "example.com".parse().unwrap(),
            60,
            RData::A(Ipv4Addr::new(93, 184, 216, 34)),
        ));
        let text = resp.to_string();
        assert!(text.contains("example.com. 60 IN A 93.184.216.34"));
    }
}
