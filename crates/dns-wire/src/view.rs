//! Zero-copy message views.
//!
//! [`MessageView::parse`] validates a DNS message over the input slice —
//! applying exactly the rules of [`Message::parse`] — without building
//! owned questions, records, or names. Accessors hand out borrowed
//! [`QuestionView`]/[`RecordView`] items whose names stay compressed in
//! place ([`NameRef`]) until a caller actually needs an owned [`Name`].
//!
//! The steady-state verdict path uses this to answer "is this datagram the
//! response I am waiting for?" (transaction ID, QR flag, question match)
//! without a single heap allocation. A reply that survives that filter is
//! kept as a [`WireMessage`]: the received payload, shared by refcount,
//! plus the offsets the parse already computed, so verdicts read it
//! through the same borrowed view instead of a second, owned parse.

use crate::error::{BuildError, ParseError};
use crate::message::{Header, Message, Question, Record};
use crate::name::{decompress, walk_name, Name, WireName, MAX_NAME_LEN};
use crate::rdata::RData;
use crate::types::{RClass, RType};
use crate::wire::Reader;
use bytes::Bytes;
use core::fmt;

/// A borrowed, validated view of a DNS message.
///
/// Construction walks the entire message (names, counts, RDATA bounds), so
/// every accessor on a successfully parsed view is infallible:
/// [`MessageView::parse`] succeeds exactly when [`Message::parse`] would.
#[derive(Clone, Copy)]
pub struct MessageView<'a> {
    buf: &'a [u8],
    header: Header,
    counts: [u16; 4],
    /// Byte offsets where each section starts: questions, answers,
    /// authority, additional.
    section_off: [usize; 4],
}

impl<'a> MessageView<'a> {
    /// Validates `buf` as a DNS message and returns a view over it.
    ///
    /// Tolerates trailing bytes, like [`Message::parse`] (and real
    /// resolvers). No heap allocation happens on success or failure.
    pub fn parse(buf: &'a [u8]) -> Result<MessageView<'a>, ParseError> {
        let mut r = Reader::new(buf);
        let (header, counts) = Header::parse(&mut r)?;
        let mut section_off = [0usize; 4];
        section_off[0] = r.position();
        for _ in 0..counts[0] {
            walk_name(&mut r, &mut |_| true)?;
            r.read_u16()?; // qtype
            r.read_u16()?; // qclass
        }
        for s in 0..3 {
            section_off[s + 1] = r.position();
            for _ in 0..counts[s + 1] {
                skip_record(&mut r)?;
            }
        }
        Ok(MessageView { buf, header, counts, section_off })
    }

    /// The raw message bytes this view borrows.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.buf
    }

    /// Decoded header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Number of question-section entries.
    pub fn question_count(&self) -> usize {
        self.counts[0] as usize
    }

    /// Number of answer records.
    pub fn answer_count(&self) -> usize {
        self.counts[1] as usize
    }

    /// First question, if any. Almost all real traffic has exactly one.
    pub fn question(&self) -> Option<QuestionView<'a>> {
        self.questions().next()
    }

    /// Iterates the question section.
    pub fn questions(&self) -> QuestionIter<'a> {
        let mut r = Reader::new(self.buf);
        r.seek(self.section_off[0]).expect("validated at parse");
        QuestionIter { r, remaining: self.counts[0] }
    }

    /// Iterates the answer section.
    pub fn answers(&self) -> RecordIter<'a> {
        self.records(1)
    }

    /// Iterates the authority section.
    pub fn authority(&self) -> RecordIter<'a> {
        self.records(2)
    }

    /// Iterates the additional section.
    pub fn additional(&self) -> RecordIter<'a> {
        self.records(3)
    }

    fn records(&self, section: usize) -> RecordIter<'a> {
        let mut r = Reader::new(self.buf);
        r.seek(self.section_off[section]).expect("validated at parse");
        RecordIter { r, remaining: self.counts[section] }
    }

    /// Copies the viewed bytes out into a [`WireMessage`] that keeps this
    /// parse — for receive buffers that are about to be reused. One
    /// allocation; no second parse.
    pub fn to_wire(&self) -> WireMessage {
        WireMessage {
            bytes: Bytes::copy_from_slice(self.buf),
            header: self.header,
            counts: self.counts,
            section_off: self.section_off,
        }
    }

    /// Materializes the full owned [`Message`].
    ///
    /// The view's parse applied exactly the owned parser's rules, so this
    /// cannot fail. The probe pipeline never needs it: received replies
    /// stay in wire form ([`WireMessage`]).
    pub fn to_message(&self) -> Message {
        Message::parse(self.buf).expect("MessageView::parse validated this buffer")
    }
}

impl fmt::Debug for MessageView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MessageView")
            .field("header", &self.header)
            .field("counts", &self.counts)
            .finish()
    }
}

/// A received DNS message, kept in wire form.
///
/// Holds the payload exactly as it arrived — a [`Bytes`] shared by
/// refcount with the packet that carried it, never copied — together with
/// the header, section counts and section offsets its one validating parse
/// computed. [`WireMessage::view`] hands out a [`MessageView`] over it
/// without validating again, so a reply is parsed once on receive and then
/// read in place by every verdict.
///
/// Equality is byte equality of the wire form.
#[derive(Clone)]
pub struct WireMessage {
    bytes: Bytes,
    header: Header,
    counts: [u16; 4],
    section_off: [usize; 4],
}

impl WireMessage {
    /// Validates `bytes` as a DNS message (the [`MessageView::parse`]
    /// rules) and keeps them. Allocation-free: the payload is moved in.
    pub fn parse(bytes: Bytes) -> Result<WireMessage, ParseError> {
        let view = MessageView::parse(&bytes)?;
        let (header, counts, section_off) = (view.header, view.counts, view.section_off);
        Ok(WireMessage { bytes, header, counts, section_off })
    }

    /// Encodes an owned message and keeps its wire form — how scripted
    /// transports turn a built reply into what a real one would receive.
    pub fn from_message(message: &Message) -> Result<WireMessage, BuildError> {
        let bytes = Bytes::from(message.encode()?);
        Ok(WireMessage::parse(bytes).expect("an encoded message parses"))
    }

    /// A borrowed view of the message. No validation and no allocation:
    /// the offsets come from the parse that built this value.
    pub fn view(&self) -> MessageView<'_> {
        MessageView {
            buf: &self.bytes,
            header: self.header,
            counts: self.counts,
            section_off: self.section_off,
        }
    }

    /// Decoded header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The wire bytes as received.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The same message with its transaction ID set to `id`, in the header
    /// and on the wire. Free when the ID already matches; otherwise the
    /// payload is copied once so the shared packet bytes stay untouched.
    pub fn with_id(self, id: u16) -> WireMessage {
        if id == self.header.id {
            return self;
        }
        let mut wire = self.bytes.to_vec();
        wire[..2].copy_from_slice(&id.to_be_bytes());
        WireMessage { bytes: Bytes::from(wire), header: Header { id, ..self.header }, ..self }
    }

    /// The wire bytes, as an owned buffer — the same shape
    /// [`Message::encode`] returns, so archivers treat both alike. Never
    /// fails: the bytes were valid when received.
    pub fn encode(&self) -> Result<Vec<u8>, BuildError> {
        Ok(self.bytes.to_vec())
    }
}

impl PartialEq for WireMessage {
    fn eq(&self, other: &WireMessage) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for WireMessage {}

impl fmt::Debug for WireMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WireMessage")
            .field("header", &self.header)
            .field("counts", &self.counts)
            .field("len", &self.bytes.len())
            .finish()
    }
}

fn skip_record(r: &mut Reader<'_>) -> Result<(), ParseError> {
    walk_name(r, &mut |_| true)?;
    let rtype = RType::from_u16(r.read_u16()?);
    let _class = r.read_u16()?;
    let _ttl = r.read_u32()?;
    let rdlength = r.read_u16()?;
    RData::skip(r, rtype, rdlength)
}

/// A name inside a message, still in (possibly compressed) wire form.
#[derive(Clone, Copy)]
pub struct NameRef<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> NameRef<'a> {
    /// Case-insensitive comparison against an owned name, walking the
    /// compressed labels in place. No allocation.
    pub fn eq_name(&self, name: &Name) -> bool {
        self.eq_wire(name.as_wire())
    }

    /// Case-insensitive comparison against a name in canonical wire form
    /// (`\x02id\x06server\x00`), walking the compressed labels in place.
    /// No allocation.
    pub fn eq_wire(&self, wire: &[u8]) -> bool {
        let mut r = Reader::new(self.buf);
        if r.seek(self.off).is_err() {
            return false;
        }
        let mut pos = 0usize;
        let mut matched = true;
        match walk_name(&mut r, &mut |label| {
            let want = wire.get(pos).map_or(0, |&b| b as usize);
            if want == 0
                || want != label.len()
                || !wire.get(pos + 1..pos + 1 + want).is_some_and(|w| label.eq_ignore_ascii_case(w))
            {
                matched = false;
                return false;
            }
            pos += 1 + want;
            true
        }) {
            Ok(true) => matched && wire.get(pos..) == Some(&[0u8][..]),
            Ok(false) | Err(_) => false,
        }
    }

    /// Decompresses into `buf` and borrows the result as a [`WireName`]:
    /// the allocation-free way to hand a received name to lookups that
    /// compare or suffix-match it.
    pub fn to_wire_name<'b>(&self, buf: &'b mut [u8; MAX_NAME_LEN]) -> WireName<'b> {
        let mut r = Reader::new(self.buf);
        r.seek(self.off).expect("offset from a validated view");
        decompress(&mut r, buf).expect("name validated at view parse")
    }

    /// Decompresses into an owned [`Name`]. One allocation (the shared
    /// name buffer); only called once a message leaves the filter path.
    pub fn to_name(&self) -> Name {
        let mut r = Reader::new(self.buf);
        r.seek(self.off).expect("offset from a validated view");
        Name::parse(&mut r).expect("name validated at view parse")
    }
}

impl fmt::Display for NameRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_name())
    }
}

impl fmt::Debug for NameRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NameRef({})", self.to_name())
    }
}

/// A borrowed question-section entry.
#[derive(Debug, Clone, Copy)]
pub struct QuestionView<'a> {
    /// Name being queried, still compressed in place.
    pub qname: NameRef<'a>,
    /// Type being queried.
    pub qtype: RType,
    /// Class being queried.
    pub qclass: RClass,
}

impl QuestionView<'_> {
    /// True when this entry asks the same question (type, class, and
    /// case-insensitive name). Allocation-free.
    pub fn matches(&self, q: &Question) -> bool {
        self.qtype == q.qtype && self.qclass == q.qclass && self.qname.eq_name(&q.qname)
    }

    /// Materializes an owned [`Question`].
    pub fn to_question(&self) -> Question {
        Question { qname: self.qname.to_name(), qtype: self.qtype, qclass: self.qclass }
    }
}

/// Iterator over borrowed questions.
pub struct QuestionIter<'a> {
    r: Reader<'a>,
    remaining: u16,
}

impl<'a> Iterator for QuestionIter<'a> {
    type Item = QuestionView<'a>;

    fn next(&mut self) -> Option<QuestionView<'a>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let buf = self.r.message();
        let off = self.r.position();
        walk_name(&mut self.r, &mut |_| true).expect("validated at view parse");
        let qtype = RType::from_u16(self.r.read_u16().expect("validated"));
        let qclass = RClass::from_u16(self.r.read_u16().expect("validated"));
        Some(QuestionView { qname: NameRef { buf, off }, qtype, qclass })
    }
}

/// A borrowed resource record.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    /// Owner name, still compressed in place.
    pub name: NameRef<'a>,
    /// Record type as seen on the wire.
    pub rtype: RType,
    /// Record class.
    pub class: RClass,
    /// Time to live in seconds.
    pub ttl: u32,
    buf: &'a [u8],
    rdata_off: usize,
    rdlength: u16,
}

impl<'a> RecordView<'a> {
    /// Raw RDATA bytes as they appear on the wire. Note that RDATA of
    /// name-bearing types may contain compression pointers into the rest
    /// of the message; use [`RecordView::rdata`] for decoded data.
    pub fn rdata_bytes(&self) -> &'a [u8] {
        &self.buf[self.rdata_off..self.rdata_off + self.rdlength as usize]
    }

    /// The character-strings, when this is a TXT record. Borrowed from the
    /// message; allocation-free.
    pub fn txt(&self) -> Option<TxtRef<'a>> {
        (self.rtype == RType::Txt).then(|| TxtRef { rdata: self.rdata_bytes() })
    }

    /// Decodes the typed RDATA (allocates for the owned representation).
    pub fn rdata(&self) -> RData {
        let mut r = Reader::new(self.buf);
        r.seek(self.rdata_off).expect("offset from a validated view");
        RData::parse(&mut r, self.rtype, self.rdlength).expect("rdata validated at view parse")
    }

    /// The IPv4 address, when this is an A record. Allocation-free.
    pub fn a_addr(&self) -> Option<std::net::Ipv4Addr> {
        if self.rtype != RType::A || self.rdlength != 4 {
            return None;
        }
        let b = self.rdata_bytes();
        Some(std::net::Ipv4Addr::new(b[0], b[1], b[2], b[3]))
    }

    /// The IPv6 address, when this is an AAAA record. Allocation-free.
    pub fn aaaa_addr(&self) -> Option<std::net::Ipv6Addr> {
        if self.rtype != RType::Aaaa || self.rdlength != 16 {
            return None;
        }
        let mut oct = [0u8; 16];
        oct.copy_from_slice(self.rdata_bytes());
        Some(std::net::Ipv6Addr::from(oct))
    }

    /// Materializes an owned [`Record`].
    pub fn to_record(&self) -> Record {
        Record { name: self.name.to_name(), class: self.class, ttl: self.ttl, rdata: self.rdata() }
    }
}

/// TXT RDATA read in place: its character-strings, and their
/// concatenation — the text [`RData::txt_string`] would build, compared
/// or copied here without allocating.
#[derive(Debug, Clone, Copy)]
pub struct TxtRef<'a> {
    /// Validated at view parse: a run of length-prefixed strings that ends
    /// exactly at the RDATA's end.
    rdata: &'a [u8],
}

impl<'a> TxtRef<'a> {
    /// The character-strings, in wire order.
    fn strings(&self) -> impl Iterator<Item = &'a [u8]> + Clone {
        let mut rest = self.rdata;
        std::iter::from_fn(move || {
            let (&len, tail) = rest.split_first()?;
            let (s, tail) = tail.split_at(len as usize);
            rest = tail;
            Some(s)
        })
    }

    /// The strings' bytes, joined with nothing between them.
    pub fn bytes(&self) -> impl Iterator<Item = u8> + Clone + 'a {
        self.strings().flatten().copied()
    }

    /// Length of the joined text in bytes.
    pub fn len(&self) -> usize {
        self.strings().map(<[u8]>::len).sum()
    }

    /// True when the joined text is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the joined text starts with `prefix`.
    pub fn starts_with(&self, prefix: &[u8]) -> bool {
        self.len() >= prefix.len() && self.bytes().zip(prefix).all(|(b, &p)| b == p)
    }

    /// True when the joined text ends with `suffix`.
    pub fn ends_with(&self, suffix: &[u8]) -> bool {
        let len = self.len();
        len >= suffix.len() && self.bytes().skip(len - suffix.len()).eq(suffix.iter().copied())
    }

    /// Copies the joined text into `buf`, or returns `None` when it does
    /// not fit.
    pub fn copy_into<'b>(&self, buf: &'b mut [u8]) -> Option<&'b [u8]> {
        let out = buf.get_mut(..self.len())?;
        for (slot, b) in out.iter_mut().zip(self.bytes()) {
            *slot = b;
        }
        Some(out)
    }

    /// The joined text, lossily decoded as UTF-8: exactly
    /// [`RData::txt_string`]'s result.
    pub fn to_string_lossy(&self) -> String {
        let mut strings = self.strings();
        match (strings.next(), strings.next()) {
            (Some(only), None) => String::from_utf8_lossy(only).into_owned(),
            _ => String::from_utf8_lossy(&self.bytes().collect::<Vec<u8>>()).into_owned(),
        }
    }
}

/// Iterator over borrowed records of one section.
pub struct RecordIter<'a> {
    r: Reader<'a>,
    remaining: u16,
}

impl<'a> Iterator for RecordIter<'a> {
    type Item = RecordView<'a>;

    fn next(&mut self) -> Option<RecordView<'a>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let buf = self.r.message();
        let off = self.r.position();
        walk_name(&mut self.r, &mut |_| true).expect("validated at view parse");
        let rtype = RType::from_u16(self.r.read_u16().expect("validated"));
        let class = RClass::from_u16(self.r.read_u16().expect("validated"));
        let ttl = self.r.read_u32().expect("validated");
        let rdlength = self.r.read_u16().expect("validated");
        let rdata_off = self.r.position();
        RData::skip(&mut self.r, rtype, rdlength).expect("validated at view parse");
        Some(RecordView {
            name: NameRef { buf, off },
            rtype,
            class,
            ttl,
            buf,
            rdata_off,
            rdlength,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Record;
    use crate::types::Rcode;
    use std::net::Ipv4Addr;

    fn q(name: &str, qtype: RType) -> Question {
        Question::new(name.parse().unwrap(), qtype)
    }

    #[test]
    fn view_agrees_with_owned_parse_on_a_response() {
        let query = Message::query(0x4242, q("www.example.com", RType::A));
        let resp = Message::response_to(&query, Rcode::NoError).with_answer(Record::new(
            "www.example.com".parse().unwrap(),
            30,
            RData::A(Ipv4Addr::new(93, 184, 216, 34)),
        ));
        let bytes = resp.encode().unwrap();
        let view = MessageView::parse(&bytes).unwrap();
        let owned = Message::parse(&bytes).unwrap();
        assert_eq!(*view.header(), owned.header);
        assert_eq!(view.question_count(), owned.questions.len());
        assert_eq!(view.answer_count(), owned.answers.len());
        let qv = view.question().unwrap();
        assert!(qv.matches(owned.question().unwrap()));
        assert_eq!(qv.to_question(), *owned.question().unwrap());
        let av: Vec<Record> = view.answers().map(|r| r.to_record()).collect();
        assert_eq!(av, owned.answers);
        assert_eq!(view.to_message(), owned);
    }

    #[test]
    fn question_match_is_case_insensitive_and_type_strict() {
        let msg = Message::query(7, q("Probe.DNS-Hijack-Study.Example", RType::A));
        let bytes = msg.encode().unwrap();
        let view = MessageView::parse(&bytes).unwrap();
        let qv = view.question().unwrap();
        assert!(qv.matches(&q("probe.dns-hijack-study.example", RType::A)));
        assert!(!qv.matches(&q("probe.dns-hijack-study.example", RType::Aaaa)));
        assert!(!qv.matches(&q("probe2.dns-hijack-study.example", RType::A)));
        // A longer owned name must not match a view prefix and vice versa.
        assert!(!qv.matches(&q("x.probe.dns-hijack-study.example", RType::A)));
        assert!(!qv.matches(&q("dns-hijack-study.example", RType::A)));
    }

    #[test]
    fn record_accessors_read_addresses_in_place() {
        let query = Message::query(1, q("example.com", RType::A));
        let resp = Message::response_to(&query, Rcode::NoError)
            .with_answer(Record::new(
                "example.com".parse().unwrap(),
                60,
                RData::A(Ipv4Addr::new(10, 0, 0, 1)),
            ))
            .with_answer(Record::new(
                "example.com".parse().unwrap(),
                60,
                RData::Aaaa("2001:db8::1".parse().unwrap()),
            ));
        let bytes = resp.encode().unwrap();
        let view = MessageView::parse(&bytes).unwrap();
        let answers: Vec<RecordView> = view.answers().collect();
        assert_eq!(answers[0].a_addr(), Some(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(answers[0].aaaa_addr(), None);
        assert_eq!(answers[1].aaaa_addr(), Some("2001:db8::1".parse().unwrap()));
        assert_eq!(answers[1].a_addr(), None);
    }

    #[test]
    fn view_rejects_what_owned_parse_rejects() {
        // Truncated header.
        assert!(MessageView::parse(&[0u8; 5]).is_err());
        // Count overrun.
        let msg = Message::query(2, q("example.com", RType::A));
        let bytes = msg.encode().unwrap();
        assert!(MessageView::parse(&bytes[..bytes.len() - 3]).is_err());
        // Trailing bytes tolerated, like Message::parse.
        let mut padded = bytes.clone();
        padded.extend_from_slice(b"junk");
        assert!(MessageView::parse(&padded).is_ok());
    }

    #[test]
    fn wire_message_keeps_the_received_bytes_and_their_parse() {
        let query = Message::query(0x0102, q("id.server", RType::Txt));
        let resp = Message::response_to(&query, Rcode::NoError)
            .with_answer(Record::new("id.server".parse().unwrap(), 0, RData::txt("IAD")));
        let bytes = resp.encode().unwrap();
        let wire = WireMessage::parse(Bytes::from(bytes.clone())).unwrap();
        assert_eq!(wire.as_bytes(), &bytes[..]);
        assert_eq!(wire.encode().unwrap(), bytes);
        assert_eq!(*wire.header(), resp.header);
        assert_eq!(wire.view().to_message(), resp);
        assert_eq!(WireMessage::from_message(&resp).unwrap(), wire);
        assert_eq!(MessageView::parse(&bytes).unwrap().to_wire(), wire);
        assert!(WireMessage::parse(Bytes::from(bytes[..bytes.len() - 1].to_vec())).is_err());
    }

    #[test]
    fn with_id_patches_header_and_wire_alike() {
        let query = Message::query(0x4242, q("example.com", RType::A));
        let resp = Message::response_to(&query, Rcode::NoError);
        let wire = WireMessage::from_message(&resp).unwrap();
        let same = wire.clone().with_id(0x4242);
        assert_eq!(same, wire);
        let patched = wire.with_id(0xBEEF);
        assert_eq!(patched.header().id, 0xBEEF);
        assert_eq!(patched.view().header().id, 0xBEEF);
        let encoded = patched.encode().unwrap();
        assert_eq!(&encoded[..2], &[0xBE, 0xEF]);
        assert_eq!(Message::parse(&encoded).unwrap().header.id, 0xBEEF);
    }

    #[test]
    fn txt_ref_joins_like_txt_string() {
        let query = Message::query(5, q("t.example", RType::Txt));
        let texts: [Vec<Vec<u8>>; 4] = [
            vec![b"res100.iad".to_vec(), b".rrdns.pch.net".to_vec()],
            vec![vec![]],
            vec![b"ok".to_vec(), vec![0xFF, b'x'], vec![0x80]],
            vec![b"single".to_vec()],
        ];
        for parts in texts {
            let rdata = RData::Txt(parts.clone());
            let resp = Message::response_to(&query, Rcode::NoError)
                .with_answer(Record::new("t.example".parse().unwrap(), 0, rdata.clone()));
            let bytes = resp.encode().unwrap();
            let view = MessageView::parse(&bytes).unwrap();
            let txt = view.answers().next().unwrap().txt().expect("a TXT record");
            let joined: Vec<u8> = parts.concat();
            assert_eq!(txt.to_string_lossy(), rdata.txt_string().unwrap());
            assert_eq!(txt.len(), joined.len());
            assert_eq!(txt.bytes().collect::<Vec<u8>>(), joined);
            for n in 0..=joined.len() {
                assert!(txt.starts_with(&joined[..n]));
                assert!(txt.ends_with(&joined[n..]));
            }
            assert!(!txt.starts_with(&[joined.as_slice(), b"!"].concat()));
            let mut buf = [0u8; 64];
            assert_eq!(txt.copy_into(&mut buf), Some(&joined[..]));
            let short = joined.len().saturating_sub(1);
            assert_eq!(txt.copy_into(&mut buf[..short]).is_some(), joined.is_empty());
        }
        let a = Message::response_to(&query, Rcode::NoError).with_answer(Record::new(
            "t.example".parse().unwrap(),
            0,
            RData::A(Ipv4Addr::new(1, 2, 3, 4)),
        ));
        let bytes = a.encode().unwrap();
        assert!(MessageView::parse(&bytes).unwrap().answers().next().unwrap().txt().is_none());
    }

    #[test]
    fn compressed_names_resolve_through_the_view() {
        let name: Name = "a.b.example.com".parse().unwrap();
        let query = Message::query(3, Question::new(name.clone(), RType::Txt));
        let resp = Message::response_to(&query, Rcode::NoError)
            .with_answer(Record::new(name.clone(), 5, RData::txt("hello")));
        let bytes = resp.encode().unwrap();
        // The answer's owner name is a compression pointer; the view must
        // still compare and materialize it correctly.
        let view = MessageView::parse(&bytes).unwrap();
        let rec = view.answers().next().unwrap();
        assert!(rec.name.eq_name(&name));
        assert_eq!(rec.name.to_name(), name);
        assert_eq!(rec.rdata().txt_string().unwrap(), "hello");
    }
}
