//! Writing a response straight from a received query.
//!
//! [`ReplyWriter`] turns a [`MessageView`] of a query into the wire bytes
//! of its response without building a [`Message`](crate::Message): the
//! header and question section are copied from the view, answers are
//! appended in place, and the result lands in a reusable
//! [`EncodeScratch`]. The bytes are exactly those of
//! `Message::response_to(query, rcode)` with the same answers pushed and
//! encoded, so a responder can switch between the two freely; a warm
//! scratch makes the whole reply allocation-free.

use crate::error::BuildError;
use crate::message::{EncodeScratch, Header, Record};
use crate::name::{encode_compressed, WireName, MAX_NAME_LEN};
use crate::rdata::RData;
use crate::types::{RClass, RType, Rcode};
use crate::view::MessageView;
use crate::wire::Writer;
use core::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// RDATA of a synthesized answer, borrowed: TXT text is formatted straight
/// into the message rather than into an owned [`RData`].
#[derive(Debug, Clone, Copy)]
pub enum AnswerData<'a> {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// One TXT character-string (at most 255 octets once formatted).
    Txt(fmt::Arguments<'a>),
}

impl AnswerData<'_> {
    /// The record type this data belongs to.
    pub fn rtype(&self) -> RType {
        match self {
            AnswerData::A(_) => RType::A,
            AnswerData::Aaaa(_) => RType::Aaaa,
            AnswerData::Txt(_) => RType::Txt,
        }
    }

    /// The owned form: what [`ReplyWriter::answer`] writes, as an [`RData`].
    pub fn to_rdata(&self) -> RData {
        match *self {
            AnswerData::A(ip) => RData::A(ip),
            AnswerData::Aaaa(ip) => RData::Aaaa(ip),
            AnswerData::Txt(text) => RData::txt(text.to_string()),
        }
    }
}

/// Builds one response in place; see the [module docs](self).
///
/// Appending is infallible: the first encoding error is remembered and
/// reported by [`ReplyWriter::finish`], which is where a responder decides
/// whether to send anything at all.
pub struct ReplyWriter<'s> {
    scratch: &'s mut EncodeScratch,
    w: Writer,
    header: Header,
    questions: u16,
    answers: u16,
    /// Buffer length and compressor mark just past the question section.
    answers_at: (usize, usize),
    error: Option<BuildError>,
}

impl<'s> ReplyWriter<'s> {
    /// Starts the response to `query`: copies the ID, opcode, RD and CD bits
    /// and the whole question section; sets QR and RA. Authority and
    /// additional records of the query are not copied.
    pub fn new(
        scratch: &'s mut EncodeScratch,
        query: &MessageView<'_>,
        rcode: Rcode,
    ) -> ReplyWriter<'s> {
        let q = query.header();
        let header = Header {
            id: q.id,
            qr: true,
            opcode: q.opcode,
            aa: false,
            tc: false,
            rd: q.rd,
            ra: true,
            ad: false,
            cd: q.cd,
            rcode,
        };
        let mut buf = std::mem::take(&mut scratch.buf);
        buf.clear();
        // A cold scratch gets room for a classic UDP reply at once rather
        // than growing through several reallocations.
        buf.reserve(512);
        let mut w = Writer::from_vec(buf);
        scratch.compress.clear();
        let questions = query.question_count() as u16;
        // Flags and the answer count are patched in by `finish`.
        header.encode(&mut w, [questions, 0, 0, 0]);
        let mut name_buf = [0u8; MAX_NAME_LEN];
        for qv in query.questions() {
            let qname = qv.qname.to_wire_name(&mut name_buf);
            encode_compressed(qname.as_wire(), &mut w, &mut scratch.compress);
            w.write_u16(qv.qtype.to_u16());
            w.write_u16(qv.qclass.to_u16());
        }
        let answers_at = (w.len(), scratch.compress.mark());
        ReplyWriter {
            scratch,
            w,
            header,
            questions,
            answers: 0,
            answers_at,
            error: None,
        }
    }

    /// Sets the response code.
    pub fn set_rcode(&mut self, rcode: Rcode) {
        self.header.rcode = rcode;
    }

    /// Sets or clears the AD (authentic data) bit.
    pub fn set_ad(&mut self, ad: bool) {
        self.header.ad = ad;
    }

    /// Appends a stored record to the answer section, compressed exactly as
    /// [`Message::encode`](crate::Message::encode) would.
    pub fn record(&mut self, record: &Record) {
        if self.count_answer() {
            if let Err(e) = record.encode(&mut self.w, &mut self.scratch.compress) {
                self.error.get_or_insert(e);
            }
        }
    }

    /// Appends a synthesized answer owned by `owner` — typically the
    /// question name, which compresses to a pointer at the question.
    pub fn answer(&mut self, owner: WireName<'_>, class: RClass, ttl: u32, data: AnswerData<'_>) {
        if !self.count_answer() {
            return;
        }
        let w = &mut self.w;
        encode_compressed(owner.as_wire(), w, &mut self.scratch.compress);
        w.write_u16(data.rtype().to_u16());
        w.write_u16(class.to_u16());
        w.write_u32(ttl);
        let len_at = w.len();
        w.write_u16(0);
        match data {
            AnswerData::A(ip) => w.write_bytes(&ip.octets()),
            AnswerData::Aaaa(ip) => w.write_bytes(&ip.octets()),
            AnswerData::Txt(text) => {
                let at = w.len();
                w.write_u8(0);
                // Writing into a Vec cannot fail.
                let _ = fmt::write(w, text);
                let len = w.len() - at - 1;
                if len > 255 {
                    self.error.get_or_insert(BuildError::StringTooLong);
                    return;
                }
                w.patch_u8(at, len as u8);
            }
        }
        let rdlength = (w.len() - len_at - 2) as u16;
        w.patch_u16(len_at, rdlength);
    }

    /// Drops every answer appended so far (and any error they raised),
    /// leaving the header and question section.
    pub fn discard_answers(&mut self) {
        let (len, mark) = self.answers_at;
        self.w.truncate(len);
        self.scratch.compress.truncate(mark);
        self.answers = 0;
        self.error = None;
    }

    /// Completes the header and returns the encoded response, borrowed from
    /// the scratch. Fails if any append failed or the message outgrew
    /// 65535 octets.
    pub fn finish(self) -> Result<&'s [u8], BuildError> {
        let ReplyWriter {
            scratch,
            mut w,
            header,
            questions,
            answers,
            error,
            ..
        } = self;
        let result = match error {
            Some(e) => Err(e),
            None if w.len() > u16::MAX as usize => Err(BuildError::MessageTooLong),
            None => {
                w.patch_u16(2, header.flags());
                w.patch_u16(4, questions);
                w.patch_u16(6, answers);
                Ok(())
            }
        };
        scratch.buf = w.into_bytes();
        result.map(|()| scratch.buf.as_slice())
    }

    /// Counts one more answer; false (with the error noted) once the
    /// section is full.
    fn count_answer(&mut self) -> bool {
        match self.answers.checked_add(1) {
            Some(n) => {
                self.answers = n;
                true
            }
            None => {
                self.error.get_or_insert(BuildError::TooManyRecords);
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, Question};
    use crate::name::Name;

    fn reply_bytes(
        query: &Message,
        fill: impl FnOnce(&mut ReplyWriter<'_>, WireName<'_>),
    ) -> Vec<u8> {
        let wire = query.encode().unwrap();
        let view = MessageView::parse(&wire).unwrap();
        let mut scratch = EncodeScratch::new();
        let mut buf = [0u8; MAX_NAME_LEN];
        let qname = view.question().unwrap().qname.to_wire_name(&mut buf);
        let mut w = ReplyWriter::new(&mut scratch, &view, Rcode::NoError);
        fill(&mut w, qname);
        w.finish().unwrap().to_vec()
    }

    #[test]
    fn txt_answer_matches_owned_encode() {
        let name: Name = "Id.SERVER".parse().unwrap();
        let query = Message::query(0x1234, Question::chaos_txt(name.clone()));
        let got = reply_bytes(&query, |w, qname| {
            w.answer(
                qname,
                RClass::Chaos,
                0,
                AnswerData::Txt(format_args!("res{}.{}", 84, "iad")),
            );
        });
        let want = Message::response_to(&query, Rcode::NoError)
            .with_answer(Record::chaos_txt(name, "res84.iad"))
            .encode()
            .unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn discarded_answers_leave_the_bare_response() {
        let query = Message::query(9, Question::new("a.example".parse().unwrap(), RType::A));
        let got = reply_bytes(&query, |w, qname| {
            w.answer(
                qname,
                RClass::In,
                30,
                AnswerData::A(Ipv4Addr::new(10, 0, 0, 1)),
            );
            w.discard_answers();
            w.set_rcode(Rcode::ServFail);
        });
        assert_eq!(
            got,
            Message::response_to(&query, Rcode::ServFail)
                .encode()
                .unwrap()
        );
    }

    #[test]
    fn overlong_txt_fails_at_finish() {
        let query = Message::query(1, Question::new("t.example".parse().unwrap(), RType::Txt));
        let wire = query.encode().unwrap();
        let view = MessageView::parse(&wire).unwrap();
        let mut scratch = EncodeScratch::new();
        let mut buf = [0u8; MAX_NAME_LEN];
        let qname = view.question().unwrap().qname.to_wire_name(&mut buf);
        let mut w = ReplyWriter::new(&mut scratch, &view, Rcode::NoError);
        w.answer(
            qname,
            RClass::In,
            0,
            AnswerData::Txt(format_args!("{}", "x".repeat(256))),
        );
        assert_eq!(w.finish(), Err(BuildError::StringTooLong));
    }
}
