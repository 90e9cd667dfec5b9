//! The standard DNS *debugging queries* (RFC 4892) the paper's technique is
//! built on, plus helpers to build and interpret them.
//!
//! Three names matter:
//!
//! * `version.bind` (CHAOS TXT) — reveals the responding software's version
//!   string. The paper's step 2 compares the string returned by the CPE's
//!   public IP with the strings returned "by" the public resolvers: identical
//!   strings mean the same forwarder (the CPE) answered both.
//! * `id.server` (CHAOS TXT) — reveals the responding *server instance*.
//!   Cloudflare answers with an IATA airport code, Quad9 with a PCH node
//!   name.
//! * `hostname.bind` (CHAOS TXT) — the older BIND spelling of `id.server`,
//!   used by the Jones et al. root-manipulation baseline.
//!
//! Two IN-class names complete the toolbox:
//!
//! * `o-o.myaddr.l.google.com` (IN TXT) — Google's resolver returns the
//!   client address it sees, which for a query that really reached Google is
//!   a Google egress address.
//! * `debug.opendns.com` (IN TXT) — OpenDNS returns `server mNN.IATA` plus
//!   additional diagnostic strings.

use crate::message::{Message, Question};
use crate::name::Name;
use crate::types::{RClass, RType};
use crate::view::QuestionView;
use std::sync::OnceLock;

/// Interns a fixed name: parsed once per process, every caller gets a
/// refcount-bumped clone. The debugging-query names are asked on every
/// single probe, so per-call parsing would be the hot path's main
/// allocation source.
fn interned(cell: &OnceLock<Name>, text: &str) -> Name {
    cell.get_or_init(|| text.parse().expect("static name is valid")).clone()
}

/// Returns the `version.bind` name.
pub fn version_bind() -> Name {
    static NAME: OnceLock<Name> = OnceLock::new();
    interned(&NAME, "version.bind")
}

/// Returns the `id.server` name.
pub fn id_server() -> Name {
    static NAME: OnceLock<Name> = OnceLock::new();
    interned(&NAME, "id.server")
}

/// Returns the `hostname.bind` name.
pub fn hostname_bind() -> Name {
    static NAME: OnceLock<Name> = OnceLock::new();
    interned(&NAME, "hostname.bind")
}

/// Returns Google's `o-o.myaddr.l.google.com` self-address name.
pub fn google_myaddr() -> Name {
    static NAME: OnceLock<Name> = OnceLock::new();
    interned(&NAME, "o-o.myaddr.l.google.com")
}

/// Returns OpenDNS's `debug.opendns.com` name.
pub fn opendns_debug() -> Name {
    static NAME: OnceLock<Name> = OnceLock::new();
    interned(&NAME, "debug.opendns.com")
}

/// Returns Akamai's `whoami.akamai.com` resolver-identity name, used by the
/// paper's transparency test (§4.1.2).
pub fn whoami_akamai() -> Name {
    static NAME: OnceLock<Name> = OnceLock::new();
    interned(&NAME, "whoami.akamai.com")
}

/// Builds a CHAOS TXT `version.bind` query message.
pub fn version_bind_query(id: u16) -> Message {
    Message::query(id, Question::chaos_txt(version_bind()))
}

/// Builds a CHAOS TXT `id.server` query message.
pub fn id_server_query(id: u16) -> Message {
    Message::query(id, Question::chaos_txt(id_server()))
}

/// Builds a CHAOS TXT `hostname.bind` query message.
pub fn hostname_bind_query(id: u16) -> Message {
    Message::query(id, Question::chaos_txt(hostname_bind()))
}

/// Which server-identification question a CHAOS query is asking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerIdKind {
    /// Software version (`version.bind` / `version.server`).
    Version,
    /// Server instance identity (`id.server` / `hostname.bind` / `id.bind`).
    Identity,
}

/// The five server-identification names BIND-like software accepts, in
/// canonical wire form.
const SERVER_ID_NAMES: [(&[u8], ServerIdKind); 5] = [
    (b"\x07version\x04bind\x00", ServerIdKind::Version),
    (b"\x07version\x06server\x00", ServerIdKind::Version),
    (b"\x02id\x06server\x00", ServerIdKind::Identity),
    (b"\x08hostname\x04bind\x00", ServerIdKind::Identity),
    (b"\x02id\x04bind\x00", ServerIdKind::Identity),
];

/// Classifies by class, type and a case-insensitive wire-name test. Every
/// responder calls this per query, so it compares labels in place instead
/// of rendering the name to text.
fn classify(
    qclass: RClass,
    qtype: RType,
    name_is: impl Fn(&[u8]) -> bool,
) -> Option<ServerIdKind> {
    if qclass != RClass::Chaos || !matches!(qtype, RType::Txt | RType::Any) {
        return None;
    }
    SERVER_ID_NAMES.iter().find(|(wire, _)| name_is(wire)).map(|&(_, kind)| kind)
}

/// True if `q` is one of the CHAOS-class server-identification questions
/// (`version.bind`, `id.server`, `hostname.bind`, or their `.server`/`.bind`
/// cross-spellings, all of which BIND-like software accepts).
pub fn is_server_id_question(q: &Question) -> bool {
    server_id_kind(q).is_some()
}

/// Classifies a CHAOS question into version vs identity, or `None` if it is
/// not a server-identification question.
pub fn server_id_kind(q: &Question) -> Option<ServerIdKind> {
    classify(q.qclass, q.qtype, |wire| q.qname.as_wire().eq_ignore_ascii_case(wire))
}

/// [`server_id_kind`] for a question still inside a received message.
pub fn server_id_kind_view(q: &QuestionView<'_>) -> Option<ServerIdKind> {
    classify(q.qclass, q.qtype, |wire| q.qname.eq_wire(wire))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_chaos_txt() {
        for msg in [version_bind_query(1), id_server_query(2), hostname_bind_query(3)] {
            let q = msg.question().unwrap();
            assert_eq!(q.qclass, RClass::Chaos);
            assert_eq!(q.qtype, RType::Txt);
            assert!(is_server_id_question(q));
        }
    }

    #[test]
    fn classification() {
        let v = version_bind_query(1);
        assert_eq!(server_id_kind(v.question().unwrap()), Some(ServerIdKind::Version));
        let i = id_server_query(1);
        assert_eq!(server_id_kind(i.question().unwrap()), Some(ServerIdKind::Identity));
        let h = hostname_bind_query(1);
        assert_eq!(server_id_kind(h.question().unwrap()), Some(ServerIdKind::Identity));
    }

    #[test]
    fn in_class_is_not_server_id() {
        let q = Question::new(version_bind(), RType::Txt);
        assert!(!is_server_id_question(&q));
        assert_eq!(server_id_kind(&q), None);
    }

    #[test]
    fn chaos_a_is_not_server_id() {
        let q = Question { qname: version_bind(), qtype: RType::A, qclass: RClass::Chaos };
        assert!(!is_server_id_question(&q));
    }

    #[test]
    fn case_insensitive_names() {
        let q = Question::chaos_txt("VERSION.BIND".parse().unwrap());
        assert_eq!(server_id_kind(&q), Some(ServerIdKind::Version));
    }

    #[test]
    fn server_id_names_compare_by_wire_labels() {
        let spellings = [
            ("version.bind", ServerIdKind::Version),
            ("version.server", ServerIdKind::Version),
            ("id.server", ServerIdKind::Identity),
            ("hostname.bind", ServerIdKind::Identity),
            ("id.bind", ServerIdKind::Identity),
        ];
        for (text, kind) in spellings {
            for spelled in [text.to_string(), text.to_ascii_uppercase(), mixed_case(text)] {
                let name: Name = spelled.parse().unwrap();
                for qtype in [RType::Txt, RType::Any] {
                    let q = Question { qname: name.clone(), qtype, qclass: RClass::Chaos };
                    assert_eq!(server_id_kind(&q), Some(kind), "{spelled} {qtype:?}");
                    assert_eq!(view_kind(&q), Some(kind), "{spelled} {qtype:?} (view)");
                    assert!(is_server_id_question(&q));
                }
                // Wrong class or wrong type: not a server-id question.
                for q in [
                    Question { qname: name.clone(), qtype: RType::Txt, qclass: RClass::In },
                    Question { qname: name.clone(), qtype: RType::A, qclass: RClass::Chaos },
                ] {
                    assert_eq!(server_id_kind(&q), None, "{q}");
                    assert_eq!(view_kind(&q), None, "{q} (view)");
                }
            }
        }
        let others =
            ["bind", "version", "version.bind.example", "x.id.server", "hostname.server", "id"];
        for other in others {
            let q = Question::chaos_txt(other.parse().unwrap());
            assert_eq!(server_id_kind(&q), None, "{other}");
            assert_eq!(view_kind(&q), None, "{other} (view)");
        }
    }

    fn mixed_case(s: &str) -> String {
        s.chars()
            .enumerate()
            .map(|(i, c)| if i % 2 == 0 { c.to_ascii_uppercase() } else { c })
            .collect()
    }

    fn view_kind(q: &Question) -> Option<ServerIdKind> {
        let wire = Message::query(1, q.clone()).encode().unwrap();
        let view = crate::MessageView::parse(&wire).unwrap();
        server_id_kind_view(&view.question().unwrap())
    }

    #[test]
    fn well_known_names_parse() {
        assert_eq!(google_myaddr().to_string(), "o-o.myaddr.l.google.com.");
        assert_eq!(opendns_debug().to_string(), "debug.opendns.com.");
        assert_eq!(whoami_akamai().to_string(), "whoami.akamai.com.");
    }
}
