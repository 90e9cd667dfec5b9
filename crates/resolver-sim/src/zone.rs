//! The authoritative side of the simulated DNS: a zone database shared by
//! every recursive resolver in a scenario.
//!
//! Recursive resolution is modelled as an instant lookup against this
//! database, *parameterized by the resolver's egress address*. That one
//! parameter is what makes the reflector names work exactly like their
//! real-world counterparts:
//!
//! * `whoami.akamai.com` answers with the address of the resolver that
//!   asked — so a query intercepted toward the ISP resolver reveals the ISP
//!   egress instead of the target resolver's (§4.1.2).
//! * `o-o.myaddr.l.google.com` answers TXT with the asking resolver's
//!   address — Google's own recursors produce a Google address, an ISP
//!   resolver produces a foreign one (Table 2).

use dns_wire::{
    AnswerData, Name, Question, RClass, RData, RType, Rcode, Record, ReplyWriter, WireName,
};
use std::cmp::Ordering;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::sync::Arc;

/// Total, case-insensitive ordering over canonical name wire forms.
/// Consistent with `Name`'s `PartialEq`/`Hash`: equal names compare equal.
fn cmp_names(aw: &[u8], bw: &[u8]) -> Ordering {
    for (x, y) in aw.iter().zip(bw.iter()) {
        match x.to_ascii_lowercase().cmp(&y.to_ascii_lowercase()) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    aw.len().cmp(&bw.len())
}

/// Who is asking the authoritative layer.
#[derive(Debug, Clone, Copy)]
pub struct ResolveCtx {
    /// The recursor's IPv4 egress, if it has one.
    pub egress_v4: Option<Ipv4Addr>,
    /// The recursor's IPv6 egress, if it has one.
    pub egress_v6: Option<Ipv6Addr>,
}

impl ResolveCtx {
    /// Context for a v4-only recursor.
    pub fn v4(egress: Ipv4Addr) -> ResolveCtx {
        ResolveCtx { egress_v4: Some(egress), egress_v6: None }
    }
}

/// Where a lookup hands its answer records, as it finds them.
///
/// A responder passes its [`ReplyWriter`], so records go straight onto the
/// wire; the owned forms ([`Zone::lookup`], [`ZoneDb::resolve`]) collect
/// into a `Vec<Record>`.
pub trait AnswerSink {
    /// A stored record.
    fn record(&mut self, record: &Record);
    /// An IN-class answer synthesized for `owner`.
    fn synthesized(&mut self, owner: WireName<'_>, ttl: u32, data: AnswerData<'_>);
    /// Forgets every answer handed over so far.
    fn discard(&mut self);
}

impl AnswerSink for Vec<Record> {
    fn record(&mut self, record: &Record) {
        self.push(record.clone());
    }

    fn synthesized(&mut self, owner: WireName<'_>, ttl: u32, data: AnswerData<'_>) {
        self.push(Record::new(owner.to_name(), ttl, data.to_rdata()));
    }

    fn discard(&mut self) {
        self.clear();
    }
}

impl AnswerSink for ReplyWriter<'_> {
    fn record(&mut self, record: &Record) {
        ReplyWriter::record(self, record);
    }

    fn synthesized(&mut self, owner: WireName<'_>, ttl: u32, data: AnswerData<'_>) {
        self.answer(owner, RClass::In, ttl, data);
    }

    fn discard(&mut self) {
        self.discard_answers();
    }
}

/// How a zone answered, besides the records it handed to the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Matching records went to the sink.
    Records,
    /// The name does not exist in the zone.
    NxDomain,
    /// The name exists but has no records of the asked type.
    NoData,
}

/// One zone's answer, owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneAnswer {
    /// Matching records.
    Records(Vec<Record>),
    /// The name does not exist in the zone.
    NxDomain,
    /// The name exists but has no records of the asked type.
    NoData,
}

/// An authoritative data source for one apex.
pub trait Zone: Send + Sync {
    /// Answers `qname`/`qtype`, handing matching records to `out`.
    fn lookup_into(
        &self,
        qname: WireName<'_>,
        qtype: RType,
        ctx: &ResolveCtx,
        out: &mut dyn AnswerSink,
    ) -> Lookup;

    /// Answers one question with owned records: a thin wrapper over
    /// [`Zone::lookup_into`].
    fn lookup(&self, q: &Question, ctx: &ResolveCtx) -> ZoneAnswer {
        let mut records = Vec::new();
        match self.lookup_into(q.qname.as_wire_name(), q.qtype, ctx, &mut records) {
            Lookup::Records => ZoneAnswer::Records(records),
            Lookup::NxDomain => ZoneAnswer::NxDomain,
            Lookup::NoData => ZoneAnswer::NoData,
        }
    }
}

/// A static zone: a sorted table from (name, type) to records.
///
/// Kept sorted (case-insensitive name order, then type) at insertion time,
/// so the per-query lookup is a binary search over borrowed keys — no
/// `(Name, u16)` clone, no hashing. Zone contents are built once per
/// campaign and queried millions of times; the table trades O(n) inserts
/// for allocation-free lookups.
#[derive(Debug, Default)]
pub struct StaticZone {
    entries: Vec<(Name, u16, Vec<Record>)>,
}

impl StaticZone {
    /// An empty zone.
    pub fn new() -> StaticZone {
        StaticZone::default()
    }

    fn position(&self, name: &[u8], rtype: u16) -> Result<usize, usize> {
        self.entries
            .binary_search_by(|(n, t, _)| cmp_names(n.as_wire(), name).then(t.cmp(&rtype)))
    }

    fn lookup_records(&self, name: &[u8], rtype: u16) -> Option<&[Record]> {
        self.position(name, rtype).ok().map(|i| self.entries[i].2.as_slice())
    }

    fn contains_name(&self, name: &[u8]) -> bool {
        // Entries are sorted by name first: the partition point sits just
        // past the last entry with this name, if any exists.
        let i = self
            .entries
            .partition_point(|(n, _, _)| cmp_names(n.as_wire(), name) != Ordering::Greater);
        i > 0 && cmp_names(self.entries[i - 1].0.as_wire(), name) == Ordering::Equal
    }

    /// Adds a record.
    pub fn add(&mut self, record: Record) -> &mut Self {
        let rtype = record.rdata.rtype().to_u16();
        match self.position(record.name.as_wire(), rtype) {
            Ok(i) => self.entries[i].2.push(record),
            Err(i) => {
                let name = record.name.clone();
                self.entries.insert(i, (name, rtype, vec![record]));
            }
        }
        self
    }

    /// Convenience: adds an A record.
    pub fn add_a(&mut self, name: &str, ttl: u32, ip: Ipv4Addr) -> &mut Self {
        self.add(Record::new(name.parse().expect("valid name"), ttl, RData::A(ip)))
    }

    /// Convenience: adds an AAAA record.
    pub fn add_aaaa(&mut self, name: &str, ttl: u32, ip: Ipv6Addr) -> &mut Self {
        self.add(Record::new(name.parse().expect("valid name"), ttl, RData::Aaaa(ip)))
    }

    /// Convenience: adds a TXT record.
    pub fn add_txt(&mut self, name: &str, ttl: u32, text: &str) -> &mut Self {
        self.add(Record::new(name.parse().expect("valid name"), ttl, RData::txt(text)))
    }

    /// Convenience: adds a CNAME record.
    pub fn add_cname(&mut self, name: &str, ttl: u32, target: &str) -> &mut Self {
        self.add(Record::new(
            name.parse().expect("valid name"),
            ttl,
            RData::Cname(target.parse().expect("valid name")),
        ))
    }
}

impl Zone for StaticZone {
    fn lookup_into(
        &self,
        qname: WireName<'_>,
        qtype: RType,
        _ctx: &ResolveCtx,
        out: &mut dyn AnswerSink,
    ) -> Lookup {
        let name = qname.as_wire();
        // A CNAME at the name answers any type.
        let records = self
            .lookup_records(name, qtype.to_u16())
            .or_else(|| self.lookup_records(name, RType::Cname.to_u16()));
        if let Some(records) = records {
            records.iter().for_each(|r| out.record(r));
            return Lookup::Records;
        }
        if self.contains_name(name) {
            Lookup::NoData
        } else {
            Lookup::NxDomain
        }
    }
}

/// What a [`ReflectorZone`] answers with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReflectKind {
    /// A/AAAA record carrying the asking recursor's egress
    /// (`whoami.akamai.com` style).
    Address,
    /// TXT record carrying the egress in dotted form
    /// (`o-o.myaddr.l.google.com` style).
    Text,
}

/// A zone whose single name reflects the asking resolver's egress address.
#[derive(Debug)]
pub struct ReflectorZone {
    name: Name,
    kind: ReflectKind,
}

impl ReflectorZone {
    /// Creates a reflector for `name`.
    pub fn new(name: Name, kind: ReflectKind) -> ReflectorZone {
        ReflectorZone { name, kind }
    }
}

impl Zone for ReflectorZone {
    fn lookup_into(
        &self,
        qname: WireName<'_>,
        qtype: RType,
        ctx: &ResolveCtx,
        out: &mut dyn AnswerSink,
    ) -> Lookup {
        if qname != self.name {
            return Lookup::NxDomain;
        }
        match (self.kind, qtype, ctx.egress_v4, ctx.egress_v6) {
            (ReflectKind::Address, RType::A, Some(ip), _) => {
                out.synthesized(qname, 30, AnswerData::A(ip))
            }
            (ReflectKind::Address, RType::Aaaa, _, Some(ip)) => {
                out.synthesized(qname, 30, AnswerData::Aaaa(ip))
            }
            (ReflectKind::Text, RType::Txt, Some(ip), _) => {
                out.synthesized(qname, 30, AnswerData::Txt(format_args!("{ip}")))
            }
            (ReflectKind::Text, RType::Txt, None, Some(ip)) => {
                out.synthesized(qname, 30, AnswerData::Txt(format_args!("{ip}")))
            }
            _ => return Lookup::NoData,
        }
        Lookup::Records
    }
}

/// Result of a recursive resolution against the database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolveResult {
    /// Response code.
    pub rcode: Rcode,
    /// Answer records (possibly a CNAME chain).
    pub answers: Vec<Record>,
    /// True when every zone touched is signed (DNSSEC-lite): a validating
    /// resolver may set the AD bit on this answer.
    pub authenticated: bool,
}

/// The shared authoritative database: apex → zone, longest-suffix match.
#[derive(Default)]
pub struct ZoneDb {
    zones: Vec<(Name, Arc<dyn Zone>)>,
    /// Apexes whose data is DNSSEC-signed (modelled as a flag: signatures
    /// themselves add nothing to the interception mechanics).
    signed: Vec<Name>,
}

/// How a resolution ended, besides the answers it handed to the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// Response code.
    pub rcode: Rcode,
    /// True when every zone touched is signed; see
    /// [`ResolveResult::authenticated`].
    pub authenticated: bool,
}

impl ZoneDb {
    /// An empty database.
    pub fn new() -> ZoneDb {
        ZoneDb::default()
    }

    /// Mounts a zone at `apex`.
    pub fn mount(&mut self, apex: Name, zone: Arc<dyn Zone>) -> &mut Self {
        self.zones.push((apex, zone));
        self
    }

    /// Marks an apex as DNSSEC-signed.
    pub fn sign(&mut self, apex: Name) -> &mut Self {
        if !self.signed.contains(&apex) {
            self.signed.push(apex);
        }
        self
    }

    /// True when `qname` falls under a signed apex.
    pub fn is_signed(&self, qname: &Name) -> bool {
        self.is_signed_wire(qname.as_wire_name())
    }

    fn is_signed_wire(&self, qname: WireName<'_>) -> bool {
        self.signed.iter().any(|apex| qname.is_subdomain_of(apex))
    }

    /// Builds the standard world the reproduction's scenarios share:
    /// `example.com`, the whoami reflector, Google's myaddr reflector, an
    /// `opendns.com` zone whose `debug` name does not exist (only the
    /// OpenDNS resolver itself synthesizes it), and the experimenters' probe
    /// domain.
    pub fn standard_world() -> ZoneDb {
        let mut db = ZoneDb::new();
        let mut example = StaticZone::new();
        example
            .add_a("example.com", 3600, Ipv4Addr::new(93, 184, 216, 34))
            .add_aaaa("example.com", 3600, "2606:2800:220:1:248:1893:25c8:1946".parse().unwrap())
            .add_a("www.example.com", 3600, Ipv4Addr::new(93, 184, 216, 34));
        db.mount("example.com".parse().unwrap(), Arc::new(example));
        db.sign("example.com".parse().unwrap());

        db.mount(
            "whoami.akamai.com".parse().unwrap(),
            Arc::new(ReflectorZone::new(
                "whoami.akamai.com".parse().unwrap(),
                ReflectKind::Address,
            )),
        );
        db.mount(
            "o-o.myaddr.l.google.com".parse().unwrap(),
            Arc::new(ReflectorZone::new(
                "o-o.myaddr.l.google.com".parse().unwrap(),
                ReflectKind::Text,
            )),
        );
        // opendns.com exists, but debug.opendns.com is only synthesized by
        // the OpenDNS resolver itself; through any other path it is NXDOMAIN.
        let mut opendns = StaticZone::new();
        opendns.add_a("opendns.com", 3600, Ipv4Addr::new(146, 112, 62, 105));
        db.mount("opendns.com".parse().unwrap(), Arc::new(opendns));

        // The experimenters' own domain (bogon-query target and the Liu et
        // al. reflector).
        let mut probe = StaticZone::new();
        probe.add_a("probe.dns-hijack-study.example", 60, Ipv4Addr::new(93, 184, 216, 40));
        probe.add_aaaa(
            "probe.dns-hijack-study.example",
            60,
            "2606:2800:220::40".parse().unwrap(),
        );
        db.mount("probe.dns-hijack-study.example".parse().unwrap(), Arc::new(probe));
        db.mount(
            "reflect.dns-hijack-study.example".parse().unwrap(),
            Arc::new(ReflectorZone::new(
                "reflect.dns-hijack-study.example".parse().unwrap(),
                ReflectKind::Text,
            )),
        );
        db
    }

    fn find_zone(&self, qname: WireName<'_>) -> Option<&Arc<dyn Zone>> {
        self.zones
            .iter()
            .filter(|(apex, _)| qname.is_subdomain_of(apex))
            .max_by_key(|(apex, _)| apex.label_count())
            .map(|(_, z)| z)
    }

    /// Recursively resolves `q` into owned records: a thin wrapper over
    /// [`ZoneDb::resolve_into`].
    pub fn resolve(&self, q: &Question, ctx: &ResolveCtx) -> ResolveResult {
        let mut answers = Vec::new();
        let Resolution { rcode, authenticated } =
            self.resolve_into(q.qname.as_wire_name(), q.qtype, ctx, &mut answers);
        ResolveResult { rcode, answers, authenticated }
    }

    /// Recursively resolves `qname`/`qtype`, chasing up to four CNAME links
    /// and handing every answer record to `out` in order. A chain that
    /// needs more lookups than that is SERVFAIL, its answers discarded.
    pub fn resolve_into(
        &self,
        qname: WireName<'_>,
        qtype: RType,
        ctx: &ResolveCtx,
        out: &mut dyn AnswerSink,
    ) -> Resolution {
        let mut sink = ChaseSink { out, qtype, answers: 0, cname: None };
        // The CNAME target currently being resolved (none: `qname` itself).
        let mut target: Option<Name> = None;
        let mut authenticated = self.is_signed_wire(qname);
        for _ in 0..4 {
            let current = target.as_ref().map_or(qname, Name::as_wire_name);
            authenticated = authenticated && self.is_signed_wire(current);
            let Some(zone) = self.find_zone(current) else {
                return Resolution { rcode: Rcode::NxDomain, authenticated };
            };
            sink.cname = None;
            match zone.lookup_into(current, qtype, ctx, &mut sink) {
                Lookup::Records => match sink.cname.take() {
                    Some(next) => target = Some(next),
                    None => return Resolution { rcode: Rcode::NoError, authenticated },
                },
                Lookup::NxDomain => {
                    let rcode = if sink.answers == 0 { Rcode::NxDomain } else { Rcode::NoError };
                    return Resolution { rcode, authenticated };
                }
                Lookup::NoData => return Resolution { rcode: Rcode::NoError, authenticated },
            }
        }
        sink.out.discard();
        Resolution { rcode: Rcode::ServFail, authenticated: false }
    }
}

/// Forwards a resolution's records to the caller's sink, noting the first
/// CNAME target of each lookup so the chain can be chased.
struct ChaseSink<'o> {
    out: &'o mut dyn AnswerSink,
    qtype: RType,
    answers: usize,
    cname: Option<Name>,
}

impl AnswerSink for ChaseSink<'_> {
    fn record(&mut self, record: &Record) {
        if let (None, RData::Cname(t)) = (&self.cname, &record.rdata) {
            if self.qtype != RType::Cname {
                self.cname = Some(t.clone());
            }
        }
        self.answers += 1;
        self.out.record(record);
    }

    fn synthesized(&mut self, owner: WireName<'_>, ttl: u32, data: AnswerData<'_>) {
        self.answers += 1;
        self.out.synthesized(owner, ttl, data);
    }

    fn discard(&mut self) {
        self.answers = 0;
        self.out.discard();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(name: &str, qtype: RType) -> Question {
        Question::new(name.parse().unwrap(), qtype)
    }

    fn ctx() -> ResolveCtx {
        ResolveCtx::v4("75.75.75.10".parse().unwrap())
    }

    #[test]
    fn static_zone_basic_lookup() {
        let db = ZoneDb::standard_world();
        let r = db.resolve(&q("example.com", RType::A), &ctx());
        assert_eq!(r.rcode, Rcode::NoError);
        assert_eq!(r.answers.len(), 1);
        assert_eq!(r.answers[0].rdata, RData::A("93.184.216.34".parse().unwrap()));
    }

    #[test]
    fn nxdomain_for_unknown_names() {
        let db = ZoneDb::standard_world();
        assert_eq!(db.resolve(&q("nope.example.com", RType::A), &ctx()).rcode, Rcode::NxDomain);
        assert_eq!(db.resolve(&q("unknown.tld", RType::A), &ctx()).rcode, Rcode::NxDomain);
    }

    #[test]
    fn nodata_for_known_name_wrong_type() {
        let db = ZoneDb::standard_world();
        let r = db.resolve(&q("www.example.com", RType::Aaaa), &ctx());
        assert_eq!(r.rcode, Rcode::NoError);
        assert!(r.answers.is_empty());
    }

    #[test]
    fn whoami_reflects_egress_a() {
        let db = ZoneDb::standard_world();
        let r = db.resolve(&q("whoami.akamai.com", RType::A), &ctx());
        assert_eq!(r.answers[0].rdata, RData::A("75.75.75.10".parse().unwrap()));
    }

    #[test]
    fn whoami_reflects_v6_egress_for_aaaa() {
        let db = ZoneDb::standard_world();
        let ctx = ResolveCtx {
            egress_v4: None,
            egress_v6: Some("2001:558::10".parse().unwrap()),
        };
        let r = db.resolve(&q("whoami.akamai.com", RType::Aaaa), &ctx);
        assert_eq!(r.answers[0].rdata, RData::Aaaa("2001:558::10".parse().unwrap()));
        // No v4 egress: A query yields NoData.
        let r = db.resolve(&q("whoami.akamai.com", RType::A), &ctx);
        assert_eq!(r.rcode, Rcode::NoError);
        assert!(r.answers.is_empty());
    }

    #[test]
    fn google_myaddr_reflects_as_txt() {
        let db = ZoneDb::standard_world();
        let r = db.resolve(&q("o-o.myaddr.l.google.com", RType::Txt), &ctx());
        assert_eq!(r.answers[0].rdata.txt_string().unwrap(), "75.75.75.10");
    }

    #[test]
    fn debug_opendns_is_nxdomain_through_other_resolvers() {
        let db = ZoneDb::standard_world();
        assert_eq!(db.resolve(&q("debug.opendns.com", RType::Txt), &ctx()).rcode, Rcode::NxDomain);
    }

    #[test]
    fn cname_chain_is_chased() {
        let mut db = ZoneDb::new();
        let mut z = StaticZone::new();
        z.add_cname("alias.test.zone", 60, "target.test.zone");
        z.add_a("target.test.zone", 60, "10.9.8.7".parse().unwrap());
        db.mount("test.zone".parse().unwrap(), Arc::new(z));
        let r = db.resolve(&q("alias.test.zone", RType::A), &ctx());
        assert_eq!(r.rcode, Rcode::NoError);
        assert_eq!(r.answers.len(), 2);
        assert!(matches!(r.answers[0].rdata, RData::Cname(_)));
        assert!(matches!(r.answers[1].rdata, RData::A(_)));
    }

    #[test]
    fn cname_loop_yields_servfail() {
        let mut db = ZoneDb::new();
        let mut z = StaticZone::new();
        z.add_cname("a.test.zone", 60, "b.test.zone");
        z.add_cname("b.test.zone", 60, "a.test.zone");
        db.mount("test.zone".parse().unwrap(), Arc::new(z));
        let r = db.resolve(&q("a.test.zone", RType::A), &ctx());
        assert_eq!(r.rcode, Rcode::ServFail);
    }

    #[test]
    fn longest_apex_wins() {
        let mut db = ZoneDb::new();
        let mut outer = StaticZone::new();
        outer.add_a("x.example.org", 60, "1.1.1.2".parse().unwrap());
        let mut inner = StaticZone::new();
        inner.add_a("x.sub.example.org", 60, "2.2.2.2".parse().unwrap());
        db.mount("example.org".parse().unwrap(), Arc::new(outer));
        db.mount("sub.example.org".parse().unwrap(), Arc::new(inner));
        let r = db.resolve(&q("x.sub.example.org", RType::A), &ctx());
        assert_eq!(r.answers[0].rdata, RData::A("2.2.2.2".parse().unwrap()));
        // And a name only in the outer zone still resolves.
        let r = db.resolve(&q("x.example.org", RType::A), &ctx());
        assert_eq!(r.answers[0].rdata, RData::A("1.1.1.2".parse().unwrap()));
    }

    #[test]
    fn reflector_nodata_for_wrong_types() {
        let db = ZoneDb::standard_world();
        let r = db.resolve(&q("whoami.akamai.com", RType::Txt), &ctx());
        assert_eq!(r.rcode, Rcode::NoError);
        assert!(r.answers.is_empty());
    }
}
