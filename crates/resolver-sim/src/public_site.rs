//! Anycast sites of the four public resolvers, with the location-query
//! semantics of paper Table 1.

use crate::server::{addr_list, reply_packet};
use crate::zone::{ResolveCtx, ZoneDb};
use dns_wire::debug_queries::{self, ServerIdKind};
use dns_wire::{
    AnswerData, EncodeScratch, MessageView, QuestionView, RClass, RType, Rcode, ReplyWriter,
    MAX_NAME_LEN,
};
use netsim::{Ctx, Device, IfaceId, IpPacket};
use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::net::IpAddr;
use std::sync::Arc;

thread_local! {
    /// Reply scratch shared by every site on this thread. Worlds are
    /// rebuilt for each probe, so a per-site buffer would be allocated anew
    /// in every world; a per-thread one is warm from the second reply on.
    static REPLY_SCRATCH: Cell<EncodeScratch> = Cell::new(EncodeScratch::new());
}

/// Which public resolver a site belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PublicBrand {
    /// Cloudflare DNS.
    Cloudflare,
    /// Google Public DNS.
    Google,
    /// Quad9.
    Quad9,
    /// Cisco OpenDNS.
    OpenDns,
}

impl PublicBrand {
    /// All four, in the paper's table order.
    pub const ALL: [PublicBrand; 4] =
        [PublicBrand::Cloudflare, PublicBrand::Google, PublicBrand::Quad9, PublicBrand::OpenDns];
}

/// One anycast site (point of presence) of one public resolver.
///
/// Which site a client reaches is decided by the scenario's routing — in
/// the real world by BGP anycast, here by which site device the topology
/// wires toward the client's region.
pub struct PublicResolverSite {
    name: String,
    brand: PublicBrand,
    service_addrs: Vec<IpAddr>,
    /// IATA code of the site ("IAD", "SFO", "AMS", …).
    iata: String,
    /// Node number within the site, for Quad9/OpenDNS identity strings.
    node_index: u32,
    egress: ResolveCtx,
    zonedb: Arc<ZoneDb>,
    /// Whether this resolver validates DNSSEC (AD bit on signed answers).
    pub dnssec_validating: bool,
    /// Total queries handled.
    pub queries_handled: u64,
}

impl PublicResolverSite {
    /// Creates a site.
    pub fn new(
        brand: PublicBrand,
        service_addrs: impl IntoIterator<Item = IpAddr>,
        iata: &str,
        node_index: u32,
        egress: ResolveCtx,
        zonedb: Arc<ZoneDb>,
    ) -> PublicResolverSite {
        PublicResolverSite {
            name: format!("{brand:?}-{iata}"),
            brand,
            service_addrs: addr_list(service_addrs),
            iata: iata.to_ascii_uppercase(),
            node_index,
            egress,
            zonedb,
            // Cloudflare, Google, and Quad9 validate; classic OpenDNS does
            // not.
            dnssec_validating: brand != PublicBrand::OpenDns,
            queries_handled: 0,
        }
    }

    /// Boxed convenience constructor.
    pub fn boxed(
        brand: PublicBrand,
        service_addrs: impl IntoIterator<Item = IpAddr>,
        iata: &str,
        node_index: u32,
        egress: ResolveCtx,
        zonedb: Arc<ZoneDb>,
    ) -> Box<PublicResolverSite> {
        Box::new(Self::new(brand, service_addrs, iata, node_index, egress, zonedb))
    }

    /// The brand of this site.
    pub fn brand(&self) -> PublicBrand {
        self.brand
    }

    /// Writes the answer to `q`, the query's first question, straight into
    /// the reply: the location-query semantics of paper Table 1.
    fn answer(&self, reply: &mut ReplyWriter<'_>, q: &QuestionView<'_>) {
        let mut buf = [0u8; MAX_NAME_LEN];
        let qname = q.qname.to_wire_name(&mut buf);
        let iata = Lower(&self.iata);
        let node = self.node_index;
        if let Some(kind) = debug_queries::server_id_kind_view(q) {
            let text = match (kind, self.brand) {
                // Only Quad9 answers version.bind (§3.2).
                (ServerIdKind::Version, PublicBrand::Quad9) => format_args!("Q9-P-6.1-{iata}"),
                // Cloudflare answers id.server with the IATA code, Quad9
                // with its PCH node name.
                (ServerIdKind::Identity, PublicBrand::Cloudflare) => format_args!("{}", self.iata),
                (ServerIdKind::Identity, PublicBrand::Quad9) => {
                    format_args!("res{node}.{iata}.rrdns.pch.net")
                }
                // Google and OpenDNS implement neither name.
                _ => return reply.set_rcode(Rcode::NotImp),
            };
            reply.answer(qname, RClass::Chaos, 0, AnswerData::Txt(text));
        } else if q.qclass != RClass::In {
            reply.set_rcode(Rcode::NotImp);
        } else if self.brand == PublicBrand::OpenDns
            && q.qtype == RType::Txt
            && q.qname.eq_name(&debug_queries::opendns_debug())
        {
            // OpenDNS synthesizes debug.opendns.com at the resolver itself.
            let server = format_args!("server m{node}.{iata}");
            reply.answer(qname, RClass::In, 0, AnswerData::Txt(server));
            reply.answer(qname, RClass::In, 0, AnswerData::Txt(format_args!("flags: 20 0 2F8 0")));
        } else {
            let result = self.zonedb.resolve_into(qname, q.qtype, &self.egress, reply);
            reply.set_rcode(result.rcode);
            reply.set_ad(self.dnssec_validating && result.authenticated);
        }
    }
}

/// Displays a string in ASCII lowercase without allocating a copy.
struct Lower<'a>(&'a str);

impl fmt::Display for Lower<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.chars().try_for_each(|c| fmt::Write::write_char(f, c.to_ascii_lowercase()))
    }
}

impl Device for PublicResolverSite {
    fn receive(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: IpPacket) {
        let Some(udp) = packet.udp_payload() else { return };
        if udp.dst_port != 53 || !self.service_addrs.contains(&packet.dst()) {
            return;
        }
        let Ok(query) = MessageView::parse(&udp.payload) else { return };
        if query.header().qr {
            return;
        }
        let Some(q) = query.question() else { return };
        self.queries_handled += 1;

        let mut scratch = REPLY_SCRATCH.take();
        let mut reply = ReplyWriter::new(&mut scratch, &query, Rcode::NoError);
        self.answer(&mut reply, &q);
        if let Ok(wire) = reply.finish() {
            let payload = ctx.alloc_payload(wire);
            if let Some(reply) = reply_packet(&packet, payload) {
                ctx.send(iface, reply);
            }
        }
        REPLY_SCRATCH.set(scratch);
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dns_wire::{Message, Question, RData};
    use netsim::{Host, SimDuration, Simulator};

    fn site(brand: PublicBrand, addr: &str, egress: &str) -> Box<PublicResolverSite> {
        PublicResolverSite::boxed(
            brand,
            [addr.parse::<IpAddr>().unwrap()],
            "IAD",
            84,
            ResolveCtx::v4(egress.parse().unwrap()),
            Arc::new(ZoneDb::standard_world()),
        )
    }

    fn ask(
        brand: PublicBrand,
        addr: &str,
        egress: &str,
        question: Question,
    ) -> Message {
        let mut sim = Simulator::new(1);
        let client = sim.add_device(Host::boxed("c", ["73.1.1.1".parse::<IpAddr>().unwrap()]));
        let s = sim.add_device(site(brand, addr, egress));
        sim.connect((client, IfaceId(0)), (s, IfaceId(0)), SimDuration::from_millis(1));
        let msg = Message::query(1, question);
        let pkt = IpPacket::udp_v4(
            "73.1.1.1".parse().unwrap(),
            addr.parse().unwrap(),
            4000,
            53,
            Bytes::from(msg.encode().unwrap()),
        );
        sim.inject(client, IfaceId(0), pkt);
        sim.run_to_quiescence();
        let deliveries = sim.device_mut::<Host>(client).unwrap().drain_inbox();
        assert_eq!(deliveries.len(), 1);
        Message::parse(&deliveries[0].packet.udp_payload().unwrap().payload).unwrap()
    }

    #[test]
    fn cloudflare_id_server_returns_iata() {
        let resp = ask(
            PublicBrand::Cloudflare,
            "1.1.1.1",
            "172.68.1.1",
            Question::chaos_txt(debug_queries::id_server()),
        );
        assert_eq!(resp.answers[0].rdata.txt_string().unwrap(), "IAD");
    }

    #[test]
    fn quad9_id_server_returns_pch_node() {
        let resp = ask(
            PublicBrand::Quad9,
            "9.9.9.9",
            "74.63.16.10",
            Question::chaos_txt(debug_queries::id_server()),
        );
        assert_eq!(resp.answers[0].rdata.txt_string().unwrap(), "res84.iad.rrdns.pch.net");
    }

    #[test]
    fn google_myaddr_returns_google_egress() {
        let resp = ask(
            PublicBrand::Google,
            "8.8.8.8",
            "172.253.226.35",
            Question::new(debug_queries::google_myaddr(), RType::Txt),
        );
        assert_eq!(resp.answers[0].rdata.txt_string().unwrap(), "172.253.226.35");
    }

    #[test]
    fn opendns_debug_returns_server_string() {
        let resp = ask(
            PublicBrand::OpenDns,
            "208.67.222.222",
            "146.112.1.1",
            Question::new(debug_queries::opendns_debug(), RType::Txt),
        );
        assert_eq!(resp.answers[0].rdata.txt_string().unwrap(), "server m84.iad");
        assert_eq!(resp.answers.len(), 2);
    }

    #[test]
    fn only_quad9_answers_version_bind() {
        for (brand, addr, egress) in [
            (PublicBrand::Cloudflare, "1.1.1.1", "172.68.1.1"),
            (PublicBrand::Google, "8.8.8.8", "172.253.226.35"),
            (PublicBrand::OpenDns, "208.67.222.222", "146.112.1.1"),
        ] {
            let resp = ask(brand, addr, egress, Question::chaos_txt(debug_queries::version_bind()));
            assert_eq!(resp.header.rcode, Rcode::NotImp, "{brand:?}");
        }
        let resp = ask(
            PublicBrand::Quad9,
            "9.9.9.9",
            "74.63.16.10",
            Question::chaos_txt(debug_queries::version_bind()),
        );
        assert!(resp.answers[0].rdata.txt_string().unwrap().starts_with("Q9-"));
    }

    #[test]
    fn whoami_through_google_shows_google_egress() {
        let resp = ask(
            PublicBrand::Google,
            "8.8.8.8",
            "172.253.226.35",
            Question::new(debug_queries::whoami_akamai(), RType::A),
        );
        assert_eq!(resp.answers[0].rdata, RData::A("172.253.226.35".parse().unwrap()));
    }

    #[test]
    fn repeated_label_names_get_an_answer() {
        // Compressing a name against itself once panicked the responder.
        let resp = ask(
            PublicBrand::Cloudflare,
            "1.1.1.1",
            "172.68.1.1",
            Question::new("com.com".parse().unwrap(), RType::A),
        );
        assert_eq!(resp.header.rcode, Rcode::NxDomain);
    }

    #[test]
    fn validating_sites_set_ad_on_signed_answers() {
        let q = || Question::new("Example.COM".parse().unwrap(), RType::A);
        let resp = ask(PublicBrand::Google, "8.8.8.8", "172.253.226.35", q());
        assert!(resp.header.ad);
        assert_eq!(resp.questions[0].qname.to_string(), "Example.COM.");
        let resp = ask(PublicBrand::OpenDns, "208.67.222.222", "146.112.1.1", q());
        assert!(!resp.header.ad);
        assert_eq!(resp.answers.len(), 1);
    }

    #[test]
    fn ordinary_names_resolve() {
        let resp = ask(
            PublicBrand::Cloudflare,
            "1.1.1.1",
            "172.68.1.1",
            Question::new("example.com".parse().unwrap(), RType::A),
        );
        assert_eq!(resp.answers[0].rdata, RData::A("93.184.216.34".parse().unwrap()));
    }
}
