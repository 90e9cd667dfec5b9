//! A full iterative resolver as a packet-level device: walks the
//! delegation tree from root hints, follows referrals with glue, chases
//! CNAMEs, caches, retries across servers, and answers clients — the real
//! recursive-resolution machinery, not a zone-database shortcut.
//!
//! The scenario builder uses the instant [`crate::RecursiveResolver`] for
//! fleet-scale speed; this device exists so the reproduction's resolver
//! substrate is complete (and so tests can confirm the reflector semantics
//! hold on the true packet path).

use crate::cache::DnsCache;
use crate::server::{addr_list, handle_server_id, send_reply};
use crate::software::SoftwareProfile;
use crate::zone::ResolveResult;
use dns_wire::{EncodeScratch, Message, Name, Question, RClass, RData, RType, Rcode, Record};
use netsim::{Ctx, Device, IfaceId, IpPacket, SimDuration};
use std::any::Any;
use std::collections::HashMap;
use std::net::IpAddr;

/// Source port for upstream queries.
const UPSTREAM_SPORT: u16 = 53210;
/// Maximum referrals followed for one question.
const MAX_REFERRALS: u8 = 12;
/// Maximum CNAME links chased.
const MAX_CNAME: u8 = 6;
/// Per-upstream-query timeout before trying the next server.
const UPSTREAM_TIMEOUT: SimDuration = SimDuration::from_millis(1_500);
/// How many servers are tried before giving up.
const MAX_ATTEMPTS: u8 = 6;

/// Who asked us, so we can answer them.
#[derive(Debug, Clone)]
struct ClientInfo {
    iface: IfaceId,
    src: IpAddr,
    sport: u16,
    /// The address the client queried (our service address) — the reply's
    /// source.
    queried: IpAddr,
    txid: u16,
}

/// One in-flight resolution.
#[derive(Debug)]
struct Iteration {
    client: ClientInfo,
    /// The question as originally asked.
    original: Question,
    /// The question currently being resolved (changes on CNAME chase).
    current: Question,
    /// CNAME records accumulated along the chase.
    chain: Vec<Record>,
    /// Candidate servers for the current zone cut.
    servers: Vec<IpAddr>,
    next_server: usize,
    referrals: u8,
    cnames: u8,
    attempts: u8,
    /// Monotonic send counter; timer tokens embed it so stale timers are
    /// ignored.
    sends: u32,
}

/// The iterative resolver device.
pub struct IterativeResolver {
    name: String,
    service_addrs: Vec<IpAddr>,
    /// Source address for upstream queries (must route back to us).
    egress: IpAddr,
    root_hints: Vec<IpAddr>,
    /// Software identity for CHAOS queries.
    pub profile: SoftwareProfile,
    cache: DnsCache,
    pending: HashMap<u16, Iteration>,
    next_txid: u16,
    /// Total client queries handled.
    pub queries_handled: u64,
    /// Total upstream queries sent.
    pub upstream_queries: u64,
    /// Resolutions that ended in SERVFAIL.
    pub servfails: u64,
    scratch: EncodeScratch,
}

impl IterativeResolver {
    /// Creates the resolver.
    pub fn new(
        name: impl Into<String>,
        service_addrs: impl IntoIterator<Item = IpAddr>,
        egress: IpAddr,
        root_hints: Vec<IpAddr>,
        profile: SoftwareProfile,
    ) -> IterativeResolver {
        IterativeResolver {
            name: name.into(),
            service_addrs: addr_list(service_addrs),
            egress,
            root_hints,
            profile,
            cache: DnsCache::new(4096),
            pending: HashMap::new(),
            next_txid: 0x7000,
            queries_handled: 0,
            upstream_queries: 0,
            servfails: 0,
            scratch: EncodeScratch::new(),
        }
    }

    /// Boxed convenience constructor.
    pub fn boxed(
        name: impl Into<String>,
        service_addrs: impl IntoIterator<Item = IpAddr>,
        egress: IpAddr,
        root_hints: Vec<IpAddr>,
        profile: SoftwareProfile,
    ) -> Box<IterativeResolver> {
        Box::new(Self::new(name, service_addrs, egress, root_hints, profile))
    }

    /// Cache statistics (hits, misses).
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits, self.cache.misses)
    }

    fn alloc_txid(&mut self) -> u16 {
        for _ in 0..=u16::MAX {
            let candidate = self.next_txid;
            self.next_txid = self.next_txid.wrapping_add(1);
            if !self.pending.contains_key(&candidate) {
                return candidate;
            }
        }
        self.next_txid
    }

    fn respond_client(&mut self, ctx: &mut Ctx<'_>, client: &ClientInfo, mut resp: Message) {
        resp.header.id = client.txid;
        resp.header.qr = true;
        resp.header.ra = true;
        let Ok(wire) = resp.encode_into(&mut self.scratch) else { return };
        let payload = ctx.alloc_payload(wire);
        if let Some(pkt) =
            IpPacket::udp(client.queried, client.src, 53, client.sport, payload)
        {
            ctx.send(client.iface, pkt);
        }
    }

    fn respond_result(
        &mut self,
        ctx: &mut Ctx<'_>,
        client: &ClientInfo,
        original: &Question,
        result: &ResolveResult,
    ) {
        let query = Message::query(client.txid, original.clone());
        let mut resp = Message::response_to(&query, result.rcode);
        resp.answers = result.answers.clone();
        self.respond_client(ctx, client, resp);
    }

    fn send_upstream(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, txid: u16) {
        let Some(iter) = self.pending.get_mut(&txid) else { return };
        let Some(&server) = iter.servers.get(iter.next_server % iter.servers.len().max(1))
        else {
            return;
        };
        iter.attempts += 1;
        iter.sends += 1;
        let sends = iter.sends;
        let question = iter.current.clone();
        let msg = Message::query(txid, question);
        let Ok(wire) = msg.encode_into(&mut self.scratch) else { return };
        let payload = ctx.alloc_payload(wire);
        if let Some(pkt) = IpPacket::udp(self.egress, server, UPSTREAM_SPORT, 53, payload) {
            self.upstream_queries += 1;
            ctx.send(iface, pkt);
            // Timer token: txid in the high bits, send counter low.
            ctx.set_timer(UPSTREAM_TIMEOUT, ((txid as u64) << 32) | sends as u64);
        }
    }

    fn fail(&mut self, ctx: &mut Ctx<'_>, txid: u16, rcode: Rcode) {
        if let Some(iter) = self.pending.remove(&txid) {
            self.servfails += u64::from(rcode == Rcode::ServFail);
            let query = Message::query(iter.client.txid, iter.original.clone());
            let resp = Message::response_to(&query, rcode);
            self.respond_client(ctx, &iter.client, resp);
        }
    }

    fn handle_client_query(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: &IpPacket) {
        let udp = packet.udp_payload().expect("caller checked");
        let Ok(query) = Message::parse(&udp.payload) else { return };
        if query.header.qr {
            return;
        }
        let Some(q) = query.question().cloned() else { return };
        self.queries_handled += 1;

        // CHAOS identity queries are answered locally.
        if let Some(maybe) = handle_server_id(&query, &self.profile) {
            if let Some(resp) = maybe {
                send_reply(ctx, iface, packet, &resp, &mut self.scratch);
            }
            return;
        }
        if q.qclass != RClass::In {
            let resp = Message::response_to(&query, Rcode::NotImp);
            send_reply(ctx, iface, packet, &resp, &mut self.scratch);
            return;
        }

        let client = ClientInfo {
            iface,
            src: packet.src(),
            sport: udp.src_port,
            queried: packet.dst(),
            txid: query.header.id,
        };

        // Cache.
        if let Some(result) = self.cache.get(&q, ctx.now()) {
            self.respond_result(ctx, &client, &q, &result);
            return;
        }

        let txid = self.alloc_txid();
        self.pending.insert(
            txid,
            Iteration {
                client,
                original: q.clone(),
                current: q,
                chain: Vec::new(),
                servers: self.root_hints.clone(),
                next_server: 0,
                referrals: 0,
                cnames: 0,
                attempts: 0,
                sends: 0,
            },
        );
        self.send_upstream(ctx, iface, txid);
    }

    fn handle_upstream_response(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: &IpPacket) {
        let udp = packet.udp_payload().expect("caller checked");
        let Ok(resp) = Message::parse(&udp.payload) else { return };
        if !resp.header.qr {
            return;
        }
        let txid = resp.header.id;
        let Some(iter) = self.pending.get_mut(&txid) else { return };
        // Bailiwick-lite: the response must come from the server we asked.
        let asked = iter.servers.get(iter.next_server % iter.servers.len().max(1)).copied();
        if asked != Some(packet.src()) {
            return;
        }

        match resp.header.rcode {
            Rcode::NoError => {}
            Rcode::NxDomain => {
                let iter = self.pending.remove(&txid).expect("present above");
                let mut answers = iter.chain.clone();
                let rcode = if answers.is_empty() { Rcode::NxDomain } else { Rcode::NoError };
                answers.extend(resp.answers);
                let result = ResolveResult { rcode, answers, authenticated: false };
                self.cache.put(&iter.original, result.clone(), ctx.now());
                self.respond_result(ctx, &iter.client, &iter.original, &result);
                return;
            }
            _ => {
                // REFUSED/SERVFAIL from a server: try the next one.
                iter.next_server += 1;
                if iter.attempts >= MAX_ATTEMPTS {
                    self.fail(ctx, txid, Rcode::ServFail);
                } else {
                    self.send_upstream(ctx, iface, txid);
                }
                return;
            }
        }

        if !resp.answers.is_empty() {
            // CNAME chase?
            let target = resp.answers.iter().find_map(|r| match &r.rdata {
                RData::Cname(t) if iter.current.qtype != RType::Cname => Some(t.clone()),
                _ => None,
            });
            let has_final = resp.answers.iter().any(|r| {
                r.rdata.rtype() == iter.current.qtype && r.name == final_owner(&resp, &iter.current)
            });
            if let (Some(target), false) = (target, has_final) {
                if iter.cnames >= MAX_CNAME {
                    self.fail(ctx, txid, Rcode::ServFail);
                    return;
                }
                iter.cnames += 1;
                iter.chain.extend(resp.answers.clone());
                iter.current = Question { qname: target, ..iter.current.clone() };
                iter.servers = self.root_hints.clone();
                iter.next_server = 0;
                iter.referrals = 0;
                self.send_upstream(ctx, iface, txid);
                return;
            }
            // Final answer.
            let iter = self.pending.remove(&txid).expect("present above");
            let mut answers = iter.chain.clone();
            answers.extend(resp.answers);
            let result =
                ResolveResult { rcode: Rcode::NoError, answers, authenticated: false };
            self.cache.put(&iter.original, result.clone(), ctx.now());
            self.respond_result(ctx, &iter.client, &iter.original, &result);
            return;
        }

        // Referral?
        let ns_names: Vec<Name> = resp
            .authority
            .iter()
            .filter_map(|r| match &r.rdata {
                RData::Ns(n) => Some(n.clone()),
                _ => None,
            })
            .collect();
        if !ns_names.is_empty() {
            let glue: Vec<IpAddr> = resp
                .additional
                .iter()
                .filter(|r| ns_names.contains(&r.name))
                .filter_map(|r| match r.rdata {
                    RData::A(a) => Some(IpAddr::V4(a)),
                    RData::Aaaa(a) => Some(IpAddr::V6(a)),
                    _ => None,
                })
                .collect();
            if glue.is_empty() || iter.referrals >= MAX_REFERRALS {
                self.fail(ctx, txid, Rcode::ServFail);
                return;
            }
            iter.referrals += 1;
            iter.servers = glue;
            iter.next_server = 0;
            self.send_upstream(ctx, iface, txid);
            return;
        }

        // NoData.
        let iter = self.pending.remove(&txid).expect("present above");
        let mut answers = iter.chain.clone();
        answers.extend(resp.answers);
        let result = ResolveResult { rcode: Rcode::NoError, answers, authenticated: false };
        self.cache.put(&iter.original, result.clone(), ctx.now());
        self.respond_result(ctx, &iter.client, &iter.original, &result);
    }
}

/// Owner name the final answer should carry: the last CNAME target seen in
/// this response, or the question name.
fn final_owner(resp: &Message, current: &Question) -> Name {
    resp.answers
        .iter()
        .rev()
        .find_map(|r| match &r.rdata {
            RData::Cname(t) => Some(t.clone()),
            _ => None,
        })
        .unwrap_or_else(|| current.qname.clone())
}

impl Device for IterativeResolver {
    fn receive(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: IpPacket) {
        let Some(udp) = packet.udp_payload() else { return };
        // Upstream responses: addressed to our egress on the upstream port.
        if packet.dst() == self.egress && udp.dst_port == UPSTREAM_SPORT {
            self.handle_upstream_response(ctx, iface, &packet);
            return;
        }
        // Client queries on any service address.
        if udp.dst_port == 53 && self.service_addrs.contains(&packet.dst()) {
            self.handle_client_query(ctx, iface, &packet);
        }
    }

    fn timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let txid = (token >> 32) as u16;
        let sends = (token & 0xFFFF_FFFF) as u32;
        let retry = match self.pending.get_mut(&txid) {
            // Only the latest send's timer counts; a response or a newer
            // send invalidates older timers.
            Some(iter) if iter.sends == sends => {
                iter.next_server += 1;
                iter.attempts < MAX_ATTEMPTS
            }
            _ => return,
        };
        if retry {
            self.send_upstream(ctx, IfaceId(0), txid);
        } else {
            self.fail(ctx, txid, Rcode::ServFail);
        }
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
