//! Flow reconstruction: from raw capture events to per-query hop
//! timelines.
//!
//! The flight recorder in `netsim` emits one [`CaptureEvent`] per packet
//! hop; this module groups those events by DNS transaction ID and question
//! into [`QueryFlow`]s, so a probe report's verdict can be expanded down
//! to packet truth — "this response was minted by the CPE's DNAT at hop 2
//! and never reached 8.8.8.8". ICMP errors are attached to the query whose
//! flow tuple they quote, surviving NAT rewrites because every observed
//! tuple variant of a query is matched.
//!
//! Hops are typed (socket addresses, a [`HopAction`], a [`HopDetail`]), so
//! rebuilding and cross-checking them allocates nothing per hop. Text is
//! made only at output: [`render_flows`] and the `Serialize` impls spell
//! every hop exactly as the golden timelines do.

use dns_wire::{MessageView, Name, RType};
use netsim::{
    CaptureEvent, CaptureKind, FlowSummary, HopAction, IcmpMessage, IpPacket, NodeId, SimDuration,
    Simulator, Transport,
};
use serde::{Serialize, Value};
use std::fmt::{self, Write as _};
use std::net::SocketAddr;
use std::sync::Arc;

/// Which way a packet was heading, judged by the DNS QR bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FlowDirection {
    /// A query on its way toward a server.
    Query,
    /// A response on its way back to the client.
    Response,
    /// An ICMP error quoting the query's flow tuple.
    Icmp,
}

/// Extra context of a hop whose action does not speak for itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopDetail {
    /// A NAT rewrite's flow tuples, before and after.
    Nat(FlowSummary, FlowSummary),
    /// Extra delay the late-delivery fault added.
    Delay(SimDuration),
    /// Egress interface index a route decision chose.
    OutIface(usize),
    /// An ICMP time-exceeded error.
    IcmpTimeExceeded,
    /// An ICMP destination-unreachable error with its code.
    IcmpUnreachable(u8),
}

impl fmt::Display for HopDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            HopDetail::Nat(before, after) => {
                let ((src0, dst0), (src1, dst1)) = (ends(before), ends(after));
                if src0 != src1 {
                    write!(f, "src {} -> {}", Endpoint(src0), Endpoint(src1))?;
                }
                if src0 != src1 && dst0 != dst1 {
                    f.write_str(", ")?;
                }
                if dst0 != dst1 {
                    write!(f, "dst {} -> {}", Endpoint(dst0), Endpoint(dst1))?;
                }
                Ok(())
            }
            HopDetail::Delay(extra) => write!(f, "+{extra}"),
            HopDetail::OutIface(iface) => write!(f, "out iface {iface}"),
            HopDetail::IcmpTimeExceeded => f.write_str("icmp time-exceeded"),
            HopDetail::IcmpUnreachable(code) => write!(f, "icmp unreachable(code {code})"),
        }
    }
}

/// `ip:port` for both families: IPv6 without `SocketAddr`'s brackets.
struct Endpoint(SocketAddr);

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.0.ip(), self.0.port())
    }
}

fn ends(fs: FlowSummary) -> (SocketAddr, SocketAddr) {
    (SocketAddr::new(fs.src, fs.src_port), SocketAddr::new(fs.dst, fs.dst_port))
}

fn text(value: impl ToString) -> Value {
    Value::String(value.to_string())
}

/// One hop of one query's flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowHop {
    /// Simulated time in microseconds.
    pub at_us: u64,
    /// Device name at which the hop happened, shared by every hop there.
    pub node: Arc<str>,
    /// Interface index, when the hop concerns one.
    pub iface: Option<usize>,
    /// What happened: egress, ingress, forward, a NAT rewrite, a drop, a
    /// locally minted answer, ...
    pub action: HopAction,
    /// Query or response direction (QR bit), or `icmp`.
    pub direction: FlowDirection,
    /// Source address as seen at this hop.
    pub src: SocketAddr,
    /// Destination address as seen at this hop.
    pub dst: SocketAddr,
    /// Extra context (NAT before/after tuples, delay magnitude, egress
    /// interface of a route decision, ICMP kind). `None` when the action
    /// speaks for itself.
    pub detail: Option<HopDetail>,
}

impl Serialize for FlowHop {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("at_us".into(), self.at_us.to_value()),
            ("node".into(), text(&self.node)),
            ("iface".into(), self.iface.to_value()),
            ("action".into(), text(self.action.label())),
            ("direction".into(), self.direction.to_value()),
            ("src".into(), text(Endpoint(self.src))),
            ("dst".into(), text(Endpoint(self.dst))),
            ("detail".into(), self.detail.map_or(Value::Null, text)),
        ])
    }
}

/// The reconstructed per-hop timeline of one DNS transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryFlow {
    /// DNS transaction ID.
    pub txid: u16,
    /// Question name, from the first parseable message.
    pub qname: Option<Name>,
    /// Question type, from the same message.
    pub qtype: Option<RType>,
    /// Hops in chronological order.
    pub hops: Vec<FlowHop>,
}

impl QueryFlow {
    /// The question as rendered: name and `Debug` type (`Txt`, `Aaaa`),
    /// each empty when no message of the flow parsed.
    fn question_text(&self) -> (String, String) {
        let qname = self.qname.as_ref().map_or_else(String::new, Name::to_string);
        (qname, self.qtype.map_or_else(String::new, |t| format!("{t:?}")))
    }
}

impl Serialize for QueryFlow {
    fn to_value(&self) -> Value {
        let (qname, qtype) = self.question_text();
        Value::Object(vec![
            ("txid".into(), self.txid.to_value()),
            ("qname".into(), Value::String(qname)),
            ("qtype".into(), Value::String(qtype)),
            ("hops".into(), self.hops.to_value()),
        ])
    }
}

/// Transaction ID, QR bit and bytes of a UDP payload long enough to
/// carry a DNS header.
fn dns_message(packet: &IpPacket) -> Option<(u16, bool, &[u8])> {
    let p = &packet.udp_payload()?.payload;
    (p.len() >= 12).then(|| (u16::from_be_bytes([p[0], p[1]]), p[2] & 0x80 != 0, &p[..]))
}

fn hop_of(node: Arc<str>, ev: &CaptureEvent, direction: FlowDirection) -> FlowHop {
    let (src, dst) = ends(ev.kind.packet().flow_summary());
    let detail = match ev.kind {
        CaptureKind::NatRewrite { before, after, .. } => Some(HopDetail::Nat(before, after)),
        CaptureKind::Delayed { extra, .. } => Some(HopDetail::Delay(extra)),
        CaptureKind::RouteForward { out, .. } => Some(HopDetail::OutIface(out.0)),
        _ => None,
    };
    FlowHop {
        at_us: ev.at.as_micros(),
        node,
        iface: ev.iface.map(|i| i.0),
        action: ev.kind.action(),
        direction,
        src,
        dst,
        detail,
    }
}

/// Groups capture events into per-query hop timelines.
///
/// Events must come from `sim`'s own recorder (names are resolved against
/// it) and be in emission order, which the simulator guarantees is
/// chronological. Flows appear in order of their first observed hop.
pub fn reconstruct_flows(sim: &Simulator, events: &[CaptureEvent]) -> Vec<QueryFlow> {
    // A probe's run holds about a dozen transactions: a linear scan over
    // them beats hashing.
    let mut flows: Vec<QueryFlow> = Vec::new();
    // Each device name is resolved once and shared by all its hops.
    let mut names: Vec<Option<Arc<str>>> = Vec::new();
    let mut node = |id: NodeId| -> Arc<str> {
        if names.len() <= id.0 {
            names.resize(id.0 + 1, None);
        }
        names[id.0].get_or_insert_with(|| sim.node_name(id).unwrap_or("?").into()).clone()
    };

    for (i, ev) in events.iter().enumerate() {
        let packet = ev.kind.packet();
        if let Some((txid, is_response, payload)) = dns_message(packet) {
            let at = flows.iter().position(|f| f.txid == txid).unwrap_or_else(|| {
                flows.push(QueryFlow { txid, qname: None, qtype: None, hops: Vec::new() });
                flows.len() - 1
            });
            let flow = &mut flows[at];
            if flow.qname.is_none() {
                if let Some(q) = MessageView::parse(payload).ok().and_then(|v| v.question()) {
                    (flow.qname, flow.qtype) = (Some(q.qname.to_name()), Some(q.qtype));
                }
            }
            let direction =
                if is_response { FlowDirection::Response } else { FlowDirection::Query };
            flow.hops.push(hop_of(node(ev.node), ev, direction));
            continue;
        }
        let (original, detail) = match &packet.transport {
            Transport::Icmp(IcmpMessage::TimeExceeded { original }) => {
                (original, HopDetail::IcmpTimeExceeded)
            }
            Transport::Icmp(IcmpMessage::DestUnreachable { original, code }) => {
                (original, HopDetail::IcmpUnreachable(*code))
            }
            _ => continue,
        };
        // The error belongs to the latest query seen under the tuple it
        // quotes, pre- or post-NAT.
        let quoted = events[..i].iter().rev().find_map(|prior| {
            let p = prior.kind.packet();
            let (txid, response, _) = dns_message(p)?;
            (!response && p.flow_summary() == *original).then_some(txid)
        });
        if let Some(flow) = quoted.and_then(|txid| flows.iter_mut().find(|f| f.txid == txid)) {
            let mut hop = hop_of(node(ev.node), ev, FlowDirection::Icmp);
            hop.detail = Some(detail);
            flow.hops.push(hop);
        }
    }
    flows
}

/// The query's round trip as observed at its origin: microseconds from
/// the first hop (the probe's egress) to the first response-direction
/// ingress back at the same node. `None` when the query was never
/// answered at the origin — a timeout, a drop, or an answer that only
/// reached an intermediate device.
///
/// This is pure virtual-clock arithmetic over the flight recorder's hop
/// timeline, so per-class RTT distributions built from it are bitwise
/// reproducible — the paper's "local answers come back fast" signature
/// measured against ground truth.
pub fn flow_rtt_us(flow: &QueryFlow) -> Option<u64> {
    let first = flow.hops.first()?;
    let back = flow.hops.iter().find(|h| {
        h.direction == FlowDirection::Response
            && h.node == first.node
            && h.action == HopAction::Ingress
    })?;
    Some(back.at_us.saturating_sub(first.at_us))
}

/// Renders flows as a human-readable hop timeline (the `--capture` view).
pub fn render_flows(flows: &[QueryFlow]) -> String {
    let mut out = String::new();
    for flow in flows {
        let (qname, qtype) = flow.question_text();
        let _ = writeln!(
            out,
            "txid 0x{:04x}  {} {}  ({} hops)",
            flow.txid,
            qname,
            qtype,
            flow.hops.len()
        );
        for hop in &flow.hops {
            let iface = hop.iface.map(|i| format!("if{i}")).unwrap_or_else(|| "-".into());
            let us = hop.at_us;
            let _ = write!(
                out,
                "  {:>7}.{:03}ms  {:<14} {:<22} {:>3}  {} -> {}",
                us / 1_000,
                us % 1_000,
                hop.node,
                hop.action.label(),
                iface,
                Endpoint(hop.src),
                Endpoint(hop.dst)
            );
            if let Some(detail) = &hop.detail {
                let _ = write!(out, "  [{detail}]");
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// Serializes flows as pretty-printed JSON (the pcap-style export).
pub fn flows_to_json(flows: &[QueryFlow]) -> String {
    let mut json = serde_json::to_string_pretty(flows).expect("flows serialize");
    json.push('\n');
    json
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::HomeScenario;
    use crate::transport::SimTransport;
    use dns_wire::Question;
    use locator::{QueryOptions, QueryTransport};
    use netsim::NatPhase;
    use std::net::IpAddr;

    #[test]
    fn clean_query_flow_reaches_the_resolver_and_comes_back() {
        let mut t = SimTransport::new(HomeScenario::clean().build());
        t.enable_capture();
        let q = Question::new("example.com".parse().unwrap(), RType::A);
        let out = t.query("8.8.8.8".parse().unwrap(), &q, 0x2a2a, QueryOptions::default());
        assert!(out.response().is_some());
        let flows = t.take_flows();
        assert_eq!(flows.len(), 1);
        let flow = &flows[0];
        assert_eq!(flow.txid, 0x2a2a);
        assert_eq!(flow.qname, Some("example.com".parse().unwrap()));
        assert_eq!(flow.qtype, Some(RType::A));
        // The query leaves the probe, the response comes back to it.
        assert_eq!(&*flow.hops.first().unwrap().node, "probe");
        assert_eq!(flow.hops.first().unwrap().action, HopAction::Egress);
        assert_eq!(flow.hops.first().unwrap().direction, FlowDirection::Query);
        let last = flow.hops.last().unwrap();
        assert_eq!(&*last.node, "probe");
        assert_eq!(last.action, HopAction::Ingress);
        assert_eq!(last.direction, FlowDirection::Response);
        // The flow visited a resolver beyond the home (masquerade on the
        // CPE rewrote the source on the way out).
        assert!(flow.hops.iter().any(|h| matches!(h.action, HopAction::Nat(_))), "{flow:?}");
    }

    #[test]
    fn intercepted_flow_shows_the_mint_and_no_upstream_hop() {
        // XB6 case study: the query to 8.8.8.8 is DNAT-captured at the CPE
        // and the answer is minted locally — the timeline must prove both.
        let mut t = SimTransport::new(HomeScenario::xb6_case_study().build());
        t.enable_capture();
        let q = Question::new("example.com".parse().unwrap(), RType::A);
        let out = t.query("8.8.8.8".parse().unwrap(), &q, 0x1b1b, QueryOptions::default());
        assert!(out.response().is_some());
        let flows = t.take_flows();
        let flow = flows.iter().find(|f| f.txid == 0x1b1b).expect("probe's query flow");
        assert!(
            flow.hops.iter().any(|h| h.action == HopAction::Nat(NatPhase::Dnat)),
            "DNAT rewrite hop missing: {flow:?}"
        );
        let google: IpAddr = "8.8.8.8".parse().unwrap();
        let mint =
            flow.hops.iter().find(|h| h.action == HopAction::Mint).expect("locally minted answer");
        assert_eq!(mint.src.ip(), google, "mint spoofs the queried server: {mint:?}");
        // The query never escaped the home toward the real resolver: no
        // hop carries the original destination beyond the CPE.
        assert!(
            !flow.hops.iter().any(|h| h.node.contains("isp") && h.dst.ip() == google),
            "query leaked upstream: {flow:?}"
        );
    }

    #[test]
    fn flow_rtt_spans_egress_to_response_ingress() {
        // Clean path: the round trip crosses the home and the ISP twice,
        // so the RTT is positive but far below the 5s timeout window.
        let mut t = SimTransport::new(HomeScenario::clean().build());
        t.enable_capture();
        let q = Question::new("example.com".parse().unwrap(), RType::A);
        assert!(t
            .query("8.8.8.8".parse().unwrap(), &q, 0x3c3c, QueryOptions::default())
            .response()
            .is_some());
        let flows = t.take_flows();
        let clean_rtt = flow_rtt_us(&flows[0]).expect("answered query has an RTT");
        assert!(clean_rtt > 0 && clean_rtt < 5_000_000, "clean RTT {clean_rtt}µs");

        // Intercepted path: the CPE mints the answer locally, so the round
        // trip is strictly faster than the real resolver's.
        let mut t = SimTransport::new(HomeScenario::xb6_case_study().build());
        t.enable_capture();
        assert!(t
            .query("8.8.8.8".parse().unwrap(), &q, 0x3d3d, QueryOptions::default())
            .response()
            .is_some());
        let flows = t.take_flows();
        let flow = flows.iter().find(|f| f.txid == 0x3d3d).expect("probe flow");
        let local_rtt = flow_rtt_us(flow).expect("minted answer has an RTT");
        assert!(local_rtt < clean_rtt, "local {local_rtt}µs !< clean {clean_rtt}µs");

        // A query that dies at the border never comes back: no RTT.
        let mut t = SimTransport::new(HomeScenario::clean().build());
        t.enable_capture();
        let bq = Question::new("probe.dns-hijack-study.example".parse().unwrap(), RType::A);
        assert!(t
            .query("198.51.100.53".parse().unwrap(), &bq, 0x3e3e, QueryOptions::default())
            .is_timeout());
        let flows = t.take_flows();
        assert_eq!(flow_rtt_us(&flows[0]), None);
    }

    #[test]
    fn flows_serialize_to_the_golden_bytes() {
        // The JSON export and the text timeline of one clean CHAOS query,
        // as rendered when hops were still stored as strings.
        let mut t = SimTransport::new(HomeScenario::clean().build());
        t.enable_capture();
        let q = Question::chaos_txt("id.server".parse().unwrap());
        let _ = t.query("1.1.1.1".parse().unwrap(), &q, 0x0c0c, QueryOptions::default());
        let flows = t.take_flows();
        assert_eq!(flows_to_json(&flows), include_str!("../tests/golden/clean_chaos_flow.json"));
        assert_eq!(render_flows(&flows), include_str!("../tests/golden/clean_chaos_flow.txt"));
    }

    #[test]
    fn icmp_errors_attach_to_the_quoted_query() {
        // TTL-limited queries die one router further each time; the
        // time-exceeded error quotes the post-NAT tuple and must still land
        // in the query's own flow, rendered as it was before hops were
        // typed.
        let (mut text, mut json) = (String::new(), String::new());
        for ttl in 1..=4u8 {
            let mut t = SimTransport::new(HomeScenario::clean().build());
            t.enable_capture();
            let q = Question::new("example.com".parse().unwrap(), RType::A);
            let opts = QueryOptions { ttl: Some(ttl), ..QueryOptions::default() };
            let _ = t.query("8.8.8.8".parse().unwrap(), &q, 0x0e00 + ttl as u16, opts);
            let flows = t.take_flows();
            if ttl > 1 {
                assert!(flows[0].hops.iter().any(|h| h.direction == FlowDirection::Icmp
                    && h.detail == Some(HopDetail::IcmpTimeExceeded)));
            }
            text.push_str(&render_flows(&flows));
            json.push_str(&flows_to_json(&flows));
        }
        assert_eq!(text, include_str!("../tests/golden/ttl_limited_flows.txt"));
        assert_eq!(json, include_str!("../tests/golden/ttl_limited_flows.json"));
    }

    #[test]
    fn v6_endpoints_render_without_brackets() {
        let mut t = SimTransport::new(HomeScenario::clean().build());
        t.enable_capture();
        let q = Question::chaos_txt("id.server".parse().unwrap());
        let server: IpAddr = "2606:4700:4700::1111".parse().unwrap();
        assert!(t.query(server, &q, 0x0d0d, QueryOptions::default()).response().is_some());
        let flows = t.take_flows();
        let egress = &flows[0].hops[0];
        assert_eq!(egress.dst, SocketAddr::new(server, 53));
        let dst = "2606:4700:4700::1111:53";
        let src = format!("{}:{}", egress.src.ip(), egress.src.port());
        let rendered = render_flows(&flows);
        assert!(rendered.contains(&format!("{src} -> {dst}")), "{rendered}");
        assert!(!rendered.contains("]:"), "bracketed v6 endpoint: {rendered}");
        let json = flows_to_json(&flows);
        assert!(json.contains(&format!("\"src\": \"{src}\"")), "{json}");
        assert!(!json.contains("]:"), "bracketed v6 endpoint: {json}");
        assert!(json.contains(&format!("\"dst\": \"{dst}\"")), "{json}");
    }

    #[test]
    fn unparsed_question_serializes_as_empty_strings() {
        let flow = QueryFlow { txid: 7, qname: None, qtype: None, hops: Vec::new() };
        let json = flows_to_json(std::slice::from_ref(&flow));
        assert!(json.contains("\"qname\": \"\",") && json.contains("\"qtype\": \"\","), "{json}");
        assert_eq!(render_flows(&[flow]), "txid 0x0007     (0 hops)\n\n");
    }

    #[test]
    fn hop_details_keep_their_text_form() {
        let fs = |src: &str, sp, dst: &str, dp| FlowSummary {
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            src_port: sp,
            dst_port: dp,
        };
        let before = fs("192.168.1.100", 40000, "8.8.8.8", 53);
        let both = HopDetail::Nat(before, fs("73.0.1.0", 40000, "10.9.9.9", 53));
        assert_eq!(
            both.to_string(),
            "src 192.168.1.100:40000 -> 73.0.1.0:40000, dst 8.8.8.8:53 -> 10.9.9.9:53"
        );
        assert_eq!(HopDetail::Nat(before, before).to_string(), "");
        assert_eq!(HopDetail::Delay(SimDuration::from_millis(50)).to_string(), "+50.000ms");
        assert_eq!(HopDetail::OutIface(2).to_string(), "out iface 2");
        assert_eq!(HopDetail::IcmpTimeExceeded.to_string(), "icmp time-exceeded");
        assert_eq!(HopDetail::IcmpUnreachable(3).to_string(), "icmp unreachable(code 3)");
    }
}
