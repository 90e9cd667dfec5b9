//! Property-based invariants for the network simulator substrate.

use bytes::Bytes;
use netsim::{Cidr, DnatRule, IpPacket, NatEngine, NatVerdict, RouteTable, SimTime};
use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

fn arb_v4() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(Ipv4Addr::from)
}

fn arb_cidr_v4() -> impl Strategy<Value = Cidr> {
    (arb_v4(), 0u8..=32).prop_map(|(a, p)| Cidr::v4(a, p))
}

/// Addresses from a deliberately tiny space, so generated routes overlap,
/// repeat exactly, and actually match the generated destinations.
fn arb_small_ip() -> impl Strategy<Value = IpAddr> {
    prop_oneof![
        (0u8..3, 0u8..3).prop_map(|(a, b)| IpAddr::V4(Ipv4Addr::new(10, a, 0, b))),
        (0u16..3, 0u16..3)
            .prop_map(|(a, b)| IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, a, 0, 0, 0, 0, b))),
    ]
}

/// One `RouteTable` insertion: a prefix over the tiny space (host routes
/// included) or either family's default route.
#[derive(Debug, Clone, Copy)]
enum RouteOp {
    Prefix(Cidr),
    DefaultV4,
    DefaultV6,
}

fn arb_route_op() -> impl Strategy<Value = RouteOp> {
    // Six slots: four prefixes to each default route.
    (arb_small_ip(), 0u8..=4, 0u8..6).prop_map(|(ip, step, slot)| match slot {
        4 => RouteOp::DefaultV4,
        5 => RouteOp::DefaultV6,
        _ => RouteOp::Prefix(match ip {
            IpAddr::V4(a) => Cidr::v4(a, [0, 8, 16, 24, 32][step as usize]),
            IpAddr::V6(a) => Cidr::v6(a, [0, 32, 48, 64, 128][step as usize]),
        }),
    })
}

/// The original lookup rule, kept here as the oracle: among every
/// matching route take the longest prefix, and among equal lengths the
/// one added last.
fn oracle_lookup(routes: &[(Cidr, netsim::IfaceId)], dst: IpAddr) -> Option<netsim::IfaceId> {
    routes
        .iter()
        .enumerate()
        .filter(|(_, (p, _))| p.contains(dst))
        .max_by_key(|(idx, (p, _))| (p.prefix_len(), *idx))
        .map(|(_, (_, iface))| *iface)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cidr_parse_display_roundtrip(c in arb_cidr_v4()) {
        let text = c.to_string();
        let back: Cidr = text.parse().unwrap();
        prop_assert_eq!(back, c);
    }

    #[test]
    fn cidr_contains_its_own_network_address(a in arb_v4(), p in 0u8..=32) {
        let c = Cidr::v4(a, p);
        prop_assert!(c.contains(IpAddr::V4(a)));
    }

    #[test]
    fn route_lookup_result_prefix_contains_destination(
        routes in proptest::collection::vec((arb_cidr_v4(), 0usize..4), 1..8),
        dst in arb_v4(),
    ) {
        let mut table = RouteTable::new();
        for (c, iface) in &routes {
            table.add(*c, netsim::IfaceId(*iface));
        }
        let dst = IpAddr::V4(dst);
        match table.lookup(dst) {
            Some(iface) => {
                // The chosen iface must belong to some matching prefix of
                // maximal length.
                let best = routes.iter().filter(|(c, _)| c.contains(dst))
                    .map(|(c, _)| c.prefix_len()).max().unwrap();
                let ok = routes.iter().any(|(c, i)| {
                    c.contains(dst) && c.prefix_len() == best && netsim::IfaceId(*i) == iface
                });
                prop_assert!(ok);
            }
            None => {
                prop_assert!(!routes.iter().any(|(c, _)| c.contains(dst)));
            }
        }
    }

    #[test]
    fn route_lookup_agrees_with_filter_and_max_oracle(
        ops in proptest::collection::vec((arb_route_op(), 0usize..6), 0..48),
        dsts in proptest::collection::vec(arb_small_ip(), 1..16),
    ) {
        let mut table = RouteTable::new();
        let mut added = Vec::new();
        for (op, iface) in ops {
            let iface = netsim::IfaceId(iface);
            let cidr = match op {
                RouteOp::Prefix(c) => {
                    table.add(c, iface);
                    c
                }
                RouteOp::DefaultV4 => {
                    table.add_default_v4(iface);
                    Cidr::v4(Ipv4Addr::UNSPECIFIED, 0)
                }
                RouteOp::DefaultV6 => {
                    table.add_default_v6(iface);
                    Cidr::v6(Ipv6Addr::UNSPECIFIED, 0)
                }
            };
            added.push((cidr, iface));
        }
        prop_assert_eq!(table.len(), added.len());
        for dst in dsts {
            let (got, want) = (table.lookup(dst), oracle_lookup(&added, dst));
            prop_assert!(got == want, "dst {dst}: table {got:?}, oracle {want:?}");
        }
    }

    #[test]
    fn masquerade_roundtrip_restores_flow(
        inside in arb_v4(),
        server in arb_v4(),
        sport in 1024u16..65535,
        dport in 1u16..1024,
    ) {
        prop_assume!(inside != server);
        let public: Ipv4Addr = "73.22.1.5".parse().unwrap();
        prop_assume!(inside != public && server != public);
        let mut nat = NatEngine::new();
        nat.masquerade_v4(IpAddr::V4(public));
        let pkt = IpPacket::udp_v4(inside, server, sport, dport, Bytes::from_static(b"q"));
        let out = match nat.outbound(pkt, SimTime::ZERO) {
            NatVerdict::Forward(p) => p,
            v => return Err(TestCaseError::fail(format!("unexpected verdict {v:?}"))),
        };
        prop_assert_eq!(out.src(), IpAddr::V4(public));
        let out_udp = out.udp_payload().unwrap();
        // Reply comes back and must be restored exactly.
        let reply = IpPacket::udp_v4(server, public, dport, out_udp.src_port, Bytes::from_static(b"r"));
        let restored = nat.inbound(reply, SimTime::ZERO).unwrap();
        prop_assert_eq!(restored.src(), IpAddr::V4(server));
        prop_assert_eq!(restored.dst(), IpAddr::V4(inside));
        let udp = restored.udp_payload().unwrap();
        prop_assert_eq!(udp.src_port, dport);
        prop_assert_eq!(udp.dst_port, sport);
    }

    #[test]
    fn dnat_reply_source_is_always_the_original_target(
        inside in arb_v4(),
        target in arb_v4(),
        sport in 1024u16..65535,
    ) {
        // Whatever the client queried, the reply it sees must claim to come
        // from that address — the transparency invariant of §2.
        let resolver: Ipv4Addr = "75.75.75.75".parse().unwrap();
        prop_assume!(target != resolver && inside != resolver && inside != target);
        let public: Ipv4Addr = "73.22.1.5".parse().unwrap();
        prop_assume!(inside != public && target != public);
        let mut nat = NatEngine::new();
        nat.add_dnat(DnatRule::redirect_dns(IpAddr::V4(resolver)));
        nat.masquerade_v4(IpAddr::V4(public));
        let pkt = IpPacket::udp_v4(inside, target, sport, 53, Bytes::from_static(b"q"));
        let out = match nat.outbound(pkt, SimTime::ZERO) {
            NatVerdict::Forward(p) => p,
            v => return Err(TestCaseError::fail(format!("unexpected verdict {v:?}"))),
        };
        prop_assert_eq!(out.dst(), IpAddr::V4(resolver));
        let out_udp = out.udp_payload().unwrap();
        let reply = IpPacket::udp_v4(resolver, public, 53, out_udp.src_port, Bytes::from_static(b"r"));
        let restored = nat.inbound(reply, SimTime::ZERO).unwrap();
        prop_assert_eq!(restored.src(), IpAddr::V4(target));
        prop_assert_eq!(restored.dst(), IpAddr::V4(inside));
    }

    #[test]
    fn unsolicited_inbound_never_translates(
        src in arb_v4(),
        sport in 1u16..65535,
        dport in 1u16..65535,
    ) {
        let public: Ipv4Addr = "73.22.1.5".parse().unwrap();
        let mut nat = NatEngine::new();
        nat.masquerade_v4(IpAddr::V4(public));
        let stray = IpPacket::udp_v4(src, public, sport, dport, Bytes::new());
        prop_assert!(nat.inbound(stray, SimTime::ZERO).is_none());
    }
}
