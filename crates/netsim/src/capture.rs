//! Packet-level flight recorder.
//!
//! The paper's localization argument is a *path* argument: a bogon query
//! that comes back answered proves an interceptor sits between the client
//! and the AS edge. [`crate::TraceEntry`] only records final deliveries,
//! which cannot show *where* on the path a packet was diverted, dropped,
//! or rewritten. The capture layer fixes that: every forwarding element
//! emits one structured [`CaptureEvent`] per packet hop — link egress and
//! ingress, NAT/DNAT rewrites with before/after tuples, fault-injection
//! verdicts with their cause, and route decisions — each stamped with the
//! simulated time, node, and interface.
//!
//! Recording goes through the [`CaptureSink`] trait with a [`NullCapture`]
//! default, mirroring the `enabled()` pattern of `core::trace::TraceSink`:
//! the simulator caches `enabled()` in a plain bool so the disabled path
//! costs one branch per hop and allocates nothing.

use crate::packet::{FlowSummary, IpPacket};
use crate::sim::{IfaceId, LinkId, NodeId};
use crate::time::{SimDuration, SimTime};
use std::any::Any;

/// Why the fault layer disposed of (or detained) a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCause {
    /// The egress interface has no link attached.
    Unattached,
    /// The link is administratively down.
    LinkDown,
    /// A burst-loss episode consumed the packet (trigger or continuation).
    BurstLoss,
    /// Uniform random loss.
    UniformLoss,
}

/// Which rewrite a NAT engine performed on a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NatPhase {
    /// Destination rewrite only (a DNAT redirect rule matched).
    Dnat,
    /// Source rewrite only (masquerade).
    Snat,
    /// Both destination and source were rewritten.
    DnatSnat,
    /// Reverse translation of a reply via conntrack.
    Reverse,
}

impl NatPhase {
    /// Classifies a forward-direction rewrite from the before/after
    /// tuples; `None` when nothing changed.
    pub fn classify(before: &FlowSummary, after: &FlowSummary) -> Option<NatPhase> {
        let dnat = before.dst != after.dst || before.dst_port != after.dst_port;
        let snat = before.src != after.src || before.src_port != after.src_port;
        match (dnat, snat) {
            (true, true) => Some(NatPhase::DnatSnat),
            (true, false) => Some(NatPhase::Dnat),
            (false, true) => Some(NatPhase::Snat),
            (false, false) => None,
        }
    }
}

/// Why a router refused to forward a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Destination was a bogon and the router filters bogon destinations.
    BogonDestination,
    /// TTL / hop limit expired in transit.
    TtlExpired,
    /// No route to the destination.
    NoRoute,
}

/// What happened at one hop of a packet's flight.
#[derive(Debug, Clone, PartialEq)]
pub enum CaptureKind {
    /// A packet was delivered to a device's interface.
    Ingress {
        /// The packet as delivered.
        packet: IpPacket,
    },
    /// A device transmitted a packet out of an interface.
    Egress {
        /// The packet as transmitted.
        packet: IpPacket,
    },
    /// The fault layer dropped the packet on a link.
    FaultDrop {
        /// The link, when one was attached.
        link: Option<LinkId>,
        /// Which fault fired.
        cause: FaultCause,
        /// The packet that was lost.
        packet: IpPacket,
    },
    /// The duplication fault scheduled a second delivery.
    Duplicated {
        /// The link that duplicated.
        link: LinkId,
        /// The duplicated packet.
        packet: IpPacket,
    },
    /// The late-delivery fault detained the packet.
    Delayed {
        /// The link that delayed.
        link: LinkId,
        /// Extra delay beyond latency and jitter.
        extra: SimDuration,
        /// The delayed packet.
        packet: IpPacket,
    },
    /// A NAT engine rewrote the packet.
    NatRewrite {
        /// Forward rewrite kind, or reverse conntrack translation.
        phase: NatPhase,
        /// Flow tuple before the rewrite.
        before: FlowSummary,
        /// Flow tuple after the rewrite.
        after: FlowSummary,
        /// The packet as it left the NAT.
        packet: IpPacket,
    },
    /// A routing element chose an egress interface for the packet.
    RouteForward {
        /// The chosen egress interface.
        out: IfaceId,
        /// The packet being forwarded (post TTL decrement).
        packet: IpPacket,
    },
    /// A routing element refused to forward the packet.
    RouteDrop {
        /// Why the packet was refused.
        reason: DropReason,
        /// The refused packet.
        packet: IpPacket,
    },
    /// A device minted this packet locally — e.g. a CPE DNS forwarder
    /// answering an intercepted query in place of the real resolver.
    LocalMint {
        /// The minted packet.
        packet: IpPacket,
    },
}

impl CaptureKind {
    /// The packet this event concerns.
    pub fn packet(&self) -> &IpPacket {
        match self {
            CaptureKind::Ingress { packet }
            | CaptureKind::Egress { packet }
            | CaptureKind::FaultDrop { packet, .. }
            | CaptureKind::Duplicated { packet, .. }
            | CaptureKind::Delayed { packet, .. }
            | CaptureKind::NatRewrite { packet, .. }
            | CaptureKind::RouteForward { packet, .. }
            | CaptureKind::RouteDrop { packet, .. }
            | CaptureKind::LocalMint { packet } => packet,
        }
    }

    /// What happened at this hop, as a `Copy` tag with no packet attached.
    pub fn action(&self) -> HopAction {
        match self {
            CaptureKind::Ingress { .. } => HopAction::Ingress,
            CaptureKind::Egress { .. } => HopAction::Egress,
            CaptureKind::FaultDrop { cause, .. } => HopAction::FaultDrop(*cause),
            CaptureKind::Duplicated { .. } => HopAction::Duplicated,
            CaptureKind::Delayed { .. } => HopAction::Delayed,
            CaptureKind::NatRewrite { phase, .. } => HopAction::Nat(*phase),
            CaptureKind::RouteForward { .. } => HopAction::Forward,
            CaptureKind::RouteDrop { reason, .. } => HopAction::RouteDrop(*reason),
            CaptureKind::LocalMint { .. } => HopAction::Mint,
        }
    }
}

/// The action of one capture hop, without its packet: what flow timelines
/// store per hop and what cross-checks compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopAction {
    /// Delivered to a device's interface.
    Ingress,
    /// Transmitted out of an interface.
    Egress,
    /// Dropped by the fault layer.
    FaultDrop(FaultCause),
    /// Scheduled for a second delivery.
    Duplicated,
    /// Detained by the late-delivery fault.
    Delayed,
    /// Rewritten by a NAT engine.
    Nat(NatPhase),
    /// Routed out of a chosen interface.
    Forward,
    /// Refused by a routing element.
    RouteDrop(DropReason),
    /// Minted locally by the device.
    Mint,
}

impl HopAction {
    /// Short lower-case label for renderings (e.g. `"ingress"`,
    /// `"drop(burst-loss)"`, `"nat(dnat)"`).
    pub fn label(self) -> &'static str {
        match self {
            HopAction::Ingress => "ingress",
            HopAction::Egress => "egress",
            HopAction::FaultDrop(FaultCause::Unattached) => "drop(unattached)",
            HopAction::FaultDrop(FaultCause::LinkDown) => "drop(link-down)",
            HopAction::FaultDrop(FaultCause::BurstLoss) => "drop(burst-loss)",
            HopAction::FaultDrop(FaultCause::UniformLoss) => "drop(uniform-loss)",
            HopAction::Duplicated => "duplicated",
            HopAction::Delayed => "delayed",
            HopAction::Nat(NatPhase::Dnat) => "nat(dnat)",
            HopAction::Nat(NatPhase::Snat) => "nat(snat)",
            HopAction::Nat(NatPhase::DnatSnat) => "nat(dnat+snat)",
            HopAction::Nat(NatPhase::Reverse) => "nat(reverse)",
            HopAction::Forward => "forward",
            HopAction::RouteDrop(DropReason::BogonDestination) => "drop(bogon-destination)",
            HopAction::RouteDrop(DropReason::TtlExpired) => "drop(ttl-expired)",
            HopAction::RouteDrop(DropReason::NoRoute) => "drop(no-route)",
            HopAction::Mint => "mint",
        }
    }
}

/// One hop of a packet's flight through the simulated network.
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureEvent {
    /// Simulated time of the hop.
    pub at: SimTime,
    /// Device at which the hop happened.
    pub node: NodeId,
    /// Interface involved, when the hop concerns one (ingress/egress).
    pub iface: Option<IfaceId>,
    /// What happened.
    pub kind: CaptureKind,
}

/// Receives capture events. Implementations that return `false` from
/// [`enabled`](CaptureSink::enabled) are never handed an event: the
/// simulator caches the flag and emission sites check a plain bool, so a
/// disabled sink keeps the hot path free of clones and allocations.
pub trait CaptureSink: Any {
    /// Whether this sink wants events. Checked once at installation.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one hop.
    fn record(&mut self, event: CaptureEvent);

    /// Downcast support (e.g. to recover a [`CaptureBuffer`]).
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The default sink: discards everything and reports itself disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullCapture;

impl CaptureSink for NullCapture {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: CaptureEvent) {}

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An in-memory sink that appends every event to a vector, in emission
/// order (which is chronological — the event loop is time-ordered).
#[derive(Debug, Default)]
pub struct CaptureBuffer {
    /// The recorded hops.
    pub events: Vec<CaptureEvent>,
}

impl CaptureSink for CaptureBuffer {
    fn record(&mut self, event: CaptureEvent) {
        self.events.push(event);
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
    use std::net::IpAddr;

    fn fs(src: &str, sp: u16, dst: &str, dp: u16) -> FlowSummary {
        FlowSummary {
            src: src.parse::<IpAddr>().unwrap(),
            dst: dst.parse::<IpAddr>().unwrap(),
            src_port: sp,
            dst_port: dp,
        }
    }

    #[test]
    fn nat_phase_classification() {
        let before = fs("192.168.1.10", 5353, "8.8.8.8", 53);
        let dnat = fs("192.168.1.10", 5353, "192.168.1.1", 53);
        let snat = fs("73.22.1.5", 40001, "8.8.8.8", 53);
        let both = fs("73.22.1.5", 40001, "10.9.9.9", 53);
        assert_eq!(NatPhase::classify(&before, &dnat), Some(NatPhase::Dnat));
        assert_eq!(NatPhase::classify(&before, &snat), Some(NatPhase::Snat));
        assert_eq!(NatPhase::classify(&before, &both), Some(NatPhase::DnatSnat));
        assert_eq!(NatPhase::classify(&before, &before), None);
    }

    #[test]
    fn hop_action_labels_keep_the_rendered_vocabulary() {
        // Every action a flow timeline can show, spelled as the golden
        // timelines and JSON exports spell it.
        let vocabulary = [
            (HopAction::Egress, "egress"),
            (HopAction::Ingress, "ingress"),
            (HopAction::Forward, "forward"),
            (HopAction::Mint, "mint"),
            (HopAction::Duplicated, "duplicated"),
            (HopAction::Delayed, "delayed"),
            (HopAction::Nat(NatPhase::Dnat), "nat(dnat)"),
            (HopAction::Nat(NatPhase::Snat), "nat(snat)"),
            (HopAction::Nat(NatPhase::DnatSnat), "nat(dnat+snat)"),
            (HopAction::Nat(NatPhase::Reverse), "nat(reverse)"),
            (HopAction::FaultDrop(FaultCause::Unattached), "drop(unattached)"),
            (HopAction::FaultDrop(FaultCause::LinkDown), "drop(link-down)"),
            (HopAction::FaultDrop(FaultCause::BurstLoss), "drop(burst-loss)"),
            (HopAction::FaultDrop(FaultCause::UniformLoss), "drop(uniform-loss)"),
            (HopAction::RouteDrop(DropReason::BogonDestination), "drop(bogon-destination)"),
            (HopAction::RouteDrop(DropReason::TtlExpired), "drop(ttl-expired)"),
            (HopAction::RouteDrop(DropReason::NoRoute), "drop(no-route)"),
        ];
        for (action, label) in vocabulary {
            assert_eq!(action.label(), label);
        }
    }

    #[test]
    fn null_capture_is_disabled() {
        assert!(!NullCapture.enabled());
        let buffer = CaptureBuffer::default();
        assert!(buffer.enabled());
    }
}
