//! # netsim
//!
//! A deterministic, discrete-event, packet-level network simulator built for
//! the *Home is Where the Hijacking is* reproduction.
//!
//! The simulator models exactly the mechanisms the paper's localization
//! technique probes:
//!
//! * **Dual-stack IP forwarding** with longest-prefix routing and real
//!   TTL/hop-limit handling ([`Router`], [`RouteTable`]).
//! * **NAT**: DNAT rules with exemption/match lists, masquerade, and a
//!   conntrack table whose reverse mapping is what makes intercepted DNS
//!   replies arrive with a spoofed source ([`NatEngine`]).
//! * **Bogon filtering** at AS borders, which is what gives the paper's
//!   step-3 bogon queries their discriminating power ([`bogon`]).
//! * **Links** with latency and deterministic (seeded) loss.
//!
//! Everything runs on virtual time; the same seed always yields the same
//! run. No wall clock, no threads, no `unsafe`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bogon;
mod capture;
mod host;
mod nat;
mod packet;
mod pool;
mod route;
mod router;
mod sim;
mod switch;
mod time;

pub use capture::{
    CaptureBuffer, CaptureEvent, CaptureKind, CaptureSink, DropReason, FaultCause, HopAction,
    NatPhase, NullCapture,
};
pub use host::{Delivery, Host};
pub use nat::{DnatRule, FlowTuple, Masquerade, NatEngine, NatVerdict, Proto};
pub use packet::{
    FlowSummary, IcmpMessage, IpPacket, Transport, UdpDatagram, DEFAULT_TTL,
};
pub use pool::PayloadPool;
pub use route::{Cidr, CidrParseError, RouteTable};
pub use router::{LocalPolicy, Router};
pub use sim::{
    Attachment, BurstLoss, Ctx, Device, FaultProfile, IfaceId, LateDelivery, LinkId, LinkStats,
    NodeId, SimScratch, SimStats, Simulator, TraceEntry,
};
pub use switch::Switch;
pub use time::{SimDuration, SimTime};
