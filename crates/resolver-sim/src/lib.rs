//! # resolver-sim
//!
//! DNS server models for the *Home is Where the Hijacking is* reproduction:
//!
//! * [`ZoneDb`] — the authoritative layer, shared by every recursor in a
//!   scenario. Reflector zones reproduce `whoami.akamai.com` and
//!   `o-o.myaddr.l.google.com` semantics: the answer depends on the egress
//!   address of the resolver that asks.
//! * [`RecursiveResolver`] — the "alternate resolver" interceptors forward
//!   to, with a TTL cache, software identity for CHAOS queries, NXDOMAIN
//!   wildcarding, and refusal modes.
//! * [`PublicResolverSite`] — anycast sites of Cloudflare/Google/Quad9/
//!   OpenDNS with the exact location-query semantics of paper Table 1.
//! * [`ForwarderCore`] — the Dnsmasq/XDNS-style forwarder state machine CPE
//!   devices embed; it answers `version.bind` itself, which is what the
//!   paper's step 2 detects.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod authoritative;
mod cache;
mod forwarder;
mod iterative;
mod public_site;
mod recursive;
mod server;
mod software;
mod zone;
mod zonefile;

pub use authoritative::{AuthoritativeServer, Delegation, ServedZone};
pub use cache::DnsCache;
pub use iterative::IterativeResolver;
pub use forwarder::{ForwarderCore, FwdAction, PendingQuery};
pub use public_site::{PublicBrand, PublicResolverSite};
pub use recursive::RecursiveResolver;
pub use server::{apply_chaos_policy, handle_server_id, reply_packet};
pub use software::{ChaosPolicy, SoftwareProfile};
pub use zone::{
    AnswerSink, Lookup, ReflectKind, ReflectorZone, Resolution, ResolveCtx, ResolveResult,
    StaticZone, Zone, ZoneAnswer, ZoneDb,
};
pub use zonefile::{parse_zone, ZoneParseError};
