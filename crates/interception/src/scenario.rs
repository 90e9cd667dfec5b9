//! Builds complete single-home worlds: probe → CPE → (middlebox) → ISP →
//! border → (beyond-ISP interceptor) → internet core → public resolver
//! sites.
//!
//! One scenario is one "RIPE Atlas probe" in one household; the fleet layer
//! builds thousands of these with different knobs. Every scenario carries
//! its ground truth so tests and the accuracy analysis can score the
//! locator against reality.

use crate::isp::{IspProfile, MiddleboxSpec, RedirectTarget, ResolverMode};
use cpe::{models, CpeConfig, CpeDevice, DnsMode};
use locator::{InterceptorLocation, LocatorConfig, ResolverKey};
use netsim::{
    BurstLoss, Cidr, DnatRule, FaultProfile, Host, IfaceId, LateDelivery, NatEngine, NodeId,
    Proto, Router, SimDuration, SimScratch, Simulator,
};
use resolver_sim::{
    PublicBrand, PublicResolverSite, RecursiveResolver, ResolveCtx, SoftwareProfile, ZoneDb,
};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::sync::{Arc, OnceLock};

/// Geographic region of the probe; selects which anycast site it reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// North America, east.
    NaEast,
    /// North America, west.
    NaWest,
    /// Europe.
    Europe,
    /// Asia.
    Asia,
    /// South America.
    SouthAmerica,
    /// Africa.
    Africa,
    /// Oceania.
    Oceania,
}

impl Region {
    /// IATA code of the region's anycast site.
    pub fn iata(self) -> &'static str {
        match self {
            Region::NaEast => "IAD",
            Region::NaWest => "SFO",
            Region::Europe => "AMS",
            Region::Asia => "SIN",
            Region::SouthAmerica => "GRU",
            Region::Africa => "JNB",
            Region::Oceania => "SYD",
        }
    }
}

/// Which CPE model the household runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpeModelKind {
    /// NAT-only router, port 53 closed.
    Plain,
    /// LAN-only Dnsmasq forwarder, no interception.
    DnsmasqLan {
        /// Dnsmasq version.
        version: String,
    },
    /// Non-intercepting forwarder with port 53 open on the WAN (App. A).
    OpenWanForwarder {
        /// Dnsmasq version.
        version: String,
    },
    /// Open-port-53 forwarder that answers version.bind NXDOMAIN
    /// (Table 3's probe 11992).
    OpenWanForwarderNxDomain,
    /// The §5 buggy XB6: DNAT interception to the ISP resolver.
    Xb6Buggy,
    /// A healthy XB6 (same firmware, no DNAT rule).
    Xb6Healthy,
    /// Pi-hole: deliberate interception with ad blocking.
    PiHole {
        /// Pi-hole Dnsmasq version.
        version: String,
    },
    /// Interceptor running Unbound.
    UnboundInterceptor {
        /// Unbound version.
        version: String,
    },
    /// Interceptor with an arbitrary version.bind string (Table 5 tail).
    CustomInterceptor {
        /// The exact string returned.
        version_string: String,
    },
    /// Interceptor whose forwarder refuses version.bind (§6 limitation).
    StealthInterceptor,
    /// Interceptor that exempts specific resolver addresses.
    SelectiveAllowed {
        /// Exempted destinations.
        allowed: Vec<IpAddr>,
        /// Dnsmasq version.
        version: String,
    },
    /// Interceptor that captures only specific resolver addresses.
    SelectiveTargeted {
        /// Captured destinations.
        targets: Vec<IpAddr>,
        /// Dnsmasq version.
        version: String,
    },
    /// Transparent forwarder: relays WAN queries upstream with the
    /// scanner's source preserved, so the upstream answers the scanner
    /// directly (the open-DNS taxonomy's key population).
    TransparentForwarder {
        /// Dnsmasq version.
        version: String,
    },
    /// Open recursive resolver on the CPE: resolves WAN queries itself.
    OpenRecursive {
        /// Dnsmasq version.
        version: String,
    },
}

impl CpeModelKind {
    /// True when the model intercepts (fully or selectively).
    pub fn intercepts(&self) -> bool {
        !matches!(
            self,
            CpeModelKind::Plain
                | CpeModelKind::DnsmasqLan { .. }
                | CpeModelKind::OpenWanForwarder { .. }
                | CpeModelKind::OpenWanForwarderNxDomain
                | CpeModelKind::Xb6Healthy
                | CpeModelKind::TransparentForwarder { .. }
                | CpeModelKind::OpenRecursive { .. }
        )
    }
}

/// The open-DNS taxonomy a WAN-side scanner sorts devices into
/// (Nawrocki et al.; the scanner-mode campaign's classification target).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum OpenDnsClass {
    /// Relays upstream preserving the (spoofed) client source; the
    /// upstream answers the scanner from an address it never queried.
    TransparentForwarder,
    /// Relays upstream with its own source and answers the scanner itself.
    OpenForwarder,
    /// Resolves queries itself; reflector names reveal its own egress.
    OpenRecursive,
    /// Port 53 serves no outside clients, but outbound queries from the
    /// home are DNAT-captured (the XB6 pattern).
    DnatInterceptor,
    /// No scanner-visible DNS service and no interception.
    Clean,
}

impl OpenDnsClass {
    /// All classes, in a stable reporting order.
    pub const ALL: [OpenDnsClass; 5] = [
        OpenDnsClass::TransparentForwarder,
        OpenDnsClass::OpenForwarder,
        OpenDnsClass::OpenRecursive,
        OpenDnsClass::DnatInterceptor,
        OpenDnsClass::Clean,
    ];

    /// Stable snake_case label (aggregate JSON keys).
    pub fn label(self) -> &'static str {
        match self {
            OpenDnsClass::TransparentForwarder => "transparent_forwarder",
            OpenDnsClass::OpenForwarder => "open_forwarder",
            OpenDnsClass::OpenRecursive => "open_recursive",
            OpenDnsClass::DnatInterceptor => "dnat_interceptor",
            OpenDnsClass::Clean => "clean",
        }
    }
}

impl std::fmt::Display for OpenDnsClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Ground truth of a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroundTruth {
    /// No interceptor anywhere.
    NotIntercepted,
    /// The CPE intercepts; carries its true version string when revealed.
    Cpe {
        /// The forwarder's version.bind string (None for stealth models).
        version: Option<String>,
    },
    /// A middlebox inside the client's AS intercepts.
    IspMiddlebox,
    /// ISP-operated interception whose resolver sits outside the client AS
    /// (§6: the technique will say "beyond/unknown").
    IspButResolverOutsideAs,
    /// An interceptor beyond the client's AS.
    BeyondIsp,
}

impl GroundTruth {
    /// True when any interception exists.
    pub fn intercepted(&self) -> bool {
        !matches!(self, GroundTruth::NotIntercepted)
    }
}

/// Full scenario specification.
#[derive(Debug, Clone)]
pub struct HomeScenario {
    /// RNG seed for the simulator.
    pub seed: u64,
    /// The household's ISP.
    pub isp: IspProfile,
    /// Index of this customer within the ISP (drives address allocation).
    pub customer_index: u32,
    /// CPE model.
    pub cpe_model: CpeModelKind,
    /// Whether a CPE interceptor also captures IPv6 (rare, Table 4).
    pub cpe_intercept_v6: bool,
    /// In-AS middlebox interception.
    pub middlebox: Option<MiddleboxSpec>,
    /// Beyond-AS interception.
    pub beyond: Option<MiddleboxSpec>,
    /// Whether the home has IPv6 connectivity.
    pub probe_has_v6: bool,
    /// Probe's region (anycast site selection).
    pub region: Region,
    /// Loss probability on the home's upstream link (flaky probes; lost
    /// queries become timeouts, which the technique treats conservatively).
    pub upstream_loss: f64,
    /// Seeded burst loss on the upstream link: line flaps that eat several
    /// consecutive packets, the failure mode a single retry rides out but
    /// uniform loss cannot reproduce.
    pub upstream_burst: Option<BurstLoss>,
    /// Probability that an upstream traversal is delivered twice (duplicate
    /// responses must not double-count or confuse the locator).
    pub upstream_duplicate: f64,
    /// Late delivery on the upstream link: responses that arrive after the
    /// stub's timeout, draining into a later attempt's receive window with
    /// a stale transaction ID.
    pub upstream_late: Option<LateDelivery>,
    /// Run the ISP resolver as a *real iterative resolver* that walks
    /// packet-level authoritative servers (root → authoritative) instead
    /// of the instant zone-database recursor. Slower per probe; used by
    /// fidelity tests. Only honored with `ResolverMode::Normal`.
    pub iterative_isp_resolver: bool,
    /// Number of extra LAN devices generating background DNS chatter
    /// toward 8.8.8.8 during the measurement (smart-home realism; they sit
    /// with the probe behind a LAN switch).
    pub background_clients: u32,
    /// An optional second router between the probe and the CPE (the
    /// "user router behind ISP modem" double-NAT home). The inner router
    /// masquerades onto the outer LAN; its DNS stack (e.g. a Pi-hole) can
    /// intercept just like the outer CPE's.
    pub inner_router: Option<CpeModelKind>,
}

impl HomeScenario {
    /// A clean household: plain CPE, no interception anywhere.
    pub fn clean() -> HomeScenario {
        HomeScenario {
            seed: 1,
            isp: IspProfile::comcast_like(),
            customer_index: 0,
            cpe_model: CpeModelKind::Plain,
            cpe_intercept_v6: false,
            middlebox: None,
            beyond: None,
            probe_has_v6: true,
            region: Region::NaEast,
            upstream_loss: 0.0,
            upstream_burst: None,
            upstream_duplicate: 0.0,
            upstream_late: None,
            iterative_isp_resolver: false,
            background_clients: 0,
            inner_router: None,
        }
    }

    /// The §5 case study household.
    pub fn xb6_case_study() -> HomeScenario {
        HomeScenario { cpe_model: CpeModelKind::Xb6Buggy, ..HomeScenario::clean() }
    }

    /// An ISP that intercepts everything at a middlebox.
    pub fn isp_middlebox() -> HomeScenario {
        HomeScenario { middlebox: Some(MiddleboxSpec::redirect_all_to_isp()), ..HomeScenario::clean() }
    }

    /// The three §3.4 worked-example probes, as `(probe id, scenario)`
    /// pairs: 1053 is clean, 11992 sits behind an ISP middlebox whose
    /// resolver answers CHAOS with NOTIMP, and 21823's CPE runs an
    /// unbound-based interceptor. Shared by the repro binary's Tables 2–3
    /// rendering and the golden-trace suite so both always measure the
    /// same households.
    pub fn worked_examples() -> Vec<(&'static str, HomeScenario)> {
        vec![
            ("1053", HomeScenario::clean()),
            ("11992", {
                let mut s = HomeScenario::isp_middlebox();
                s.isp.resolver_version = "NOTIMP".into();
                s.cpe_model = CpeModelKind::OpenWanForwarderNxDomain;
                s
            }),
            (
                "21823",
                HomeScenario {
                    cpe_model: CpeModelKind::UnboundInterceptor { version: "1.9.0".into() },
                    ..HomeScenario::clean()
                },
            ),
        ]
    }

    /// One canonical scenario per open-DNS taxonomy class, as
    /// `(name, scenario)` pairs. The golden classification suite and the
    /// scanner-mode campaign's mixed fleets draw from exactly these shapes.
    pub fn taxonomy_examples() -> Vec<(&'static str, HomeScenario)> {
        vec![
            (
                "transparent_forwarder",
                HomeScenario {
                    cpe_model: CpeModelKind::TransparentForwarder { version: "2.80".into() },
                    ..HomeScenario::clean()
                },
            ),
            (
                "open_forwarder",
                HomeScenario {
                    cpe_model: CpeModelKind::OpenWanForwarder { version: "2.80".into() },
                    ..HomeScenario::clean()
                },
            ),
            (
                "open_recursive",
                HomeScenario {
                    cpe_model: CpeModelKind::OpenRecursive { version: "2.80".into() },
                    ..HomeScenario::clean()
                },
            ),
            ("dnat_interceptor", HomeScenario::xb6_case_study()),
            ("clean", HomeScenario::clean()),
        ]
    }

    /// The open-DNS taxonomy class this household's CPE belongs to —
    /// scanner-vantage ground truth for the classification campaign.
    pub fn open_dns_class(&self) -> OpenDnsClass {
        match &self.cpe_model {
            CpeModelKind::TransparentForwarder { .. } => OpenDnsClass::TransparentForwarder,
            CpeModelKind::OpenWanForwarder { .. } | CpeModelKind::OpenWanForwarderNxDomain => {
                OpenDnsClass::OpenForwarder
            }
            CpeModelKind::OpenRecursive { .. } => OpenDnsClass::OpenRecursive,
            model if model.intercepts() => OpenDnsClass::DnatInterceptor,
            _ => OpenDnsClass::Clean,
        }
    }

    /// Ground truth implied by the specification. CPE interception shadows
    /// anything further out because queries meet the CPE first.
    pub fn truth(&self) -> GroundTruth {
        if let Some(inner) = &self.inner_router {
            if inner.intercepts() {
                // The inner router meets queries first.
                return GroundTruth::Cpe { version: cpe_version_of(inner) };
            }
        }
        if self.cpe_model.intercepts() {
            let version = cpe_version_of(&self.cpe_model);
            return GroundTruth::Cpe { version };
        }
        if self.middlebox.is_some() {
            if self.isp.resolver_in_as {
                return GroundTruth::IspMiddlebox;
            }
            return GroundTruth::IspButResolverOutsideAs;
        }
        if self.beyond.is_some() {
            return GroundTruth::BeyondIsp;
        }
        GroundTruth::NotIntercepted
    }

    /// What the technique is *expected* to output for this scenario,
    /// including its documented limitations (stealth CPE → within-ISP,
    /// resolver-outside-AS → beyond/unknown).
    pub fn expected_location(&self) -> Option<InterceptorLocation> {
        match self.truth() {
            GroundTruth::NotIntercepted => None,
            GroundTruth::Cpe { version: Some(_) } => Some(InterceptorLocation::Cpe),
            // A version-hiding CPE interceptor still answers bogon queries
            // (the DNAT is at the CPE, inside the AS): within-ISP.
            GroundTruth::Cpe { version: None } => Some(InterceptorLocation::WithinIsp),
            GroundTruth::IspMiddlebox => {
                // Step 3 localizes to the ISP only if the middlebox's rules
                // would capture a query to a *bogon* destination — i.e. an
                // active rule with no destination match-list. A targeted
                // interceptor (match-list restricted) lets the bogon query
                // die at the border, so the technique can only say
                // beyond/unknown.
                let spec = self.middlebox.as_ref().expect("truth said middlebox");
                let v4_catches_bogon = spec.redirect_v4.is_some()
                    && !spec.match_dsts.iter().any(|a| a.is_ipv4());
                let v6_catches_bogon = self.probe_has_v6
                    && spec.redirect_v6.is_some()
                    && !spec.match_dsts.iter().any(|a| !a.is_ipv4());
                if v4_catches_bogon || v6_catches_bogon {
                    Some(InterceptorLocation::WithinIsp)
                } else {
                    Some(InterceptorLocation::BeyondOrUnknown)
                }
            }
            GroundTruth::IspButResolverOutsideAs | GroundTruth::BeyondIsp => {
                Some(InterceptorLocation::BeyondOrUnknown)
            }
        }
    }
}

fn cpe_version_of(model: &CpeModelKind) -> Option<String> {
    match model {
        CpeModelKind::Xb6Buggy => Some("dnsmasq-2.78-xfin".into()),
        CpeModelKind::PiHole { version } => Some(format!("dnsmasq-pi-hole-{version}")),
        CpeModelKind::UnboundInterceptor { version } => Some(format!("unbound {version}")),
        CpeModelKind::CustomInterceptor { version_string } => Some(version_string.clone()),
        CpeModelKind::SelectiveAllowed { version, .. }
        | CpeModelKind::SelectiveTargeted { version, .. } => Some(format!("dnsmasq-{version}")),
        CpeModelKind::StealthInterceptor => None,
        _ => None,
    }
}

/// Addresses a built scenario exposes to the measurement harness.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioAddrs {
    /// The probe's LAN IPv4 address.
    pub probe_v4: Ipv4Addr,
    /// The probe's global IPv6 address, if the home has v6.
    pub probe_v6: Option<Ipv6Addr>,
    /// The CPE's public IPv4 address (what RIPE Atlas reports as the
    /// probe's public address).
    pub cpe_public_v4: Ipv4Addr,
    /// The CPE's public IPv6 address.
    pub cpe_public_v6: Option<Ipv6Addr>,
    /// The outside scanner's IPv4 address (the WAN-side measurement
    /// vantage of the open-DNS taxonomy campaign).
    pub scanner_v4: Ipv4Addr,
}

/// A constructed world ready to measure.
pub struct BuiltScenario {
    /// The simulator holding every device.
    pub sim: Simulator,
    /// The probe host's node id.
    pub probe: NodeId,
    /// The CPE's node id.
    pub cpe: NodeId,
    /// The outside scanner host's node id (WAN-vantage queries).
    pub scanner: NodeId,
    /// Relevant addresses.
    pub addrs: ScenarioAddrs,
    /// Ground truth.
    pub truth: GroundTruth,
    /// The technique's expected output.
    pub expected: Option<InterceptorLocation>,
    /// Background chatter devices, if any were requested.
    pub background: Vec<NodeId>,
}

impl BuiltScenario {
    /// A [`LocatorConfig`] matching this scenario: the CPE public addresses
    /// filled in and IPv6 testing enabled per the home's connectivity.
    pub fn locator_config(&self) -> LocatorConfig {
        LocatorConfig {
            cpe_public_v4: Some(IpAddr::V4(self.addrs.cpe_public_v4)),
            cpe_public_v6: self.addrs.cpe_public_v6.map(IpAddr::V6),
            test_ipv6: self.addrs.probe_v6.is_some(),
            ..LocatorConfig::default()
        }
    }
}

/// The immutable world every scenario shares: the standard zone database,
/// the public-resolver table, and the root-server address list.
///
/// Building one household used to reconstruct all of this from scratch —
/// O(fleet × world) redundant work on a survey's hottest path. A campaign
/// builds (or borrows) one template up front and every per-probe
/// [`HomeScenario::build_with`] call clones only `Arc`s and a handful of
/// addresses out of it.
pub struct WorldTemplate {
    /// The standard-world zone database all simulated resolvers answer from.
    pub zonedb: Arc<ZoneDb>,
    /// The paper's four public resolvers (service addresses + egress).
    pub resolvers: Arc<[locator::PublicResolver]>,
    /// Root-server addresses for the hostname.bind baseline.
    pub root_addrs: Vec<IpAddr>,
    /// The standard-world authoritative tree (iterative-resolver fidelity
    /// mode), with every qname interned: apexes, delegation targets, and
    /// reflector names are parsed once here and refcount-cloned into each
    /// probe's authoritative servers.
    pub auth_tree: Arc<AuthTree>,
}

/// The pre-built authoritative tree of the standard world.
pub struct AuthTree {
    /// The root zone: delegations (with glue) for every standard apex.
    pub root: resolver_sim::ServedZone,
    /// The zones of the world authoritative server.
    pub world: Vec<resolver_sim::ServedZone>,
}

/// Glue address every standard-world delegation points at.
const WORLD_AUTH_V4: Ipv4Addr = Ipv4Addr::new(192, 0, 35, 1);

impl AuthTree {
    /// Builds the standard tree, parsing each qname exactly once.
    fn standard() -> AuthTree {
        use resolver_sim::{Delegation, ReflectKind, ReflectorZone, ServedZone, StaticZone};
        let apexes = [
            "example.com",
            "akamai.com",
            "google.com",
            "opendns.com",
            "dns-hijack-study.example",
        ];
        let root = ServedZone {
            apex: dns_wire::Name::root(),
            zone: Arc::new(StaticZone::new()),
            delegations: apexes
                .iter()
                .map(|apex| Delegation {
                    child: apex.parse().expect("static name"),
                    nameservers: vec![(
                        format!("ns1.{apex}").parse().expect("static name"),
                        IpAddr::V4(WORLD_AUTH_V4),
                    )],
                })
                .collect(),
        };
        let mut example = StaticZone::new();
        example.add_a("example.com", 3600, Ipv4Addr::new(93, 184, 216, 34));
        example.add_a("www.example.com", 3600, Ipv4Addr::new(93, 184, 216, 34));
        let mut probe_zone = StaticZone::new();
        probe_zone.add_a(
            "probe.dns-hijack-study.example",
            60,
            Ipv4Addr::new(93, 184, 216, 40),
        );
        let world = vec![
            ServedZone {
                apex: "example.com".parse().expect("static name"),
                zone: Arc::new(example),
                delegations: vec![],
            },
            ServedZone {
                apex: "akamai.com".parse().expect("static name"),
                zone: Arc::new(ReflectorZone::new(
                    dns_wire::debug_queries::whoami_akamai(),
                    ReflectKind::Address,
                )),
                delegations: vec![],
            },
            ServedZone {
                apex: "google.com".parse().expect("static name"),
                zone: Arc::new(ReflectorZone::new(
                    dns_wire::debug_queries::google_myaddr(),
                    ReflectKind::Text,
                )),
                delegations: vec![],
            },
            ServedZone {
                apex: "opendns.com".parse().expect("static name"),
                zone: Arc::new(StaticZone::new()),
                delegations: vec![],
            },
            ServedZone {
                apex: "dns-hijack-study.example".parse().expect("static name"),
                zone: Arc::new(probe_zone),
                delegations: vec![],
            },
        ];
        AuthTree { root, world }
    }
}

impl WorldTemplate {
    /// Builds a fresh template, constructing every piece from scratch.
    ///
    /// Campaigns should prefer [`WorldTemplate::shared`]; this constructor
    /// exists for callers that need an isolated copy — notably the
    /// build-cost benchmarks, which measure exactly this work.
    pub fn new() -> WorldTemplate {
        WorldTemplate {
            zonedb: Arc::new(ZoneDb::standard_world()),
            resolvers: locator::default_resolvers().into(),
            root_addrs: locator::baseline::default_root_addrs(),
            auth_tree: Arc::new(AuthTree::standard()),
        }
    }

    /// The process-wide shared template. Built once on first use; every
    /// subsequent scenario build anywhere in the process reuses it.
    pub fn shared() -> Arc<WorldTemplate> {
        static SHARED: OnceLock<Arc<WorldTemplate>> = OnceLock::new();
        Arc::clone(SHARED.get_or_init(|| {
            Arc::new(WorldTemplate {
                zonedb: Arc::new(ZoneDb::standard_world()),
                resolvers: locator::shared_default_resolvers(),
                root_addrs: locator::baseline::default_root_addrs(),
                auth_tree: Arc::new(AuthTree::standard()),
            })
        }))
    }
}

impl Default for WorldTemplate {
    fn default() -> Self {
        WorldTemplate::new()
    }
}

/// Per-brand egress addresses (v4, v6) for public resolver sites.
fn brand_egress(brand: PublicBrand) -> (Ipv4Addr, Ipv6Addr) {
    match brand {
        PublicBrand::Cloudflare => (
            Ipv4Addr::new(172, 68, 1, 1),
            Ipv6Addr::new(0x2400, 0xcb00, 0, 0, 0, 0, 0, 1),
        ),
        PublicBrand::Google => (
            Ipv4Addr::new(172, 253, 226, 35),
            Ipv6Addr::new(0x2404, 0x6800, 0, 0, 0, 0, 0, 0x35),
        ),
        PublicBrand::Quad9 => (
            Ipv4Addr::new(74, 63, 16, 10),
            Ipv6Addr::new(0x2620, 0x171, 0, 0, 0, 0, 0, 0x10),
        ),
        PublicBrand::OpenDns => (
            Ipv4Addr::new(146, 112, 1, 1),
            Ipv6Addr::new(0x2a04, 0xe4c0, 0, 0, 0, 0, 0, 1),
        ),
    }
}

fn brand_of(key: ResolverKey) -> PublicBrand {
    match key {
        ResolverKey::Cloudflare => PublicBrand::Cloudflare,
        ResolverKey::Google => PublicBrand::Google,
        ResolverKey::Quad9 => PublicBrand::Quad9,
        ResolverKey::OpenDns => PublicBrand::OpenDns,
    }
}

impl HomeScenario {
    /// Builds the world against the process-wide shared [`WorldTemplate`].
    pub fn build(&self) -> BuiltScenario {
        self.build_with(&WorldTemplate::shared())
    }

    /// Builds the world, sourcing all immutable shared state from
    /// `template`. Campaign runners hold one `Arc<WorldTemplate>` and call
    /// this per probe so the zone database, resolver table, and root list
    /// are constructed once instead of once per household.
    pub fn build_with(&self, template: &WorldTemplate) -> BuiltScenario {
        self.build_with_scratch(template, SimScratch::default())
    }

    /// Like [`HomeScenario::build_with`], but recycles the container
    /// capacity in `scratch` (recovered from a previous simulator via
    /// [`Simulator::into_scratch`]). Campaign workers use this so each
    /// probe's world is built into already-sized allocations instead of
    /// growing a fresh one from zero.
    pub fn build_with_scratch(&self, template: &WorldTemplate, scratch: SimScratch) -> BuiltScenario {
        let isp = &self.isp;
        let mut sim = Simulator::with_scratch(self.seed, scratch);
        let zonedb = Arc::clone(&template.zonedb);

        // --- Addressing -------------------------------------------------
        let wan_v4 = isp.customer_v4(self.customer_index);
        let probe_v4 = Ipv4Addr::new(192, 168, 1, 100);
        let (wan_v6, lan_v6, probe_v6, lan_prefix_v6) = isp.customer_v6(self.customer_index);
        let home_v6 = self.probe_has_v6;

        // --- Probe ------------------------------------------------------
        // In a double-NAT home the probe lives on the inner LAN
        // (192.168.2.0/24) behind the user's own router.
        let inner_lan_probe_v4 = Ipv4Addr::new(192, 168, 2, 100);
        let effective_probe_v4 =
            if self.inner_router.is_some() { inner_lan_probe_v4 } else { probe_v4 };
        let mut probe_host = Host::new("probe", [IpAddr::V4(effective_probe_v4)]);
        if home_v6 {
            probe_host.add_addr(IpAddr::V6(probe_v6));
        }
        let probe = sim.add_device(Box::new(probe_host));

        // --- CPE ----------------------------------------------------------
        let mut cpe_config = self.cpe_config(wan_v4);
        if home_v6 {
            cpe_config = cpe_config.with_v6(wan_v6, lan_v6, lan_prefix_v6);
            if self.cpe_intercept_v6 {
                if let DnsMode::Interceptor(spec, intercept) = &mut cpe_config.dns {
                    intercept.intercept_v6 = true;
                    spec.upstream_v6 = Some(IpAddr::V6(isp.resolver_v6));
                }
            }
        }
        // The zone database rides along for open-recursive models; for
        // everything else it is an unused Arc clone.
        let cpe =
            sim.add_device(Box::new(CpeDevice::new(cpe_config).with_zonedb(Arc::clone(&zonedb))));

        // --- Optional inner (user) router ---------------------------------
        let inner_node = self.inner_router.as_ref().map(|model| {
            // The inner router's WAN address lives on the outer CPE's LAN;
            // the scenario reuses the probe's usual outer-LAN address for it.
            let mut inner_config = self.cpe_config_for(model, probe_v4);
            inner_config.lan_v4 = Ipv4Addr::new(192, 168, 2, 1);
            inner_config.name = format!("inner-{}", inner_config.name);
            if home_v6 {
                // IPv6 is routed, not NATed: the inner router simply
                // forwards the delegated /64 onward.
                let base = match lan_prefix_v6 {
                    Cidr::V6 { addr, .. } => u128::from(addr),
                    Cidr::V4 { .. } => unreachable!("v6 prefix"),
                };
                inner_config = inner_config.with_v6(
                    Ipv6Addr::from(base + 3),
                    Ipv6Addr::from(base + 2),
                    lan_prefix_v6,
                );
            }
            sim.add_device(CpeDevice::boxed(inner_config))
        });

        // --- ISP resolver -------------------------------------------------
        // Fidelity mode: a real iterative resolver walking packet-level
        // authoritative servers. Otherwise (the fleet-scale default) an
        // instant zone-database recursor.
        let use_iterative =
            self.iterative_isp_resolver && isp.resolver_mode == ResolverMode::Normal;
        let root_auth_v4: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 8);
        let isp_resolver = if use_iterative {
            sim.add_device(resolver_sim::IterativeResolver::boxed(
                format!("{}-resolver", isp.name),
                [IpAddr::V4(isp.resolver_v4), IpAddr::V6(isp.resolver_v6)],
                IpAddr::V4(isp.resolver_egress_v4),
                vec![IpAddr::V4(root_auth_v4)],
                SoftwareProfile::custom(&isp.resolver_version),
            ))
        } else {
            let egress = ResolveCtx {
                egress_v4: Some(isp.resolver_egress_v4),
                egress_v6: Some(isp.resolver_egress_v6),
            };
            let mut resolver = RecursiveResolver::new(
                format!("{}-resolver", isp.name),
                [IpAddr::V4(isp.resolver_v4), IpAddr::V6(isp.resolver_v6)],
                egress,
                Arc::clone(&zonedb),
                SoftwareProfile::custom(&isp.resolver_version),
            );
            match isp.resolver_mode {
                ResolverMode::Normal => {}
                ResolverMode::RefuseAll => resolver.refuse_all = true,
                ResolverMode::NxWildcard(ip) => resolver.nxdomain_wildcard = Some(ip),
            }
            sim.add_device(Box::new(resolver))
        };

        // A middlebox that blocks some resolvers routes their traffic to a
        // dedicated refusing resolver (§4.1.2's "Both" pattern).
        let filter_resolver_v4 =
            Ipv4Addr::from(u32::from(isp.v4_prefix) + (76 << 16) + (76 << 8) + 76);
        let needs_filter_resolver = self
            .middlebox
            .as_ref()
            .map(|m| !m.refused_dsts.is_empty())
            .unwrap_or(false);
        let filter_resolver_node = needs_filter_resolver.then(|| {
            let mut filter = RecursiveResolver::new(
                format!("{}-filter-resolver", isp.name),
                [IpAddr::V4(filter_resolver_v4)],
                ResolveCtx::v4(Ipv4Addr::from(u32::from(isp.v4_prefix) + (76 << 16) + (76 << 8) + 77)),
                Arc::clone(&zonedb),
                SoftwareProfile::custom(&isp.resolver_version),
            );
            filter.refuse_all = true;
            sim.add_device(Box::new(filter))
        });

        // --- Routers --------------------------------------------------------
        // Interface plan:
        //   edge:   0 = home side, 1 = resolver (if in AS), 2 = border
        //   border: 0 = edge, 1 = outside
        //   core:   0 = outside/border side, 1..=4 = sites, 5 = alt resolver
        let home_v4_host = Cidr::host(IpAddr::V4(wan_v4));

        let mut edge = Router::new(format!("{}-edge", isp.name));
        edge.add_addr(IpAddr::V4(Ipv4Addr::from(u32::from(isp.v4_prefix) + 1)));
        edge.routes.add(home_v4_host, IfaceId(0));
        if home_v6 {
            edge.routes.add(lan_prefix_v6, IfaceId(0));
            edge.routes.add(Cidr::host(IpAddr::V6(wan_v6)), IfaceId(0));
        }
        if isp.resolver_in_as {
            edge.routes.add(Cidr::host(IpAddr::V4(isp.resolver_v4)), IfaceId(1));
            edge.routes.add(Cidr::host(IpAddr::V6(isp.resolver_v6)), IfaceId(1));
            edge.routes.add(Cidr::host(IpAddr::V4(isp.resolver_egress_v4)), IfaceId(1));
        }
        edge.routes.add(Cidr::host(IpAddr::V4(filter_resolver_v4)), IfaceId(3));
        edge.routes.add_default_v4(IfaceId(2));
        edge.routes.add_default_v6(IfaceId(2));
        let edge = sim.add_device(Box::new(edge));

        let mut border = Router::new(format!("{}-border", isp.name));
        border.add_addr(IpAddr::V4(Ipv4Addr::from(u32::from(isp.v4_prefix) + 2)));
        border.drop_bogon_destinations(true);
        border.routes.add(isp.v4_cidr(), IfaceId(0));
        border.routes.add(isp.v6_cidr(), IfaceId(0));
        if isp.resolver_in_as {
            border.routes.add(Cidr::host(IpAddr::V4(isp.resolver_v4)), IfaceId(0));
            border.routes.add(Cidr::host(IpAddr::V6(isp.resolver_v6)), IfaceId(0));
            border.routes.add(Cidr::host(IpAddr::V4(isp.resolver_egress_v4)), IfaceId(0));
        }
        border.routes.add_default_v4(IfaceId(1));
        border.routes.add_default_v6(IfaceId(1));
        let border = sim.add_device(Box::new(border));

        let mut core = Router::new("internet-core");
        core.add_addr(IpAddr::V4(Ipv4Addr::new(62, 115, 0, 1)));
        core.routes.add(isp.v4_cidr(), IfaceId(0));
        core.routes.add(isp.v6_cidr(), IfaceId(0));
        core.routes.add(Cidr::host(IpAddr::V4(isp.resolver_egress_v4)), IfaceId(0));
        if !isp.resolver_in_as {
            // The ISP's resolver lives outside the client AS (§6).
            core.routes.add(Cidr::host(IpAddr::V4(isp.resolver_v4)), IfaceId(6));
            core.routes.add(Cidr::host(IpAddr::V6(isp.resolver_v6)), IfaceId(6));
        }
        // Site routes installed below once sites exist.
        let core = sim.add_device(Box::new(core));

        // --- Public resolver sites ------------------------------------------
        let resolvers = &template.resolvers;
        let mut site_nodes = Vec::new();
        for (i, public) in resolvers.iter().enumerate() {
            let brand = brand_of(public.key);
            let (eg4, eg6) = brand_egress(brand);
            let site = PublicResolverSite::boxed(
                brand,
                public.v4.iter().chain(public.v6.iter()).copied(),
                self.region.iata(),
                84,
                ResolveCtx { egress_v4: Some(eg4), egress_v6: Some(eg6) },
                Arc::clone(&zonedb),
            );
            let node = sim.add_device(site);
            site_nodes.push(node);
            let core_router = sim.device_mut::<Router>(core).expect("core is a router");
            for addr in public.v4.iter().chain(public.v6.iter()) {
                core_router.routes.add(Cidr::host(*addr), IfaceId(1 + i));
            }
        }

        // --- Root servers (for the hostname.bind baseline) -------------------
        // One anycast root node answering CHAOS hostname.bind with a
        // root-style identity and refusing recursion, as real roots do.
        let root_addrs = &template.root_addrs;
        let root_node = {
            let mut profile = SoftwareProfile::custom("9.16.15");
            profile.id_server = resolver_sim::ChaosPolicy::Text(format!(
                "a1.{}.root-servers.org",
                self.region.iata().to_ascii_lowercase()
            ));
            let mut root = RecursiveResolver::new(
                "root-server",
                root_addrs.clone(),
                ResolveCtx::v4(Ipv4Addr::new(198, 41, 0, 10)),
                Arc::clone(&zonedb),
                profile,
            );
            root.refuse_all = true;
            let node = sim.add_device(Box::new(root));
            let core_router = sim.device_mut::<Router>(core).expect("core is a router");
            for addr in root_addrs {
                core_router.routes.add(Cidr::host(*addr), IfaceId(7));
            }
            node
        };

        // --- Authoritative tree (iterative-resolver fidelity mode) -----------
        // The zones and every qname in them come pre-built (and interned)
        // from the template; only the server devices are per-probe.
        let auth_nodes = use_iterative.then(|| {
            use resolver_sim::AuthoritativeServer;
            let tree = &template.auth_tree;
            let mut root_auth =
                AuthoritativeServer::new("root-auth", [IpAddr::V4(root_auth_v4)]);
            root_auth.serve(tree.root.clone());
            let root_auth = sim.add_device(root_auth.boxed());

            let mut auth = AuthoritativeServer::new("world-auth", [IpAddr::V4(WORLD_AUTH_V4)]);
            for zone in &tree.world {
                auth.serve(zone.clone());
            }
            let auth = sim.add_device(auth.boxed());

            let core_router = sim.device_mut::<Router>(core).expect("core is a router");
            core_router.routes.add(Cidr::host(IpAddr::V4(root_auth_v4)), IfaceId(8));
            core_router.routes.add(Cidr::host(IpAddr::V4(WORLD_AUTH_V4)), IfaceId(9));
            (root_auth, auth)
        });

        // --- Optional interceptors ------------------------------------------
        let middlebox_node = self.middlebox.as_ref().map(|spec| {
            let redirect_v4 = spec.redirect_v4.as_ref().map(|t| self.redirect_addr(t));
            let redirect_v6 = spec.redirect_v6.as_ref().map(|t| self.redirect_addr_v6(t));
            let mut mb = Router::new(format!("{}-middlebox", isp.name));
            mb.add_addr(IpAddr::V4(Ipv4Addr::from(u32::from(isp.v4_prefix) + 3)));
            mb.routes.add(home_v4_host, IfaceId(0));
            if home_v6 {
                mb.routes.add(lan_prefix_v6, IfaceId(0));
                mb.routes.add(Cidr::host(IpAddr::V6(wan_v6)), IfaceId(0));
            }
            mb.routes.add_default_v4(IfaceId(1));
            mb.routes.add_default_v6(IfaceId(1));
            let mut nat = NatEngine::new();
            if !spec.refused_dsts.is_empty() {
                // Blocked resolvers first (first match wins).
                nat.add_dnat(DnatRule {
                    proto: Proto::Udp,
                    dst_port: 53,
                    exempt_dsts: Vec::new(),
                    match_dsts: spec.refused_dsts.iter().filter(|a| a.is_ipv4()).copied().collect(),
                    to_addr: IpAddr::V4(filter_resolver_v4),
                    to_port: None,
                });
            }
            if let Some(r4) = redirect_v4 {
                nat.add_dnat(DnatRule {
                    proto: Proto::Udp,
                    dst_port: 53,
                    exempt_dsts: spec.exempt_dsts.clone(),
                    match_dsts: spec.match_dsts.iter().filter(|a| a.is_ipv4()).copied().collect(),
                    to_addr: r4,
                    to_port: None,
                });
            }
            if let Some(r6) = redirect_v6 {
                nat.add_dnat(DnatRule {
                    proto: Proto::Udp,
                    dst_port: 53,
                    exempt_dsts: spec.exempt_dsts.clone(),
                    match_dsts: spec.match_dsts.iter().filter(|a| !a.is_ipv4()).copied().collect(),
                    to_addr: r6,
                    to_port: None,
                });
            }
            mb.set_nat(nat, [IfaceId(0)]);
            sim.add_device(Box::new(mb))
        });

        // A beyond-ISP interceptor needs an alternate resolver out in the
        // core (unless it points at an ISP resolver that lives out there).
        let mut alt_resolver_needed = false;
        let beyond_node = self.beyond.as_ref().map(|spec| {
            let redirect = match spec.redirect_v4.as_ref().unwrap_or(&RedirectTarget::IspResolver) {
                RedirectTarget::IspResolver => IpAddr::V4(isp.resolver_v4),
                RedirectTarget::Custom(a) => {
                    alt_resolver_needed = true;
                    *a
                }
            };
            let mut bx = Router::new("beyond-interceptor");
            bx.add_addr(IpAddr::V4(Ipv4Addr::new(185, 194, 112, 1)));
            bx.routes.add(isp.v4_cidr(), IfaceId(0));
            bx.routes.add(isp.v6_cidr(), IfaceId(0));
            bx.routes.add_default_v4(IfaceId(1));
            bx.routes.add_default_v6(IfaceId(1));
            let mut nat = NatEngine::new();
            nat.add_dnat(DnatRule {
                proto: Proto::Udp,
                dst_port: 53,
                exempt_dsts: spec.exempt_dsts.clone(),
                match_dsts: spec.match_dsts.iter().filter(|a| a.is_ipv4()).copied().collect(),
                to_addr: redirect,
                to_port: None,
            });
            bx.set_nat(nat, [IfaceId(0)]);
            sim.add_device(Box::new(bx))
        });

        let alt_resolver_node = if alt_resolver_needed {
            let alt_addr = IpAddr::V4(Ipv4Addr::new(185, 194, 112, 32));
            let node = sim.add_device(RecursiveResolver::boxed(
                "alt-resolver",
                [alt_addr],
                ResolveCtx::v4(Ipv4Addr::new(185, 194, 112, 33)),
                Arc::clone(&zonedb),
                SoftwareProfile::unbound("1.9.0"),
            ));
            let core_router = sim.device_mut::<Router>(core).expect("core is a router");
            core_router.routes.add(Cidr::host(alt_addr), IfaceId(5));
            Some(node)
        } else {
            None
        };

        // ISP resolver placed outside the AS when configured so (§6).
        let resolver_beyond_core = !isp.resolver_in_as;

        // --- Wiring ----------------------------------------------------------
        let ms = SimDuration::from_millis;
        // LAN side: directly cabled, or through a switch when background
        // devices share the LAN.
        let mut background = Vec::new();
        let lan_gateway: (NodeId, IfaceId) = match inner_node {
            Some(inner) => {
                sim.connect((inner, cpe::WAN), (cpe, cpe::LAN), ms(1));
                (inner, cpe::LAN)
            }
            None => (cpe, cpe::LAN),
        };
        if self.background_clients == 0 {
            sim.connect((probe, IfaceId(0)), lan_gateway, ms(1));
        } else {
            let n = self.background_clients as usize;
            let sw = sim.add_device(netsim::Switch::boxed("lan-switch", n + 2));
            sim.connect((probe, IfaceId(0)), (sw, IfaceId(0)), ms(1));
            sim.connect((sw, IfaceId(n + 1)), lan_gateway, ms(1));
            for i in 0..n {
                let addr = Ipv4Addr::new(192, 168, 1, 150 + i as u8);
                let client = sim.add_device(crate::background::BackgroundClient::boxed(
                    format!("iot-{i}"),
                    IpAddr::V4(addr),
                    IpAddr::V4(Ipv4Addr::new(8, 8, 8, 8)),
                    vec![
                        "example.com".parse().expect("static name"),
                        "www.example.com".parse().expect("static name"),
                    ],
                    SimDuration::from_millis(700 + 130 * i as u64),
                    (6000 + i) as u16,
                ));
                sim.connect((client, IfaceId(0)), (sw, IfaceId(1 + i)), ms(1));
                crate::background::start_background(
                    &mut sim,
                    client,
                    SimDuration::from_millis(50 + 90 * i as u64),
                );
                background.push(client);
            }
        }
        let cpe_upstream: (NodeId, IfaceId) = match middlebox_node {
            Some(mb) => {
                sim.connect((cpe, cpe::WAN), (mb, IfaceId(0)), ms(2));
                (mb, IfaceId(1))
            }
            None => (cpe, cpe::WAN),
        };
        sim.connect_faulty(
            cpe_upstream,
            (edge, IfaceId(0)),
            ms(2),
            FaultProfile {
                loss: self.upstream_loss,
                burst: self.upstream_burst,
                duplicate: self.upstream_duplicate,
                late: self.upstream_late,
            },
        );
        if isp.resolver_in_as {
            sim.connect((edge, IfaceId(1)), (isp_resolver, IfaceId(0)), ms(3));
        }
        let border_outside: (NodeId, IfaceId) = match beyond_node {
            Some(bx) => {
                sim.connect((edge, IfaceId(2)), (border, IfaceId(0)), ms(2));
                sim.connect((border, IfaceId(1)), (bx, IfaceId(0)), ms(6));
                (bx, IfaceId(1))
            }
            None => {
                sim.connect((edge, IfaceId(2)), (border, IfaceId(0)), ms(2));
                (border, IfaceId(1))
            }
        };
        sim.connect(border_outside, (core, IfaceId(0)), ms(10));
        for (i, site) in site_nodes.iter().enumerate() {
            sim.connect((core, IfaceId(1 + i)), (*site, IfaceId(0)), ms(5));
        }
        if let Some(alt) = alt_resolver_node {
            sim.connect((core, IfaceId(5)), (alt, IfaceId(0)), ms(4));
        }
        if resolver_beyond_core {
            sim.connect((core, IfaceId(6)), (isp_resolver, IfaceId(0)), ms(12));
        }
        if let Some(filter) = filter_resolver_node {
            sim.connect((edge, IfaceId(3)), (filter, IfaceId(0)), ms(3));
        }
        sim.connect((core, IfaceId(7)), (root_node, IfaceId(0)), ms(6));
        if let Some((root_auth, auth)) = auth_nodes {
            sim.connect((core, IfaceId(8)), (root_auth, IfaceId(0)), ms(7));
            sim.connect((core, IfaceId(9)), (auth, IfaceId(0)), ms(7));
        }

        // --- Outside scanner --------------------------------------------------
        // The WAN-side vantage of the open-DNS taxonomy campaign: a host
        // out in the core, beyond the client AS. Appended after everything
        // else so every pre-existing node id stays stable.
        let scanner_v4 = Ipv4Addr::new(91, 216, 216, 9);
        let scanner = sim.add_device(Host::boxed("scanner", [IpAddr::V4(scanner_v4)]));
        sim.device_mut::<Router>(core)
            .expect("core is a router")
            .routes
            .add(Cidr::host(IpAddr::V4(scanner_v4)), IfaceId(10));
        sim.connect((core, IfaceId(10)), (scanner, IfaceId(0)), ms(8));

        let addrs = ScenarioAddrs {
            probe_v4: effective_probe_v4,
            probe_v6: home_v6.then_some(probe_v6),
            cpe_public_v4: wan_v4,
            cpe_public_v6: home_v6.then_some(wan_v6),
            scanner_v4,
        };
        BuiltScenario {
            sim,
            probe,
            cpe,
            scanner,
            addrs,
            truth: self.truth(),
            expected: self.expected_location(),
            background,
        }
    }

    fn cpe_config(&self, wan_v4: Ipv4Addr) -> CpeConfig {
        self.cpe_config_for(&self.cpe_model.clone(), wan_v4)
    }

    fn cpe_config_for(&self, model: &CpeModelKind, wan_v4: Ipv4Addr) -> CpeConfig {
        let up = IpAddr::V4(self.isp.resolver_v4);
        match model {
            CpeModelKind::Plain => models::plain(wan_v4),
            CpeModelKind::DnsmasqLan { version } => models::dnsmasq_lan(wan_v4, up, version),
            CpeModelKind::OpenWanForwarder { version } => {
                models::open_wan_forwarder(wan_v4, up, version)
            }
            CpeModelKind::OpenWanForwarderNxDomain => {
                models::open_wan_forwarder_nxdomain(wan_v4, up)
            }
            CpeModelKind::Xb6Buggy => models::xb6_buggy(wan_v4, up),
            CpeModelKind::Xb6Healthy => models::xb6_healthy(wan_v4, up),
            CpeModelKind::PiHole { version } => models::pi_hole(wan_v4, up, version),
            CpeModelKind::UnboundInterceptor { version } => {
                models::unbound_interceptor(wan_v4, up, version)
            }
            CpeModelKind::CustomInterceptor { version_string } => {
                models::custom_interceptor(wan_v4, up, version_string)
            }
            CpeModelKind::StealthInterceptor => models::stealth_interceptor(wan_v4, up),
            CpeModelKind::SelectiveAllowed { allowed, version } => {
                models::single_resolver_allowed(wan_v4, up, allowed, version)
            }
            CpeModelKind::SelectiveTargeted { targets, version } => {
                models::single_resolver_targeted(wan_v4, up, targets, version)
            }
            CpeModelKind::TransparentForwarder { version } => {
                models::transparent_forwarder(wan_v4, up, version)
            }
            CpeModelKind::OpenRecursive { version } => models::open_recursive(wan_v4, up, version),
        }
    }

    fn redirect_addr(&self, target: &RedirectTarget) -> IpAddr {
        match target {
            RedirectTarget::IspResolver => IpAddr::V4(self.isp.resolver_v4),
            RedirectTarget::Custom(a) => *a,
        }
    }

    fn redirect_addr_v6(&self, target: &RedirectTarget) -> IpAddr {
        match target {
            RedirectTarget::IspResolver => IpAddr::V6(self.isp.resolver_v6),
            RedirectTarget::Custom(a) => *a,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worked_examples_cover_all_three_verdict_shapes() {
        let examples = HomeScenario::worked_examples();
        let ids: Vec<&str> = examples.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, ["1053", "11992", "21823"]);
        let truths: Vec<GroundTruth> = examples.iter().map(|(_, s)| s.truth()).collect();
        assert_eq!(truths[0], GroundTruth::NotIntercepted);
        assert_eq!(truths[1], GroundTruth::IspMiddlebox);
        assert_eq!(truths[2], GroundTruth::Cpe { version: Some("unbound 1.9.0".into()) });
    }

    #[test]
    fn truth_derivation() {
        assert_eq!(HomeScenario::clean().truth(), GroundTruth::NotIntercepted);
        assert_eq!(
            HomeScenario::xb6_case_study().truth(),
            GroundTruth::Cpe { version: Some("dnsmasq-2.78-xfin".into()) }
        );
        assert_eq!(HomeScenario::isp_middlebox().truth(), GroundTruth::IspMiddlebox);
        let beyond = HomeScenario {
            beyond: Some(MiddleboxSpec {
                redirect_v4: Some(RedirectTarget::Custom("185.194.112.32".parse().unwrap())),
                redirect_v6: None,
                exempt_dsts: vec![],
                match_dsts: vec![],
                refused_dsts: vec![],
            }),
            ..HomeScenario::clean()
        };
        assert_eq!(beyond.truth(), GroundTruth::BeyondIsp);
    }

    #[test]
    fn expected_locations_include_limitations() {
        assert_eq!(HomeScenario::clean().expected_location(), None);
        assert_eq!(
            HomeScenario::xb6_case_study().expected_location(),
            Some(InterceptorLocation::Cpe)
        );
        let stealth = HomeScenario {
            cpe_model: CpeModelKind::StealthInterceptor,
            ..HomeScenario::clean()
        };
        assert_eq!(stealth.expected_location(), Some(InterceptorLocation::WithinIsp));
        let outside = HomeScenario {
            isp: IspProfile { resolver_in_as: false, ..IspProfile::comcast_like() },
            middlebox: Some(MiddleboxSpec::redirect_all_to_isp()),
            ..HomeScenario::clean()
        };
        assert_eq!(outside.expected_location(), Some(InterceptorLocation::BeyondOrUnknown));
    }

    #[test]
    fn build_produces_consistent_addresses() {
        let built = HomeScenario::clean().build();
        assert_eq!(built.addrs.probe_v4, Ipv4Addr::new(192, 168, 1, 100));
        assert!(built.addrs.probe_v6.is_some());
        let cfg = built.locator_config();
        assert_eq!(cfg.cpe_public_v4, Some(IpAddr::V4(built.addrs.cpe_public_v4)));
        assert!(cfg.test_ipv6);
    }

    #[test]
    fn v4_only_home_has_no_v6() {
        let built = HomeScenario { probe_has_v6: false, ..HomeScenario::clean() }.build();
        assert!(built.addrs.probe_v6.is_none());
        assert!(!built.locator_config().test_ipv6);
    }
}
