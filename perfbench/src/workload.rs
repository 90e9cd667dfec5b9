//! The benchmark's workloads and the seeded fleets they run on.
//!
//! Every fleet is a pure function of `(seed, size)`: the same arguments give
//! the same probes, flavors, loss settings and per-probe simulator seeds.

use atlas_sim::{classification_fleet, generate, Flavor, Fleet, FleetConfig, OrgSpec, ProbeSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Share of `localize` probes whose upstream link is lossy.
pub const LOCALIZE_FLAKY_RATE: f64 = 0.25;
/// Wire attempts per query on the `localize` workload.
pub const LOCALIZE_ATTEMPTS: u32 = 3;
/// Virtual backoff between `localize` attempts, in milliseconds.
pub const LOCALIZE_BACKOFF_MS: u64 = 100;
/// Ranked bars kept in Figures 3 and 4 (what `repro` renders).
pub const TOP_N: usize = 15;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Tables 4–5 and Figures 3–4 job on a default fleet:
    /// single-shot queries, no observers, collect-all aggregation.
    Pilot,
    /// An all-intercepting fleet with lossy upstreams, retries, both
    /// observers and streaming aggregation: the localization steps 2–3.
    Localize,
    /// The open-DNS taxonomy scan with the flight recorder on.
    Taxonomy,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Pilot, Workload::Localize, Workload::Taxonomy];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pilot => "pilot",
            Workload::Localize => "localize",
            Workload::Taxonomy => "taxonomy",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fleet size one benchmark repetition runs at: the paper's ~10k
    /// probes for `pilot`, and sizes that take about as long per repetition
    /// for the costlier workloads. Short repetitions, many per run, let the
    /// median ride out bursts of load from other tenants of the host.
    pub fn default_size(self) -> usize {
        match self {
            Workload::Pilot => 10_000,
            Workload::Localize => 4_000,
            Workload::Taxonomy => 2_000,
        }
    }

    /// Generates the workload's fleet.
    pub fn fleet(self, seed: u64, size: usize) -> Fleet {
        match self {
            Workload::Pilot => generate(FleetConfig { seed, size, ..FleetConfig::default() }),
            Workload::Localize => localize_fleet(seed, size),
            Workload::Taxonomy => classification_fleet(size, seed),
        }
    }
}

/// Every intercepting `(org index, flavor)` quota entry of the catalog.
pub fn catalog_interceptors(orgs: &[OrgSpec]) -> Vec<(usize, Flavor)> {
    orgs.iter()
        .enumerate()
        .flat_map(|(org, spec)| {
            spec.quotas
                .iter()
                .filter(|(flavor, _)| flavor.intercepts())
                .map(move |(flavor, _)| (org, flavor.clone()))
        })
        .collect()
}

/// Assembles the `localize` fleet: every probe carries one of the catalog's
/// intercepting flavors in the org that plants it (entries are dealt round
/// robin, so each one is present once the fleet is at least as large as
/// the catalog, then shuffled), every probe responds, and a quarter of the
/// probes sit on lossy upstreams.
pub fn localize_fleet(seed: u64, size: usize) -> Fleet {
    let config = FleetConfig {
        size,
        seed,
        respond_rate: 1.0,
        flaky_rate: LOCALIZE_FLAKY_RATE,
        attempts: LOCALIZE_ATTEMPTS,
        retry_backoff_ms: LOCALIZE_BACKOFF_MS,
        ..FleetConfig::default()
    };
    let entries = catalog_interceptors(&config.orgs);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut deal: Vec<usize> = (0..size).map(|i| i % entries.len()).collect();
    deal.shuffle(&mut rng);
    let mut next_customer = vec![0u32; config.orgs.len()];
    let probes = deal
        .into_iter()
        .enumerate()
        .map(|(id, entry)| {
            let (org, flavor) = entries[entry].clone();
            // Flavors that intercept on v6 need v6 connectivity to be seen.
            let needs_v6 = matches!(
                flavor,
                Flavor::MiddleboxV6Only { .. } | Flavor::MiddleboxBothFamilies { .. }
            );
            let has_v6 = needs_v6 || rng.gen::<f64>() < config.orgs[org].v6_rate;
            let flaky = rng.gen::<f64>() < config.flaky_rate;
            let customer_index = next_customer[org];
            next_customer[org] += 1;
            ProbeSpec {
                id: id as u32,
                org,
                flavor,
                has_v6,
                responds: true,
                flaky,
                customer_index,
                sim_seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(id as u64),
            }
        })
        .collect();
    let isps = config.orgs.iter().enumerate().map(|(i, o)| o.isp_profile(i)).collect();
    Fleet { config, probes, isps }
}
