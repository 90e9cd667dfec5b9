//! The benchmark's workload generators: deterministic per seed, and the
//! `localize` fleet as specified.

use atlas_sim::{default_catalog, Fleet};
use perfbench::workload::{
    catalog_interceptors, localize_fleet, LOCALIZE_ATTEMPTS, LOCALIZE_BACKOFF_MS,
};
use perfbench::Workload;

fn fingerprint(fleet: &Fleet) -> String {
    serde_json::to_string(&fleet.probes).expect("serialize probes")
}

#[test]
fn every_workload_is_deterministic_for_a_seed() {
    for workload in Workload::ALL {
        let a = workload.fleet(11, 600);
        let b = workload.fleet(11, 600);
        assert_eq!(fingerprint(&a), fingerprint(&b), "{} differs for one seed", workload.name());
        assert_eq!(a.config.attempts, b.config.attempts);
        assert_eq!(a.config.retry_backoff_ms, b.config.retry_backoff_ms);
        let other = workload.fleet(12, 600);
        assert_ne!(fingerprint(&a), fingerprint(&other), "{} ignores its seed", workload.name());
    }
}

#[test]
fn localize_fleet_is_all_intercepting_and_covers_the_catalog() {
    let fleet = localize_fleet(5, 2_000);
    assert_eq!(fleet.probes.len(), 2_000);
    assert!(fleet.probes.iter().all(|p| p.responds && p.flavor.intercepts()));
    for (org, flavor) in catalog_interceptors(&default_catalog()) {
        assert!(
            fleet.probes.iter().any(|p| p.org == org && p.flavor == flavor),
            "catalog interceptor {flavor:?} of org {org} is missing"
        );
    }
    let flaky = fleet.probes.iter().filter(|p| p.flaky).count() as f64 / 2_000.0;
    assert!((0.20..=0.30).contains(&flaky), "flaky share {flaky}");
    assert_eq!(fleet.config.attempts, LOCALIZE_ATTEMPTS);
    assert_eq!(fleet.config.retry_backoff_ms, LOCALIZE_BACKOFF_MS);
}

#[test]
fn localize_fleet_keeps_customer_slots_unique_and_v6_where_needed() {
    let fleet = localize_fleet(9, 1_000);
    let mut slots = std::collections::HashSet::new();
    for probe in &fleet.probes {
        assert!(slots.insert((probe.org, probe.customer_index)));
        if matches!(
            probe.flavor,
            atlas_sim::Flavor::MiddleboxV6Only { .. }
                | atlas_sim::Flavor::MiddleboxBothFamilies { .. }
        ) {
            assert!(probe.has_v6, "probe {} needs v6 to be observable", probe.id);
        }
    }
}

#[test]
fn the_catalog_has_every_kind_of_interceptor() {
    let entries = catalog_interceptors(&default_catalog());
    let has = |pred: fn(&atlas_sim::Flavor) -> bool| entries.iter().any(|(_, f)| pred(f));
    assert!(has(|f| matches!(f, atlas_sim::Flavor::Xb6Buggy)));
    assert!(has(|f| matches!(f, atlas_sim::Flavor::PiHole)));
    assert!(has(|f| matches!(f, atlas_sim::Flavor::CpeDnsmasq { .. })));
    assert!(has(|f| matches!(f, atlas_sim::Flavor::MiddleboxTransparent)));
    assert!(has(|f| matches!(f, atlas_sim::Flavor::MiddleboxV6Only { .. })));
}
