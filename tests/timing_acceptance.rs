//! Acceptance checks for the latency-observability layer: the paper's
//! "local answers come back fast" signature on a seeded mixed fleet, the
//! thread/batch invariance of every virtual-clock histogram, and the
//! checked-in 200-probe timing expectation CI diffs on every push.

use atlas_sim::{
    classification_fleet, generate, run_campaign_timed, run_classification_timed,
    CampaignOptions, CampaignTimings, FleetConfig, TimingRegistry,
};
use std::path::PathBuf;
use timing::HistogramSnapshot;

/// The core observable the timing layer exists to surface: on a mixed
/// 1k-device open-resolver fleet, devices whose CPE answers locally
/// (DNAT interceptors) return answers with a strictly lower median
/// virtual RTT than devices whose queries traverse the full path to a
/// real recursive — the interception signature from the paper.
#[test]
fn intercepted_devices_answer_strictly_faster_than_clean_path() {
    let fleet = classification_fleet(1000, 1);
    let timing = TimingRegistry::new();
    let summary = run_classification_timed(&fleet, CampaignOptions::new(4), Some(&timing));
    assert!(summary.probes > 0);

    let snap = timing.snapshot();
    let intercepted = snap
        .class("dnat_interceptor")
        .expect("dnat_interceptor class histogram present");
    let clean = snap.class("clean").expect("clean class histogram present");
    assert!(intercepted.count > 0, "no RTT samples for intercepted devices");
    assert!(clean.count > 0, "no RTT samples for clean devices");
    assert!(
        intercepted.p50 < clean.p50,
        "intercepted-class median RTT ({}µs) must be strictly below the \
         clean-path median ({}µs): local answers come back fast",
        intercepted.p50,
        clean.p50
    );
}

/// Every virtual-clock histogram — per phase, per verdict, per class —
/// is a commutative sum of per-query samples, so the snapshot must be
/// bitwise identical at every `(threads, batch_size)` pair, for both
/// the measurement campaign and the classification scan.
#[test]
fn virtual_clock_histograms_are_thread_and_batch_invariant() {
    let fleet = generate(FleetConfig { size: 200, ..FleetConfig::default() });
    let scan_fleet = classification_fleet(200, 3);

    let mut campaign_baseline = None;
    let mut scan_baseline = None;
    for threads in [1usize, 4, 16] {
        for batch_size in [1usize, 7, 64] {
            let options = CampaignOptions { threads, batch_size };

            let timing = TimingRegistry::new();
            run_campaign_timed(&fleet, options, None, None, Some(&timing));
            let virt = timing.snapshot().virtual_clock;
            match &campaign_baseline {
                None => campaign_baseline = Some(virt),
                Some(base) => assert_eq!(
                    &virt, base,
                    "campaign timing diverged at threads={threads} batch={batch_size}"
                ),
            }

            let timing = TimingRegistry::new();
            run_classification_timed(&scan_fleet, options, Some(&timing));
            let virt = timing.snapshot().virtual_clock;
            match &scan_baseline {
                None => scan_baseline = Some(virt),
                Some(base) => assert_eq!(
                    &virt, base,
                    "classification timing diverged at threads={threads} batch={batch_size}"
                ),
            }
        }
    }
}

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(file)
}

/// Zeroes every wall-clock histogram in a `CampaignTimings` snapshot.
/// Wall durations come from `Instant` and vary run to run; the golden
/// locks their *schema* (phase names, field set, units) and the exact
/// values of everything driven by the simulated clock.
fn normalize_wall(mut timings: CampaignTimings) -> CampaignTimings {
    for named in &mut timings.wall_clock.per_phase {
        named.histogram = HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            p50: 0,
            p90: 0,
            p99: 0,
            p999: 0,
            buckets: Vec::new(),
        };
    }
    timings
}

/// Compares a snapshot, wall clock zeroed, with `tests/golden/<file>`.
fn check_timings_golden(file: &str, timing: &TimingRegistry) {
    let fresh = normalize_wall(timing.snapshot());
    let mut rendered = serde_json::to_string_pretty(&fresh).expect("snapshot serializes");
    rendered.push('\n');

    let path = golden_path(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nregenerate with UPDATE_GOLDEN=1 cargo test --test timing_acceptance",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "timings diverged from {}\nif intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test timing_acceptance and review the diff",
        path.display()
    );
}

/// The checked-in expectation must equal what
/// `repro --size 200 --timings-json <path>` writes, after normalizing
/// the wall-clock section: same default seed, same fleet, same bucket
/// layout, same virtual-clock sample counts and percentiles.
#[test]
fn timings_for_a_200_probe_campaign_match_the_checked_in_expectation() {
    let fleet = generate(FleetConfig { size: 200, ..FleetConfig::default() });
    let timing = TimingRegistry::new();
    run_campaign_timed(&fleet, CampaignOptions::new(4), None, None, Some(&timing));
    check_timings_golden("timings_200.json", &timing);
}

/// The same for `repro --classify --size 200 --seed 7 --threads 4
/// --timings-json <path>`: its per-class histograms are built from the
/// flight recorder's flow RTTs, so this pins flow reconstruction's
/// timestamps as well as the scan's phase RTTs.
#[test]
fn timings_for_a_200_device_classification_match_the_checked_in_expectation() {
    let fleet = classification_fleet(200, 7);
    let timing = TimingRegistry::new();
    run_classification_timed(&fleet, CampaignOptions::new(4), Some(&timing));
    check_timings_golden("classify_timings_200.json", &timing);
}
