//! The latency observer is a pure read in every campaign mode.
//!
//! Every mode measures its probes through one per-probe routine that
//! attaches a timing log to the transport when a [`TimingRegistry`] is
//! given. Attaching it must not change a single report, ground truth,
//! metric, aggregate or taxonomy summary — at one worker or several.

use atlas_sim::{
    classification_fleet, generate, run_campaign_configured, run_campaign_configured_timed,
    run_campaign_timed, run_classification_streaming, run_classification_timed, CampaignOptions,
    CampaignTimings, FleetConfig, MetricsRegistry, TimingRegistry,
};

const THREADS: [usize; 2] = [1, 4];

/// Samples recorded across every virtual-clock phase histogram, so each
/// check below proves the observer actually ran.
fn virtual_samples(timings: &CampaignTimings) -> u64 {
    timings.virtual_clock.per_phase.iter().map(|n| n.histogram.count).sum()
}

#[test]
fn timing_changes_no_result_in_any_mode() {
    // Flaky upstreams with retries exercise the backoff path too.
    let fleet = generate(FleetConfig {
        size: 120,
        seed: 11,
        flaky_rate: 0.3,
        attempts: 2,
        retry_backoff_ms: 30,
        ..FleetConfig::default()
    });
    let taxonomy = classification_fleet(30, 5);

    for threads in THREADS {
        let options = CampaignOptions::new(threads);

        // Collect-all: reports, truth and metrics with and without timing.
        let off_registry = MetricsRegistry::new(fleet.config.orgs.len());
        let off = run_campaign_configured(&fleet, options, Some(&off_registry), None);
        let on_registry = MetricsRegistry::new(fleet.config.orgs.len());
        let timing = TimingRegistry::new();
        let on =
            run_campaign_configured_timed(&fleet, options, Some(&on_registry), None, Some(&timing));
        assert_eq!(on.len(), off.len());
        for (a, b) in on.iter().zip(&off) {
            assert_eq!(a.probe.id, b.probe.id);
            assert_eq!(a.report, b.report, "timing changed probe {} at {threads}", a.probe.id);
            assert_eq!(a.truth, b.truth);
            assert_eq!(a.expected, b.expected);
        }
        assert_eq!(
            on_registry.snapshot(&fleet.config.orgs),
            off_registry.snapshot(&fleet.config.orgs)
        );
        assert!(virtual_samples(&timing.snapshot()) > 0);

        // Streaming: the aggregate with and without timing.
        let timing = TimingRegistry::new();
        let timed = run_campaign_timed(&fleet, options, None, None, Some(&timing));
        let untimed = run_campaign_timed(&fleet, options, None, None, None);
        assert_eq!(timed, untimed, "timing changed the aggregate at {threads} threads");
        assert!(virtual_samples(&timing.snapshot()) > 0);

        // Classification: the taxonomy summary with and without timing.
        let timing = TimingRegistry::new();
        let timed = run_classification_timed(&taxonomy, options, Some(&timing));
        let untimed = run_classification_streaming(&taxonomy, options);
        assert_eq!(timed, untimed, "timing changed the taxonomy at {threads} threads");
        let snapshot = timing.snapshot();
        assert!(virtual_samples(&snapshot) > 0);
        let class_samples: u64 =
            snapshot.virtual_clock.per_class.iter().map(|n| n.histogram.count).sum();
        assert!(class_samples > 0, "no flow RTT reached a taxonomy class");
    }
}
