//! Property tests for the campaign's two observer contracts.
//!
//! Scheduling is an implementation detail: work stealing at any thread
//! count must produce results,
//! ground truth, expectations, and metrics snapshots bitwise identical to
//! a single-threaded run, on fleets with a heavy retry tail where the
//! schedules themselves diverge the most.
//!
//! Observation is a pure read: the packet-level flight recorder must not
//! change a single report, metric, or — across thread counts — per-query
//! hop timeline.

use atlas_sim::{
    generate, run_campaign_captured, run_campaign_configured, run_campaign_timed, AggregateReport,
    CampaignOptions, CampaignTelemetry, Fleet, FleetConfig, MetricsRegistry, ProbeResult,
};
use proptest::prelude::*;

/// A collect-all campaign at `threads` workers, metered into `registry`.
fn metered<'a>(
    fleet: &'a Fleet,
    threads: usize,
    registry: &MetricsRegistry,
) -> Vec<ProbeResult<'a>> {
    run_campaign_configured(fleet, CampaignOptions::new(threads), Some(registry), None)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    #[test]
    fn campaign_is_schedule_invariant(
        seed in any::<u64>(),
        flaky_permille in 200u32..450,
    ) {
        let fleet = generate(FleetConfig {
            size: 140,
            seed,
            flaky_rate: flaky_permille as f64 / 1000.0,
            attempts: 2,
            retry_backoff_ms: 30,
            ..FleetConfig::default()
        });

        let baseline_registry = MetricsRegistry::new(fleet.config.orgs.len());
        let baseline = metered(&fleet, 1, &baseline_registry);
        let baseline_snap = baseline_registry.snapshot(&fleet.config.orgs);
        let baseline_json =
            serde_json::to_string(&baseline_snap).expect("snapshot serializes");

        for threads in [3usize, 7, 16] {
            let registry = MetricsRegistry::new(fleet.config.orgs.len());
            let results = metered(&fleet, threads, &registry);
            prop_assert_eq!(results.len(), baseline.len());
            for (a, b) in results.iter().zip(&baseline) {
                prop_assert_eq!(a.probe.id, b.probe.id);
                prop_assert_eq!(&a.report, &b.report);
                prop_assert_eq!(&a.truth, &b.truth);
                prop_assert_eq!(&a.expected, &b.expected);
            }
            let snap = registry.snapshot(&fleet.config.orgs);
            prop_assert_eq!(&snap, &baseline_snap);
            // The serialized form is what CI diffs — pin it too, so a
            // non-deterministic map ordering can never sneak in.
            prop_assert_eq!(
                &serde_json::to_string(&snap).expect("snapshot serializes"),
                &baseline_json
            );
        }
    }

    #[test]
    fn batched_claims_preserve_results_metrics_and_telemetry(
        seed in any::<u64>(),
        flaky_permille in 200u32..450,
    ) {
        let fleet = generate(FleetConfig {
            size: 120,
            seed,
            flaky_rate: flaky_permille as f64 / 1000.0,
            attempts: 2,
            retry_backoff_ms: 30,
            ..FleetConfig::default()
        });

        let baseline_registry = MetricsRegistry::new(fleet.config.orgs.len());
        let baseline = metered(&fleet, 1, &baseline_registry);
        let baseline_snap = baseline_registry.snapshot(&fleet.config.orgs);
        let baseline_json =
            serde_json::to_string(&baseline_snap).expect("snapshot serializes");
        let n = baseline.len() as u64;

        // The streaming reference: folding the collected baseline must
        // equal what the streaming scheduler produces at every knob.
        let mut reference = AggregateReport::new();
        for r in &baseline {
            reference.fold(&fleet, r);
        }
        let reference_summary = reference.finish(15);

        for batch_size in [1usize, 7, 64] {
            for threads in [1usize, 4, 16] {
                let options = CampaignOptions { threads, batch_size };

                // Collected results: bitwise identical to the baseline.
                let registry = MetricsRegistry::new(fleet.config.orgs.len());
                let telemetry = CampaignTelemetry::new(threads);
                let results =
                    run_campaign_configured(&fleet, options, Some(&registry), Some(&telemetry));
                prop_assert_eq!(results.len(), baseline.len());
                for (a, b) in results.iter().zip(&baseline) {
                    prop_assert_eq!(a.probe.id, b.probe.id);
                    prop_assert_eq!(&a.report, &b.report);
                    prop_assert_eq!(&a.truth, &b.truth);
                    prop_assert_eq!(&a.expected, &b.expected);
                }

                // Metrics: identical snapshot and serialized form.
                let snap = registry.snapshot(&fleet.config.orgs);
                prop_assert_eq!(&snap, &baseline_snap);
                prop_assert_eq!(
                    &serde_json::to_string(&snap).expect("snapshot serializes"),
                    &baseline_json
                );

                // Telemetry totals: every probe claimed and completed
                // exactly once, in exactly ceil(n / batch) batches.
                let ev = telemetry.snapshot(1_000, true);
                prop_assert_eq!(ev.total, n);
                prop_assert_eq!(ev.claimed, n);
                prop_assert_eq!(ev.completed, n);
                prop_assert_eq!(ev.per_worker_claims.iter().sum::<u64>(), n);
                prop_assert_eq!(
                    telemetry.batches_claimed(),
                    n.div_ceil(batch_size as u64)
                );

                // Streaming fold: same aggregate as folding the baseline.
                let streaming = run_campaign_timed(&fleet, options, None, None, None);
                prop_assert_eq!(streaming.probes(), n);
                prop_assert_eq!(streaming.finish(15), reference_summary.clone());
            }
        }
    }

    #[test]
    fn capture_is_a_pure_observer_at_every_thread_count(
        seed in any::<u64>(),
        flaky_permille in 200u32..450,
    ) {
        let fleet = generate(FleetConfig {
            size: 60,
            seed,
            flaky_rate: flaky_permille as f64 / 1000.0,
            attempts: 2,
            retry_backoff_ms: 30,
            ..FleetConfig::default()
        });

        // Capture off: the reference reports and metrics.
        let off_registry = MetricsRegistry::new(fleet.config.orgs.len());
        let off = metered(&fleet, 1, &off_registry);
        let off_snap = off_registry.snapshot(&fleet.config.orgs);

        // Capture on, single-threaded: bitwise-identical reports and
        // metrics, plus the reference hop timelines.
        let on_registry = MetricsRegistry::new(fleet.config.orgs.len());
        let on = run_campaign_captured(&fleet, 1, Some(&on_registry), None);
        prop_assert_eq!(on.len(), off.len());
        for ((a, flows), b) in on.iter().zip(&off) {
            prop_assert_eq!(a.probe.id, b.probe.id);
            prop_assert_eq!(&a.report, &b.report);
            prop_assert_eq!(&a.truth, &b.truth);
            prop_assert!(!flows.is_empty(), "probe {} captured nothing", a.probe.id);
        }
        prop_assert_eq!(&on_registry.snapshot(&fleet.config.orgs), &off_snap);

        // Capture on at higher thread counts: verdicts, metrics, and the
        // per-query hop timelines all match the single-threaded capture.
        for threads in [4usize, 8] {
            let registry = MetricsRegistry::new(fleet.config.orgs.len());
            let captured = run_campaign_captured(&fleet, threads, Some(&registry), None);
            prop_assert_eq!(captured.len(), on.len());
            for ((a, fa), (b, fb)) in captured.iter().zip(&on) {
                prop_assert_eq!(a.probe.id, b.probe.id);
                prop_assert_eq!(&a.report, &b.report);
                prop_assert!(fa == fb, "probe {} timelines diverged", a.probe.id);
            }
            prop_assert_eq!(&registry.snapshot(&fleet.config.orgs), &off_snap);
        }
    }
}
