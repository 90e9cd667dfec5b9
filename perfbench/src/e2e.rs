//! One untraced end-to-end repetition: set-up, the campaign through the
//! public `atlas-sim` API, aggregation, and rendering — the work a `repro`
//! user waits for.

use crate::record::{digest, ProbeWall};
use crate::sys::{peak_rss_kb, process_cpu_ns};
use crate::workload::{Workload, TOP_N};
use atlas_sim::{
    accuracy, figure3, figure4, prometheus_exposition, retry_stats, run_campaign_configured,
    run_campaign_timed, run_classification, run_classification_streaming, scenario_for, table4,
    table5, CampaignMetrics, CampaignOptions, CampaignSummary, CampaignTelemetry, ClassifySummary,
    DeviceClassification, Fleet, MetricsRegistry, ProbeResult, TimingRegistry,
};
use interception::WorldTemplate;
use locator::InterceptorLocation;
use serde::Serialize;
use std::time::Instant;

/// What one repetition measured, printed as one JSON line.
#[derive(Debug, Clone, Serialize)]
pub struct Rep {
    /// Probes in the generated fleet.
    pub fleet_size: usize,
    /// Probes the campaign attempted (responding probes).
    pub probes: u64,
    /// Probes whose verdict disagrees with simulator truth.
    pub errors: u64,
    /// Fleet generation and world template, up to the first probe claim.
    pub setup_ns: u64,
    /// The measure-and-aggregate phase.
    pub measure_ns: u64,
    /// Set-up through rendered output.
    pub wall_ns: u64,
    /// Process CPU time over the measure-and-aggregate phase.
    pub cpu_ns: u64,
    /// Peak resident set of the process, kB.
    pub peak_rss_kb: u64,
    /// Fingerprint of the deterministic aggregate.
    pub digest: String,
    /// Scheduler per-probe wall latency, when the campaign ran with
    /// telemetry attached.
    pub probe_wall: Option<ProbeWall>,
}

/// Whether a taxonomy device's verdict disagrees with simulator truth: a
/// location other than the expected one, a class other than the planted
/// one, or a capture that does not corroborate the class. A device counts
/// once however many of these it gets wrong.
pub fn classification_wrong(
    c: &DeviceClassification,
    expected: Option<InterceptorLocation>,
) -> bool {
    c.device.report.location != expected || c.device.class != c.truth_class || !c.device.capture_ok
}

/// Taxonomy devices whose verdict disagrees with simulator truth, counted
/// per device by [`classification_wrong`]. The streaming summary keeps only
/// per-class and per-capture counts, so this classifies the fleet again
/// through the collecting API, outside every measured interval.
pub fn classification_errors(fleet: &Fleet, threads: usize) -> u64 {
    let devices = run_classification(fleet, CampaignOptions::new(threads));
    let wrong = devices
        .iter()
        .filter(|c| classification_wrong(c, scenario_for(fleet, c.probe).expected_location()));
    wrong.count() as u64
}

/// Fingerprint of a measurement campaign's deterministic output: the
/// summary without its wall-clock timings, plus the observers'
/// thread-invariant state when they ran.
pub fn campaign_digest(
    summary: &CampaignSummary,
    observers: Option<(&CampaignMetrics, &TimingRegistry)>,
) -> String {
    let mut summary = summary.clone();
    let timings = summary.timings.take();
    let mut text = serde_json::to_string(&summary).expect("serialize summary");
    if let Some((metrics, timing)) = observers {
        text += &serde_json::to_string(metrics).expect("serialize metrics");
        let virtual_clock = timings.unwrap_or_else(|| timing.snapshot()).virtual_clock;
        text += &serde_json::to_string(&virtual_clock).expect("serialize virtual timings");
    }
    digest(&text)
}

/// Fingerprint of a classification campaign's output.
pub fn classify_digest(summary: &ClassifySummary) -> String {
    digest(&serde_json::to_string(summary).expect("serialize classify summary"))
}

/// The paper's tables and figures over collected results — what the
/// batch helpers `repro` calls produce.
pub fn collected_summary(fleet: &atlas_sim::Fleet, results: &[ProbeResult]) -> CampaignSummary {
    CampaignSummary {
        probes: results.len() as u64,
        table4: table4(results),
        table5: table5(results),
        figure3: figure3(fleet, results, TOP_N),
        figure4: figure4(fleet, results, TOP_N),
        accuracy: accuracy(results),
        retry: retry_stats(results),
        timings: None,
    }
}

/// A campaign's finished, deterministic output.
// One value per run: the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum Output {
    /// A measurement campaign's tables, plus its metrics when observed.
    Campaign { summary: CampaignSummary, metrics: Option<CampaignMetrics> },
    /// A classification campaign's taxonomy counts.
    Classify(ClassifySummary),
}

impl Output {
    fn probes(&self) -> u64 {
        match self {
            Output::Campaign { summary, .. } => summary.probes,
            Output::Classify(summary) => summary.probes,
        }
    }

    fn render(&self, timing: Option<&TimingRegistry>) -> String {
        match self {
            Output::Campaign { summary, metrics: None } => summary.to_string(),
            Output::Campaign { summary, metrics: Some(metrics) } => {
                summary.to_string() + &prometheus_exposition(Some(metrics), timing)
            }
            Output::Classify(summary) => summary.to_string(),
        }
    }

    fn digest(&self, timing: Option<&TimingRegistry>) -> String {
        match self {
            Output::Campaign { summary, metrics } => {
                campaign_digest(summary, metrics.as_ref().zip(timing))
            }
            Output::Classify(summary) => classify_digest(summary),
        }
    }
}

/// Runs one repetition of `workload` at `threads` workers. With
/// `telemetry`, the scheduler's per-probe latency is recorded too (the
/// classification API takes no telemetry, so `taxonomy` never has it).
pub fn run_rep(workload: Workload, seed: u64, size: usize, threads: usize, telemetry: bool) -> Rep {
    let started = Instant::now();
    let fleet = workload.fleet(seed, size);
    let _template = WorldTemplate::shared();
    let options = CampaignOptions::new(threads);
    let tel = telemetry.then(|| CampaignTelemetry::new(threads));
    let observers = (workload == Workload::Localize)
        .then(|| (MetricsRegistry::new(fleet.config.orgs.len()), TimingRegistry::new()));
    let setup_ns = started.elapsed().as_nanos() as u64;

    let cpu_before = process_cpu_ns();
    let measure_started = Instant::now();
    let output = match workload {
        Workload::Pilot => {
            let results = run_campaign_configured(&fleet, options, None, tel.as_ref());
            Output::Campaign { summary: collected_summary(&fleet, &results), metrics: None }
        }
        Workload::Localize => {
            let (registry, timing) = observers.as_ref().expect("localize observers");
            let aggregate =
                run_campaign_timed(&fleet, options, Some(registry), tel.as_ref(), Some(timing));
            Output::Campaign {
                summary: aggregate.finish_with_timings(TOP_N, timing.snapshot()),
                metrics: Some(registry.snapshot(&fleet.config.orgs)),
            }
        }
        Workload::Taxonomy => Output::Classify(run_classification_streaming(&fleet, options)),
    };
    let measure_ns = measure_started.elapsed().as_nanos() as u64;
    let cpu_ns = process_cpu_ns() - cpu_before;

    let timing = observers.as_ref().map(|(_, timing)| timing);
    std::hint::black_box(output.render(timing));
    let wall_ns = started.elapsed().as_nanos() as u64;
    // Read before the taxonomy recount, whose collected devices raise it.
    let peak_rss_kb = peak_rss_kb();
    let probe_wall = tel.map(|t| {
        let event = t.snapshot(0, true);
        ProbeWall {
            p50_us: event.probe_wall_p50_us,
            p99_us: event.probe_wall_p99_us,
            samples: event.completed,
        }
    });
    let errors = match &output {
        Output::Campaign { summary, .. } => summary.accuracy.mismatches as u64,
        Output::Classify(_) => classification_errors(&fleet, threads),
    };
    Rep {
        fleet_size: size,
        probes: output.probes(),
        errors,
        setup_ns,
        measure_ns,
        wall_ns,
        cpu_ns,
        peak_rss_kb,
        digest: output.digest(timing),
        probe_wall,
    }
}
