//! The measurement campaign: runs the three-step technique from every
//! responding probe, in parallel, deterministically.
//!
//! Scheduling is work-stealing with **batched claims**: workers take the
//! next [`CampaignOptions::batch_size`] unmeasured probes per `fetch_add`
//! on a shared atomic cursor instead of one probe (or a fixed chunk) at a
//! time. Probe costs are heavily skewed — intercepted probes run extra
//! pipeline steps, flaky probes burn retry backoff — so static chunks
//! leave most workers idle while one drags the tail, and one-probe claims
//! bounce the cursor cache line between cores on every measurement.
//! Batches amortize the contention to one shared write per N probes while
//! staying fine-grained enough to keep the tail balanced.
//!
//! Each worker carries a [`WorkerArena`] from probe to probe: the warm
//! [`QueryEncoder`] scratch plus the recycled simulator containers
//! ([`netsim::SimScratch`]), so a million-probe campaign builds a million
//! worlds into a handful of steady-state allocations per worker instead of
//! growing each world from zero. Every mode — plain, captured, archived,
//! classified — measures its probe through the one routine that builds
//! that world, `run_probe`.
//!
//! Results are keyed by claim index and merged after the joins, so output
//! stays ordered by probe id and bitwise identical across thread counts
//! *and* batch sizes. For campaigns too large to hold every
//! [`ProbeReport`], [`run_campaign_timed`] folds each result into a
//! per-worker [`AggregateReport`] the moment it is measured and merges the
//! per-worker partials at the end — memory stays constant in fleet size,
//! and because every aggregate counter is a commutative sum, the merged
//! aggregate is identical to the collect-then-aggregate path bit for bit.

use crate::aggregate::AggregateReport;
use crate::fleet::{scenario_for, Fleet, ProbeSpec};
use crate::metrics::MetricsRegistry;
use crate::telemetry::CampaignTelemetry;
use crate::timing::{TimingRegistry, WALL_PROBE_TOTAL, WALL_WORLD_BUILD};
use crossbeam::thread;
use dns_wire::QueryEncoder;
use interception::{
    GroundTruth, HomeScenario, ProbeTimingLog, QueryFlow, SimTransport, WorldTemplate,
};
use locator::{
    HijackLocator, InterceptorLocation, LocatorConfig, MetricsFolder, ProbeReport, QueryTransport,
};
use netsim::SimScratch;
use std::sync::atomic::{AtomicUsize, Ordering};
use timing::Span;

/// Scheduling knobs for one campaign run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignOptions {
    /// Worker threads (clamped to the responding-probe count).
    pub threads: usize,
    /// Probes claimed per `fetch_add` on the shared cursor. Larger batches
    /// mean fewer contended atomic writes; smaller batches balance a
    /// heavy-tail fleet better. The default suits both: at ~76µs per probe
    /// a batch of [`CampaignOptions::DEFAULT_BATCH`] costs ~2.4ms — long
    /// enough to amortize the claim, short enough that no worker drags a
    /// meaningful tail. Clamped to at least 1.
    pub batch_size: usize,
}

impl CampaignOptions {
    /// Default probes-per-claim; see [`CampaignOptions::batch_size`].
    pub const DEFAULT_BATCH: usize = 32;

    /// Options for `threads` workers with the default batch size.
    pub fn new(threads: usize) -> CampaignOptions {
        CampaignOptions { threads, batch_size: CampaignOptions::DEFAULT_BATCH }
    }
}

impl Default for CampaignOptions {
    fn default() -> CampaignOptions {
        CampaignOptions::new(1)
    }
}

/// Per-worker reusable state, carried from probe to probe: the warm
/// [`QueryEncoder`] (the fixed location-query set is encoded once per
/// worker, not per probe) and the recycled simulator containers (each
/// probe's world is built into the previous world's allocations).
pub(crate) struct WorkerArena {
    pub(crate) encoder: QueryEncoder,
    pub(crate) scratch: SimScratch,
    /// The worker's recycled timing log (lazily created on the first timed
    /// probe, cleared and reused for every probe after — so timed
    /// steady-state recording allocates nothing).
    pub(crate) timing_log: Option<Box<ProbeTimingLog>>,
}

impl WorkerArena {
    /// A cold arena; it warms up over the worker's first probe.
    pub(crate) fn new() -> WorkerArena {
        WorkerArena {
            encoder: QueryEncoder::new(),
            scratch: SimScratch::default(),
            timing_log: None,
        }
    }
}

/// The outcome of measuring one probe. Borrows its [`ProbeSpec`] from the
/// fleet rather than cloning it: a 10k-probe campaign allocates reports,
/// not another copy of the fleet.
#[derive(Debug, Clone)]
pub struct ProbeResult<'a> {
    /// The probe that was measured.
    pub probe: &'a ProbeSpec,
    /// The locator's report.
    pub report: ProbeReport,
    /// Simulator ground truth.
    pub truth: GroundTruth,
    /// What the technique was expected to conclude.
    pub expected: Option<InterceptorLocation>,
}

/// Runs the full campaign. Results come back ordered by probe id; the
/// computation is embarrassingly parallel and each probe's world is seeded
/// independently, so thread count does not affect the outcome.
pub fn run_campaign(fleet: &Fleet, threads: usize) -> Vec<ProbeResult<'_>> {
    run_campaign_configured(fleet, CampaignOptions::new(threads), None, None)
}

/// [`run_campaign`] with the full set of scheduling knobs
/// ([`CampaignOptions`]: thread count and probes-per-claim batch size) and
/// two optional observers. A `registry` aggregates per-probe metrics as
/// workers finish each probe; because it only ever adds commutative
/// counters, the aggregate — like the results themselves — is independent
/// of thread count. A `telemetry` handle gets the claim/completion
/// counters bumped as workers go, so a monitor thread can render progress
/// while the campaign runs; those are relaxed atomic increments off the
/// simulator's path. Results are bitwise identical for every
/// `(threads, batch_size)` pair, with either observer on or off.
pub fn run_campaign_configured<'a>(
    fleet: &'a Fleet,
    options: CampaignOptions,
    registry: Option<&MetricsRegistry>,
    telemetry: Option<&CampaignTelemetry>,
) -> Vec<ProbeResult<'a>> {
    run_campaign_configured_timed(fleet, options, registry, telemetry, None)
}

/// [`run_campaign_configured`] with the latency observer attached (the
/// collect-all counterpart of [`run_campaign_timed`]): per-probe results
/// come back as usual while RTT and wall-phase samples fold into
/// `timing`. With `timing` absent this *is* [`run_campaign_configured`].
pub fn run_campaign_configured_timed<'a>(
    fleet: &'a Fleet,
    options: CampaignOptions,
    registry: Option<&MetricsRegistry>,
    telemetry: Option<&CampaignTelemetry>,
    timing: Option<&TimingRegistry>,
) -> Vec<ProbeResult<'a>> {
    let responding: Vec<&ProbeSpec> = fleet.responding().collect();
    let template = WorldTemplate::shared();
    let results = run_collected(&responding, options, telemetry, |probe, arena| {
        measure_probe_with(fleet, probe, registry, &template, arena, timing)
    });
    record_schedule(registry, results.len());
    results
}

/// Runs the campaign without ever holding more than one [`ProbeResult`]
/// per worker: each result is folded into the worker's private
/// [`AggregateReport`] the moment it is measured, and the per-worker
/// partials are merged when the workers join. Campaign memory is therefore
/// constant in fleet size — this is the entry point for million-probe
/// runs, where a collect-all `Vec<ProbeResult>` would not fit.
///
/// Every aggregate counter is a commutative, order-independent sum, so the
/// returned aggregate is bitwise identical to aggregating the output of
/// [`run_campaign_configured`] — at any thread count or batch size. With
/// `timing` given, every probe's virtual-clock RTTs and wall-clock phase
/// durations fold into it as workers finish; the virtual-clock histograms
/// are commutative sums of per-query samples, so they are bitwise
/// identical at every `(threads, batch_size)` pair too. With `timing`
/// absent there are no clock reads and no logs.
pub fn run_campaign_timed(
    fleet: &Fleet,
    options: CampaignOptions,
    registry: Option<&MetricsRegistry>,
    telemetry: Option<&CampaignTelemetry>,
    timing: Option<&TimingRegistry>,
) -> AggregateReport {
    let responding: Vec<&ProbeSpec> = fleet.responding().collect();
    let template = WorldTemplate::shared();
    let partials = run_work_stealing(
        &responding,
        options,
        telemetry,
        |probe, arena| measure_probe_with(fleet, probe, registry, &template, arena, timing),
        AggregateReport::new,
        |acc, _idx, result| acc.fold(fleet, &result),
    );
    let mut merged = AggregateReport::new();
    for partial in partials {
        merged.merge(partial);
    }
    record_schedule(registry, merged.probes() as usize);
    merged
}

/// Runs the campaign with the packet-level flight recorder on: every
/// probe's simulator captures each hop, and the events are reconstructed
/// into per-query [`QueryFlow`] timelines returned alongside the result.
/// The capture path draws no randomness and schedules nothing, so reports
/// and metrics are bitwise identical to an uncaptured run.
pub fn run_campaign_captured<'a>(
    fleet: &'a Fleet,
    threads: usize,
    registry: Option<&MetricsRegistry>,
    telemetry: Option<&CampaignTelemetry>,
) -> Vec<(ProbeResult<'a>, Vec<QueryFlow>)> {
    let responding: Vec<&ProbeSpec> = fleet.responding().collect();
    let template = WorldTemplate::shared();
    let options = CampaignOptions::new(threads);
    let results = run_collected(&responding, options, telemetry, |probe, arena| {
        let ((report, flows), truth, expected) =
            run_probe(fleet, probe, &template, arena, None, |_, transport, config| {
                transport.enable_capture();
                let report = run_locator(config, transport, registry, probe.org);
                (report, transport.take_flows())
            });
        (ProbeResult { probe, report, truth, expected }, flows)
    });
    record_schedule(registry, results.len());
    results
}

/// Folds the scheduler's (thread-count-invariant) totals into the metrics
/// snapshot: every responding probe is claimed exactly once and completed
/// exactly once, whatever the interleaving.
fn record_schedule(registry: Option<&MetricsRegistry>, measured: usize) {
    if let Some(registry) = registry {
        registry.record_schedule(measured as u64, measured as u64);
    }
}

/// The batched work-stealing scheduler, generic over what a worker does
/// per probe (`measure`) and what it accumulates per worker (`init` /
/// `fold`): workers claim the next `batch_size` unmeasured probes per
/// `fetch_add` on a shared cursor, carry a warm [`WorkerArena`] from probe
/// to probe, and fold each result into a private per-worker accumulator.
/// Returns one accumulator per worker, in worker order.
///
/// The claim interleaving depends on timing, but which probes exist and
/// what each one's measurement produces do not — every probe's world is
/// independently seeded — so any fold whose merge is commutative (or any
/// collect keyed by claim index, as in [`run_collected`]) yields output
/// independent of thread count and batch size.
pub(crate) fn run_work_stealing<'a, R, A, F, I, G>(
    responding: &[&'a ProbeSpec],
    options: CampaignOptions,
    telemetry: Option<&CampaignTelemetry>,
    measure: F,
    init: I,
    fold: G,
) -> Vec<A>
where
    A: Send,
    F: Fn(&'a ProbeSpec, &mut WorkerArena) -> R + Sync,
    I: Fn() -> A + Sync,
    G: Fn(&mut A, usize, R) + Sync,
{
    if responding.is_empty() {
        return Vec::new();
    }
    if let Some(t) = telemetry {
        t.set_total(responding.len() as u64);
    }
    let batch = options.batch_size.max(1);
    let threads = options.threads.clamp(1, responding.len());
    let cursor = AtomicUsize::new(0);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let cursor = &cursor;
                let measure = &measure;
                let init = &init;
                let fold = &fold;
                scope.spawn(move |_| {
                    let mut arena = WorkerArena::new();
                    let mut acc = init();
                    loop {
                        let start = cursor.fetch_add(batch, Ordering::Relaxed);
                        if start >= responding.len() {
                            break;
                        }
                        let end = (start + batch).min(responding.len());
                        if let Some(t) = telemetry {
                            t.note_batch(worker, (end - start) as u64);
                        }
                        for (idx, probe) in
                            responding.iter().enumerate().take(end).skip(start)
                        {
                            let started = telemetry.map(|_| std::time::Instant::now());
                            let result = measure(probe, &mut arena);
                            if let (Some(t), Some(s)) = (telemetry, started) {
                                t.note_probe_us(s.elapsed().as_micros() as u64);
                            }
                            fold(&mut acc, idx, result);
                            if let Some(t) = telemetry {
                                t.note_complete();
                            }
                        }
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign worker panicked"))
            .collect()
    })
    .expect("campaign scope")
}

/// [`run_work_stealing`] specialized to collect every per-probe result:
/// workers accumulate `(claim index, result)` pairs, and the per-worker
/// batches are merged by claim index after the joins — `responding` is
/// id-ordered, so the output is too.
pub(crate) fn run_collected<'a, R, F>(
    responding: &[&'a ProbeSpec],
    options: CampaignOptions,
    telemetry: Option<&CampaignTelemetry>,
    measure: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&'a ProbeSpec, &mut WorkerArena) -> R + Sync,
{
    let batches = run_work_stealing(
        responding,
        options,
        telemetry,
        measure,
        Vec::new,
        |out: &mut Vec<(usize, R)>, idx, result| out.push((idx, result)),
    );
    let mut slots: Vec<Option<R>> = responding.iter().map(|_| None).collect();
    for batch in batches {
        for (idx, result) in batch {
            slots[idx] = Some(result);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every claimed index yields a result"))
        .collect()
}

/// What a per-probe body hands back to [`run_probe`]: its output, through
/// which the timing observer reads the locator report it folds.
pub(crate) trait ProbeOutput {
    /// The probe's locator report.
    fn report(&self) -> &ProbeReport;
}

impl ProbeOutput for ProbeReport {
    fn report(&self) -> &ProbeReport {
        self
    }
}

impl<X> ProbeOutput for (ProbeReport, X) {
    fn report(&self) -> &ProbeReport {
        &self.0
    }
}

/// The one per-probe routine every campaign and classification mode runs.
/// It builds the probe's world from the shared template into the arena's
/// recycled simulator containers and wires a transport over the arena's
/// warm encoder — plus, when `timing` is on, the arena's recycled
/// [`ProbeTimingLog`]. Then it runs the mode's `body` (which sees the
/// scenario, the transport and the locator configuration), folds the
/// filled log into `timing`, and hands the encoder, the log and the spent
/// world's containers back for the worker's next probe. The whole probe
/// and its world build run under wall-clock [`Span`]s; with `timing`
/// absent every span is disabled and no log is attached.
///
/// Returns the body's output with the world's ground truth and the
/// technique's expected verdict; the truth moves out of the consumed
/// scenario, nothing is cloned.
pub(crate) fn run_probe<R: ProbeOutput>(
    fleet: &Fleet,
    probe: &ProbeSpec,
    template: &WorldTemplate,
    arena: &mut WorkerArena,
    timing: Option<&TimingRegistry>,
    body: impl FnOnce(&HomeScenario, &mut SimTransport, LocatorConfig) -> R,
) -> (R, GroundTruth, Option<InterceptorLocation>) {
    let _probe_span = Span::maybe(timing.map(|t| t.wall().histogram(WALL_PROBE_TOTAL)));
    let scenario = scenario_for(fleet, probe);
    let built = {
        let _build_span = Span::maybe(timing.map(|t| t.wall().histogram(WALL_WORLD_BUILD)));
        scenario.build_with_scratch(template, std::mem::take(&mut arena.scratch))
    };
    let mut config = built.locator_config();
    config.query_options.attempts = fleet.config.attempts;
    config.query_options.retry_backoff_ms = fleet.config.retry_backoff_ms;
    let expected = built.expected;
    let mut transport = SimTransport::with_encoder(built, std::mem::take(&mut arena.encoder));
    if timing.is_some() {
        let log = arena.timing_log.take().unwrap_or_else(|| Box::new(ProbeTimingLog::new()));
        transport.attach_timing(log);
    }
    let out = body(&scenario, &mut transport, config);
    arena.encoder = transport.take_encoder();
    if let (Some(t), Some(mut log)) = (timing, transport.take_timing()) {
        t.fold_probe(out.report(), &log);
        log.clear();
        arena.timing_log = Some(log);
    }
    let truth = transport.scenario.truth;
    arena.scratch = transport.scenario.sim.into_scratch();
    (out, truth, expected)
}

/// Measures a single probe.
pub fn measure_probe<'a>(fleet: &Fleet, probe: &'a ProbeSpec) -> ProbeResult<'a> {
    measure_probe_with(fleet, probe, None, &WorldTemplate::shared(), &mut WorkerArena::new(), None)
}

/// [`run_probe`] with the locator as the body, metered into `registry`
/// when given: the measurement every campaign entry point without capture
/// makes.
fn measure_probe_with<'a>(
    fleet: &Fleet,
    probe: &'a ProbeSpec,
    registry: Option<&MetricsRegistry>,
    template: &WorldTemplate,
    arena: &mut WorkerArena,
    timing: Option<&TimingRegistry>,
) -> ProbeResult<'a> {
    let (report, truth, expected) =
        run_probe(fleet, probe, template, arena, timing, |_, transport, config| {
            run_locator(config, transport, registry, probe.org)
        });
    ProbeResult { probe, report, truth, expected }
}

/// Runs the locator over any transport, recording metrics when asked.
/// Shared by the live and archiving paths so both always measure — and
/// meter — identically.
fn run_locator<T: QueryTransport>(
    config: LocatorConfig,
    transport: &mut T,
    registry: Option<&MetricsRegistry>,
    org: usize,
) -> ProbeReport {
    match registry {
        None => HijackLocator::new(config).run(transport),
        Some(registry) => {
            let mut folder = MetricsFolder::default();
            let report = HijackLocator::new(config).run_traced(transport, &mut folder);
            registry.record(org, &report, &folder.finish());
            report
        }
    }
}

/// Measures a single probe while archiving every query/response byte —
/// the raw dataset a real measurement study publishes. The locator runs
/// through a [`RecordingTransport`] wrapped around the probe's live
/// transport, so the report is the one [`measure_probe`] gives.
///
/// [`RecordingTransport`]: crate::raw::RecordingTransport
pub fn measure_probe_archived<'a>(
    fleet: &Fleet,
    probe: &'a ProbeSpec,
) -> (ProbeResult<'a>, crate::raw::RawMeasurement) {
    let template = WorldTemplate::shared();
    let mut arena = WorkerArena::new();
    let ((report, measurement), truth, expected) =
        run_probe(fleet, probe, &template, &mut arena, None, |_, transport, config| {
            let mut recording = crate::raw::RecordingTransport::new(transport);
            let report = run_locator(config, &mut recording, None, probe.org);
            (report, recording.into_measurement())
        });
    (ProbeResult { probe, report, truth, expected }, measurement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{generate, FleetConfig};
    use std::sync::OnceLock;

    fn tiny_fleet() -> &'static Fleet {
        static FLEET: OnceLock<Fleet> = OnceLock::new();
        FLEET.get_or_init(|| generate(FleetConfig { size: 120, ..FleetConfig::default() }))
    }

    fn tiny_campaign(threads: usize) -> Vec<ProbeResult<'static>> {
        run_campaign(tiny_fleet(), threads)
    }

    #[test]
    fn campaign_measures_every_responding_probe() {
        let fleet = generate(FleetConfig { size: 120, ..FleetConfig::default() });
        let results = run_campaign(&fleet, 4);
        assert_eq!(results.len(), fleet.responding().count());
        // Ordered by id.
        for pair in results.windows(2) {
            assert!(pair[0].probe.id < pair[1].probe.id);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let a = tiny_campaign(1);
        let b = tiny_campaign(7);
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.probe.id, rb.probe.id);
            assert_eq!(ra.report, rb.report);
        }
    }

    #[test]
    fn metered_campaign_changes_no_report_and_aggregates_every_probe() {
        let fleet = tiny_fleet();
        let registry = MetricsRegistry::new(fleet.config.orgs.len());
        let metered =
            run_campaign_configured(fleet, CampaignOptions::new(4), Some(&registry), None);
        let plain = tiny_campaign(4);
        assert_eq!(metered.len(), plain.len());
        for (a, b) in metered.iter().zip(&plain) {
            assert_eq!(a.report, b.report, "metering must not change probe {}", a.probe.id);
        }
        let snap = registry.snapshot(&fleet.config.orgs);
        assert_eq!(snap.probes as usize, metered.len());
        assert_eq!(
            snap.intercepted as usize,
            metered.iter().filter(|r| r.report.intercepted).count()
        );
        let total_queries: u64 =
            metered.iter().map(|r| r.report.queries_sent as u64).sum();
        let counted: u64 = snap.steps.iter().map(|s| s.queries).sum();
        assert_eq!(counted, total_queries);
        // Location-step latency histograms fill in (sim clocks run).
        assert!(snap.steps[locator::Step::Location.index()].latency.count() > 0);
    }

    #[test]
    fn metered_aggregation_is_thread_count_invariant() {
        let fleet = tiny_fleet();
        let snapshot = |threads: usize| {
            let registry = MetricsRegistry::new(fleet.config.orgs.len());
            run_campaign_configured(fleet, CampaignOptions::new(threads), Some(&registry), None);
            registry.snapshot(&fleet.config.orgs)
        };
        assert_eq!(snapshot(1), snapshot(7));
    }

    #[test]
    fn observed_campaign_counts_every_probe_and_changes_nothing() {
        let fleet = tiny_fleet();
        let telemetry = CampaignTelemetry::new(4);
        let observed =
            run_campaign_configured(fleet, CampaignOptions::new(4), None, Some(&telemetry));
        let plain = tiny_campaign(4);
        assert_eq!(observed.len(), plain.len());
        for (a, b) in observed.iter().zip(&plain) {
            assert_eq!(a.report, b.report, "telemetry must not change probe {}", a.probe.id);
        }
        let n = observed.len() as u64;
        let ev = telemetry.snapshot(1_000, true);
        assert_eq!(ev.total, n);
        assert_eq!(ev.claimed, n);
        assert_eq!(ev.completed, n);
        assert_eq!(ev.per_worker_claims.iter().sum::<u64>(), n);
        // Every worker slot exists even if the clamp idled some.
        assert_eq!(ev.per_worker_claims.len(), 4);
    }

    #[test]
    fn single_thread_campaign_feeds_telemetry() {
        let fleet = tiny_fleet();
        let telemetry = CampaignTelemetry::new(1);
        let results =
            run_campaign_configured(fleet, CampaignOptions::new(1), None, Some(&telemetry));
        let ev = telemetry.snapshot(0, true);
        assert_eq!(ev.completed, results.len() as u64);
        assert_eq!(ev.per_worker_claims, vec![results.len() as u64]);
    }

    #[test]
    fn captured_campaign_matches_uncaptured_reports_and_yields_flows() {
        let fleet = tiny_fleet();
        let registry = MetricsRegistry::new(fleet.config.orgs.len());
        let captured = run_campaign_captured(fleet, 4, Some(&registry), None);
        let plain_registry = MetricsRegistry::new(fleet.config.orgs.len());
        let plain =
            run_campaign_configured(fleet, CampaignOptions::new(4), Some(&plain_registry), None);
        assert_eq!(captured.len(), plain.len());
        for ((a, flows), b) in captured.iter().zip(&plain) {
            assert_eq!(a.report, b.report, "capture must not change probe {}", a.probe.id);
            assert_eq!(a.truth, b.truth);
            assert!(!flows.is_empty(), "probe {} recorded no flows", a.probe.id);
            // The probe's own transactions open at the probe host; other
            // flows (e.g. a CPE's re-keyed upstream forward) may start at
            // the device that minted them.
            assert!(
                flows.iter().any(|f| f.hops.first().is_some_and(|h| &*h.node == "probe")),
                "probe {} has no flow starting at the probe host",
                a.probe.id
            );
        }
        // Metrics — scheduler totals included — are identical too.
        assert_eq!(
            registry.snapshot(&fleet.config.orgs),
            plain_registry.snapshot(&fleet.config.orgs)
        );
    }

    #[test]
    fn captured_flows_are_thread_count_invariant() {
        let fleet = tiny_fleet();
        let one = run_campaign_captured(fleet, 1, None, None);
        let many = run_campaign_captured(fleet, 7, None, None);
        assert_eq!(one.len(), many.len());
        for ((a, fa), (b, fb)) in one.iter().zip(&many) {
            assert_eq!(a.probe.id, b.probe.id);
            assert_eq!(a.report, b.report);
            assert_eq!(fa, fb, "probe {} hop timelines diverged", a.probe.id);
        }
    }

    #[test]
    fn campaign_folds_scheduler_totals_into_metrics() {
        let fleet = tiny_fleet();
        let registry = MetricsRegistry::new(fleet.config.orgs.len());
        let results =
            run_campaign_configured(fleet, CampaignOptions::new(4), Some(&registry), None);
        let snap = registry.snapshot(&fleet.config.orgs);
        assert_eq!(snap.probes_claimed, results.len() as u64);
        assert_eq!(snap.probes_completed, results.len() as u64);
        // Single-probe paths leave the scheduler totals untouched.
        let solo = MetricsRegistry::new(fleet.config.orgs.len());
        let probe = fleet.responding().next().unwrap();
        let template = WorldTemplate::shared();
        measure_probe_with(fleet, probe, Some(&solo), &template, &mut WorkerArena::new(), None);
        let snap = solo.snapshot(&fleet.config.orgs);
        assert_eq!(snap.probes_claimed, 0);
        assert_eq!(snap.probes_completed, 0);
    }

    #[test]
    fn oversubscribed_thread_count_is_clamped_and_identical() {
        // More workers than probes must neither deadlock nor change output.
        let fleet = generate(FleetConfig { size: 24, ..FleetConfig::default() });
        let few = run_campaign(&fleet, 1);
        let many = run_campaign(&fleet, 64);
        assert_eq!(few.len(), many.len());
        for (a, b) in few.iter().zip(&many) {
            assert_eq!(a.report, b.report);
        }
    }

    #[test]
    fn archived_measurement_matches_live_report() {
        let fleet = generate(FleetConfig { size: 60, ..FleetConfig::default() });
        let probe = fleet.responding().next().unwrap();
        let live = measure_probe(&fleet, probe);
        let (archived, measurement) = measure_probe_archived(&fleet, probe);
        assert_eq!(live.report, archived.report);
        assert_eq!(measurement.records.len() as u32, live.report.wire_attempts);
    }

    #[test]
    fn retries_shrink_timeout_cells_without_changing_verdicts() {
        // The acceptance experiment: same fleet, same seeds, attempts=1 vs
        // attempts=3. Retries rescue flaky probes' lost queries (fewer
        // Timeout cells) but never flip an interception verdict — quota
        // probes are loss-free, so their wire traffic is identical.
        let base = FleetConfig { size: 300, flaky_rate: 0.25, ..FleetConfig::default() };
        let fleet_single = generate(base.clone());
        let fleet_retried = generate(FleetConfig { attempts: 3, ..base });
        let single = run_campaign(&fleet_single, 4);
        let retried = run_campaign(&fleet_retried, 4);
        let timeout_cells = |results: &[ProbeResult]| -> usize {
            results
                .iter()
                .flat_map(|r| {
                    r.report.matrix.v4.iter().chain(r.report.matrix.v6.iter()).map(|(_, c)| c)
                })
                .filter(|c| matches!(c, locator::LocationTestResult::Timeout))
                .count()
        };
        let before = timeout_cells(&single);
        let after = timeout_cells(&retried);
        assert!(before > 0, "flaky probes should time out somewhere at attempts=1");
        assert!(after < before, "retries should rescue timeouts: {after} !< {before}");
        assert_eq!(single.len(), retried.len());
        for (a, b) in single.iter().zip(&retried) {
            assert_eq!(a.probe.id, b.probe.id);
            if a.probe.flavor.intercepts() {
                assert_eq!(
                    a.report.location, b.report.location,
                    "quota probe {} changed verdict",
                    a.probe.id
                );
                // An interceptor that *drops* queries still times out on
                // every extra attempt, so only the attempt counters may
                // differ — all evidence and verdicts are identical.
                assert_eq!(a.report.matrix, b.report.matrix);
                assert_eq!(a.report.intercepted, b.report.intercepted);
                assert_eq!(a.report.cpe, b.report.cpe);
                assert_eq!(a.report.bogon, b.report.bogon);
                assert_eq!(a.report.transparency, b.report.transparency);
                assert_eq!(a.report.queries_sent, b.report.queries_sent);
            }
            // Retries can only add evidence, never remove it: nothing that
            // was intercepted at attempts=1 reads clean at attempts=3.
            if a.report.intercepted {
                assert!(b.report.intercepted);
            }
        }
    }

    #[test]
    fn attempts_one_is_bitwise_identical_to_the_default_pipeline() {
        // attempts=1 *is* the single-shot pipeline: an explicit retry
        // budget of one reproduces the default configuration bit for bit,
        // flaky probes included.
        let fleet_default = generate(FleetConfig { size: 150, flaky_rate: 0.3, ..FleetConfig::default() });
        let fleet_explicit = generate(FleetConfig {
            size: 150,
            flaky_rate: 0.3,
            attempts: 1,
            retry_backoff_ms: 40,
            ..FleetConfig::default()
        });
        let a = run_campaign(&fleet_default, 4);
        let b = run_campaign(&fleet_explicit, 4);
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.report, rb.report);
        }
    }

    #[test]
    fn intercepted_truth_implies_detection_for_quota_probes() {
        // Every interceptor the fleet plants is of a kind the technique
        // detects (quota probes never time out), so truth and report agree
        // on the binary question.
        let fleet = generate(FleetConfig { size: 2_000, ..FleetConfig::default() });
        let results = run_campaign(&fleet, 8);
        for r in &results {
            if r.truth.intercepted() {
                assert!(r.report.intercepted, "probe {} flavor {:?}", r.probe.id, r.probe.flavor);
            }
        }
    }
}
