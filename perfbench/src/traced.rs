//! The traced per-layer run: one thread drives the workload's probes
//! through the layers' public functions — world build, the transport, the
//! locator, the observers, the aggregate fold, the classifier — with a span
//! around every call into a layer.
//!
//! A span's *self* time is its duration minus its child spans. The
//! benchmark's own bookkeeping (simulator counter snapshots and the
//! dns-wire replay) runs in *excluded* sections whose time and allocations
//! are subtracted from every span that encloses them, so the per-probe time
//! the layers are reconciled against is the program's, not the tracer's.

use crate::e2e::{campaign_digest, classification_wrong, classify_digest};
use crate::record::{Metric, ProbeWall};
use crate::sys::alloc_counts;
use crate::workload::{Workload, TOP_N};
use atlas_sim::{
    classify_with_transport, prometheus_exposition, scenario_for, AggregateReport, ClassifySummary,
    DeviceClassification, Fleet, MetricsRegistry, ProbeResult, ProbeSpec, TimingRegistry,
    WALL_PROBE_TOTAL, WALL_WORLD_BUILD,
};
use dns_wire::{MessageView, QueryEncoder, Question};
use interception::{BuiltScenario, ProbeTimingLog, SimTransport, WorldTemplate};
use locator::{
    HijackLocator, LocatorConfig, MetricsFolder, QueryOptions, QueryOutcome, QueryTransport, Step,
    TraceEvent, TraceSink,
};
use netsim::{SimScratch, Simulator};
use serde::Serialize;
use std::cell::RefCell;
use std::hint::black_box;
use std::net::IpAddr;
use std::time::Instant;
use timing::Span;

/// A layer whose calls the tracer times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    /// `scenario_for` → `build_with_scratch` → `SimTransport::with_encoder`,
    /// and recycling the world's containers afterwards.
    Build,
    /// `SimTransport::query`: netsim, cpe and resolver-sim beneath it.
    Query,
    /// `SimTransport::backoff`.
    Backoff,
    /// `HijackLocator::run` / `run_traced`, less the calls it makes into
    /// the transport and the metrics sink.
    Locator,
    /// The metrics observer: sink deliveries and `MetricsRegistry::record`.
    ObserveMetrics,
    /// The timing observer: attaching the log and `TimingRegistry::fold_probe`.
    ObserveTiming,
    /// `AggregateReport::fold` / `ClassifySummary::fold`.
    Fold,
    /// `classify_with_transport`.
    Classify,
}

const LAYERS: usize = 8;

/// Wall time and allocator traffic, as a point or as a difference.
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    ns: u64,
    allocs: u64,
    bytes: u64,
}

impl Cost {
    fn plus(self, other: Cost) -> Cost {
        Cost {
            ns: self.ns + other.ns,
            allocs: self.allocs + other.allocs,
            bytes: self.bytes + other.bytes,
        }
    }

    fn minus(self, other: Cost) -> Cost {
        Cost {
            ns: self.ns.saturating_sub(other.ns),
            allocs: self.allocs.saturating_sub(other.allocs),
            bytes: self.bytes.saturating_sub(other.bytes),
        }
    }
}

struct Frame {
    layer: Option<Layer>,
    sample: bool,
    start: Cost,
    excluded_at_start: Cost,
    children: Cost,
}

#[derive(Default)]
struct LayerStats {
    calls: u64,
    self_cost: Cost,
    samples: Vec<u64>,
}

/// Span bookkeeping for the traced run.
struct Tracer {
    origin: Instant,
    stack: Vec<Frame>,
    layers: [LayerStats; LAYERS],
    excluded: Cost,
    probes: u64,
    probe_total: Cost,
    probe_samples: Vec<u64>,
}

impl Tracer {
    fn new(probes: usize) -> Tracer {
        let mut layers: [LayerStats; LAYERS] = Default::default();
        layers[Layer::Build as usize].samples.reserve(probes);
        layers[Layer::Query as usize].samples.reserve(probes * 40);
        Tracer {
            origin: Instant::now(),
            stack: Vec::with_capacity(8),
            layers,
            excluded: Cost::default(),
            probes: 0,
            probe_total: Cost::default(),
            probe_samples: Vec::with_capacity(probes),
        }
    }

    fn mark(&self) -> Cost {
        let (allocs, bytes) = alloc_counts();
        Cost { ns: self.origin.elapsed().as_nanos() as u64, allocs, bytes }
    }

    fn push(&mut self, layer: Option<Layer>, sample: bool) {
        let start = self.mark();
        self.stack.push(Frame {
            layer,
            sample,
            start,
            excluded_at_start: self.excluded,
            children: Cost::default(),
        });
    }

    /// Opens a span around a call into `layer`; `sample` keeps its
    /// duration for the layer's percentiles.
    fn enter(&mut self, layer: Layer, sample: bool) {
        self.push(Some(layer), sample);
    }

    /// Opens the root span of one probe.
    fn begin_probe(&mut self) {
        self.push(None, true);
    }

    /// Closes the innermost span.
    fn exit(&mut self) {
        let end = self.mark();
        let frame = self.stack.pop().expect("exit matches an enter");
        let excluded = self.excluded.minus(frame.excluded_at_start);
        let inclusive = end.minus(frame.start).minus(excluded);
        let own = inclusive.minus(frame.children);
        if let Some(parent) = self.stack.last_mut() {
            parent.children = parent.children.plus(inclusive);
        }
        match frame.layer {
            Some(layer) => {
                let stats = &mut self.layers[layer as usize];
                stats.self_cost = stats.self_cost.plus(own);
                if frame.sample {
                    stats.calls += 1;
                    stats.samples.push(inclusive.ns);
                }
            }
            None => {
                self.probes += 1;
                self.probe_total = self.probe_total.plus(inclusive);
                self.probe_samples.push(inclusive.ns);
            }
        }
    }

    /// Ends an excluded section that began at `since` (a [`Tracer::mark`]).
    fn exclude_since(&mut self, since: Cost) {
        let end = self.mark();
        self.excluded = self.excluded.plus(end.minus(since));
    }

    fn layer(&self, layer: Layer) -> &LayerStats {
        &self.layers[layer as usize]
    }
}

/// Simulator counters the run reads around each transport call.
#[derive(Debug, Clone, Copy, Default)]
struct SimCounts {
    events: u64,
    delivered: u64,
    dropped: u64,
    duplicated: u64,
}

impl SimCounts {
    fn of(sim: &Simulator) -> SimCounts {
        let stats = sim.stats();
        SimCounts {
            events: stats.events_processed,
            delivered: stats.per_link.iter().map(|l| l.delivered).sum(),
            dropped: stats.packets_dropped,
            duplicated: stats.packets_duplicated,
        }
    }

    fn add_delta(&mut self, before: SimCounts, after: SimCounts) {
        self.events += after.events - before.events;
        self.delivered += after.delivered - before.delivered;
        self.dropped += after.dropped - before.dropped;
        self.duplicated += after.duplicated - before.duplicated;
    }
}

/// Repetitions of each dns-wire operation per replayed query, so one
/// timed interval spans several calls rather than one clock read's worth.
const REPLAY: u32 = 8;

/// One query in this many is replayed through dns-wire: the replay is the
/// benchmark's own work, and a sample keeps the traced run short.
const REPLAY_EVERY: u64 = 8;

/// Counts gathered across the run.
#[derive(Debug, Default)]
struct Counts {
    queries: u64,
    timeouts: u64,
    wrong_source: u64,
    backoffs: u64,
    injected: u64,
    sim: SimCounts,
    wire_encode_ns: u64,
    wire_parse_ns: u64,
    wire_to_message_ns: u64,
    wire_queries: u64,
    wire_responses: u64,
    wire_allocs: u64,
    logical_queries: u64,
    wire_attempts: u64,
    cpe_checks: u64,
    bogon_steps: u64,
    flows: u64,
    hops: u64,
    errors: u64,
}

/// Replays one query's dns-wire work from the benchmark: encoding the
/// question on a warm encoder, then view-parsing and materializing the
/// reply the transport accepted — the same operations the transport runs.
fn replay_wire(
    encoder: &mut QueryEncoder,
    counts: &mut Counts,
    txid: u16,
    question: &Question,
    outcome: &QueryOutcome,
) {
    counts.wire_queries += 1;
    let allocs_before = alloc_counts().0;
    let started = Instant::now();
    for _ in 0..REPLAY {
        black_box(encoder.encode_query(txid, black_box(question)).map(|wire| wire.len()).ok());
    }
    counts.wire_encode_ns += started.elapsed().as_nanos() as u64 / REPLAY as u64;
    counts.wire_allocs += alloc_counts().0 - allocs_before;
    let message = match outcome {
        QueryOutcome::Response(message) | QueryOutcome::WrongSource { message, .. } => message,
        QueryOutcome::Timeout => return,
    };
    let Ok(wire) = message.encode() else { return };
    counts.wire_responses += 1;
    let allocs_before = alloc_counts().0;
    let started = Instant::now();
    for _ in 0..REPLAY {
        black_box(MessageView::parse(black_box(&wire)).is_ok());
    }
    counts.wire_parse_ns += started.elapsed().as_nanos() as u64 / REPLAY as u64;
    let view = MessageView::parse(&wire).expect("the transport accepted this reply");
    let started = Instant::now();
    for _ in 0..REPLAY {
        black_box(view.to_message());
    }
    counts.wire_to_message_ns += started.elapsed().as_nanos() as u64 / REPLAY as u64;
    counts.wire_allocs += alloc_counts().0 - allocs_before;
}

/// The benchmark-side transport: times each call into the real transport
/// and classifies its outcome.
struct TracedTransport<'a> {
    inner: &'a mut SimTransport,
    tracer: &'a RefCell<Tracer>,
    counts: &'a mut Counts,
    encoder: &'a mut QueryEncoder,
}

impl QueryTransport for TracedTransport<'_> {
    fn query(
        &mut self,
        server: IpAddr,
        question: &Question,
        txid: u16,
        opts: QueryOptions,
    ) -> QueryOutcome {
        self.tracer.borrow_mut().enter(Layer::Query, true);
        let outcome = self.inner.query(server, question, txid, opts);
        self.tracer.borrow_mut().exit();
        let since = self.tracer.borrow().mark();
        self.counts.queries += 1;
        match &outcome {
            QueryOutcome::Timeout => self.counts.timeouts += 1,
            QueryOutcome::WrongSource { .. } => self.counts.wrong_source += 1,
            QueryOutcome::Response(_) => {}
        }
        if self.counts.queries.is_multiple_of(REPLAY_EVERY) {
            replay_wire(self.encoder, self.counts, txid, question, &outcome);
        }
        self.tracer.borrow_mut().exclude_since(since);
        outcome
    }

    fn backoff(&mut self, ms: u64) {
        self.tracer.borrow_mut().enter(Layer::Backoff, true);
        self.inner.backoff(ms);
        self.tracer.borrow_mut().exit();
        self.counts.backoffs += 1;
    }

    fn now_us(&self) -> Option<u64> {
        self.inner.now_us()
    }

    fn note_step(&mut self, step: Step) {
        self.inner.note_step(step)
    }
}

/// The benchmark-side trace sink: times each delivery into the metrics
/// observer's folder.
struct TimedSink<'a> {
    inner: MetricsFolder,
    tracer: &'a RefCell<Tracer>,
}

impl TraceSink for TimedSink<'_> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, event: TraceEvent) {
        self.tracer.borrow_mut().enter(Layer::ObserveMetrics, false);
        self.inner.record(event);
        self.tracer.borrow_mut().exit();
    }
}

/// Everything the traced run produced, printed as one JSON line.
#[derive(Debug, Serialize)]
pub struct TraceOutcome {
    /// Probes in the generated fleet.
    pub fleet_size: usize,
    /// Probes traced.
    pub probes: u64,
    /// Probes whose verdict disagrees with simulator truth.
    pub errors: u64,
    /// Fingerprint of the traced aggregate (compare with the campaign's).
    pub digest: String,
    /// The traced loop and the aggregate's finish, bookkeeping included,
    /// in ns: the traced counterpart of an untraced run's measure phase.
    pub traced_ns: u64,
    /// Per-probe traced wall time.
    pub probe_wall: ProbeWall,
    /// The per-layer metrics.
    pub metrics: Vec<Metric>,
}

/// The probe's locator configuration, as the campaign derives it.
fn locator_config(fleet: &Fleet, built: &BuiltScenario) -> LocatorConfig {
    let mut config = built.locator_config();
    config.query_options.attempts = fleet.config.attempts;
    config.query_options.retry_backoff_ms = fleet.config.retry_backoff_ms;
    config
}

/// Per-worker state carried from probe to probe, as the campaign's arena.
#[derive(Default)]
struct Arena {
    encoder: QueryEncoder,
    scratch: SimScratch,
    timing_log: Option<Box<ProbeTimingLog>>,
}

/// The deterministic part of a run, ready to be finished and rendered.
// One value per run: the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum Folded {
    Campaign(AggregateReport, Option<(MetricsRegistry, TimingRegistry)>),
    Classify(ClassifySummary),
}

fn trace_campaign(
    fleet: &Fleet,
    responding: &[&ProbeSpec],
    observed: bool,
    tracer: &RefCell<Tracer>,
    counts: &mut Counts,
) -> Folded {
    let template = WorldTemplate::shared();
    let observers =
        observed.then(|| (MetricsRegistry::new(fleet.config.orgs.len()), TimingRegistry::new()));
    let registry = observers.as_ref().map(|(registry, _)| registry);
    let timing = observers.as_ref().map(|(_, timing)| timing);
    let mut arena = Arena::default();
    let mut wire_encoder = QueryEncoder::new();
    let mut aggregate = AggregateReport::new();
    for &probe in responding {
        tracer.borrow_mut().begin_probe();
        let probe_span = Span::maybe(timing.map(|t| t.wall().histogram(WALL_PROBE_TOTAL)));
        tracer.borrow_mut().enter(Layer::Build, true);
        let built = {
            let _span = Span::maybe(timing.map(|t| t.wall().histogram(WALL_WORLD_BUILD)));
            scenario_for(fleet, probe)
                .build_with_scratch(&template, std::mem::take(&mut arena.scratch))
        };
        let config = locator_config(fleet, &built);
        let expected = built.expected;
        let mut transport = SimTransport::with_encoder(built, std::mem::take(&mut arena.encoder));
        tracer.borrow_mut().exit();
        if timing.is_some() {
            tracer.borrow_mut().enter(Layer::ObserveTiming, false);
            let log = arena.timing_log.take().unwrap_or_else(|| Box::new(ProbeTimingLog::new()));
            transport.attach_timing(log);
            tracer.borrow_mut().exit();
        }

        let since = tracer.borrow().mark();
        let before = SimCounts::of(&transport.scenario.sim);
        tracer.borrow_mut().exclude_since(since);
        tracer.borrow_mut().enter(Layer::Locator, true);
        let mut traced =
            TracedTransport { inner: &mut transport, tracer, counts, encoder: &mut wire_encoder };
        let (report, folder) = if registry.is_some() {
            let mut sink = TimedSink { inner: MetricsFolder::default(), tracer };
            let report = HijackLocator::new(config).run_traced(&mut traced, &mut sink);
            (report, Some(sink.inner))
        } else {
            (HijackLocator::new(config).run(&mut traced), None)
        };
        tracer.borrow_mut().exit();
        // Only the locator's transport calls advance the simulator, so one
        // snapshot on each side of the run attributes every event to them.
        let since = tracer.borrow().mark();
        counts.sim.add_delta(before, SimCounts::of(&transport.scenario.sim));
        counts.injected += transport.queries_injected;
        tracer.borrow_mut().exclude_since(since);
        if let (Some(registry), Some(folder)) = (registry, folder) {
            tracer.borrow_mut().enter(Layer::ObserveMetrics, true);
            registry.record(probe.org, &report, &folder.finish());
            tracer.borrow_mut().exit();
        }

        tracer.borrow_mut().enter(Layer::Build, false);
        arena.encoder = transport.take_encoder();
        let log = transport.take_timing();
        let truth = transport.scenario.truth;
        arena.scratch = transport.scenario.sim.into_scratch();
        tracer.borrow_mut().exit();
        if let (Some(timing), Some(mut log)) = (timing, log) {
            tracer.borrow_mut().enter(Layer::ObserveTiming, true);
            timing.fold_probe(&report, &log);
            log.clear();
            arena.timing_log = Some(log);
            tracer.borrow_mut().exit();
        }
        drop(probe_span);

        counts.note_report(&report, report.location != expected);
        let result = ProbeResult { probe, report, truth, expected };
        tracer.borrow_mut().enter(Layer::Fold, true);
        aggregate.fold(fleet, &result);
        tracer.borrow_mut().exit();
        drop(result);
        tracer.borrow_mut().exit();
    }
    if let Some(registry) = registry {
        registry.record_schedule(responding.len() as u64, responding.len() as u64);
    }
    Folded::Campaign(aggregate, observers)
}

fn trace_classification(
    fleet: &Fleet,
    responding: &[&ProbeSpec],
    tracer: &RefCell<Tracer>,
    counts: &mut Counts,
) -> Folded {
    let template = WorldTemplate::shared();
    let mut arena = Arena::default();
    let mut summary = ClassifySummary::default();
    for &probe in responding {
        tracer.borrow_mut().begin_probe();
        tracer.borrow_mut().enter(Layer::Build, true);
        let scenario = scenario_for(fleet, probe);
        let truth_class = scenario.open_dns_class();
        let built = scenario.build_with_scratch(&template, std::mem::take(&mut arena.scratch));
        let config = locator_config(fleet, &built);
        let expected = built.expected;
        let mut transport = SimTransport::with_encoder(built, std::mem::take(&mut arena.encoder));
        tracer.borrow_mut().exit();

        let since = tracer.borrow().mark();
        let before = SimCounts::of(&transport.scenario.sim);
        tracer.borrow_mut().exclude_since(since);
        tracer.borrow_mut().enter(Layer::Classify, true);
        let device = classify_with_transport(&mut transport, config);
        tracer.borrow_mut().exit();
        let since = tracer.borrow().mark();
        counts.sim.add_delta(before, SimCounts::of(&transport.scenario.sim));
        counts.injected += transport.queries_injected;
        counts.flows += device.flows.len() as u64;
        counts.hops += device.flows.iter().map(|f| f.hops.len() as u64).sum::<u64>();
        tracer.borrow_mut().exclude_since(since);

        tracer.borrow_mut().enter(Layer::Build, false);
        arena.encoder = transport.take_encoder();
        arena.scratch = transport.scenario.sim.into_scratch();
        tracer.borrow_mut().exit();

        let classified = DeviceClassification { probe, truth_class, device };
        counts.note_report(&classified.device.report, classification_wrong(&classified, expected));
        tracer.borrow_mut().enter(Layer::Fold, true);
        summary.fold(&classified);
        tracer.borrow_mut().exit();
        drop(classified);
        tracer.borrow_mut().exit();
    }
    Folded::Classify(summary)
}

impl Counts {
    fn note_report(&mut self, report: &locator::ProbeReport, wrong: bool) {
        self.logical_queries += report.queries_sent as u64;
        self.wire_attempts += report.wire_attempts as u64;
        // Step 2 runs exactly when step 1 finds interception; step 3 leaves
        // its evidence on the report.
        self.cpe_checks += report.intercepted as u64;
        self.bogon_steps += report.bogon.is_some() as u64;
        self.errors += wrong as u64;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Nearest-rank percentile of `samples` (sorted in place).
fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Runs the traced pass over `workload`'s fleet.
pub fn run_traced(workload: Workload, seed: u64, size: usize) -> TraceOutcome {
    let generate_started = Instant::now();
    let fleet = workload.fleet(seed, size);
    let generate_ns = generate_started.elapsed().as_nanos() as u64;
    let responding: Vec<&ProbeSpec> = fleet.responding().collect();
    let tracer = RefCell::new(Tracer::new(responding.len()));
    let mut counts = Counts::default();

    let loop_started = Instant::now();
    let folded = match workload {
        Workload::Pilot => trace_campaign(&fleet, &responding, false, &tracer, &mut counts),
        Workload::Localize => trace_campaign(&fleet, &responding, true, &tracer, &mut counts),
        Workload::Taxonomy => trace_classification(&fleet, &responding, &tracer, &mut counts),
    };
    let finish_started = Instant::now();
    let (finish_ns, render_ns, digest) = match folded {
        Folded::Campaign(aggregate, observers) => {
            let summary = match &observers {
                Some((_, timing)) => aggregate.finish_with_timings(TOP_N, timing.snapshot()),
                None => aggregate.finish(TOP_N),
            };
            let finish_ns = finish_started.elapsed().as_nanos() as u64;
            let metrics = observers.as_ref().map(|(r, t)| (r.snapshot(&fleet.config.orgs), t));
            let render_started = Instant::now();
            let rendered = match &metrics {
                Some((metrics, timing)) => {
                    summary.to_string() + &prometheus_exposition(Some(metrics), Some(*timing))
                }
                None => summary.to_string(),
            };
            black_box(rendered);
            let render_ns = render_started.elapsed().as_nanos() as u64;
            let digest = campaign_digest(&summary, metrics.as_ref().map(|(m, t)| (m, *t)));
            (finish_ns, render_ns, digest)
        }
        Folded::Classify(summary) => {
            let render_started = Instant::now();
            black_box(summary.to_string());
            let render_ns = render_started.elapsed().as_nanos() as u64;
            (0, render_ns, classify_digest(&summary))
        }
    };
    let traced_ns = loop_started.elapsed().as_nanos() as u64 - render_ns;

    let mut tracer = tracer.into_inner();
    let mut build_samples = std::mem::take(&mut tracer.layers[Layer::Build as usize].samples);
    let mut query_samples = std::mem::take(&mut tracer.layers[Layer::Query as usize].samples);
    let mut probe_samples = std::mem::take(&mut tracer.probe_samples);
    let probes = tracer.probes;
    let measured = tracer.probe_total;
    let self_ns = |layer: Layer| tracer.layer(layer).self_cost.ns;
    let share = |ns: u64| ratio(ns, measured.ns);
    let per_probe = |n: u64| ratio(n, probes);
    let layered_ns: u64 = (0..LAYERS).map(|i| tracer.layers[i].self_cost.ns).sum();
    let build = tracer.layer(Layer::Build);
    let query = tracer.layer(Layer::Query);
    let locator_self = tracer.layer(Layer::Locator).self_cost;
    let observe_ns = self_ns(Layer::ObserveMetrics) + self_ns(Layer::ObserveTiming);
    // Queries the transport put on the wire: counted by the transport itself,
    // so also on taxonomy, where the classifier's calls are not wrapped.
    let queries = counts.injected;

    let mut metrics = Vec::new();
    let mut put = |name, value, unit| metrics.push(Metric { name, value, unit });
    put("atlas.fleet.generate_ms", generate_ns as f64 / 1e6, "ms");
    put("interception.build.ns_p50", percentile(&mut build_samples, 0.50) as f64, "ns");
    put("interception.build.ns_p99", percentile(&mut build_samples, 0.99) as f64, "ns");
    put("interception.build.share", share(build.self_cost.ns), "ratio");
    put("interception.build.allocs_per_call", ratio(build.self_cost.allocs, build.calls), "count");
    put("interception.query.per_probe", per_probe(queries), "count");
    put("interception.query.ns_p50", percentile(&mut query_samples, 0.50) as f64, "ns");
    put("interception.query.ns_p99", percentile(&mut query_samples, 0.99) as f64, "ns");
    put("interception.query.share", share(query.self_cost.ns), "ratio");
    put("interception.query.allocs_per_call", ratio(query.self_cost.allocs, query.calls), "count");
    put("interception.query.timeout_share", ratio(counts.timeouts, counts.queries), "ratio");
    put(
        "interception.query.wrong_source_share",
        ratio(counts.wrong_source, counts.queries),
        "ratio",
    );
    put("interception.backoff.per_probe", per_probe(counts.backoffs), "count");
    put("interception.backoff.share", share(self_ns(Layer::Backoff)), "ratio");
    put("netsim.events_per_query", ratio(counts.sim.events, queries), "count");
    put("netsim.delivered_per_query", ratio(counts.sim.delivered, queries), "count");
    put("netsim.dropped_per_query", ratio(counts.sim.dropped, queries), "count");
    put("netsim.duplicated_per_query", ratio(counts.sim.duplicated, queries), "count");
    put("dns_wire.encode_ns", ratio(counts.wire_encode_ns, counts.wire_queries), "ns");
    put("dns_wire.view_parse_ns", ratio(counts.wire_parse_ns, counts.wire_responses), "ns");
    put("dns_wire.to_message_ns", ratio(counts.wire_to_message_ns, counts.wire_responses), "ns");
    let replays = counts.wire_queries * REPLAY as u64;
    put("dns_wire.allocs_per_query", ratio(counts.wire_allocs, replays), "count");
    put("locator.self_ns_per_probe", per_probe(locator_self.ns), "ns");
    put("locator.self_share", share(locator_self.ns), "ratio");
    put("locator.queries_per_probe", per_probe(counts.logical_queries), "count");
    put("locator.attempts_per_query", ratio(counts.wire_attempts, counts.logical_queries), "count");
    put("locator.cpe_check_share", per_probe(counts.cpe_checks), "ratio");
    put("locator.bogon_share", per_probe(counts.bogon_steps), "ratio");
    put("locator.allocs_per_probe", per_probe(locator_self.allocs), "count");
    put("atlas.observe.metrics_ns_per_probe", per_probe(self_ns(Layer::ObserveMetrics)), "ns");
    put("atlas.observe.timing_ns_per_probe", per_probe(self_ns(Layer::ObserveTiming)), "ns");
    put("atlas.observe.share", share(observe_ns), "ratio");
    put("atlas.aggregate.fold_ns_per_probe", per_probe(self_ns(Layer::Fold)), "ns");
    put("atlas.aggregate.finish_ms", finish_ns as f64 / 1e6, "ms");
    put("atlas.report.render_ms", render_ns as f64 / 1e6, "ms");
    put("atlas.classify.ns_per_device", per_probe(self_ns(Layer::Classify)), "ns");
    put("atlas.classify.share", share(self_ns(Layer::Classify)), "ratio");
    put("atlas.classify.flows_per_device", per_probe(counts.flows), "count");
    put("atlas.classify.hops_per_device", per_probe(counts.hops), "count");
    put("trace.allocs_per_probe", per_probe(measured.allocs), "count");
    put("trace.bytes_per_probe", per_probe(measured.bytes), "B");
    let unexplained = measured.ns.saturating_sub(layered_ns);
    put("trace.unexplained_share", share(unexplained), "ratio");
    put("verdict_error_share", per_probe(counts.errors), "ratio");

    let probe_wall = ProbeWall {
        p50_us: percentile(&mut probe_samples, 0.50) / 1000,
        p99_us: percentile(&mut probe_samples, 0.99) / 1000,
        samples: probe_samples.len() as u64,
    };
    TraceOutcome {
        fleet_size: size,
        probes,
        errors: counts.errors,
        digest,
        traced_ns,
        probe_wall,
        metrics,
    }
}
