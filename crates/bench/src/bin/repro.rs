//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro --all                 # everything (default fleet: 10,000 probes)
//! repro --table 4 --size 2000 # one artifact, smaller fleet
//! repro --figure 3
//! repro --case xb6            # §5 case-study packet trace
//! repro --appendix a          # Appendix-A baseline comparison
//! repro --json out.json       # machine-readable dump of the campaign
//! repro --classify            # open-DNS taxonomy scan of a mixed fleet
//! ```

use atlas_sim::{
    accuracy, classification_fleet, figure3, figure4, generate, prometheus_exposition,
    retry_stats, run_campaign_configured, run_campaign_configured_timed, run_campaign_timed,
    run_classification_timed, scenario_for, table4, table5,
    CampaignOptions, CampaignTelemetry, Fleet, FleetConfig, MetricsRegistry, ProbeResult,
    ProgressEvent, TimingRegistry,
};
use interception::{
    render_flows, CpeModelKind, HomeScenario, MiddleboxSpec, QueryFlow, SimTransport,
    WorldTemplate,
};
use locator::{
    baseline, default_resolvers, describe_response, HijackLocator, QueryOptions,
    QueryTransport, TxidSequence,
};
use std::net::IpAddr;

/// Counts heap traffic so `--bench-json` can report per-probe allocation
/// costs next to wall clock. One relaxed atomic add per alloc — noise
/// against the cost of the allocation itself, and identical for every
/// code path, so the timed sections stay comparable across runs.
struct CountingAlloc;

static ALLOC_COUNT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static ALLOC_BYTES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        use std::sync::atomic::Ordering;
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        std::alloc::System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Heap allocations of one warm answered location query, counted at the
/// allocator: Cloudflare's `id.server` over IPv4 through the clean home,
/// from the cached encode through every hop and the site's reply to the
/// response the transport accepts in wire form. Both sides are
/// allocation-free; `crates/bench/tests/zero_alloc.rs` pins this same
/// routine at 0 for every resolver and family.
fn warm_answered_query_allocs() -> u64 {
    use std::sync::atomic::Ordering;
    let cloudflare = &default_resolvers()[0];
    let (allocs, outcome) =
        hijack_bench::warm_answered_query_allocs(cloudflare, cloudflare.v4[0], || {
            ALLOC_COUNT.load(Ordering::Relaxed)
        });
    assert!(outcome.response().is_some(), "the clean home answers Cloudflare's location query");
    allocs
}

struct Args {
    table: Option<u32>,
    figure: Option<u32>,
    case: Option<String>,
    appendix: Option<String>,
    all: bool,
    size: usize,
    seed: u64,
    threads: usize,
    batch: usize,
    attempts: u32,
    retry_backoff_ms: u64,
    json: Option<String>,
    archives: Option<String>,
    metrics: Option<String>,
    bench_json: Option<String>,
    bench_probes: Option<usize>,
    bench_mem_probes: Option<usize>,
    capture: bool,
    capture_json: Option<String>,
    progress: bool,
    progress_json: Option<String>,
    classify: bool,
    classify_json: Option<String>,
    metrics_prom: Option<String>,
    timings_json: Option<String>,
}

const USAGE: &str = "usage: repro [--all] [--table N] [--figure N] [--case xb6] \
[--appendix a] [--size N] [--seed N] [--threads N] [--batch N] [--attempts N] \
[--retry-backoff MS] [--json PATH] [--archives PATH] [--metrics PATH] \
[--metrics-prom PATH] [--timings-json PATH] [--bench-json PATH] \
[--bench-probes N] [--bench-mem-probes N] [--capture] [--capture-json PATH] \
[--progress] [--progress-json PATH] [--classify] [--classify-json PATH]";

fn fail(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    if value.is_empty() {
        fail(&format!("{flag} needs a value"));
    }
    value
        .parse()
        .unwrap_or_else(|_| fail(&format!("{flag}: invalid value {value:?}")))
}

fn path_value(flag: &str, value: String) -> String {
    if value.is_empty() {
        fail(&format!("{flag} needs a value"));
    }
    value
}

fn parse_args() -> Args {
    let mut args = Args {
        table: None,
        figure: None,
        case: None,
        appendix: None,
        all: false,
        size: 10_000,
        seed: 0x41544C53,
        threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
        batch: CampaignOptions::DEFAULT_BATCH,
        attempts: 1,
        retry_backoff_ms: 0,
        json: None,
        archives: None,
        metrics: None,
        bench_json: None,
        bench_probes: None,
        bench_mem_probes: None,
        capture: false,
        capture_json: None,
        progress: false,
        progress_json: None,
        classify: false,
        classify_json: None,
        metrics_prom: None,
        timings_json: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_default()
        };
        match argv[i].as_str() {
            "--table" => args.table = Some(parse_value("--table", &take(&mut i))),
            "--figure" => args.figure = Some(parse_value("--figure", &take(&mut i))),
            "--case" => args.case = Some(path_value("--case", take(&mut i))),
            "--appendix" => args.appendix = Some(path_value("--appendix", take(&mut i))),
            "--all" => args.all = true,
            "--size" => args.size = parse_value("--size", &take(&mut i)),
            "--seed" => args.seed = parse_value("--seed", &take(&mut i)),
            "--threads" => args.threads = parse_value("--threads", &take(&mut i)),
            "--batch" => args.batch = parse_value("--batch", &take(&mut i)),
            "--attempts" => args.attempts = parse_value("--attempts", &take(&mut i)),
            "--retry-backoff" => {
                args.retry_backoff_ms = parse_value("--retry-backoff", &take(&mut i))
            }
            "--json" => args.json = Some(path_value("--json", take(&mut i))),
            "--archives" => args.archives = Some(path_value("--archives", take(&mut i))),
            "--metrics" => args.metrics = Some(path_value("--metrics", take(&mut i))),
            "--bench-json" => {
                args.bench_json = Some(path_value("--bench-json", take(&mut i)))
            }
            "--bench-probes" => {
                args.bench_probes = Some(parse_value("--bench-probes", &take(&mut i)))
            }
            "--bench-mem-probes" => {
                args.bench_mem_probes =
                    Some(parse_value("--bench-mem-probes", &take(&mut i)))
            }
            "--capture" => args.capture = true,
            "--capture-json" => {
                args.capture_json = Some(path_value("--capture-json", take(&mut i)))
            }
            "--progress" => args.progress = true,
            "--progress-json" => {
                args.progress_json = Some(path_value("--progress-json", take(&mut i)))
            }
            "--classify" => args.classify = true,
            "--classify-json" => {
                args.classify_json = Some(path_value("--classify-json", take(&mut i)))
            }
            "--metrics-prom" => {
                args.metrics_prom = Some(path_value("--metrics-prom", take(&mut i)))
            }
            "--timings-json" => {
                args.timings_json = Some(path_value("--timings-json", take(&mut i)))
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => fail(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    if args.size == 0 {
        fail("--size must be at least 1");
    }
    if args.threads == 0 {
        fail("--threads must be at least 1");
    }
    if args.batch == 0 {
        fail("--batch must be at least 1");
    }
    if args.bench_probes == Some(0) {
        fail("--bench-probes must be at least 1");
    }
    if args.bench_mem_probes == Some(0) {
        fail("--bench-mem-probes must be at least 1");
    }
    if args.attempts == 0 {
        fail("--attempts must be at least 1");
    }
    if args.table.is_none()
        && args.figure.is_none()
        && args.case.is_none()
        && args.appendix.is_none()
        && args.bench_json.is_none()
        && !args.capture
        && args.capture_json.is_none()
        && !args.classify
        && args.classify_json.is_none()
    {
        args.all = true;
    }
    args
}

fn main() {
    let args = parse_args();
    if args.bench_json.is_some() {
        run_bench_json(&args);
        return;
    }
    let classify_mode = args.classify || args.classify_json.is_some();
    // In classify mode the observability outputs come from the taxonomy
    // scan; otherwise they ride on (and force) the measurement campaign.
    let observing = args.metrics_prom.is_some() || args.timings_json.is_some();
    let needs_campaign = args.all
        || matches!(args.table, Some(4) | Some(5))
        || args.figure.is_some()
        || args.json.is_some()
        || args.archives.is_some()
        || args.metrics.is_some()
        || (observing && !classify_mode);

    if args.all || args.table == Some(1) {
        print_table1();
    }
    if args.all || args.table == Some(2) || args.table == Some(3) {
        print_tables_2_and_3();
    }
    if args.capture || args.capture_json.is_some() {
        print_capture_timelines(args.capture_json.as_deref());
    }
    if args.classify || args.classify_json.is_some() {
        run_classify(&args);
    }

    // Results borrow probe specs from the fleet, so the fleet must outlive
    // them — generate first, then measure.
    let fleet = needs_campaign.then(|| {
        eprintln!(
            "running campaign: {} probes, seed {}, {} threads…",
            args.size, args.seed, args.threads
        );
        generate(FleetConfig {
            size: args.size,
            seed: args.seed,
            attempts: args.attempts,
            retry_backoff_ms: args.retry_backoff_ms,
            ..FleetConfig::default()
        })
    });
    let campaign = fleet.as_ref().map(|fleet| {
        let registry = (args.metrics.is_some() || args.metrics_prom.is_some())
            .then(|| MetricsRegistry::new(fleet.config.orgs.len()));
        let timing = observing.then(TimingRegistry::new);
        let options = CampaignOptions { threads: args.threads, batch_size: args.batch };
        let started = std::time::Instant::now();
        let progress_on = args.progress || args.progress_json.is_some();
        let (results, events) = if progress_on {
            run_campaign_with_progress(
                fleet,
                options,
                registry.as_ref(),
                timing.as_ref(),
                args.progress,
            )
        } else {
            (
                run_campaign_configured_timed(
                    fleet,
                    options,
                    registry.as_ref(),
                    None,
                    timing.as_ref(),
                ),
                Vec::new(),
            )
        };
        eprintln!(
            "campaign done: {} probes measured in {:.1}s",
            results.len(),
            started.elapsed().as_secs_f64()
        );
        if let Some(path) = &args.progress_json {
            write_progress(path, &events);
        }
        (fleet, results, registry, timing)
    });

    if let Some((fleet, results, registry, timing)) = &campaign {
        if args.all || args.table == Some(4) {
            println!("{}", table4(results));
        }
        if args.all || args.table == Some(5) {
            println!("{}", table5(results));
        }
        if args.all || args.figure == Some(3) {
            let fig = figure3(fleet, results, 15);
            println!("{fig}");
            println!("{}", atlas_sim::figure3_chart(&fig));
        }
        if args.all || args.figure == Some(4) {
            let fig = figure4(fleet, results, 15);
            println!("{fig}");
            println!("{}", atlas_sim::figure4_chart(&fig));
        }
        if args.all {
            println!("{}", accuracy(results));
        }
        if args.all || args.attempts > 1 {
            println!("{}", retry_stats(results));
        }
        if let Some(path) = &args.json {
            write_json(path, fleet, results);
        }
        if let Some(path) = &args.archives {
            write_archives(path, fleet, results);
        }
        if let (Some(path), Some(registry)) = (&args.metrics, registry) {
            write_metrics(path, fleet, registry);
        }
        if let Some(path) = &args.metrics_prom {
            let snapshot = registry.as_ref().map(|r| r.snapshot(&fleet.config.orgs));
            write_prom(path, prometheus_exposition(snapshot.as_ref(), timing.as_ref()));
        }
        if let (Some(path), Some(timing)) = (&args.timings_json, timing) {
            write_timings(path, timing);
        }
    }

    if args.all || args.case.as_deref() == Some("xb6") {
        print_xb6_case_study();
    }
    if args.all || args.appendix.as_deref() == Some("a") {
        print_appendix_a();
    }
}

/// Reads this process's resident set size from `/proc/self/status`
/// (`VmRSS`, in kB). Returns 0 where procfs is unavailable, which keeps
/// the memory section well-defined (all growths report 0) off Linux.
fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmRSS:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// The makespan the batched work-stealing schedule induces over measured
/// per-probe costs: workers claim `batch` probes at a time, the earliest
/// -free worker always claims next. This is the wall clock a machine with
/// `threads` free cores would see — reported alongside the measured wall
/// clock so the sweep stays honest on hosts with fewer cores.
fn batched_makespan(costs: &[f64], threads: usize, batch: usize) -> f64 {
    let mut workers = vec![0.0f64; threads.max(1)];
    let mut next = 0;
    while next < costs.len() {
        let free = workers
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite cost"))
            .map(|(i, _)| i)
            .expect("at least one worker");
        let end = (next + batch.max(1)).min(costs.len());
        workers[free] += costs[next..end].iter().sum::<f64>();
        next = end;
    }
    workers.iter().fold(0.0f64, |a, &b| a.max(b))
}

/// `--bench-json`: benchmarks the campaign scheduler end to end on a
/// heavy-tail fleet (25% flaky probes burning retry backoff — the
/// workload where static chunking would leave workers idle) and writes
/// one JSON report with these sections:
///
/// 1. `single_thread` — wall clock of the 1-thread run over the sweep
///    fleet (`--bench-probes`, default `--size`), with a flag for the
///    ≥1.5s floor the scaling sweep needs to be meaningful (the floor
///    was 2s before the allocation-free hot path halved per-probe cost;
///    the committed 40k fleet now covers ~2s);
/// 2. `thread_sweep` — 1/2/4/8/16 threads, each with the measured wall
///    clock *and* the schedule-model seconds from per-probe costs fed
///    through [`batched_makespan`]; `host_cores` is recorded so readers
///    can tell which number is physical on this machine;
/// 3. `world_build` — shared-template vs fresh-template build cost;
/// 4. `memory` — RSS growth of the streaming aggregator vs collect-all
///    over a `--bench-mem-probes` fleet (default 4× the sweep size):
///    streaming must stay flat while collect-all grows with the fleet;
/// 5. `latency` — per-phase p50/p99 from the timing observer riding the
///    warm-up pass: virtual-clock query RTTs (thread-invariant) and
///    wall-clock phase durations (host-specific).
///
/// Timings vary run to run; the *schema* is stable, so CI diffs keys
/// against the committed `BENCH_campaign.json`, never numbers — except
/// the scaling gate, which checks `speedup_vs_single_at_16`.
fn run_bench_json(args: &Args) {
    use std::time::Instant;

    #[derive(serde::Serialize)]
    struct Timing {
        seconds: f64,
        probes_per_sec: f64,
    }
    #[derive(serde::Serialize)]
    struct BenchConfig {
        size: usize,
        responding: usize,
        seed: u64,
        threads: usize,
        batch_size: usize,
        host_cores: usize,
        flaky_rate: f64,
        attempts: u32,
        retry_backoff_ms: u64,
    }
    #[derive(serde::Serialize)]
    struct SingleThread {
        seconds: f64,
        probes_per_sec: f64,
        meets_sweep_floor: bool,
    }
    #[derive(serde::Serialize)]
    struct MeasuredSchedulers {
        single_thread: Timing,
        work_stealing: Timing,
        results_identical: bool,
    }
    #[derive(serde::Serialize)]
    struct SweepEntry {
        threads: usize,
        measured_seconds: f64,
        modeled_seconds: f64,
        speedup_vs_single: f64,
        parallel_efficiency: f64,
    }
    #[derive(serde::Serialize)]
    struct WorldBuild {
        probes: usize,
        fresh_world_us_per_probe: f64,
        shared_template_us_per_probe: f64,
        template_speedup: f64,
    }
    #[derive(serde::Serialize)]
    struct MemPoint {
        probes: usize,
        responding: usize,
        rss_before_kb: u64,
        rss_after_kb: u64,
        rss_growth_kb: i64,
    }
    #[derive(serde::Serialize)]
    struct Memory {
        streaming: Vec<MemPoint>,
        collect_all: Vec<MemPoint>,
        streaming_is_flat: bool,
    }
    #[derive(serde::Serialize)]
    struct PerProbeAllocs {
        probes: usize,
        allocs_per_probe: f64,
        bytes_per_probe: f64,
        steady_state_wire_path_allocs: u64,
    }
    #[derive(serde::Serialize)]
    struct PhaseLatency {
        phase: String,
        samples: u64,
        p50_us: u64,
        p99_us: u64,
    }
    #[derive(serde::Serialize)]
    struct Latency {
        virtual_per_phase: Vec<PhaseLatency>,
        wall_per_phase: Vec<PhaseLatency>,
    }
    #[derive(serde::Serialize)]
    struct BenchReport {
        schema_version: u32,
        config: BenchConfig,
        single_thread: SingleThread,
        per_probe_allocs: PerProbeAllocs,
        measured_schedulers: MeasuredSchedulers,
        thread_sweep: Vec<SweepEntry>,
        speedup_vs_single_at_16: f64,
        world_build: WorldBuild,
        memory: Memory,
        latency: Latency,
    }

    const SWEEP_THREADS: [usize; 5] = [1, 2, 4, 8, 16];

    let path = args.bench_json.as_deref().expect("bench path checked by caller");
    let size = args.bench_probes.unwrap_or(args.size);
    let mem_size = args.bench_mem_probes.unwrap_or_else(|| size.saturating_mul(4).max(1));
    let (seed, threads, batch) = (args.seed, args.threads, args.batch);
    let host_cores =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let bench_fleet = |size: usize| {
        generate(FleetConfig {
            size,
            seed,
            flaky_rate: 0.25,
            attempts: 3,
            retry_backoff_ms: 40,
            ..FleetConfig::default()
        })
    };
    let fleet = bench_fleet(size);
    let responding = fleet.responding().count();
    eprintln!(
        "bench: {size} probes ({responding} responding, heavy tail), \
         {threads} threads, batch {batch}, {host_cores} host cores"
    );

    // Warm the shared template and the allocator before any timed run.
    // The warm pass carries the latency observer: its virtual-clock
    // percentiles are thread-invariant (so they are the exact per-phase
    // RTTs every later run would see), and keeping the observer off the
    // timed runs keeps their wall clocks comparable to older reports.
    let _ = WorldTemplate::shared();
    let warm_options = CampaignOptions { threads, batch_size: batch };
    let warm_timing = TimingRegistry::new();
    let _ = run_campaign_configured_timed(&fleet, warm_options, None, None, Some(&warm_timing));
    let timing_snapshot = warm_timing.snapshot();
    let phase_latency = |named: &[atlas_sim::NamedHistogram]| -> Vec<PhaseLatency> {
        named
            .iter()
            .map(|n| PhaseLatency {
                phase: n.name.clone(),
                samples: n.histogram.count,
                p50_us: n.histogram.p50,
                p99_us: n.histogram.p99,
            })
            .collect()
    };
    let latency = Latency {
        virtual_per_phase: phase_latency(&timing_snapshot.virtual_clock.per_phase),
        wall_per_phase: phase_latency(&timing_snapshot.wall_clock.per_phase),
    };

    // Measured runs at one thread and at the requested thread count.
    let timed = |results: &[ProbeResult], seconds: f64| Timing {
        seconds,
        probes_per_sec: if seconds > 0.0 { results.len() as f64 / seconds } else { 0.0 },
    };
    let run_stealing = |threads: usize| {
        let options = CampaignOptions { threads, batch_size: batch };
        let t = Instant::now();
        let results = run_campaign_configured(&fleet, options, None, None);
        let seconds = t.elapsed().as_secs_f64();
        (results, seconds)
    };
    let alloc_before = {
        use std::sync::atomic::Ordering;
        (ALLOC_COUNT.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed))
    };
    let (single, single_s) = run_stealing(1);
    let alloc_after = {
        use std::sync::atomic::Ordering;
        (ALLOC_COUNT.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed))
    };
    let per_probe_allocs = PerProbeAllocs {
        probes: single.len(),
        allocs_per_probe: (alloc_after.0 - alloc_before.0) as f64 / single.len().max(1) as f64,
        bytes_per_probe: (alloc_after.1 - alloc_before.1) as f64 / single.len().max(1) as f64,
        steady_state_wire_path_allocs: warm_answered_query_allocs(),
    };
    eprintln!(
        "bench: single-thread allocations — {:.0} allocs/probe ({:.0} B/probe), \
         {} per warm answered query",
        per_probe_allocs.allocs_per_probe,
        per_probe_allocs.bytes_per_probe,
        per_probe_allocs.steady_state_wire_path_allocs
    );
    let (stealing, stealing_s) = run_stealing(threads);
    let results_identical = single.len() == stealing.len()
        && stealing.iter().zip(&single).all(|(a, b)| a.report == b.report);
    let meets_floor = single_s >= 1.5;
    eprintln!(
        "bench: single {single_s:.2}s (1.5s sweep floor met: {meets_floor}), \
         work stealing {stealing_s:.2}s (identical results: {results_identical})"
    );
    if !meets_floor {
        eprintln!(
            "bench: warning — single-thread run under the 1.5s sweep floor; \
             pass a \
             larger --bench-probes for a meaningful scaling sweep"
        );
    }

    // Per-probe costs feed the schedule model: on a host with fewer free
    // cores than the sweep asks for (this one has {host_cores}), the
    // measured wall clock cannot improve, so each sweep entry also
    // reports the batched-makespan model over these measured costs — the
    // number a wide-enough machine would see.
    let probes: Vec<_> = fleet.responding().collect();
    let mut costs = Vec::with_capacity(probes.len());
    for probe in &probes {
        let t = Instant::now();
        std::hint::black_box(atlas_sim::measure_probe(&fleet, probe));
        costs.push(t.elapsed().as_secs_f64());
    }
    let modeled_single = batched_makespan(&costs, 1, batch);

    let thread_sweep: Vec<SweepEntry> = SWEEP_THREADS
        .iter()
        .map(|&sweep_threads| {
            let (_, measured_seconds) = run_stealing(sweep_threads);
            let modeled_seconds = batched_makespan(&costs, sweep_threads, batch);
            let speedup = if modeled_seconds > 0.0 {
                modeled_single / modeled_seconds
            } else {
                0.0
            };
            eprintln!(
                "bench: sweep {sweep_threads:>2} threads — measured \
                 {measured_seconds:.2}s, modeled {modeled_seconds:.2}s \
                 ({speedup:.2}x vs single)"
            );
            SweepEntry {
                threads: sweep_threads,
                measured_seconds,
                modeled_seconds,
                speedup_vs_single: speedup,
                parallel_efficiency: speedup / sweep_threads as f64,
            }
        })
        .collect();
    let speedup_at_16 = thread_sweep
        .iter()
        .find(|e| e.threads == 16)
        .map(|e| e.speedup_vs_single)
        .unwrap_or(0.0);

    // Build-cost isolation: the same worlds, built from the shared
    // template vs. from a template re-derived per probe (the old cost).
    let build_probes: Vec<_> = fleet.responding().take(300).collect();
    let shared = WorldTemplate::shared();
    let t = Instant::now();
    for probe in &build_probes {
        std::hint::black_box(scenario_for(&fleet, probe).build_with(&shared));
    }
    let shared_us = t.elapsed().as_micros() as f64 / build_probes.len() as f64;
    let t = Instant::now();
    for probe in &build_probes {
        let fresh = WorldTemplate::new();
        std::hint::black_box(scenario_for(&fleet, probe).build_with(&fresh));
    }
    let fresh_us = t.elapsed().as_micros() as f64 / build_probes.len() as f64;
    eprintln!(
        "bench: world build {shared_us:.0}us/probe shared vs {fresh_us:.0}us/probe fresh"
    );

    // Memory: the streaming aggregator folds each probe into a constant-
    // size report, so campaign RSS must not grow with the fleet; the
    // collect-all path holds every ProbeResult and must grow linearly.
    // Streaming is measured first (ascending sizes, after a warm run) so
    // collect-all's retained pages can't mask it.
    let options = CampaignOptions { threads, batch_size: batch };
    let mem_points = [mem_size.div_ceil(4), mem_size];
    let collect_points = [mem_size.div_ceil(16), mem_size.div_ceil(4)];
    let streaming_point = |size: usize| {
        let fleet = bench_fleet(size);
        let rss_before_kb = rss_kb();
        let report = run_campaign_timed(&fleet, options, None, None, None);
        let rss_after_kb = rss_kb();
        let probes = report.probes() as usize;
        eprintln!(
            "bench: streaming {size} probes ({probes} responding) — RSS \
             {rss_before_kb} -> {rss_after_kb} kB"
        );
        MemPoint {
            probes: size,
            responding: probes,
            rss_before_kb,
            rss_after_kb,
            rss_growth_kb: rss_after_kb as i64 - rss_before_kb as i64,
        }
    };
    let collect_point = |size: usize| {
        let fleet = bench_fleet(size);
        let rss_before_kb = rss_kb();
        let results = run_campaign_configured(&fleet, options, None, None);
        let rss_after_kb = rss_kb();
        let responding = results.len();
        drop(results);
        eprintln!(
            "bench: collect-all {size} probes ({responding} responding) — \
             RSS {rss_before_kb} -> {rss_after_kb} kB"
        );
        MemPoint {
            probes: size,
            responding,
            rss_before_kb,
            rss_after_kb,
            rss_growth_kb: rss_after_kb as i64 - rss_before_kb as i64,
        }
    };
    // Warm arenas and allocator at the small size so the measured growth
    // is steady-state, not first-touch.
    {
        let warm = bench_fleet(mem_points[0]);
        let _ = run_campaign_timed(&warm, options, None, None, None);
    }
    let streaming: Vec<MemPoint> = mem_points.iter().map(|&s| streaming_point(s)).collect();
    let collect_all: Vec<MemPoint> = collect_points.iter().map(|&s| collect_point(s)).collect();
    // Flat means: the full-size streaming run grew RSS by less than a
    // fixed 32 MB allowance — a bound independent of fleet size, where
    // collect-all at 1M probes grows by hundreds of MB.
    let streaming_is_flat =
        streaming.last().map(|p| p.rss_growth_kb <= 32 * 1024).unwrap_or(false);
    eprintln!("bench: streaming_is_flat = {streaming_is_flat}");

    let report = BenchReport {
        schema_version: 5,
        config: BenchConfig {
            size,
            responding,
            seed,
            threads,
            batch_size: batch,
            host_cores,
            flaky_rate: fleet.config.flaky_rate,
            attempts: fleet.config.attempts,
            retry_backoff_ms: fleet.config.retry_backoff_ms,
        },
        single_thread: SingleThread {
            seconds: single_s,
            probes_per_sec: if single_s > 0.0 { single.len() as f64 / single_s } else { 0.0 },
            meets_sweep_floor: meets_floor,
        },
        per_probe_allocs,
        measured_schedulers: MeasuredSchedulers {
            single_thread: timed(&single, single_s),
            work_stealing: timed(&stealing, stealing_s),
            results_identical,
        },
        thread_sweep,
        speedup_vs_single_at_16: speedup_at_16,
        world_build: WorldBuild {
            probes: build_probes.len(),
            fresh_world_us_per_probe: fresh_us,
            shared_template_us_per_probe: shared_us,
            template_speedup: fresh_us / shared_us,
        },
        memory: Memory { streaming, collect_all, streaming_is_flat },
        latency,
    };
    let mut json = serde_json::to_string_pretty(&report).expect("serializable");
    json.push('\n');
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("wrote scheduler benchmark to {path}"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// `--classify`: scans a mixed fleet cycling through all five open-DNS
/// classes and classifies every device via the scanner-vantage decision
/// tree, aggregating per-taxonomy counts, ground-truth agreement, and
/// flight-recorder corroboration through the streaming path.
/// `--classify-json` additionally writes the aggregate as JSON. Exits
/// non-zero if any device disagrees with its planted class or its packet
/// capture — the run doubles as an end-to-end accuracy gate.
fn run_classify(args: &Args) {
    // `--size` defaults to the measurement campaign's 10k; the taxonomy
    // scan is heavier per device (locator run + scanner probes + capture),
    // so cap the default at 1000 — explicit sizes are honored as given.
    let size = if args.size == 10_000 { 1_000 } else { args.size };
    eprintln!(
        "classifying: {size} devices, seed {}, {} threads…",
        args.seed, args.threads
    );
    let fleet = classification_fleet(size, args.seed);
    let options = CampaignOptions { threads: args.threads, batch_size: args.batch };
    let timing =
        (args.timings_json.is_some() || args.metrics_prom.is_some()).then(TimingRegistry::new);
    let started = std::time::Instant::now();
    let summary = run_classification_timed(&fleet, options, timing.as_ref());
    eprintln!(
        "classification done: {} devices in {:.1}s",
        summary.probes,
        started.elapsed().as_secs_f64()
    );
    println!("{summary}");
    if let Some(timing) = &timing {
        if let Some(path) = &args.timings_json {
            write_timings(path, timing);
        }
        if let Some(path) = &args.metrics_prom {
            write_prom(path, prometheus_exposition(None, Some(timing)));
        }
    }
    if let Some(path) = &args.classify_json {
        let mut json = serde_json::to_string_pretty(&summary).expect("serializable");
        json.push('\n');
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("wrote taxonomy aggregate to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if summary.truth_mismatches > 0 || summary.capture_unconfirmed > 0 {
        eprintln!(
            "classification FAILED: {} ground-truth mismatches, {} capture-unconfirmed",
            summary.truth_mismatches, summary.capture_unconfirmed
        );
        std::process::exit(1);
    }
}

/// `--capture`: replays the §3.4 worked examples with the packet-level
/// flight recorder on and prints every DNS transaction's per-hop timeline
/// — ingress/egress at each device, NAT rewrites with before/after
/// tuples, route decisions, fault verdicts, and locally minted answers.
/// `--capture-json` additionally writes the flows as pcap-style JSON.
fn print_capture_timelines(json_path: Option<&str>) {
    #[derive(serde::Serialize)]
    struct ProbeFlows {
        probe: String,
        intercepted: bool,
        flows: Vec<QueryFlow>,
    }
    println!("Flight recorder: per-hop timelines for the §3.4 worked examples");
    let mut all: Vec<ProbeFlows> = Vec::new();
    for (id, scenario) in HomeScenario::worked_examples() {
        let built = scenario.build();
        let config = built.locator_config();
        let mut transport = SimTransport::new(built);
        transport.enable_capture();
        let report = HijackLocator::new(config).run(&mut transport);
        let flows = transport.take_flows();
        println!(
            "\nprobe {id}: intercepted={}, {} transactions recorded",
            report.intercepted,
            flows.len()
        );
        print!("{}", render_flows(&flows));
        all.push(ProbeFlows { probe: id.to_string(), intercepted: report.intercepted, flows });
    }
    if let Some(path) = json_path {
        let mut json = serde_json::to_string_pretty(&all).expect("serializable");
        json.push('\n');
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("wrote capture flows to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Runs the campaign with a monitor thread sampling the scheduler's
/// telemetry every ~200ms. `live` renders a single-line ticker to stderr;
/// the collected [`ProgressEvent`]s are returned for `--progress-json`.
/// The final event always has `done: true` and the finished counts.
fn run_campaign_with_progress<'a>(
    fleet: &'a Fleet,
    options: CampaignOptions,
    registry: Option<&MetricsRegistry>,
    timing: Option<&TimingRegistry>,
    live: bool,
) -> (Vec<ProbeResult<'a>>, Vec<ProgressEvent>) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let telemetry = Arc::new(CampaignTelemetry::new(options.threads));
    let stop = Arc::new(AtomicBool::new(false));
    let monitor = {
        let telemetry = Arc::clone(&telemetry);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let started = std::time::Instant::now();
            let mut events: Vec<ProgressEvent> = Vec::new();
            loop {
                let done = stop.load(Ordering::Acquire);
                let event = telemetry.snapshot(started.elapsed().as_millis() as u64, done);
                if live {
                    // The event's own rate is the campaign average; the
                    // delta against the previous sample is the ticker's
                    // "right now" figure. Both are guarded against zero
                    // elapsed, so the very first sample prints 0.
                    match events.last() {
                        Some(prev) => eprint!(
                            "\r{event}  [{:.0}/s now]",
                            event.interval_probes_per_sec(prev)
                        ),
                        None => eprint!("\r{event}"),
                    }
                }
                events.push(event);
                if done {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
            if live {
                eprintln!();
            }
            events
        })
    };
    let results =
        run_campaign_configured_timed(fleet, options, registry, Some(&telemetry), timing);
    stop.store(true, Ordering::Release);
    let events = monitor.join().expect("progress monitor panicked");
    (results, events)
}

/// Writes the sampled progress events as a JSON array — the
/// machine-readable campaign log behind `--progress-json`.
fn write_progress(path: &str, events: &[ProgressEvent]) {
    let mut json = serde_json::to_string_pretty(events).expect("serializable");
    json.push('\n');
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("wrote {} progress events to {path}", events.len()),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Table 1: location queries and expected responses, measured live against
/// the public resolver models over a clean path.
fn print_table1() {
    println!("Table 1: Location queries and expected responses (clean path)");
    println!("{:<16} {:<10} {:<26} Example Response", "Public Resolver", "Type", "Location Query");
    let mut transport = SimTransport::new(HomeScenario::clean().build());
    let mut txids = TxidSequence::new(0x1000);
    for resolver in default_resolvers() {
        let q = resolver.location_query();
        let qtype = match q.qclass {
            dns_wire::RClass::Chaos => "CHAOS TXT",
            _ => "TXT",
        };
        let out = transport.query(resolver.v4[0], &q, txids.next(), QueryOptions::default());
        let response = out.response().map(describe_response).unwrap_or_else(|| "-".into());
        println!(
            "{:<16} {:<10} {:<26} {}",
            resolver.key.display_name(),
            qtype,
            q.qname.to_string().trim_end_matches('.'),
            response
        );
    }
    println!();
}

/// Tables 2 and 3: the worked example of §3.4 — three probes (clean, ISP
/// middlebox, CPE interceptor), their location-query answers and their
/// version.bind answers.
fn print_tables_2_and_3() {
    // Probe 1053: clean. Probe 11992: ISP middlebox whose resolver answers
    // CHAOS with NOTIMP. Probe 21823: unbound-based CPE interceptor. The
    // same households anchor the golden-trace suite.
    let probes = HomeScenario::worked_examples();

    let resolvers = default_resolvers();
    let cloudflare = &resolvers[0];
    let google = &resolvers[1];

    println!("Table 2: Example responses to IPv4 location queries");
    println!("{:<10} {:<20} {:<20}", "ProbeID", "Cloudflare DNS", "Google DNS");
    let mut transports: Vec<(&str, SimTransport, IpAddr)> = probes
        .into_iter()
        .map(|(id, s)| {
            let built = s.build();
            let cpe_v4 = IpAddr::V4(built.addrs.cpe_public_v4);
            (id, SimTransport::new(built), cpe_v4)
        })
        .collect();
    let mut txids = TxidSequence::new(0x1000);
    for (id, transport, _) in &mut transports {
        let cf = transport
            .query(cloudflare.v4[0], &cloudflare.location_query(), txids.next(), QueryOptions::default())
            .response()
            .map(describe_response)
            .unwrap_or_else(|| "-".into());
        let gg = transport
            .query(google.v4[0], &google.location_query(), txids.next(), QueryOptions::default())
            .response()
            .map(describe_response)
            .unwrap_or_else(|| "-".into());
        println!("{:<10} {:<20} {:<20}", id, cf, gg);
    }
    println!();

    println!("Table 3: Example responses to IPv4 version.bind queries");
    println!("{:<10} {:<20} {:<20} {:<20}", "ProbeID", "Cloudflare DNS", "Google DNS", "CPE Public IP");
    for (id, transport, cpe_v4) in &mut transports {
        if *id == "1053" {
            // The clean probe was not intercepted, so step 2 never runs.
            println!("{:<10} {:<20} {:<20} {:<20}", id, "-", "-", "-");
            continue;
        }
        let vb = dns_wire::Question::chaos_txt(dns_wire::debug_queries::version_bind());
        let mut ask = |server: IpAddr| -> String {
            transport
                .query(server, &vb, txids.next(), QueryOptions::default())
                .response()
                .map(describe_response)
                .unwrap_or_else(|| "-".into())
        };
        let cf = ask(cloudflare.v4[0]);
        let gg = ask(google.v4[0]);
        let cpe = ask(*cpe_v4);
        println!("{:<10} {:<20} {:<20} {:<20}", id, cf, gg, cpe);
    }
    println!();
}

/// §5 case study: a packet-level trace of the XB6's DNAT interception.
fn print_xb6_case_study() {
    println!("Case study (§5): XB6 DNAT interception, packet by packet");
    let mut built = HomeScenario::xb6_case_study().build();
    built.sim.enable_trace();
    let probe_v4 = built.addrs.probe_v4;
    let mut transport = SimTransport::new(built);
    let q = dns_wire::Question::new("example.com".parse().unwrap(), dns_wire::RType::A);
    let out = transport.query("8.8.8.8".parse().unwrap(), &q, 0x1000, QueryOptions::default());
    for entry in transport.scenario.sim.trace() {
        println!(
            "  {:>10}  {:<14} -> {:<14} {}",
            entry.at.to_string(),
            entry.from_node_name,
            entry.node_name,
            entry.packet
        );
    }
    match out.response() {
        Some(resp) => println!(
            "probe {probe_v4} received {} — source spoofed as 8.8.8.8, answered by the ISP resolver",
            describe_response(resp)
        ),
        None => println!("probe {probe_v4} received no answer"),
    }
    println!();
}

/// Appendix A: the naive A-record detector blames an innocent CPE; the
/// version.bind comparison does not.
fn print_appendix_a() {
    println!("Appendix A: A-record baseline vs version.bind comparison");
    let scenario = HomeScenario {
        cpe_model: CpeModelKind::OpenWanForwarder { version: "2.80".into() },
        middlebox: Some(MiddleboxSpec::redirect_all_to_isp()),
        ..HomeScenario::clean()
    };
    let built = scenario.build();
    let cpe_public: IpAddr = IpAddr::V4(built.addrs.cpe_public_v4);
    let config = built.locator_config();
    let mut transport = SimTransport::new(built);

    let verdict = baseline::a_record_cpe_check(
        &mut transport,
        cpe_public,
        "8.8.8.8".parse().unwrap(),
        &"example.com".parse().unwrap(),
        &mut TxidSequence::new(0x7000),
        QueryOptions::default(),
    );
    println!("  ground truth       : ISP middlebox intercepts; CPE is innocent (port 53 open)");
    println!("  A-record baseline  : {verdict:?}");
    let report = HijackLocator::new(config).run(&mut transport);
    println!(
        "  three-step verdict : intercepted={}, location={}",
        report.intercepted,
        report.location.map(|l| l.to_string()).unwrap_or_else(|| "-".into())
    );
    println!();
}

/// Re-measures every intercepted probe with archival on, and writes one
/// JSON-lines file of raw query/response records — the publishable dataset.
fn write_archives(path: &str, fleet: &Fleet, results: &[ProbeResult]) {
    #[derive(serde::Serialize)]
    struct Line {
        probe_id: u32,
        asn: u32,
        country: String,
        measurement: atlas_sim::RawMeasurement,
    }
    let mut out = String::new();
    let mut count = 0;
    for r in results.iter().filter(|r| r.report.intercepted) {
        let (_, measurement) = atlas_sim::measure_probe_archived(fleet, r.probe);
        let org = &fleet.config.orgs[r.probe.org];
        let line = Line {
            probe_id: r.probe.id,
            asn: org.asn,
            country: org.country.clone(),
            measurement,
        };
        out.push_str(&serde_json::to_string(&line).expect("serializable"));
        out.push('\n');
        count += 1;
    }
    match std::fs::write(path, out) {
        Ok(()) => eprintln!("wrote raw archives for {count} intercepted probes to {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

/// Writes the campaign's aggregated metrics (per-step counters, latency
/// histograms in sim-time, per-AS verdict tallies) as JSON. The output is
/// bit-for-bit reproducible for a given fleet configuration, so CI can
/// diff it against a checked-in expectation.
fn write_metrics(path: &str, fleet: &Fleet, registry: &MetricsRegistry) {
    let snapshot = registry.snapshot(&fleet.config.orgs);
    let mut json = serde_json::to_string_pretty(&snapshot).expect("serializable");
    json.push('\n');
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("wrote campaign metrics to {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

/// Writes the frozen latency distributions (`--timings-json`): exact
/// per-bucket counts plus p50/p90/p99/p999 for every phase, verdict, and
/// taxonomy-class histogram. The `virtual_clock` sections are bit-for-bit
/// reproducible for a given fleet configuration at any thread count or
/// batch size; the `wall_clock` sections measure this host.
fn write_timings(path: &str, timing: &TimingRegistry) {
    let mut json = serde_json::to_string_pretty(&timing.snapshot()).expect("serializable");
    json.push('\n');
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("wrote latency histograms to {path}"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Writes the Prometheus text exposition (`--metrics-prom`): every
/// campaign counter the metrics registry tracks plus the latency
/// histograms, in the 0.0.4 text format a Prometheus scrape expects.
fn write_prom(path: &str, text: String) {
    match std::fs::write(path, text) {
        Ok(()) => eprintln!("wrote Prometheus exposition to {path}"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn write_json(path: &str, fleet: &Fleet, results: &[ProbeResult]) {
    #[derive(serde::Serialize)]
    struct Dump<'a> {
        table4: atlas_sim::Table4,
        table5: atlas_sim::Table5,
        figure3: atlas_sim::Figure3,
        figure4: atlas_sim::Figure4,
        accuracy: atlas_sim::AccuracyStats,
        reports: Vec<&'a locator::ProbeReport>,
    }
    let dump = Dump {
        table4: table4(results),
        table5: table5(results),
        figure3: figure3(fleet, results, 15),
        figure4: figure4(fleet, results, 15),
        accuracy: accuracy(results),
        reports: results.iter().map(|r| &r.report).collect(),
    };
    match std::fs::write(path, serde_json::to_string_pretty(&dump).expect("serializable")) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}
