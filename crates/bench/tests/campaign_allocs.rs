//! The campaign's allocation contracts, enforced at the allocator.
//!
//! 1. **Flatness and budget.** The campaign must allocate O(probes), with
//!    a constant per-probe cost that does not creep up with fleet size
//!    (e.g. by re-cloning fleet-wide state per probe) and stays under an
//!    absolute per-probe budget.
//! 2. **Capture costs nothing when off.** With the flight recorder
//!    disabled, two identical campaign runs allocate exactly the same
//!    number of allocations and bytes; with it enabled, reports stay
//!    bitwise identical.
//! 3. **Capture on stays cheap.** A taxonomy scan — flight recorder on,
//!    flows rebuilt and cross-checked for every device — stays under a
//!    per-device allocation budget: typed hops allocate per flow, never
//!    per hop.
//!
//! All three run inside one `#[test]` because the counter is a process global;
//! parallel test threads would bleed into each other's deltas. Run with
//! `cargo test --release -p hijack-bench --test campaign_allocs`.

use atlas_sim::{
    classification_fleet, generate, run_campaign, run_campaign_captured,
    run_classification_streaming, CampaignOptions, FleetConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts allocations made anywhere in the process; the gates read deltas
/// around a campaign run.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Allocations and bytes allocated so far, process-wide.
fn counters() -> (u64, u64) {
    (ALLOCATIONS.load(Ordering::Relaxed), ALLOCATED_BYTES.load(Ordering::Relaxed))
}

/// Allocations per responding probe for a benign-only fleet of `size`
/// (quotas cleared so the household mix — and thus the per-probe query
/// count — is the same at every size).
fn allocations_per_probe(size: usize) -> (f64, f64) {
    let mut config = FleetConfig { size, ..FleetConfig::default() };
    for org in &mut config.orgs {
        org.quotas.clear();
    }
    let fleet = generate(config);
    let probes = fleet.responding().count() as f64;
    let (count0, bytes0) = counters();
    let results = run_campaign(&fleet, 1);
    let (count1, bytes1) = counters();
    drop(results);
    ((count1 - count0) as f64 / probes, (bytes1 - bytes0) as f64 / probes)
}

/// Absolute per-probe allocation budgets at the 1200-probe point. The
/// count budget is ~1.2x the ~99 allocs per probe measured once replies
/// stayed in wire form (it was ~215 while each accepted reply was copied
/// into an owned message; putting one such copy back per accepted reply
/// measures ~173 and fails the gate). Regressing past these means a per-query or per-build
/// allocation came back (e.g. re-encoding location queries, rebuilding
/// the resolver table, per-packet payload Vecs, owned reply copies); the
/// flatness *ratio* alone would not catch a uniform creep.
/// The steady-state *wire* path itself is pinned by `tests/zero_alloc.rs`;
/// this budget covers the whole probe — world build, verdicts,
/// aggregation — where some setup allocation is real.
const MAX_ALLOCS_PER_PROBE: f64 = 120.0;
const MAX_BYTES_PER_PROBE: f64 = 50_000.0;

/// Per-probe allocation cost must not grow with the fleet: borrowing the
/// probe spec and moving ground truth (instead of cloning both) keeps it
/// flat; an accidental per-probe clone of anything fleet-sized would fail
/// the ratio check.
fn assert_allocation_flatness() {
    let (small_count, small_bytes) = allocations_per_probe(300);
    let (large_count, large_bytes) = allocations_per_probe(1200);
    eprintln!(
        "allocation flatness: {small_count:.0} allocs/probe ({small_bytes:.0} B) at 300 \
         vs {large_count:.0} allocs/probe ({large_bytes:.0} B) at 1200"
    );
    assert!(
        large_count <= small_count * 1.10,
        "per-probe allocation count grew with fleet size: {small_count:.0} -> {large_count:.0}"
    );
    assert!(
        large_bytes <= small_bytes * 1.10,
        "per-probe allocated bytes grew with fleet size: {small_bytes:.0} -> {large_bytes:.0}"
    );
    assert!(
        large_count <= MAX_ALLOCS_PER_PROBE,
        "per-probe allocation count regressed past the budget: \
         {large_count:.0} > {MAX_ALLOCS_PER_PROBE}"
    );
    assert!(
        large_bytes <= MAX_BYTES_PER_PROBE,
        "per-probe allocated bytes regressed past the budget: \
         {large_bytes:.0} > {MAX_BYTES_PER_PROBE}"
    );
}

/// The flight recorder's zero-cost contract: with capture disabled (the
/// default `NullCapture`), two identical campaign runs allocate the exact
/// same number of allocations and bytes — the disabled path performs no
/// hidden, data-dependent allocation. With capture enabled, reports stay
/// bitwise identical while the only extra allocations are the recorded
/// events and reconstructed flows.
fn assert_capture_zero_cost() {
    let fleet = generate(FleetConfig { size: 300, ..FleetConfig::default() });
    // Warm every lazy once-per-process structure (world template, query
    // cache) so the measured runs differ only by what they allocate.
    let _ = run_campaign(&fleet, 1);

    let measure = |captured: bool| {
        let (count0, bytes0) = counters();
        let reports: Vec<_> = if captured {
            run_campaign_captured(&fleet, 1, None, None)
                .into_iter()
                .map(|(r, _flows)| r.report)
                .collect()
        } else {
            run_campaign(&fleet, 1).into_iter().map(|r| r.report).collect()
        };
        let (count1, bytes1) = counters();
        (count1 - count0, bytes1 - bytes0, reports)
    };

    let (count_a, bytes_a, reports_a) = measure(false);
    let (count_b, bytes_b, reports_b) = measure(false);
    eprintln!(
        "capture-disabled determinism: run A {count_a} allocs / {bytes_a} B, \
         run B {count_b} allocs / {bytes_b} B"
    );
    assert_eq!(
        (count_a, bytes_a),
        (count_b, bytes_b),
        "capture-disabled campaign allocations must be bitwise reproducible"
    );
    assert_eq!(reports_a, reports_b);

    let (count_c, bytes_c, reports_c) = measure(true);
    eprintln!("capture-enabled: {count_c} allocs / {bytes_c} B (events + flows on top)");
    assert_eq!(reports_a, reports_c, "enabling the flight recorder must not change any report");
}

/// Per-device allocation budget of a capture-on taxonomy scan. Rebuilding
/// ~12 flows of ~240 hops from the flight recorder once cost ~2,150
/// allocations per device, ~1,900 of them strings built per hop; with
/// typed hops the whole device costs ~310. One `String` per hop put back (~240 more per
/// device) fails this budget.
const MAX_ALLOCS_PER_CLASSIFIED_DEVICE: f64 = 400.0;

/// Allocations per classified device on a fixed mixed-taxonomy fleet, one
/// worker, after a warm-up run so once-per-process structures are built.
fn assert_classification_budget() {
    let fleet = classification_fleet(400, 7);
    let options = CampaignOptions::new(1);
    let _ = run_classification_streaming(&fleet, options);
    let (count0, bytes0) = counters();
    let summary = run_classification_streaming(&fleet, options);
    let (count1, bytes1) = counters();
    let devices = summary.probes as f64;
    let per_device = (count1 - count0) as f64 / devices;
    eprintln!(
        "capture-on classification: {per_device:.0} allocs/device ({:.0} B) over {devices} devices",
        (bytes1 - bytes0) as f64 / devices
    );
    assert_eq!(summary.capture_unconfirmed, 0, "every verdict must be corroborated");
    assert!(
        per_device <= MAX_ALLOCS_PER_CLASSIFIED_DEVICE,
        "capture-on classification allocations regressed past the budget: \
         {per_device:.0} > {MAX_ALLOCS_PER_CLASSIFIED_DEVICE}"
    );
}

#[test]
fn campaign_allocations_stay_flat_and_capture_off_costs_nothing() {
    assert_allocation_flatness();
    assert_capture_zero_cost();
    assert_classification_budget();
}
