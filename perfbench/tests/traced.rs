//! The traced run measures the same program as the campaign API: its
//! aggregate and its verdict-error count match the untraced run's on every
//! workload.

use perfbench::e2e::run_rep;
use perfbench::traced::run_traced;
use perfbench::Workload;

#[test]
fn traced_aggregate_and_errors_equal_the_campaign_apis() {
    // Seed 14 of the default pilot fleet plants a MiddleboxV6Only probe the
    // locator misses, and localize's lossy upstreams cost location verdicts,
    // so both runs must agree on a nonzero error count there.
    for (workload, seed, size) in
        [(Workload::Pilot, 14, 10_000), (Workload::Localize, 3, 600), (Workload::Taxonomy, 3, 300)]
    {
        let name = workload.name();
        let traced = run_traced(workload, seed, size);
        assert!(workload == Workload::Taxonomy || traced.errors > 0, "{name} has no error");
        for threads in [1, 2] {
            let rep = run_rep(workload, seed, size, threads, false);
            assert_eq!(rep.probes, traced.probes, "{name}");
            assert_eq!(rep.digest, traced.digest, "{name} at {threads} threads");
            assert_eq!(rep.errors, traced.errors, "{name} at {threads} threads");
        }
    }
}

#[test]
fn traced_run_reports_each_metric_once_with_a_unit() {
    let traced = run_traced(Workload::Localize, 4, 200);
    let mut names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
    assert!(traced.metrics.iter().all(|m| !m.unit.is_empty() && m.value.is_finite()));
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "a metric is reported twice");
}
